"""The package's public surface, pinned: adding or removing a public
module-level name is a change to this list, made on purpose.

A public name is a module-level function, class or assigned name (a
plain name or one in a tuple target) that does not start with ``_``.
:func:`settable_values` counts the values a caller can set through that
surface; it is reported, not pinned.  An exception class other than the
base class exists only where some code catches it by name
(:func:`exception_classes`, :func:`caught_names`).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nameproxy"

SURFACE = {
    "__init__": [],
    "bayes": [
        "BayesContext", "Factor", "bayes_scores", "bifsg", "bifsg_reason", "bisg",
        "bisg_reason", "geo_augment", "geo_augment_reason", "geo_augment_scores", "logger",
    ],
    "cli": [
        "Artifacts", "MODEL_CHOICES", "VOTER_HEADER", "build_parser", "cmd_build_tables",
        "cmd_evaluate", "cmd_predict", "cmd_sample", "cmd_train", "logger", "main",
        "predict_model", "prediction_header", "read_people_csv", "read_predictions_csv",
        "write_people_csv", "write_predictions_csv",
    ],
    "config": ["RunConfig", "US_POPULATION_SHARES", "load_config"],
    "core": [
        "DECLINED", "DECLINE_REASONS", "DEFAULT_RACES", "NO_MEMBER", "People", "REASON_CODE",
        "RaceSet", "Scores", "UNENCODABLE_NAME", "UNKNOWN_FIRSTNAME", "UNKNOWN_GEO",
        "UNKNOWN_SURNAME", "ZERO_MASS", "renormalize_rows",
    ],
    "csvio": ["check_writable", "framed", "not_utf8", "read_csv", "replacing", "write_csv"],
    "ensemble": [
        "DEFAULT_MEMBERS", "EnsembleSpec", "MEMBER_ALIASES", "MEMBER_MODELS",
        "ensemble_predict", "ensemble_scores", "resolve_model",
    ],
    "errors": ["NameproxyError", "SchemaError"],
    "evaluation": [
        "ClassReport", "MetricRow", "RocCurve", "class_metrics", "emit_report",
        "intersect_covered", "roc_curve",
    ],
    "lstm": [
        "AdamState", "EpochStats", "FORMAT_VERSION", "LstmDirection", "MAGIC",
        "NetworkParams", "TrainConfig", "adam_step", "forward", "init_params",
        "load_params", "loss_and_gradients", "predict_proba", "predict_proba_batch",
        "predict_scores", "prepare_dataset", "save_params", "split_and_balance", "train",
        "write_training_log",
    ],
    "names": [
        "CHAR_TO_CODE", "DEFAULT_FILTER_WORDS", "DEFAULT_SUFFIXES", "PAD_CODE", "VOCAB_SIZE",
        "WINDOW", "column_keys", "encode_columns", "encode_name", "is_person_name",
        "load_filter_words", "normalize", "normalize_table", "usable_keys",
    ],
    "sampling": [
        "largest_remainder_quotas", "max_feasible_sample_size", "representative_sample_indices",
    ],
    "tables": [
        "EXTERNAL", "FIRSTNAME", "GeoTable", "INTERNAL", "MIN_TOTAL", "NameTable",
        "SINGLE_RACE_BAND", "SOURCES", "SURNAME", "build_geo_table", "build_name_table",
        "count_name_table", "merge_tables", "passes_suppression", "training_rows",
    ],
}


def public_names(source: str) -> list[str]:
    """The public module-level names of a module's source, sorted."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in target.elts if isinstance(target, ast.Tuple) else [target]:
                    if isinstance(name, ast.Name):
                        names.add(name.id)
    return sorted(name for name in names if not name.startswith("_"))


def settable_values(source: str) -> int:
    """The defaulted parameters of a module's public functions and of the
    public methods (``__init__`` included) of its public classes, plus the
    fields of its public dataclasses."""

    def defaults(fn) -> int:
        return len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)

    def is_dataclass(cls) -> bool:
        calls = (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
        return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in calls)

    count = 0
    for node in ast.parse(source).body:
        if getattr(node, "name", "_").startswith("_"):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += defaults(node)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    not item.name.startswith("_") or item.name == "__init__"
                ):
                    count += defaults(item)
                elif isinstance(item, ast.AnnAssign) and is_dataclass(node):
                    count += 1
    return count


def exception_classes(source: str) -> list[str]:
    """The classes a module's source defines at module level, in order."""
    return [node.name for node in ast.parse(source).body if isinstance(node, ast.ClassDef)]


def caught_names(source: str) -> set[str]:
    """The names the ``except`` clauses of a module's source catch."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            names.update(c.id if isinstance(c, ast.Name) else c.attr for c in caught
                         if isinstance(c, (ast.Name, ast.Attribute)))
    return names


def test_public_names_match_the_pinned_list():
    found = {path.stem: public_names(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert found == {module: sorted(names) for module, names in SURFACE.items()}


def test_counter_sees_each_kind_of_definition():
    source = (
        "import os\nfrom x import y\n"
        "def f(): pass\nclass C: pass\nA = 1\nB: int = 2\nc, _d = 3, 4\nE[0] = 5\n"
        "def _g(): pass\n_H = 6\nif True:\n    I = 7\n"
    )
    assert public_names(source) == ["A", "B", "C", "c", "f"]


def test_settable_value_counter_sees_each_kind_of_setting():
    source = (
        "from dataclasses import dataclass\n"
        "def f(a, b=1, *c, d, e=2, **g): pass\n"  # 2
        "def _f(a=1): pass\n"
        "class C:\n"
        "    x: int = 0\n"  # not a dataclass field
        "    def __init__(self, a=1): pass\n"  # 1
        "    def m(self, a, b=2): pass\n"  # 1
        "    def _m(self, a=1): pass\n"
        "    def __eq__(self, other=None): pass\n"
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    x: int\n"  # 1
        "    y: int = 0\n"  # 1
        "    def m(self, a=None): pass\n"  # 1
        "@dataclass\n"
        "class _E:\n"
        "    x: int = 0\n"
    )
    assert settable_values(source) == 7


def test_every_exception_class_is_caught_somewhere():
    caught = set().union(*(caught_names(path.read_text()) for path in SRC.glob("*.py")))
    classes = exception_classes((SRC / "errors.py").read_text())
    assert [c for c in classes if c != "NameproxyError" and c not in caught] == []


def test_catch_counter_sees_each_kind_of_clause():
    source = (
        "try:\n    pass\nexcept A:\n    pass\nexcept (B, m.C) as exc:\n    pass\n"
        "except:\n    pass\n"
        "def f():\n    try:\n        pass\n    except D:\n        pass\n"
    )
    assert caught_names(source) == {"A", "B", "C", "D"}
