"""Span tracing of the nameproxy layers, installed from outside the package.

:func:`install` replaces each layer's public functions with a wrapper that
records one span (name, start, end, parent span) per call, in every
``nameproxy`` module namespace that bound the function.  A function that
one module imported from another (``nameproxy.cli.bifsg_reason``, or
``nameproxy.lstm.forward`` as called from ``predict_proba_batch`` and
``_accuracy``) is therefore traced at every call site.  Spans and counters
live in memory and are written once, by :meth:`Tracer.dump`.

:func:`summarize` turns one dump into per-name call counts, inclusive time
(outermost calls only, so recursion through ``predict_model`` is not counted
twice) and self time (span minus the part its child spans cover).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

import numpy as np

#: (span name, module, attribute) of every traced callable; "Class.method"
#: attributes are patched on the class, which covers every caller.
TARGETS = (
    ("cli.read_people_csv", "nameproxy.cli", "read_people_csv"),
    ("cli.cmd_predict", "nameproxy.cli", "cmd_predict"),
    ("cli.predict_model", "nameproxy.cli", "predict_model"),
    ("cli.read_predictions_csv", "nameproxy.cli", "read_predictions_csv"),
    ("names.normalize", "nameproxy.names", "normalize"),
    ("names.normalize_table", "nameproxy.names", "normalize_table"),
    ("names.encode_name", "nameproxy.names", "encode_name"),
    ("tables.build_name_table", "nameproxy.tables", "build_name_table"),
    ("tables.build_geo_table", "nameproxy.tables", "build_geo_table"),
    ("tables.NameTable.save", "nameproxy.tables", "NameTable.save"),
    ("tables.GeoTable.save", "nameproxy.tables", "GeoTable.save"),
    ("tables.NameTable.load", "nameproxy.tables", "NameTable.load"),
    ("tables.GeoTable.load", "nameproxy.tables", "GeoTable.load"),
    ("tables.NameTable.race_given_name", "nameproxy.tables", "NameTable.race_given_name"),
    ("tables.NameTable.name_likelihood", "nameproxy.tables", "NameTable.name_likelihood"),
    ("tables.GeoTable.geo_likelihood", "nameproxy.tables", "GeoTable.geo_likelihood"),
    ("bayes.bisg_reason", "nameproxy.bayes", "bisg_reason"),
    ("bayes.bifsg_reason", "nameproxy.bayes", "bifsg_reason"),
    ("bayes.geo_augment_reason", "nameproxy.bayes", "geo_augment_reason"),
    ("ensemble.ensemble_predict", "nameproxy.ensemble", "ensemble_predict"),
    ("lstm.forward", "nameproxy.lstm", "forward"),
    ("lstm.load_params", "nameproxy.lstm", "load_params"),
    ("lstm.save_params", "nameproxy.lstm", "save_params"),
    ("lstm.loss_and_gradients", "nameproxy.lstm", "loss_and_gradients"),
    ("lstm.adam_step", "nameproxy.lstm", "adam_step"),
    ("evaluation.class_metrics", "nameproxy.evaluation", "class_metrics"),
    ("evaluation.roc_curve", "nameproxy.evaluation", "roc_curve"),
    ("evaluation.emit_report", "nameproxy.evaluation", "emit_report"),
    ("sampling.representative_sample_indices", "nameproxy.sampling",
     "representative_sample_indices"),
)


def _forward_rows(counters, args, kwargs, result):
    """Rows scored and FLOPs spent by one ``lstm.forward`` call."""
    params = args[0] if args else kwargs["params"]
    codes = np.asarray(args[1] if len(args) > 1 else kwargs["codes"])
    rows, steps = (1, codes.shape[0]) if codes.ndim == 1 else codes.shape
    hidden = params.hidden
    flop = 0
    for layer in range(params.n_layers):
        in_dim = params.embed_dim if layer == 0 else 2 * hidden
        # both directions: input projection plus recurrent matmul per step
        flop += 2 * steps * 2 * (in_dim + hidden) * 4 * hidden
    flop += 2 * 2 * hidden * params.n_classes
    counters["lstm.forward_rows"] = counters.get("lstm.forward_rows", 0) + rows
    counters["lstm.forward_flop"] = counters.get("lstm.forward_flop", 0) + rows * flop


def _posterior_covered(counters, args, kwargs, result):
    if result[0] is not None:
        counters["bayes.covered"] = counters.get("bayes.covered", 0) + 1


OBSERVERS = {
    "lstm.forward": _forward_rows,
    "bayes.bisg_reason": _posterior_covered,
    "bayes.bifsg_reason": _posterior_covered,
    "bayes.geo_augment_reason": _posterior_covered,
}


class Tracer:
    """In-memory span store: parallel arrays indexed by span id."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}

    def wrap(self, name, fn, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        name_of, parent_of, start, end = self.name_of, self.parent_of, self.start, self.end
        stack, counters, clock = self.stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(name_of)
            name_of.append(name_id)
            parent_of.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "wb") as fh:
            np.savez(
                fh,
                names=np.array(self.names),
                name=np.frombuffer(self.name_of, dtype=np.int32),
                parent=np.frombuffer(self.parent_of, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                counters=np.array(json.dumps(self.counters, sort_keys=True)),
            )


def install() -> Tracer:
    """Import the CLI and patch every target in every namespace that holds it."""
    import nameproxy.cli  # noqa: F401  (imports every layer)

    tracer = Tracer()
    modules = [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "nameproxy" or name.startswith("nameproxy."))
    ]
    for span_name, module, attr in TARGETS:
        observe = OBSERVERS.get(span_name)
        owner = sys.modules[module]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                wrapped = classmethod(tracer.wrap(span_name, raw.__func__, observe))
            else:
                wrapped = tracer.wrap(span_name, raw, observe)
            setattr(cls, meth, wrapped)
            continue
        original = getattr(owner, attr)
        wrapped = tracer.wrap(span_name, original, observe)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    return tracer


def summarize(path) -> dict:
    """Per span name: calls, inclusive seconds and self seconds; plus counters."""
    with np.load(path) as data:
        names = [str(n) for n in data["names"]]
        name = data["name"].astype(np.int64)
        parent = data["parent"].astype(np.int64)
        dur = data["end"] - data["start"]
        counters = json.loads(str(data["counters"]))
    has_parent = parent >= 0
    child_time = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=dur.size
    )
    self_time = dur - child_time
    # a span nested in a span of the same name is already inside its time
    nested = np.zeros(dur.size, dtype=bool)
    ancestor = parent.copy()
    while (ancestor >= 0).any():
        live = ancestor >= 0
        nested[live] |= name[ancestor[live]] == name[live]
        ancestor[live] = parent[ancestor[live]]
    outer = ~nested
    n = len(names)
    calls = np.bincount(name, minlength=n)
    inclusive = np.bincount(name[outer], weights=dur[outer], minlength=n)
    own = np.bincount(name, weights=self_time, minlength=n)
    return {
        "calls": {names[i]: int(calls[i]) for i in range(n)},
        "inclusive_s": {names[i]: float(inclusive[i]) for i in range(n)},
        "self_s": {names[i]: float(own[i]) for i in range(n)},
        "counters": counters,
    }
