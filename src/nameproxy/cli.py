"""Command-line pipeline: build-tables, train, predict, evaluate, sample.

Every command takes ``--config`` (JSON, see :mod:`nameproxy.config`) plus
its own flags, and is deterministic given the config's seeds: re-running
a command with the same inputs produces byte-identical outputs.

Exit codes: 0 success, 1 validation error, 2 IO error.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .bayes import BayesContext, bayes_scores, geo_augment_scores
from .config import RunConfig, load_config
from .core import DECLINED, REASON_CODE, People, RaceSet, Scores
from .csvio import check_writable, framed, read_csv, replacing, write_csv
from .ensemble import MEMBER_ALIASES, MEMBER_MODELS, ensemble_scores, resolve_model
from .errors import NameproxyError, SchemaError
from .evaluation import class_metrics, emit_report, intersect_covered, roc_curve
from .lstm import load_params, predict_scores, save_params, train, write_training_log
from .names import column_keys, is_person_name, normalize_table, usable_keys
from .sampling import representative_sample_indices
from .tables import (
    EXTERNAL,
    FIRSTNAME,
    INTERNAL,
    SURNAME,
    GeoTable,
    NameTable,
    build_geo_table,
    count_name_table,
    merge_tables,
    training_rows,
)

logger = logging.getLogger(__name__)

VOTER_HEADER = ["first_name", "last_name", "geo_id", "race"]
MODEL_CHOICES = (*MEMBER_MODELS, "ensemble")


def read_people_csv(path, races: RaceSet, require_race: bool) -> People:
    """Ingest a ``first_name,last_name,geo_id,race`` CSV with row validation.

    Geography ids are stripped of surrounding whitespace, so ``" 10037 "``
    matches the table key ``10037``.  Race labels become indices into
    ``races`` (-1 for an empty label); each distinct label is checked once.
    The name and geography columns hold one string object per distinct
    value, so they grow by a pointer per row, not a string.
    """
    first: list[str] = []
    last: list[str] = []
    geo: list[str] = []
    race: list[int] = []
    codes = {label: i for i, label in enumerate(races)}
    one = {}.setdefault  # a value's first string object
    with read_csv(path, VOTER_HEADER) as rows:
        for f, l, g, label in rows:
            if not f or not l:
                raise SchemaError("empty name field")
            code = codes.get(label)
            if code is None:
                if label != "":
                    raise SchemaError(f"unknown race {label!r}")
                if require_race:
                    raise SchemaError("missing race")
                code = codes[""] = -1
            g = g.strip()
            first.append(one(f, f))
            last.append(one(l, l))
            geo.append(one(g, g))
            race.append(code)
    if not first:
        raise SchemaError(f"{path}: no data rows")
    return People(first, last, geo, np.array(race, dtype=np.intp), races)


def write_people_csv(people: People, path) -> None:
    labels = [*people.races.labels, ""]  # index -1 writes an empty race
    columns = zip(people.first, people.last, people.geo, people.race.tolist())
    rows = ([first, last, geo, labels[race]] for first, last, geo, race in columns)
    write_csv(path, VOTER_HEADER, rows, text=(0, 1, 2))


class Artifacts:
    """Lazily loaded parameters and tables, resolved from config paths."""

    def __init__(self, config: RunConfig):
        self.config = config

    def _path(self, key):
        path = self.config.path(key)
        if path is None:
            raise NameproxyError(f"config paths.{key} is required for the requested model")
        return path

    @cached_property
    def params(self):
        """The float64 parameter file's weights, read straight into the
        float32 vector the network scores in: no float64 copy is held."""
        path = self._path("params")
        params = load_params(path, np.float32)
        if params.n_classes != len(self.config.races):
            raise SchemaError(
                f"{path}: parameters have {params.n_classes} classes "
                f"for {len(self.config.races)} races"
            )
        return params

    @cached_property
    def bayes_context(self) -> BayesContext:
        """The one Bayes context of a predict: every model shares its
        factor matrices and resolved columns, and each table loads when a
        model first needs it."""
        return BayesContext(
            surname_table=lambda: NameTable.load(self._path("surname_table")),
            geo_table=lambda: GeoTable.load(self._path("geo_table")),
            firstname_table=lambda: NameTable.load(self._path("firstname_table")),
            races=self.config.races,
            suffixes=self.config.suffixes,
            smoothing_alpha=self.config.smoothing_alpha,
        )


def predict_model(model: str, people: People, artifacts: Artifacts, memo=None):
    """:class:`Scores` of every person under one model.

    ``memo`` maps canonical model ids (after :func:`resolve_model`) to
    outputs already computed for these people.  Sharing one dict across
    a predict call computes each model at most once: ``first_last_zcta``
    reuses ``first_last``'s vectors and ensemble members reuse the
    requested models' outputs.
    """
    model = resolve_model(model, MODEL_CHOICES, kind="model")
    memo = {} if memo is None else memo
    if model in memo:
        return memo[model]
    ctx = artifacts.bayes_context
    if model == "first_last":
        out = predict_scores(artifacts.params, people.first, people.last)
    elif model == "first_last_zcta":
        name = predict_model("first_last", people, artifacts, memo)
        geo = ctx.geo_likelihood
        out = geo_augment_scores(name, geo.rows(people.geo), geo.matrix)
    elif model == "bisg":
        out = bayes_scores(ctx, people.last, people.geo)
    elif model == "bifsg":
        out = bayes_scores(ctx, people.last, people.geo, firsts=people.first)
    else:  # the ensemble
        spec = artifacts.config.ensemble
        out = ensemble_scores(
            [predict_model(member, people, artifacts, memo) for member in spec.members], spec
        )
    memo[model] = out
    return out


def prediction_header(races: RaceSet) -> list[str]:
    return ["row_id", "model"] + [f"p_{r}" for r in races] + ["max_race", "covered"]


def cmd_build_tables(args, config: RunConfig) -> int:
    people = read_people_csv(args.voter, config.races, require_race=True)
    out_dir = Path(args.out_dir)

    rows = training_rows(people, config.seed, config.target_shares)
    per_race = np.bincount(people.race, minlength=len(config.races))
    manifest: dict = {
        "records": len(people),
        "per_race": {label: int(n) for label, n in zip(config.races, per_race)},
        "seed": config.seed,
        "target_shares": list(config.target_shares) if config.target_shares else None,
    }

    for kind, column, external_path, prefer in (
        (SURNAME, people.last, args.external_surname, EXTERNAL),
        (FIRSTNAME, people.first, args.external_firstname, INTERNAL),
    ):
        # each distinct raw name is normalized once, for the counts and the
        # manifest alike; the sample rows are shared by both kinds
        keys, codes = column_keys(column, partial(normalize_table, suffixes=config.suffixes))
        table = count_name_table(kind, config.races, keys, codes[rows], people.race[rows])
        distinct = int(usable_keys(keys).sum())
        stats = {
            "distinct_names": distinct,
            "kept_internal": len(table),
            "suppressed": distinct - len(table),
            "external_file": str(external_path) if external_path else None,
        }
        if external_path:
            external = NameTable.from_probability_csv(
                external_path, kind, config.races, config.suffixes
            )
            table = merge_tables(table, external, prefer=prefer)
            stats["kept_merged"] = len(table)
        path = out_dir / f"{kind}_table.csv"
        table.save(path)
        stats["path"] = str(path)
        manifest[kind] = stats

    geo_table = build_geo_table(people)
    geo_path = out_dir / "geo_table.csv"
    geo_table.save(geo_path)
    manifest["geo"] = {"entries": len(geo_table), "path": str(geo_path)}

    manifest_path = out_dir / "manifest.json"
    with replacing(manifest_path, encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    logger.info("wrote tables and manifest under %s", out_dir)
    return 0


def cmd_train(args, config: RunConfig) -> int:
    check_writable(args.out_params)
    check_writable(args.out_log)
    people = read_people_csv(args.voter, config.races, require_race=True)
    params, log = train(people, config.train)
    save_params(params, args.out_params)
    write_training_log(log, args.out_log)
    logger.info(
        "trained %d epochs, best validation accuracy %.4f",
        len(log),
        max(row.val_accuracy for row in log),
    )
    return 0


def _parse_models(spec: str) -> list[str]:
    models = [m.strip() for m in spec.split(",") if m.strip()]
    if not models:
        raise SchemaError("no models requested")
    for model in models:
        resolve_model(model, MODEL_CHOICES, kind="model")
    return models


def cmd_predict(args, config: RunConfig) -> int:
    check_writable(args.out)
    people = read_people_csv(args.input, config.races, require_race=False)
    models = _parse_models(args.models)
    artifacts = Artifacts(config)
    memo: dict[str, Scores] = {}
    outputs = {
        model: predict_model(model, people, artifacts, memo) for model in models
    }
    for model, scores in outputs.items():
        logger.info("%s over %d records: %s", model, len(people), scores.histogram())
    write_predictions_csv(outputs, config.races, args.out)
    logger.info("wrote predictions for %d records x %d models", len(people), len(models))
    return 0


def write_predictions_csv(outputs: dict[str, Scores], races: RaceSet, path) -> None:
    """Write each model's :class:`Scores`, one line per row and model;
    :func:`read_predictions_csv` reads the file back."""
    # per model, each row's line after its row id.  Each distinct row of
    # probabilities is formatted once, keyed by its bytes so that -0.0 and
    # 0.0 keep their own text; its values are Python floats, whose str is
    # the repr of the float64, as the csv writer prints them.
    labels = [framed([label]) for label in races]
    declined = "," * (len(races) + 1) + "0"  # empty probabilities and max_race
    tails = []
    for model, scores in outputs.items():
        head = framed([model])
        probs = np.ascontiguousarray(scores.probs)
        keys = probs.view(np.dtype((np.void, probs.itemsize * probs.shape[1])))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        distinct = probs[first]
        covered_text = [
            f"{head},{','.join(map(str, row))},{labels[label]},1"
            for row, label in zip(distinct.tolist(), distinct.argmax(axis=1).tolist())
        ]
        declined_text = f"{head},{declined}"
        tails.append([
            covered_text[k] if covered else declined_text
            for k, covered in zip(inverse.tolist(), scores.covered.tolist())
        ])
    n_rows = len(tails[0]) if tails else 0
    lines = (f"{i},{model_tails[i]}\n" for i in range(n_rows) for model_tails in tails)
    write_csv(path, prediction_header(races), lines=lines)


def read_predictions_csv(path, races: RaceSet, n_rows: int) -> dict[str, Scores]:
    """Parse a predictions file into one :class:`Scores` of ``n_rows`` rows
    per model; a declined row's reason is :data:`core.DECLINED`.

    Raises:
        SchemaError: a malformed line, a model id with "/" or "\\r" (the
            id names report files and fills their rows), a ``(row_id,
            model)`` pair that appears twice, a covered row with a negative
            or non-finite probability or no mass, or a model missing some row.
    """
    width = len(races)
    by_model: dict[str, Scores] = {}
    with read_csv(path, prediction_header(races)) as rows:
        for row in rows:
            try:
                row_id = int(row[0])
            except ValueError as exc:
                raise SchemaError("bad row_id") from exc
            model = row[1]
            if not 0 <= row_id < n_rows:
                raise SchemaError(f"row_id {row_id} outside truth file")
            scores = by_model.get(model)
            if scores is None:
                if "/" in model or "\r" in model:
                    raise SchemaError(f"model id {model!r} holds '/' or '\\r'")
                # reason -1 marks a row not seen yet
                scores = by_model[model] = Scores(
                    np.zeros((n_rows, width)), np.full(n_rows, -1, dtype=np.int8)
                )
            if scores.reason[row_id] >= 0:
                raise SchemaError(f"second line for row_id {row_id}, model {model!r}")
            covered = row[-1]
            if covered not in ("0", "1"):
                raise SchemaError("covered must be 0 or 1")
            if covered == "1":
                try:
                    probs = [float(v) for v in row[2:-2]]
                except ValueError as exc:
                    raise SchemaError("bad probability") from exc
                if not all(0.0 <= p < math.inf for p in probs) or not sum(probs) > 0.0:
                    raise SchemaError("probabilities must be finite, non-negative, not all 0")
                scores.probs[row_id] = probs
                scores.reason[row_id] = 0
            else:
                scores.reason[row_id] = REASON_CODE[DECLINED]
    for model, scores in by_model.items():
        missing = int((scores.reason < 0).sum())
        if missing:
            raise SchemaError(
                f"{path}: model {model!r} is missing {missing} of {n_rows} row_ids"
            )
    return by_model


def _require_sample_shares(config: RunConfig):
    if config.sample_shares is None:
        raise SchemaError("config sample_shares is required for stratified sampling")
    return config.sample_shares


def cmd_evaluate(args, config: RunConfig) -> int:
    truth = read_people_csv(args.truth, config.races, require_race=True)
    all_models: dict[str, Scores] = {}
    for path in args.predictions:
        parsed = read_predictions_csv(path, config.races, len(truth))
        for model, scores in parsed.items():
            if model in all_models:
                raise SchemaError(f"model {model!r} appears in more than one file")
            all_models[model] = scores
    if not all_models:
        raise SchemaError("prediction files contained no models")

    rows = np.arange(len(truth))
    if args.sample is not None:
        rows = representative_sample_indices(
            truth.race, args.sample, _require_sample_shares(config), config.seed, config.races
        )
    if args.intersect_covered:
        rows = rows[intersect_covered([s.covered[rows] for s in all_models.values()])]
        if not rows.size:
            logger.warning("covered-subset intersection is empty; metrics undefined")

    race = truth.race[rows]
    reports = {}
    rocs = {}
    for model, scores in all_models.items():
        probs = scores.probs[rows]
        covered = scores.covered[rows]
        predicted = np.where(covered, probs.argmax(axis=1), -1)
        reports[model] = class_metrics(
            race, predicted, config.races, strict=config.strict_metrics
        )
        curves = {}
        for label in config.races:
            try:
                curves[label] = roc_curve(race[covered], probs[covered], label, config.races)
            except NameproxyError as exc:
                logger.warning("skipping ROC for %s/%s: %s", model, label, exc)
        rocs[model] = curves
    written = emit_report(reports, rocs, args.out_dir)
    logger.info("wrote %d report files under %s", len(written), args.out_dir)
    return 0


def cmd_sample(args, config: RunConfig) -> int:
    people = read_people_csv(args.input, config.races, require_race=True)
    person = partial(is_person_name, filter_words=config.filter_words)
    kept = np.ones(len(people), dtype=bool)
    triple = np.zeros(len(people), dtype=np.intp)
    for column, filtered in ((people.first, True), (people.last, True), (people.geo, False)):
        values, codes = column_keys(column)
        if filtered:  # "first last" has a filter word exactly when one of its parts has one
            kept &= np.array([person(value) for value in values], dtype=bool)[codes]
        # one code per distinct (first, last, geo) so far, renumbered densely
        # so the product stays below len(people) ** 2
        _, triple = np.unique(triple * len(values) + codes, return_inverse=True)
    # the first kept row of each distinct (first, last, geo)
    _, first_seen = np.unique(triple[kept], return_index=True)
    unique = np.flatnonzero(kept)[np.sort(first_seen)]
    indices = representative_sample_indices(
        people.race[unique], args.n, _require_sample_shares(config), config.seed, config.races
    )
    write_people_csv(people.take(unique[indices]), args.out)
    logger.info(
        "filtered %d -> %d person rows, %d unique, sampled %d",
        len(people), kept.sum(), len(unique), len(indices),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nameproxy",
        description="Race/ethnicity proxy models from names and geography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-tables", help="build name and geography tables")
    p.add_argument("--config", required=True)
    p.add_argument("--voter", required=True, help="voter-style CSV with race")
    p.add_argument("--external-surname", help="external surname probability CSV")
    p.add_argument("--external-firstname", help="external first-name probability CSV")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_build_tables)

    p = sub.add_parser("train", help="train the character-level name model")
    p.add_argument("--config", required=True)
    p.add_argument("--voter", required=True)
    p.add_argument("--out-params", required=True)
    p.add_argument("--out-log", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="score a CSV with one or more models")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True)
    p.add_argument(
        "--models",
        default="ensemble",
        help=f"comma-separated subset of: {', '.join([*MODEL_CHOICES, *MEMBER_ALIASES])}",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score prediction files against truth")
    p.add_argument("--config", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--predictions", nargs="+", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sample", type=int, help="representative sample size")
    p.add_argument(
        "--intersect-covered",
        action="store_true",
        help="restrict to records every model covered",
    )
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sample", help="filter, dedupe, and stratify a raw CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("NAMEPROXY_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except OSError as exc:
        print(f"nameproxy: io error: {exc}", file=sys.stderr)
        return 2
    except (NameproxyError, ValueError) as exc:
        print(f"nameproxy: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
