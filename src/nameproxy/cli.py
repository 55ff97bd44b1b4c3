"""Command-line pipeline: build-tables, train, predict, evaluate, sample.

Every command takes ``--config`` (JSON, see :mod:`nameproxy.config`) plus
its own flags, and is deterministic given the config's seeds: re-running
a command with the same inputs produces byte-identical outputs.

Exit codes: 0 success, 1 validation error, 2 IO error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bayes import BayesContext, Factor, bayes_scores, geo_augment_scores
from .config import RunConfig, load_config
from .core import REASON_CODE, UNENCODABLE_NAME, PersonRecord, RaceSet, Scores, argmax_race
from .ensemble import ensemble_scores
from .errors import (
    MissingArtifactError,
    NameproxyError,
    SchemaError,
)
from .evaluation import class_metrics, emit_report, intersect_covered, roc_curve
from .lstm import (
    load_params,
    predict_proba_batch,
    save_params,
    train,
    write_training_log,
)
from .names import NEURAL, TABLE, column_keys, encode_name, is_person_name
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
MODEL_CHOICES = ("first_last", "first_last_zcta", "bisg", "bifsg", "ensemble")

#: Ensemble member ids may name the improved (merged-table) variants; they
#: run the same machinery, the tables in the config decide the rest.
MEMBER_ALIASES = {"ibisg": "bisg", "ibifsg": "bifsg"}


def read_people_csv(path, races: RaceSet, require_race: bool) -> list[PersonRecord]:
    """Ingest a ``first_name,last_name,geo_id,race`` CSV with row validation.

    Geography ids are stripped of surrounding whitespace, so ``" 10037 "``
    matches the table key ``10037``.
    """
    records: list[PersonRecord] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != VOTER_HEADER:
            raise SchemaError(f"{path}: expected header {VOTER_HEADER}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise SchemaError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
            first, last, geo, race = row
            if not first or not last:
                raise SchemaError(f"{path}: line {lineno}: empty name field")
            if race == "":
                if require_race:
                    raise SchemaError(f"{path}: line {lineno}: missing race")
                race = None
            elif race not in races:
                raise SchemaError(f"{path}: line {lineno}: unknown race {race!r}")
            records.append(PersonRecord(first, last, geo.strip(), race))
    if not records:
        raise SchemaError(f"{path}: no data rows")
    return records


def write_people_csv(records, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(VOTER_HEADER)
        for rec in records:
            writer.writerow([rec.first, rec.last, rec.geo, rec.race or ""])


@dataclass
class Artifacts:
    """Lazily loaded tables and parameters, resolved from config paths."""

    config: RunConfig
    _cache: dict = None

    def __post_init__(self):
        self._cache = {}

    def _load(self, key, loader):
        if key not in self._cache:
            path = self.config.path(key)
            if path is None:
                raise MissingArtifactError(
                    f"config paths.{key} is required for the requested model"
                )
            self._cache[key] = loader(path)
        return self._cache[key]

    @property
    def params(self):
        return self._load("params", load_params)

    def _load_surname_table(self, path) -> NameTable:
        table = NameTable.load(path)
        table.smoothing_alpha = self.config.smoothing_alpha
        return table

    @property
    def surname_table(self) -> NameTable:
        return self._load("surname_table", self._load_surname_table)

    @property
    def firstname_table(self) -> NameTable:
        return self._load("firstname_table", NameTable.load)

    @property
    def geo_table(self) -> GeoTable:
        return self._load("geo_table", GeoTable.load)

    def bayes_context(self, with_firstname: bool) -> BayesContext:
        """The one Bayes context of these artifacts, so BISG and BIFSG share
        its factor matrices and resolved columns; the first-name table joins
        it when a model first needs it."""
        ctx = self._cache.get("bayes_context")
        if ctx is None:
            ctx = self._cache["bayes_context"] = BayesContext(
                surname_table=self.surname_table,
                geo_table=self.geo_table,
                suffixes=self.config.suffixes,
            )
        if with_firstname and ctx.firstname_table is None:
            ctx.add_firstname_table(self.firstname_table)
        return ctx


def _neural_scores(artifacts: Artifacts, records) -> Scores:
    """Name-model probabilities per record; unencodable names decline."""
    n = len(records)
    firsts, first_codes = column_keys([rec.first for rec in records], NEURAL)
    lasts, last_codes = column_keys([rec.last for rec in records], NEURAL)
    encodable = (
        np.array([key is not None for key in firsts], dtype=bool)[first_codes]
        & np.array([key is not None for key in lasts], dtype=bool)[last_codes]
    )
    pairs, pair_codes = np.unique(
        np.stack([first_codes[encodable], last_codes[encodable]], axis=1),
        axis=0,
        return_inverse=True,
    )
    probs = np.zeros((n, len(artifacts.config.races)))
    if pairs.size:
        encoded = np.stack([encode_name(firsts[f], lasts[l]) for f, l in pairs.tolist()])
        probs[encodable] = predict_proba_batch(artifacts.params, encoded[pair_codes.ravel()])
    reason = np.where(encodable, 0, REASON_CODE[UNENCODABLE_NAME]).astype(np.int8)
    return Scores(probs, reason)


def predict_model(model: str, records, artifacts: Artifacts, config: RunConfig, memo=None):
    """:class:`Scores` of every record under one model.

    ``memo`` maps canonical model ids (after :data:`MEMBER_ALIASES`) to
    outputs already computed for these records.  Sharing one dict across
    a predict call computes each model at most once: ``first_last_zcta``
    reuses ``first_last``'s vectors and ensemble members reuse the
    requested models' outputs.
    """
    model = MEMBER_ALIASES.get(model, model)
    memo = {} if memo is None else memo
    if model in memo:
        return memo[model]
    if model == "first_last":
        out = _neural_scores(artifacts, records)
    elif model == "first_last_zcta":
        name = predict_model("first_last", records, artifacts, config, memo)
        geo = Factor.of(artifacts.geo_table.entries, artifacts.geo_table.likelihood_rows())
        out = geo_augment_scores(
            name, geo.rows([rec.geo for rec in records], profile=None), geo.matrix
        )
    elif model == "bisg":
        ctx = artifacts.bayes_context(with_firstname=False)
        out = bayes_scores(ctx, [rec.last for rec in records], [rec.geo for rec in records])
    elif model == "bifsg":
        ctx = artifacts.bayes_context(with_firstname=True)
        out = bayes_scores(
            ctx,
            [rec.last for rec in records],
            [rec.geo for rec in records],
            firsts=[rec.first for rec in records],
        )
    elif model == "ensemble":
        spec = config.ensemble
        out = ensemble_scores(
            [predict_model(member, records, artifacts, config, memo) for member in spec.members],
            spec,
        )
    else:
        raise ValueError(f"unknown model {model!r}")
    memo[model] = out
    return out


def prediction_header(races: RaceSet) -> list[str]:
    return ["row_id", "model"] + [f"p_{r}" for r in races] + ["max_race", "covered"]


def cmd_build_tables(args, config: RunConfig) -> int:
    records = read_people_csv(args.voter, config.races, require_race=True)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    race, rows = training_rows(records, config.races, config.seed, config.target_shares)
    per_race = np.bincount(race[race >= 0], minlength=len(config.races))
    manifest: dict = {
        "records": len(records),
        "per_race": {label: int(n) for label, n in zip(config.races, per_race)},
        "seed": config.seed,
        "target_shares": list(config.target_shares) if config.target_shares else None,
    }

    for kind, external_path, prefer in (
        (SURNAME, args.external_surname, EXTERNAL),
        (FIRSTNAME, args.external_firstname, INTERNAL),
    ):
        # each distinct raw name is normalized once, for the counts and the
        # manifest alike; the sample rows are shared by both kinds
        keys, codes = column_keys(
            [rec.last if kind == SURNAME else rec.first for rec in records],
            TABLE,
            config.suffixes,
        )
        table = count_name_table(kind, config.races, keys, codes[rows], race[rows])
        distinct = sum(1 for key in keys if key is not None and len(key) > 1)
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

    geo_table = build_geo_table(records, config.races)
    geo_path = out_dir / "geo_table.csv"
    geo_table.save(geo_path)
    manifest["geo"] = {"entries": len(geo_table), "path": str(geo_path)}

    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    logger.info("wrote tables and manifest under %s", out_dir)
    return 0


def cmd_train(args, config: RunConfig) -> int:
    records = read_people_csv(args.voter, config.races, require_race=True)
    cfg = config.train_config()
    params, log = train(records, cfg, races=config.races)
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
        if MEMBER_ALIASES.get(model, model) not in MODEL_CHOICES:
            raise SchemaError(
                f"unknown model {model!r}; choose from {', '.join(MODEL_CHOICES)}"
            )
    return models


def cmd_predict(args, config: RunConfig) -> int:
    records = read_people_csv(args.input, config.races, require_race=False)
    models = _parse_models(args.models)
    artifacts = Artifacts(config)
    memo: dict[str, Scores] = {}
    outputs = {
        model: predict_model(model, records, artifacts, config, memo) for model in models
    }
    for model, scores in outputs.items():
        logger.info("%s over %d records: %s", model, len(records), scores.histogram())
    # per model: row values as Python floats (whose str is repr of the
    # float64), the argmax label and the covered flag
    blank = [""] * len(config.races) + ["", 0]
    columns = [
        (
            model,
            scores.probs.tolist(),
            [config.races.labels[i] for i in scores.probs.argmax(axis=1).tolist()],
            scores.covered.tolist(),
        )
        for model, scores in outputs.items()
    ]
    with open(args.out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(prediction_header(config.races))
        for i in range(len(records)):
            for model, probs, labels, covered in columns:
                if covered[i]:
                    writer.writerow([i, model, *probs[i], labels[i], 1])
                else:
                    writer.writerow([i, model, *blank])
    logger.info("wrote predictions for %d records x %d models", len(records), len(models))
    return 0


class _Unseen:
    pass


_UNSEEN = _Unseen()


def read_predictions_csv(path, races: RaceSet, n_rows: int):
    """Parse a predictions file into {model: [probs or None] * n_rows}."""
    expected = prediction_header(races)
    by_model: dict[str, list] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise SchemaError(f"{path}: expected header {expected}, got {header}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise SchemaError(f"{path}: line {lineno}: wrong field count")
            try:
                row_id = int(row[0])
            except ValueError as exc:
                raise SchemaError(f"{path}: line {lineno}: bad row_id") from exc
            model = row[1]
            if not 0 <= row_id < n_rows:
                raise SchemaError(
                    f"{path}: line {lineno}: row_id {row_id} outside truth file"
                )
            slots = by_model.get(model)
            if slots is None:
                slots = by_model[model] = [_UNSEEN] * n_rows
            covered = row[-1]
            if covered not in ("0", "1"):
                raise SchemaError(f"{path}: line {lineno}: covered must be 0 or 1")
            if covered == "1":
                try:
                    probs = np.array([float(v) for v in row[2:-2]], dtype=np.float64)
                except ValueError as exc:
                    raise SchemaError(f"{path}: line {lineno}: bad probability") from exc
                slots[row_id] = probs
            else:
                slots[row_id] = None
    for model, slots in by_model.items():
        missing = sum(1 for s in slots if s is _UNSEEN)
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
    all_models: dict[str, list] = {}
    for path in args.predictions:
        parsed = read_predictions_csv(path, config.races, len(truth))
        for model, slots in parsed.items():
            if model in all_models:
                raise SchemaError(f"model {model!r} appears in more than one file")
            all_models[model] = slots
    if not all_models:
        raise SchemaError("prediction files contained no models")

    indices = list(range(len(truth)))
    if args.sample is not None:
        indices = representative_sample_indices(
            truth,
            args.sample,
            _require_sample_shares(config),
            seed=config.seed,
            races=config.races,
        )
    if args.intersect_covered:
        keep = set(
            intersect_covered([[all_models[m][i] for i in indices] for m in all_models])
        )
        indices = [i for pos, i in enumerate(indices) if pos in keep]
        if not indices:
            logger.warning("covered-subset intersection is empty; metrics undefined")

    truths = [truth[i].race for i in indices]
    reports = {}
    rocs = {}
    for model, slots in all_models.items():
        probs = [slots[i] for i in indices]
        labels = [
            argmax_race(p, config.races) if p is not None else None for p in probs
        ]
        reports[model] = class_metrics(
            truths, labels, config.races, strict=config.strict_metrics
        )
        covered_truths = [t for t, p in zip(truths, probs) if p is not None]
        covered_probs = [p for p in probs if p is not None]
        curves = {}
        for race in config.races:
            try:
                curves[race] = roc_curve(covered_truths, covered_probs, race, config.races)
            except NameproxyError as exc:
                logger.warning("skipping ROC for %s/%s: %s", model, race, exc)
        rocs[model] = curves
    written = emit_report(reports, rocs, args.out_dir)
    logger.info("wrote %d report files under %s", len(written), args.out_dir)
    return 0


def cmd_sample(args, config: RunConfig) -> int:
    records = read_people_csv(args.input, config.races, require_race=True)
    kept = [
        rec
        for rec in records
        if is_person_name(f"{rec.first} {rec.last}", config.filter_words)
    ]
    seen = set()
    unique = []
    for rec in kept:
        key = (rec.first, rec.last, rec.geo)
        if key not in seen:
            seen.add(key)
            unique.append(rec)
    indices = representative_sample_indices(
        unique, args.n, _require_sample_shares(config), seed=config.seed, races=config.races
    )
    write_people_csv([unique[i] for i in indices], args.out)
    logger.info(
        "filtered %d -> %d person rows, %d unique, sampled %d",
        len(records),
        len(kept),
        len(unique),
        len(indices),
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
        help=f"comma-separated subset of: {', '.join(MODEL_CHOICES)}",
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
