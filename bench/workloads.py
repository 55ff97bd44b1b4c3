"""The benchmark's workloads: inputs made in set-up, commands run per pass, output checks.

Every command is a ``nameproxy`` CLI call run as its own child process.
NOTES.md says why each workload exists.  A check returns ``(problem,
facts)``: ``problem`` is ``None`` when the command's outputs are right and
a message saying what is wrong otherwise; ``facts`` holds counts read from
the outputs (per-model coverage of a ``predict``) for the run's details.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import world
from nameproxy.lstm import init_params, save_params

#: Tolerance of every probability comparison.
PROB_TOL = 1e-9

TABLE_PATHS = {
    "surname_table": "tables/surname_table.csv",
    "firstname_table": "tables/firstname_table.csv",
    "geo_table": "tables/geo_table.csv",
}


@dataclass
class Command:
    """One CLI call: its stage, arguments, outputs and output check."""

    stage: str  # build_tables, train, sample, predict or evaluate
    argv: list[str]
    outputs: list[str]
    check: Callable[[Path], tuple[str | None, dict]]


def _write_config(work: Path, seed: int, paths=None, **extra) -> None:
    config = {"seed": seed, "paths": {**TABLE_PATHS, **(paths or {})}, **extra}
    (work / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")


def _build_tables(voter_rows: int) -> Command:
    def check(work: Path):
        manifest = json.loads((work / "tables" / "manifest.json").read_text())
        if manifest["records"] != voter_rows:
            return (f"manifest counts {manifest['records']} records,"
                    f" voter file has {voter_rows}"), {}
        for path in TABLE_PATHS.values():
            if not (work / path).is_file():
                return f"{path} missing", {}
        return None, {}

    return Command(
        "build_tables",
        ["build-tables", "--config", "config.json", "--voter", "voter.csv", "--out-dir", "tables"],
        ["tables"],
        check,
    )


def _sample(source: str, n: int, out: str) -> Command:
    def check(work: Path):
        rows = _read_rows(work / out)
        if len(rows) != n:
            return f"{out} has {len(rows)} rows, asked for {n}", {}
        if any("llc" in r["last_name"].lower().split() for r in rows):
            return f"{out} kept a business row", {}
        return None, {}

    return Command(
        "sample",
        ["sample", "--config", "config.json", "--input", source, "--n", str(n), "--out", out],
        [out],
        check,
    )


def _evaluate(truth: str, models: list[str]) -> Command:
    def check(work: Path):
        for model in models:
            lines = (work / "report" / f"metrics_{model}.csv").read_text().splitlines()
            if len(lines) != 1 + len(world.RACES):
                return f"metrics_{model}.csv has {len(lines)} lines", {}
        if not (work / "report" / "f1_comparison.csv").is_file():
            return "f1_comparison.csv missing", {}
        return None, {}

    argv = ["evaluate", "--config", "config.json", "--truth", truth,
            "--predictions", "pred.csv", "--out-dir", "report", "--intersect-covered"]
    return Command("evaluate", argv, ["report"], check)


def _predict(source: str, models: list[str], check) -> Command:
    return Command(
        "predict",
        ["predict", "--config", "config.json", "--input", source,
         "--models", ",".join(models), "--out", "pred.csv"],
        ["pred.csv"],
        check,
    )


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_predictions(path: Path) -> dict[str, dict[int, np.ndarray | None]]:
    """{model: {row_id: probability vector or None}} from a predictions CSV."""
    out: dict[str, dict[int, np.ndarray | None]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            probs = None
            if row[-1] == "1":
                probs = np.array([float(v) for v in row[2 : 2 + len(world.RACES)]])
            out.setdefault(row[1], {})[int(row[0])] = probs
    return out


def _coverage(predictions) -> dict[str, int]:
    return {m: sum(p is not None for p in rows.values()) for m, rows in predictions.items()}


def _check_probability_rows(predictions, n_records: int, always: str | None):
    """Every covered row finite and summing to 1; ``always`` covers every record."""
    for model, rows in predictions.items():
        if len(rows) != n_records:
            return f"{model} has {len(rows)} rows for {n_records} records"
        for row_id, probs in rows.items():
            if probs is None:
                continue
            if not np.isfinite(probs).all() or abs(probs.sum() - 1.0) > PROB_TOL:
                return f"{model} row {row_id} is not a probability vector: {probs}"
    if always is not None and _coverage(predictions)[always] != n_records:
        return f"{always} declined records"
    return None


def _read_table(path: Path):
    """(meta, {key: counts}) from a saved table, parsed independently of nameproxy."""
    meta = {}
    entries = {}
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    body = []
    for line in lines:
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            if "totals" in key:
                meta[key.strip()] = np.array([float(v) for v in value.split(",")])
        else:
            body.append(line)
    for row in list(csv.reader(body))[1:]:
        entries[row[0]] = np.array([float(v) for v in row[1 : 1 + len(world.RACES)]])
    return meta, entries


def _expected_bayes(work: Path):
    """Closure computing BISG, BIFSG and their ensemble with plain numpy formulas."""
    _, surnames = _read_table(work / "tables" / "surname_table.csv")
    first_meta, firstnames = _read_table(work / "tables" / "firstname_table.csv")
    geo_meta, geos = _read_table(work / "tables" / "geo_table.csv")
    first_totals = first_meta["source_totals internal"]
    geo_totals = geo_meta["race_totals"]

    def posterior(numerator):
        return None if numerator.sum() <= 0 else numerator / numerator.sum()

    def expected(first: str, last: str, geo: str):
        s = surnames.get(world.table_key(last))
        f = firstnames.get(world.table_key(first))
        g = geos.get(geo)
        if s is None or g is None:
            return None, None
        geo_like = np.where(geo_totals > 0, g / np.where(geo_totals > 0, geo_totals, 1), 0.0)
        prior = s / s.sum()
        bisg = posterior(prior * geo_like)
        bifsg = None
        if f is not None:
            first_like = np.where(
                first_totals > 0, f / np.where(first_totals > 0, first_totals, 1), 0.0
            )
            bifsg = posterior(prior * first_like * geo_like)
        return bisg, bifsg

    return expected


def _ensemble(members):
    present = [p for p in members if p is not None]
    if not present:
        return None
    mean = sum(present) / len(present)
    return mean / mean.sum()


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return bool(np.abs(got - want).max() <= PROB_TOL)


# ---------------------------------------------------------------- workloads


class TablesPipeline:
    """Tables, Bayes models, ensemble, evaluation and sampling at voter-file size."""

    name = "tables_pipeline"
    blas_threads = 1
    VOTER_ROWS = 122_000
    SCORE_ROWS = 15_000
    SAMPLE_ROWS = 10_000
    CHECKED_ROWS = 500
    MODELS = ["bisg", "bifsg", "ensemble"]

    def setup(self, work: Path, seed: int, cli) -> dict:
        w = world.World(seed)
        world.write_people_csv(work / "voter.csv", w.people(0, self.VOTER_ROWS))
        world.write_people_csv(work / "score.csv", w.people(1, self.SCORE_ROWS))
        _write_config(work, seed, ensemble={"members": ["ibisg", "ibifsg"]})
        return {"predict_records": self.SCORE_ROWS}

    def commands(self, seed: int) -> list[Command]:
        def check_predict(work: Path):
            predictions = _read_predictions(work / "pred.csv")
            facts = {"coverage": _coverage(predictions)}
            bad = _check_probability_rows(predictions, self.SCORE_ROWS, None)
            if bad:
                return bad, facts
            expected = _expected_bayes(work)
            people = _read_rows(work / "score.csv")
            rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
            for i in sorted(rng.choice(len(people), self.CHECKED_ROWS, replace=False)):
                p = people[i]
                bisg, bifsg = expected(p["first_name"], p["last_name"], p["geo_id"])
                for model, want in (("bisg", bisg), ("bifsg", bifsg),
                                    ("ensemble", _ensemble([bisg, bifsg]))):
                    if not _close(predictions[model][i], want):
                        got = predictions[model][i]
                        return f"{model} row {i}: got {got}, expected {want}", facts
            return None, facts

        return [
            _build_tables(self.VOTER_ROWS),
            _predict("score.csv", self.MODELS, check_predict),
            _evaluate("score.csv", self.MODELS),
            _sample("voter.csv", self.SAMPLE_ROWS, "sample.csv"),
        ]


class NeuralPredict:
    """One 512-name batch through the production-size BiLSTM, three models."""

    name = "neural_predict"
    #: GEMM-bound at these dims: a pass takes about 47 s on two threads, 73 s on one
    blas_threads = 2
    VOTER_ROWS = 20_000
    BATCH = 512
    MODELS = ["first_last", "first_last_zcta", "ensemble"]
    DIMS = {"embed_dim": 256, "hidden": 512, "layers": 4}

    def setup(self, work: Path, seed: int, cli) -> dict:
        w = world.World(seed)
        world.write_people_csv(work / "voter.csv", w.people(0, self.VOTER_ROWS))
        world.write_people_csv(work / "names.csv", w.distinct_people(2, self.BATCH))
        save_params(
            init_params(n_classes=len(world.RACES), seed=seed, **self.DIMS),
            work / "params.bin",
        )
        _write_config(work, seed, paths={"params": "params.bin"})
        cli(_build_tables(self.VOTER_ROWS).argv)
        return {"predict_records": self.BATCH}

    def commands(self, seed: int) -> list[Command]:
        def check_predict(work: Path):
            predictions = _read_predictions(work / "pred.csv")
            facts = {"coverage": _coverage(predictions)}
            return _check_probability_rows(predictions, self.BATCH, "first_last"), facts

        return [_predict("names.csv", self.MODELS, check_predict)]


class TrainDesk:
    """Training at desk dims: forward, backward and Adam on small matrices."""

    name = "train_desk"
    #: Small matrices gain little from a second BLAS thread, and a thread that
    #: must wait for a busy core makes the time of a pass swing
    blas_threads = 1
    VOTER_ROWS = 4000
    EPOCHS = 3
    TRAIN = {"embed_dim": 32, "hidden": 64, "layers": 2, "batch_size": 512}
    SPLIT = 0.8

    def setup(self, work: Path, seed: int, cli) -> dict:
        voter = world.World(seed).people(0, self.VOTER_ROWS)
        world.write_people_csv(work / "voter.csv", voter)
        _write_config(work, seed, train={**self.TRAIN, "epochs": self.EPOCHS})
        # train() balances the training split down to its smallest class
        per_race = [sum(1 for row in voter if row[3] == race) for race in world.RACES]
        smallest = min(min(max(int(n * self.SPLIT), 1), n - 1) for n in per_race)
        return {"train_samples": len(world.RACES) * smallest * self.EPOCHS}

    def commands(self, seed: int) -> list[Command]:
        def check_train(work: Path):
            rows = _read_rows(work / "train_log.csv")
            if [int(r["epoch"]) for r in rows] != list(range(1, self.EPOCHS + 1)):
                return f"training log has epochs {[r['epoch'] for r in rows]}", {}
            if not all(math.isfinite(float(r["train_loss"])) for r in rows):
                return "training log has a non-finite loss", {}
            return None, {}

        return [
            Command(
                "train",
                ["train", "--config", "config.json", "--voter", "voter.csv",
                 "--out-params", "model.bin", "--out-log", "train_log.csv"],
                ["model.bin", "train_log.csv"],
                check_train,
            )
        ]


WORKLOADS = {w.name: w for w in (TablesPipeline(), NeuralPredict(), TrainDesk())}
