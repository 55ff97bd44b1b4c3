"""Shared fixtures: a small synthetic world exercised through the CLI."""

import csv
import json
from typing import NamedTuple

import numpy as np
import pytest

from nameproxy.cli import main
from nameproxy.core import People, RaceSet
from nameproxy.csvio import write_csv as write_framed_csv
from nameproxy.tables import INTERNAL, SOURCES, GeoTable, NameTable

RACE_LABELS = ("asian", "black", "hispanic", "white")

# surname -> per-race counts; all totals clear the suppression thresholds
SURNAME_MIX = {
    "chen": (60, 2, 2, 8),
    "nguyen": (55, 1, 3, 6),
    "washington": (1, 58, 2, 10),
    "jefferson": (2, 50, 3, 12),
    "garcia": (2, 3, 70, 9),
    "hernandez": (1, 2, 65, 7),
    "miller": (3, 8, 4, 80),
    "olson": (1, 4, 2, 75),
}

# first name -> per-race counts
FIRSTNAME_MIX = {
    "wei": (50, 2, 1, 5),
    "lakisha": (1, 45, 2, 4),
    "maria": (3, 4, 60, 10),
    "brad": (2, 5, 3, 70),
    "jordan": (10, 15, 12, 25),
}

GEO_MIX = {
    "10001": (40, 10, 15, 60),
    "20002": (5, 55, 10, 30),
    "30003": (8, 12, 70, 25),
    "40004": (15, 20, 18, 90),
}


class Row(NamedTuple):
    """One person as a test writes it down; ``race`` is a label or None."""

    first: str
    last: str
    geo: str = ""
    race: str | None = None


def people_of(rows, races=None) -> People:
    """The columns of ``(first, last, geo, race label)`` rows; a label
    outside ``races`` (or None) becomes race index -1."""
    races = races or RaceSet()
    index = {label: i for i, label in enumerate(races)}
    rows = [Row(*row) for row in rows]
    return People(
        [row.first for row in rows],
        [row.last for row in rows],
        [row.geo for row in rows],
        np.array([index.get(row.race, -1) for row in rows], dtype=np.intp),
        races,
    )


def name_table(kind, races, entries, race_totals, provenance=None, **kwargs) -> NameTable:
    """A name table from ``{key: counts}`` in row order; ``provenance`` maps
    keys to their source (a key it lacks is internal; without it, every
    row is)."""
    keys = list(entries)
    counts = np.array([entries[k] for k in keys], dtype=np.int64).reshape(len(keys), len(races))
    sources = None
    if provenance is not None:
        sources = np.array([SOURCES.index(provenance.get(k, INTERNAL)) for k in keys], np.int8)
    return NameTable(kind, races, keys, counts, race_totals, sources, **kwargs)


def geo_table(races, entries, race_totals) -> GeoTable:
    """A geography table from ``{geo: counts}`` in row order."""
    keys = list(entries)
    counts = np.array([entries[k] for k in keys], dtype=np.int64).reshape(len(keys), len(races))
    return GeoTable(races, keys, counts, race_totals)


def is_prob_vector(p, n_races: int) -> bool:
    """True when ``p`` is a finite, non-negative vector of ``n_races``
    entries that sums to 1 within 1e-9."""
    v = np.asarray(p, dtype=np.float64)
    if v.ndim != 1 or v.size != n_races:
        return False
    return bool(np.isfinite(v).all() and (v >= 0).all() and abs(v.sum() - 1.0) <= 1e-9)


def entries_of(table) -> dict:
    """A table's ``{key: counts as a list}``, in row order."""
    return dict(zip(table.keys, table.counts.tolist()))


def provenance_of(table) -> dict:
    """A name table's ``{key: source}``, in row order."""
    return {key: SOURCES[s] for key, s in zip(table.keys, table.sources.tolist())}


def synthetic_voter_rows(seed=0):
    """Deterministic joint draw over (first, last, geo) given race."""
    rng = np.random.default_rng(seed)
    firsts = {race: [] for race in RACE_LABELS}
    for name, counts in FIRSTNAME_MIX.items():
        for race, count in zip(RACE_LABELS, counts):
            firsts[race].extend([name] * count)
    rows = []
    for last, counts in SURNAME_MIX.items():
        for race, count in zip(RACE_LABELS, counts):
            ridx = RACE_LABELS.index(race)
            geo_weights = np.array([GEO_MIX[g][ridx] for g in GEO_MIX], dtype=float)
            geo_weights /= geo_weights.sum()
            for _ in range(count):
                first = firsts[race][int(rng.integers(len(firsts[race])))]
                geo = list(GEO_MIX)[int(rng.choice(len(GEO_MIX), p=geo_weights))]
                rows.append((first, last, geo, race))
    return rows


def write_csv(path, rows, header=("first_name", "last_name", "geo_id", "race")):
    """A voter-style file, framed as nameproxy frames it (names may hold "\r")."""
    write_framed_csv(path, list(header), rows, text=(0, 1, 2))


@pytest.fixture(scope="session")
def world(tmp_path_factory):
    """Voter file, config, built tables, and trained parameters on disk."""
    root = tmp_path_factory.mktemp("world")
    voter = root / "voter.csv"
    write_csv(voter, synthetic_voter_rows())

    external_surname = root / "census_surnames.csv"
    with open(external_surname, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["name", "total", "p_asian", "p_black", "p_hispanic", "p_white"])
        # overlaps "chen" (preference check) and adds "yoder" (union check)
        writer.writerow(["chen", 1000, 0.81, 0.02, 0.02, 0.15])
        writer.writerow(["yoder", 400, 0.01, 0.02, 0.02, 0.95])

    config_path = root / "config.json"
    tables_dir = root / "tables"
    config = {
        "seed": 4242,
        "sample_shares": [0.25, 0.25, 0.25, 0.25],
        "paths": {
            "surname_table": "tables/surname_table.csv",
            "firstname_table": "tables/firstname_table.csv",
            "geo_table": "tables/geo_table.csv",
            "params": "params.bin",
        },
        "ensemble": {"members": ["first_last_zcta", "ibisg", "ibifsg"]},
        "train": {
            "epochs": 2,
            "batch_size": 64,
            "embed_dim": 8,
            "hidden": 8,
            "layers": 1,
            "lr": 0.01,
            "dropout": 0.2,
        },
    }
    config_path.write_text(json.dumps(config, indent=2))

    rc = main(
        [
            "build-tables",
            "--config",
            str(config_path),
            "--voter",
            str(voter),
            "--external-surname",
            str(external_surname),
            "--out-dir",
            str(tables_dir),
        ]
    )
    assert rc == 0
    rc = main(
        [
            "train",
            "--config",
            str(config_path),
            "--voter",
            str(voter),
            "--out-params",
            str(root / "params.bin"),
            "--out-log",
            str(root / "train_log.csv"),
        ]
    )
    assert rc == 0
    return {
        "root": root,
        "voter": voter,
        "config": config_path,
        "tables": tables_dir,
        "external_surname": external_surname,
        "params": root / "params.bin",
        "train_log": root / "train_log.csv",
    }
