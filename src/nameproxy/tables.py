"""Name and geography probability tables built from voter-style records.

A :class:`NameTable` stores per-race counts keyed by a table-normalized
name.  It answers two questions: the race distribution of a name,
``P(race | name)``, and the likelihood of a name within each race,
``P(name | race)``.  A :class:`GeoTable` answers ``P(geo | race)``.

Construction follows the standard small-cell suppression convention:
a name is kept only when it has at least ``min_total`` observations, or
falls in the single-race band (by default 15-29 observations all of one
race).  Tables built from different sources can be merged with an
explicit preference rule; on collision the preferred side's entry wins
wholesale, never mixing counts.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .core import RaceSet, renormalize
from .errors import (
    EmptyTableError,
    InsufficientClassError,
    KindMismatchError,
    SchemaError,
)
from .names import DEFAULT_SUFFIXES, table_key
from .sampling import max_feasible_sample_size, representative_sample

SURNAME = "surname"
FIRSTNAME = "firstname"

INTERNAL = "internal"
EXTERNAL = "external"

#: Default suppression thresholds: keep when total >= 30, or when the
#: total lies in [15, 29] and exactly one race accounts for all of it.
MIN_TOTAL = 30
SINGLE_RACE_BAND = (15, 29)


def passes_suppression(
    counts: np.ndarray,
    min_total: int = MIN_TOTAL,
    single_race_band: tuple[int, int] = SINGLE_RACE_BAND,
) -> bool:
    """Apply the small-cell suppression rule to one entry's counts."""
    total = int(counts.sum())
    if total >= min_total:
        return True
    lo, hi = single_race_band
    return lo <= total <= hi and int(np.count_nonzero(counts)) == 1


@dataclass
class NameTable:
    """Counts-per-race keyed by table-normalized name."""

    kind: str
    races: RaceSet
    entries: dict[str, np.ndarray]
    race_totals: np.ndarray
    provenance: dict[str, str] = field(default_factory=dict)
    source_totals: dict[str, np.ndarray] = field(default_factory=dict)
    smoothing_alpha: float = 0.0

    def __post_init__(self):
        if self.kind not in (SURNAME, FIRSTNAME):
            raise ValueError(f"unknown table kind {self.kind!r}")
        self.race_totals = np.asarray(self.race_totals, dtype=np.int64)
        if not self.source_totals:
            src = next(iter(self.provenance.values()), INTERNAL)
            self.source_totals = {src: self.race_totals}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self.entries

    def race_given_name(self, name: str) -> np.ndarray | None:
        """``P(race | name)``: the entry's counts renormalized across races."""
        counts = self.entries.get(name)
        if counts is None:
            return None
        if self.smoothing_alpha > 0.0:
            return renormalize(counts.astype(np.float64) + self.smoothing_alpha)
        return renormalize(counts.astype(np.float64))

    def name_likelihood(self, name: str) -> np.ndarray | None:
        """``P(name | race)`` per race: entry count over that race's universe total.

        The result is a vector of conditional likelihoods, one per race; it
        does not sum to 1.  Races with a zero universe total get 0.
        """
        counts = self.entries.get(name)
        if counts is None:
            return None
        totals = self.source_totals.get(
            self.provenance.get(name, INTERNAL), self.race_totals
        ).astype(np.float64)
        return np.divide(
            counts.astype(np.float64),
            totals,
            out=np.zeros(len(self.races)),
            where=totals > 0,
        )

    def save(self, path) -> None:
        _write_table_csv(
            path,
            key_header="name",
            races=self.races,
            rows=((name, self.entries[name], self.provenance.get(name, INTERNAL))
                  for name in sorted(self.entries)),
            meta={
                "kind": self.kind,
                "race_totals": _fmt_counts(self.race_totals),
                **{
                    f"source_totals {src}": _fmt_counts(tot)
                    for src, tot in sorted(self.source_totals.items())
                },
            },
            with_source=True,
        )

    @classmethod
    def load(cls, path) -> "NameTable":
        meta, names_, counts, sources = _read_table_csv(path, key_header="name", with_source=True)
        if "kind" not in meta:
            raise SchemaError(f"{path}: missing 'kind' metadata line")
        races = RaceSet(tuple(meta["races"].split(",")))
        source_totals = {
            key.split(" ", 1)[1]: _parse_counts(val, len(races), path)
            for key, val in meta.items()
            if key.startswith("source_totals ")
        }
        return cls(
            kind=meta["kind"],
            races=races,
            entries=dict(zip(names_, counts)),
            race_totals=_parse_counts(meta["race_totals"], len(races), path),
            provenance=dict(zip(names_, sources)),
            source_totals=source_totals,
        )

    @classmethod
    def from_probability_csv(cls, path, kind: str, races: RaceSet | None = None) -> "NameTable":
        """Load an external table published as probabilities plus a total count.

        Expected columns: ``name,total,p_<race>...``.  Probabilities are
        converted to pseudo-counts by rounding ``probability * total`` so a
        single counts-based representation serves every source.
        """
        races = races or RaceSet()
        entries: dict[str, np.ndarray] = {}
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            expected = ["name", "total"] + [f"p_{r}" for r in races]
            if header != expected:
                raise SchemaError(f"{path}: expected header {expected}, got {header}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(expected):
                    raise SchemaError(f"{path}: line {lineno}: expected {len(expected)} fields")
                name = row[0]
                try:
                    total = int(row[1])
                    probs = np.array([float(v) for v in row[2:]], dtype=np.float64)
                except ValueError as exc:
                    raise SchemaError(f"{path}: line {lineno}: {exc}") from exc
                if total < 0 or (probs < 0).any() or (probs > 1).any():
                    raise SchemaError(f"{path}: line {lineno}: values out of range")
                counts = np.rint(probs * total).astype(np.int64)
                if counts.sum() > 0:
                    entries[name] = counts
        if not entries:
            raise EmptyTableError(f"{path}: no usable rows")
        totals = np.sum(list(entries.values()), axis=0, dtype=np.int64)
        return cls(
            kind=kind,
            races=races,
            entries=entries,
            race_totals=totals,
            provenance={name: EXTERNAL for name in entries},
            source_totals={EXTERNAL: totals},
        )


@dataclass
class GeoTable:
    """Counts-per-race keyed by geography id."""

    races: RaceSet
    entries: dict[str, np.ndarray]
    race_totals: np.ndarray

    def __post_init__(self):
        self.race_totals = np.asarray(self.race_totals, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, geo: str) -> bool:
        return geo in self.entries

    def geo_likelihood(self, geo: str) -> np.ndarray | None:
        """``P(geo | race)`` per race: share of each race living in ``geo``."""
        counts = self.entries.get(geo)
        if counts is None:
            return None
        totals = self.race_totals.astype(np.float64)
        return np.divide(
            counts.astype(np.float64),
            totals,
            out=np.zeros(len(self.races)),
            where=totals > 0,
        )

    def save(self, path) -> None:
        _write_table_csv(
            path,
            key_header="geo",
            races=self.races,
            rows=((geo, self.entries[geo], None) for geo in sorted(self.entries)),
            meta={"race_totals": _fmt_counts(self.race_totals)},
            with_source=False,
        )

    @classmethod
    def load(cls, path) -> "GeoTable":
        meta, geos, counts, _ = _read_table_csv(path, key_header="geo", with_source=False)
        races = RaceSet(tuple(meta["races"].split(",")))
        return cls(
            races=races,
            entries=dict(zip(geos, counts)),
            race_totals=_parse_counts(meta["race_totals"], len(races), path),
        )


def build_name_table(
    records,
    kind: str,
    seed: int = 0,
    target_shares=None,
    races: RaceSet | None = None,
    suffixes: tuple[str, ...] = DEFAULT_SUFFIXES,
    suppress: bool = True,
    min_total: int = MIN_TOTAL,
    single_race_band: tuple[int, int] = SINGLE_RACE_BAND,
) -> NameTable:
    """Build a suppressed name table from records carrying ground-truth race.

    When ``target_shares`` is given, the records are first resampled
    (stratified, seeded) to the largest size whose per-race quotas match the
    shares; probabilities from a heavily imbalanced source would otherwise
    be biased toward the majority classes.  Names are table-normalized,
    one-character names are dropped, and the suppression rule is applied.

    Raises:
        InsufficientClassError: a race has no records at all.
        EmptyTableError: nothing survives suppression.
    """
    races = races or RaceSet()
    if kind not in (SURNAME, FIRSTNAME):
        raise ValueError(f"unknown table kind {kind!r}")
    records = list(records)
    race_index = {label: i for i, label in enumerate(races)}
    counts_per_race = np.zeros(len(races), dtype=np.int64)
    for rec in records:
        if rec.race is None:
            raise ValueError("table construction needs ground-truth race on every record")
        if rec.race in race_index:
            counts_per_race[race_index[rec.race]] += 1
    if (counts_per_race == 0).any():
        missing = [label for label, c in zip(races, counts_per_race) if c == 0]
        raise InsufficientClassError(f"no records for race(s): {', '.join(missing)}")

    if target_shares is not None:
        n = max_feasible_sample_size(counts_per_race, target_shares)
        records = representative_sample(records, n, target_shares, seed=seed, races=races)

    entries: dict[str, np.ndarray] = {}
    race_totals = np.zeros(len(races), dtype=np.int64)
    for rec in records:
        if rec.race not in race_index:
            continue
        raw = rec.last if kind == SURNAME else rec.first
        name = table_key(raw, suffixes)
        if name is None or len(name) <= 1:
            continue
        idx = race_index[rec.race]
        counts = entries.get(name)
        if counts is None:
            counts = np.zeros(len(races), dtype=np.int64)
            entries[name] = counts
        counts[idx] += 1
        race_totals[idx] += 1

    if suppress:
        entries = {
            name: counts
            for name, counts in entries.items()
            if passes_suppression(counts, min_total, single_race_band)
        }
    if not entries:
        raise EmptyTableError("no names survived normalization and suppression")
    return NameTable(
        kind=kind,
        races=races,
        entries=entries,
        race_totals=race_totals,
        provenance={name: INTERNAL for name in entries},
        source_totals={INTERNAL: race_totals},
    )


def build_geo_table(records, races: RaceSet | None = None) -> GeoTable:
    """Accumulate per-(geo, race) counts; race totals are the column sums."""
    races = races or RaceSet()
    race_index = {label: i for i, label in enumerate(races)}
    entries: dict[str, np.ndarray] = {}
    race_totals = np.zeros(len(races), dtype=np.int64)
    for rec in records:
        if rec.race is None:
            raise ValueError("geo table construction needs ground-truth race")
        if not rec.geo:
            raise ValueError("geo table construction needs non-empty geo ids")
        if rec.race not in race_index:
            continue
        idx = race_index[rec.race]
        counts = entries.get(rec.geo)
        if counts is None:
            counts = np.zeros(len(races), dtype=np.int64)
            entries[rec.geo] = counts
        counts[idx] += 1
        race_totals[idx] += 1
    if not entries:
        raise EmptyTableError("no records to build a geography table from")
    return GeoTable(races=races, entries=entries, race_totals=race_totals)


def merge_tables(internal: NameTable, external: NameTable, prefer: str) -> NameTable:
    """Union two tables of the same kind; the preferred side wins collisions.

    The winning side's entry is kept wholesale (counts are never mixed) and
    every entry keeps its own source tag.  Per-source universe totals are
    carried along so ``P(name | race)`` stays consistent with the universe
    each entry was counted in.
    """
    if internal.kind != external.kind:
        raise KindMismatchError(f"cannot merge {internal.kind!r} with {external.kind!r}")
    if internal.races != external.races:
        raise KindMismatchError("cannot merge tables over different race sets")
    if prefer not in (INTERNAL, EXTERNAL):
        raise ValueError(f"prefer must be 'internal' or 'external', got {prefer!r}")
    preferred, other = (internal, external) if prefer == INTERNAL else (external, internal)

    entries = dict(other.entries)
    provenance = dict(other.provenance)
    entries.update(preferred.entries)
    provenance.update(preferred.provenance)

    source_totals: dict[str, np.ndarray] = {}
    source_totals.update(other.source_totals)
    source_totals.update(preferred.source_totals)
    return NameTable(
        kind=internal.kind,
        races=internal.races,
        entries=entries,
        race_totals=preferred.race_totals,
        provenance=provenance,
        source_totals=source_totals,
    )


def _fmt_counts(counts: np.ndarray) -> str:
    return ",".join(str(int(c)) for c in counts)


def _parse_counts(text: str, n: int, path) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != n:
        raise SchemaError(f"{path}: expected {n} counts, got {text!r}")
    try:
        return np.array([int(p) for p in parts], dtype=np.int64)
    except ValueError as exc:
        raise SchemaError(f"{path}: bad count in {text!r}") from exc


def _write_table_csv(path, key_header, races, rows, meta, with_source):
    header = [key_header] + [f"count_{r}" for r in races]
    if with_source:
        header.append("source")
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(f"# races: {','.join(races)}\n")
            for key, val in meta.items():
                fh.write(f"# {key}: {val}\n")
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for key, counts, source in rows:
                row = [key] + [str(int(c)) for c in counts]
                if with_source:
                    row.append(source)
                writer.writerow(row)
    except OSError as exc:
        raise OSError(f"failed writing table to {path}: {exc}") from exc


def _read_table_csv(path, key_header, with_source):
    meta: dict[str, str] = {}
    keys: list[str] = []
    counts: list[np.ndarray] = []
    sources: list[str] = []
    with open(path, newline="", encoding="utf-8") as fh:
        lines = iter(enumerate(fh, start=1))
        header = None
        for lineno, line in lines:
            line = line.rstrip("\n")
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                meta[key.strip()] = val.strip()
                continue
            header = line.split(",")
            break
        if "races" not in meta:
            raise SchemaError(f"{path}: missing 'races' metadata line")
        races = meta["races"].split(",")
        expected = [key_header] + [f"count_{r}" for r in races]
        if with_source:
            expected.append("source")
        if header != expected:
            raise SchemaError(f"{path}: expected header {expected}, got {header}")
        n_counts = len(races)
        for lineno, line in lines:
            row = line.rstrip("\n").split(",")
            if len(row) != len(expected):
                raise SchemaError(f"{path}: line {lineno}: expected {len(expected)} fields")
            key = row[0]
            try:
                vec = np.array([int(v) for v in row[1 : 1 + n_counts]], dtype=np.int64)
            except ValueError as exc:
                raise SchemaError(f"{path}: line {lineno}: {exc}") from exc
            if (vec < 0).any():
                raise SchemaError(f"{path}: line {lineno}: negative count")
            keys.append(key)
            counts.append(vec)
            if with_source:
                src = row[-1]
                if src not in (INTERNAL, EXTERNAL):
                    raise SchemaError(f"{path}: line {lineno}: unknown source {src!r}")
                sources.append(src)
    return meta, keys, counts, sources
