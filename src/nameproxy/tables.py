"""Name and geography probability tables built from voter-style columns.

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

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .core import People, RaceSet, renormalize_rows
from .csvio import read_csv, write_csv
from .errors import (
    EmptyTableError,
    InsufficientClassError,
    KindMismatchError,
    SchemaError,
)
from .names import DEFAULT_SUFFIXES, column_keys, table_key
from .sampling import max_feasible_sample_size, representative_sample_indices

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
    row = np.asarray(counts)[None, :]
    return bool(_passes_suppression_rows(row, min_total, single_race_band)[0])


def _passes_suppression_rows(counts, min_total, single_race_band) -> np.ndarray:
    total = counts.sum(axis=1)
    lo, hi = single_race_band
    single_race = np.count_nonzero(counts, axis=1) == 1
    return (total >= min_total) | ((lo <= total) & (total <= hi) & single_race)


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
        return renormalize_rows(self._smoothed(counts[None, :]))[0]

    def name_likelihood(self, name: str) -> np.ndarray | None:
        """``P(name | race)`` per race: entry count over that race's universe total.

        The result is a vector of conditional likelihoods, one per race; it
        does not sum to 1.  Races with a zero universe total get 0.
        """
        counts = self.entries.get(name)
        if counts is None:
            return None
        totals = self.source_totals.get(self.provenance.get(name, INTERNAL), self.race_totals)
        return _likelihood_rows(counts[None, :], totals)[0]

    def prior_rows(self) -> np.ndarray:
        """:meth:`race_given_name` of every entry, one row each in ``entries`` order.

        An entry that :meth:`race_given_name` cannot normalize (no mass at
        all) gets a row of NaN.
        """
        x = self._smoothed(_counts_matrix(self.entries, len(self.races)))
        out = np.full(x.shape, np.nan)
        usable = np.isfinite(x).all(axis=1) & (x >= 0).all(axis=1) & (x.sum(axis=1) > 0.0)
        out[usable] = renormalize_rows(x[usable])
        return out

    def likelihood_rows(self) -> np.ndarray:
        """:meth:`name_likelihood` of every entry, one row each in ``entries`` order."""
        totals = np.array(
            [
                self.source_totals.get(self.provenance.get(name, INTERNAL), self.race_totals)
                for name in self.entries
            ]
        ).reshape(len(self.entries), len(self.races))
        return _likelihood_rows(_counts_matrix(self.entries, len(self.races)), totals)

    def _smoothed(self, counts: np.ndarray) -> np.ndarray:
        if self.smoothing_alpha > 0.0:
            return counts.astype(np.float64) + self.smoothing_alpha
        return counts.astype(np.float64)

    def save(self, path) -> None:
        _write_table_csv(
            path,
            key_header="name",
            races=self.races,
            rows=([name, *self.entries[name].tolist(), self.provenance.get(name, INTERNAL)]
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
        meta, races, names_, counts, sources = _read_table_csv(path, "name", with_source=True)
        if "kind" not in meta:
            raise SchemaError(f"{path}: missing 'kind' metadata line")
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
    def from_probability_csv(
        cls,
        path,
        kind: str,
        races: RaceSet | None = None,
        suffixes: tuple[str, ...] = DEFAULT_SUFFIXES,
    ) -> "NameTable":
        """Load an external table published as probabilities plus a total count.

        Expected columns: ``name,total,p_<race>...``.  Probabilities are
        converted to pseudo-counts by rounding ``probability * total`` so a
        single counts-based representation serves every source.

        Names are table-normalized like the keys of a built table, so a
        published ``GARCIA`` or ``O'BRIEN`` matches the lookup key
        ``garcia`` or ``obrien``.  As in :func:`build_name_table`, a name
        with nothing or one character left is dropped.  Rows whose names
        normalize to one key add their pseudo-counts together.
        """
        races = races or RaceSet()
        entries: dict[str, np.ndarray] = {}
        with read_csv(path, ["name", "total"] + [f"p_{r}" for r in races]) as rows:
            for row in rows:
                name = table_key(row[0], suffixes)
                try:
                    total = int(row[1])
                    probs = np.array([float(v) for v in row[2:]], dtype=np.float64)
                except ValueError as exc:
                    raise SchemaError(str(exc)) from exc
                # NaN fails every comparison; above 2**53 a float64 product
                # no longer holds every integer count
                if not (0 <= total <= 2**53 and ((0 <= probs) & (probs <= 1)).all()):
                    raise SchemaError("values out of range")
                counts = np.rint(probs * total).astype(np.int64)
                if name is None or len(name) <= 1:
                    continue
                if name in entries:
                    entries[name] = entries[name] + counts
                else:
                    entries[name] = counts
        entries = {name: counts for name, counts in entries.items() if counts.sum() > 0}
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
        return _likelihood_rows(counts[None, :], self.race_totals)[0]

    def likelihood_rows(self) -> np.ndarray:
        """:meth:`geo_likelihood` of every entry, one row each in ``entries`` order."""
        return _likelihood_rows(_counts_matrix(self.entries, len(self.races)), self.race_totals)

    def save(self, path) -> None:
        _write_table_csv(
            path,
            key_header="geo",
            races=self.races,
            rows=([geo, *self.entries[geo].tolist()] for geo in sorted(self.entries)),
            meta={"race_totals": _fmt_counts(self.race_totals)},
            with_source=False,
        )

    @classmethod
    def load(cls, path) -> "GeoTable":
        meta, races, geos, counts, _ = _read_table_csv(path, "geo", with_source=False)
        return cls(
            races=races,
            entries=dict(zip(geos, counts)),
            race_totals=_parse_counts(meta["race_totals"], len(races), path),
        )


def build_name_table(
    people: People,
    kind: str,
    seed: int = 0,
    target_shares=None,
    suffixes: tuple[str, ...] = DEFAULT_SUFFIXES,
    suppress: bool = True,
    min_total: int = MIN_TOTAL,
    single_race_band: tuple[int, int] = SINGLE_RACE_BAND,
) -> NameTable:
    """Build a suppressed name table from people carrying ground-truth race.

    When ``target_shares`` is given, the people are first resampled
    (stratified, seeded) to the largest size whose per-race quotas match the
    shares; probabilities from a heavily imbalanced source would otherwise
    be biased toward the majority classes.  Names are table-normalized,
    one-character names are dropped, and the suppression rule is applied.
    People without a race are not counted.

    This is :func:`training_rows`, :func:`names.column_keys` and
    :func:`count_name_table` in a row.

    Raises:
        InsufficientClassError: a race has no people at all.
        EmptyTableError: nothing survives suppression.
    """
    if kind not in (SURNAME, FIRSTNAME):
        raise ValueError(f"unknown table kind {kind!r}")
    rows = training_rows(people, seed, target_shares)
    column = people.last if kind == SURNAME else people.first
    keys, codes = column_keys(column, partial(table_key, suffixes=suffixes))
    race = people.race[rows]
    return count_name_table(
        kind, people.races, keys, codes[rows], race, suppress, min_total, single_race_band
    )


def training_rows(people: People, seed: int = 0, target_shares=None) -> np.ndarray:
    """The rows a name table is counted from.

    Every row, or with ``target_shares`` the stratified sample described
    in :func:`build_name_table`.  Drawing it once serves every table kind.

    Raises:
        InsufficientClassError: a race has no people at all.
    """
    races = people.races
    counts_per_race = np.bincount(people.race[people.race >= 0], minlength=len(races))
    if (counts_per_race == 0).any():
        missing = [label for label, c in zip(races, counts_per_race) if c == 0]
        raise InsufficientClassError(f"no records for race(s): {', '.join(missing)}")
    if target_shares is None:
        return np.arange(len(people))
    n = max_feasible_sample_size(counts_per_race, target_shares)
    return representative_sample_indices(people.race, n, target_shares, seed=seed, races=races)


def count_name_table(
    kind: str,
    races: RaceSet,
    keys: list,
    key_codes: np.ndarray,
    race: np.ndarray,
    suppress: bool = True,
    min_total: int = MIN_TOTAL,
    single_race_band: tuple[int, int] = SINGLE_RACE_BAND,
) -> NameTable:
    """Count ``(name, race)`` pairs into a suppressed :class:`NameTable`.

    Record ``i`` has name ``keys[key_codes[i]]`` (as from
    :func:`names.column_keys`) and race index ``race[i]``.  Records with a
    race outside the set, or a name that is None or one character, are
    not counted.  Entries keep the order of each name's first counted
    record.

    Raises:
        EmptyTableError: nothing survives suppression.
    """
    valid_key = np.array([k is not None and len(k) > 1 for k in keys], dtype=bool)
    key_codes = np.asarray(key_codes, dtype=np.intp)
    race = np.where(valid_key[key_codes], race, -1)
    counts, race_totals, order = _count_pairs(key_codes, race, len(keys), len(races))
    if suppress:
        order = order[_passes_suppression_rows(counts[order], min_total, single_race_band)]
    if order.size == 0:
        raise EmptyTableError("no names survived normalization and suppression")
    entries = {keys[k]: counts[k] for k in order.tolist()}
    return NameTable(
        kind=kind,
        races=races,
        entries=entries,
        race_totals=race_totals,
        provenance=dict.fromkeys(entries, INTERNAL),
        source_totals={INTERNAL: race_totals},
    )


def build_geo_table(people: People) -> GeoTable:
    """Accumulate per-(geo, race) counts; race totals are the column sums.

    People without a race are not counted.

    Raises:
        ValueError: a geo id is empty.
        EmptyTableError: nobody is counted.
    """
    if not all(people.geo):
        raise ValueError("geo table construction needs non-empty geo ids")
    keys, codes = column_keys(people.geo)
    counts, race_totals, order = _count_pairs(codes, people.race, len(keys), len(people.races))
    if order.size == 0:
        raise EmptyTableError("no records to build a geography table from")
    return GeoTable(
        races=people.races,
        entries={keys[k]: counts[k] for k in order.tolist()},
        race_totals=race_totals,
    )


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


def _count_pairs(key_codes, race, n_keys: int, width: int):
    """Count ``(key, race)`` pairs over the records whose race index is not -1.

    Returns the ``(n_keys, width)`` counts, the per-race totals of the
    counted records, and the codes of the keys counted, in order of first
    appearance.
    """
    race = np.asarray(race, dtype=np.intp)
    counted = race >= 0
    key_codes, race = key_codes[counted], race[counted]
    counts = np.bincount(key_codes * width + race, minlength=n_keys * width)
    counts = counts.astype(np.int64, copy=False).reshape(n_keys, width)
    race_totals = np.bincount(race, minlength=width).astype(np.int64, copy=False)
    seen, first_seen = np.unique(key_codes, return_index=True)
    return counts, race_totals, seen[np.argsort(first_seen)]


def _counts_matrix(entries: dict, width: int) -> np.ndarray:
    """The entries' count vectors as one ``(len(entries), width)`` array."""
    return np.array(list(entries.values())).reshape(len(entries), width)


def _likelihood_rows(counts, totals) -> np.ndarray:
    """Rows of ``counts / totals`` per race, 0 where a race's total is 0."""
    totals = np.asarray(totals).astype(np.float64)
    counts = np.asarray(counts).astype(np.float64)
    return np.divide(counts, totals, out=np.zeros(counts.shape), where=totals > 0)


def _fmt_counts(counts: np.ndarray) -> str:
    return ",".join(str(int(c)) for c in counts)


def _parse_counts(text: str, n: int, path) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != n:
        raise SchemaError(f"{path}: expected {n} counts, got {text!r}")
    try:
        return np.array([int(p) for p in parts], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: bad count in {text!r}") from exc


def _table_header(key_header, races, with_source) -> list[str]:
    return [key_header, *(f"count_{r}" for r in races)] + (["source"] if with_source else [])


def _write_table_csv(path, key_header, races, rows, meta, with_source):
    meta = {"races": ",".join(races), **meta}
    preamble = "".join(f"# {key}: {val}\n" for key, val in meta.items())
    try:
        write_csv(path, _table_header(key_header, races, with_source), rows, (0,), preamble)
    except OSError as exc:
        raise OSError(f"failed writing table to {path}: {exc}") from exc


def _read_table_csv(path, key_header, with_source):
    """Parse a table file: ``# key: value`` metadata lines, then CSV rows.

    Returns the metadata, the :class:`RaceSet` of its ``races`` line, and
    the keys, count vectors and (``with_source``) sources of the rows.

    Raises:
        SchemaError: a missing ``races`` or ``race_totals`` line, a
            malformed header or row, or a key that appears twice.
    """
    meta: dict[str, str] = {}
    keys: list[str] = []
    counts: list[np.ndarray] = []
    sources: list[str] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8") as fh:
        skipped = 0
        start = fh.tell()
        while (line := fh.readline()).startswith("#"):
            key, _, val = line[1:].rstrip("\n").partition(":")
            meta[key.strip()] = val.strip()
            skipped += 1
            start = fh.tell()
        fh.seek(start)
        for key in ("races", "race_totals"):
            if key not in meta:
                raise SchemaError(f"{path}: missing {key!r} metadata line")
        try:
            races = RaceSet(tuple(meta["races"].split(",")))
        except ValueError as exc:
            raise SchemaError(f"{path}: bad races: {exc}") from exc
        n_counts = len(races)
        with read_csv(path, _table_header(key_header, races, with_source), fh, skipped) as rows:
            for row in rows:
                key = row[0]
                try:
                    vec = np.array([int(v) for v in row[1 : 1 + n_counts]], dtype=np.int64)
                except (ValueError, OverflowError) as exc:
                    raise SchemaError(f"bad count: {exc}") from exc
                if (vec < 0).any():
                    raise SchemaError("negative count")
                if key in seen:
                    raise SchemaError(f"duplicate key {key!r}")
                seen.add(key)
                keys.append(key)
                counts.append(vec)
                if with_source:
                    src = row[-1]
                    if src not in (INTERNAL, EXTERNAL):
                        raise SchemaError(f"unknown source {src!r}")
                    sources.append(src)
    return meta, races, keys, counts, sources
