"""Name and geography probability tables built from voter-style columns.

A table is one column store: ``keys`` (``str``, in row order), a
``(len(keys), len(races))`` int64 ``counts`` matrix and the per-race
universe totals; ``index``, the key-to-row dict, is built on first use.
A :class:`NameTable` is keyed by table-normalized name, and each of its
rows has a source (an int8 index into :data:`SOURCES`) with universe
totals per source.  It answers ``P(race | name)`` and the likelihood of
a name within each race, ``P(name | race)``, over its source's totals
(a file with a ``source_totals`` line needs one per source its rows use).
A :class:`GeoTable` answers ``P(geo | race)``.  Tables hold raw counts:
a caller that smooths ``P(race | name)`` passes its ``smoothing_alpha``.

Construction follows the standard small-cell suppression convention:
a name is kept only when it has at least :data:`MIN_TOTAL` observations,
or falls in :data:`SINGLE_RACE_BAND` (15-29 observations all of one
race).  Tables built from different sources can be merged with an
explicit preference rule; on collision the preferred side's row wins
wholesale, never mixing counts.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property, partial

import os

import numpy as np

from .core import People, RaceSet, renormalize_rows
from .csvio import not_utf8, read_csv, write_csv
from .errors import NameproxyError, SchemaError
from .names import DEFAULT_SUFFIXES, column_keys, normalize_table, usable_keys
from .sampling import max_feasible_sample_size, representative_sample_indices

SURNAME = "surname"
FIRSTNAME = "firstname"

INTERNAL = "internal"
EXTERNAL = "external"
#: A name table row's source is its index in this tuple.
SOURCES = (INTERNAL, EXTERNAL)

#: Suppression thresholds: keep when total >= 30, or when the total lies
#: in [15, 29] and exactly one race accounts for all of it.  The rule reads
#: them when called; ``MIN_TOTAL = 0`` keeps every counted name.
MIN_TOTAL = 30
SINGLE_RACE_BAND = (15, 29)


def passes_suppression(counts) -> bool | np.ndarray:
    """Apply the small-cell suppression rule to one entry's counts (a
    ``bool``) or to each row of a ``(rows, races)`` matrix (a bool array)."""
    counts = np.asarray(counts)
    total = counts.sum(axis=-1)
    lo, hi = SINGLE_RACE_BAND
    single_race = np.count_nonzero(counts, axis=-1) == 1
    kept = (total >= MIN_TOTAL) | ((lo <= total) & (total <= hi) & single_race)
    return bool(kept) if counts.ndim == 1 else kept


class _Rows:
    """What both tables share: ``keys[i]`` labels row ``i`` of ``counts``."""

    def __post_init__(self):
        counts = np.ascontiguousarray(self.counts, dtype=np.int64)
        self.counts = counts.reshape(len(self.keys), len(self.races))
        self.race_totals = np.asarray(self.race_totals, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.keys)

    def __contains__(self, key: str) -> bool:
        return key in self.index

    @cached_property
    def index(self) -> dict[str, int]:
        """Each key's row; built on first use, so ``keys`` must not change after it."""
        return {key: i for i, key in enumerate(self.keys)}


@dataclass
class NameTable(_Rows):
    """Counts-per-race keyed by table-normalized name."""

    kind: str
    races: RaceSet
    keys: list[str]
    counts: np.ndarray
    race_totals: np.ndarray
    sources: np.ndarray | None = None  # index into SOURCES per row; None: all internal
    source_totals: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (SURNAME, FIRSTNAME):
            raise ValueError(f"unknown table kind {self.kind!r}")
        super().__post_init__()
        sources = np.zeros(len(self.keys)) if self.sources is None else self.sources
        self.sources = np.asarray(sources, dtype=np.int8).reshape(len(self.keys))
        if not self.source_totals:
            src = SOURCES[self.sources[0]] if self.keys else INTERNAL
            self.source_totals = {src: self.race_totals}

    def race_given_name(self, name: str, smoothing_alpha: float = 0.0) -> np.ndarray | None:
        """``P(race | name)``: the entry's counts, each plus ``smoothing_alpha``,
        renormalized across races."""
        row = self.index.get(name)
        if row is None:
            return None
        return renormalize_rows(self.counts[row : row + 1].astype(np.float64) + smoothing_alpha)[0]

    def name_likelihood(self, name: str) -> np.ndarray | None:
        """``P(name | race)`` per race: entry count over that race's universe total.

        The result is a vector of conditional likelihoods, one per race; it
        does not sum to 1.  Races with a zero universe total get 0.
        """
        row = self.index.get(name)
        if row is None:
            return None
        totals = self.source_totals.get(SOURCES[self.sources[row]], self.race_totals)
        return _likelihood_rows(self.counts[row], totals)

    def prior_rows(self, smoothing_alpha: float = 0.0) -> np.ndarray:
        """:meth:`race_given_name` of every entry, one row each in ``keys`` order.

        An entry that :meth:`race_given_name` cannot normalize (no mass at
        all) gets a row of NaN.
        """
        x = self.counts.astype(np.float64) + smoothing_alpha
        out = np.full(x.shape, np.nan)
        usable = np.isfinite(x).all(axis=1) & (x >= 0).all(axis=1) & (x.sum(axis=1) > 0.0)
        out[usable] = renormalize_rows(x[usable])
        return out

    def likelihood_rows(self) -> np.ndarray:
        """:meth:`name_likelihood` of every entry, one row each in ``keys`` order."""
        by_source = np.array([self.source_totals.get(src, self.race_totals) for src in SOURCES])
        return _likelihood_rows(self.counts, by_source[self.sources])

    def save(self, path) -> None:
        _write_table_csv(
            path,
            key_header="name",
            races=self.races,
            keys=self.keys,
            counts=self.counts,
            sources=self.sources,
            meta={
                "kind": self.kind,
                "race_totals": _fmt_counts(self.race_totals),
                **{
                    f"source_totals {src}": _fmt_counts(tot)
                    for src, tot in sorted(self.source_totals.items())
                },
            },
        )

    @classmethod
    def load(cls, path) -> "NameTable":
        meta, races, keys, counts, sources = _read_table_csv(path, "name", with_source=True)
        if "kind" not in meta:
            raise SchemaError(f"{path}: missing 'kind' metadata line")
        if meta["kind"] not in (SURNAME, FIRSTNAME):
            raise SchemaError(f"{path}: unknown table kind {meta['kind']!r}")
        source_totals = {}
        for key, val in meta.items():
            if key.startswith("source_totals "):
                src = key.split(" ", 1)[1]
                if src not in SOURCES:
                    raise SchemaError(f"{path}: unknown source {src!r} in {key!r}")
                source_totals[src] = _parse_counts(val, len(races), path)
        missing = {SOURCES[code] for code in np.unique(sources).tolist()} - source_totals.keys()
        if source_totals and missing:
            src = min(missing)
            raise SchemaError(f"{path}: no 'source_totals {src}' line for rows tagged {src}")
        race_totals = _parse_counts(meta["race_totals"], len(races), path)
        return cls(meta["kind"], races, keys, counts, race_totals, sources, source_totals)

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
        normalize to one key add their pseudo-counts together; keys keep
        the order of their first row.
        """
        races = races or RaceSet()
        raw_names, totals, probs = [], array("q"), array("d")
        with read_csv(path, ["name", "total"] + [f"p_{r}" for r in races]) as rows:
            for row in rows:
                try:
                    total = int(row[1])
                    p = [float(v) for v in row[2:]]
                except ValueError as exc:
                    raise SchemaError(str(exc)) from exc
                # NaN fails every comparison; above 2**53 a float64 product
                # no longer holds every integer count
                if not (0 <= total <= 2**53 and all(0 <= v <= 1 for v in p)):
                    raise SchemaError("values out of range")
                raw_names.append(row[0])
                totals.append(total)
                probs.extend(p)
        keys, codes = column_keys(raw_names, partial(normalize_table, suffixes=suffixes))
        # each total is exact in float64, so a row's product is p * total as a float
        pseudo = np.rint(
            np.frombuffer(probs).reshape(len(codes), len(races))
            * np.frombuffer(totals, dtype=np.int64).astype(np.float64)[:, None]
        ).astype(np.int64)
        counts = np.zeros((len(keys), len(races)), dtype=np.int64)
        np.add.at(counts, codes, pseudo)
        kept = np.flatnonzero(usable_keys(keys) & (counts.sum(axis=1) > 0))
        if kept.size == 0:
            raise SchemaError(f"{path}: no usable rows")
        counts = counts[kept]
        keys = [keys[k] for k in kept.tolist()]
        sources = np.full(kept.size, SOURCES.index(EXTERNAL))  # so source_totals are external
        return cls(kind, races, keys, counts, counts.sum(axis=0), sources)


@dataclass
class GeoTable(_Rows):
    """Counts-per-race keyed by geography id."""

    races: RaceSet
    keys: list[str]
    counts: np.ndarray
    race_totals: np.ndarray

    def geo_likelihood(self, geo: str) -> np.ndarray | None:
        """``P(geo | race)`` per race: share of each race living in ``geo``."""
        row = self.index.get(geo)
        if row is None:
            return None
        return _likelihood_rows(self.counts[row], self.race_totals)

    def likelihood_rows(self) -> np.ndarray:
        """:meth:`geo_likelihood` of every entry, one row each in ``keys`` order."""
        return _likelihood_rows(self.counts, self.race_totals)

    def save(self, path) -> None:
        _write_table_csv(
            path,
            key_header="geo",
            races=self.races,
            keys=self.keys,
            counts=self.counts,
            meta={"race_totals": _fmt_counts(self.race_totals)},
        )

    @classmethod
    def load(cls, path) -> "GeoTable":
        meta, races, keys, counts, _ = _read_table_csv(path, "geo", with_source=False)
        return cls(races, keys, counts, _parse_counts(meta["race_totals"], len(races), path))


def build_name_table(
    people: People,
    kind: str,
    seed: int = 0,
    target_shares=None,
    suffixes: tuple[str, ...] = DEFAULT_SUFFIXES,
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
        NameproxyError: a race has no people at all, or nothing survives
            suppression.
    """
    if kind not in (SURNAME, FIRSTNAME):
        raise ValueError(f"unknown table kind {kind!r}")
    rows = training_rows(people, seed, target_shares)
    column = people.last if kind == SURNAME else people.first
    keys, codes = column_keys(column, partial(normalize_table, suffixes=suffixes))
    race = people.race[rows]
    return count_name_table(kind, people.races, keys, codes[rows], race)


def training_rows(people: People, seed: int = 0, target_shares=None) -> np.ndarray:
    """The rows a name table is counted from.

    Every row, or with ``target_shares`` the stratified sample described
    in :func:`build_name_table`.  Drawing it once serves every table kind.

    Raises:
        NameproxyError: a race has no people at all.
    """
    races = people.races
    counts_per_race = np.bincount(people.race[people.race >= 0], minlength=len(races))
    if (counts_per_race == 0).any():
        missing = [label for label, c in zip(races, counts_per_race) if c == 0]
        raise NameproxyError(f"no records for race(s): {', '.join(missing)}")
    if target_shares is None:
        return np.arange(len(people))
    n = max_feasible_sample_size(counts_per_race, target_shares)
    return representative_sample_indices(people.race, n, target_shares, seed=seed, races=races)


def count_name_table(
    kind: str, races: RaceSet, keys: list, key_codes: np.ndarray, race: np.ndarray
) -> NameTable:
    """Count ``(name, race)`` pairs into a suppressed :class:`NameTable`.

    Record ``i`` has name ``keys[key_codes[i]]`` (as from
    :func:`names.column_keys`) and race index ``race[i]``.  Records with a
    race outside the set, or a name that is None or one character, are
    not counted.  Rows keep the order of each name's first counted
    record.

    Raises:
        NameproxyError: nothing survives suppression.
    """
    key_codes = np.asarray(key_codes, dtype=np.intp)
    race = np.where(usable_keys(keys)[key_codes], race, -1)
    counts, race_totals, order = _count_pairs(key_codes, race, len(keys), len(races))
    order = order[passes_suppression(counts[order])]
    if order.size == 0:
        raise NameproxyError("no names survived normalization and suppression")
    return NameTable(kind, races, [keys[k] for k in order.tolist()], counts[order], race_totals)


def build_geo_table(people: People) -> GeoTable:
    """Accumulate per-(geo, race) counts; race totals are the column sums.

    People without a race are not counted.

    Raises:
        ValueError: a geo id is empty.
        NameproxyError: nobody is counted.
    """
    if not all(people.geo):
        raise ValueError("geo table construction needs non-empty geo ids")
    keys, codes = column_keys(people.geo)
    counts, race_totals, order = _count_pairs(codes, people.race, len(keys), len(people.races))
    if order.size == 0:
        raise NameproxyError("no records to build a geography table from")
    return GeoTable(people.races, [keys[k] for k in order.tolist()], counts[order], race_totals)


def merge_tables(internal: NameTable, external: NameTable, prefer: str) -> NameTable:
    """Union two tables of the same kind; the preferred side wins collisions.

    The winning side's entry is kept wholesale (counts are never mixed) and
    every entry keeps its own source tag.  Per-source universe totals are
    carried along so ``P(name | race)`` stays consistent with the universe
    each entry was counted in.
    """
    if internal.kind != external.kind:
        raise NameproxyError(f"cannot merge {internal.kind!r} with {external.kind!r}")
    if internal.races != external.races:
        raise NameproxyError("cannot merge tables over different race sets")
    if prefer not in (INTERNAL, EXTERNAL):
        raise ValueError(f"prefer must be 'internal' or 'external', got {prefer!r}")
    preferred, other = (internal, external) if prefer == INTERNAL else (external, internal)
    # other's rows in order, each from the preferred side where it has the
    # key too, then the preferred side's other rows: a dict union's order
    n = len(other)
    at = np.array([preferred.index.get(key, -1) for key in other.keys], dtype=np.intp)
    rest = np.setdiff1d(np.arange(len(preferred)), at)
    pick = np.concatenate([np.where(at >= 0, n + at, np.arange(n)), n + rest])
    return NameTable(
        kind=internal.kind,
        races=internal.races,
        keys=other.keys + [preferred.keys[i] for i in rest.tolist()],
        counts=np.concatenate([other.counts, preferred.counts])[pick],
        race_totals=preferred.race_totals,
        sources=np.concatenate([other.sources, preferred.sources])[pick],
        source_totals={**other.source_totals, **preferred.source_totals},
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
        counts = np.array([int(p) for p in parts], dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: bad count in {text!r}") from exc
    if (counts < 0).any():
        raise SchemaError(f"{path}: negative count in {text!r}")
    return counts


def _table_header(key_header, races, with_source) -> list[str]:
    return [key_header, *(f"count_{r}" for r in races)] + (["source"] if with_source else [])


def _write_table_csv(path, key_header, races, keys, counts, meta, sources=None):
    """Write the ``meta`` lines and a ``rows`` line, which lets a reader
    detect a cut file, then each row's key, counts and (given ``sources``)
    source, in ``sorted()`` key order."""
    meta = {"races": ",".join(races), **meta, "rows": len(keys)}
    preamble = "".join(f"# {key}: {val}\n" for key, val in meta.items())
    cells = counts.tolist()
    for row, src in zip(cells, [] if sources is None else sources.tolist()):
        row.append(SOURCES[src])
    rows = ([keys[i], *cells[i]] for i in sorted(range(len(keys)), key=keys.__getitem__))
    header = _table_header(key_header, races, sources is not None)
    write_csv(path, header, rows, (0,), preamble)


def _read_table_csv(path, key_header, with_source):
    """Parse a table file: ``# key: value`` metadata lines, then CSV rows.

    Returns the metadata, the :class:`RaceSet` of its ``races`` line, and
    the rows' keys, their ``(rows, races)`` count matrix and (``with_source``)
    their source codes, or None.

    Raises:
        SchemaError: a missing ``races`` or ``race_totals`` line, a
            malformed header or row, a key that appears twice, a row count
            other than the ``rows`` line's or a last line without a line
            break (where the file has a ``rows`` line), or a file that is
            not UTF-8 text.
    """
    meta: dict[str, str] = {}
    keys: list[str] = []
    counts = array("q")
    sources: list[int] = []
    seen: set[str] = set()
    with open(path, newline="", encoding="utf-8-sig") as fh:
        skipped = 0
        start = fh.tell()
        try:
            while (line := fh.readline()).startswith("#"):
                key, _, val = line[1:].rstrip("\n").partition(":")
                meta[key.strip()] = val.strip()
                skipped += 1
                start = fh.tell()
        except UnicodeDecodeError as exc:
            raise not_utf8(path) from exc
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
                    vec = [int(v) for v in row[1 : 1 + n_counts]]
                    if not 0 <= min(vec) <= max(vec) < 2**63:
                        np.array(vec, dtype=np.int64)  # raises OverflowError beyond int64
                        raise SchemaError("negative count")
                except (ValueError, OverflowError) as exc:
                    raise SchemaError(f"bad count: {exc}") from exc
                if key in seen:
                    raise SchemaError(f"duplicate key {key!r}")
                seen.add(key)
                keys.append(key)
                counts.extend(vec)
                if with_source:
                    src = row[-1]
                    if src not in SOURCES:
                        raise SchemaError(f"unknown source {src!r}")
                    sources.append(SOURCES.index(src))
        if "rows" in meta:
            # every writer ends the file in a line break, and a file cut inside
            # its last row can still parse, as a row with a shorter last field
            fh.buffer.seek(-1, os.SEEK_END)
            if fh.buffer.read(1) != b"\n":
                raise SchemaError(f"{path}: the file does not end in a line break, so it was cut")
    if "rows" in meta and meta["rows"] != str(len(keys)):
        raise SchemaError(
            f"{path}: the 'rows' metadata line says {meta['rows']}, the file holds {len(keys)}"
        )
    counts = np.frombuffer(counts, dtype=np.int64).reshape(len(keys), n_counts)
    return meta, races, keys, counts, np.array(sources, dtype=np.int8) if with_source else None
