"""Column kernels against the one-record functions and a per-record reference.

The reference functions below restate the per-record arithmetic the
predictors are defined by (renormalize with its error band, likelihood as
count over universe total, left-to-right products, the ensemble's
pass-through and weighted sum).  The column kernels must reproduce them
bit for bit, decline reasons included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nameproxy import names, tables
from nameproxy.bayes import (
    BayesContext,
    bayes_scores,
    bifsg_reason,
    bisg_reason,
    geo_augment_reason,
    geo_augment_scores,
)
from nameproxy.core import (
    DECLINE_REASONS,
    REASON_CODE,
    UNENCODABLE_NAME,
    UNKNOWN_FIRSTNAME,
    UNKNOWN_GEO,
    UNKNOWN_SURNAME,
    ZERO_MASS,
    RaceSet,
    Scores,
)
from nameproxy.ensemble import EnsembleSpec, ensemble_predict, ensemble_scores
from nameproxy.errors import NameproxyError
from nameproxy.names import column_keys, normalize_table
from nameproxy.tables import (
    EXTERNAL,
    FIRSTNAME,
    INTERNAL,
    SOURCES,
    SURNAME,
    GeoTable,
    NameTable,
    build_geo_table,
    build_name_table,
    merge_tables,
)

from conftest import Row, entries_of, geo_table, name_table, people_of

EPS = float(np.finfo(np.float64).eps)


# ------------------------------------------------------------ reference


def ref_renormalize(x):
    x = np.asarray(x, dtype=np.float64)
    s = float(x.sum())
    if s == 0.0:
        raise NameproxyError("cannot normalize a vector of zeros")
    if abs(s - 1.0) <= 64.0 * x.size * EPS:
        return x.copy()
    return x / s


def ref_likelihood(counts, totals):
    totals = np.asarray(totals).astype(np.float64)
    return np.divide(
        np.asarray(counts).astype(np.float64), totals, out=np.zeros(len(totals)), where=totals > 0
    )


def ref_row(table, key):
    """The row of ``key`` by a search of ``keys``, or None."""
    return table.keys.index(key) if key in table.keys else None


def ref_prior(table: NameTable, key, smoothing_alpha=0.0):
    row = ref_row(table, key)
    if row is None:
        return None
    x = table.counts[row].astype(np.float64)
    if smoothing_alpha > 0.0:
        x = x + smoothing_alpha
    return ref_renormalize(x)


def ref_name_likelihood(table: NameTable, key):
    row = ref_row(table, key)
    if row is None:
        return None
    totals = table.source_totals.get(SOURCES[table.sources[row]], table.race_totals)
    return ref_likelihood(table.counts[row], totals)


def ref_geo_likelihood(table: GeoTable, geo):
    row = ref_row(table, geo)
    return None if row is None else ref_likelihood(table.counts[row], table.race_totals)


def ref_posterior(numerator):
    if numerator.sum() <= 0.0:
        return None, ZERO_MASS
    return ref_renormalize(numerator), None


def ref_bayes(ctx: BayesContext, first, last, geo):
    """BISG when ``first`` is None, BIFSG otherwise, one record at a time."""
    key = normalize_table(last, ctx.suffixes)
    prior = None if key is None else ref_prior(ctx.surname_table, key, ctx.smoothing_alpha)
    if prior is None:
        return None, UNKNOWN_SURNAME
    if first is not None:
        fkey = normalize_table(first, ctx.suffixes)
        first_like = None if fkey is None else ref_name_likelihood(ctx.firstname_table, fkey)
        if first_like is None:
            return None, UNKNOWN_FIRSTNAME
    geo_like = ref_geo_likelihood(ctx.geo_table, geo)
    if geo_like is None:
        return None, UNKNOWN_GEO
    if first is not None:
        return ref_posterior(prior * first_like * geo_like)
    return ref_posterior(prior * geo_like)


def ref_ensemble(predictions, weights):
    present = [(np.asarray(p, dtype=np.float64), w) for p, w in zip(predictions, weights)
               if p is not None]
    if not present:
        return None
    first = present[0][0]
    if all(np.array_equal(vec, first) for vec, _ in present):
        return first.copy()
    acc = np.zeros_like(first)
    total = 0.0
    for vec, weight in present:
        acc += weight * vec
        total += weight
    return ref_renormalize(acc / total)


def same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ------------------------------------------------------------ strategies

NAME_POOL = ["aa", "bb", "cc", "dd", "ee", "ff"]
#: raw spellings: exact keys, case and punctuation variants, unknown and
#: unnormalizable names
RAW_NAMES = NAME_POOL + ["AA", "b-b", "C'c", "dd jr", "zz", "!!", "x", " ee "]
GEOS = ["g1", "g2", "g3", "g4"]
RAW_GEOS = GEOS + ["g9", "G1", ""]
ALPHAS = [0.0, 0.0, 1e-3, 0.5, 1.0]


@st.composite
def bayes_worlds(draw):
    width = draw(st.integers(1, 5))
    races = RaceSet(tuple(f"r{i}" for i in range(width)))
    # zeros are drawn often: zero counts make zero-mass posteriors, and a
    # zero universe total makes a race's likelihood 0
    count = st.one_of(st.just(0), st.integers(1, 40), st.integers(1, 40))
    counts = st.lists(count, min_size=width, max_size=width).map(
        lambda c: np.array(c, dtype=np.int64)
    )
    total = st.one_of(st.just(0), st.integers(1, 500), st.integers(1, 500))
    totals = st.lists(total, min_size=width, max_size=width).map(
        lambda c: np.array(c, dtype=np.int64)
    )

    def drawn_table(kind, source):
        keys = draw(st.lists(st.sampled_from(NAME_POOL), min_size=1, unique=True))
        source_totals = draw(totals)
        # an all-zero surname entry makes the whole column raise; that case
        # has its own test below
        entry = counts.filter(lambda c: c.any()) if kind == SURNAME else counts
        return name_table(
            kind=kind,
            races=races,
            entries={key: draw(entry) for key in keys},
            race_totals=source_totals,
            provenance=dict.fromkeys(keys, source),
            source_totals={source: source_totals},
        )

    surname = drawn_table(SURNAME, INTERNAL)
    if draw(st.booleans()):
        surname = merge_tables(
            surname, drawn_table(SURNAME, EXTERNAL), draw(st.sampled_from([INTERNAL, EXTERNAL]))
        )
    alpha = draw(st.sampled_from(ALPHAS))
    firstname = drawn_table(FIRSTNAME, INTERNAL)
    if draw(st.booleans()):
        firstname = merge_tables(
            firstname,
            drawn_table(FIRSTNAME, EXTERNAL),
            draw(st.sampled_from([INTERNAL, EXTERNAL])),
        )
    geo_keys = draw(st.lists(st.sampled_from(GEOS), min_size=1, unique=True))
    geo = geo_table(races, {g: draw(counts) for g in geo_keys}, draw(totals))
    ctx = BayesContext(surname, geo, firstname, smoothing_alpha=alpha)
    name = st.one_of(st.sampled_from(NAME_POOL), st.sampled_from(RAW_NAMES))
    geo_id = st.one_of(st.sampled_from(GEOS), st.sampled_from(RAW_GEOS))
    records = draw(st.lists(st.tuples(name, name, geo_id), max_size=30))
    return ctx, records


def raises_or_value(fn, *args):
    try:
        return fn(*args), None
    except (NameproxyError, ValueError) as exc:
        return None, (type(exc), str(exc))


class TestBayesKernelOracle:
    @settings(max_examples=300, deadline=None)
    @given(bayes_worlds())
    def test_kernel_matches_one_row_and_reference(self, world):
        ctx, records = world
        firsts = [r[0] for r in records]
        lasts = [r[1] for r in records]
        geos = [r[2] for r in records]
        for with_first in (False, True):
            scores, error = raises_or_value(
                bayes_scores, ctx, lasts, geos, firsts if with_first else None
            )
            expected = []
            ref_error = None
            for first, last, geo in records:
                got, ref_error = raises_or_value(
                    ref_bayes, ctx, first if with_first else None, last, geo
                )
                if ref_error is not None:
                    break
                expected.append(got)
            assert error == ref_error
            if error is not None:
                continue
            assert scores.probs.shape == (len(records), len(ctx.races))
            for i, (first, last, geo) in enumerate(records):
                want_probs, want_reason = expected[i]
                probs, reason = scores.row(i)
                assert reason == want_reason
                assert same_bits(probs, want_probs)
                one = (
                    bifsg_reason(ctx, first, last, geo)
                    if with_first
                    else bisg_reason(ctx, last, geo)
                )
                assert one[1] == want_reason
                assert same_bits(one[0], want_probs)
            assert not scores.probs[~scores.covered].any()

    @settings(max_examples=200, deadline=None)
    @given(bayes_worlds(), st.data())
    def test_geo_augment_matches_one_row_and_reference(self, world, data):
        ctx, records = world
        width = len(ctx.races)
        n = len(records)
        raw = np.array(
            data.draw(st.lists(st.floats(0.0, 1.0), min_size=n * width, max_size=n * width))
        ).reshape(n, width)
        declined = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
        probs = np.where(declined[:, None], 0.0, raw)
        reason = np.where(declined, REASON_CODE[UNENCODABLE_NAME], 0).astype(np.int8)
        geos = [r[2] for r in records]
        rows = ctx.geo_likelihood.rows(geos)
        scores, error = raises_or_value(
            geo_augment_scores, Scores(probs, reason), rows, ctx.geo_likelihood.matrix
        )
        expected = []
        ref_error = None
        for i, geo in enumerate(geos):
            if declined[i]:
                expected.append((None, UNENCODABLE_NAME))
                continue
            geo_like = ref_geo_likelihood(ctx.geo_table, geo)
            if geo_like is None:
                expected.append((None, UNKNOWN_GEO))
                continue
            got, ref_error = raises_or_value(ref_posterior, probs[i] * geo_like)
            if ref_error is not None:
                break
            expected.append(got)
        assert error == ref_error
        if error is not None:
            return
        for i, geo in enumerate(geos):
            want_probs, want_reason = expected[i]
            got_probs, got_reason = scores.row(i)
            assert got_reason == want_reason
            assert same_bits(got_probs, want_probs)
            if not declined[i]:
                one = geo_augment_reason(
                    probs[i], ctx.geo_table.geo_likelihood(geo), ctx.races
                )
                assert one[1] == want_reason
                assert same_bits(one[0], want_probs)


@st.composite
def ensemble_inputs(draw):
    width = draw(st.integers(1, 5))
    n_members = draw(st.integers(1, 4))
    n = draw(st.integers(0, 25))
    # a small pool of vectors makes exact agreement between members common
    pool = [
        np.array(v) / sum(v)
        for v in draw(
            st.lists(
                st.lists(st.floats(0.01, 1.0), min_size=width, max_size=width),
                min_size=1,
                max_size=3,
            )
        )
    ]
    members = []
    for _ in range(n_members):
        rows = [
            draw(st.one_of(st.none(), st.sampled_from(range(len(pool))))) for _ in range(n)
        ]
        probs = np.array([pool[r] if r is not None else np.zeros(width) for r in rows])
        reason = np.array(
            [0 if r is not None else REASON_CODE[UNKNOWN_GEO] for r in rows], dtype=np.int8
        )
        members.append(Scores(probs.reshape(n, width), reason))
    weights = tuple(draw(st.lists(st.floats(0.1, 5.0), min_size=n_members, max_size=n_members)))
    return members, EnsembleSpec(tuple(f"m{i}" for i in range(n_members)), weights)


class TestEnsembleKernelOracle:
    @settings(max_examples=300, deadline=None)
    @given(ensemble_inputs())
    def test_kernel_matches_one_row_and_reference(self, inputs):
        members, spec = inputs
        scores = ensemble_scores(members, spec)
        for i in range(scores.probs.shape[0]):
            predictions = [m.row(i)[0] for m in members]
            want = ref_ensemble(predictions, spec.weights)
            got, reason = scores.row(i)
            assert same_bits(got, want)
            assert reason == (None if want is not None else DECLINE_REASONS[-1])
            assert same_bits(ensemble_predict(predictions, spec), want)


class TestBayesKernelDenseWorld:
    """Many covered records with no zero counts, where every rounding step shows."""

    def test_bit_for_bit_on_seeded_world(self):
        rng = np.random.default_rng(2024)
        races = RaceSet(("a", "b", "c", "d"))
        keys = [f"n{chr(97 + i)}{chr(97 + j)}" for i in range(8) for j in range(8)]

        def table(kind, source):
            totals = rng.integers(1000, 5000, 4)
            return name_table(
                kind, races, {k: rng.integers(1, 300, 4) for k in keys}, totals,
                provenance=dict.fromkeys(keys, source), source_totals={source: totals},
            )

        merged = merge_tables(table(SURNAME, INTERNAL), table(SURNAME, EXTERNAL), EXTERNAL)
        kept = np.arange(len(merged)) != merged.keys.index(keys[0])
        surname = NameTable(
            SURNAME, races, [k for k in merged.keys if k != keys[0]], merged.counts[kept],
            merged.race_totals, merged.sources[kept], merged.source_totals,
        )
        firstname = merge_tables(
            table(FIRSTNAME, INTERNAL), table(FIRSTNAME, EXTERNAL), INTERNAL
        )
        geo = geo_table(races, {f"g{i}": rng.integers(1, 900, 4) for i in range(30)},
                        rng.integers(5000, 9000, 4))
        ctx = BayesContext(surname, geo, firstname, smoothing_alpha=0.5)
        n = 3000
        firsts = [keys[i].upper() for i in rng.integers(0, len(keys), n)]
        lasts = [keys[i] for i in rng.integers(0, len(keys), n)]
        geos = [f"g{i}" for i in rng.integers(0, 31, n)]
        for with_first in (False, True):
            scores = bayes_scores(ctx, lasts, geos, firsts if with_first else None)
            for i in range(n):
                want = ref_bayes(ctx, firsts[i] if with_first else None, lasts[i], geos[i])
                got = scores.row(i)
                assert got[1] == want[1] and same_bits(got[0], want[0]), i
            assert scores.covered.mean() > 0.9
        name = Scores(rng.dirichlet(np.ones(4), n), np.zeros(n, dtype=np.int8))
        rows = ctx.geo_likelihood.rows(geos)
        augmented = geo_augment_scores(name, rows, ctx.geo_likelihood.matrix)
        members = [bayes_scores(ctx, lasts, geos), augmented, name]
        spec = EnsembleSpec(("a", "b", "c"), (0.5, 1.0, 2.0))
        mixed = ensemble_scores(members, spec)
        for i in range(n):
            want = ref_posterior(name.probs[i] * ref_geo_likelihood(geo, geos[i])) \
                if geos[i] in geo.keys else (None, UNKNOWN_GEO)
            got = augmented.row(i)
            assert got[1] == want[1] and same_bits(got[0], want[0]), i
            predictions = [m.row(i)[0] for m in members]
            assert same_bits(mixed.row(i)[0], ref_ensemble(predictions, spec.weights)), i


class TestBayesKernelEdges:
    def test_zero_mass_surname_raises_only_when_used(self):
        races = RaceSet(("a", "b"))
        surname = name_table(
            SURNAME, races, {"aa": np.array([0, 0]), "bb": np.array([3, 1])}, np.array([3, 1])
        )
        geo = geo_table(races, {"g1": np.array([1, 1])}, np.array([3, 1]))
        ctx = BayesContext(surname, geo)
        assert bayes_scores(ctx, ["bb", "zz"], ["g1", "g1"]).row(1) == (None, UNKNOWN_SURNAME)
        with pytest.raises(NameproxyError, match="cannot normalize a vector of zeros"):
            bayes_scores(ctx, ["bb", "aa"], ["g1", "g9"])

    def test_empty_column(self):
        races = RaceSet(("a", "b"))
        surname = name_table(SURNAME, races, {"bb": np.array([3, 1])}, np.array([3, 1]))
        geo = geo_table(races, {"g1": np.array([1, 1])}, np.array([3, 1]))
        scores = bayes_scores(BayesContext(surname, geo), [], [])
        assert scores.probs.shape == (0, 2) and scores.reason.shape == (0,)

    def test_histogram_counts_reasons(self):
        reason = np.array([0, 1, 1, 3, 0, 4], dtype=np.int8)
        hist = Scores(np.zeros((6, 2)), reason).histogram()
        assert hist == {"covered": 2, UNKNOWN_SURNAME: 2, UNKNOWN_GEO: 1, ZERO_MASS: 1}


def ref_column_keys(values, key):
    """Per-value keying: each value's key, and its index among the keys so far."""
    keys, codes = [], []
    for value in values:
        k = value if key is None else key(value)
        if k not in keys:
            keys.append(k)
        codes.append(keys.index(k))
    return keys, codes


def fold_key(value):
    """A key with collisions and Nones: lower-cased text, or a tuple's sum."""
    if isinstance(value, tuple):
        return sum(value) or None
    return value.strip().lower() or None


column_text = st.text(alphabet="aAbB !-", max_size=4)
column_tuple = st.tuples(st.integers(0, 2), st.integers(-1, 1))
column_cases = st.one_of(
    st.tuples(st.lists(column_text, max_size=30),
              st.sampled_from([None, fold_key, normalize_table])),
    st.tuples(st.lists(column_tuple, max_size=30), st.sampled_from([None, fold_key])),
    st.tuples(st.lists(st.one_of(column_text, column_tuple), max_size=30),
              st.sampled_from([None, fold_key])),
)


class TestColumnKeys:
    @settings(max_examples=300, deadline=None)
    @given(column_cases)
    def test_matches_per_value_reference(self, case):
        values, key = case
        calls = []

        def counted(value):
            calls.append(value)
            return key(value)

        keys, codes = column_keys(iter(values), None if key is None else counted)
        assert (keys, codes.tolist()) == ref_column_keys(values, key)
        assert codes.dtype == np.intp
        if key is not None:
            assert sorted(map(repr, calls)) == sorted(map(repr, set(values)))

    def test_keys_codes_and_none(self):
        values = ["Smith", "SMITH", "!!", "Lee", "smith jr", "!!"]
        keys, codes = column_keys(values, normalize_table)
        assert keys == ["smith", None, "lee"]
        assert codes.tolist() == [0, 0, 1, 2, 0, 1]

    def test_neural_and_raw_profiles(self):
        keys, codes = column_keys(["O'Neil", "o'neil", "..."], names.normalize)
        assert keys == ["o'neil", None] and codes.tolist() == [0, 0, 1]
        keys, codes = column_keys(["b", "a", "b"])
        assert keys == ["b", "a"] and codes.tolist() == [0, 1, 0]

    def test_normalizes_each_distinct_string_once(self):
        calls = []

        def counted(raw):
            calls.append(raw)
            return normalize_table(raw)

        column_keys(["Ann", "Bo", "Ann", "ann", "Bo"] * 100, counted)
        assert sorted(calls) == ["Ann", "Bo", "ann"]


def ref_build_name_table(records, kind, races):
    """Per-record counting, as the table builder is defined, with the
    suppression thresholds 3 and (2, 2)."""
    race_index = {label: i for i, label in enumerate(races)}
    entries = {}
    totals = np.zeros(len(races), dtype=np.int64)
    for rec in records:
        if rec.race not in race_index:
            continue
        name = normalize_table(rec.last if kind == SURNAME else rec.first)
        if name is None or len(name) <= 1:
            continue
        entries.setdefault(name, np.zeros(len(races), dtype=np.int64))[race_index[rec.race]] += 1
        totals[race_index[rec.race]] += 1
    kept = {
        k: c for k, c in entries.items()
        if c.sum() >= 3 or (c.sum() == 2 and np.count_nonzero(c) == 1)
    }
    return kept, totals


class TestTableCountingOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(RAW_NAMES),
                st.sampled_from(RAW_NAMES),
                st.sampled_from(GEOS),
                st.sampled_from(["r0", "r1", "r2", "other"]),
            ),
            max_size=80,
        )
    )
    def test_name_and_geo_tables_match_per_record_counts(self, rows):
        races = RaceSet(("r0", "r1", "r2"))
        records = [Row(*row) for row in rows] + [
            Row("anna", "smith", "g1", label) for label in races
        ]
        people = people_of(records, races)
        for kind in (SURNAME, FIRSTNAME):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(tables, "MIN_TOTAL", 3)
                mp.setattr(tables, "SINGLE_RACE_BAND", (2, 2))
                table = build_name_table(people, kind)
            entries, totals = ref_build_name_table(records, kind, races)
            assert table.keys == list(entries)
            for key, counts in entries.items():
                assert entries_of(table)[key] == counts.tolist()
            assert table.race_totals.tolist() == totals.tolist()
        geo = build_geo_table(people)
        want = {}
        for rec in records:
            if rec.race in races:
                want.setdefault(rec.geo, np.zeros(3, dtype=np.int64))[races.index(rec.race)] += 1
        assert geo.keys == list(want)
        assert all(entries_of(geo)[g] == c.tolist() for g, c in want.items())
        assert geo.race_totals.tolist() == np.sum(list(want.values()), axis=0).tolist()
