"""Bayes predictors: BISG, BIFSG, and geographic augmentation."""

import numpy as np
import pytest

from nameproxy.bayes import (
    UNKNOWN_FIRSTNAME,
    UNKNOWN_GEO,
    UNKNOWN_SURNAME,
    ZERO_MASS,
    BayesContext,
    bifsg,
    bifsg_reason,
    bisg,
    bisg_reason,
    geo_augment,
    geo_augment_reason,
    geo_augment_scores,
)
from nameproxy.core import RaceSet, Scores
from nameproxy.errors import NameproxyError
from nameproxy.tables import FIRSTNAME, SURNAME

from conftest import Row, geo_table, is_prob_vector, name_table, people_of

RACES = RaceSet()


def make_ctx(
    surname_counts,
    geo_counts,
    geo_totals,
    firstname_counts=None,
    firstname_totals=(100, 100, 100, 100),
):
    surname_table = name_table(
        kind=SURNAME,
        races=RACES,
        entries={name: np.array(c, dtype=np.int64) for name, c in surname_counts.items()},
        race_totals=np.array([1000, 1000, 1000, 1000]),
    )
    geo = geo_table(
        races=RACES,
        entries={geo: np.array(c, dtype=np.int64) for geo, c in geo_counts.items()},
        race_totals=np.array(geo_totals, dtype=np.int64),
    )
    firstname_table = None
    if firstname_counts is not None:
        firstname_table = name_table(
            kind=FIRSTNAME,
            races=RACES,
            entries={name: np.array(c, dtype=np.int64) for name, c in firstname_counts.items()},
            race_totals=np.array(firstname_totals, dtype=np.int64),
        )
    return BayesContext(surname_table, geo, firstname_table)


class TestBisg:
    def test_hand_arithmetic(self):
        # prior (0.1, 0.2, 0.3, 0.4) times geo likelihood (0.5, 0.25, 0.2, 0.05)
        # gives numerator (0.05, 0.05, 0.06, 0.02), sum 0.18
        ctx = make_ctx(
            {"lopez": (1, 2, 3, 4)},
            {"11111": (50, 25, 20, 5)},
            geo_totals=(100, 100, 100, 100),
        )
        out = bisg(ctx, "lopez", "11111")
        np.testing.assert_allclose(out, [0.2778, 0.2778, 0.3333, 0.1111], atol=1e-3)
        # independent recomputation of the same posterior
        numer = np.array([0.1, 0.2, 0.3, 0.4]) * np.array([0.5, 0.25, 0.2, 0.05])
        np.testing.assert_allclose(out, numer / numer.sum(), atol=1e-15)

    def test_one_hot_prior_stays_one_hot(self):
        ctx = make_ctx(
            {"washington": (0, 40, 0, 0)},
            {"22222": (10, 10, 10, 10)},
            geo_totals=(100, 100, 100, 100),
        )
        np.testing.assert_allclose(bisg(ctx, "washington", "22222"), [0, 1, 0, 0])

    def test_unknown_surname_declines(self):
        ctx = make_ctx({"lopez": (1, 2, 3, 4)}, {"11111": (1, 1, 1, 1)}, (10, 10, 10, 10))
        probs, reason = bisg_reason(ctx, "ghost", "11111")
        assert probs is None and reason == UNKNOWN_SURNAME

    def test_unknown_geo_declines(self):
        ctx = make_ctx({"lopez": (1, 2, 3, 4)}, {"11111": (1, 1, 1, 1)}, (10, 10, 10, 10))
        probs, reason = bisg_reason(ctx, "lopez", "99999")
        assert probs is None and reason == UNKNOWN_GEO

    def test_zero_mass_declines(self):
        # surname mass only on races with zero geography likelihood
        ctx = make_ctx(
            {"lopez": (5, 5, 0, 0)},
            {"11111": (0, 0, 3, 3)},
            geo_totals=(10, 10, 10, 10),
        )
        probs, reason = bisg_reason(ctx, "lopez", "11111")
        assert probs is None and reason == ZERO_MASS

    def test_surname_raw_input_is_table_normalized(self):
        ctx = make_ctx(
            {"oneil": (0, 0, 0, 40)},
            {"11111": (1, 1, 1, 1)},
            geo_totals=(10, 10, 10, 10),
        )
        np.testing.assert_allclose(bisg(ctx, "O'Neil JR", "11111"), [0, 0, 0, 1])


class TestBifsg:
    def test_hand_arithmetic(self):
        # prior (0.5, 0.5, 0, 0), first-name likelihood (0.2, 0.1, 0.3, 0.3),
        # geo likelihood (0.1, 0.1, 0.1, 0.1): numerators 0.01 vs 0.005
        ctx = make_ctx(
            {"miller": (1, 1, 0, 0)},
            {"33333": (10, 10, 10, 10)},
            geo_totals=(100, 100, 100, 100),
            firstname_counts={"dawn": (20, 10, 30, 30)},
        )
        out = bifsg(ctx, "dawn", "miller", "33333")
        np.testing.assert_allclose(out, [2 / 3, 1 / 3, 0, 0], atol=1e-12)

    def test_constant_firstname_factor_equals_bisg(self):
        ctx = make_ctx(
            {"garcia": (2, 1, 6, 1)},
            {"44444": (5, 10, 70, 15)},
            geo_totals=(100, 100, 100, 100),
            firstname_counts={"alex": (100, 100, 100, 100)},  # likelihood = all ones
        )
        via_bifsg = bifsg(ctx, "alex", "garcia", "44444")
        via_bisg = bisg(ctx, "garcia", "44444")
        np.testing.assert_allclose(via_bifsg, via_bisg, atol=1e-12)

    def test_unknown_firstname_declines_despite_known_surname_geo(self):
        ctx = make_ctx(
            {"garcia": (2, 1, 6, 1)},
            {"44444": (5, 10, 70, 15)},
            geo_totals=(100, 100, 100, 100),
            firstname_counts={"alex": (10, 10, 10, 10)},
        )
        probs, reason = bifsg_reason(ctx, "zanzibar", "garcia", "44444")
        assert probs is None and reason == UNKNOWN_FIRSTNAME
        assert bisg(ctx, "garcia", "44444") is not None

    def test_missing_firstname_table_raises(self):
        ctx = make_ctx({"garcia": (1, 1, 1, 1)}, {"44444": (1, 1, 1, 1)}, (10, 10, 10, 10))
        with pytest.raises(NameproxyError, match="bifsg needs a first-name table"):
            bifsg(ctx, "alex", "garcia", "44444")


class TestGeoAugment:
    def test_uniform_geography_is_neutral(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = rng.random(4)
            p = p / p.sum()
            out = geo_augment(p, np.full(4, 0.37), RACES)
            np.testing.assert_allclose(out, p, atol=1e-12)

    def test_uniform_prior_returns_normalized_likelihood(self):
        out = geo_augment([0.25, 0.25, 0.25, 0.25], [0.4, 0.3, 0.2, 0.1], RACES)
        np.testing.assert_allclose(out, [0.4, 0.3, 0.2, 0.1], atol=1e-15)

    def test_one_hot_preserved(self):
        out = geo_augment([0, 0, 1, 0], [0.1, 0.2, 0.3, 0.4], RACES)
        np.testing.assert_allclose(out, [0, 0, 1, 0])

    @pytest.mark.parametrize("entries", [1, 3])
    def test_likelihood_of_the_wrong_width_rejected(self, entries):
        with pytest.raises(ValueError, match=f"has {entries} entries .* for 4 name"):
            geo_augment([0.25] * 4, np.ones(entries), RACES)
        name = Scores(np.full((2, 4), 0.25), np.zeros(2, dtype=np.int8))
        with pytest.raises(ValueError, match=f"has {entries} entries .* for 4 name"):
            geo_augment_scores(name, np.array([0, -1]), np.ones((1, entries)))

    def test_unknown_geo(self):
        probs, reason = geo_augment_reason([0.25, 0.25, 0.25, 0.25], None, RACES)
        assert probs is None and reason == UNKNOWN_GEO

    def test_zero_mass(self):
        probs, reason = geo_augment_reason([0.5, 0.5, 0, 0], [0, 0, 1, 1], RACES)
        assert probs is None and reason == ZERO_MASS

    def test_scaling_geo_likelihood_is_invariant(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = rng.random(4)
            p = p / p.sum()
            g = rng.random(4)
            a = geo_augment(p, g, RACES)
            b = geo_augment(p, g * 123.456, RACES)
            np.testing.assert_allclose(a, b, atol=1e-12)


class TestOutputsAreProbVectors:
    def test_all_predictors(self):
        rng = np.random.default_rng(8)
        ctx = make_ctx(
            {"sur": tuple(int(x) for x in rng.integers(1, 50, 4))},
            {"g1": tuple(int(x) for x in rng.integers(1, 50, 4))},
            geo_totals=(100, 100, 100, 100),
            firstname_counts={"fn": tuple(int(x) for x in rng.integers(1, 50, 4))},
        )
        for out in (
            bisg(ctx, "sur", "g1"),
            bifsg(ctx, "fn", "sur", "g1"),
            geo_augment([0.3, 0.3, 0.2, 0.2], ctx.geo_table.geo_likelihood("g1"), RACES),
        ):
            assert is_prob_vector(out, 4)


class TestSyntheticPopulationOracle:
    """With exact tables and conditional independence, the posterior must
    equal the enumerated conditional distribution."""

    def test_bisg_matches_enumeration(self):
        from nameproxy import tables
        from nameproxy.tables import build_geo_table, build_name_table

        rng = np.random.default_rng(99)
        # letter-only names: table normalization deletes digits
        surnames = [f"fam{chr(ord('a') + i)}" for i in range(12)]
        geos = [f"{g:05d}" for g in range(6)]
        # per-race multiplicative design: count(s, g, r) = u[s, r] * v[g, r]
        u = rng.integers(0, 5, size=(len(surnames), 4))
        v = rng.integers(0, 3, size=(len(geos), 4))
        records = []
        for si, s in enumerate(surnames):
            for gi, g in enumerate(geos):
                for ri, race in enumerate(RACES):
                    records.extend(
                        [Row("anna", s, g, race)] * int(u[si, ri] * v[gi, ri])
                    )
        people = people_of(records)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tables, "MIN_TOTAL", 0)
            surname_table = build_name_table(people, SURNAME)
        geo_table = build_geo_table(people)
        ctx = BayesContext(surname_table, geo_table)

        # brute-force enumeration oracle
        joint: dict[tuple[str, str], np.ndarray] = {}
        for rec in records:
            key = (rec.last, rec.geo)
            joint.setdefault(key, np.zeros(4))[RACES.index(rec.race)] += 1
        for (s, g), counts in joint.items():
            out = bisg(ctx, s, g)
            if counts.sum() == 0:
                continue
            assert out is not None, (s, g)
            np.testing.assert_allclose(out, counts / counts.sum(), atol=1e-9)
