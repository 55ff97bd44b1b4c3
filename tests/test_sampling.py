"""Stratified sampling and largest-remainder quota rounding."""

import numpy as np
import pytest

from nameproxy.core import RaceSet
from nameproxy.errors import InsufficientClassError
from nameproxy.sampling import (
    largest_remainder_quotas,
    max_feasible_sample_size,
    representative_sample_indices,
)

from conftest import people_of

RACES = RaceSet()

# US population shares used throughout: they sum to 0.967, not 1, because the
# four major categories do not cover everyone; quotas renormalize them.
US_SHARES = (0.059, 0.126, 0.189, 0.593)


class TestLargestRemainderQuotas:
    def test_sums_exactly_to_n(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            shares = rng.random(int(rng.integers(2, 8)))
            n = int(rng.integers(0, 10_000))
            assert largest_remainder_quotas(n, shares).sum() == n

    def test_within_one_of_exact_quota(self):
        for n in (1, 13, 200_000):
            quotas = largest_remainder_quotas(n, US_SHARES)
            exact = n * np.array(US_SHARES) / sum(US_SHARES)
            assert (np.abs(quotas - exact) < 1.0).all()

    def test_one_hot_shares(self):
        np.testing.assert_array_equal(
            largest_remainder_quotas(10, (0, 0, 0, 1)), [0, 0, 0, 10]
        )

    def test_ties_break_to_lowest_index(self):
        np.testing.assert_array_equal(
            largest_remainder_quotas(2, (0.25, 0.25, 0.25, 0.25)), [1, 1, 0, 0]
        )

    def test_rejects_bad_shares(self):
        with pytest.raises(ValueError):
            largest_remainder_quotas(10, (0.5, -0.1))
        with pytest.raises(ValueError):
            largest_remainder_quotas(10, (0.0, 0.0))
        with pytest.raises(ValueError, match="sample size must be >= 0, got -1"):
            largest_remainder_quotas(-1, (0.5, 0.5))
        np.testing.assert_array_equal(largest_remainder_quotas(0, (0.5, 0.5)), [0, 0])


def make_pool(counts):
    rows = []
    for race, count in zip(RACES, counts):
        for i in range(count):
            rows.append((f"fn{i}", f"ln{i}", f"{i:05d}", race))
    return people_of(rows)


def sample_races(pool, n, shares, seed):
    """The sampled people's race labels, in sample order."""
    rows = representative_sample_indices(pool.race, n, shares, seed, pool.races)
    return [pool.races.labels[i] for i in pool.race[rows]], rows.tolist()


class TestRepresentativeSample:
    def test_proportions_within_one_over_n(self):
        pool = make_pool((2000, 4000, 6000, 18000))
        n = 10_000
        sample, _ = sample_races(pool, n, US_SHARES, seed=42)
        assert len(sample) == n
        targets = np.array(US_SHARES) / sum(US_SHARES)
        for label, target in zip(RACES, targets):
            got = sum(1 for race in sample if race == label) / n
            assert abs(got - target) < 1.0 / n

    def test_one_hot_shares(self):
        pool = make_pool((5, 5, 5, 20))
        sample, _ = sample_races(pool, 10, (0, 0, 0, 1), seed=1)
        assert len(sample) == 10
        assert all(race == "white" for race in sample)

    def test_quota_exceeding_pool(self):
        pool = make_pool((2, 50, 50, 50))
        with pytest.raises(InsufficientClassError):
            sample_races(pool, 100, (0.25, 0.25, 0.25, 0.25), seed=0)

    def test_deterministic_and_order_preserving(self):
        pool = make_pool((100, 100, 100, 100))
        s1 = sample_races(pool, 50, US_SHARES, seed=9)
        s2 = sample_races(pool, 50, US_SHARES, seed=9)
        assert s1 == s2
        positions = s1[1]
        assert positions == sorted(positions)

    def test_different_seed_differs(self):
        pool = make_pool((100, 100, 100, 100))
        s1 = sample_races(pool, 50, US_SHARES, seed=9)
        s2 = sample_races(pool, 50, US_SHARES, seed=10)
        assert s1 != s2


class TestMaxFeasibleSampleSize:
    def test_matches_brute_force_maximum(self):
        available = np.array([120, 260, 380, 1200])
        n = max_feasible_sample_size(available, US_SHARES)
        true_max = next(
            m
            for m in range(int(available.sum()), -1, -1)
            if (largest_remainder_quotas(m, US_SHARES) <= available).all()
        )
        assert n == true_max

    def test_zero_share_class_ignored(self):
        n = max_feasible_sample_size(np.array([0, 10, 10, 10]), (0, 1, 1, 1))
        assert n == 30
