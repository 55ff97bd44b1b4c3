"""Core type contracts: probability vectors, normalization, the Max rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nameproxy.core import (
    DEFAULT_RACES,
    RaceSet,
    argmax_race,
    is_prob_vector,
    renormalize,
)
from nameproxy.errors import ZeroMassError

RACES = RaceSet()


class TestRaceSet:
    def test_default_order(self):
        assert RACES.labels == ("asian", "black", "hispanic", "white")
        assert RACES.index("hispanic") == 2

    def test_rejects_empty_and_duplicates(self):
        with pytest.raises(ValueError):
            RaceSet(())
        with pytest.raises(ValueError):
            RaceSet(("white", "white"))

    @pytest.mark.parametrize("label", ["a,b", " a", "a ", "a\rb", "a\nb", ""])
    def test_rejects_label_a_csv_file_cannot_carry(self, label):
        # a comma, a padded label or a line break breaks the header of every
        # saved file; an empty label is the empty (unknown) race cell
        with pytest.raises(ValueError, match="race label"):
            RaceSet((label, "c"))

    def test_configurable_labels(self):
        six = RaceSet(("aian", "api", "black", "hispanic", "white", "multi"))
        assert len(six) == 6
        assert "api" in six


class TestArgmaxRace:
    def test_unique_maximum(self):
        assert argmax_race([0.1, 0.5, 0.2, 0.2], RACES) == "black"

    def test_four_way_tie_takes_first_index(self):
        assert argmax_race([0.25, 0.25, 0.25, 0.25], RACES) == "asian"

    def test_one_hot(self):
        assert argmax_race([0.0, 0.0, 0.0, 1.0], RACES) == "white"

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            argmax_race([0.5, 0.5], RACES)

    def test_scale_invariance(self):
        """Multiplying by any positive constant then renormalizing keeps the argmax."""
        rng = np.random.default_rng(7)
        for _ in range(500):
            raw = rng.random(4)
            scale = float(rng.choice([1e-9, 0.5, 3.0, 1e9]))
            assert argmax_race(renormalize(raw), RACES) == argmax_race(
                renormalize(raw * scale), RACES
            )


class TestRenormalize:
    def test_hand_arithmetic(self):
        # sum = 0.18; each entry divided by it
        out = renormalize([0.05, 0.05, 0.06, 0.02])
        np.testing.assert_allclose(out, [0.2778, 0.2778, 0.3333, 0.1111], atol=1e-3)

    def test_one_hot_already_normalized(self):
        np.testing.assert_array_equal(renormalize([1.0, 0.0, 0.0, 0.0]), [1, 0, 0, 0])

    def test_zero_mass(self):
        with pytest.raises(ZeroMassError):
            renormalize([0.0, 0.0, 0.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            renormalize([0.5, -0.1, 0.6])

    def test_output_is_prob_vector(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            out = renormalize(rng.random(4) * 1e6)
            assert is_prob_vector(out, 4)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
            min_size=1,
            max_size=16,
        ).filter(lambda xs: sum(xs) > 0)
    )
    def test_idempotence_is_exact(self, raw):
        once = renormalize(raw)
        twice = renormalize(once)
        assert np.array_equal(once, twice)


class TestIsProbVector:
    def test_accepts_valid(self):
        assert is_prob_vector([0.25, 0.25, 0.25, 0.25])

    def test_rejects_bad_sum_and_negatives(self):
        assert not is_prob_vector([0.5, 0.6])
        assert not is_prob_vector([1.5, -0.5])
        assert not is_prob_vector([0.5, 0.5], n_races=4)


def test_default_race_constant_matches_race_set():
    assert RaceSet().labels == DEFAULT_RACES
