"""Core type contracts: probability vectors, normalization, the Max rule."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nameproxy.cli import write_predictions_csv
from nameproxy.core import DEFAULT_RACES, RaceSet, Scores, renormalize_rows
from nameproxy.errors import NameproxyError

from conftest import is_prob_vector

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


def one_row(raw) -> np.ndarray:
    """:func:`renormalize_rows` of a single row."""
    return renormalize_rows(np.asarray(raw, dtype=np.float64)[None, :])[0]


def max_race(rows, path) -> list[str]:
    """The ``max_race`` column a predictions file holds for covered ``rows``."""
    probs = np.array(rows, dtype=np.float64)
    write_predictions_csv({"m": Scores(probs, np.zeros(len(probs), dtype=np.int8))}, RACES, path)
    with open(path, newline="", encoding="utf-8") as fh:
        return [row["max_race"] for row in csv.DictReader(fh)]


class TestArgmaxRace:
    """The Max rule, as the ``max_race`` column of a predictions file:
    ties break toward the lowest index."""

    def test_unique_maximum(self, tmp_path):
        assert max_race([[0.1, 0.5, 0.2, 0.2]], tmp_path / "p.csv") == ["black"]

    def test_four_way_tie_takes_first_index(self, tmp_path):
        assert max_race([[0.25, 0.25, 0.25, 0.25]], tmp_path / "p.csv") == ["asian"]

    def test_one_hot(self, tmp_path):
        assert max_race([[0.0, 0.0, 0.0, 1.0]], tmp_path / "p.csv") == ["white"]

    def test_scale_invariance(self, tmp_path):
        """Multiplying by any positive constant then renormalizing keeps the argmax."""
        rng = np.random.default_rng(7)
        plain, scaled = [], []
        for _ in range(500):
            raw = rng.random(4)
            scale = float(rng.choice([1e-9, 0.5, 3.0, 1e9]))
            plain.append(one_row(raw))
            scaled.append(one_row(raw * scale))
        assert max_race(plain, tmp_path / "a.csv") == max_race(scaled, tmp_path / "b.csv")


class TestRenormalize:
    def test_hand_arithmetic(self):
        # sum = 0.18; each entry divided by it
        out = one_row([0.05, 0.05, 0.06, 0.02])
        np.testing.assert_allclose(out, [0.2778, 0.2778, 0.3333, 0.1111], atol=1e-3)

    def test_one_hot_already_normalized(self):
        np.testing.assert_array_equal(one_row([1.0, 0.0, 0.0, 0.0]), [1, 0, 0, 0])

    def test_zero_mass(self):
        with pytest.raises(NameproxyError, match="cannot normalize a vector of zeros"):
            one_row([0.0, 0.0, 0.0, 0.0])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            one_row([0.5, -0.1, 0.6])

    def test_output_is_prob_vector(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            out = one_row(rng.random(4) * 1e6)
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
        once = one_row(raw)
        twice = one_row(once)
        assert np.array_equal(once, twice)


def test_default_race_constant_matches_race_set():
    assert RaceSet().labels == DEFAULT_RACES
