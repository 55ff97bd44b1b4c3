"""Equal-weight ensemble over partially-covering members."""

import numpy as np
import pytest

from nameproxy.core import is_prob_vector
from nameproxy.ensemble import (
    DEFAULT_MEMBERS,
    MEMBER_MODELS,
    EnsembleSpec,
    ensemble_predict,
    resolve_model,
)

SPEC2 = EnsembleSpec(members=("a", "b"))
SPEC3 = EnsembleSpec(members=("a", "b", "c"))


class TestEnsembleSpec:
    def test_defaults(self):
        spec = EnsembleSpec()
        assert spec.members == DEFAULT_MEMBERS
        assert spec.weights == (1.0, 1.0, 1.0)

    def test_rejects_empty_and_bad_weights(self):
        with pytest.raises(ValueError):
            EnsembleSpec(members=())
        with pytest.raises(ValueError):
            EnsembleSpec(members=("a",), weights=(0.0,))
        with pytest.raises(ValueError):
            EnsembleSpec(members=("a", "b"), weights=(1.0,))
        for weight in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="weights must be finite and positive"):
                EnsembleSpec(members=("a", "b"), weights=(weight, 1.0))


def test_resolve_model_maps_aliases_and_keeps_models():
    assert [resolve_model(m) for m in MEMBER_MODELS] == list(MEMBER_MODELS)
    assert resolve_model("ibisg") == "bisg" and resolve_model("ibifsg") == "bifsg"


class TestEnsemblePredict:
    def test_arithmetic_mean(self):
        out = ensemble_predict(
            [np.array([0.6, 0.2, 0.1, 0.1]), np.array([0.2, 0.6, 0.1, 0.1])], SPEC2
        )
        np.testing.assert_allclose(out, [0.4, 0.4, 0.1, 0.1], atol=1e-15)

    def test_single_present_member_passes_through(self):
        member = np.array([0.7, 0.1, 0.1, 0.1])
        out = ensemble_predict([None, member, None], SPEC3)
        np.testing.assert_allclose(out, member, atol=1e-15)

    def test_all_declined(self):
        assert ensemble_predict([None, None, None], SPEC3) is None

    def test_identical_members_exact(self):
        member = np.array([0.25, 0.3, 0.25, 0.2])
        out = ensemble_predict([member, member, member], SPEC3)
        np.testing.assert_array_equal(out, member)

    def test_member_permutation_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            vecs = [rng.random(4) for _ in range(3)]
            vecs = [v / v.sum() for v in vecs]
            weights = tuple(float(w) for w in rng.random(3) + 0.1)
            perm = rng.permutation(3)
            a = ensemble_predict(vecs, EnsembleSpec(("a", "b", "c"), weights))
            b = ensemble_predict(
                [vecs[i] for i in perm],
                EnsembleSpec(tuple("abc"[i] for i in perm), tuple(weights[i] for i in perm)),
            )
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_weighted_average(self):
        out = ensemble_predict(
            [np.array([1.0, 0, 0, 0]), np.array([0, 1.0, 0, 0])],
            EnsembleSpec(("a", "b"), weights=(3.0, 1.0)),
        )
        np.testing.assert_allclose(out, [0.75, 0.25, 0, 0], atol=1e-15)

    def test_output_valid_and_coverage_is_union(self):
        rng = np.random.default_rng(5)
        covered = 0
        for _ in range(500):
            preds = []
            for _ in range(3):
                if rng.random() < 0.4:
                    preds.append(None)
                else:
                    v = rng.random(4)
                    preds.append(v / v.sum())
            out = ensemble_predict(preds, SPEC3)
            any_member = any(p is not None for p in preds)
            assert (out is not None) == any_member
            if out is not None:
                covered += 1
                assert is_prob_vector(out, 4)
        assert covered > 0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            ensemble_predict([None], SPEC2)
