"""BiLSTM forward/backward contracts, Adam, training loop, persistence."""

import json
import math
import re
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nameproxy import lstm
from nameproxy.core import UNENCODABLE_NAME, RaceSet
from nameproxy.errors import NameproxyError, SchemaError
from nameproxy.lstm import (
    MAGIC,
    AdamState,
    NetworkParams,
    TrainConfig,
    adam_step,
    forward,
    init_params,
    load_params,
    loss_and_gradients,
    predict_proba,
    predict_proba_batch,
    predict_scores,
    prepare_dataset,
    save_params,
    split_and_balance,
    train,
    _forward_pass,
    _layout,
)
from nameproxy.names import WINDOW, encode_columns

from conftest import people_of

RACES = RaceSet()

TINY = dict(embed_dim=4, hidden=3, layers=2, n_classes=4, dropout=0.2)


def tiny_params(seed=0, dropout=0.2):
    return init_params(embed_dim=4, hidden=3, layers=2, n_classes=4, dropout=dropout, seed=seed)


def zero_params(dropout=0.0):
    p = tiny_params(dropout=dropout)
    p.flat[...] = 0.0
    return p


def training_probs(params, codes, dropout_seed):
    """The probabilities of the pass :func:`loss_and_gradients` runs, under
    ``dropout_seed``'s masks: scoring applies no dropout."""
    return np.exp(_forward_pass(params, codes, [], dropout_seed)[0])


def pass_probs(params, codes, dropout_seed):
    """:func:`forward`'s probabilities, or under a ``dropout_seed`` those of
    the training pass."""
    if dropout_seed is None:
        return forward(params, codes)
    return training_probs(params, codes, dropout_seed)


def random_batch(rng, batch, window=WINDOW):
    codes = np.zeros((batch, window), dtype=np.int64)
    for b in range(batch):
        length = int(rng.integers(4, window))
        codes[b, :length] = rng.integers(1, 30, size=length)
    return codes


class TestForward:
    def test_zero_weights_give_uniform(self):
        params = zero_params()
        rng = np.random.default_rng(0)
        probs = forward(params, random_batch(rng, 5))
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    def test_shapes_and_normalization(self):
        params = tiny_params()
        rng = np.random.default_rng(1)
        probs = forward(params, random_batch(rng, 3))
        assert probs.shape == (3, 4)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert (probs >= 0).all()

    def test_eval_ignores_seed_train_does_not(self):
        params = tiny_params()
        rng = np.random.default_rng(2)
        codes = random_batch(rng, 4)
        a = forward(params, codes)
        b = training_probs(params, codes, None)
        np.testing.assert_array_equal(a, b)
        t1 = training_probs(params, codes, 1)
        t2 = training_probs(params, codes, 2)
        assert not np.array_equal(t1, t2)

    def test_train_mode_same_seed_reproduces(self):
        params = tiny_params()
        rng = np.random.default_rng(3)
        codes = random_batch(rng, 4)
        t1 = training_probs(params, codes, 9)
        t2 = training_probs(params, codes, 9)
        np.testing.assert_array_equal(t1, t2)

    def test_rejects_bad_codes(self):
        params = tiny_params()
        message = re.escape("codes must be (batch, steps), got (2, 3, 4)")
        with pytest.raises(NameproxyError, match=message):
            forward(params, np.zeros((2, 3, 4), dtype=np.int64))
        bad = np.zeros((1, WINDOW), dtype=np.int64)
        bad[0, 0] = 30
        with pytest.raises(NameproxyError, match="codes out of vocabulary range"):
            forward(params, bad)

    def test_variable_window_supported(self):
        params = tiny_params()
        probs = forward(params, np.ones((2, 6), dtype=np.int64))
        assert probs.shape == (2, 4)

    def test_window_rule_truncation_equivalence(self):
        params = tiny_params()
        long_first = "a" * 25
        # both names share the first 30 codes
        p1 = predict_proba(params, long_first, "b" * 10)
        p2 = predict_proba(params, long_first, "b" * 4 + "xyz")
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize(
        "embed_dim,hidden,layers,batch,steps",
        [(4, 3, 1, 1, 1), (4, 3, 2, 5, 1), (8, 8, 2, 1, WINDOW), (16, 32, 3, 17, WINDOW)],
    )
    @pytest.mark.parametrize("dropout_seed", [None, 5], ids=["eval", "train"])
    def test_cache_free_matches_cached_bitwise(
        self, embed_dim, hidden, layers, batch, steps, dropout_seed
    ):
        params = init_params(embed_dim=embed_dim, hidden=hidden, layers=layers, seed=11)
        codes = np.random.default_rng(12).integers(0, 30, size=(batch, steps))
        tape = []
        _forward_pass(params, codes, tape, dropout_seed)
        # the recorded pass keeps each layer's mask of the seed, drawn in
        # (batch, steps) order; the last layer's output is not dropped
        masks = [record[1] for record in tape]
        assert len(masks) == layers and masks[-1] is None
        if dropout_seed is None:
            assert all(mask is None for mask in masks)
        else:
            draws = np.random.default_rng(dropout_seed)
            for mask in masks[:-1]:
                drawn = draws.random((batch, steps, 2 * hidden)) < 1.0 - params.dropout
                np.testing.assert_array_equal(mask, drawn.transpose(1, 0, 2))
        # scoring applies no dropout: the recorded pass without one
        cached = np.exp(_forward_pass(params, codes, [])[0])
        np.testing.assert_array_equal(forward(params, codes), cached)

    def test_eval_keeps_no_per_step_cache(self):
        """Eval peak memory stays near one layer's activations, whatever the depth.

        One ``(batch, steps, hidden)`` float64 array is a unit.  Cache-free, a
        layer needs its input and output (2 units each) plus the input
        projection (4 units); the BPTT stores would add 8 units per direction
        per layer and keep them for every layer.
        """
        params = init_params(embed_dim=16, hidden=32, layers=3, seed=0)
        codes = np.random.default_rng(0).integers(0, 30, size=(64, WINDOW))
        unit = 64 * WINDOW * 32 * 8
        forward(params, codes)
        tracemalloc.start()
        try:
            forward(params, codes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12 * unit


class TestLossAndGradients:
    def test_uniform_output_loss_is_ln4(self):
        params = zero_params()
        codes = random_batch(np.random.default_rng(0), 6)
        labels = np.array([0, 1, 2, 3, 0, 1])
        loss, _ = loss_and_gradients(params, codes, labels, dropout_seed=None)
        assert loss == pytest.approx(np.log(4.0), abs=1e-12)

    def test_duplicated_example_contributes_identically(self):
        params = tiny_params()
        rng = np.random.default_rng(4)
        one = random_batch(rng, 1)
        two = np.vstack([one, one])
        loss1, grads1 = loss_and_gradients(params, one, np.array([2]), dropout_seed=None)
        loss2, grads2 = loss_and_gradients(params, two, np.array([2, 2]), dropout_seed=None)
        assert loss1 == pytest.approx(loss2, abs=1e-12)
        np.testing.assert_allclose(grads1, grads2, atol=1e-12)

    def test_rejects_bad_labels(self):
        params = tiny_params()
        codes = random_batch(np.random.default_rng(5), 2)
        with pytest.raises(NameproxyError, match="label outside class range"):
            loss_and_gradients(params, codes, np.array([0, 4]))
        with pytest.raises(NameproxyError, match=re.escape("labels must be (2,), got (1,)")):
            loss_and_gradients(params, codes, np.array([0]))

    @pytest.mark.parametrize("seed", [None, 1234], ids=["eval-0", "train-1234"])
    def test_gradients_match_finite_differences(self, seed):
        """Sampled central-difference check on every parameter group.

        Under dropout the mask is fixed by the seed, so the loss is a
        smooth function of the parameters there too.
        """
        params = tiny_params(seed=7)
        rng = np.random.default_rng(6)
        codes = random_batch(rng, 2, window=WINDOW)
        labels = np.array([1, 3])
        _, grads = loss_and_gradients(params, codes, labels, dropout_seed=seed)
        h = 1e-5
        flat = params.flat
        offset = 0
        for name, shape in _layout(4, 3, 2, 4):
            size = math.prod(shape)
            picks = offset + rng.choice(size, size=min(20, size), replace=False)
            offset += size
            numeric = np.empty(picks.size)
            for k, j in enumerate(picks):
                orig = flat[j]
                flat[j] = orig + h
                lp, _ = loss_and_gradients(params, codes, labels, dropout_seed=seed)
                flat[j] = orig - h
                lm, _ = loss_and_gradients(params, codes, labels, dropout_seed=seed)
                flat[j] = orig
                numeric[k] = (lp - lm) / (2 * h)
            analytic = grads[picks]
            np.testing.assert_allclose(numeric, analytic, rtol=1e-4, atol=1e-7, err_msg=name)
        assert offset == flat.size

    def test_refuses_float32_parameters(self):
        params = tiny_params()
        single = params.like(params.flat.astype(np.float32))
        codes = random_batch(np.random.default_rng(5), 2)
        message = "training needs float64 parameters, got float32"
        for dropout_seed in (None, 0):
            with pytest.raises(NameproxyError, match=message):
                loss_and_gradients(single, codes, np.array([0, 1]), dropout_seed=dropout_seed)

    def test_single_step_decreases_loss_small_lr(self):
        params = tiny_params(seed=11, dropout=0.0)
        codes = random_batch(np.random.default_rng(12), 1)
        labels = np.array([0])
        before, grads = loss_and_gradients(params, codes, labels, dropout_seed=None)
        state = AdamState.for_params(params, lr=1e-4, weight_decay=0.0)
        adam_step(params, grads, state)
        after, _ = loss_and_gradients(params, codes, labels, dropout_seed=None)
        assert after < before


class TestAdam:
    def test_zero_gradient_zero_decay_is_fixed_point(self):
        params = tiny_params(seed=3)
        reference = params.copy()
        state = AdamState.for_params(params, weight_decay=0.0)
        adam_step(params, np.zeros_like(params.flat), state)
        np.testing.assert_array_equal(params.flat, reference.flat)
        assert state.step == 1

    def test_first_step_size_is_lr(self):
        """With g=1 everywhere, the bias-corrected first step is ~lr."""
        params = tiny_params(seed=5)
        reference = params.copy()
        state = AdamState.for_params(params, lr=0.001, weight_decay=0.0)
        adam_step(params, np.ones_like(params.flat), state)
        np.testing.assert_allclose(reference.flat - params.flat, 0.001, rtol=1e-6)

    @pytest.mark.parametrize("decoupled", [False, True])
    def test_weight_decay_shrinks_positive_params(self, decoupled):
        params = tiny_params(seed=9)
        params.flat[...] = np.abs(params.flat) + 0.05
        reference = params.copy()
        state = AdamState.for_params(params, weight_decay=0.004, decoupled=decoupled)
        adam_step(params, np.zeros_like(params.flat), state)
        assert (params.flat < reference.flat).all()

    def test_shape_mismatch(self):
        params = tiny_params()
        grads = np.zeros(params.flat.size + 1)
        message = f"gradient has shape ({grads.size},), parameters ({params.flat.size},)"
        with pytest.raises(NameproxyError, match=re.escape(message)):
            adam_step(params, grads, AdamState.for_params(params))


def synthetic_records(n, seed, letters_per_class=None):
    """Race is a deterministic function of the first letter of the first name."""
    rng = np.random.default_rng(seed)
    groups = letters_per_class or [
        "abcdef",
        "ghijklm",
        "nopqrs",
        "tuvwxyz",
    ]
    records = []
    for _ in range(n):
        cls = int(rng.integers(0, 4))
        letters = groups[cls]
        first = letters[int(rng.integers(len(letters)))] + "".join(
            chr(ord("a") + int(c)) for c in rng.integers(0, 26, size=5)
        )
        last = "".join(chr(ord("a") + int(c)) for c in rng.integers(0, 26, size=6))
        records.append((first, last, "00000", RACES.labels[cls]))
    return people_of(records)


class TestSplitAndBalance:
    def test_exact_arithmetic(self):
        labels = np.repeat([0, 1, 2, 3], [100, 200, 300, 400])
        rng = np.random.default_rng(0)
        train_idx, val_idx = split_and_balance(labels, 4, 0.8, rng)
        # 80% of the smallest class is 80; every class is undersampled to it
        assert train_idx.size == 4 * 80
        counts = np.bincount(labels[train_idx], minlength=4)
        np.testing.assert_array_equal(counts, [80, 80, 80, 80])
        assert val_idx.size == 20 + 40 + 60 + 80
        assert np.intersect1d(train_idx, val_idx).size == 0

    def test_insufficient_class(self):
        labels = np.array([0, 0, 1, 1, 2, 2, 3])
        with pytest.raises(NameproxyError, match="class 3 has 1 usable records; need at least 2"):
            split_and_balance(labels, 4, 0.8, np.random.default_rng(0))


class TestPrepareDataset:
    def test_drops_invalid_and_encodes(self):
        people = people_of([
            ("Jo", "Li", "0", "asian"),
            ("J", "Smith", "0", "white"),  # one-char first
            ("123", "...", "0", "black"),  # empty after normalization
            ("Ana", "Cruz", "0", "hispanic"),
        ])
        codes, labels = prepare_dataset(people)
        assert codes.shape == (2, WINDOW)
        assert labels.tolist() == [0, 2]


class TestTrain:
    def test_learns_separable_task_quickly(self):
        # weight decay off: at a few dozen optimizer steps the decay pull
        # would dominate the still-small data gradients
        records = synthetic_records(800, seed=21)
        cfg = TrainConfig(
            seed=5, epochs=6, batch_size=64, embed_dim=16, hidden=24, layers=2,
            lr=0.01, weight_decay=0.0,
        )
        params, log = train(records, cfg)
        assert len(log) == 6
        assert log[-1].val_accuracy >= 0.9
        # returned params correspond to the best epoch
        assert max(row.val_accuracy for row in log) == pytest.approx(
            max(log, key=lambda r: r.val_accuracy).val_accuracy
        )

    def test_same_seed_bit_identical(self):
        records = synthetic_records(300, seed=8)
        cfg = TrainConfig(seed=13, epochs=2, batch_size=32, embed_dim=8, hidden=8, layers=2)
        p1, log1 = train(records, cfg)
        p2, log2 = train(records, cfg)
        assert log1 == log2
        np.testing.assert_array_equal(p1.flat, p2.flat)

    def test_insufficient_class(self):
        records = people_of([("aa", "bb", "0", "white")] * 50)
        with pytest.raises(NameproxyError, match="class 0 has 0 usable records; need at least 2"):
            train(records, TrainConfig(seed=0, epochs=1, embed_dim=4, hidden=4, layers=1))

    @pytest.mark.parametrize("dropout", [7.5, -0.1, 1.0])
    def test_config_rejects_dropout_outside_unit_interval(self, dropout):
        with pytest.raises(ValueError, match="dropout"):
            TrainConfig(dropout=dropout)

    def test_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainConfig(seed=-1)
        assert TrainConfig(seed=0).seed == 0


class TestPredictProba:
    def test_valid_vector_for_any_name(self):
        params = tiny_params()
        probs = predict_proba(params, "O'Connor-Lee", "D'Angelo")
        assert probs.shape == (4,)
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)

    def test_zero_params_uniform(self):
        probs = predict_proba(zero_params(), "jane", "doe")
        np.testing.assert_allclose(probs, 0.25, atol=1e-15)

    @pytest.mark.parametrize("first,last", [("!!", ".."), ("jane", "123"), ("", "doe")])
    def test_declines_name_that_normalizes_to_nothing(self, first, last):
        assert predict_proba(tiny_params(), first, last) is None

    # raw names, some with nothing left after normalization
    NAMES = st.one_of(
        st.sampled_from(["!!", "42", ""]),
        st.text(alphabet=st.sampled_from(list("abzAZ '-.!9")), max_size=35),
    )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(NAMES, NAMES), min_size=1, max_size=8))
    def test_is_one_row_of_predict_scores(self, pairs):
        params = tiny_params()
        scores = predict_scores(params, [f for f, _ in pairs], [l for _, l in pairs])
        for i, (first, last) in enumerate(pairs):
            probs, reason = scores.row(i)
            one = predict_proba(params, first, last)
            if reason is None:
                # a BLAS product's last bits depend on how many rows it
                # multiplies, so a one-row call matches the batch row to
                # rounding, not bit for bit
                np.testing.assert_allclose(one, probs, rtol=1e-12, atol=1e-15, err_msg=str(i))
            else:
                assert reason == UNENCODABLE_NAME and one is None, i


class TestPredictProbaBatch:
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_rejects_batch_size_below_one(self, batch_size):
        codes = random_batch(np.random.default_rng(6), 3)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            predict_proba_batch(tiny_params(), codes, batch_size)

    @pytest.mark.parametrize("concurrent", [False, True])
    def test_uint8_codes_score_as_int64_without_a_wide_copy(self, monkeypatch, concurrent):
        monkeypatch.setattr(lstm, "_AT_ONCE", concurrent)
        params = init_params(embed_dim=8, hidden=8, layers=3, seed=15)
        wide = random_batch(np.random.default_rng(16), 300)
        narrow = wide.astype(np.uint8)
        expected = predict_proba_batch(params, wide)
        blocks = []

        def recording(params, codes):
            blocks.append(codes)
            return forward(params, codes)

        monkeypatch.setattr(lstm, "forward", recording)
        probs = predict_proba_batch(params, narrow)
        assert np.array_equal(probs, expected)
        # each block is a view of the caller's codes: forward widens it alone
        assert [block.shape[0] for block in blocks] == [256, 44]
        assert all(np.shares_memory(block, narrow) for block in blocks)

    def test_scores_run_in_256_row_blocks_in_input_order(self, monkeypatch):
        params = init_params(embed_dim=8, hidden=8, layers=3, seed=13)
        rng = np.random.default_rng(14)
        letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
        firsts = ["".join(rng.choice(letters, size=rng.integers(2, 12))) for _ in range(600)]
        lasts = ["".join(rng.choice(letters, size=rng.integers(2, 16))) for _ in range(600)]
        for i in (0, 300, 599):  # unencodable rows leave the blocks
            lasts[i] = "!!"
        codes, encodable = encode_columns(firsts, lasts)
        blocks = [codes[start : start + 256] for start in range(0, codes.shape[0], 256)]
        expected = np.concatenate([forward(params, block) for block in blocks])
        rows = []

        def counting(params, codes, **kwargs):
            rows.append(codes.shape[0])
            return forward(params, codes, **kwargs)

        monkeypatch.setattr(lstm, "forward", counting)
        probs = predict_scores(params, firsts, lasts).probs
        assert rows == [256, 256, 85]
        assert np.array_equal(probs[encodable], expected)
        assert not probs[~encodable].any()


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = tiny_params(seed=31)
        path = tmp_path / "params.bin"
        save_params(params, path)
        loaded = load_params(path)
        np.testing.assert_array_equal(loaded.flat, params.flat)
        np.testing.assert_array_equal(loaded.layers[1][1].w_rec, params.layers[1][1].w_rec)
        assert loaded.dropout == params.dropout

    @settings(max_examples=40, deadline=None)
    @given(
        embed_dim=st.integers(1, 6),
        hidden=st.integers(1, 5),
        layers=st.integers(1, 3),
        n_classes=st.integers(2, 5),
        dropout=st.floats(0.0, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_property(self, embed_dim, hidden, layers, n_classes, dropout, seed):
        params = init_params(embed_dim, hidden, layers, n_classes, dropout, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "params.bin"
            save_params(params, path)
            blob = path.read_bytes()
            loaded = load_params(path)
            save_params(loaded, path)
            assert path.read_bytes() == blob
        assert (loaded.embed_dim, loaded.hidden, loaded.n_layers, loaded.n_classes) == (
            embed_dim, hidden, layers, n_classes,
        )
        assert loaded.dropout == dropout
        np.testing.assert_array_equal(loaded.flat, params.flat)

    def test_reads_hand_built_v1_file(self, tmp_path):
        """A file written from the documented format, not by ``save_params``."""
        rng = np.random.default_rng(8)
        embed, hidden, classes = 3, 2, 4
        arrays = [("embedding", rng.normal(size=(30, embed)))]
        for l in range(2):
            in_dim = embed if l == 0 else 2 * hidden
            for tag in ("fwd", "bwd"):
                arrays += [
                    (f"layer{l}.{tag}.w_in", rng.normal(size=(in_dim, 4 * hidden))),
                    (f"layer{l}.{tag}.w_rec", rng.normal(size=(hidden, 4 * hidden))),
                    (f"layer{l}.{tag}.bias", rng.normal(size=4 * hidden)),
                ]
        arrays += [
            ("dense_w", rng.normal(size=(2 * hidden, classes))),
            ("dense_b", rng.normal(size=classes)),
        ]
        header = {
            "format_version": 1,
            "embed_dim": embed,
            "hidden": hidden,
            "layers": 2,
            "n_classes": classes,
            "dropout": 0.25,
            "arrays": [[name, list(arr.shape)] for name, arr in arrays],
        }
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        data = b"".join(arr.astype("<f8").tobytes() for _, arr in arrays)
        path = tmp_path / "hand.bin"
        path.write_bytes(b"NPRX" + struct.pack("<II", 1, len(blob)) + blob + data)

        params = load_params(path)
        assert params.dropout == 0.25
        np.testing.assert_array_equal(params.embedding, arrays[0][1])
        np.testing.assert_array_equal(params.layers[1][0].w_rec, arrays[8][1])
        np.testing.assert_array_equal(params.dense_b, arrays[-1][1])
        resaved = tmp_path / "resaved.bin"
        save_params(params, resaved)
        assert resaved.read_bytes() == path.read_bytes()

    def test_save_is_byte_deterministic(self, tmp_path):
        params = tiny_params(seed=31)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_params(params, p1)
        save_params(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file(self, tmp_path):
        params = tiny_params()
        path = tmp_path / "params.bin"
        save_params(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 17])
        message = f"^{re.escape(str(path))}: header implies .* file has "
        with pytest.raises(SchemaError, match=message):
            load_params(path)

    def test_trailing_garbage(self, tmp_path):
        params = tiny_params()
        path = tmp_path / "params.bin"
        save_params(params, path)
        path.write_bytes(path.read_bytes() + b"junk")
        message = f"^{re.escape(str(path))}: header implies .* file has "
        with pytest.raises(SchemaError, match=message):
            load_params(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "params.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        message = f"^{re.escape(str(path))}: not a parameter container$"
        with pytest.raises(SchemaError, match=message):
            load_params(path)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda h: h["arrays"][0].__setitem__(1, [2**32, 2**32]),
            lambda h: h["arrays"][0].__setitem__(1, [1.5]),
            lambda h: h["arrays"][0].__setitem__(1, [-1]),
            lambda h: h["arrays"][0].__setitem__(1, [True]),
            lambda h: h["arrays"][0].__setitem__(1, "4"),
            lambda h: h["arrays"].append(["extra"]),
            lambda h: h.__setitem__("arrays", 5),
            lambda h: h.pop("arrays"),
            lambda h: h.pop("layers"),
            lambda h: h.pop("dropout"),
            lambda h: h.pop("hidden"),
            lambda h: h.__setitem__("layers", 2.0),
            lambda h: h.__setitem__("dropout", "0.2"),
            lambda h: h.clear(),
            lambda h: h.__setitem__("dropout", 7.5),
            lambda h: h.__setitem__("dropout", -0.1),
            lambda h: h.__setitem__("dropout", 1.0),
        ],
        ids=[
            "shape_overflows_int64", "float_dim", "negative_dim", "bool_dim",
            "shape_not_list", "entry_without_shape", "arrays_not_list",
            "no_arrays", "no_layers", "no_dropout", "no_hidden", "float_layers",
            "string_dropout", "no_fields", "dropout_7.5", "dropout_negative",
            "dropout_one",
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, corrupt):
        path = tmp_path / "params.bin"
        save_params(tiny_params(), path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack_from("<I", blob, len(MAGIC) + 4)
        start = len(MAGIC) + 8
        header = json.loads(blob[start : start + header_len])
        corrupt(header)
        new_header = json.dumps(header).encode("utf-8")
        path.write_bytes(
            MAGIC
            + struct.pack("<II", 1, len(new_header))
            + new_header
            + blob[start + header_len :]
        )
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: header "):
            load_params(path)

    def test_header_length_past_end_of_file(self, tmp_path):
        path = tmp_path / "params.bin"
        path.write_bytes(MAGIC + struct.pack("<II", 1, 2**32 - 1) + b"{}")
        with pytest.raises(SchemaError, match="header runs past the end of the file"):
            load_params(path)

    def test_load_holds_one_copy_of_the_parameters(self, tmp_path):
        params = init_params(embed_dim=64, hidden=128, layers=2, n_classes=4, seed=0)
        path = tmp_path / "params.bin"
        save_params(params, path)
        load_params(path)
        tracemalloc.start()
        try:
            loaded = load_params(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.flat, params.flat)
        assert peak < 1.25 * params.flat.nbytes

    def test_header_not_an_object(self, tmp_path):
        path = tmp_path / "params.bin"
        path.write_bytes(MAGIC + struct.pack("<II", 1, 2) + b"[]")
        message = f"^{re.escape(str(path))}: header is not a JSON object$"
        with pytest.raises(SchemaError, match=message):
            load_params(path)

    def test_hidden_metadata_honored(self, tmp_path):
        params = init_params(embed_dim=4, hidden=8, layers=1, n_classes=4, seed=0)
        path = tmp_path / "params.bin"
        save_params(params, path)
        assert load_params(path).hidden == 8


class TestValidate:
    def test_rejects_flat_of_wrong_size_or_dtype(self):
        size = tiny_params().flat.size
        for flat in (np.zeros(size - 1), np.zeros(size + 1), np.zeros(size, dtype=np.float16)):
            message = f"flat must be a contiguous float64 or float32 vector of {size} entries"
            with pytest.raises(NameproxyError, match=message):
                NetworkParams(4, 3, 2, 4, flat=flat)
        NetworkParams(4, 3, 2, 4, flat=np.zeros(size))

    def test_float32_flat_scores_in_float32(self, monkeypatch):
        params = tiny_params(seed=3)
        single = params.like(params.flat.astype(np.float32))
        assert single.dense_w.dtype == np.float32
        seen = []
        original = lstm._run_direction

        def recording(direction, x, reverse, out, acts, cells, scratch):
            seen.append({a.dtype for a in (direction.w_in, x, out, acts, cells, *scratch)})
            return original(direction, x, reverse, out, acts, cells, scratch)

        monkeypatch.setattr(lstm, "_run_direction", recording)
        codes = random_batch(np.random.default_rng(4), 9)
        probs = forward(single, codes)
        # the layers in float32, the head and the softmax in float64
        assert seen and all(dtypes == {np.dtype(np.float32)} for dtypes in seen)
        assert probs.dtype == np.float64
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-15
        assert np.abs(probs - forward(params, codes)).max() <= 1e-6

    def test_catches_non_finite(self):
        params = tiny_params()
        params.dense_w[0, 0] = np.nan
        with pytest.raises(NameproxyError, match="parameters contain non-finite values"):
            params.validate()
