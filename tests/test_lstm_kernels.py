"""Time-major BiLSTM kernels against a batch-major reference.

The reference below is the straightforward batch-major implementation
the kernels in ``nameproxy.lstm`` replaced: one whole-window input
projection per direction and every per-step gate, state and ``tanh(c)``
stored for BPTT.  The time-major kernels must give bit-identical
probabilities, with and without dropout, and the same loss; gradients may
differ only in the order their GEMMs sum over rows.  With float32 weights
the reference runs its layers in float32 too, and the head in float64, and
the probabilities are again bit-identical.  Running a layer's two
directions, or a block's two row halves, at once or one after the other
must give the same bits at one BLAS thread count; running at once narrows
the BLAS, and sets it back.  The one gate that picks between the schedules
is a pure function of the environment, the core count and whether the
BLAS thread count can be set.
"""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from nameproxy import lstm
from nameproxy.lstm import (
    TrainConfig,
    _parts_at_once,
    forward,
    init_params,
    loss_and_gradients,
    train,
)
from nameproxy.names import WINDOW

from test_lstm import pass_probs, synthetic_records, training_probs


def _ref_sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def _ref_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _ref_run_direction(direction, x, reverse, out):
    batch, steps, in_dim = x.shape
    hidden = direction.w_rec.shape[0]
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    zx = (x.reshape(batch * steps, in_dim) @ direction.w_in).reshape(batch, steps, 4 * hidden)
    zx += direction.bias
    dtype = direction.w_rec.dtype
    h = np.zeros((batch, hidden), dtype)
    c = np.zeros((batch, hidden), dtype)
    gates = np.empty((batch, steps, 4, hidden), dtype)
    c_prev = np.empty((batch, steps, hidden), dtype)
    h_prev = np.empty((batch, steps, hidden), dtype)
    tanh_c = np.empty((batch, steps, hidden), dtype)
    for t in order:
        z = zx[:, t] + h @ direction.w_rec
        i = _ref_sigmoid(z[:, 0 * hidden : 1 * hidden])
        f = _ref_sigmoid(z[:, 1 * hidden : 2 * hidden])
        g = np.tanh(z[:, 2 * hidden : 3 * hidden])
        o = _ref_sigmoid(z[:, 3 * hidden : 4 * hidden])
        c_prev[:, t] = c
        h_prev[:, t] = h
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates[:, t, 0] = i
        gates[:, t, 1] = f
        gates[:, t, 2] = g
        gates[:, t, 3] = o
        tanh_c[:, t] = tc
        out[:, t] = h
    return {"x": x, "gates": gates, "c_prev": c_prev, "h_prev": h_prev,
            "tanh_c": tanh_c, "reverse": reverse}


def _ref_backprop_direction(direction, cache, d_out, grad):
    x = cache["x"]
    gates = cache["gates"]
    batch, steps, _, hidden = gates.shape
    order = range(steps - 1, -1, -1) if cache["reverse"] else range(steps)
    dz = np.empty((batch, steps, 4 * hidden))
    dh_next = np.zeros((batch, hidden))
    dc_next = np.zeros((batch, hidden))
    for t in reversed(list(order)):
        i, f, g, o = (gates[:, t, k] for k in range(4))
        tc = cache["tanh_c"][:, t]
        dh = d_out[:, t] + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        df = dc * cache["c_prev"][:, t]
        di = dc * g
        dg = dc * i
        dc_next = dc * f
        dz_t = dz[:, t]
        dz_t[:, 0 * hidden : 1 * hidden] = di * i * (1.0 - i)
        dz_t[:, 1 * hidden : 2 * hidden] = df * f * (1.0 - f)
        dz_t[:, 2 * hidden : 3 * hidden] = dg * (1.0 - g * g)
        dz_t[:, 3 * hidden : 4 * hidden] = do * o * (1.0 - o)
        dh_next = dz_t @ direction.w_rec.T
    flat_x = x.reshape(batch * steps, -1)
    flat_dz = dz.reshape(batch * steps, -1)
    grad.w_in[...] = flat_x.T @ flat_dz
    grad.w_rec[...] = cache["h_prev"].reshape(batch * steps, hidden).T @ flat_dz
    grad.bias[...] = flat_dz.sum(axis=0)
    return (flat_dz @ direction.w_in.T).reshape(x.shape)


def _ref_forward(params, codes, dropout_seed):
    batch, steps = codes.shape
    hidden = params.hidden
    drop_rng = np.random.default_rng(dropout_seed)
    x = params.embedding[codes]
    layers = []
    for l, (fwd, bwd) in enumerate(params.layers):
        out = np.empty((batch, steps, 2 * hidden), params.flat.dtype)
        cache_f = _ref_run_direction(fwd, x, False, out[:, :, :hidden])
        cache_b = _ref_run_direction(bwd, x, True, out[:, :, hidden:])
        mask = None
        if l < params.n_layers - 1:
            if dropout_seed is not None and params.dropout > 0.0:
                keep = 1.0 - params.dropout
                mask = (drop_rng.random(out.shape) < keep) / keep
                x = out * mask
            else:
                x = out
        layers.append({"fwd": cache_f, "bwd": cache_b, "mask": mask})
    # the layers run in the weights' dtype, the head in float64
    feat = np.concatenate([out[:, -1, :hidden], out[:, 0, hidden:]], axis=1).astype(np.float64)
    log_probs = _ref_log_softmax(
        feat @ params.dense_w.astype(np.float64) + params.dense_b.astype(np.float64)
    )
    return np.exp(log_probs), {"layers": layers, "feat": feat, "log_probs": log_probs}


def _ref_loss_and_gradients(params, codes, labels, dropout_seed):
    probs, cache = _ref_forward(params, codes, dropout_seed)
    batch, steps = codes.shape
    hidden = params.hidden
    loss = float(-cache["log_probs"][np.arange(batch), labels].mean())
    grads = params.like(np.zeros_like(params.flat))
    d_logits = probs.copy()
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch
    grads.dense_w[...] = cache["feat"].T @ d_logits
    grads.dense_b[...] = d_logits.sum(axis=0)
    d_feat = d_logits @ params.dense_w.T
    d_out = np.zeros((batch, steps, 2 * hidden))
    d_out[:, -1, :hidden] = d_feat[:, :hidden]
    d_out[:, 0, hidden:] += d_feat[:, hidden:]
    for l in range(params.n_layers - 1, -1, -1):
        layer = cache["layers"][l]
        (fwd, bwd), (grad_f, grad_b) = params.layers[l], grads.layers[l]
        d_x_f = _ref_backprop_direction(fwd, layer["fwd"], d_out[:, :, :hidden], grad_f)
        d_x_b = _ref_backprop_direction(bwd, layer["bwd"], d_out[:, :, hidden:], grad_b)
        d_input = d_x_f + d_x_b
        if l > 0:
            mask = cache["layers"][l - 1]["mask"]
            d_out = d_input if mask is None else d_input * mask
        else:
            np.add.at(grads.embedding, codes.ravel(), d_input.reshape(-1, params.embed_dim))
    return loss, grads.flat


# (embed_dim, hidden, layers, batch, steps): one step; one name; odd and
# even windows; one and three layers; an embedding wider than the
# 4*hidden gates, whose input gradient fits in no buffer backward frees
DIMS = [
    (4, 3, 1, 1, 1),
    (4, 3, 3, 5, 1),
    (5, 4, 1, 1, 9),
    (6, 5, 3, 3, 3),
    (8, 8, 1, 7, 10),
    (8, 8, 3, 4, 13),
    (16, 32, 3, 17, WINDOW),
    (32, 64, 1, 64, WINDOW),
    (16, 3, 2, 5, WINDOW),
    (16, 3, 3, 4, 13),
]


@pytest.mark.parametrize("embed_dim,hidden,layers,batch,steps", DIMS)
@pytest.mark.parametrize("dropout_seed", [None, 7], ids=["eval", "train"])
def test_matches_batch_major_reference(embed_dim, hidden, layers, batch, steps, dropout_seed):
    params = init_params(embed_dim=embed_dim, hidden=hidden, layers=layers, seed=21)
    rng = np.random.default_rng(22)
    codes = rng.integers(0, 30, size=(batch, steps))
    labels = rng.integers(0, 4, size=batch)
    ref_probs, _ = _ref_forward(params, codes, dropout_seed)
    assert np.array_equal(training_probs(params, codes, dropout_seed), ref_probs)
    assert np.array_equal(forward(params, codes), _ref_forward(params, codes, None)[0])
    ref_loss, ref_grads = _ref_loss_and_gradients(params, codes, labels, dropout_seed)
    loss, grads = loss_and_gradients(params, codes, labels, dropout_seed=dropout_seed)
    assert loss == ref_loss
    # only the row order of the weight-gradient sums differs
    assert np.abs(grads - ref_grads).max() <= 1e-13 * np.abs(ref_grads).max()


@pytest.mark.parametrize("embed_dim,hidden,layers,batch,steps", DIMS)
@pytest.mark.parametrize("at_once", [False, True])
def test_float32_weights_match_the_reference_in_float32(
    embed_dim, hidden, layers, batch, steps, at_once, monkeypatch
):
    params = init_params(embed_dim=embed_dim, hidden=hidden, layers=layers, seed=21)
    single = params.like(params.flat.astype(np.float32))
    codes = np.random.default_rng(22).integers(0, 30, size=(batch, steps))
    ref_probs, _ = _ref_forward(single, codes, None)
    monkeypatch.setattr(lstm, "_AT_ONCE", at_once)
    probs = forward(single, codes)
    assert probs.dtype == np.float64
    assert probs.tobytes() == ref_probs.tobytes()


@pytest.mark.parametrize("at_once", [False, True])
def test_a_float32_row_keeps_its_bits_in_any_block_of_two_rows_or_more(at_once, monkeypatch):
    params = init_params(embed_dim=16, hidden=32, layers=3, seed=30)
    single = params.like(params.flat.astype(np.float32))
    codes = np.random.default_rng(31).integers(0, 30, size=(256, WINDOW))
    monkeypatch.setattr(lstm, "_AT_ONCE", at_once)
    whole = forward(single, codes)
    # blocks of 100 over every row, blocks of 2 over the first 16
    for rows, end in ((100, 256), (2, 16)):
        blocks = [forward(single, codes[start : min(start + rows, end)])
                  for start in range(0, end, rows)]
        assert np.concatenate(blocks).tobytes() == whole[:end].tobytes()


def test_reused_buffers_carry_nothing_between_calls():
    params = init_params(embed_dim=8, hidden=8, layers=3, seed=4)
    before = params.flat.copy()
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 30, size=(22, WINDOW))
    labels = rng.integers(0, 4, size=22)
    first = loss_and_gradients(params, codes[:17], labels[:17], dropout_seed=6)
    loss_and_gradients(params, codes[17:], labels[17:], dropout_seed=6)
    again = loss_and_gradients(params, codes[:17], labels[:17], dropout_seed=6)
    assert first[0] == again[0]
    assert np.array_equal(first[1], again[1])
    assert np.array_equal(params.flat, before)


def in_schedule(monkeypatch, concurrent: bool, fn):
    """``fn()`` with a layer's two directions in training, and a block's two
    row halves in inference, run at once or one after the other.

    One after the other runs at the BLAS thread count that running at once
    narrows the BLAS to, so the two schedules compare at one count: OpenBLAS
    0.3.31 sums a GEMM whose inner dimension is above about 384 (float64) or
    448 (float32), and neither a multiple of 32 nor one below it, in other
    blocks at 1 thread than at 2, so its last bits depend on the count.
    """
    monkeypatch.setattr(lstm, "_AT_ONCE", concurrent)
    if concurrent or lstm._BLAS_THREADS is None:
        return fn()
    get, set_ = lstm._BLAS_THREADS
    threads = get()
    set_(min(threads, max(1, lstm._CORES // 2)))
    try:
        return fn()
    finally:
        set_(threads)


@pytest.mark.parametrize("embed_dim,hidden,layers,batch,steps", DIMS)
@pytest.mark.parametrize("dropout_seed", [None, 8], ids=["eval", "train"])
def test_schedules_give_identical_bits(
    embed_dim, hidden, layers, batch, steps, dropout_seed, monkeypatch
):
    params = init_params(embed_dim=embed_dim, hidden=hidden, layers=layers, seed=23)
    rng = np.random.default_rng(24)
    codes = rng.integers(0, 30, size=(batch, steps))
    labels = rng.integers(0, 4, size=batch)

    def run():
        probs = forward(params, codes)
        recorded = training_probs(params, codes, dropout_seed)
        loss, grads = loss_and_gradients(params, codes, labels, dropout_seed=dropout_seed)
        return probs, recorded, loss, grads

    one_by_one = in_schedule(monkeypatch, False, run)
    at_once = in_schedule(monkeypatch, True, run)
    assert np.array_equal(one_by_one[0], at_once[0])
    assert np.array_equal(one_by_one[1], at_once[1])
    assert one_by_one[2] == at_once[2]
    assert np.array_equal(one_by_one[3], at_once[3])


@pytest.mark.parametrize("batch", [*range(10), 31, 255, 256, 257])
@pytest.mark.parametrize("dropout_seed", [None, 5], ids=["eval", "train"])
def test_row_halves_change_no_bit(batch, dropout_seed, monkeypatch):
    params = init_params(embed_dim=8, hidden=8, layers=3, seed=28)
    codes = np.random.default_rng(29).integers(0, 30, size=(batch, WINDOW))

    def run():
        return pass_probs(params, codes, dropout_seed)

    whole = in_schedule(monkeypatch, False, run)
    halves = in_schedule(monkeypatch, True, run)
    # the pass loss_and_gradients runs, with the same masks
    recorded = training_probs(params, codes, dropout_seed)
    assert whole.tobytes() == halves.tobytes() == recorded.tobytes()


@pytest.mark.parametrize("concurrent", [False, True])
@pytest.mark.parametrize("batch", range(10))
def test_blocks_of_four_rows_or_more_run_in_two_halves(batch, concurrent, monkeypatch):
    halves = []
    original = lstm._run_layers

    def recording(params, codes, *args):
        halves.append(codes.shape[0])
        return original(params, codes, *args)

    monkeypatch.setattr(lstm, "_run_layers", recording)
    monkeypatch.setattr(lstm, "_AT_ONCE", concurrent)
    forward(init_params(embed_dim=4, hidden=3, layers=2, seed=1), np.ones((batch, 5), dtype=np.int64))
    # no one-row half, which would project through gemv
    split = concurrent and batch >= 4
    assert sorted(halves) == ([batch // 2, batch - batch // 2] if split else [batch])


@pytest.mark.parametrize("concurrent", [False, True])
@pytest.mark.parametrize("dropout_seed", [None, 0], ids=["eval", "train"])
def test_empty_batch_gives_no_rows_in_either_schedule(concurrent, dropout_seed, monkeypatch):
    params = init_params(embed_dim=4, hidden=3, layers=3, seed=27)
    codes = np.zeros((0, WINDOW), dtype=np.int64)
    probs = in_schedule(monkeypatch, concurrent, lambda: pass_probs(params, codes, dropout_seed))
    assert probs.shape == (0, 4)


def test_schedules_agree_under_frequent_thread_switches(monkeypatch):
    params = init_params(embed_dim=8, hidden=8, layers=3, seed=25)
    rng = np.random.default_rng(26)
    codes = rng.integers(0, 30, size=(33, WINDOW))
    labels = rng.integers(0, 4, size=33)

    def run():
        return forward(params, codes), *loss_and_gradients(params, codes, labels, dropout_seed=4)

    probs, loss, grads = in_schedule(monkeypatch, False, run)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            again = in_schedule(monkeypatch, True, run)
            assert np.array_equal(again[0], probs)
            assert again[1] == loss and np.array_equal(again[2], grads)
    finally:
        sys.setswitchinterval(interval)


def test_schedules_train_identically(monkeypatch):
    records = synthetic_records(300, seed=9)
    cfg = TrainConfig(seed=14, epochs=2, batch_size=32, embed_dim=8, hidden=8, layers=2)
    params_a, log_a = in_schedule(monkeypatch, False, lambda: train(records, cfg))
    params_b, log_b = in_schedule(monkeypatch, True, lambda: train(records, cfg))
    assert log_a == log_b
    assert np.array_equal(params_a.flat, params_b.flat)


@pytest.fixture
def blas_threads(monkeypatch):
    """The BLAS thread count's reader, with the count set to every usable
    core, so that :func:`lstm._both` narrows it; where the BLAS has no
    setter, a stand-in count that ``_both`` narrows the same way."""
    if lstm._BLAS_THREADS is None:
        count = [lstm._CORES]
        monkeypatch.setattr(lstm, "_BLAS_THREADS", (lambda: count[0], lambda n: count.__setitem__(0, n)))
    get, set_ = lstm._BLAS_THREADS
    before = get()
    set_(lstm._CORES)
    yield get
    set_(before)


@pytest.mark.parametrize("kernel", ["_run_direction", "_backprop_direction"])
def test_worker_exception_reaches_the_caller(kernel, monkeypatch, blas_threads):
    caller = threading.current_thread()
    original = getattr(lstm, kernel)
    workers = []

    def fails_off_the_caller(*args):
        if threading.current_thread() is not caller:
            workers.append(threading.current_thread())
            raise RuntimeError("the worker's direction failed")
        return original(*args)

    monkeypatch.setattr(lstm, kernel, fails_off_the_caller)
    monkeypatch.setattr(lstm, "_AT_ONCE", True)
    params = init_params(embed_dim=4, hidden=3, layers=2, seed=1)
    threads = blas_threads()
    with pytest.raises(RuntimeError, match="worker's direction failed"):
        loss_and_gradients(params, np.ones((2, 5), dtype=np.int64), [0, 1])
    assert len(workers) == 1 and not workers[0].is_alive()
    assert blas_threads() == threads


def test_worker_exception_in_a_row_half_reaches_the_caller(monkeypatch, blas_threads):
    caller = threading.current_thread()
    original = lstm._run_layers
    workers = []

    def fails_off_the_caller(*args):
        if threading.current_thread() is not caller:
            workers.append(threading.current_thread())
            raise RuntimeError("the worker's row half failed")
        return original(*args)

    monkeypatch.setattr(lstm, "_run_layers", fails_off_the_caller)
    monkeypatch.setattr(lstm, "_AT_ONCE", True)
    params = init_params(embed_dim=4, hidden=3, layers=2, seed=1)
    threads = blas_threads()
    with pytest.raises(RuntimeError, match="worker's row half failed"):
        forward(params, np.ones((4, 5), dtype=np.int64))
    assert len(workers) == 1 and not workers[0].is_alive()
    assert blas_threads() == threads


def test_caller_joins_the_worker_before_raising(monkeypatch, blas_threads):
    caller = threading.current_thread()
    finished = threading.Event()

    def slow_worker_failing_caller(*args):
        if threading.current_thread() is caller:
            raise RuntimeError("the caller's direction failed")
        time.sleep(0.2)
        finished.set()

    monkeypatch.setattr(lstm, "_run_direction", slow_worker_failing_caller)
    monkeypatch.setattr(lstm, "_AT_ONCE", True)
    threads, active = blas_threads(), threading.active_count()
    params = init_params(embed_dim=4, hidden=3, layers=1, seed=1)
    # 4 rows: the second row half runs on the worker
    with pytest.raises(RuntimeError, match="caller's direction failed"):
        forward(params, np.ones((4, 5), dtype=np.int64))
    assert finished.is_set()
    assert threading.active_count() == active
    assert blas_threads() == threads


def test_both_narrows_the_blas_while_its_calls_run(monkeypatch, blas_threads):
    seen = []
    original = lstm._run_direction

    def recording(*args):
        seen.append(blas_threads())
        return original(*args)

    monkeypatch.setattr(lstm, "_run_direction", recording)
    monkeypatch.setattr(lstm, "_AT_ONCE", True)
    params = init_params(embed_dim=4, hidden=3, layers=2, seed=1)
    rng = np.random.default_rng(2)
    codes, labels = rng.integers(0, 30, size=(9, WINDOW)), rng.integers(0, 4, size=9)
    threads = blas_threads()
    forward(params, codes)
    assert blas_threads() == threads
    loss_and_gradients(params, codes, labels)
    assert blas_threads() == threads
    # two layers of two directions in each row half, then in training
    assert seen == [max(1, lstm._CORES // 2)] * 12


@pytest.mark.parametrize("at_once", [False, True])
def test_each_schedule_reads_its_own_gate(at_once, monkeypatch):
    caller = threading.current_thread()
    off_the_caller = []
    for kernel in ("_run_direction", "_backprop_direction", "_run_layers"):
        def recording(*args, original=getattr(lstm, kernel), kernel=kernel):
            if threading.current_thread() is not caller:
                off_the_caller.append(kernel)
            return original(*args)

        monkeypatch.setattr(lstm, kernel, recording)
    monkeypatch.setattr(lstm, "_AT_ONCE", at_once)
    params = init_params(embed_dim=4, hidden=3, layers=2, seed=1)
    codes = np.ones((6, 5), dtype=np.int64)
    forward(params, codes)
    # the second row half: two layers of two directions, in turn
    assert off_the_caller == (["_run_layers"] + ["_run_direction"] * 4 if at_once else [])
    off_the_caller.clear()
    loss_and_gradients(params, codes, [0, 1, 2, 3, 0, 1])
    # two layers, each with a backward direction in the pass and in BPTT
    assert off_the_caller == (["_run_direction"] * 2 + ["_backprop_direction"] * 2
                              if at_once else [])


# (environ, cores, parts at once without a BLAS thread setter, with one)
GATE = [
    ({}, 2, False, True),  # unset: the BLAS takes every core
    ({}, 4, False, False),
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, True, True),
    ({"OPENBLAS_NUM_THREADS": "1"}, 1, False, False),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, False, True),
    ({"OPENBLAS_NUM_THREADS": "2"}, 4, True, True),
    ({"OPENBLAS_NUM_THREADS": "2"}, 3, False, False),
    ({"OPENBLAS_NUM_THREADS": "0"}, 2, False, True),
    ({"OPENBLAS_NUM_THREADS": "abc"}, 2, False, True),
    ({"OPENBLAS_NUM_THREADS": ""}, 2, False, True),
    ({"OPENBLAS_NUM_THREADS": "-1"}, 2, False, True),
    ({"OPENBLAS_NUM_THREADS": "0"}, 4, False, False),
    ({"OPENBLAS_NUM_THREADS": "abc", "OMP_NUM_THREADS": "1"}, 2, True, True),
    ({"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "1"}, 2, True, True),
]


@pytest.mark.parametrize("environ,cores,concurrent", [row[:3] for row in GATE])
def test_gate(environ, cores, concurrent):
    # without a setter, the parts run at once only where two BLAS calls fit
    assert _parts_at_once(environ, cores, False) is concurrent


@pytest.mark.parametrize("setter", [False, True], ids=["no-setter", "setter"])
@pytest.mark.parametrize("environ,cores,without,with_setter", GATE)
def test_row_halves_gate(environ, cores, without, with_setter, setter):
    # with a setter they also run at once on exactly 2 cores, the BLAS
    # narrowed to 1: training's directions and inference's row halves alike
    assert _parts_at_once(environ, cores, setter) is (with_setter if setter else without)


BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"
)


@pytest.mark.parametrize("first", range(len(BLAS_THREAD_VARS)))
def test_gate_reads_the_variables_in_order(first):
    # the first variable set decides, whatever the later ones say
    later = {name: "2" for name in BLAS_THREAD_VARS[first + 1 :]}
    assert _parts_at_once({BLAS_THREAD_VARS[first]: "1", **later}, 2, False)
    later = {name: "1" for name in BLAS_THREAD_VARS[first + 1 :]}
    assert not _parts_at_once({BLAS_THREAD_VARS[first]: "2", **later}, 2, False)


class TestMemory:
    """Peak traced memory in units of one ``(batch, steps, hidden)`` float64
    array, at embed 16, hidden 32, 3 layers, batch 64, the full window,
    with a layer's directions run one after the other."""

    UNIT = 64 * WINDOW * 32 * 8
    CONCURRENT = False
    # a middle layer's input, overwritten by its output (2 units), a spare
    # buffer for layer 0's input and then the forward direction's output
    # (1), the last layer's two-step ring and one step's gates and c_t:
    # 3.71 units
    EVAL_BOUND = 4.0

    @pytest.fixture(autouse=True)
    def schedule(self, monkeypatch):
        monkeypatch.setattr(lstm, "_AT_ONCE", self.CONCURRENT)

    def peak_units(self, fn):
        fn()
        tracemalloc.start()
        try:
            fn()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / self.UNIT

    def setup_method(self):
        self.params = init_params(embed_dim=16, hidden=32, layers=3, seed=0)
        rng = np.random.default_rng(0)
        self.codes = rng.integers(0, 30, size=(64, WINDOW))
        self.labels = rng.integers(0, 4, size=64)

    def test_eval_holds_a_chunk_of_projection(self):
        # a whole-window projection adds 4 units per direction
        assert self.peak_units(lambda: forward(self.params, self.codes)) < self.EVAL_BOUND

    def test_training_cache_holds_what_bptt_reads(self):
        # a record per layer: gate activations (8 units), c (2), the output
        # (2) and, between layers, a bool dropout mask (0.25); backward
        # rebuilds each layer's input in its one output-gradient buffer (2).
        # Keeping the input and a float mask as well peaks at 52 units, and
        # c_prev, h_prev and tanh(c) on top of that at 66
        peak = self.peak_units(
            lambda: loss_and_gradients(self.params, self.codes, self.labels, dropout_seed=3)
        )
        assert peak < 42


class TestMemoryConcurrent(TestMemory):
    """The same training bound, with a layer's two directions, or a block's
    two row halves, run at once."""

    CONCURRENT = True
    # the two row halves' buffers, allocated before either half runs: the
    # whole block's 3.71 units and the temporaries of a second thread, 3.73
    EVAL_BOUND = 4.0
