"""Character-level bidirectional LSTM classifier, implemented on numpy.

Architecture: embedding lookup over the 30-symbol name vocabulary, a
stack of bidirectional LSTM layers whose per-step outputs (forward and
backward concatenated) feed the next layer, inter-layer dropout during
training, and a dense softmax head.  The classification feature is the
forward direction's state at the last window position concatenated with
the backward direction's state at position zero, so both halves have
seen the whole window.

Training runs in float64.  Scoring runs the layers in the dtype of the
weights: float64 as :func:`init_params` and :func:`load_params` give them
by default, or float32 (``predict`` loads the float64 file straight into a
float32 vector, a chunk at a time, so it never holds a float64 copy).
The dense head and the softmax run in float64 either way, so each row of
probabilities sums to 1 at float64 precision.  All randomness flows from
explicit seeds: initialization, the train/validation split, class
balancing, batch shuffling, and dropout masks.  Two runs with the same
seed produce bit-identical parameter trajectories.  Dropout is drawn only in training:
:func:`loss_and_gradients` draws the masks of its ``dropout_seed`` (0 by
default), and :func:`forward` applies none.  The optimizer is
Adam (Kingma & Ba 2015) with their fixed β1 0.9, β2 0.999 and ε 1e-8.

Every weight lives in one contiguous vector, ``NetworkParams.flat``,
laid out by :func:`_layout`: the embedding, then per layer the forward and
backward direction's ``w_in``/``w_rec``/``bias``, then the dense head.  The
named arrays are views into that vector.  Gradients and the Adam moments
are vectors with the same layout, so an optimizer step, a copy, a
finiteness check and the parameter file each handle one buffer.
:func:`init_params` draws into that buffer in place, and the finiteness
check and a float32 load work :data:`_CHUNK_VALUES` values at a time, so
none of them makes a temporary as long as the vector.

Activations are time-major, ``(steps, batch, features)``, so each
step's slice is contiguous (Appleyard et al. 2016, *Optimizing
Performance of RNNs on GPUs*), and every step writes into preallocated
buffers with ufunc ``out=``; the input and forget gates share one sigmoid
call.  The gate column order stays i/f/g/o, the order of the NPRX v1
file.

Gradients are exact backpropagation through time across both directions
and all layers; see the finite-difference tests for the verification.
Inference and training share one layer pass, :func:`_run_direction`, one
loop over the steps: each step projects its input, adds the recurrent
product and overwrites the sum with its activated gates.  At production
dims, projecting 1, 3, 5 or 10 steps in one GEMM, or the whole window,
ran within run-to-run noise, so a step projects only itself.
:func:`forward` runs a block of 4 or more rows as two row halves at once
where :data:`_AT_ONCE` holds (below), and the dense head once, on the whole
block.  In a block or a half the directions take turns, each with one
step's gates and ``c_t``, reused at every step of every layer; the last
layer writes into a two-step output ring, as the head reads two of its
steps, and each layer after the first writes its output over its input:
the forward direction fills a half-width buffer, the backward one writes
``h_t`` over the second half of ``x[t]`` once it has projected ``x[t]``,
and the buffer is then copied over the first half.  So inference memory
is one layer's activations and half of another plus those buffers, in
either schedule, and :func:`predict_proba_batch` runs 256 rows at a time.
:func:`loss_and_gradients` gives it whole-window buffers and keeps one
record per layer (output, bool dropout mask, and per direction every
step's gates and ``c_t``); ``h_{t-1}`` is read from the output,
``tanh(c_t)`` is recomputed, and the gate gradients overwrite the gates.
A layer's input is rebuilt in backward, from the previous record's output
and mask or from the embedding, in the output-gradient buffer backward
no longer needs; the input gradient is written over that buffer.  The
weight-gradient GEMMs sum their rows in time order.  A batch of one name
can differ in its last bits: numpy projects its one-row steps with a
matrix-vector product, whose last bits can differ from the same row in a
larger GEMM (at desk dims by at most about 6e-17 in a probability).

Work that reads the same input and writes disjoint memory can run at
once, one part on the calling thread and one on a worker (:func:`_both`;
Appleyard et al. 2016 do the same on GPUs).  In training that is a layer's
two directions, in the layer pass, in BPTT and in the two
``w_in``-gradient GEMMs; in inference it is a block's two row halves,
independent up to the dense head.  Both run at once where one gate,
:data:`_AT_ONCE`, holds (:func:`_parts_at_once`): when two BLAS calls at
the BLAS thread count fit on the usable cores, and on exactly 2 usable
cores when the BLAS's own thread setter is found.  While both parts run,
:func:`_both` narrows the BLAS to half the usable cores where two calls
at its thread count would not fit, and sets it back; so an unpinned BLAS
on 2 cores trains and scores at 1 thread per part.  The gate is fixed at
import.  At one BLAS thread count probabilities, loss and
gradients are bit-identical in every schedule: on OpenBLAS 0.3.31 a layer
GEMM gives a row the same bits in any block of 2 or more rows, every
array a part writes is allocated on the calling thread, and the input
gradient sums its halves in one order.  The count itself can move last
bits, in float32 as in float64: OpenBLAS 0.3.31 blocks a step's GEMM one
way at 1 thread and another at 2 where its inner dimension is above about
384 (float64) or 448 (float32) and neither a multiple of 32 nor one below
it, so where an embedding width, ``hidden`` or twice it is such a width,
narrowed training and scoring give the bits of 1 thread.

Raw names are encoded in one place, :func:`names.encode_columns`: for
training by :func:`prepare_dataset`, for scoring by :func:`predict_scores`,
of which :func:`predict_proba` is the one-row call.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import json
import math
import os
import struct

import numpy as np

from .core import REASON_CODE, UNENCODABLE_NAME, People, Scores
from .csvio import replacing, write_csv
from .errors import NameproxyError, SchemaError
from .names import VOCAB_SIZE, encode_columns

# gate slices within the stacked 4H dimension: input, forget, candidate, output
_I, _F, _G, _O = range(4)

# Adam's moment decay rates and denominator guard (Kingma & Ba 2015)
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8

# the variables a BLAS reads its thread count from, in the order read here
_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"
)

MAGIC = b"NPRX"
FORMAT_VERSION = 1

# weights a finiteness check or a float32 load handles at once, so that
# their temporaries stay small beside the weights
_CHUNK_VALUES = 1 << 16


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters; their defaults, the production setting,
    are the defaults of :func:`init_params`, :class:`NetworkParams` and
    :class:`AdamState` too."""

    seed: int = 0
    epochs: int = 10
    batch_size: int = 512
    split: float = 0.8
    embed_dim: int = 256
    hidden: int = 512
    layers: int = 4
    dropout: float = 0.2
    lr: float = 0.001
    weight_decay: float = 0.004
    decoupled_decay: bool = False

    def __post_init__(self):
        for f in fields(self):  # a float field takes an int too; a bool is no int here
            kind = {"int": (int,), "float": (int, float), "bool": (bool,)}[f.type]
            value = getattr(self, f.name)
            if type(value) not in kind:
                raise TypeError(f"{f.name} must be {f.type}, got {value!r}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        for name in ("epochs", "batch_size", "embed_dim", "hidden", "layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 < self.split < 1.0:
            raise ValueError("split must be in (0, 1)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if not 0.0 < self.lr < math.inf:
            raise ValueError("lr must be finite and > 0")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError("weight_decay must be finite and >= 0")


@dataclass
class LstmDirection:
    """Weights for one direction of one layer: four gates stacked columnwise."""

    w_in: np.ndarray  # (in_dim, 4*hidden)
    w_rec: np.ndarray  # (hidden, 4*hidden)
    bias: np.ndarray  # (4*hidden,)


def _layout(embed_dim: int, hidden: int, layers: int, n_classes: int):
    """``(name, shape)`` of every stored array, in storage and file order."""
    gates = 4 * hidden
    specs = [("embedding", (VOCAB_SIZE, embed_dim))]
    for l in range(layers):
        in_dim = embed_dim if l == 0 else 2 * hidden
        for tag in ("fwd", "bwd"):
            specs += [
                (f"layer{l}.{tag}.w_in", (in_dim, gates)),
                (f"layer{l}.{tag}.w_rec", (hidden, gates)),
                (f"layer{l}.{tag}.bias", (gates,)),
            ]
    specs += [("dense_w", (2 * hidden, n_classes)), ("dense_b", (n_classes,))]
    return specs


class NetworkParams:
    """Every weight of the network as a view into one float64 or float32
    vector.

    ``flat`` holds the arrays of :func:`_layout` back to back.
    ``embedding``, each direction's ``w_in``/``w_rec``/``bias`` (in
    ``layers``, one ``(forward, backward)`` pair per layer), ``dense_w`` and
    ``dense_b`` are views into it, so writing through a view writes
    ``flat``.  Without ``flat`` the weights start at zero.

    Raises:
        NameproxyError: no recurrent layer, or ``flat`` is not a
            contiguous float64 or float32 vector of the layout's size.
    """

    def __init__(
        self,
        embed_dim: int,
        hidden: int,
        n_layers: int,
        n_classes: int,
        dropout: float = TrainConfig.dropout,
        flat: np.ndarray | None = None,
    ):
        if n_layers < 1:
            raise NameproxyError("need at least one recurrent layer")
        layout = _layout(embed_dim, hidden, n_layers, n_classes)
        size = sum(math.prod(shape) for _, shape in layout)
        if flat is None:
            flat = np.zeros(size)
        elif (flat.dtype not in (np.float64, np.float32) or flat.shape != (size,)
              or not flat.flags.c_contiguous):
            raise NameproxyError(
                f"flat must be a contiguous float64 or float32 vector of {size} entries, "
                f"got {flat.dtype} {flat.shape}"
            )
        self.embed_dim = embed_dim
        self.hidden = hidden
        self.n_layers = n_layers
        self.n_classes = n_classes
        self.dropout = dropout
        self.flat = flat
        views = []
        offset = 0
        for _, shape in layout:
            count = math.prod(shape)
            views.append(flat[offset : offset + count].reshape(shape))
            offset += count
        views = iter(views)
        self.embedding = next(views)
        self.layers = [
            (
                LstmDirection(next(views), next(views), next(views)),
                LstmDirection(next(views), next(views), next(views)),
            )
            for _ in range(n_layers)
        ]
        self.dense_w = next(views)
        self.dense_b = next(views)

    def like(self, flat: np.ndarray) -> "NetworkParams":
        """The same dimensions and dropout over another vector (no copy)."""
        return NetworkParams(
            self.embed_dim, self.hidden, self.n_layers, self.n_classes, self.dropout, flat
        )

    def validate(self) -> None:
        if not _all_finite(self.flat):
            raise NameproxyError("parameters contain non-finite values")

    def copy(self) -> "NetworkParams":
        return self.like(self.flat.copy())


def _all_finite(values) -> bool:
    """Whether every entry of a vector is finite, checked
    :data:`_CHUNK_VALUES` entries at a time, so that no bool temporary is as
    long as the vector."""
    return all(
        np.isfinite(values[start : start + _CHUNK_VALUES]).all()
        for start in range(0, values.size, _CHUNK_VALUES)
    )


def init_params(
    embed_dim: int = TrainConfig.embed_dim,
    hidden: int = TrainConfig.hidden,
    layers: int = TrainConfig.layers,
    n_classes: int = 4,
    dropout: float = TrainConfig.dropout,
    seed: int = 0,
) -> NetworkParams:
    """Seeded initialization: uniform +-1/sqrt(fan_in), forget-gate bias 1."""
    rng = np.random.default_rng(seed)
    params = NetworkParams(embed_dim, hidden, layers, n_classes, dropout)

    def uniform(fan_in, out):
        # ``rng.uniform(low, high)`` drawn in place, bit for bit: the same
        # draws, times the width, plus the low end
        high = 1.0 / np.sqrt(fan_in)
        low = -high
        rng.random(out=out)
        out *= high - low
        out += low

    # draw order: every layer's weights, then the embedding, then the head
    for pair in params.layers:
        for d in pair:
            uniform(d.w_in.shape[0], d.w_in)
            uniform(hidden, d.w_rec)
            d.bias[_F * hidden : (_F + 1) * hidden] = 1.0
    uniform(embed_dim, params.embedding)
    uniform(2 * hidden, params.dense_w)
    params.validate()
    return params


def _sigmoid_inplace(x):
    """``x = 1 / (1 + exp(-x))``."""
    np.negative(x, out=x)
    # exp overflow saturates to inf and the quotient to exactly 0, which is
    # the correctly rounded value, so the warning is just noise
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    x += 1.0
    np.divide(1.0, x, out=x)


def _log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _parts_at_once(environ, cores: int, narrowable: bool) -> bool:
    """Whether :func:`_both` runs its two parts at once: where two BLAS
    calls at the BLAS thread count fit on ``cores`` usable cores, and on
    exactly 2 with a ``narrowable`` BLAS, one whose thread count
    :func:`_both` can set to 1 while the parts run.

    The count is the first positive integer among :data:`_BLAS_THREAD_VARS`
    in the ``environ`` mapping, else ``cores``, as OpenBLAS itself assumes.
    Narrowing was measured only on 2 cores; hosts of 3 or more keep the
    rule that two calls must fit.
    """
    threads = cores
    for name in _BLAS_THREAD_VARS:
        try:
            value = int(environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            threads = value
            break
    return (narrowable and cores == 2) or 2 * threads <= cores


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _blas_threads():
    """``(get, set)``, the BLAS's own thread-count functions, or None.

    They are looked up with ctypes in numpy's loaded ``_multiarray_umath``,
    which sees the symbols of the BLAS it links: the ILP64 OpenBLAS of
    numpy's wheels, or a plain OpenBLAS.
    """
    try:
        import ctypes
        from numpy._core import _multiarray_umath

        blas = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                           ("openblas", "64_"), ("openblas", "")):
        try:
            get = getattr(blas, f"{prefix}_get_num_threads{suffix}")
            set_ = getattr(blas, f"{prefix}_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = (), ctypes.c_int
        set_.argtypes, set_.restype = (ctypes.c_int,), None
        return get, set_
    return None


# fixed when the module loads, as the BLAS fixes its thread count when it loads
_BLAS_THREADS = _blas_threads()
_CORES = _usable_cores()
_AT_ONCE = _parts_at_once(os.environ, _CORES, _BLAS_THREADS is not None)


def _both(here, there):
    """Call ``here()`` and ``there()``: where :data:`_AT_ONCE` holds,
    ``there`` on a worker thread, else one after the other.

    Where two BLAS calls at the BLAS's current thread count would not fit
    on the usable cores, it is narrowed to half of them while both run,
    and set back before this returns or raises.  The worker is joined
    before this returns or raises, and an exception it raised is raised
    here.  ``there`` must call no traced public function and should
    allocate nothing large: every array it writes, a direction's or a row
    half's, comes from the calling thread, as memory a worker thread frees
    stays in that thread's malloc arena.  The BLAS thread count is one per
    process, so callers on two threads at once may see each other's
    narrowing.
    """
    if not _AT_ONCE:
        here()
        there()
        return
    # imported here: the processes that take turns do not pay for it
    from concurrent.futures import ThreadPoolExecutor

    get, set_ = _BLAS_THREADS or (lambda: 0, None)
    threads, width = get(), max(1, _CORES // 2)
    if threads > width:
        set_(width)
    try:
        with ThreadPoolExecutor(1) as pool:
            later = pool.submit(there)
            here()
        later.result()
    finally:
        if threads > width:
            set_(threads)


def _pass_scratch(batch: int, hidden: int, dtype):
    """The step buffers of :func:`_run_direction`: the recurrent product, a
    temporary, and the zero state before the first step."""
    return (np.empty((batch, 4 * hidden), dtype), np.empty((batch, hidden), dtype),
            np.zeros((batch, hidden), dtype))


def _run_direction(direction: LstmDirection, x, reverse: bool, out, acts, cells, scratch):
    """One direction's pass over the window, writing each ``h_t`` into ``out``.

    ``x`` is the time-major ``(steps, batch, in_dim)`` layer input and
    ``out`` a ``(slots, batch, hidden)`` view the caller owns; ``h_t`` goes
    to slot ``t % len(out)``.  Two slots hold all the recurrence reads, and
    ``out`` may be a view into ``x``: step ``t`` writes ``h_t`` only after
    projecting ``x[t]``, and no later step reads ``x[t]``.  Step ``t``
    writes its gates into slot ``t % len(acts)`` of ``acts``, a
    ``(slots, batch, 4*hidden)`` array, first its input projection and then,
    over it, the activated gates; its ``c_t`` goes to the same slot of
    ``cells``, ``(slots, batch, hidden)``.  With one slot every step reuses
    it; with the whole window every step's gates and ``c_t`` survive.
    ``scratch`` is :func:`_pass_scratch` of the batch, reusable from one
    call to the next.
    """
    steps = x.shape[0]
    hidden = direction.w_rec.shape[0]
    rec, tmp, zero = scratch
    h_prev = c_prev = zero
    for t in range(steps - 1, -1, -1) if reverse else range(steps):
        z, c_t = acts[t % len(acts)], cells[t % len(cells)]
        np.matmul(x[t], direction.w_in, out=z)
        z += direction.bias
        np.matmul(h_prev, direction.w_rec, out=rec)
        z += rec
        i, f = z[:, :hidden], z[:, hidden : 2 * hidden]
        g, o = z[:, 2 * hidden : 3 * hidden], z[:, 3 * hidden :]
        _sigmoid_inplace(z[:, : 2 * hidden])  # i and f in one call
        np.tanh(g, out=g)
        _sigmoid_inplace(o)
        # c = f * c_prev + i * g
        np.multiply(f, c_prev, out=c_t)
        np.multiply(i, g, out=tmp)
        c_t += tmp
        # h = o * tanh(c)
        np.tanh(c_t, out=tmp)
        h_prev = out[t % len(out)]
        np.multiply(o, tmp, out=h_prev)
        c_prev = c_t


def _backprop_direction(direction: LstmDirection, h, acts, c, reverse: bool, d_out,
                        grad: LstmDirection, scratch):
    """BPTT through one direction: writes the ``w_rec`` and ``bias`` gradients
    into ``grad``'s views and every step's gate gradient ``dz`` over its
    gate activations in ``acts``.

    ``h`` (the direction's output), ``acts`` and ``c`` are the arrays
    :func:`_run_direction` wrote over the whole window, and ``d_out`` is the
    time-major ``(steps, batch, hidden)`` gradient of the output.
    ``tanh(c_t)`` is recomputed and ``h_{t-1}`` is read from ``h``.  The
    ``w_in`` gradient and the input gradient are the caller's, from ``dz``
    and the layer input.  ``scratch`` is a ``(6, batch, hidden)`` array the
    caller owns whose first row is zero, reusable from one call to the next.
    """
    steps, batch, hidden = h.shape
    zero, dh_next, dc_next, a, dc, d = scratch
    dh_next.fill(0.0)
    dc_next.fill(0.0)
    w_rec_t = direction.w_rec.T
    # the reverse of the forward order; the state before each step comes
    # from its predecessor in the forward order
    for t in range(steps) if reverse else range(steps - 1, -1, -1):
        t_prev = t + 1 if reverse else t - 1
        c_prev = c[t_prev] if 0 <= t_prev < steps else zero
        z = acts[t]
        i, f = z[:, :hidden], z[:, hidden : 2 * hidden]
        g, o = z[:, 2 * hidden : 3 * hidden], z[:, 3 * hidden :]
        np.tanh(c[t], out=a)
        # dh = d_out + dh_next; do = dh * tanh(c)
        np.add(d_out[t], dh_next, out=dc)
        np.multiply(dc, a, out=d)
        # dc = dh * o * (1 - tanh(c)^2) + dc_next
        dc *= o
        np.multiply(a, a, out=a)
        np.subtract(1.0, a, out=a)
        dc *= a
        dc += dc_next
        # dz_o = do * o * (1 - o)
        d *= o
        np.subtract(1.0, o, out=a)
        np.multiply(d, a, out=o)
        np.multiply(dc, f, out=dc_next)
        # dz_f = dc * c_prev * f * (1 - f)
        np.multiply(dc, c_prev, out=d)
        d *= f
        np.subtract(1.0, f, out=a)
        np.multiply(d, a, out=f)
        # dz_i = dc * g * i * (1 - i); dz_g = dc * i * (1 - g^2)
        np.multiply(dc, g, out=d)
        dc *= i
        d *= i
        np.subtract(1.0, i, out=a)
        np.multiply(d, a, out=i)
        np.multiply(g, g, out=a)
        np.subtract(1.0, a, out=a)
        np.multiply(dc, a, out=g)
        np.matmul(z, w_rec_t, out=dh_next)
    # h_{t-1} is zero at the first step: that step adds nothing to w_rec
    if reverse:
        h_prev, dz_rec = h[1:], acts[:-1]
    else:
        h_prev, dz_rec = h[:-1], acts[1:]
    rows = (steps - 1) * batch
    np.matmul(h_prev.reshape(rows, hidden).T, dz_rec.reshape(rows, 4 * hidden), out=grad.w_rec)
    np.sum(acts.reshape(steps * batch, 4 * hidden), axis=0, out=grad.bias)


def _dropout(values, mask, keep: float, out=None):
    """``values`` with the units ``mask`` (bool) drops zeroed and the kept
    ones scaled by ``1/keep``, written into ``out`` (a new array if None).

    Scaling first and then multiplying by the mask is bit for bit
    ``values * (mask / keep)``, signed zeros included, without a float mask.
    """
    out = np.multiply(values, np.divide(True, keep), out=out)
    out *= mask
    return out


def _reuse(dead, shape):
    """An array of ``shape`` in the memory of the contiguous array ``dead``,
    whose values are no longer needed, or a new one of its dtype where it is
    too small."""
    size = math.prod(shape)
    flat = dead.reshape(-1)
    return flat[:size].reshape(shape) if flat.size >= size else np.empty(shape, dead.dtype)


def _forward_pass(params: NetworkParams, codes, tape=None, dropout_seed: int | None = None):
    """``(log_probs, feat, codes)``: log-probabilities, the dense head's input
    and the checked ``(batch, steps)`` codes.

    Given a list, the pass runs :func:`_record_layers` under
    ``dropout_seed``'s masks and the list gets one record per layer.
    Without one it runs :func:`_run_layers`, which applies no dropout,
    where :data:`_AT_ONCE` holds as two row halves at once through
    :func:`_both`, in buffers allocated here on the calling thread; the
    dense head then runs on the whole block, in float64.  A block of under
    4 rows is not split, as a one-row half would project through gemv.
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.ndim == 1:
        codes = codes[None, :]
    # encoded names use the fixed window, but the network itself runs on
    # any sequence length (handy for small test configurations)
    if codes.ndim != 2 or codes.shape[1] < 1:
        raise NameproxyError(f"codes must be (batch, steps), got {codes.shape}")
    if codes.size and (codes.min() < 0 or codes.max() >= VOCAB_SIZE):
        raise NameproxyError("codes out of vocabulary range")
    batch, steps = codes.shape
    feat = np.empty((batch, 2 * params.hidden), params.flat.dtype)
    if tape is not None:
        _record_layers(params, codes, dropout_seed, feat, tape)
    elif batch < 4 or not _AT_ONCE:
        _run_layers(params, codes, feat, _layer_buffers(params, batch, steps))
    else:
        def half(rows):
            buffers = _layer_buffers(params, rows.stop - rows.start, steps)
            return lambda: _run_layers(params, codes[rows], feat[rows], buffers)

        _both(half(slice(0, batch // 2)), half(slice(batch // 2, batch)))
    # the head in float64 whatever the weights' dtype: no copy from float64
    feat = feat.astype(np.float64, copy=False)
    dense_w, dense_b = (a.astype(np.float64, copy=False) for a in (params.dense_w, params.dense_b))
    logits = feat @ dense_w + dense_b
    return _log_softmax(logits), feat, codes


def _layer_buffers(params: NetworkParams, batch: int, steps: int):
    """The arrays :func:`_run_layers` writes for ``batch`` rows: a spare
    ``(steps, batch, max(embed_dim, hidden))`` array, which holds layer 0's
    input and then each middle layer's forward output; the first layer's
    output, written over by every middle layer; the last layer's two-step
    ring; and one step's gates, ``c_t`` and :func:`_pass_scratch`."""
    hidden, dtype = params.hidden, params.flat.dtype
    return (
        np.empty((steps, batch, max(params.embed_dim, hidden)), dtype),
        np.empty((steps if params.n_layers > 1 else 0, batch, 2 * hidden), dtype),
        np.empty((2, batch, 2 * hidden), dtype),
        np.empty((1, batch, 4 * hidden), dtype),
        np.empty((1, batch, hidden), dtype),
        _pass_scratch(batch, hidden, dtype),
    )


def _run_layers(params: NetworkParams, codes, feat, buffers):
    """The layer stack on ``codes``' rows in :func:`_layer_buffers`'
    ``buffers``, without dropout, writing the dense head's input (the
    forward state at the last step and the backward state at step zero)
    into ``feat``.

    The directions take turns and share one step's gates and ``c_t``.
    Every layer after the first writes its output over its input: the
    forward direction fills the spare buffer, the backward one writes
    ``h_t`` over the second half of ``x[t]`` once step ``t`` has projected
    it, and the forward half is then copied over the first half.
    """
    batch, steps = codes.shape
    hidden = params.hidden
    spare, first, ring, acts, cells, scratch = buffers
    # codes are in range; "clip" only keeps take from buffering out
    x = np.take(params.embedding, codes.T, axis=0, mode="clip",
                out=_reuse(spare, (steps, batch, params.embed_dim)))
    for l, (fwd, bwd) in enumerate(params.layers):
        if l == params.n_layers - 1:
            out, h_f = ring, ring[:, :, :hidden]
        elif l == 0:
            out, h_f = first, first[:, :, :hidden]
        else:
            out, h_f = x, _reuse(spare, (steps, batch, hidden))  # over the input
        # the forward direction runs first, while x is whole
        _run_direction(fwd, x, False, h_f, acts, cells, scratch)
        _run_direction(bwd, x, True, out[:, :, hidden:], acts, cells, scratch)
        if out is x:
            out[:, :, :hidden] = h_f
        x = out
    feat[:, :hidden] = out[(steps - 1) % 2, :, :hidden]
    feat[:, hidden:] = out[0, :, hidden:]


def _record_layers(params: NetworkParams, codes, dropout_seed: int | None, feat, tape):
    """The layer stack for training, writing the dense head's input into
    ``feat`` and one ``(out, mask, (acts, c) forward, (acts, c) backward)``
    record per layer onto ``tape``: the layer's output, its time-major
    bool dropout mask (or None), and per direction the whole window's gates
    and ``c_t``, which is what BPTT reads.

    A ``dropout_seed`` of None applies no dropout; an int seeds every
    layer's mask, drawn before the first layer runs.  A layer's directions
    run through :func:`_both`, each with its own scratch, and every array
    they write is allocated here, on the calling thread.  A layer's input
    is not kept: backward rebuilds it from the previous record's output and
    mask, or gathers the embedding again for layer 0.
    """
    batch, steps = codes.shape
    hidden = params.hidden
    keep = 1.0 - params.dropout
    masks = [None] * params.n_layers  # the last layer's output is not dropped
    if dropout_seed is not None and params.dropout > 0.0:
        drop_rng = np.random.default_rng(dropout_seed)
        # drawn in (batch, steps) order, layer by layer: that order fixes
        # which units a seed drops, so probabilities under dropout do not
        # depend on the activation layout
        masks[:-1] = [
            (drop_rng.random((batch, steps, 2 * hidden)) < keep).transpose(1, 0, 2)
            for _ in range(params.n_layers - 1)
        ]
    scratch = [_pass_scratch(batch, hidden, np.float64) for _ in range(2)]
    x = params.embedding[codes.T]  # (T, B, D)
    for l, (fwd, bwd) in enumerate(params.layers):
        acts = [np.empty((steps, batch, 4 * hidden)) for _ in range(2)]
        cells = [np.empty((steps, batch, hidden)) for _ in range(2)]
        out = np.empty((steps, batch, 2 * hidden))  # forward | backward
        _both(lambda: _run_direction(fwd, x, False, out[:, :, :hidden], acts[0], cells[0],
                                     scratch[0]),
              lambda: _run_direction(bwd, x, True, out[:, :, hidden:], acts[1], cells[1],
                                     scratch[1]))
        tape.append((out, masks[l], *zip(acts, cells)))
        x = out if masks[l] is None else _dropout(out, masks[l], keep)
    feat[:, :hidden] = out[-1, :, :hidden]
    feat[:, hidden:] = out[0, :, hidden:]


def forward(params: NetworkParams, codes) -> np.ndarray:
    """Class probabilities for a batch of encoded names, shape (batch, classes).

    A pure function of (params, codes): no dropout, and no training cache.
    The layers run in the weights' dtype, float64 or float32, and the dense
    head in float64.  Where :data:`_AT_ONCE` holds, a block of 4 or more
    rows runs as two row halves at once; in a block or a half each
    direction holds one step's gates and its running ``h``/``c``, and a
    layer's output is written over its input, so memory is that of one
    layer's activations and half of another, in either schedule.  The dense head runs once, on the whole
    block.  With float64 weights the probabilities are bit-identical to
    those :func:`loss_and_gradients` computes without dropout, at one BLAS
    thread count.  A ``(0, steps)`` batch gives ``(0, n_classes)``.
    """
    log_probs, _, _ = _forward_pass(params, codes)
    return np.exp(log_probs)


def loss_and_gradients(params: NetworkParams, codes, labels, dropout_seed: int | None = 0):
    """Mean cross-entropy over the batch plus its gradient, a vector laid out
    like ``params.flat``.

    An int ``dropout_seed`` (0 by default) seeds the inter-layer dropout
    masks, as in training; None applies no dropout.  Gradients flow through
    the dense head, both directions of every layer, and the embedding rows
    that the batch touched.

    Raises:
        NameproxyError: ``params.flat`` is not float64: the tape, the
            gradients and :func:`adam_step` are float64 only.
    """
    if params.flat.dtype != np.float64:
        raise NameproxyError(f"training needs float64 parameters, got {params.flat.dtype}")
    labels = np.asarray(labels, dtype=np.int64)
    tape = []
    log_probs, feat, codes = _forward_pass(params, codes, tape, dropout_seed)
    batch, steps = codes.shape
    if labels.shape != (batch,):
        raise NameproxyError(f"labels must be ({batch},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= params.n_classes:
        raise NameproxyError("label outside class range")
    loss = float(-log_probs[np.arange(batch), labels].mean())

    grads = params.like(np.zeros_like(params.flat))
    hidden = params.hidden

    d_logits = np.exp(log_probs)
    d_logits[np.arange(batch), labels] -= 1.0
    d_logits /= batch
    grads.dense_w[...] = feat.T @ d_logits
    grads.dense_b[...] = d_logits.sum(axis=0)
    d_feat = d_logits @ params.dense_w.T

    d_out = np.zeros((steps, batch, 2 * hidden))
    d_out[-1, :, :hidden] = d_feat[:, :hidden]
    d_out[0, :, hidden:] += d_feat[:, hidden:]

    keep = 1.0 - params.dropout
    rows = steps * batch
    scratch = [np.zeros((6, batch, hidden)) for _ in range(2)]
    for l in range(params.n_layers - 1, -1, -1):
        (fwd, bwd), (grad_f, grad_b) = params.layers[l], grads.layers[l]
        # each layer's record is released when the next one is popped
        out, mask, (acts_f, c_f), (acts_b, c_b) = tape.pop()
        if mask is not None:  # the next layer's input gradient, onto this output
            _dropout(d_out, mask, keep, out=d_out)
        _both(
            lambda: _backprop_direction(fwd, out[:, :, :hidden], acts_f, c_f, False,
                                        d_out[:, :, :hidden], grad_f, scratch[0]),
            lambda: _backprop_direction(bwd, out[:, :, hidden:], acts_b, c_b, True,
                                        d_out[:, :, hidden:], grad_b, scratch[1]),
        )
        # the gate gradients, written over the gates
        dz_f, dz_b = acts_f.reshape(rows, 4 * hidden), acts_b.reshape(rows, 4 * hidden)
        # the layer input, rebuilt in d_out's memory, which is dead now
        in_dim = params.embed_dim if l == 0 else 2 * hidden
        buf = _reuse(d_out, (steps, batch, in_dim))
        if l == 0:
            # codes are in range; "clip" only keeps take from buffering out
            x = np.take(params.embedding, codes.T, axis=0, out=buf, mode="clip")
        else:
            prev_out, prev_mask = tape[-1][:2]
            x = prev_out if prev_mask is None else _dropout(prev_out, prev_mask, keep, out=buf)
        x = x.reshape(rows, in_dim)
        _both(lambda: np.matmul(x.T, dz_f, out=grad_f.w_in),
              lambda: np.matmul(x.T, dz_b, out=grad_b.w_in))
        # the input gradient: the forward half over x, the backward half over dz_f
        d_in = np.matmul(dz_f, fwd.w_in.T, out=buf.reshape(rows, in_dim))
        d_in += np.matmul(dz_b, bwd.w_in.T, out=_reuse(dz_f, (rows, in_dim)))
        d_out = buf
        # views of this record's gates: freed with it, not a layer later
        del acts_f, acts_b, c_f, c_b, dz_f, dz_b
    np.add.at(grads.embedding, codes.T.ravel(), d_out.reshape(-1, params.embed_dim))
    return loss, grads.flat


@dataclass
class AdamState:
    """Adam moments (vectors laid out like ``params.flat``) plus the
    learning rate and weight decay of the update rule; β1, β2 and ε are
    fixed at Kingma & Ba's 0.9, 0.999 and 1e-8.

    Weight decay defaults to the coupled form (decay added to the gradient
    before the moment updates); set ``decoupled`` for the variant that
    shrinks parameters directly.
    """

    lr: float = TrainConfig.lr
    weight_decay: float = TrainConfig.weight_decay
    decoupled: bool = False
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None

    @classmethod
    def for_params(cls, params: NetworkParams, **kwargs) -> "AdamState":
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat), **kwargs)


def adam_step(params: NetworkParams, grads: np.ndarray, state: AdamState):
    """One in-place Adam update with bias correction; returns (params, state)."""
    theta = params.flat
    if grads.shape != theta.shape:
        raise NameproxyError(f"gradient has shape {grads.shape}, parameters {theta.shape}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    g = grads
    if state.weight_decay != 0.0 and not state.decoupled:
        g = g + state.weight_decay * theta
    state.m *= _BETA1
    state.m += (1.0 - _BETA1) * g
    state.v *= _BETA2
    state.v += (1.0 - _BETA2) * (g * g)
    update = state.lr * (state.m / bc1) / (np.sqrt(state.v / bc2) + _EPSILON)
    if state.weight_decay != 0.0 and state.decoupled:
        update = update + state.lr * state.weight_decay * theta
    theta -= update
    return params, state


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    val_accuracy: float


def prepare_dataset(people: People):
    """Normalize, validate, and encode people into (codes, labels).

    People without a race, or with a first or last name that keeps fewer
    than two characters after normalization, are dropped, mirroring the
    table-construction filters.  ``codes`` is ``(rows, WINDOW)`` uint8, one
    byte per character (:func:`names.encode_columns`), so the training
    split's copies cost 30 bytes a row.
    """
    codes, usable = encode_columns(people.first, people.last, min_length=2)
    labeled = people.race[usable] >= 0
    return codes[labeled], people.race[usable][labeled].astype(np.int64)


def split_and_balance(labels, n_classes: int, split: float, rng: np.random.Generator):
    """Stratified split, then undersample the training side to the minority size.

    Returns (train_idx, val_idx); the training indices have exactly equal
    class counts.
    """
    train_parts = []
    val_parts = []
    for cls in range(n_classes):
        members = np.nonzero(labels == cls)[0]
        if members.size < 2:
            raise NameproxyError(
                f"class {cls} has {members.size} usable records; need at least 2"
            )
        perm = rng.permutation(members.size)
        n_train = min(max(int(members.size * split), 1), members.size - 1)
        train_parts.append(members[perm[:n_train]])
        val_parts.append(members[perm[n_train:]])
    minority = min(part.size for part in train_parts)
    balanced = [
        part[rng.choice(part.size, size=minority, replace=False)]
        for part in train_parts
    ]
    train_idx = np.concatenate(balanced)
    val_idx = np.concatenate(val_parts)
    return np.sort(train_idx), np.sort(val_idx)


def train(people: People, cfg: TrainConfig):
    """Full training run; returns (best-validation params, per-epoch stats).

    Pipeline: encode, stratified 80:20 split, undersample the training
    portion to the minority class, then seeded shuffled mini-batches with
    Adam.  The parameters returned are a copy from the epoch with the best
    validation accuracy.
    """
    races = people.races
    codes, labels = prepare_dataset(people)
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    split_rng = np.random.default_rng(seeds[0])
    epoch_rng = np.random.default_rng(seeds[1])
    dropout_rng = np.random.default_rng(seeds[2])

    train_idx, val_idx = split_and_balance(labels, len(races), cfg.split, split_rng)
    x_train, y_train = codes[train_idx], labels[train_idx]
    x_val, y_val = codes[val_idx], labels[val_idx]

    params = init_params(cfg.embed_dim, cfg.hidden, cfg.layers, len(races), cfg.dropout, seeds[3])
    state = AdamState.for_params(
        params, lr=cfg.lr, weight_decay=cfg.weight_decay, decoupled=cfg.decoupled_decay
    )

    log: list[EpochStats] = []
    best_acc = -1.0  # epochs >= 1, so the first epoch sets best_params
    for epoch in range(1, cfg.epochs + 1):
        order = epoch_rng.permutation(x_train.shape[0])
        total_loss = 0.0
        for start in range(0, order.size, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            seed = int(dropout_rng.integers(0, 2**63))
            loss, grads = loss_and_gradients(
                params, x_train[batch], y_train[batch], dropout_seed=seed
            )
            adam_step(params, grads, state)
            total_loss += loss * batch.size
        train_loss = total_loss / order.size
        val_accuracy = _accuracy(params, x_val, y_val, cfg.batch_size)
        log.append(EpochStats(epoch, train_loss, val_accuracy))
        if val_accuracy > best_acc:
            best_acc = val_accuracy
            best_params = params.copy()
    return best_params, log


def _accuracy(params, codes, labels, batch_size):
    predicted = predict_proba_batch(params, codes, batch_size).argmax(axis=1)
    return int((predicted == labels).sum()) / codes.shape[0] if codes.shape[0] else 0.0


def predict_scores(params: NetworkParams, firsts, lasts) -> Scores:
    """Dropout-free probabilities for columns of raw first and last names.

    Names are encoded by :func:`names.encode_columns`; a row whose first
    or last name normalizes to nothing declines as unencodable.
    """
    codes, encodable = encode_columns(firsts, lasts)
    probs = np.zeros((encodable.size, params.n_classes))
    if codes.size:
        probs[encodable] = predict_proba_batch(params, codes)
    reason = np.where(encodable, 0, REASON_CODE[UNENCODABLE_NAME]).astype(np.int8)
    return Scores(probs, reason)


def predict_proba(params: NetworkParams, first: str, last: str) -> np.ndarray | None:
    """Probabilities for one raw name, or None where :func:`predict_scores`
    declines it: its one-row call."""
    return predict_scores(params, [first], [last]).row(0)[0]


def predict_proba_batch(params: NetworkParams, codes, batch_size: int = 256) -> np.ndarray:
    """Dropout-free probabilities for pre-encoded names, in input order, run
    through :func:`forward` ``batch_size`` rows at a time.

    ``codes`` keeps its dtype (uint8 from :func:`names.encode_columns`):
    each :func:`forward` call widens its own block, so the probabilities
    are the same for any integer dtype.

    At production dims and 2 BLAS threads a step's GEMMs ran as fast on
    256 rows as on 512, on half the activation memory; on 2 cores a block
    of 256 rows runs as two halves of 128 at once (see :func:`forward`).
    There a row's bits do not depend on the block size from 245 rows up;
    below that OpenBLAS 0.3.31 sends the dense head's product
    (rows * 1024 * 4 <= 10**6) down its small-matrix path, whose last bits
    differ.

    Raises:
        ValueError: ``batch_size`` is below 1.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    codes = np.asarray(codes)
    outputs = [
        forward(params, codes[start : start + batch_size])
        for start in range(0, codes.shape[0], batch_size)
    ]
    return np.concatenate(outputs) if outputs else np.zeros((0, params.n_classes))


def save_params(params: NetworkParams, path) -> None:
    """Write a versioned binary container with explicit dimension metadata.

    Layout: ``NPRX``, then ``<II`` (format version, header length), then
    the JSON header (sorted keys), then ``params.flat`` as little-endian
    float64, which is every array of the ``arrays`` header list in order.
    """
    params.validate()
    layout = _layout(params.embed_dim, params.hidden, params.n_layers, params.n_classes)
    header = {
        "format_version": FORMAT_VERSION,
        "embed_dim": params.embed_dim,
        "hidden": params.hidden,
        "layers": params.n_layers,
        "n_classes": params.n_classes,
        "dropout": params.dropout,
        "arrays": [[name, list(shape)] for name, shape in layout],
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with replacing(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(blob)))
        fh.write(blob)
        fh.write(params.flat.astype("<f8", copy=False))


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _checked_size(header, path, available: int) -> int:
    """Check a parameter header before anything is allocated from it.

    The ``arrays`` list must be exactly the layout its dimensions imply,
    and those arrays must fill the ``available`` bytes after the header.
    Returns the number of stored float64 values.
    """
    if not isinstance(header, dict):
        raise SchemaError(f"{path}: header is not a JSON object")
    for key in ("embed_dim", "hidden", "layers", "n_classes", "dropout", "arrays"):
        if key not in header:
            raise SchemaError(f"{path}: header lacks {key!r}")
    for key in ("embed_dim", "hidden", "layers", "n_classes"):
        if not _is_count(header[key]):
            raise SchemaError(f"{path}: header {key} must be a non-negative integer")
    dropout = header["dropout"]
    if type(dropout) not in (int, float) or not 0.0 <= dropout < 1.0:
        raise SchemaError(f"{path}: header dropout must be a number in [0, 1)")
    arrays = header["arrays"]
    # the length check bounds ``layers`` by the header's own size before a
    # layout is built from it
    if not isinstance(arrays, list) or len(arrays) != 6 * header["layers"] + 3:
        raise SchemaError(f"{path}: header arrays do not match its dimensions")
    layout = _layout(header["embed_dim"], header["hidden"], header["layers"], header["n_classes"])
    if arrays != [[name, list(shape)] for name, shape in layout]:
        raise SchemaError(f"{path}: header arrays do not match its dimensions")
    # Python ints: no shape can overflow
    size = sum(math.prod(shape) for _, shape in layout)
    if 8 * size != available:
        raise SchemaError(
            f"{path}: header implies {8 * size} data bytes, file has {available}"
        )
    return size


def _read_values(fh, out, path) -> None:
    """Fill the little-endian float64 vector ``out`` from ``fh``."""
    if fh.readinto(memoryview(out).cast("B")) != out.nbytes:
        raise SchemaError(f"{path}: file ended inside the parameter data")


def load_params(path, dtype=np.float64) -> NetworkParams:
    """Load a parameter container; bit-exact inverse of :func:`save_params`.

    The weights come back in ``dtype``, float64 or float32, as the one
    vector the parameters keep.  float64 reads the data straight into it;
    float32 reads :data:`_CHUNK_VALUES` float64 values at a time and casts
    each chunk into it, so the float64 data is never held whole.

    Raises:
        SchemaError: bad magic, a malformed header, arrays that are
            not the layout its dimensions imply, truncation, trailing
            bytes, non-finite values, or, for float32, a weight beyond
            float32's range.
    """
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(len(MAGIC) + 8)
        if len(prefix) < len(MAGIC) + 8 or prefix[: len(MAGIC)] != MAGIC:
            raise SchemaError(f"{path}: not a parameter container")
        version, header_len = struct.unpack_from("<II", prefix, len(MAGIC))
        if version != FORMAT_VERSION:
            raise SchemaError(f"{path}: unsupported format version {version}")
        offset = len(MAGIC) + 8
        # read() sizes its buffer by the request, so bound it by the file first
        if header_len > file_size - offset:
            raise SchemaError(f"{path}: header runs past the end of the file")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SchemaError(f"{path}: unreadable header: {exc}") from exc
        offset += header_len
        size = _checked_size(header, path, file_size - offset)
        if dtype == np.float64:
            flat = np.empty(size, dtype="<f8")
            _read_values(fh, flat, path)
            flat = flat.astype(np.float64, copy=False)
        else:
            flat = np.empty(size, dtype)
            chunk = np.empty(min(size, _CHUNK_VALUES), dtype="<f8")
            for start in range(0, size, _CHUNK_VALUES):
                values = chunk[: size - start]
                _read_values(fh, values, path)
                if not _all_finite(values):
                    raise SchemaError(f"{path}: parameters contain non-finite values")
                cast = flat[start : start + values.size]
                with np.errstate(over="ignore"):  # a weight beyond float32's range casts to inf
                    cast[...] = values
                if not _all_finite(cast):
                    raise SchemaError(f"{path}: a weight does not fit float32")
    try:
        params = NetworkParams(
            header["embed_dim"],
            header["hidden"],
            header["layers"],
            header["n_classes"],
            float(header["dropout"]),
            flat,
        )
        params.validate()
    except NameproxyError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return params


def write_training_log(log, path) -> None:
    """Per-epoch CSV: epoch, train loss, validation accuracy."""
    rows = ([row.epoch, row.train_loss, row.val_accuracy] for row in log)
    write_csv(path, ["epoch", "train_loss", "val_accuracy"], rows)
