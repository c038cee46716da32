"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: while a :class:`Tape` is active (see :func:`record`), every
operation involving a grad-enabled tensor appends one backward closure to the
tape. :func:`backward` replays the tape in reverse, visiting each node exactly
once, and accumulates ``d root / d leaf`` into ``Tensor.grad``. A tape is
single-use: backward takes each node off the tape and then runs it, so what
a node kept, and the gradients of outputs that only it read, are freed while
backward goes on, and a second backward on the same tape raises.

Every op follows one pattern: it computes its output values on plain
arrays and hands its outputs, its inputs and a vector-Jacobian product
``vjp`` to :func:`_emit`, which records one node when a tape is active and
an input requires grad. The node calls ``vjp`` with each output's
gradient, None for an output nothing used (it contributes zero), and
skips the call when no output was used. Outputs are recorded before their
consumers, so those gradients are final when the node runs. ``vjp`` adds
into each input with :func:`_accum`, which keeps a first gradient without
a copy: every op hands over arrays it allocated for that input alone,
except :func:`add` and :func:`reshape`, which copy the output gradient
they pass on.

A fused op records one node for a whole computation, with a hand-written
backward: :func:`linear` runs a dense layer (product and bias),
:func:`attention` every head of a multi-head attention block, and
:func:`lstm_sequence` a whole LSTM layer, whose node serves its three
outputs: the hidden sequence and the last step's hidden and cell states.
Two ops run the post-norm tail LayerNorm(x + Sublayer(x)) of a
transformer sublayer: :func:`project_add_norm` an attention sublayer's
(output projection, residual add, layer norm) and :func:`ffn_add_norm` a
whole feed-forward sublayer (product, ReLU, dropout, product, residual
add, layer norm). They share one layer-norm forward and backward, and
normalise the sum in place in the buffer of their last product, so the
tape keeps no copy of the sublayer's output.

:func:`attention` runs its heads, forward and backward, on W workers,
W = min(n_heads, usable CPUs) when a head has at least ``_BLOCK_ELEMS``
scores and W = 1 otherwise: the calling thread and W - 1 threads that
live for one call and are joined before it returns or raises. Any W
gives the same results bit for bit: each head draws its dropout masks
from a seed of its own, which the calling thread draws for every head up
front. The threads assume a single-threaded BLAS (for OpenBLAS,
``OPENBLAS_NUM_THREADS=1``); a BLAS that threads each product too
competes with them for the CPUs.

Ops take Tensor operands only: wrap a constant array with :func:`tensor`.
Shapes follow numpy row-major conventions. Elementwise ops take equal
shapes only; the one broadcast is a (k,) vector along the last axis
inside a fused op (a bias, or a layer norm's gain), so no silent
broadcasting ever happens. The one unfused nonlinearity is
:func:`relu`, which the lag-feature embedding applies; the tests build
their smooth oracles from ``tanh`` and ``sigmoid`` in ``tests/gradcheck.py``.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class ContractError(ValueError):
    """Raised when an operation is called outside its contract."""


_TAPE_SERIALS = itertools.count(1)


class Tape:
    """Ordered record of backward closures, parents always before children.

    ``len(tape)`` counts the nodes not yet run: the recorded length until
    :func:`backward` runs the tape, and 0 after it. ``visits`` counts the
    nodes that backward ran, so it is 0 until the tape has been used.

    Tensors name the tape that produced them by its ``serial``, not by a
    reference: the closures hold their outputs, so a back-reference would
    make every tape a cycle that only the cyclic garbage collector frees.
    """

    __slots__ = ("nodes", "visits", "serial")

    def __init__(self) -> None:
        self.nodes: list[Callable[[], None]] = []
        self.visits = 0
        self.serial = next(_TAPE_SERIALS)

    def __len__(self) -> int:
        return len(self.nodes)


_ACTIVE: Tape | None = None


@contextmanager
def record(tape: Tape):
    """Make ``tape`` the active tape within the block."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = tape
    try:
        yield tape
    finally:
        _ACTIVE = prev


class Tensor:
    """Dense n-dimensional float64 array, optionally grad-enabled.

    ``grad`` is lazily allocated by the backward pass; ``tape_id`` is the
    serial of the tape that produced this tensor (None for leaves and
    constants).
    """

    __slots__ = ("values", "grad", "requires_grad", "tape_id")

    def __init__(self, values, requires_grad: bool = False) -> None:
        v = np.asarray(values, dtype=np.float64)
        self.values = v
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.tape_id: int | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def item(self) -> float:
        return float(self.values.reshape(-1)[0])

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.values.shape}{flag})"


def tensor(values) -> Tensor:
    """Constant (non-differentiable) tensor."""
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    """Grad-enabled leaf tensor."""
    return Tensor(values, requires_grad=True)


def _accum(t: Tensor, g: np.ndarray) -> None:
    """Add ``g`` into ``t.grad``. The first gradient becomes ``t.grad`` as
    it is, so the caller must have allocated ``g`` for ``t`` alone."""
    if t.grad is None:
        t.grad = g
    else:
        t.grad += g


def _emit(out: Tensor, inputs: Sequence[Tensor], vjp: Callable[..., None], *also: Tensor) -> Tensor:
    """Record one node that computes ``out`` and any ``also`` outputs from
    ``inputs``; return ``out``.

    Nothing is recorded unless a tape is active and an input requires grad.
    The node calls ``vjp`` with one gradient per output, None for an output
    nothing used, and skips the call when no output was used.
    """
    tape = _ACTIVE
    if tape is None or not any(t.requires_grad for t in inputs):
        return out
    outputs = (out, *also)
    for t in outputs:
        t.requires_grad = True
        t.tape_id = tape.serial

    def node() -> None:
        grads = [t.grad for t in outputs]
        if any(g is not None for g in grads):
            vjp(*grads)

    tape.nodes.append(node)
    return out


# ---------------------------------------------------------------------------
# core arithmetic


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Dense layer x w (+ b): x (..., n), w (n, k) and b (k,) give (..., k).

    The leading axes of x are flattened into one (rows, n) @ (n, k) product,
    and the bias is added in place: the one broadcast this module allows.
    One tape node serves the output; its backward is two products and a
    column sum on the flattened gradient.
    """
    operands = (x, w) if b is None else (x, w, b)
    xv, wv = x.values, w.values
    if xv.ndim < 1 or wv.ndim != 2 or xv.shape[-1] != wv.shape[0] or (b is not None and b.shape != (wv.shape[1],)):
        raise DimensionError(
            f"linear: x {xv.shape}, w {wv.shape}, b {None if b is None else b.shape} do not fit "
            f"(..., n) @ (n, k) + (k,)")
    k = wv.shape[1]
    x2d = xv.reshape(-1, wv.shape[0])
    y = x2d @ wv
    if b is not None:
        y += b.values

    def vjp(g: np.ndarray) -> None:
        g2d = g.reshape(-1, k)
        if x.requires_grad:
            _accum(x, (g2d @ wv.T).reshape(xv.shape))
        if w.requires_grad:
            _accum(w, x2d.T @ g2d)
        if b is not None and b.requires_grad:
            _accum(b, g2d.sum(axis=0))

    return _emit(Tensor(y.reshape(*xv.shape[:-1], k)), operands, vjp)


def _same_shape(a: Tensor, b: Tensor, name: str) -> None:
    if a.values.shape != b.values.shape:
        raise DimensionError(f"{name}: shapes {a.values.shape} and {b.values.shape} differ")


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "add")

    def vjp(g: np.ndarray) -> None:
        # g is the output's own gradient, so each operand gets a copy
        for t in (a, b):
            if t.requires_grad:
                _accum(t, g.copy())

    return _emit(Tensor(a.values + b.values), (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b, "mul")
    av, bv = a.values, b.values

    def vjp(g: np.ndarray) -> None:
        if a.requires_grad:
            _accum(a, g * bv)
        if b.requires_grad:
            _accum(b, g * av)

    return _emit(Tensor(av * bv), (a, b), vjp)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(x: Tensor) -> Tensor:
    mask = x.values > 0  # gradient at exactly 0 is 0
    return _emit(Tensor(np.where(mask, x.values, 0.0)), (x,), lambda g: _accum(x, g * mask))


def _keep_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """Boolean dropout keep mask: one uint16 draw per element, kept when at
    or above round(rate * 65536), so the drop rate holds to within 1/65,536."""
    return rng.integers(0, 65536, shape, dtype=np.uint16) >= round(rate * 65536)


# ---------------------------------------------------------------------------
# fused sublayers


LAYER_NORM_EPS = 1e-5  # added to each row's variance before the square root


def _check_norm(name: str, d: int, gain: Tensor, bias: Tensor) -> None:
    if not d or gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(f"{name}: gain {gain.shape} and bias {bias.shape} do not fit a sublayer of width {d}")


def _norm_in_place(z: np.ndarray, gain: Tensor, bias: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """Layer norm over the last axis of z, which becomes xh = (z - mean(z)) /
    s in place, s = sqrt(var(z) + LAYER_NORM_EPS); returns the output xh *
    gain + bias and the row scales s."""
    z -= z.mean(axis=-1, keepdims=True)
    s = np.sqrt(np.square(z).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS)
    z /= s
    y = z * gain.values
    y += bias.values
    return y, s


def _norm_backward(g: np.ndarray, xh: np.ndarray, s: np.ndarray, gain: Tensor, bias: Tensor) -> np.ndarray:
    """The gradient dz = (gy - mean(gy) - xh * mean(gy * xh)) / s of the
    normalised sum z, built in place in gy = g * gain from the output's
    gradient g; adds into the gradients of gain and bias."""
    d = xh.shape[-1]
    if gain.requires_grad:
        _accum(gain, (g * xh).reshape(-1, d).sum(axis=0))
    if bias.requires_grad:
        _accum(bias, g.reshape(-1, d).sum(axis=0))
    gy = g * gain.values
    m2 = (gy * xh).mean(axis=-1, keepdims=True)
    gy -= gy.mean(axis=-1, keepdims=True)
    gy -= xh * m2
    gy /= s
    return gy


def project_add_norm(h: Tensor, w: Tensor, b: Tensor, residual: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Post-norm tail of an attention sublayer, LayerNorm(h w + b + residual):
    h (..., n), w (n, k), b (k,), residual (..., k), gain and bias (k,).

    The projection is one (rows, n) @ (n, k) product with the bias added in
    place, and z = (h w + b) + residual is normalised in the product's
    buffer, so no (..., k) array is kept but xh. One node keeps xh and the
    row scales; from the norm's dz it computes dh = dz w^T, dw = h^T dz and
    db, then hands the residual dz itself and adds dh, dw and db."""
    hv, wv = h.values, w.values
    k = wv.shape[1] if wv.ndim == 2 else 0
    if (hv.ndim < 1 or wv.ndim != 2 or hv.shape[-1] != wv.shape[0] or b.shape != (k,)
            or residual.shape != (*hv.shape[:-1], k)):
        raise DimensionError(f"project_add_norm: h {hv.shape}, w {wv.shape}, b {b.shape}, residual {residual.shape} "
                             f"do not fit (..., n) @ (n, k) + (k,) + (..., k)")
    _check_norm("project_add_norm", k, gain, bias)
    h2d = hv.reshape(-1, wv.shape[0])
    xh = h2d @ wv
    xh += b.values
    xh = xh.reshape(residual.shape)
    xh += residual.values
    y, s = _norm_in_place(xh, gain, bias)

    def vjp(g: np.ndarray) -> None:
        dz = _norm_backward(g, xh, s, gain, bias)
        dz2d = dz.reshape(-1, k)
        dh = (dz2d @ wv.T).reshape(hv.shape) if h.requires_grad else None
        dw = h2d.T @ dz2d if w.requires_grad else None
        db = dz2d.sum(axis=0) if b.requires_grad else None
        if residual.requires_grad:  # dz goes in before dh, so a tensor that is h and residual gets dz + dh
            _accum(residual, dz)
        for t, grad in ((h, dh), (w, dw), (b, db)):
            if grad is not None:
                _accum(t, grad)

    return _emit(Tensor(y), (h, w, b, residual, gain, bias), vjp)


def ffn_add_norm(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, gain: Tensor, bias: Tensor,
                 rate: float = 0.0, rng: np.random.Generator | None = None) -> Tensor:
    """Post-norm feed-forward sublayer, LayerNorm(x + FFN(x)), where FFN(x) =
    dropout(relu(x w1 + b1)) w2 + b2 on the last axis: x (..., n), w1 (n, f),
    b1 (f,), w2 (f, n), b2, gain and bias (n,).

    Inverted dropout runs when rate > 0 and then needs ``rng``: one
    :func:`_keep_mask` draw after the first product; rate 0 draws nothing.
    The sum z = FFN(x) + x is normalised in the second product's buffer.
    One node keeps the hidden activations, after ReLU and dropout, xh and
    the row scales, and no mask: backward rebuilds ReLU's and dropout's
    masks, joined, as hidden > 0 (the gradient at exactly 0 is 0). It
    hands x dz itself and then adds the FFN's dx."""
    xv, w1v, w2v = x.values, w1.values, w2.values
    n = xv.shape[-1] if xv.ndim else 0
    if (xv.ndim < 1 or w1v.ndim != 2 or w2v.ndim != 2 or w1v.shape[0] != n or w2v.shape[0] != w1v.shape[1]
            or w2v.shape[1] != n or b1.shape != (w1v.shape[1],) or b2.shape != (n,)):
        raise DimensionError(f"ffn_add_norm: x {xv.shape}, w1 {w1v.shape}, b1 {b1.shape}, w2 {w2v.shape}, "
                             f"b2 {b2.shape} do not fit (..., n), (n, f), (f,), (f, n), (n,)")
    _check_norm("ffn_add_norm", n, gain, bias)
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"ffn_add_norm: dropout rate must be in [0, 1), got {rate}")
    drop = rate > 0.0
    if drop and rng is None:
        raise ContractError("ffn_add_norm: rng must be a numpy Generator when rate > 0, got None")
    keep_scale = 1.0 / (1.0 - rate)
    x2d = xv.reshape(-1, n)
    hidden = x2d @ w1v
    hidden += b1.values
    np.fmax(hidden, 0.0, out=hidden)  # ReLU; a NaN pre-activation gives 0
    if drop:
        hidden *= _keep_mask(rng, hidden.shape, rate)
        hidden *= keep_scale
    xh = hidden @ w2v
    xh += b2.values
    xh = xh.reshape(xv.shape)
    xh += xv
    y, s = _norm_in_place(xh, gain, bias)

    def vjp(g: np.ndarray) -> None:
        dz = _norm_backward(g, xh, s, gain, bias)
        dz2d = dz.reshape(-1, n)
        dw2 = hidden.T @ dz2d if w2.requires_grad else None
        db2 = dz2d.sum(axis=0) if b2.requires_grad else None
        gh = dz2d @ w2v.T
        gh *= hidden > 0  # ReLU's mask and dropout's keep mask joined
        if drop:
            gh *= keep_scale
        dx = (gh @ w1v.T).reshape(xv.shape) if x.requires_grad else None
        dw1 = x2d.T @ gh if w1.requires_grad else None
        db1 = gh.sum(axis=0) if b1.requires_grad else None
        if x.requires_grad:  # dz goes in before dx: x.grad gets dz + dx
            _accum(x, dz)
        for t, grad in ((x, dx), (w2, dw2), (b2, db2), (w1, dw1), (b1, db1)):
            if grad is not None:
                _accum(t, grad)

    return _emit(Tensor(y), (x, w1, b1, w2, b2, gain, bias), vjp)


# ---------------------------------------------------------------------------
# structure ops


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    # g is the output's own gradient, and its reshape may be a view of it
    return _emit(Tensor(x.values.reshape(shape)), (x,), lambda g: _accum(x, g.reshape(x.values.shape).copy()))


def tile_leading(x: Tensor, n: int) -> Tensor:
    """Repeat x along a new leading axis: (...,) -> (n, ...)."""
    out = Tensor(np.broadcast_to(x.values, (n, *x.values.shape)).copy())
    return _emit(out, (x,), lambda g: _accum(x, g.sum(axis=0)))


# ---------------------------------------------------------------------------
# attention


# Float64 elements in one block of attention scores: about 1 MB, so a block
# stays in a 2 MB L2 cache through its softmax and its product with V.
_BLOCK_ELEMS = 2 ** 17

# A head whose shifted exponentials leave some row sum below e^-600 reruns
# with each row's exact max as its shift. The bound can exceed a row's max
# by any amount, and exp loses digits below e^-708, where float64 turns
# subnormal, and gives 0 below e^-745. A row whose sum reaches e^-600 has a
# term of at least e^-600 / t_k, so for t_k up to e^18 (6.5e7) keys every
# term within a factor e^-90 of its largest is a normal float64, and the
# rest weigh less than one rounding of the sum.
_MIN_ROW_SUM = math.exp(-600.0)


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _run_heads(head: Callable[[object, int], None], n_calls: int, buffers: list) -> None:
    """Run ``head(buf, i)`` for every i in range(n_calls) and return when all
    are done. Worker w runs calls w, w + W, ... with ``buffers[w]``, where
    W = len(buffers).

    Worker 0 runs in this thread, and workers 1 to W - 1 on as many threads,
    which this call starts and joins before it returns or raises the first
    error any worker met; one buffer starts no thread. The caller allocates
    ``buffers``: memory a worker thread allocates stays in that thread's
    malloc arena once freed.
    """
    workers, errors, started = len(buffers), [], []

    def run(w: int) -> None:
        try:
            for i in range(w, n_calls, workers):
                head(buffers[w], i)
        except BaseException as exc:
            errors.append(exc)

    try:
        for w in range(1, workers):
            thread = threading.Thread(target=run, args=(w,), name=f"attention-head-{w}")
            thread.start()
            started.append(thread)
        run(0)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]


def _score_bounds(qs: np.ndarray, k: np.ndarray, n_heads: int) -> np.ndarray:
    """Upper bound of every row of every head's scores Q_i K_i^T: for row r of
    head i, c = sum_c max(q_rc * max_j k_jc, q_rc * min_j k_jc) over head i's
    columns c. qs is (B, t_q, d) and k (B, t_k, d), t_k >= 1; returns
    (n_heads, B, t_q, 1)."""
    B, t_q, d = qs.shape
    kmax, kmin = k.max(axis=1)[:, None], k.min(axis=1)[:, None]
    c = np.maximum(qs * kmax, qs * kmin).reshape(B, t_q, n_heads, d // n_heads).sum(axis=-1)
    return np.moveaxis(c, -1, 0)[..., None]


def _with_ones(x: np.ndarray) -> np.ndarray:
    """x (..., n) with a column of ones appended: (..., n + 1)."""
    return np.concatenate([x, np.ones((*x.shape[:-1], 1))], axis=-1)


def attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, rate: float = 0.0,
              rng: np.random.Generator | None = None, trace: list | None = None) -> Tensor:
    """Unmasked multi-head scaled dot-product attention; returns (B, t_q, d).

    q is (B, t_q, d); k and v are (B, t_k, d) with t_k >= 1. Head i owns
    column block i, of width d_head = d / n_heads, of all three and computes
        P_i = softmax(Q_i K_i^T / sqrt(d_head)),  out_i = (P_i * M_i) V_i / (1 - rate)
    into column block i of the output. M_i is 1 everywhere when ``rate`` is
    0; when ``rate`` > 0, ``rng`` must be given (``ContractError``
    otherwise). It is drawn from once, for one seed per head,
    ``rng.integers(0, 2**63, size=n_heads)``; head i seeds a generator of
    its own with seeds[i] and draws M_i from it one block of rows of q at a
    time, in row order, as uint16 draws at or above round(rate * 65536)
    (:func:`_keep_mask`), so the drop rate holds to within 1/65,536. The
    scale 1 / (1 - rate) multiplies the output, not P_i. This rule fixes
    which weights a seeded generator drops: a float rule such as
    ``rng.random(shape) >= rate`` drops others at the same rate, so a
    training run repeats for a seed only under the same rule. The masks
    depend on the seed, the shapes and ``_BLOCK_ELEMS``, which sets the
    row blocks, and not on the CPU count. Rate 0 draws nothing from
    ``rng``.

    The softmax shifts each row of scores S_i = Q_i K_i^T / sqrt(d_head) by
    an upper bound of the row, c_r = sum_c max(q_rc max_j k_jc, q_rc min_j
    k_jc) (:func:`_score_bounds`), instead of its max, so no pass over the
    scores is needed to find the shift: one product of [Q_i, -c] with
    [K_i, 1]^T gives S_i - c, and one in-place exp gives E_i <= 1. Without
    dropout, E_i [V_i, 1] gives the unnormalised output and the row sums in
    one product; with dropout the row sums are taken before the mask. The
    (t_q, d_head) output is then divided by the row sums. Softmax does not
    depend on the shift, but a bound far above the max underflows E_i: if
    any row sum of a head falls below ``_MIN_ROW_SUM`` (e^-600), that head
    reruns with each row's exact max as its shift. This is the "unified
    max" of FlashDecoding++ (Hong et al., arXiv:2311.01282), with a bound
    per row.

    Each head runs over blocks of rows of q, so that a block's (B, rows,
    t_k) scores take about 1 MB (``_BLOCK_ELEMS``); one reused buffer holds
    a block of E_i, masked in place under dropout by that block's keep mask,
    drawn just before. No (t_q, t_k) float or boolean array outlives its
    block. Besides the operands and the output, the tape keeps ``stats``, of
    shape (2, n_heads, B, t_q, 1), with each row's shift (bound or exact
    max) in stats[0] and its sum of E_i in stats[1], and under dropout
    ``keeps``, each head's keep mask packed to one bit per weight:
    ``np.packbits`` along t_k, block by block, into a (n_heads, B, t_q,
    ceil(t_k / 8)) uint8 array that the calling thread allocates. A head
    that reruns at its exact max seeds its generator afresh, so it redraws
    the same masks. It keeps no scaled copy of q: backward rebuilds q *
    scale from q's values, which gives the same bits, then [Q_i, -c] and
    [K_i, 1] from it and the kept shift, and runs the same product and exp
    on the same block shapes, so its E_i equals the forward's bit for bit
    and matches the kept row sums. It unpacks a head's mask one row block at
    a time, once per block. It folds 1 / rowsum and the dropout scale into
    g_i and into the softmax row term rowsum(dP_i * P_i) = g_i . out_i, so
    the scores' gradient is dS_i = E_i * (g'_i V_i^T [* M_i] - rowdot'_i)
    without forming P_i. It writes dq block by block and sums dk and dv over
    the blocks in reused (B, t_k, d_head) buffers, each block's product made
    with ``out=`` in a third one; an operand that needs no gradient gets no
    array and no product.
    This is the row-block recompute of FlashAttention (Dao et al.,
    arXiv:2205.14135) without the online softmax.

    When ``trace`` is given, every head's P_i (before dropout) is copied
    block by block into a full (B, t_q, t_k) array; the arrays are appended
    to it in head order.

    Heads are independent, so they run on W workers, W = min(n_heads,
    usable CPUs) when a head has at least ``_BLOCK_ELEMS`` scores (B t_q
    t_k) and W = 1 otherwise, worker w taking heads w, w + W, ...
    (:func:`_run_heads`), in forward and in backward. The calling thread is
    worker 0, and workers 1 to W - 1 run on threads that this call starts
    and joins before it returns or raises, so W = 1 starts no thread; pin a
    process to one CPU to run its heads in the calling thread alone. On any
    W, results are the same bit for bit: each head's arithmetic and draws
    do not depend on the thread that runs it, and heads write disjoint
    column blocks of the output, ``stats`` and the gradients, and disjoint
    heads of ``keeps``. Each worker reuses one set of the block buffers that
    the calling thread allocates (three in backward). The threads rely on
    numpy releasing the GIL in its products, exp and elementwise loops.
    """
    if q.values.ndim != 3 or k.values.ndim != 3 or v.shape != k.shape or q.shape[::2] != k.shape[::2]:  # (B, d)
        raise DimensionError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} are not (B, t_q, d), (B, t_k, d) x 2")
    B, t_q, d = q.shape
    t_k = k.shape[1]
    if t_k == 0:
        raise DimensionError(f"attention: k {k.shape} has no keys to attend to")
    if (isinstance(n_heads, bool) or not isinstance(n_heads, (int, np.integer)) or n_heads < 1 or d < n_heads
            or d % n_heads):
        raise DimensionError(f"attention: width {d} does not split into n_heads = {n_heads!r} heads")
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"attention: dropout rate must be in [0, 1), got {rate}")
    drop = rate > 0.0
    if drop and rng is None:
        raise ContractError("attention: rng must be a numpy Generator when rate > 0, got None")
    d_head = d // n_heads
    scale = 1.0 / math.sqrt(d_head)
    keep_scale = 1.0 / (1.0 - rate)
    qs, kv, vv = q.values * scale, k.values, v.values
    heads = [slice(lo, lo + d_head) for lo in range(0, d, d_head)]
    rows = max(1, _BLOCK_ELEMS // max(1, B * t_k))
    row_blocks = [slice(lo, min(lo + rows, t_q)) for lo in range(0, t_q, rows)]
    block_size = B * min(rows, t_q) * t_k
    workers = min(n_heads, _usable_cpus()) if B * t_q * t_k >= _BLOCK_ELEMS else 1

    def block(buf: np.ndarray, r: slice) -> np.ndarray:
        """The leading part of ``buf`` as a contiguous (B, rows in r, t_k) array."""
        n = r.stop - r.start
        return buf[:B * n * t_k].reshape(B, n, t_k)

    stats = np.empty((2, n_heads, B, t_q, 1))  # each row's shift and sum of E, kept for backward
    stats[0] = _score_bounds(qs, kv, n_heads)

    def shifted(qs: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
        """[Q_i, -shift] and [K_i, 1]^T of head i, from the scaled q: their
        product is S_i - shift."""
        cols = heads[i]
        return np.concatenate([qs[..., cols], -stats[0, i]], axis=-1), np.swapaxes(_with_ones(kv[..., cols]), -1, -2)

    def exps(buf: np.ndarray, qa: np.ndarray, kat: np.ndarray, r: slice) -> np.ndarray:
        """exp(S_i - shift) over the rows r, in ``buf``."""
        e = np.matmul(qa[:, r], kat, out=block(buf, r))
        return np.exp(e, out=e)

    y = np.empty(q.shape)
    # under dropout, one seed per head and each head's keep mask packed to one bit per weight
    seeds = rng.integers(0, 2 ** 63, size=n_heads) if drop else None
    keeps = np.empty((n_heads, B, t_q, -(-t_k // 8)), np.uint8) if drop else None
    maps = None if trace is None else [np.empty((B, t_q, t_k)) for _ in range(n_heads)]

    def head_pass(e_buf: np.ndarray, i: int) -> None:
        """Head i's unnormalised output into y, its row sums into stats[1]
        and, under dropout, its keep mask into keeps[i], drawn block by
        block from a generator seeded afresh with seeds[i]."""
        cols, row_sum = heads[i], stats[1, i]
        qa, kat = shifted(qs, i)
        va = None if drop else _with_ones(vv[..., cols])
        head_rng = np.random.default_rng(seeds[i]) if drop else None
        for r in row_blocks:
            e = exps(e_buf, qa, kat, r)
            if maps is not None:
                maps[i][:, r] = e
            if drop:
                np.sum(e, axis=-1, keepdims=True, out=row_sum[:, r])
                keep = _keep_mask(head_rng, e.shape, rate)
                e *= keep
                keeps[i, :, r] = np.packbits(keep, axis=-1)
                y[:, r, cols] = np.matmul(e, vv[..., cols])
            else:
                ya = np.matmul(e, va)
                y[:, r, cols] = ya[..., :-1]
                row_sum[:, r] = ya[..., -1:]

    def head_forward(e_buf: np.ndarray, i: int) -> None:
        """Head i's output into column block i of y, with the exact-max rerun
        when its bound underflows, and its P_i into maps[i] when traced."""
        cols = heads[i]
        head_pass(e_buf, i)
        if np.any(stats[1, i] < _MIN_ROW_SUM):
            kt = np.swapaxes(kv[..., cols], -1, -2)
            for r in row_blocks:
                s = np.matmul(qs[:, r, cols], kt, out=block(e_buf, r))
                np.max(s, axis=-1, keepdims=True, out=stats[0, i, :, r])
            head_pass(e_buf, i)
        y[..., cols] /= stats[1, i]
        if drop:
            y[..., cols] *= keep_scale
        if maps is not None:
            maps[i] /= stats[1, i]

    _run_heads(head_forward, n_heads, [np.empty(block_size) for _ in range(workers)])
    if trace is not None:
        trace.extend(maps)

    def vjp(g: np.ndarray) -> None:
        dq, dk, dv = (np.empty(t.shape) if t.requires_grad else None for t in (q, k, v))
        qs = q.values * scale

        def head_backward(bufs: tuple[np.ndarray, np.ndarray, np.ndarray], i: int) -> None:
            """Head i's column blocks of dq (unscaled), dk and dv."""
            e_buf, ds_buf, kv_buf = bufs
            cols = heads[i]
            inv_sum = 1.0 / stats[1, i]
            gi = g[..., cols]
            row_dot = (gi * y[..., cols]).sum(axis=-1, keepdims=True)  # rowsum(dP_i * P_i)
            row_dot *= inv_sum
            gi = gi * (inv_sum * keep_scale if drop else inv_sum)  # g'_i: dP_i * P_i = (g'_i V_i^T [* M_i]) * E_i
            qa, kat = shifted(qs, i)
            ki, vi = kv[..., cols], vv[..., cols]
            prod, dk_i, dv_i = kv_buf  # one block's product, and dk and dv summed over the blocks
            kv_buf[1:] = 0.0
            for r in row_blocks:
                e = exps(e_buf, qa, kat, r)
                # ds: the scores' gradient, built in place
                ds = np.matmul(gi[:, r], np.swapaxes(vi, -1, -2), out=block(ds_buf, r))
                if drop:
                    keep = np.unpackbits(keeps[i][:, r], axis=-1, count=t_k).view(bool)
                    ds *= keep
                ds -= row_dot[:, r]
                ds *= e
                if dv is not None:
                    if drop:
                        e *= keep
                    dv_i += np.matmul(np.swapaxes(e, -1, -2), gi[:, r], out=prod)
                if dq is not None:
                    dq[:, r, cols] = np.matmul(ds, ki)
                if dk is not None:
                    dk_i += np.matmul(np.swapaxes(ds, -1, -2), qs[:, r, cols], out=prod)
            if dk is not None:
                dk[..., cols] = dk_i
            if dv is not None:
                dv[..., cols] = dv_i

        _run_heads(head_backward, n_heads,
                   [(np.empty(block_size), np.empty(block_size), np.empty((3, B, t_k, d_head))) for _ in range(workers)])
        if dq is not None:
            dq *= scale
        for t, grad in ((q, dq), (k, dk), (v, dv)):
            if grad is not None:
                _accum(t, grad)

    return _emit(Tensor(y), (q, k, v), vjp)


# ---------------------------------------------------------------------------
# recurrence


def lstm_sequence(x_seq: Tensor, h0: Tensor, c0: Tensor, w: Tensor, u: Tensor,
                  b: Tensor) -> tuple[Tensor, Tensor, Tensor]:
    """An LSTM layer over a (B, T, n_in) sequence; returns (h_seq, h_T, c_T).

    Gates are stored i, f, g, o along the last axis of w (n_in, 4H), u
    (H, 4H) and b (4H,); h0 and c0 are (B, H). Per step
        z = x_s w + b + h u,  c = f * c + i * g,  h = o * tanh(c),
    with sigmoid i, f, o and tanh g. h_seq is (B, T, H), and h_T and c_T,
    the last step's states, are (B, H).

    The loop runs time-major. One product projects the inputs of all T
    steps into a (T, B, 4H) array, so each step adds h u into a contiguous
    (B, 4H) slice, and writes c and h with ``out=`` into the arrays the op
    keeps; h goes straight into h_seq through a swapped view. The step's
    only allocation is the product h u.

    Inside the op the gates run in the order o, i, f, g: w, u and b are
    rolled by H columns once per call, so the sigmoid gates sit in [0, 3H)
    and the gates that the cell-state gradient scales in [H, 4H). Their
    sigmoid-gate columns are halved, an exact power-of-two scaling, so one
    in-place tanh over the whole (B, 4H) pre-activation gives g and
    tanh(z / 2), and sigmoid(z) = (1 + tanh(z / 2)) / 2 finishes the
    sigmoid gates with two in-place scalar ops. The identity keeps every
    gate within an absolute error of about 2^-53 of the exp form
    1 / (1 + e^-z), but not within a relative one: a nearly closed gate
    has a relative error of about 2^-53 / sigmoid(z), and one below 2^-54
    may read 0.

    One tape node serves the three outputs; h_T and c_T are views of the
    last step of h_seq and of the cell states. The node keeps the
    (T, B, 4H) gate activations and the (T, B, H) cell states besides
    h_seq, and rebuilds the time-major input from x_seq when w needs a
    gradient. Its backward runs backprop through time by hand in the same
    layout: the gradient of a step's pre-activations is scaled by the
    cell-state gradient over [H, 4H) in one broadcast op and by the
    hidden-state gradient over the o block. Only the gradients of w, u and
    b are rolled back to the stored order. An output nothing used adds
    nothing: when h_seq has no consumer, its per-step gradient is never
    read.
    """
    xv, uv = x_seq.values, u.values
    if xv.ndim != 3 or xv.shape[1] < 1:
        raise DimensionError(f"lstm_sequence: input {xv.shape} is not a (B, T, n_in) sequence with T >= 1")
    B, T, n_in = xv.shape
    hidden = uv.shape[0] if uv.ndim == 2 else 0
    H4 = 4 * hidden
    if uv.shape != (hidden, H4) or w.shape != (n_in, H4) or b.shape != (H4,):
        raise DimensionError(
            f"lstm_sequence: w {w.shape}, u {uv.shape}, b {b.shape} do not fit input width {n_in} "
            f"and 4 * hidden gates")
    if h0.shape != (B, hidden) or c0.shape != (B, hidden):
        raise DimensionError(f"lstm_sequence: h0 {h0.shape} and c0 {c0.shape} must be (B, hidden) = {(B, hidden)}")

    H, H3 = hidden, 3 * hidden
    w_in, u_in, b_in = (np.roll(p.values, H, axis=-1) for p in (w, u, b))  # gate order o, i, f, g
    for p in (w_in, u_in, b_in):
        p[..., :H3] *= 0.5
    # the input's rows in time-major order: a view at B = 1, else a copy that the node does not keep
    acts = np.matmul(np.swapaxes(xv, 0, 1).reshape(T * B, n_in), w_in).reshape(T, B, H4)
    acts += b_in
    hs = np.empty((B, T, H))
    hs_t = np.swapaxes(hs, 0, 1)
    cs = np.empty((T, B, H))
    tmp = np.empty((B, H))
    h, c = h0.values, c0.values
    for z, o, i, f, g, c_s, h_s in zip(acts, acts[..., :H], acts[..., H:2 * H], acts[..., 2 * H:H3],
                                       acts[..., H3:], cs, hs_t):
        z += h @ u_in
        np.tanh(z, out=z)
        sig = z[:, :H3]
        sig *= 0.5
        sig += 0.5
        np.multiply(f, c, out=c_s)
        np.multiply(i, g, out=tmp)
        c_s += tmp
        np.tanh(c_s, out=tmp)
        np.multiply(o, tmp, out=h_s)
        h, c = h_s, c_s

    def vjp(gh: np.ndarray | None, gh_last: np.ndarray | None, gc: np.ndarray | None) -> None:
        o, i, f, g = (acts[..., k * H:(k + 1) * H] for k in range(4))
        # dz starts as the local factors of the four gate pre-activations and
        # is scaled in place, step by step, by the cell-state gradient (i, f
        # and g) or the hidden-state gradient (o). Built with ``out=`` so the
        # factors need no temporary beyond dz and tanh(c).
        dz = np.empty_like(acts)
        do, di, df, dg = (dz[..., k * H:(k + 1) * H] for k in range(4))
        np.subtract(1.0, acts[..., :H3], out=dz[..., :H3])
        dz[..., :H3] *= acts[..., :H3]  # s (1 - s) of o, i and f
        tc = np.tanh(cs)
        do *= tc
        di *= g
        df[0] *= c0.values
        df[1:] *= cs[:-1]
        np.square(g, out=dg)
        np.subtract(1.0, dg, out=dg)
        dg *= i
        dc_dh = tc  # turned in place into o * (1 - tanh(c)^2)
        np.square(dc_dh, out=dc_dh)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o
        dz_gates = dz.reshape(T, B, 4, H)
        ut = np.ascontiguousarray(np.roll(uv, H, axis=1).T)
        dh = np.zeros((B, H)) if gh_last is None else gh_last.copy()
        dc = np.zeros((B, H)) if gc is None else gc.copy()
        dc_step = np.empty((B, H))
        for s in range(T - 1, -1, -1):
            if gh is not None:
                dh += gh[:, s]
            np.multiply(dh, dc_dh[s], out=dc_step)
            dc += dc_step
            dz_gates[s, :, 1:] *= dc[:, None]
            dz_gates[s, :, 0] *= dh
            np.matmul(dz[s], ut, out=dh)
            dc *= f[s]
        dz2d = dz.reshape(T * B, H4)
        if x_seq.requires_grad:
            _accum(x_seq, np.matmul(np.swapaxes(dz, 0, 1), np.roll(w.values, H, axis=1).T))
        if w.requires_grad:
            _accum(w, np.roll(np.swapaxes(xv, 0, 1).reshape(T * B, n_in).T @ dz2d, -H, axis=1))
        if u.requires_grad:
            h_prev = np.concatenate([h0.values[None], hs_t[:-1]]).reshape(T * B, H)
            _accum(u, np.roll(h_prev.T @ dz2d, -H, axis=1))
        if b.requires_grad:
            _accum(b, np.roll(dz2d.sum(axis=0), -H))
        if h0.requires_grad:
            _accum(h0, dh)
        if c0.requires_grad:
            _accum(c0, dc)

    h_last, c_last = Tensor(h), Tensor(c)  # views of the last step of hs and cs
    return _emit(Tensor(hs), (x_seq, h0, c0, w, u, b), vjp, h_last, c_last), h_last, c_last


# ---------------------------------------------------------------------------
# reductions and losses


def rmse(pred: Tensor, truth: Tensor) -> Tensor:
    """Root mean square error as a scalar tensor.

    The derivative at zero error is defined as 0 (subgradient choice), so a
    perfect fit never divides by zero.
    """
    if pred.values.shape != truth.values.shape:
        raise DimensionError(f"rmse: shapes {pred.values.shape} and {truth.values.shape} differ")
    if pred.values.size == 0:
        raise ContractError("rmse: empty operands")
    diff = pred.values - truth.values
    r = math.sqrt(float((diff * diff).mean()))

    def vjp(g: np.ndarray) -> None:
        scale = 0.0 if r == 0.0 else float(g) / (diff.size * r)
        if pred.requires_grad:
            _accum(pred, scale * diff)
        if truth.requires_grad:
            _accum(truth, -scale * diff)

    return _emit(Tensor(r), (pred, truth), vjp)


# ---------------------------------------------------------------------------
# backward pass


def backward(tape: Tape, root: Tensor) -> None:
    """Accumulate d root / d leaf into every grad-enabled ancestor of root.

    Each tape node is executed exactly once, in reverse recording order, and
    taken off the tape before it runs, so its saved arrays, and the
    gradients of outputs that no earlier node reads, are freed as soon as it
    returns. ``tape.visits`` counts executed nodes, and ``len(tape)`` reads 0
    afterwards. The tape is then used up: a second call on it raises
    ContractError.
    """
    if root.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    if root.tape_id != tape.serial:
        raise ContractError("backward root was not recorded on this tape")
    if tape.visits:
        raise ContractError("backward already ran on this tape; a tape is single-use, record a new one")
    root.grad = np.ones_like(root.values)
    nodes = tape.nodes
    while nodes:
        nodes.pop()()
        tape.visits += 1
