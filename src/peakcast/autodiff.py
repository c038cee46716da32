"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: while a :class:`Tape` is active (see :func:`record`), every
operation involving a grad-enabled tensor appends one backward closure to the
tape. :func:`backward` replays the tape in reverse, visiting each node exactly
once, and accumulates ``d root / d leaf`` into ``Tensor.grad``.

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

A fused op records one node for a whole computation: :func:`linear`
runs a dense layer (product and bias), :func:`attention` every head of a
multi-head attention block, and :func:`lstm_sequence` a whole LSTM layer,
whose node serves both its outputs (the hidden sequence and the last
cell state).

:func:`attention` runs its heads, forward and backward, on one
process-wide pool of threads, one per usable CPU, when two or more CPUs
are usable, there are two or more heads and a head has at least
``_BLOCK_ELEMS`` scores; smaller calls run their heads serially. Either
way the results are the same bit for bit, and dropout masks are drawn in
head order by the calling thread, so a seed gives the same run on any CPU
count; pin a process to one CPU to run it serially. The pool is made on
first use, and a forked child makes its own on its first pooled call. It
assumes a single-threaded BLAS (for OpenBLAS, ``OPENBLAS_NUM_THREADS=1``);
a BLAS that threads each product too competes with it for the CPUs.

Shapes follow numpy row-major conventions. Elementwise ops take equal
shapes only; the one broadcast is the (k,) bias inside :func:`linear`, so
no silent broadcasting ever happens.
"""

from __future__ import annotations

import itertools
import math
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import ThreadPoolExecutor


class DimensionError(ValueError):
    """Raised when operand shapes are incompatible for an operation."""


class ContractError(ValueError):
    """Raised when an operation is called outside its contract."""


_TAPE_SERIALS = itertools.count(1)


class Tape:
    """Ordered record of backward closures, parents always before children.

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

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flag = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.values.shape}{flag})"


def tensor(values) -> Tensor:
    """Constant (non-differentiable) tensor."""
    return Tensor(values, requires_grad=False)


def parameter(values) -> Tensor:
    """Grad-enabled leaf tensor."""
    return Tensor(values, requires_grad=True)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


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
    x, w = _as_tensor(x), _as_tensor(w)
    b = None if b is None else _as_tensor(b)
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


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _same_shape(a, b, "add")

    def vjp(g: np.ndarray) -> None:
        # g is the output's own gradient, so each operand gets a copy
        for t in (a, b):
            if t.requires_grad:
                _accum(t, g.copy())

    return _emit(Tensor(a.values + b.values), (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
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
    x = _as_tensor(x)
    mask = x.values > 0  # gradient at exactly 0 is 0
    return _emit(Tensor(np.where(mask, x.values, 0.0)), (x,), lambda g: _accum(x, g * mask))


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    y = np.tanh(x.values)
    return _emit(Tensor(y), (x,), lambda g: _accum(x, g * (1.0 - y * y)))


def _sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e) or e/(1+e), e = exp(-|v|)."""
    e = np.exp(-np.abs(v))
    return np.divide(np.where(v >= 0, 1.0, e), 1.0 + e, out=out)


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    y = _sigmoid(x.values)
    return _emit(Tensor(y), (x,), lambda g: _accum(x, g * y * (1.0 - y)))


ACTIVATIONS = {"relu": relu, "tanh": tanh, "sigmoid": sigmoid}


def activation(kind: str, x: Tensor) -> Tensor:
    try:
        return ACTIVATIONS[kind](x)
    except KeyError:
        raise ContractError(f"unknown activation {kind!r}; expected one of {sorted(ACTIVATIONS)}") from None


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Backward uses the closed form: with xh the normalized values, s the
    per-row std and gy = grad * gain,
        dx = (gy - mean(gy) - xh * mean(gy * xh)) / s.
    """
    if eps <= 0:
        raise ContractError("layer_norm: eps must be > 0")
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.values.shape[-1]
    if gain.values.shape != (d,) or bias.values.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias shapes {gain.values.shape}/{bias.values.shape} do not match last axis {d}")
    mu = x.values.mean(axis=-1, keepdims=True)
    var = ((x.values - mu) ** 2).mean(axis=-1, keepdims=True)
    s = np.sqrt(var + eps)
    xh = (x.values - mu) / s

    def vjp(g: np.ndarray) -> None:
        if gain.requires_grad:
            _accum(gain, (g * xh).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gy = g * gain.values
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * xh).mean(axis=-1, keepdims=True)
            _accum(x, (gy - m1 - xh * m2) / s)

    return _emit(Tensor(xh * gain.values + bias.values), (x, gain, bias), vjp)


def _keep_mask(rng: np.random.Generator, shape: tuple[int, ...], rate: float) -> np.ndarray:
    """Boolean dropout keep mask: one uint16 draw per element, kept when at
    or above round(rate * 65536), so the drop rate holds to within 1/65,536."""
    return rng.integers(0, 65536, shape, dtype=np.uint16) >= round(rate * 65536)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate == 0. The keep mask follows
    :func:`_keep_mask`, the rule :func:`attention` uses too."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout: dropout rate must be in [0, 1), got {rate}")
    if rng is None:
        raise ContractError("dropout: rng must be a numpy Generator, got None")
    if rate == 0.0:
        return x
    x = _as_tensor(x)
    keep = _keep_mask(rng, x.values.shape, rate)
    keep_scale = 1.0 / (1.0 - rate)
    y = x.values * keep
    y *= keep_scale

    def vjp(g: np.ndarray) -> None:
        gx = g * keep
        gx *= keep_scale
        _accum(x, gx)

    return _emit(Tensor(y), (x,), vjp)


# ---------------------------------------------------------------------------
# structure ops


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    # g is the output's own gradient, and its reshape may be a view of it
    return _emit(Tensor(x.values.reshape(shape)), (x,), lambda g: _accum(x, g.reshape(x.values.shape).copy()))


def tile_leading(x: Tensor, n: int) -> Tensor:
    """Repeat x along a new leading axis: (...,) -> (n, ...)."""
    x = _as_tensor(x)
    out = Tensor(np.broadcast_to(x.values, (n, *x.values.shape)).copy())
    return _emit(out, (x,), lambda g: _accum(x, g.sum(axis=0)))


def last_step(x: Tensor) -> Tensor:
    """x[..., -1, :], the last step of a (..., T, d) sequence."""
    x = _as_tensor(x)
    if x.values.ndim < 2:
        raise DimensionError(f"last_step needs >=2-D, got {x.values.shape}")

    def vjp(g: np.ndarray) -> None:
        full = np.zeros_like(x.values)
        full[..., -1, :] = g
        _accum(x, full)

    return _emit(Tensor(x.values[..., -1, :]), (x,), vjp)


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

# The threads that run attention heads; see _head_pool.
_POOL: ThreadPoolExecutor | None = None


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def _head_pool() -> ThreadPoolExecutor:
    """The pool that runs attention heads, shared by all calls in the
    process and made on first use with one thread per usable CPU."""
    global _POOL
    if _POOL is None:
        # imported here: concurrent.futures imports logging, ~0.75 MB that
        # a process whose heads all run serially need not load
        from concurrent.futures import ThreadPoolExecutor

        _POOL = ThreadPoolExecutor(_usable_cpus(), thread_name_prefix="attention-head")
    return _POOL


def _forget_pool() -> None:
    """Drop the pool in a forked child. The child copies the executor but
    none of its threads, so work submitted to the copy would never run;
    its first pooled call makes a new pool instead."""
    global _POOL
    _POOL = None


os.register_at_fork(after_in_child=_forget_pool)


def _run_heads(head: Callable[..., None], calls: Iterable[tuple], buffers: list, pooled: bool) -> None:
    """Run ``head(buf, *args)`` for every ``args`` that ``calls`` yields and
    return when all are done. ``buf`` is one of ``buffers`` that no running
    call holds, so the calls running at once are at most len(buffers).

    Serial, every call runs in this thread with buffers[0]. Pooled, each is
    submitted to the shared pool as soon as ``calls`` yields it, so the work
    ``calls`` does in this thread before its next yield overlaps the heads
    already submitted. The caller allocates ``buffers``: memory a pool
    thread allocates stays in that thread's malloc arena once freed.
    """
    if not pooled:
        for args in calls:
            head(buffers[0], *args)
        return
    import queue  # loaded, like concurrent.futures, only by processes that pool

    free = queue.SimpleQueue()
    for buf in buffers:
        free.put(buf)

    def run(*args) -> None:
        buf = free.get()
        try:
            head(buf, *args)
        finally:
            free.put(buf)

    pool = _head_pool()
    for future in [pool.submit(run, *args) for args in calls]:
        future.result()


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
    into column block i of the output. M_i is 1 everywhere unless ``rng``
    is given and ``rate`` > 0; then each head draws its boolean keep mask
    once, in head order, as uint16 draws at or above round(rate * 65536)
    (:func:`_keep_mask`), so the drop rate holds to within 1/65,536. The
    scale 1 / (1 - rate) multiplies the output, not P_i. This rule fixes
    which weights a seeded generator drops: a float rule such as
    ``rng.random(shape) >= rate`` drops others at the same rate, so a
    training run repeats for a seed only under the same rule. Eval mode and
    dropout off draw nothing from ``rng``.

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

    Each head runs over blocks of rows of q, so that a block's
    (B, rows, t_k) scores take about 1 MB (``_BLOCK_ELEMS``); one reused
    buffer holds a block of E_i, masked in place under dropout. No
    (t_q, t_k) float array outlives its block: the tape keeps ``stats``, of shape
    (2, n_heads, B, t_q, 1), with each row's shift (bound or exact max) in
    stats[0] and its sum of E_i in stats[1], and the keep masks. Backward
    rebuilds [Q_i, -c] and [K_i, 1] from the kept values and shift, and
    runs the same product and exp on the same block shapes, so its E_i
    equals the forward's bit for bit and matches the kept row sums. It
    folds 1 / rowsum and the dropout scale into g_i and into the softmax
    row term rowsum(dP_i * P_i) = g_i . out_i, so the scores' gradient is
    dS_i = E_i * (g'_i V_i^T [* M_i] - rowdot'_i) without forming P_i. It
    writes dq block by block and accumulates dk and dv over the blocks.
    This is the row-block recompute of FlashAttention (Dao et al.,
    arXiv:2205.14135) without the online softmax.

    When ``trace`` is given, every head's P_i (before dropout) is copied
    block by block into a full (B, t_q, t_k) array; the arrays are appended
    to it in head order.

    Heads are independent, so they run on a shared pool of threads, one per
    usable CPU (:func:`_head_pool`), in forward and in backward, when two or
    more CPUs are usable, n_heads >= 2 and a head has at least
    ``_BLOCK_ELEMS`` scores (B t_q t_k). Smaller calls run their heads one
    after another in the calling thread, through the same per-head code; to
    run a process serially, pin it to one CPU. Pooled or not, results are
    the same bit for bit: each head's arithmetic does not depend on the
    thread that runs it, and heads write disjoint column blocks of the
    output, ``stats`` and the gradients. The calling thread draws each
    head's keep mask in head order before it submits that head, so a seed
    gives the same run on any CPU count, and the draws overlap the heads
    already running. Each head in flight holds one of the block buffers that
    the calling thread allocates and reuses (two in backward). The pool
    relies on numpy releasing the GIL in its products, exp and elementwise
    loops, and assumes a single-threaded BLAS: a BLAS that threads each
    product as well contends with the pool for the same CPUs. A process
    forked after a pooled call drops the inherited pool, whose threads do
    not exist in the child, and makes a new one on its first pooled call
    (:func:`_forget_pool`).
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.values.ndim != 3 or k.values.ndim != 3 or v.shape != k.shape or q.shape[::2] != k.shape[::2]:  # (B, d)
        raise DimensionError(f"attention: q {q.shape}, k {k.shape}, v {v.shape} are not (B, t_q, d), (B, t_k, d) x 2")
    B, t_q, d = q.shape
    t_k = k.shape[1]
    if t_k == 0:
        raise DimensionError(f"attention: k {k.shape} has no keys to attend to")
    if n_heads < 1 or d < n_heads or d % n_heads:
        raise DimensionError(f"attention: width {d} does not split into n_heads = {n_heads} heads")
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"attention: dropout rate must be in [0, 1), got {rate}")
    d_head = d // n_heads
    scale = 1.0 / math.sqrt(d_head)
    drop = rng is not None and rate > 0.0
    keep_scale = 1.0 / (1.0 - rate)
    qs, kv, vv = q.values * scale, k.values, v.values
    heads = [slice(lo, lo + d_head) for lo in range(0, d, d_head)]
    rows = max(1, _BLOCK_ELEMS // max(1, B * t_k))
    row_blocks = [slice(lo, min(lo + rows, t_q)) for lo in range(0, t_q, rows)]
    block_size = B * min(rows, t_q) * t_k
    workers = min(n_heads, _usable_cpus()) if n_heads >= 2 and B * t_q * t_k >= _BLOCK_ELEMS else 1
    pooled = workers >= 2

    def block(buf: np.ndarray, r: slice) -> np.ndarray:
        """The leading part of ``buf`` as a contiguous (B, rows in r, t_k) array."""
        n = r.stop - r.start
        return buf[:B * n * t_k].reshape(B, n, t_k)

    stats = np.empty((2, n_heads, B, t_q, 1))  # each row's shift and sum of E, kept for backward
    stats[0] = _score_bounds(qs, kv, n_heads)

    def shifted(i: int) -> tuple[np.ndarray, np.ndarray]:
        """[Q_i, -shift] and [K_i, 1]^T of head i: their product is S_i - shift."""
        cols = heads[i]
        return np.concatenate([qs[..., cols], -stats[0, i]], axis=-1), np.swapaxes(_with_ones(kv[..., cols]), -1, -2)

    def exps(buf: np.ndarray, qa: np.ndarray, kat: np.ndarray, r: slice) -> np.ndarray:
        """exp(S_i - shift) over the rows r, in ``buf``."""
        e = np.matmul(qa[:, r], kat, out=block(buf, r))
        return np.exp(e, out=e)

    y = np.empty(q.shape)

    def head_pass(e_buf: np.ndarray, i: int, keep: np.ndarray | None, full: np.ndarray | None) -> None:
        """Head i's unnormalised output into y and its row sums into stats[1]."""
        cols, row_sum = heads[i], stats[1, i]
        qa, kat = shifted(i)
        va = None if drop else _with_ones(vv[..., cols])
        for r in row_blocks:
            e = exps(e_buf, qa, kat, r)
            if full is not None:
                full[:, r] = e
            if drop:
                np.sum(e, axis=-1, keepdims=True, out=row_sum[:, r])
                e *= keep[:, r]
                y[:, r, cols] = np.matmul(e, vv[..., cols])
            else:
                ya = np.matmul(e, va)
                y[:, r, cols] = ya[..., :-1]
                row_sum[:, r] = ya[..., -1:]

    def head_forward(e_buf: np.ndarray, i: int, keep: np.ndarray | None, full: np.ndarray | None) -> None:
        """Head i's output into column block i of y, with the exact-max rerun
        when its bound underflows, and its P_i into ``full`` when traced."""
        cols = heads[i]
        head_pass(e_buf, i, keep, full)
        if np.any(stats[1, i] < _MIN_ROW_SUM):
            kt = np.swapaxes(kv[..., cols], -1, -2)
            for r in row_blocks:
                s = np.matmul(qs[:, r, cols], kt, out=block(e_buf, r))
                np.max(s, axis=-1, keepdims=True, out=stats[0, i, :, r])
            head_pass(e_buf, i, keep, full)
        y[..., cols] /= stats[1, i]
        if drop:
            y[..., cols] *= keep_scale
        if full is not None:
            full /= stats[1, i]

    keeps: list[np.ndarray | None] = []
    maps: list[np.ndarray | None] = []

    def forward_calls():
        """Each head's arguments in head order, its keep mask drawn here, in
        the calling thread, just before the head is yielded."""
        for i in range(n_heads):
            keeps.append(_keep_mask(rng, (B, t_q, t_k), rate) if drop else None)
            maps.append(None if trace is None else np.empty((B, t_q, t_k)))
            yield i, keeps[i], maps[i]

    _run_heads(head_forward, forward_calls(), [np.empty(block_size) for _ in range(workers)], pooled)
    if trace is not None:
        trace.extend(maps)

    def vjp(g: np.ndarray) -> None:
        dq, dk, dv = (np.empty(t.shape) if t.requires_grad else None for t in (q, k, v))

        def head_backward(bufs: tuple[np.ndarray, np.ndarray], i: int) -> None:
            """Head i's column blocks of dq (unscaled), dk and dv."""
            e_buf, ds_buf = bufs
            cols = heads[i]
            inv_sum = 1.0 / stats[1, i]
            gi = g[..., cols]
            row_dot = (gi * y[..., cols]).sum(axis=-1, keepdims=True)  # rowsum(dP_i * P_i)
            row_dot *= inv_sum
            gi = gi * (inv_sum * keep_scale if drop else inv_sum)  # g'_i: dP_i * P_i = (g'_i V_i^T [* M_i]) * E_i
            qa, kat = shifted(i)
            ki, vi = kv[..., cols], vv[..., cols]
            dk_i = np.zeros((B, t_k, d_head))
            dv_i = np.zeros((B, t_k, d_head))
            for r in row_blocks:
                e = exps(e_buf, qa, kat, r)
                # ds: the scores' gradient, built in place
                ds = np.matmul(gi[:, r], np.swapaxes(vi, -1, -2), out=block(ds_buf, r))
                if drop:
                    ds *= keeps[i][:, r]
                ds -= row_dot[:, r]
                ds *= e
                if drop:
                    e *= keeps[i][:, r]
                dv_i += np.matmul(np.swapaxes(e, -1, -2), gi[:, r])
                if dq is not None:
                    dq[:, r, cols] = np.matmul(ds, ki)
                dk_i += np.matmul(np.swapaxes(ds, -1, -2), qs[:, r, cols])
            if dk is not None:
                dk[..., cols] = dk_i
            if dv is not None:
                dv[..., cols] = dv_i

        _run_heads(head_backward, ((i,) for i in range(n_heads)),
                   [(np.empty(block_size), np.empty(block_size)) for _ in range(workers)], pooled)
        if dq is not None:
            dq *= scale
        for t, grad in ((q, dq), (k, dk), (v, dv)):
            if grad is not None:
                _accum(t, grad)

    return _emit(Tensor(y), (q, k, v), vjp)


# ---------------------------------------------------------------------------
# recurrence


def lstm_sequence(x_seq: Tensor, h0: Tensor, c0: Tensor, w: Tensor, u: Tensor, b: Tensor) -> tuple[Tensor, Tensor]:
    """An LSTM layer over a (B, T, n_in) sequence; returns (h_seq, c_T).

    Gates are stacked i, f, g, o along the last axis of w (n_in, 4H), u
    (H, 4H) and b (4H,); h0 and c0 are (B, H). Per step
        z = x_s w + b + h u,  c = f * c + i * g,  h = o * tanh(c),
    with sigmoid i, f, o and tanh g. h_seq is (B, T, H) and c_T is (B, H).

    The input projection of all T steps is one matmul; the loop over steps
    runs on plain arrays and keeps the gate activations and cell states.
    One tape node serves both outputs, and its backward runs backprop
    through time by hand.
    """
    x_seq, h0, c0, w, u, b = (_as_tensor(t) for t in (x_seq, h0, c0, w, u, b))
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

    x2d = xv.reshape(B * T, n_in)
    acts = np.matmul(x2d, w.values).reshape(B, T, H4)
    acts += b.values
    hs = np.empty((B, T, hidden))
    cs = np.empty((B, T, hidden))
    h, c = h0.values, c0.values
    for s in range(T):
        z = acts[:, s]
        z += h @ uv
        g = np.tanh(z[:, 2 * hidden:3 * hidden])
        _sigmoid(z, out=z)
        z[:, 2 * hidden:3 * hidden] = g
        c = z[:, hidden:2 * hidden] * c + z[:, :hidden] * g
        h = z[:, 3 * hidden:] * np.tanh(c)
        cs[:, s] = c
        hs[:, s] = h

    def vjp(gh: np.ndarray | None, gc: np.ndarray | None) -> None:
        i, f, g, o = (acts[..., k * hidden:(k + 1) * hidden] for k in range(4))
        # dz starts as the local factors of the four gate pre-activations and
        # is scaled in place, step by step, by the cell-state gradient (i, f
        # and g) or the hidden-state gradient (o). Built with ``out=`` so the
        # factors need no temporary beyond dz and tanh(c).
        dz = np.empty_like(acts)
        di, df, dg, do = (dz[..., k * hidden:(k + 1) * hidden] for k in range(4))
        np.subtract(1.0, i, out=di)
        di *= i
        di *= g
        np.subtract(1.0, f, out=df)
        df *= f
        df[:, 0] *= c0.values
        df[:, 1:] *= cs[:, :-1]
        np.square(g, out=dg)
        np.subtract(1.0, dg, out=dg)
        dg *= i
        tc = np.tanh(cs)
        np.subtract(1.0, o, out=do)
        do *= o
        do *= tc
        dc_dh = tc  # turned in place into o * (1 - tanh(c)^2)
        np.square(dc_dh, out=dc_dh)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o
        dz_gates = dz.reshape(B, T, 4, hidden)
        ut = np.ascontiguousarray(uv.T)
        dh = np.zeros((B, hidden))
        dc = np.zeros((B, hidden)) if gc is None else gc.copy()
        for s in range(T - 1, -1, -1):
            if gh is not None:
                dh += gh[:, s]
            dc += dh * dc_dh[:, s]
            dz_gates[:, s, :3] *= dc[:, None, :]
            dz_gates[:, s, 3] *= dh
            dh = dz[:, s] @ ut
            dc = dc * f[:, s]
        dz2d = dz.reshape(B * T, H4)
        if x_seq.requires_grad:
            _accum(x_seq, (dz2d @ w.values.T).reshape(B, T, n_in))
        if w.requires_grad:
            _accum(w, x2d.T @ dz2d)
        if u.requires_grad:
            h_prev = np.concatenate([h0.values[:, None], hs[:, :-1]], axis=1)
            _accum(u, h_prev.reshape(B * T, hidden).T @ dz2d)
        if b.requires_grad:
            _accum(b, dz2d.sum(axis=0))
        if h0.requires_grad:
            _accum(h0, dh)
        if c0.requires_grad:
            _accum(c0, dc)

    c_last = Tensor(c)
    return _emit(Tensor(hs), (x_seq, h0, c0, w, u, b), vjp, c_last), c_last


# ---------------------------------------------------------------------------
# reductions and losses


def sum_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    return _emit(Tensor(x.values.sum()), (x,), lambda g: _accum(x, np.full_like(x.values, float(g))))


def rmse(pred: Tensor, truth: Tensor) -> Tensor:
    """Root mean square error as a scalar tensor.

    The derivative at zero error is defined as 0 (subgradient choice), so a
    perfect fit never divides by zero.
    """
    pred, truth = _as_tensor(pred), _as_tensor(truth)
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
# backward pass and the finite-difference oracle


def backward(tape: Tape, root: Tensor) -> None:
    """Accumulate d root / d leaf into every grad-enabled ancestor of root.

    Each tape node is executed exactly once, in reverse recording order;
    ``tape.visits`` counts executed nodes.
    """
    if root.size != 1:
        raise ContractError(f"backward root must be scalar, got shape {root.shape}")
    if root.tape_id != tape.serial:
        raise ContractError("backward root was not recorded on this tape")
    root.grad = np.ones_like(root.values)
    for node in reversed(tape.nodes):
        node()
        tape.visits += 1


def _grad_of(f: Callable[[Tensor], Tensor], x: Tensor) -> np.ndarray:
    """Analytic gradient of scalar-valued ``f`` at ``x`` via a fresh tape."""
    was = x.requires_grad
    x.requires_grad = True
    x.zero_grad()
    tape = Tape()
    with record(tape):
        out = f(x)
    backward(tape, out)
    g = np.zeros_like(x.values) if x.grad is None else x.grad.copy()
    x.requires_grad = was
    x.zero_grad()
    return g


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    Per coordinate: |analytic - numeric| / max(1, |analytic|). Function
    evaluations for the differences run untraced.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ContractError(f"finite_diff_check: eps {eps} outside [1e-7, 1e-3]")
    analytic = _grad_of(f, x)
    flat = x.values.reshape(-1)
    numeric = np.empty_like(analytic).reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(x).item()
        flat[i] = orig - eps
        fm = f(x).item()
        flat[i] = orig
        numeric[i] = (fp - fm) / (2.0 * eps)
    numeric = numeric.reshape(analytic.shape)
    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    return float(rel.max())
