"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: while a :class:`Tape` is active (see :func:`record`), every
operation involving a grad-enabled tensor appends one backward closure to the
tape. :func:`backward` replays the tape in reverse, visiting each node exactly
once, and accumulates ``d root / d leaf`` into ``Tensor.grad``.

A fused op records one node for a whole computation and may produce
several output tensors from it (:func:`lstm_sequence` returns the hidden
sequence and the last cell state). Every output is recorded before any
of its consumers, so when the node runs, all their gradients are final;
an output nothing used keeps ``grad`` None and contributes zero.

Shapes follow numpy row-major conventions. Broadcasting is deliberately
restricted: elementwise ops accept equal shapes or a scalar paired with a
tensor, nothing else. Row-vector bias addition is its own named op
(:func:`add_bias`) so no silent broadcasting ever happens.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np


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
    if t.grad is None:
        # A copy, never ``g`` itself: several backward closures hand on views
        # of their output's gradient, which other tensors may also receive.
        t.grad = g.copy()
    else:
        t.grad += g


def _emit(out: Tensor, bw: Callable[[], None], *also: Tensor) -> Tensor:
    """Register one node that produces ``out`` and any ``also`` outputs."""
    tape = _ACTIVE
    for t in (out, *also):
        t.requires_grad = True
        t.tape_id = tape.serial
    tape.nodes.append(bw)
    return out


def _tracing(*operands: Tensor) -> bool:
    return _ACTIVE is not None and any(t.requires_grad for t in operands)


# ---------------------------------------------------------------------------
# core arithmetic


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes.

    Accepts 2-D x 2-D, stacked (..., p, q) @ (..., q, r) with identical
    leading axes, and stacked (..., p, q) @ (q, r) where the 2-D right-hand
    side is shared across the stack (its gradient sums over the stack).
    """
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.values, b.values
    if av.ndim < 2 or bv.ndim < 2:
        raise DimensionError(f"matmul needs >=2-D operands, got {av.shape} @ {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise DimensionError(f"matmul inner dimensions differ: {av.shape} @ {bv.shape}")
    if bv.ndim > 2 and av.shape[:-2] != bv.shape[:-2]:
        raise DimensionError(f"matmul leading axes differ: {av.shape} @ {bv.shape}")
    out = Tensor(np.matmul(av, bv))
    if not _tracing(a, b):
        return out

    def bw() -> None:
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            _accum(a, np.matmul(g, np.swapaxes(bv, -1, -2)))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(av, -1, -2), g)
            if bv.ndim == 2 and gb.ndim > 2:
                gb = gb.reshape(-1, *gb.shape[-2:]).sum(axis=0)
            _accum(b, gb)

    return _emit(out, bw)


def _scalar_pair(a: Tensor, b: Tensor, name: str) -> None:
    if a.values.shape == b.values.shape:
        return
    if a.values.ndim == 0 or b.values.ndim == 0:
        return
    raise DimensionError(f"{name}: shapes {a.values.shape} and {b.values.shape} differ (only scalar broadcast allowed)")


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Collapse a gradient onto a scalar operand's shape."""
    if g.shape == shape:
        return g
    return np.asarray(g.sum(), dtype=np.float64).reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _scalar_pair(a, b, "add")
    out = Tensor(a.values + b.values)
    if not _tracing(a, b):
        return out

    def bw() -> None:
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            _accum(a, _reduce_to(g, a.values.shape))
        if b.requires_grad:
            _accum(b, _reduce_to(g, b.values.shape))

    return _emit(out, bw)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _scalar_pair(a, b, "sub")
    out = Tensor(a.values - b.values)
    if not _tracing(a, b):
        return out

    def bw() -> None:
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            _accum(a, _reduce_to(g, a.values.shape))
        if b.requires_grad:
            _accum(b, _reduce_to(-g, b.values.shape))

    return _emit(out, bw)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _scalar_pair(a, b, "mul")
    av, bv = a.values, b.values
    out = Tensor(av * bv)
    if not _tracing(a, b):
        return out

    def bw() -> None:
        g = out.grad
        if g is None:
            return
        if a.requires_grad:
            _accum(a, _reduce_to(g * bv, a.values.shape))
        if b.requires_grad:
            _accum(b, _reduce_to(g * av, b.values.shape))

    return _emit(out, bw)


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """x[..., d] + b[d], the one sanctioned row-vector broadcast."""
    x, b = _as_tensor(x), _as_tensor(b)
    if b.values.ndim != 1 or x.values.shape[-1] != b.values.shape[0]:
        raise DimensionError(f"add_bias: shapes {x.values.shape} and {b.values.shape} incompatible")
    out = Tensor(x.values + b.values)
    if not _tracing(x, b):
        return out

    def bw() -> None:
        g = out.grad
        if g is None:
            return
        if x.requires_grad:
            _accum(x, g)
        if b.requires_grad:
            _accum(b, g.reshape(-1, g.shape[-1]).sum(axis=0))

    return _emit(out, bw)


# ---------------------------------------------------------------------------
# nonlinearities


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    mask = x.values > 0  # gradient at exactly 0 is 0
    out = Tensor(np.where(mask, x.values, 0.0))
    if not _tracing(x):
        return out

    def bw() -> None:
        if out.grad is not None and x.requires_grad:
            _accum(x, out.grad * mask)

    return _emit(out, bw)


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    y = np.tanh(x.values)
    out = Tensor(y)
    if not _tracing(x):
        return out

    def bw() -> None:
        if out.grad is not None and x.requires_grad:
            _accum(x, out.grad * (1.0 - y * y))

    return _emit(out, bw)


def _sigmoid(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e) or e/(1+e), e = exp(-|v|)."""
    e = np.exp(-np.abs(v))
    return np.divide(np.where(v >= 0, 1.0, e), 1.0 + e, out=out)


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    y = _sigmoid(x.values)
    out = Tensor(y)
    if not _tracing(x):
        return out

    def bw() -> None:
        if out.grad is not None and x.requires_grad:
            _accum(x, out.grad * y * (1.0 - y))

    return _emit(out, bw)


_ACTIVATIONS = {"relu": relu, "tanh": tanh, "sigmoid": sigmoid}


def activation(kind: str, x: Tensor) -> Tensor:
    try:
        return _ACTIVATIONS[kind](x)
    except KeyError:
        raise ContractError(f"unknown activation {kind!r}; expected one of {sorted(_ACTIVATIONS)}") from None


def softmax_rows(x: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    x = _as_tensor(x)
    shifted = x.values - x.values.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)
    if not _tracing(x):
        return out

    def bw() -> None:
        g = out.grad
        if g is None or not x.requires_grad:
            return
        inner = (g * y).sum(axis=-1, keepdims=True)
        _accum(x, y * (g - inner))

    return _emit(out, bw)


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
    out = Tensor(xh * gain.values + bias.values)
    if not _tracing(x, gain, bias):
        return out

    def bw() -> None:
        g = out.grad
        if g is None:
            return
        if gain.requires_grad:
            _accum(gain, (g * xh).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            _accum(bias, g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gy = g * gain.values
            m1 = gy.mean(axis=-1, keepdims=True)
            m2 = (gy * xh).mean(axis=-1, keepdims=True)
            _accum(x, (gy - m1 - xh * m2) / s)

    return _emit(out, bw)


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when rate == 0."""
    if rate <= 0.0:
        return x
    if rate >= 1.0:
        raise ContractError("dropout: rate must be < 1")
    x = _as_tensor(x)
    mask = (rng.random(x.values.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.values * mask)
    if not _tracing(x):
        return out

    def bw() -> None:
        if out.grad is not None and x.requires_grad:
            _accum(x, out.grad * mask)

    return _emit(out, bw)


# ---------------------------------------------------------------------------
# structure ops


def transpose(x: Tensor) -> Tensor:
    """Swap the last two axes."""
    x = _as_tensor(x)
    if x.values.ndim < 2:
        raise DimensionError(f"transpose needs >=2-D, got {x.values.shape}")
    out = Tensor(np.swapaxes(x.values, -1, -2))
    if not _tracing(x):
        return out

    def bw() -> None:
        if out.grad is not None and x.requires_grad:
            _accum(x, np.swapaxes(out.grad, -1, -2))

    return _emit(out, bw)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.values.reshape(shape))
    if not _tracing(x):
        return out

    def bw() -> None:
        if out.grad is not None and x.requires_grad:
            _accum(x, out.grad.reshape(x.values.shape))

    return _emit(out, bw)


def concat_last(parts: Iterable[Tensor]) -> Tensor:
    """Concatenate along the last axis."""
    parts = [_as_tensor(p) for p in parts]
    widths = [p.values.shape[-1] for p in parts]
    out = Tensor(np.concatenate([p.values for p in parts], axis=-1))
    if not _tracing(*parts):
        return out

    def bw() -> None:
        g = out.grad
        if g is None:
            return
        lo = 0
        for p, w in zip(parts, widths):
            if p.requires_grad:
                _accum(p, g[..., lo:lo + w])
            lo += w

    return _emit(out, bw)


def slice_last(x: Tensor, start: int, stop: int) -> Tensor:
    """x[..., start:stop] with zero-padded gradient."""
    x = _as_tensor(x)
    out = Tensor(x.values[..., start:stop])
    if not _tracing(x):
        return out

    def bw() -> None:
        g = out.grad
        if g is None or not x.requires_grad:
            return
        full = np.zeros_like(x.values)
        full[..., start:stop] = g
        _accum(x, full)

    return _emit(out, bw)


def tile_leading(x: Tensor, n: int) -> Tensor:
    """Repeat x along a new leading axis: (...,) -> (n, ...)."""
    x = _as_tensor(x)
    out = Tensor(np.broadcast_to(x.values, (n, *x.values.shape)).copy())
    if not _tracing(x):
        return out

    def bw() -> None:
        if out.grad is not None and x.requires_grad:
            _accum(x, out.grad.sum(axis=0))

    return _emit(out, bw)


def last_step(x: Tensor) -> Tensor:
    """x[..., -1, :], the last step of a (..., T, d) sequence."""
    x = _as_tensor(x)
    if x.values.ndim < 2:
        raise DimensionError(f"last_step needs >=2-D, got {x.values.shape}")
    out = Tensor(x.values[..., -1, :])
    if not _tracing(x):
        return out

    def bw() -> None:
        g = out.grad
        if g is None or not x.requires_grad:
            return
        full = np.zeros_like(x.values)
        full[..., -1, :] = g
        _accum(x, full)

    return _emit(out, bw)


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
    h_seq, c_last = Tensor(hs), Tensor(c)
    if not _tracing(x_seq, h0, c0, w, u, b):
        return h_seq, c_last

    def bw() -> None:
        gh, gc = h_seq.grad, c_last.grad
        if gh is None and gc is None:
            return
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

    return _emit(h_seq, bw, c_last), c_last


# ---------------------------------------------------------------------------
# reductions and losses


def sum_all(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = Tensor(x.values.sum())
    if not _tracing(x):
        return out

    def bw() -> None:
        if out.grad is not None and x.requires_grad:
            _accum(x, np.full_like(x.values, float(out.grad)))

    return _emit(out, bw)


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
    out = Tensor(r)
    if not _tracing(pred, truth):
        return out

    n = diff.size

    def bw() -> None:
        g = out.grad
        if g is None:
            return
        scale = 0.0 if r == 0.0 else float(g) / (n * r)
        if pred.requires_grad:
            _accum(pred, scale * diff)
        if truth.requires_grad:
            _accum(truth, -scale * diff)

    return _emit(out, bw)


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
