"""Dense float64 tensors with reverse-mode automatic differentiation.

Define-by-run: while a :class:`Tape` is active (see :func:`record`), every
operation involving a grad-enabled tensor appends one backward closure to the
tape. :func:`backward` replays the tape in reverse, visiting each node exactly
once, and accumulates ``d root / d leaf`` into ``Tensor.grad``.

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
        t.grad = np.zeros_like(t.values)
    t.grad += g


def _emit(out: Tensor, bw: Callable[[], None]) -> Tensor:
    """Register a node for ``out`` on the active tape."""
    tape = _ACTIVE
    out.requires_grad = True
    out.tape_id = tape.serial
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


def sigmoid(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    v = x.values
    y = np.where(v >= 0, 1.0 / (1.0 + np.exp(-np.abs(v))), np.exp(-np.abs(v)) / (1.0 + np.exp(-np.abs(v))))
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


def stack_steps(steps: Sequence[Tensor]) -> Tensor:
    """Stack n tensors of shape (..., d) into (..., n, d)."""
    steps = [_as_tensor(s) for s in steps]
    out = Tensor(np.stack([s.values for s in steps], axis=-2))
    if not _tracing(*steps):
        return out

    def bw() -> None:
        g = out.grad
        if g is None:
            return
        for k, s in enumerate(steps):
            if s.requires_grad:
                _accum(s, g[..., k, :])

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
