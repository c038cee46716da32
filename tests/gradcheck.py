"""Test helpers for gradient checks: a summing op, the smooth tanh and
sigmoid ops that build unfused oracles and finite-difference losses, the
finite-difference oracle that every autodiff op is checked against, the
reference keep masks and plain-numpy oracle of attention, and the
plain-numpy oracle of the LSTM recurrence."""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from peakcast import autodiff as ad
from peakcast.autodiff import ContractError, Tensor


def sum_all(x: Tensor) -> Tensor:
    return ad._emit(Tensor(x.values.sum()), (x,), lambda g: ad._accum(x, np.full_like(x.values, float(g))))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.values)
    return ad._emit(Tensor(y), (x,), lambda g: ad._accum(x, g * (1.0 - y * y)))


def _exp_sigmoid(v: np.ndarray) -> np.ndarray:
    """Logistic function without overflow: 1/(1+e) or e/(1+e), e = exp(-|v|)."""
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0, e) / (1.0 + e)


def sigmoid(x: Tensor) -> Tensor:
    y = _exp_sigmoid(x.values)
    return ad._emit(Tensor(y), (x,), lambda g: ad._accum(x, g * y * (1.0 - y)))


def attention_keep_masks(rng: np.random.Generator, n_heads: int, B: int, t_q: int, t_k: int,
                         rate: float) -> list[np.ndarray]:
    """Each head's (B, t_q, t_k) boolean keep mask, as ``ad.attention``
    draws them: one seed per head from ``rng``, then, from a generator
    seeded with it, one draw per block of rows of q in row order, sized by
    ``ad._BLOCK_ELEMS``, of uint16 values kept at or above
    round(rate * 65536). Needs t_q >= 1."""
    rows = max(1, ad._BLOCK_ELEMS // max(1, B * t_k))
    masks = []
    for seed in rng.integers(0, 2 ** 63, size=n_heads):
        head_rng = np.random.default_rng(seed)
        blocks = [head_rng.integers(0, 65536, (B, min(rows, t_q - lo), t_k), dtype=np.uint16)
                  for lo in range(0, t_q, rows)]
        masks.append(np.concatenate(blocks, axis=1) >= round(rate * 65536))
    return masks


def softmax_attention(q, k, v, n_heads, rate=0.0, rng=None):
    """Plain-numpy reference of ad.attention: per head, softmax(Q_i K_i^T /
    sqrt(d_head)) shifted by each row's exact max, times V_i, with the
    reference keep masks (:func:`attention_keep_masks`) when ``rng`` is
    given. Returns the output and every head's P_i."""
    d_head = q.shape[-1] // n_heads
    out, maps = np.empty(q.shape), []
    keeps = None if rng is None else attention_keep_masks(rng, n_heads, *q.shape[:2], k.shape[1], rate)
    for i, lo in enumerate(range(0, q.shape[-1], d_head)):
        cols = slice(lo, lo + d_head)
        s = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2) / math.sqrt(d_head)
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        maps.append(p)
        if keeps is not None:
            p = p * keeps[i] / (1.0 - rate)
        out[..., cols] = p @ v[..., cols]
    return out, maps


def lstm_reference(x_seq, h0, c0, w, u, b, gh, gh_T, gc):
    """A plain-numpy LSTM step loop, gates i, f, g, o in stored order with the
    exp-form sigmoid, and its backprop through time by hand. Returns
    (h_seq, h_T, c_T), the gradients of sum(h_seq gh) + sum(h_T gh_T) +
    sum(c_T gc) with respect to each operand, and the largest sum of the
    absolute terms of a pre-activation."""
    T, H = x_seq.shape[1], h0.shape[1]
    h, c = h0, c0
    hs, steps, z_terms = [], [], 0.0
    for s in range(T):
        z = x_seq[:, s] @ w + b + h @ u
        z_terms = max(z_terms, (np.abs(x_seq[:, s]) @ np.abs(w) + np.abs(b) + np.abs(h) @ np.abs(u)).max())
        i, f, o = (_exp_sigmoid(z[:, k * H:(k + 1) * H]) for k in (0, 1, 3))
        g = np.tanh(z[:, 2 * H:3 * H])
        h_prev, c_prev = h, c
        c = f * c + i * g
        h = o * np.tanh(c)
        hs.append(h)
        steps.append((h_prev, c_prev, i, f, g, o, c))
    grads = {name: np.zeros_like(v) for name, v in (("x_seq", x_seq), ("w", w), ("u", u), ("b", b))}
    dh, dc = gh_T.copy(), gc.copy()
    for s in range(T - 1, -1, -1):
        h_prev, c_prev, i, f, g, o, c_s = steps[s]
        dh = dh + gh[:, s]
        tc = np.tanh(c_s)
        dc = dc + dh * o * (1.0 - tc * tc)
        dz = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                             dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)], axis=1)
        grads["x_seq"][:, s] = dz @ w.T
        grads["w"] += x_seq[:, s].T @ dz
        grads["u"] += h_prev.T @ dz
        grads["b"] += dz.sum(axis=0)
        dh, dc = dz @ u.T, dc * f
    grads["h0"], grads["c0"] = dh, dc
    return (np.stack(hs, axis=1), h, c), grads, z_terms


def _grad_of(f: Callable[[Tensor], Tensor], x: Tensor) -> np.ndarray:
    """Analytic gradient of scalar-valued ``f`` at ``x`` via a fresh tape."""
    was = x.requires_grad
    x.requires_grad = True
    x.grad = None
    tape = ad.Tape()
    with ad.record(tape):
        out = f(x)
    ad.backward(tape, out)
    g = np.zeros_like(x.values) if x.grad is None else x.grad.copy()
    x.requires_grad = was
    x.grad = None
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
