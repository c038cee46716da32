import inspect
import itertools
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from peakcast import autodiff as ad
from peakcast.autodiff import (
    ContractError,
    DimensionError,
    Tape,
    Tensor,
    backward,
    record,
)

from gradcheck import (attention_keep_masks, finite_diff_check, lstm_reference, sigmoid, softmax_attention, sum_all,
                       tanh)

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False)


def test_linear_identity():
    a = ad.tensor([[1.0, 0.0], [0.0, 1.0]])
    b = ad.tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(ad.linear(a, b).values, b.values)


def test_linear_hand_computed():
    x, w = ad.tensor([[1.0, 2.0]]), ad.tensor([[3.0], [4.0]])
    assert np.array_equal(ad.linear(x, w).values, [[11.0]])
    assert np.array_equal(ad.linear(x, w, ad.tensor([0.5])).values, [[11.5]])


def test_linear_zero_annihilates():
    rng = np.random.default_rng(0)
    a = ad.tensor(rng.normal(size=(3, 4)))
    z = ad.tensor(np.zeros((4, 2)))
    assert np.array_equal(ad.linear(a, z).values, np.zeros((3, 2)))
    assert np.array_equal(ad.linear(a, z, ad.tensor([1.0, -2.0])).values, np.tile([1.0, -2.0], (3, 1)))


def _linear_input(layout, rng):
    """A 2-D input, a (2, 3, 4) stack, or a non-contiguous (2, 3, 4) view
    of a (2, 4, 3) array (the token embedding passes such a view)."""
    if layout == "2d":
        return rng.normal(size=(3, 4))
    if layout == "stack":
        return rng.normal(size=(2, 3, 4))
    view = np.swapaxes(rng.normal(size=(2, 4, 3)), 1, 2)
    assert not view.flags.c_contiguous
    return view


@pytest.mark.parametrize("layout", ["2d", "stack", "swapaxes_view"])
def test_linear_stack_matches_loop(layout):
    rng = np.random.default_rng(1)
    x = _linear_input(layout, rng)
    w, b = rng.normal(size=(4, 2)), rng.normal(size=2)
    out = ad.linear(ad.tensor(x), ad.tensor(w), ad.tensor(b)).values
    assert out.shape == x.shape[:-1] + (2,)
    rows = x.reshape(-1, 4)
    want = np.stack([rows[i] @ w + b for i in range(len(rows))]).reshape(out.shape)
    assert np.allclose(out, want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("layout", ["2d", "stack", "swapaxes_view"])
@pytest.mark.parametrize("operand, bias", [("x", False), ("x", True), ("w", False), ("w", True), ("b", True)],
                         ids=["x-no_bias", "x-bias", "w-no_bias", "w-bias", "b-bias"])
def test_linear_gradient_vs_finite_difference(operand, bias, layout):
    rng = np.random.default_rng(2)
    ops = {"x": _linear_input(layout, rng), "w": rng.normal(size=(4, 3)), "b": rng.normal(size=3) if bias else None}
    wy = ad.tensor(rng.normal(size=ops["x"].shape[:-1] + (3,)))

    def loss(t: Tensor) -> Tensor:
        args = {k: (None if v is None else ad.tensor(v)) for k, v in ops.items()}
        args[operand] = t
        return sum_all(ad.mul(tanh(ad.linear(**args)), wy))

    x = ad.parameter(ops[operand].copy())
    assert finite_diff_check(loss, x, eps=1e-6) < 1e-8


@pytest.mark.parametrize("x, w, b", [
    ((2, 3), (4, 2), None),  # inner dimensions differ
    ((2, 3, 3), (4, 2), (2,)),
    ((), (1, 2), None),  # x has no feature axis
    ((2, 4), (4,), None),  # w is not a matrix
    ((2, 4), (1, 4, 2), None),
    ((2, 4), (4, 2), (3,)),  # bias width differs from w's columns
    ((2, 4), (4, 2), (1, 2)),  # bias is not a vector
], ids=["x_inner", "x_stack_inner", "x_scalar", "w_vector", "w_stack", "b_width", "b_matrix"])
def test_linear_rejects_bad_shapes(x, w, b):
    with pytest.raises(DimensionError, match="linear") as exc:
        ad.linear(ad.tensor(np.ones(x)), ad.tensor(np.ones(w)), None if b is None else ad.tensor(np.ones(b)))
    assert str(x) in str(exc.value) and str(w) in str(exc.value)


def test_elementwise_rejects_nonscalar_broadcast():
    with pytest.raises(DimensionError):
        ad.add(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones(3)))


@pytest.mark.parametrize("op", [ad.add, ad.mul], ids=["add", "mul"])
def test_elementwise_rejects_scalar_broadcast(op):
    x, scalar = ad.tensor([1.0, 2.0]), ad.tensor(3.0)
    for a, b in ((x, scalar), (scalar, x)):
        with pytest.raises(DimensionError, match="differ"):
            op(a, b)
    assert op(ad.tensor(2.0), ad.tensor(3.0)).shape == ()


@given(arrays(np.float64, (4,), elements=finite_floats), arrays(np.float64, (4,), elements=finite_floats))
def test_add_commutes(a, b):
    assert np.array_equal(ad.add(ad.tensor(a), ad.tensor(b)).values, ad.add(ad.tensor(b), ad.tensor(a)).values)


def test_relu_sign_split():
    assert np.array_equal(ad.relu(ad.tensor([-1.0, 0.0, 2.0])).values, [0.0, 0.0, 2.0])


def test_sigmoid_symmetry_point():
    assert sigmoid(ad.tensor([0.0])).values[0] == 0.5


def test_tanh_standard_value():
    assert tanh(ad.tensor([0.5])).values[0] == pytest.approx(0.46211716, abs=1e-8)


def attention_map(scores):
    """Single-head attention map of a (rows, cols) score matrix: q is the
    scores scaled by sqrt(cols), k the identity."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[-1]
    trace = []
    ad.attention(ad.tensor(scores[None] * math.sqrt(n)), ad.tensor(np.eye(n)[None]), ad.tensor(np.ones((1, n, n))), 1,
                 trace=trace)
    return trace[0][0]


def test_softmax_uniform():
    assert np.allclose(attention_map([[0.0, 0.0]]), [[0.5, 0.5]])


def test_softmax_stabilized():
    out = attention_map([[1000.0, 1000.0]])
    assert np.allclose(out, [[0.5, 0.5]])
    assert np.isfinite(out).all()


def test_softmax_closed_form():
    out = attention_map([[0.0, math.log(3.0)]])
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)


@given(arrays(np.float64, (3, 5), elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)))
def test_softmax_rows_sum_to_one(x):
    out = attention_map(x)
    assert np.all(np.abs(out.sum(axis=-1) - 1.0) <= 1e-9)
    assert np.all(out >= 0)


def _layer_norms(x, gain, bias):
    """The layer norm of x alone, from each fused op: project_add_norm of x
    through an identity projection onto a zero residual, and ffn_add_norm of
    x through an FFN of zero weights. Both sublayers add exactly 0."""
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    zero, gain, bias = ad.tensor(np.zeros(n)), ad.tensor(gain), ad.tensor(bias)
    projected = ad.project_add_norm(ad.tensor(x), ad.tensor(np.eye(n)), zero, ad.tensor(np.zeros(x.shape)), gain, bias)
    fed = ad.ffn_add_norm(ad.tensor(x), ad.tensor(np.zeros((n, 3))), ad.tensor(np.zeros(3)), ad.tensor(np.zeros((3, n))),
                          zero, gain, bias)
    return [projected.values, fed.values]


def test_layer_norm_constant_row_zeroed():
    for out in _layer_norms([[5.0, 5.0, 5.0]], np.ones(3), np.zeros(3)):
        assert np.allclose(out, 0.0)


def test_layer_norm_two_point_row():
    for out in _layer_norms([[1.0, 3.0]], np.ones(2), np.zeros(2)):
        # variance 1: the rows scale by 1 / sqrt(1 + LAYER_NORM_EPS)
        assert np.array_equal(out, [[-1.0, 1.0]] / np.sqrt(1.0 + ad.LAYER_NORM_EPS))


def test_layer_norm_zero_gain_gives_bias():
    rng = np.random.default_rng(2)
    bias = np.array([1.0, -2.0, 0.5])
    for out in _layer_norms(rng.normal(size=(4, 3)), np.zeros(3), bias):
        assert np.allclose(out, np.broadcast_to(bias, (4, 3)))


@pytest.mark.parametrize("x, residual, gain, bias", [
    ((2, 3), (3, 2), (3,), (3,)),  # residual (for ffn_add_norm, the FFN's output) differs from x
    ((2, 3), (2, 3), (2,), (3,)),
    ((2, 3), (2, 3), (3,), (1, 3)),
    ((), (), (1,), (1,)),  # x has no feature axis
], ids=["residual", "gain", "bias", "scalar"])
def test_add_layer_norm_rejects_bad_shapes(x, residual, gain, bias):
    # the sublayer's own operands fit x; only the add and the norm do not
    def ones(*shape):
        return ad.tensor(np.ones(shape))

    n, k = (x or (1,))[-1], (residual or (1,))[-1]
    with pytest.raises(DimensionError, match="project_add_norm"):
        ad.project_add_norm(ones(*x), ones(n, k), ones(k), ones(*residual), ones(*gain), ones(*bias))
    with pytest.raises(DimensionError, match="ffn_add_norm"):
        ad.ffn_add_norm(ones(*x), ones(n, 5), ones(5), ones(5, k), ones(k), ones(*gain), ones(*bias))


def _grads_through(op, inputs: dict, g: np.ndarray) -> tuple[np.ndarray, dict]:
    """``op(**inputs)`` on a tape, every input a parameter; backward with
    ``g`` as the output's gradient. Returns the output and each input's
    gradient."""
    params = {k: ad.parameter(v.copy()) for k, v in inputs.items()}
    tape = Tape()
    with record(tape):
        out = op(**params)
        root = sum_all(ad.mul(out, ad.tensor(g)))  # the output's gradient is 1.0 * g: exactly g
    backward(tape, root)
    return out.values, {k: p.grad for k, p in params.items()}


def reference_add_layer_norm(x, residual, gain, bias, g, eps=1e-5):
    """A residual add and the layer norm after it, ``add`` then
    ``layer_norm``, with both backward passes, in plain numpy."""
    z = x + residual
    d = z.shape[-1]
    mu = z.mean(axis=-1, keepdims=True)
    var = ((z - mu) ** 2).mean(axis=-1, keepdims=True)
    s = np.sqrt(var + eps)
    xh = (z - mu) / s
    gy = g * gain
    m1 = gy.mean(axis=-1, keepdims=True)
    m2 = (gy * xh).mean(axis=-1, keepdims=True)
    dz = (gy - m1 - xh * m2) / s
    grads = {"x": dz, "residual": dz, "gain": (g * xh).reshape(-1, d).sum(axis=0), "bias": g.reshape(-1, d).sum(axis=0)}
    return xh * gain + bias, grads


def _norm_operands(rng, d: int) -> dict:
    return {"gain": rng.uniform(0.5, 1.5, size=d), "bias": rng.normal(size=d)}


@pytest.mark.parametrize("B", [1, 3])
def test_add_layer_norm_matches_add_then_layer_norm_bit_for_bit(B):
    # the tail alone: an identity projection, or an FFN of zero weights,
    # adds exactly 0, so both ops must give the reference's bits
    rng = np.random.default_rng(10 + B)
    x, residual, g = (rng.normal(size=(B, 5, 8)) for _ in range(3))
    norm = _norm_operands(rng, 8)
    want, want_grads = reference_add_layer_norm(x, residual, **norm, g=g)
    out, grads = _grads_through(ad.project_add_norm, {"h": x, "w": np.eye(8), "b": np.zeros(8),
                                                      "residual": residual, **norm}, g)
    assert np.array_equal(out, want)
    for name, want_name in (("h", "x"), ("residual", "residual"), ("gain", "gain"), ("bias", "bias")):
        assert np.array_equal(grads[name], want_grads[want_name]), name
    assert not np.shares_memory(grads["h"], grads["residual"])
    want, want_grads = reference_add_layer_norm(x, np.zeros(x.shape), **norm, g=g)
    zeros = {"w1": np.zeros((8, 3)), "b1": np.zeros(3), "w2": np.zeros((3, 8)), "b2": np.zeros(8)}
    out, grads = _grads_through(ad.ffn_add_norm, {"x": x, **zeros, **norm}, g)
    assert np.array_equal(out, want)
    for name in ("x", "gain", "bias"):
        assert np.array_equal(grads[name], want_grads[name]), name


@pytest.mark.parametrize("B", [1, 3])
def test_project_add_norm_matches_linear_then_add_layer_norm_bit_for_bit(B):
    rng = np.random.default_rng(30 + B)
    inputs = {"h": rng.normal(size=(B, 5, 6)), "w": rng.normal(size=(6, 8)), "b": rng.normal(size=8),
              "residual": rng.normal(size=(B, 5, 8)), **_norm_operands(rng, 8)}
    g = rng.normal(size=(B, 5, 8))
    out, grads = _grads_through(ad.project_add_norm, inputs, g)
    projected = ad.linear(*(ad.tensor(inputs[k]) for k in "hwb")).values
    want, tail = reference_add_layer_norm(projected, inputs["residual"], inputs["gain"], inputs["bias"], g)
    _, linear_grads = _grads_through(ad.linear, {"x": inputs["h"], "w": inputs["w"], "b": inputs["b"]}, tail["x"])
    want_grads = {"h": linear_grads["x"], "w": linear_grads["w"], "b": linear_grads["b"],
                  "residual": tail["residual"], "gain": tail["gain"], "bias": tail["bias"]}
    assert np.array_equal(out, want)
    for name, grad in want_grads.items():
        assert np.array_equal(grads[name], grad), name


def test_project_add_norm_adds_dz_before_dh_into_one_tensor():
    # h and residual one tensor, which a later op also reads: its gradient
    # is (that op's + dz) + dh, and dw is read from dz before dh adds into it
    rng = np.random.default_rng(5)
    x, w, b, g = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 4)), rng.normal(size=4), rng.normal(size=(2, 3, 4))
    norm = _norm_operands(rng, 4)
    later = rng.normal(size=x.shape)

    def op(x, w, b, gain, bias):
        return ad.add(ad.project_add_norm(x, w, b, x, gain, bias), ad.mul(x, ad.tensor(later)))

    _, grads = _grads_through(op, {"x": x, "w": w, "b": b, **norm}, g)
    _, apart = _grads_through(ad.project_add_norm, {"h": x, "w": w, "b": b, "residual": x, **norm}, g)
    assert np.array_equal(grads["x"], (g * later + apart["residual"]) + apart["h"])
    assert np.array_equal(grads["w"], apart["w"])


@pytest.mark.parametrize("operand", ["h", "w", "b", "residual", "gain", "bias"])
def test_project_add_norm_gradient_vs_finite_difference(operand):
    rng = np.random.default_rng(3)
    ops = {"h": rng.normal(size=(2, 3, 5)), "w": rng.normal(size=(5, 4)), "b": rng.normal(size=4),
           "residual": rng.normal(size=(2, 3, 4)), **_norm_operands(rng, 4)}
    wy = ad.tensor(rng.normal(size=(2, 3, 4)))

    def loss(t: Tensor) -> Tensor:
        args = {k: ad.tensor(v) for k, v in ops.items()}
        args[operand] = t
        return sum_all(ad.mul(tanh(ad.project_add_norm(**args)), wy))

    assert finite_diff_check(loss, ad.parameter(ops[operand].copy()), eps=1e-6) < 1e-7


def _ffn_weights(seed: int, n: int = 4, f: int = 6) -> dict:
    """Weights of an FFN sublayer of width n with f hidden units, and its norm's gain and bias."""
    rng = np.random.default_rng(seed)
    return {"w1": rng.normal(size=(n, f)), "b1": rng.normal(scale=0.1, size=f),
            "w2": rng.normal(size=(f, n)), "b2": rng.normal(scale=0.1, size=n), **_norm_operands(rng, n)}


def reference_ffn(x, w1, b1, w2, b2, rate, rng):
    """A feed-forward layer as ``linear``, ``relu``, ``dropout`` (when
    ``rng`` is given and rate > 0) and ``linear``, in plain numpy. Returns
    the output and its backward pass, which maps the output's gradient to
    each operand's."""
    n, f, k = w1.shape[0], w1.shape[1], w2.shape[1]
    x2d = x.reshape(-1, n)
    pre = (x2d @ w1 + b1).reshape(*x.shape[:-1], f)
    relu = pre > 0
    hidden = np.where(relu, pre, 0.0)
    drop = rng is not None and rate > 0
    if drop:
        keep = rng.integers(0, 65536, hidden.shape, dtype=np.uint16) >= round(rate * 65536)
        hidden = hidden * keep
        hidden *= 1.0 / (1.0 - rate)
    h2d = hidden.reshape(-1, f)
    out = (h2d @ w2 + b2).reshape(*x.shape[:-1], k)

    def backward_pass(g):
        g2d = g.reshape(-1, k)
        gh = (g2d @ w2.T).reshape(hidden.shape)
        if drop:
            gh = gh * keep
            gh *= 1.0 / (1.0 - rate)
        gpre = (gh * relu).reshape(-1, f)
        return {"x": (gpre @ w1.T).reshape(x.shape), "w1": x2d.T @ gpre, "b1": gpre.sum(axis=0),
                "w2": h2d.T @ g2d, "b2": g2d.sum(axis=0)}

    return out, backward_pass


@pytest.mark.parametrize("rate", [0.0, 0.4], ids=["no_dropout", "dropout"])
@pytest.mark.parametrize("B", [1, 3])
def test_ffn_matches_linear_relu_dropout_linear_bit_for_bit(B, rate):
    # ffn_add_norm against reference_ffn, then reference_add_layer_norm of
    # x and the FFN's output; x's gradient is the norm's dz plus the FFN's dx
    rng = np.random.default_rng(20 + B)
    inputs = {"x": rng.normal(size=(B, 5, 8)), **_ffn_weights(B, n=8, f=12)}
    g = rng.normal(size=(B, 5, 8))
    op_rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    out, grads = _grads_through(lambda **t: ad.ffn_add_norm(**t, rate=rate, rng=op_rng), inputs, g)
    weights = {k: inputs[k] for k in ("w1", "b1", "w2", "b2")}
    fed, ffn_backward = reference_ffn(inputs["x"], **weights, rate=rate, rng=ref_rng)
    want, tail = reference_add_layer_norm(inputs["x"], fed, inputs["gain"], inputs["bias"], g)
    want_grads = {**ffn_backward(tail["residual"]), "gain": tail["gain"], "bias": tail["bias"]}
    want_grads["x"] = tail["x"] + want_grads["x"]
    assert np.array_equal(out, want)
    for name, grad in want_grads.items():
        assert np.array_equal(grads[name], grad), name
    assert op_rng.bit_generator.state == ref_rng.bit_generator.state


def test_ffn_add_norm_adds_dz_before_dx():
    # x also read by a later op: its gradient is (that op's + dz) + dx
    rng = np.random.default_rng(6)
    inputs = {"x": rng.normal(size=(2, 3, 4)), **_ffn_weights(6)}
    g, later = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))

    def op(x, **rest):
        return ad.add(ad.ffn_add_norm(x, **rest), ad.mul(x, ad.tensor(later)))

    _, grads = _grads_through(op, inputs, g)
    weights = {k: inputs[k] for k in ("w1", "b1", "w2", "b2")}
    fed, ffn_backward = reference_ffn(inputs["x"], **weights, rate=0.0, rng=None)
    _, tail = reference_add_layer_norm(inputs["x"], fed, inputs["gain"], inputs["bias"], g)
    assert np.array_equal(grads["x"], (g * later + tail["x"]) + ffn_backward(tail["residual"])["x"])


def _ffn_loss(ops: dict, operand: str, rate: float, wy: Tensor):
    """Probe of one ffn_add_norm operand; a fresh generator per evaluation,
    so every evaluation drops the same hidden units."""

    def loss(t: Tensor) -> Tensor:
        args = {k: ad.tensor(v) for k, v in ops.items()}
        args[operand] = t
        return sum_all(ad.mul(tanh(ad.ffn_add_norm(**args, rate=rate, rng=np.random.default_rng(0))), wy))

    return loss


@pytest.mark.parametrize("rate", [0.0, 0.4], ids=["no_dropout", "dropout"])
@pytest.mark.parametrize("operand", ["x", "w1", "b1", "w2", "b2", "gain", "bias"])
def test_ffn_gradient_vs_finite_difference(operand, rate):
    rng = np.random.default_rng(4)
    ops = {"x": rng.normal(size=(2, 3, 4)), **_ffn_weights(4)}
    pre = ops["x"] @ ops["w1"] + ops["b1"]
    # a step of 1e-6 in any operand moves a pre-activation by far less
    # than this, so no difference straddles the ReLU kink
    assert np.abs(pre).min() > 1e-3
    wy = ad.tensor(rng.normal(size=(2, 3, 4)))
    assert finite_diff_check(_ffn_loss(ops, operand, rate, wy), ad.parameter(ops[operand].copy()), eps=1e-6) < 1e-7


@pytest.mark.parametrize("x, w1, b1, w2, b2", [
    ((2, 3), (4, 6), (6,), (6, 4), (4,)),  # x's width differs from w1's rows
    ((2, 4), (4, 6), (5,), (6, 4), (4,)),
    ((2, 4), (4, 6), (6,), (5, 4), (4,)),  # w2's rows differ from the hidden width
    ((2, 4), (4, 6), (6,), (6, 4), (3,)),
    ((2, 4), (4,), (6,), (6, 4), (4,)),  # w1 is not a matrix
    ((2, 4), (4, 6), (6,), (1, 6, 4), (4,)),
    ((), (1, 6), (6,), (6, 4), (4,)),  # x has no feature axis
], ids=["x_width", "b1_width", "w2_rows", "b2_width", "w1_vector", "w2_stack", "x_scalar"])
def test_ffn_rejects_bad_shapes(x, w1, b1, w2, b2):
    norm = (ad.tensor(np.ones(4)), ad.tensor(np.zeros(4)))
    with pytest.raises(DimensionError, match="ffn_add_norm"):
        ad.ffn_add_norm(*(ad.tensor(np.ones(shape)) for shape in (x, w1, b1, w2, b2)), *norm)


def _identity_ffn(x, rate, rng):
    """The FFN of ffn_add_norm with identity weights and zero biases, read
    back through the norm. On a non-negative (rows, n) x that FFN returns
    the kept entries of x scaled by 1 / (1 - rate), zeros elsewhere.

    The op's input is [0, x, 0, 1] and its FFN maps the second block onto
    the first, so the norm's input is [FFN(x), x, 0, 1]. Gain 1 and bias 0
    leave each row shifted and scaled, and the columns that held 0 and 1
    undo that. Returns the FFN's output and x, each read back so; equal
    entries of the norm's input read back as equal bits."""
    rows, n = x.shape
    width = 2 * n + 2
    inputs = np.zeros((rows, width))
    inputs[:, n:2 * n] = x
    inputs[:, -1] = 1.0
    w1, w2 = np.zeros((width, n)), np.zeros((n, width))
    w1[n:2 * n] = w2[:, :n] = np.eye(n)
    out = ad.ffn_add_norm(*(ad.tensor(v) for v in (inputs, w1, np.zeros(n), w2, np.zeros(width), np.ones(width),
                                                   np.zeros(width))), rate, rng).values
    zero, one = out[:, -2:-1], out[:, -1:]
    back = (out - zero) / (one - zero)
    return back[:, :n], back[:, n:2 * n]


def test_fused_tails_keep_no_sublayer_output():
    # what each op leaves alive is its output and what its backward reads:
    # xh and the row scales, and the FFN's hidden layer; a (B, t, d) copy
    # of the sublayer's output is more than the slack
    B, t, d, f = 4, 32, 64, 96
    rng = np.random.default_rng(0)
    x, h = (ad.parameter(rng.normal(size=(B, t, d))) for _ in range(2))
    w, w1, w2 = (ad.parameter(rng.normal(size=shape)) for shape in ((d, d), (d, f), (f, d)))
    b, b1, b2, gain, bias = (ad.parameter(np.zeros(n)) for n in (d, f, d, d, d))
    ops = {"project_add_norm": (lambda: ad.project_add_norm(h, w, b, x, gain, bias), 0),
           "ffn_add_norm": (lambda: ad.ffn_add_norm(x, w1, b1, w2, b2, gain, bias, 0.3, np.random.default_rng(1)),
                            B * t * f * 8)}
    slack = 8192  # the tensors and the closure; one (B, t, d) array is 65,536 bytes
    for name, (op, hidden) in ops.items():
        tape = Tape()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with record(tape):
                out = op()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        allowed = 2 * out.values.nbytes + B * t * 8 + hidden  # output, xh, row scales, hidden layer
        assert allowed <= kept + slack and kept <= allowed + slack, (name, kept, allowed)
        out.grad = np.ones(out.shape)
        tape.nodes[-1]()
        assert all(np.isfinite(p.grad).all() for p in (x, gain, bias))


def test_backward_sum_gives_ones():
    x = ad.parameter(np.arange(6.0).reshape(2, 3))
    tape = Tape()
    with record(tape):
        out = sum_all(x)
    backward(tape, out)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_sum():
    x = ad.parameter([1.0, 2.0])
    tape = Tape()
    with record(tape):
        out = sum_all(ad.mul(x, x))
    backward(tape, out)
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_rmse_degenerate_is_zero_subgradient():
    x = ad.parameter([1.0, 2.0, 3.0])
    tape = Tape()
    with record(tape):
        out = ad.rmse(x, ad.tensor([1.0, 2.0, 3.0]))
    backward(tape, out)
    assert np.array_equal(x.grad, np.zeros(3))


def test_rmse_rejects_mismatched_shapes():
    # (3,) and (3, 1) would broadcast to (3, 3)
    with pytest.raises(DimensionError, match="rmse: shapes"):
        ad.rmse(ad.tensor(np.ones(3)), ad.tensor(np.ones((3, 1))))


def test_rmse_rejects_empty_operands():
    with pytest.raises(ContractError, match="rmse: empty operands"):
        ad.rmse(ad.tensor(np.ones((0, 2))), ad.tensor(np.ones((0, 2))))


def test_rmse_gradient_with_respect_to_truth():
    pred = ad.tensor(np.random.default_rng(0).normal(size=(4, 4)))
    truth = ad.parameter(np.random.default_rng(1).normal(size=(4, 4)))
    assert finite_diff_check(lambda x: ad.rmse(pred, x), truth) < 1e-6


def test_backward_requires_scalar_root():
    x = ad.parameter([1.0, 2.0])
    tape = Tape()
    with record(tape):
        out = ad.mul(x, x)
    with pytest.raises(ContractError):
        backward(tape, out)


def test_backward_visits_each_node_once():
    x = ad.parameter(np.ones(4))
    tape = Tape()
    with record(tape):
        y = ad.mul(x, x)        # node 1
        z = ad.add(y, x)        # node 2
        w = tanh(z)             # node 3
        out = sum_all(w)     # node 4
    assert len(tape) == 4
    backward(tape, out)
    assert tape.visits == 4


def test_used_tape_rejects_a_second_backward():
    # backward takes every node off the tape, so a second call would find
    # nothing to run; it must raise instead of returning as if it had
    x = ad.parameter(np.arange(3.0))
    tape = Tape()
    with record(tape):
        out = sum_all(ad.mul(x, x))
    backward(tape, out)
    assert len(tape) == 0 and tape.visits == 2
    with pytest.raises(ContractError, match="already ran"):
        backward(tape, out)
    assert np.array_equal(x.grad, [0.0, 2.0, 4.0])
    assert tape.visits == 2


def test_backward_rejects_root_of_another_tape():
    x = ad.parameter([1.0, 2.0])
    tape, other = Tape(), Tape()
    with record(tape):
        out = sum_all(ad.mul(x, x))
    for wrong_tape, root in ((other, out), (tape, sum_all(x))):
        with pytest.raises(ContractError, match="^backward root was not recorded on this tape$"):
            backward(wrong_tape, root)


def test_forward_determinism():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 5, 4))

    def run():
        t = ad.tensor(x)
        trace = []
        out = ad.attention(tanh(t), t, t, 2, 0.3, np.random.default_rng(4), trace)
        return out.values, trace

    (a, trace_a), (b, trace_b) = run(), run()
    assert np.array_equal(a, b)
    assert all(np.array_equal(p, r) for p, r in zip(trace_a, trace_b, strict=True))


def test_finite_diff_exact_for_linear():
    x = ad.parameter(np.random.default_rng(4).normal(size=(3, 2)))
    err = finite_diff_check(sum_all, x, eps=1e-5)
    assert err < 1e-9


def test_finite_diff_tanh_sum():
    x = ad.parameter(np.random.default_rng(5).uniform(-1, 1, size=5))
    err = finite_diff_check(lambda t: sum_all(tanh(t)), x, eps=1e-5)
    assert err < 1e-5


def test_finite_diff_eps_bounds():
    x = ad.parameter(np.ones(2))
    with pytest.raises(ContractError):
        finite_diff_check(sum_all, x, eps=1e-2)


def _op_cases():
    """Scalar-valued probes exercising every differentiable op's backward."""

    def wrap(build):
        return build

    return {
        "add": wrap(lambda x: sum_all(ad.add(x, tanh(x)))),
        "mul": wrap(lambda x: sum_all(ad.mul(x, x))),
        "relu": wrap(lambda x: sum_all(ad.relu(x))),
        "tanh": wrap(lambda x: sum_all(tanh(x))),
        "sigmoid": wrap(lambda x: sum_all(sigmoid(x))),
        "project_add_norm": wrap(lambda x: sum_all(ad.mul(ad.project_add_norm(
            tanh(x), ad.tensor(np.linspace(-1.0, 1.0, 16).reshape(4, 4)), ad.tensor(np.linspace(-0.5, 0.5, 4)), x,
            *_OP_CASE_NORM), x))),
        "ffn_add_norm": wrap(lambda x: sum_all(ad.mul(ad.ffn_add_norm(x, *_OP_CASE_FFN), x))),
        "reshape": wrap(lambda x: sum_all(tanh(ad.reshape(x, (2, 8))))),
        "tile_leading": wrap(lambda x: sum_all(
            tanh(ad.mul(ad.tile_leading(x, 3), ad.tensor(np.linspace(-2.0, 2.0, 48).reshape(3, 4, 4)))))),
        "rmse": wrap(lambda x: ad.rmse(x, ad.tensor(np.full((4, 4), 0.3)))),
        # a fresh generator per evaluation, so every evaluation drops the same entries
        "ffn_add_norm_dropout": wrap(lambda x: sum_all(ad.mul(
            ad.ffn_add_norm(x, *_OP_CASE_FFN, 0.4, np.random.default_rng(0)), x))),
    }


_OP_CASE_FFN = [ad.tensor(v) for v in _ffn_weights(5).values()]
_OP_CASE_NORM = [ad.tensor(np.linspace(0.5, 1.5, 4)), ad.tensor(np.linspace(-1.0, 1.0, 4))]


def _op_case_inputs() -> list[np.ndarray]:
    """The (4, 4) points at which every op case is checked: 10 random seeds."""
    return [np.random.default_rng(100 + seed).uniform(-1.0, 1.0, size=(4, 4)) + 0.1 for seed in range(10)]


@pytest.mark.parametrize("name", sorted(_op_cases()))
def test_every_op_gradient_vs_finite_difference(name):
    # relative error under 1e-4 at eps=1e-5
    build = _op_cases()[name]
    worst = max(finite_diff_check(build, ad.parameter(x), eps=1e-5) for x in _op_case_inputs())
    assert worst < 1e-4, f"{name}: max rel err {worst}"


def test_ffn_op_cases_stay_clear_of_the_relu_kink():
    # a central difference that straddles a ReLU kink is wrong, so the
    # ffn cases' pre-activations keep more than 10 eps away from 0
    w1, b1 = _OP_CASE_FFN[0].values, _OP_CASE_FFN[1].values
    for x in _op_case_inputs():
        assert np.abs(x @ w1 + b1).min() > 10 * 1e-5


def test_every_recording_op_has_a_finite_difference_check():
    # the public ops that record a tape node, found by their call to _emit
    recording = {name for name, fn in inspect.getmembers(ad, inspect.isfunction)
                 if fn.__module__ == ad.__name__ and not name.startswith("_") and "_emit(" in inspect.getsource(fn)}
    assert {"add", "linear", "attention", "lstm_sequence"} <= recording
    dedicated = {
        "linear": test_linear_gradient_vs_finite_difference,
        "attention": test_attention_gradient_vs_finite_difference,
        "lstm_sequence": test_lstm_sequence_gradient_vs_finite_difference,
    }
    assert recording - set(dedicated) - set(_op_cases()) == set()


def test_first_gradient_is_a_copy():
    # add hands the same upstream array to a and b; a later accumulation
    # into a must leave b (and the upstream gradient) unchanged
    a, b = ad.parameter(np.zeros(3)), ad.parameter(np.zeros(3))
    tape = Tape()
    with record(tape):
        p = ad.mul(a, ad.tensor(np.full(3, 3.0)))  # recorded first, so its gradient reaches a last
        s = ad.add(a, b)
        out = sum_all(ad.add(s, p))
    backward(tape, out)
    assert np.array_equal(a.grad, np.full(3, 4.0))
    assert np.array_equal(b.grad, np.ones(3))
    assert np.array_equal(s.grad, np.ones(3))
    # reshape hands on a view of its output's gradient; a later accumulation
    # into x must leave that gradient unchanged
    x = ad.parameter(np.zeros(4))
    tape = Tape()
    with record(tape):
        p = ad.mul(x, ad.tensor(np.full(4, 3.0)))  # recorded first, so its gradient reaches x last
        r = ad.reshape(x, (2, 2))
        out = ad.add(sum_all(r), sum_all(p))
    backward(tape, out)
    assert np.array_equal(x.grad, np.full(4, 4.0))
    assert np.array_equal(r.grad, np.ones((2, 2)))


def test_sigmoid_matches_three_exp_formula_bitwise():
    v = np.concatenate([np.linspace(-800.0, 800.0, 2001), [0.0, -0.0, 1e-300, -1e-300, np.inf, -np.inf, np.nan]])
    e = np.exp(-np.abs(v))
    with np.errstate(invalid="ignore"):
        expect = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        got = sigmoid(ad.tensor(v)).values
    assert np.array_equal(got, expect, equal_nan=True)


def _lstm_operands(seed=0, B=2, T=3, n_in=2, hidden=2):
    rng = np.random.default_rng(seed)
    return {
        "x_seq": rng.normal(size=(B, T, n_in)),
        "h0": rng.normal(0.0, 0.5, size=(B, hidden)),
        "c0": rng.normal(0.0, 0.5, size=(B, hidden)),
        "w": rng.normal(0.0, 0.6, size=(n_in, 4 * hidden)),
        "u": rng.normal(0.0, 0.6, size=(hidden, 4 * hidden)),
        "b": rng.normal(0.0, 0.3, size=(4 * hidden,)),
    }


@pytest.mark.parametrize("outputs", ["h_seq", "h_T", "c_T", "both", "all"])
@pytest.mark.parametrize("operand", ["x_seq", "h0", "c0", "w", "u", "b"])
def test_lstm_sequence_gradient_vs_finite_difference(operand, outputs):
    ops = {k: ad.tensor(v) for k, v in _lstm_operands().items()}
    rng = np.random.default_rng(1)
    wh = ad.tensor(rng.normal(size=ops["x_seq"].shape[:2] + (2,)))
    wc = ad.tensor(rng.normal(size=ops["h0"].shape))
    wl = ad.tensor(rng.normal(size=ops["h0"].shape))

    def loss(x: Tensor) -> Tensor:
        h_seq, h_T, c_T = ad.lstm_sequence(**{**ops, operand: x})
        terms = {"h_seq": [ad.mul(h_seq, wh)], "h_T": [ad.mul(h_T, wl)], "c_T": [ad.mul(c_T, wc)]}
        terms["both"] = terms["h_seq"] + terms["c_T"]
        terms["all"] = terms["both"] + terms["h_T"]
        parts = [sum_all(t) for t in terms[outputs]]
        total = parts[0]
        for part in parts[1:]:
            total = ad.add(total, part)
        return total

    x = ad.parameter(ops[operand].values.copy())
    assert finite_diff_check(loss, x, eps=1e-6) < 1e-6


@pytest.mark.parametrize("operand, shape", [
    ("x_seq", (2, 3, 3)),  # input width differs from w's rows
    ("x_seq", (2, 2)),  # not a (B, T, n_in) sequence
    ("x_seq", (2, 0, 2)),  # no steps
    ("w", (2, 6)),
    ("u", (2, 6)),
    ("u", (3, 8)),
    ("b", (6,)),
    ("h0", (3, 2)),
    ("c0", (2, 3)),
])
def test_lstm_sequence_rejects_bad_shapes(operand, shape):
    ops = _lstm_operands()
    ops[operand] = np.zeros(shape)
    with pytest.raises(DimensionError, match="lstm_sequence"):
        ad.lstm_sequence(*(ad.tensor(v) for v in ops.values()))


def test_lstm_sequence_runs_an_empty_batch():
    ops = {name: ad.parameter(v) for name, v in _lstm_operands(B=0).items()}
    tape = Tape()
    with record(tape):
        h_seq, h_T, c_T = ad.lstm_sequence(**ops)
        loss = ad.add(sum_all(h_seq), sum_all(c_T))
    backward(tape, loss)
    assert h_seq.shape == (0, 3, 2) and h_T.shape == c_T.shape == (0, 2)
    assert all(not ops[name].grad.any() for name in ("w", "u", "b"))


# pre-activation scales from 1e-3 to 50: from near-linear gates to gates
# saturated far below 2^-53, where the tanh form of the sigmoid keeps only
# its absolute error bound
@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-3.0, math.log10(50.0)), B=st.sampled_from([1, 3]),
       T=st.integers(1, 5), hidden=st.integers(1, 3), n_in=st.integers(1, 3))
@example(seed=0, log_scale=math.log10(50.0), B=3, T=5, hidden=3, n_in=3)
def test_lstm_sequence_matches_exp_sigmoid_loop(seed, log_scale, B, T, hidden, n_in):
    ops = _lstm_operands(seed, B, T, n_in, hidden)
    for name in ("w", "u", "b"):
        ops[name] *= 10.0 ** log_scale / 0.6
    rng = np.random.default_rng(seed + 1)
    gh, gh_T, gc = rng.normal(size=(B, T, hidden)), rng.normal(size=(B, hidden)), rng.normal(size=(B, hidden))
    want, want_grads, z_terms = lstm_reference(**ops, gh=gh, gh_T=gh_T, gc=gc)
    params = {name: ad.parameter(v) for name, v in ops.items()}
    tape = Tape()
    with record(tape):
        got = ad.lstm_sequence(**params)
        loss = sum_all(ad.mul(got[0], ad.tensor(gh)))
        for out, weight in zip(got[1:], (gh_T, gc)):
            loss = ad.add(loss, sum_all(ad.mul(out, ad.tensor(weight))))
    backward(tape, loss)
    # at T = 1 the op forms each pre-activation from the same products as
    # the reference, so only the gate functions differ; at T > 1 its one
    # product over all steps may round differently from the per-step ones,
    # by a few roundings of the sum of a pre-activation's |terms|
    for out, ref in zip(got, want):
        assert np.abs(out.values - ref).max() <= 1e-15 * (1.0 + (T - 1) * z_terms)
    # the tanh form bounds a gate's absolute error, not its relative error,
    # so a gradient that saturated gates make small keeps an error of the
    # order 2^-53 times the unit-scale inputs and output weights
    for name, ref in want_grads.items():
        assert np.abs(params[name].grad - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0), name


def _attention_operands(t_k, seed=0, B=2, t_q=3, d=4):
    rng = np.random.default_rng(seed)
    return {"q": rng.normal(size=(B, t_q, d)), "k": rng.normal(size=(B, t_k, d)), "v": rng.normal(size=(B, t_k, d))}


def _attention_fd_error(operand, t_k, rate):
    ops = {name: ad.tensor(v) for name, v in _attention_operands(t_k).items()}
    wy = ad.tensor(np.random.default_rng(1).normal(size=ops["q"].shape))

    def loss(x: Tensor) -> Tensor:
        # a fresh generator per evaluation, so every evaluation drops the same weights
        out = ad.attention(**{**ops, operand: x}, n_heads=2, rate=rate, rng=np.random.default_rng(2))
        return sum_all(ad.mul(out, wy))

    x = ad.parameter(ops[operand].values.copy())
    return finite_diff_check(loss, x, eps=1e-6)


@pytest.mark.parametrize("rate", [0.0, 0.4], ids=["no_dropout", "dropout"])
@pytest.mark.parametrize("t_k", [3, 5], ids=["self", "cross"])
@pytest.mark.parametrize("operand", ["q", "k", "v"])
def test_attention_gradient_vs_finite_difference(operand, t_k, rate):
    assert _attention_fd_error(operand, t_k, rate) < 1e-6


def small_row_blocks(monkeypatch, rows, B, t_k):
    """Patch the attention block size so that (B, t_q, t_k) operands run in
    blocks of ``rows`` rows of q."""
    monkeypatch.setattr(ad, "_BLOCK_ELEMS", rows * B * t_k)


# 1-row blocks, and 2-row blocks that leave a 1-row tail of the 3 query rows
@pytest.mark.parametrize("rows", [1, 2], ids=["one_row", "uneven_tail"])
@pytest.mark.parametrize("rate", [0.0, 0.4], ids=["no_dropout", "dropout"])
@pytest.mark.parametrize("t_k", [3, 5], ids=["self", "cross"])
@pytest.mark.parametrize("operand", ["q", "k", "v"])
def test_attention_gradient_in_row_blocks(operand, t_k, rate, rows, monkeypatch):
    small_row_blocks(monkeypatch, rows, 2, t_k)
    assert _attention_fd_error(operand, t_k, rate) < 1e-6


def _attention_grads(ops, g, trace=None, rate=0.4, n_heads=2, needs_grad="qkv"):
    """Output and q, k, v gradients of one taped attention call with
    cotangent g; only the operands named in ``needs_grad`` are parameters."""
    q, k, v = (ad.parameter(ops[name]) if name in needs_grad else ad.tensor(ops[name]) for name in "qkv")
    tape = Tape()
    with record(tape):
        out = ad.attention(q, k, v, n_heads, rate, np.random.default_rng(3), trace)
    out.grad = g
    tape.nodes[-1]()
    return out.values, q.grad, k.grad, v.grad


@pytest.mark.parametrize("rate", [0.0, 0.4], ids=["no_dropout", "dropout"])
@pytest.mark.parametrize("needs_grad", ["q", "k", "v", "kv"])
def test_attention_backward_builds_only_the_gradients_it_needs(needs_grad, rate, monkeypatch):
    # an operand that needs no gradient gets none, and the others get the
    # bits they get when all three need one
    small_row_blocks(monkeypatch, 2, 2, 5)
    ops = _attention_operands(5, t_q=5)
    g = np.random.default_rng(2).normal(size=ops["q"].shape)
    _, *every = _attention_grads(ops, g, rate=rate)
    _, *some = _attention_grads(ops, g, rate=rate, needs_grad=needs_grad)
    for name, full, grad in zip("qkv", every, some, strict=True):
        assert (grad is None) if name not in needs_grad else np.array_equal(grad, full), name


# 1-row blocks, and 2-row blocks that leave a 1-row tail of the 5 query rows
@pytest.mark.parametrize("rows", [1, 2], ids=["one_row", "uneven_tail"])
def test_attention_draws_each_keep_mask_one_row_block_at_a_time(rows, monkeypatch):
    # with blocks smaller than a head, no (B, t_q, t_k) mask is drawn: each
    # _keep_mask call covers one block of rows of q, in row order, head by
    # head, and backward draws none
    small_row_blocks(monkeypatch, rows, 2, 5)
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 1)
    shapes, keep_mask = [], ad._keep_mask
    monkeypatch.setattr(ad, "_keep_mask", lambda rng, shape, rate: shapes.append(shape) or keep_mask(rng, shape, rate))
    ops = _attention_operands(5, t_q=5)
    _attention_grads(ops, np.ones(ops["q"].shape))
    head = [(2, 1, 5)] * 5 if rows == 1 else [(2, 2, 5), (2, 2, 5), (2, 1, 5)]
    assert shapes == head * 2


@pytest.mark.parametrize("rows", [None, 2], ids=["one_block", "uneven_tail"])
def test_attention_trace_changes_nothing(rows, monkeypatch):
    ops = _attention_operands(5, t_q=5)
    if rows is not None:
        small_row_blocks(monkeypatch, rows, 2, 5)
    g = np.random.default_rng(1).normal(size=ops["q"].shape)
    trace = []
    traced = _attention_grads(ops, g, trace)
    for want, got in zip(_attention_grads(ops, g), traced, strict=True):
        assert np.array_equal(want, got)
    assert len(trace) == 2
    for p in trace:
        assert p.shape == (2, 5, 5)
        assert np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-12)


@pytest.mark.parametrize("rate", [0.0, 0.4], ids=["no_dropout", "dropout"])
def test_attention_untaped_forward_matches_taped(rate):
    ops = _attention_operands(5, t_q=4)
    untaped = ad.attention(*(ad.tensor(ops[n]) for n in "qkv"), 2, rate, np.random.default_rng(3))
    taped, *_ = _attention_grads(ops, np.ones(ops["q"].shape), rate=rate)
    assert np.array_equal(untaped.values, taped)


@pytest.mark.parametrize("rate", [0.1, 0.5, 0.9])
def test_keep_fraction_within_binomial_bound(rate):
    # attention: with q = 0 every weight is 1/t_k, and each head's v is the
    # identity, so column j of head i's output is the keep mask of key j;
    # ffn_add_norm: with identity weights, the FFN's output is the keep mask of the hidden units
    B, t, heads = 2, 128, 2
    q = ad.tensor(np.zeros((B, t, heads * t)))
    v = ad.tensor(np.tile(np.eye(t), (B, 1, heads)))
    attended = ad.attention(q, v, v, heads, rate, np.random.default_rng(5)).values
    dropped, _ = _identity_ffn(np.ones((B * heads * t, t)), rate, np.random.default_rng(6))
    for out, kept_value in ((attended, 1.0 / t), (dropped, 1.0)):
        n = out.size
        kept = np.count_nonzero(out)
        assert abs(kept - n * (1.0 - rate)) <= 5.0 * math.sqrt(n * rate * (1.0 - rate))
        assert np.allclose(out[out != 0], kept_value / (1.0 - rate), rtol=1e-12)


def test_attention_keeps_no_score_map_for_backward():
    # dropout off: what the tape keeps between forward and backward (the
    # output and each row's shift and sum) stays below one float64
    # (t_q, t_k) map of one head
    B, t, heads = 2, 256, 4
    rng = np.random.default_rng(0)
    q, k, v = (ad.parameter(rng.normal(size=(B, t, 8))) for _ in range(3))
    tape = Tape()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with record(tape):
            out = ad.attention(q, k, v, heads)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < t * t * 8, f"attention keeps {kept} bytes for backward"
    out.grad = np.ones(out.shape)
    tape.nodes[-1]()
    assert all(np.isfinite(x.grad).all() for x in (q, k, v))


def test_attention_keeps_each_keep_mask_packed_to_one_bit_per_weight():
    # under dropout the tape keeps, on top of what it keeps without dropout,
    # each head's keep mask as ceil(t_k / 8) bytes per row, not one byte a weight
    B, t_q, t_k, heads = 2, 200, 301, 4
    rng = np.random.default_rng(0)
    ops = [ad.parameter(rng.normal(size=(B, t, 8))) for t in (t_q, t_k, t_k)]

    def kept(rate):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tape = Tape()
            with record(tape):
                out = ad.attention(*ops, heads, rate, np.random.default_rng(1))
            return tracemalloc.get_traced_memory()[0] - before, tape, out
        finally:
            tracemalloc.stop()

    plain, *_ = kept(0.0)
    dropped, tape, out = kept(0.3)
    packed = heads * B * t_q * math.ceil(t_k / 8)
    assert packed <= dropped - plain <= 1.1 * packed + 4096, (dropped - plain, packed)
    out.grad = np.ones(out.shape)
    tape.nodes[-1]()
    assert all(np.isfinite(x.grad).all() for x in ops)


def test_attention_gradient_through_one_shared_operand():
    # self-attention on one tensor: the q, k and v gradients accumulate
    x0 = _attention_operands(3)["q"]
    wy = ad.tensor(np.random.default_rng(1).normal(size=x0.shape))

    def loss(x: Tensor) -> Tensor:
        return sum_all(ad.mul(ad.attention(x, x, x, 4, 0.4, np.random.default_rng(2)), wy))

    assert finite_diff_check(loss, ad.parameter(x0), eps=1e-6) < 1e-6


def _assert_matches_softmax_reference(ops, n_heads, rate):
    """ad.attention and its trace maps equal the reference to 1e-12,
    relative to the largest value the output can reach."""
    trace = []
    got = ad.attention(*(ad.tensor(ops[n]) for n in "qkv"), n_heads, rate, np.random.default_rng(3), trace).values
    want, maps = softmax_attention(*(ops[n] for n in "qkv"), n_heads, rate,
                                   np.random.default_rng(3) if rate > 0 else None)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(ops["v"]).max() / (1.0 - rate)
    assert len(trace) == len(maps)
    for p, ref in zip(trace, maps):
        assert np.abs(p - ref).max() <= 1e-12


# score scales from 1e-3 to 1e3: near 1e3, about one row in eight has a
# bound more than 600 above its max, and its head takes the exact-max path
# (two rows do in each explicit example)
@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), log_scale=st.floats(-3.0, 3.0), B=st.integers(1, 2),
       t_q=st.integers(1, 6), t_k=st.integers(1, 6), n_heads=st.sampled_from([1, 2, 4]),
       rate=st.sampled_from([0.0, 0.4]))
@example(seed=1, log_scale=3.0, B=2, t_q=4, t_k=5, n_heads=2, rate=0.0)
@example(seed=1, log_scale=3.0, B=2, t_q=4, t_k=5, n_heads=2, rate=0.4)
def test_attention_matches_softmax_reference(seed, log_scale, B, t_q, t_k, n_heads, rate):
    ops = _attention_operands(t_k, seed, B, t_q)
    ops["q"] *= 10.0 ** log_scale
    _assert_matches_softmax_reference(ops, n_heads, rate)


def _loose_bound_operands(seed=0, B=2, t_q=3, t_k=5, d=8):
    """Operands for two heads of width 4 whose score bound exceeds the max
    of query row 0 by about 800 in every head and batch: each key's columns
    alternate +-20 (sign per key) and row 0 of q is near 20 in every
    column, so its scores stay within a few units of 0 while the bound is
    sum_c |q_c| 20 / 2. The other rows score within a few units too."""
    rng = np.random.default_rng(seed)
    sign = rng.choice([-1.0, 1.0], size=(B, t_k, 1))
    k = 20.0 * sign * np.tile([1.0, -1.0], d // 2) + 0.05 * rng.normal(size=(B, t_k, d))
    q = 0.1 * rng.normal(size=(B, t_q, d))
    q[:, 0] = 20.0 + 0.05 * rng.normal(size=(B, d))
    return {"q": q, "k": k, "v": rng.normal(size=(B, t_k, d))}


def _bound_gaps(ops, n_heads):
    """Each head's score bound minus each row's max: (n_heads, B, t_q)."""
    d_head = ops["q"].shape[-1] // n_heads
    qs = ops["q"] / math.sqrt(d_head)
    bound = ad._score_bounds(qs, ops["k"], n_heads)[..., 0]
    gaps = []
    for i in range(n_heads):
        cols = slice(i * d_head, (i + 1) * d_head)
        s = qs[..., cols] @ np.swapaxes(ops["k"][..., cols], -1, -2)
        gaps.append(bound[i] - s.max(axis=-1))
    return np.stack(gaps)


@pytest.mark.parametrize("rate", [0.0, 0.4], ids=["no_dropout", "dropout"])
def test_attention_falls_back_to_row_max_when_bound_is_loose(rate):
    # with the bound as shift, row 0's exponentials all underflow to 0
    ops = _loose_bound_operands()
    gaps = _bound_gaps(ops, 2)
    assert np.all(gaps[:, :, 0] > 600.0) and np.all(gaps[:, :, 1:] < 600.0)
    _assert_matches_softmax_reference(ops, 2, rate)


@pytest.mark.parametrize("rate", [0.0, 0.4], ids=["no_dropout", "dropout"])
@pytest.mark.parametrize("operand", ["q", "k", "v"])
def test_attention_gradient_with_loose_bound(operand, rate):
    ops = {name: ad.tensor(v) for name, v in _loose_bound_operands().items()}
    wy = ad.tensor(np.random.default_rng(1).normal(size=ops["q"].shape))

    def loss(x: Tensor) -> Tensor:
        out = ad.attention(**{**ops, operand: x}, n_heads=2, rate=rate, rng=np.random.default_rng(2))
        return sum_all(ad.mul(out, wy))

    x = ad.parameter(ops[operand].values.copy())
    assert finite_diff_check(loss, x, eps=1e-6) < 1e-6


@given(seed=st.integers(0, 2 ** 32 - 1), t_k=st.integers(1, 5), n_heads=st.sampled_from([1, 2, 4]))
def test_score_bound_is_at_least_every_row_max(seed, t_k, n_heads):
    # integer operands, so every product and sum here is exact in float64
    rng = np.random.default_rng(seed)
    qs = rng.integers(-1000, 1001, size=(2, 3, 4)).astype(np.float64)
    k = rng.integers(-1000, 1001, size=(2, t_k, 4)).astype(np.float64)
    bound = ad._score_bounds(qs, k, n_heads)
    assert bound.shape == (n_heads, 2, 3, 1)
    d_head = 4 // n_heads
    for i in range(n_heads):
        cols = slice(i * d_head, (i + 1) * d_head)
        row_max = (qs[..., cols] @ np.swapaxes(k[..., cols], -1, -2)).max(axis=-1, keepdims=True)
        assert np.all(bound[i] >= row_max)
        if t_k == 1:  # one key: the bound is its score
            assert np.array_equal(bound[i], row_max)


@pytest.mark.parametrize("t_k, d", [(0, 4), (5, 0)], ids=["no_keys", "no_width"])
def test_attention_rejects_no_keys_or_no_width(t_k, d):
    ops = _attention_operands(t_k, d=d)
    with pytest.raises(DimensionError, match="attention"):
        ad.attention(*(ad.tensor(ops[n]) for n in "qkv"), 2)


@pytest.mark.parametrize("B, t_q", [(0, 3), (2, 0)], ids=["no_batch", "no_queries"])
def test_attention_empty_operands_give_empty_results(B, t_q):
    ops = _attention_operands(5, B=B, t_q=t_q)
    out, *grads = _attention_grads(ops, np.ones((B, t_q, 4)))
    assert out.shape == (B, t_q, 4)
    for name, grad in zip("qkv", grads, strict=True):
        assert grad.shape == ops[name].shape and not grad.any()


@pytest.mark.parametrize("operand, shape, n_heads", [
    ("q", (3, 4), 2),  # not (B, t_q, d)
    ("q", (2, 3, 6), 2),  # width differs from k's
    ("q", (1, 3, 4), 2),  # batch differs from k's
    ("k", (2, 5, 4, 1), 2),
    ("v", (2, 4, 4), 2),  # rows differ from k's
    ("v", (2, 5, 2), 2),
    (None, None, 3),  # width 4 not divisible by 3 heads
    (None, None, 0),
    (None, None, 2.0),  # a head count that is not an integer
    (None, None, True),
])
def test_attention_rejects_bad_shapes(operand, shape, n_heads):
    ops = _attention_operands(5)
    if operand is not None:
        ops[operand] = np.zeros(shape)
    with pytest.raises(DimensionError, match="attention"):
        ad.attention(*(ad.tensor(v) for v in ops.values()), n_heads)


@pytest.mark.parametrize("op, rate", [
    ("attention", -0.1), ("attention", 1.0), ("attention", math.nan),
    ("ffn", -0.5), ("ffn", 1.0), ("ffn", math.nan),
], ids=["-0.1", "1.0", "nan", "ffn--0.5", "ffn-1.0", "ffn-nan"])
def test_attention_rejects_rate_outside_unit_interval(op, rate):
    with pytest.raises(ContractError, match="dropout rate"):
        if op == "attention":
            ad.attention(*(ad.tensor(v) for v in _attention_operands(5).values()), 2, rate, np.random.default_rng(0))
        else:
            _identity_ffn(np.ones((2, 3)), rate, np.random.default_rng(0))


def _helper_threads(monkeypatch, cpus):
    """Report ``cpus`` usable CPUs to attention and record how many helper
    threads each of its forward and backward calls starts; returns the
    list, which grows by one per call (0 when the calling thread runs every
    head)."""
    calls, started, run_heads = [], _threads_started(monkeypatch), ad._run_heads

    def counting_run_heads(*args):
        before = len(started)
        try:
            run_heads(*args)
        finally:
            calls.append(len(started) - before)

    monkeypatch.setattr(ad, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(ad, "_run_heads", counting_run_heads)
    return calls


def _pool_sized_operands(B, fallback, seed=0, n_heads=4, d_head=4):
    """Operands for n_heads heads of width d_head with at least
    ``_BLOCK_ELEMS`` scores per head, so they run on helper threads when two
    CPUs are usable. With ``fallback``, head 0 alone has keys whose columns
    alternate +-20 and a query row 0 near 20 (see _loose_bound_operands):
    its bound exceeds that row's max by far more than 600, so head 0 alone
    takes the exact-max rerun and does twice the work of the others."""
    t = math.isqrt(ad._BLOCK_ELEMS // B) + 1
    rng = np.random.default_rng(seed)
    q, k, v = (rng.normal(size=(B, t, n_heads * d_head)) for _ in range(3))
    if fallback:
        sign = rng.choice([-1.0, 1.0], size=(B, t, 1))
        k[..., :d_head] = 20.0 * sign * np.tile([1.0, -1.0], d_head // 2)
        q[:, 0, :d_head] = 20.0 + 0.05 * rng.normal(size=(B, d_head))
        assert np.all(_bound_gaps({"q": q, "k": k}, n_heads)[0, :, 0] > 600.0)
    return {"q": q, "k": k, "v": v}


def _pooled_and_serial(monkeypatch, ops, rate, n_heads=4, pooled_cpus=2):
    """Output, gradients and trace maps of one taped call on ``pooled_cpus``
    CPUs and of one on a single CPU, each with the helper threads its
    forward and backward started, per call and as a list."""
    g = np.random.default_rng(1).normal(size=ops["q"].shape)
    runs = []
    for cpus in (pooled_cpus, 1):
        with monkeypatch.context() as m:
            calls = _helper_threads(m, cpus)
            started = _threads_started(m)
            q, k, v = (ad.parameter(ops[name]) for name in "qkv")
            trace, tape = [], Tape()
            with record(tape):
                out = ad.attention(q, k, v, n_heads, rate, np.random.default_rng(3), trace)
            out.grad = g
            tape.nodes[-1]()
            runs.append(((out.values, q.grad, k.grad, v.grad, *trace), calls, started))
    return runs


@pytest.mark.parametrize("fallback", [False, True], ids=["bound", "exact_max_head"])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("rate", [0.0, 0.4], ids=["no_dropout", "dropout"])
def test_attention_pooled_heads_match_serial_bit_for_bit(rate, B, fallback, monkeypatch):
    ops = _pool_sized_operands(B, fallback)
    # forward and backward: one helper thread each on two CPUs, none on one
    (pooled, pool_calls, pool_threads), (serial, serial_calls, serial_threads) = _pooled_and_serial(
        monkeypatch, ops, rate)
    assert pool_calls == [1, 1] and serial_calls == [0, 0]
    assert len(pool_threads) == 2 and serial_threads == []
    assert len(pooled) == len(serial) == 4 + 4
    for want, got in zip(serial, pooled, strict=True):
        assert np.array_equal(want, got)


class _LastFirstThread:
    """Thread double that runs nothing when started: the first ``join``
    runs every waiting target in the joining thread, last started first.
    So the helper workers run only after the calling thread has run worker
    0, and finish in reverse order."""

    waiting = []

    def __init__(self, target, args=(), **kwargs):
        self.target, self.args = target, args

    def start(self):
        self.waiting.append(self)

    def join(self):
        while self.waiting:
            thread = self.waiting.pop()
            thread.target(*thread.args)


@pytest.mark.parametrize("rate", [0.0, 0.4], ids=["no_dropout", "dropout"])
def test_attention_heads_finishing_out_of_order_change_nothing(rate, monkeypatch):
    # each head draws its keep mask from its own seed, and trace maps are
    # kept in head order, whatever order the heads run and finish in: here
    # four workers of one head each run heads 0, 3, 2 and 1 in that order
    ops = _pool_sized_operands(1, fallback=False)
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 1)
    serial = _attention_grads(ops, np.ones(ops["q"].shape), trace := [], rate, n_heads=4)
    order, run_heads = [], ad._run_heads
    monkeypatch.setattr(ad, "_run_heads", lambda head, n, buffers: run_heads(
        lambda buf, i: order.append(i) or head(buf, i), n, buffers))
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 4)
    monkeypatch.setattr(_LastFirstThread, "waiting", [])
    monkeypatch.setattr(threading, "Thread", _LastFirstThread)
    reordered = _attention_grads(ops, np.ones(ops["q"].shape), reordered_trace := [], rate, n_heads=4)
    assert order == [0, 3, 2, 1] * 2  # forward and backward
    for want, got in zip((*serial, *trace), (*reordered, *reordered_trace), strict=True):
        assert np.array_equal(want, got)


def test_attention_pool_with_more_threads_than_cpus_matches_serial(monkeypatch):
    # eight heads on the calling thread and seven helper threads, switching every microsecond
    ops = _pool_sized_operands(1, fallback=True, n_heads=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        (pooled, pool_calls, _), (serial, *_) = _pooled_and_serial(monkeypatch, ops, 0.4, n_heads=8, pooled_cpus=8)
    finally:
        sys.setswitchinterval(interval)
    assert pool_calls == [7, 7]  # forward and backward
    for want, got in zip(serial, pooled, strict=True):
        assert np.array_equal(want, got)


def test_attention_pooled_heads_in_small_row_blocks_match_serial(monkeypatch):
    # three workers split four heads unevenly (worker 0, the calling thread,
    # runs heads 0 and 3), each head in four row blocks, with head 0 rerun at
    # its exact max
    ops = _pool_sized_operands(1, fallback=True)
    small_row_blocks(monkeypatch, 100, 1, ops["k"].shape[1])
    (pooled, pool_calls, _), (serial, *_) = _pooled_and_serial(monkeypatch, ops, 0.4, pooled_cpus=3)
    assert pool_calls == [2, 2]  # forward and backward
    for want, got in zip(serial, pooled, strict=True):
        assert np.array_equal(want, got)


@pytest.mark.parametrize("rows", [1, 2], ids=["one_row", "uneven_tail"])
@pytest.mark.parametrize("t_k", [3, 5], ids=["self", "cross"])
def test_attention_row_block_tests_run_pooled(rows, t_k, monkeypatch):
    # small_row_blocks shrinks the block below a head's scores, so the
    # row-block gradient tests above run head 1 on a helper thread
    small_row_blocks(monkeypatch, rows, 2, t_k)
    calls = _helper_threads(monkeypatch, 2)
    _attention_fd_error("q", t_k, 0.4)
    assert calls and all(n == 1 for n in calls)


def test_attention_pool_works_in_a_child_forked_after_a_pooled_call(monkeypatch):
    # a child forked after a pooled call must run pooled calls of its own
    # and get the parent's bits, without waiting on any thread of the parent
    ops = _pool_sized_operands(1, fallback=False)
    calls = _helper_threads(monkeypatch, 2)
    want = ad.attention(*(ad.tensor(ops[n]) for n in "qkv"), 4).values
    assert calls == [1]
    with warnings.catch_warnings():
        # Python 3.12+ warns on every fork of a process with threads, and
        # pytest's faulthandler_timeout runs a watchdog thread
        warnings.filterwarnings("ignore", "This process .* is multi-threaded", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            got = ad.attention(*(ad.tensor(ops[n]) for n in "qkv"), 4).values
            code = 0 if np.array_equal(got, want) else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.02)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child's pooled attention call did not finish within 60 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0


def _threads_started(monkeypatch):
    """Record every thread started from now on; returns the list."""
    started = []
    start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self) or start(self))
    return started


class _DrawFailed(Exception):
    pass


@pytest.mark.parametrize("stage", ["forward", "backward", "third_draw_raises", "caller_draw_raises"])
def test_attention_joins_every_thread_it_starts(stage, monkeypatch):
    # on two CPUs, each forward or backward starts one helper thread, and
    # none is alive once it returns, or once a keep-mask draw raises and the
    # error reaches the caller: the third draw made on the helper thread
    # (head 3's first row block), or the calling thread's first, made while
    # the helper still runs
    ops = _pool_sized_operands(1, fallback=False)
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
    caller, on_caller = threading.current_thread(), stage == "caller_draw_raises"
    if stage.endswith("_raises"):
        draws, raised_on, keep_mask = itertools.count(), [], ad._keep_mask
        fail_at = 0 if on_caller else 2

        def failing_keep_mask(*args):
            if (threading.current_thread() is caller) == on_caller and next(draws) == fail_at:
                raised_on.append(threading.current_thread())
                raise _DrawFailed
            return keep_mask(*args)

        monkeypatch.setattr(ad, "_keep_mask", failing_keep_mask)
    q, k, v = (ad.parameter(ops[n]) for n in "qkv")
    tape = Tape()

    def forward():
        with record(tape):
            return ad.attention(q, k, v, 4, 0.4, np.random.default_rng(0))

    if stage == "backward":
        out = forward()
        out.grad = np.ones(out.shape)
    before = threading.active_count()
    started = _threads_started(monkeypatch)
    if stage == "forward":
        forward()
    elif stage == "backward":
        tape.nodes[-1]()
    else:
        with pytest.raises(_DrawFailed):
            forward()
        assert len(raised_on) == 1
        assert (raised_on[0] is caller) if on_caller else (raised_on[0] in started)
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [2, 1], ids=["pooled", "serial"])
def test_backward_matches_a_replay_of_a_copy_of_the_nodes(cpus, monkeypatch):
    # backward drops each node once it has run; the gradients must equal a
    # replay that keeps every node alive, with dropout on in attention and ffn_add_norm
    calls = _helper_threads(monkeypatch, cpus)
    ops = _pool_sized_operands(1, fallback=False)
    d = ops["q"].shape[-1]
    init = np.random.default_rng(4).normal(size=(6, d, d)) / math.sqrt(d)

    def grads(run):
        x, kv, *ws = (ad.parameter(v) for v in (ops["q"], ops["k"], *init))
        bias, gain = ad.tensor(np.zeros(d)), ad.tensor(np.ones(d))
        rng = np.random.default_rng(5)
        tape = Tape()
        with record(tape):
            q, k, v = (ad.linear(a, w) for a, w in ((x, ws[0]), (kv, ws[1]), (kv, ws[2])))
            a = ad.project_add_norm(ad.attention(q, k, v, 4, 0.3, rng), ws[3], bias, x, gain, bias)
            y = ad.ffn_add_norm(a, ws[4], bias, ws[5], bias, gain, bias, 0.3, rng)
            out = ad.rmse(y, ad.tensor(ops["v"]))
        run(tape, out)
        return [t.grad for t in (x, kv, *ws)]

    def replay(tape, root):
        root.grad = np.ones_like(root.values)
        for node in reversed(list(tape.nodes)):
            node()

    want = grads(replay)
    got = grads(backward)
    assert calls == [1 if cpus == 2 else 0] * 4  # forward and backward, per run
    for w, g in zip(want, got, strict=True):
        assert np.array_equal(w, g)


def test_gradients_accumulate_across_shared_use():
    x = ad.parameter([2.0])
    tape = Tape()
    with record(tape):
        out = sum_all(ad.add(ad.mul(x, x), ad.mul(x, ad.tensor([3.0]))))
    backward(tape, out)
    assert np.allclose(x.grad, [7.0])  # 2x + 3


def test_ffn_draws_nothing_at_zero_rate_and_scales_expectation():
    x = np.ones((100, 10))
    rng = np.random.default_rng(7)
    state = rng.bit_generator.state
    out, same = _identity_ffn(x, 0.0, rng)
    assert np.array_equal(out, same)
    assert rng.bit_generator.state == state
    out, _ = _identity_ffn(x, 0.5, rng)
    kept = out[out > 0]
    assert np.allclose(kept, 2.0)
    assert abs(out.mean() - 1.0) < 0.1


def test_dropout_rejects_missing_generator():
    with pytest.raises(ContractError, match="ffn_add_norm: rng"):
        _identity_ffn(np.ones((2, 3)), 0.1, None)


def test_attention_dropout_rejects_missing_generator():
    ops = (ad.tensor(v) for v in _attention_operands(5).values())
    with pytest.raises(ContractError, match="attention: rng"):
        ad.attention(*ops, 2, 0.1)


def test_no_tape_means_no_graph():
    x = ad.parameter(np.ones(3))
    out = ad.mul(x, x)
    assert out.tape_id is None and not out.requires_grad
