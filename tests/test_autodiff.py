import inspect
import math
import os
import signal
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import Future

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
    finite_diff_check,
    record,
)

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
        return ad.sum_all(ad.mul(ad.tanh(ad.linear(**args)), wy))

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
    x = ad.tensor([1.0, 2.0])
    for a, b in ((x, 3.0), (3.0, x), (x, ad.tensor(3.0))):
        with pytest.raises(DimensionError, match="differ"):
            op(a, b)
    assert op(ad.tensor(2.0), ad.tensor(3.0)).shape == ()


@given(arrays(np.float64, (4,), elements=finite_floats), arrays(np.float64, (4,), elements=finite_floats))
def test_add_commutes(a, b):
    assert np.array_equal(ad.add(ad.tensor(a), ad.tensor(b)).values, ad.add(ad.tensor(b), ad.tensor(a)).values)


def test_relu_sign_split():
    assert np.array_equal(ad.relu(ad.tensor([-1.0, 0.0, 2.0])).values, [0.0, 0.0, 2.0])


def test_sigmoid_symmetry_point():
    assert ad.sigmoid(ad.tensor([0.0])).values[0] == 0.5


def test_tanh_standard_value():
    assert ad.tanh(ad.tensor([0.5])).values[0] == pytest.approx(0.46211716, abs=1e-8)


def test_activation_dispatch_unknown():
    with pytest.raises(ContractError):
        ad.activation("gelu", ad.tensor([1.0]))


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


def test_layer_norm_constant_row_zeroed():
    x = ad.tensor([[5.0, 5.0, 5.0]])
    out = ad.layer_norm(x, ad.tensor(np.ones(3)), ad.tensor(np.zeros(3)))
    assert np.allclose(out.values, 0.0)


def test_layer_norm_two_point_row():
    out = ad.layer_norm(ad.tensor([[1.0, 3.0]]), ad.tensor(np.ones(2)), ad.tensor(np.zeros(2)), eps=1e-12)
    assert np.allclose(out.values, [[-1.0, 1.0]], atol=1e-5)


def test_layer_norm_zero_gain_gives_bias():
    rng = np.random.default_rng(2)
    x = ad.tensor(rng.normal(size=(4, 3)))
    bias = np.array([1.0, -2.0, 0.5])
    out = ad.layer_norm(x, ad.tensor(np.zeros(3)), ad.tensor(bias))
    assert np.allclose(out.values, np.broadcast_to(bias, (4, 3)))


def test_backward_sum_gives_ones():
    x = ad.parameter(np.arange(6.0).reshape(2, 3))
    tape = Tape()
    with record(tape):
        out = ad.sum_all(x)
    backward(tape, out)
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_sum():
    x = ad.parameter([1.0, 2.0])
    tape = Tape()
    with record(tape):
        out = ad.sum_all(ad.mul(x, x))
    backward(tape, out)
    assert np.allclose(x.grad, [2.0, 4.0])


def test_backward_rmse_degenerate_is_zero_subgradient():
    x = ad.parameter([1.0, 2.0, 3.0])
    tape = Tape()
    with record(tape):
        out = ad.rmse(x, ad.tensor([1.0, 2.0, 3.0]))
    backward(tape, out)
    assert np.array_equal(x.grad, np.zeros(3))


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
        w = ad.tanh(z)          # node 3
        out = ad.sum_all(w)     # node 4
    assert len(tape) == 4
    backward(tape, out)
    assert tape.visits == 4


def test_backward_rejects_root_of_another_tape():
    x = ad.parameter([1.0, 2.0])
    tape, other = Tape(), Tape()
    with record(tape):
        out = ad.sum_all(ad.mul(x, x))
    for wrong_tape, root in ((other, out), (tape, ad.sum_all(x))):
        with pytest.raises(ContractError, match="^backward root was not recorded on this tape$"):
            backward(wrong_tape, root)


def test_forward_determinism():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 5, 4))

    def run():
        t = ad.tensor(x)
        trace = []
        out = ad.attention(ad.tanh(t), t, t, 2, 0.3, np.random.default_rng(4), trace)
        return out.values, trace

    (a, trace_a), (b, trace_b) = run(), run()
    assert np.array_equal(a, b)
    assert all(np.array_equal(p, r) for p, r in zip(trace_a, trace_b, strict=True))


def test_finite_diff_exact_for_linear():
    x = ad.parameter(np.random.default_rng(4).normal(size=(3, 2)))
    err = finite_diff_check(ad.sum_all, x, eps=1e-5)
    assert err < 1e-9


def test_finite_diff_tanh_sum():
    x = ad.parameter(np.random.default_rng(5).uniform(-1, 1, size=5))
    err = finite_diff_check(lambda t: ad.sum_all(ad.tanh(t)), x, eps=1e-5)
    assert err < 1e-5


def test_finite_diff_eps_bounds():
    x = ad.parameter(np.ones(2))
    with pytest.raises(ContractError):
        finite_diff_check(ad.sum_all, x, eps=1e-2)


def _op_cases():
    """Scalar-valued probes exercising every differentiable op's backward."""

    def wrap(build):
        return build

    return {
        "add": wrap(lambda x: ad.sum_all(ad.add(x, ad.tanh(x)))),
        "mul": wrap(lambda x: ad.sum_all(ad.mul(x, x))),
        "relu": wrap(lambda x: ad.sum_all(ad.relu(x))),
        "tanh": wrap(lambda x: ad.sum_all(ad.tanh(x))),
        "sigmoid": wrap(lambda x: ad.sum_all(ad.sigmoid(x))),
        "layer_norm": wrap(
            lambda x: ad.sum_all(
                ad.mul(ad.layer_norm(x, ad.tensor(np.ones(4)), ad.tensor(np.zeros(4)), eps=1e-3), x))),
        "reshape": wrap(lambda x: ad.sum_all(ad.tanh(ad.reshape(x, (2, 8))))),
        "tile_leading": wrap(lambda x: ad.sum_all(
            ad.tanh(ad.mul(ad.tile_leading(x, 3), ad.tensor(np.linspace(-2.0, 2.0, 48).reshape(3, 4, 4)))))),
        "last_step": wrap(lambda x: ad.sum_all(ad.tanh(ad.last_step(ad.reshape(x, (2, 2, 4)))))),
        "rmse": wrap(lambda x: ad.rmse(x, ad.tensor(np.full((4, 4), 0.3)))),
        # a fresh generator per evaluation, so every evaluation drops the same entries
        "dropout": wrap(lambda x: ad.sum_all(ad.mul(ad.dropout(x, 0.4, np.random.default_rng(0)), x))),
    }


@pytest.mark.parametrize("name", sorted(_op_cases()))
def test_every_op_gradient_vs_finite_difference(name):
    # 10 random seeds per op, relative error under 1e-4 at eps=1e-5.
    build = _op_cases()[name]
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        x = ad.parameter(rng.uniform(-1.0, 1.0, size=(4, 4)) + 0.1)
        worst = max(worst, finite_diff_check(build, x, eps=1e-5))
    assert worst < 1e-4, f"{name}: max rel err {worst}"


def test_every_recording_op_has_a_finite_difference_check():
    # the public ops that record a tape node, found by their call to _emit
    recording = {name for name, fn in inspect.getmembers(ad, inspect.isfunction)
                 if fn.__module__ == ad.__name__ and not name.startswith("_") and "_emit(" in inspect.getsource(fn)}
    assert {"add", "linear", "attention", "lstm_sequence"} <= recording
    dedicated = {
        "linear": test_linear_gradient_vs_finite_difference,
        "attention": test_attention_gradient_vs_finite_difference,
        "lstm_sequence": test_lstm_sequence_gradient_vs_finite_difference,
        "sum_all": test_finite_diff_exact_for_linear,  # sum_all alone
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
        out = ad.sum_all(ad.add(s, p))
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
        out = ad.add(ad.sum_all(r), ad.sum_all(p))
    backward(tape, out)
    assert np.array_equal(x.grad, np.full(4, 4.0))
    assert np.array_equal(r.grad, np.ones((2, 2)))


def test_sigmoid_matches_three_exp_formula_bitwise():
    v = np.concatenate([np.linspace(-800.0, 800.0, 2001), [0.0, -0.0, 1e-300, -1e-300, np.inf, -np.inf, np.nan]])
    e = np.exp(-np.abs(v))
    with np.errstate(invalid="ignore"):
        expect = np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        got = ad.sigmoid(ad.tensor(v)).values
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


@pytest.mark.parametrize("outputs", ["h_seq", "c_T", "both"])
@pytest.mark.parametrize("operand", ["x_seq", "h0", "c0", "w", "u", "b"])
def test_lstm_sequence_gradient_vs_finite_difference(operand, outputs):
    ops = {k: ad.tensor(v) for k, v in _lstm_operands().items()}
    rng = np.random.default_rng(1)
    wh = ad.tensor(rng.normal(size=ops["x_seq"].shape[:2] + (2,)))
    wc = ad.tensor(rng.normal(size=ops["h0"].shape))

    def loss(x: Tensor) -> Tensor:
        h_seq, c_T = ad.lstm_sequence(**{**ops, operand: x})
        terms = {"h_seq": [ad.mul(h_seq, wh)], "c_T": [ad.mul(c_T, wc)]}
        terms["both"] = terms["h_seq"] + terms["c_T"]
        parts = [ad.sum_all(t) for t in terms[outputs]]
        return parts[0] if len(parts) == 1 else ad.add(parts[0], parts[1])

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


def _attention_operands(t_k, seed=0, B=2, t_q=3, d=4):
    rng = np.random.default_rng(seed)
    return {"q": rng.normal(size=(B, t_q, d)), "k": rng.normal(size=(B, t_k, d)), "v": rng.normal(size=(B, t_k, d))}


def _attention_fd_error(operand, t_k, rate):
    ops = {name: ad.tensor(v) for name, v in _attention_operands(t_k).items()}
    wy = ad.tensor(np.random.default_rng(1).normal(size=ops["q"].shape))

    def loss(x: Tensor) -> Tensor:
        # a fresh generator per evaluation, so every evaluation drops the same weights
        out = ad.attention(**{**ops, operand: x}, n_heads=2, rate=rate, rng=np.random.default_rng(2))
        return ad.sum_all(ad.mul(out, wy))

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


def _attention_grads(ops, g, trace=None, rate=0.4):
    """Output and q, k, v gradients of one taped attention call with cotangent g."""
    q, k, v = (ad.parameter(ops[name]) for name in "qkv")
    tape = Tape()
    with record(tape):
        out = ad.attention(q, k, v, 2, rate, np.random.default_rng(3), trace)
    out.grad = g
    tape.nodes[-1]()
    return out.values, q.grad, k.grad, v.grad


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
    # identity, so column j of head i's output is the keep mask of key j
    B, t, heads = 2, 128, 2
    q = ad.tensor(np.zeros((B, t, heads * t)))
    v = ad.tensor(np.tile(np.eye(t), (B, 1, heads)))
    attended = ad.attention(q, v, v, heads, rate, np.random.default_rng(5)).values
    dropped = ad.dropout(ad.tensor(np.ones((B * heads * t, t))), rate, np.random.default_rng(6)).values
    for out, kept_value in ((attended, 1.0 / t), (dropped, 1.0)):
        n = out.size
        kept = np.count_nonzero(out)
        assert abs(kept - n * (1.0 - rate)) <= 5.0 * math.sqrt(n * rate * (1.0 - rate))
        assert np.allclose(out[out != 0], kept_value / (1.0 - rate), rtol=1e-12)


def test_attention_keeps_no_score_map_for_backward():
    # dropout off: what the tape keeps between forward and backward (the
    # output, the scaled q and each row's max and sum) stays below one
    # float64 (t_q, t_k) map of one head
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


def test_attention_gradient_through_one_shared_operand():
    # self-attention on one tensor: the q, k and v gradients accumulate
    x0 = _attention_operands(3)["q"]
    wy = ad.tensor(np.random.default_rng(1).normal(size=x0.shape))

    def loss(x: Tensor) -> Tensor:
        return ad.sum_all(ad.mul(ad.attention(x, x, x, 4, 0.4, np.random.default_rng(2)), wy))

    assert finite_diff_check(loss, ad.parameter(x0), eps=1e-6) < 1e-6


def softmax_attention(q, k, v, n_heads, rate=0.0, rng=None):
    """Plain-numpy reference of ad.attention: per head, softmax(Q_i K_i^T /
    sqrt(d_head)) shifted by each row's exact max, times V_i, with keep masks
    drawn in head order when ``rng`` is given. Returns the output and every
    head's P_i."""
    d_head = q.shape[-1] // n_heads
    out, maps = np.empty(q.shape), []
    for lo in range(0, q.shape[-1], d_head):
        cols = slice(lo, lo + d_head)
        s = q[..., cols] @ np.swapaxes(k[..., cols], -1, -2) / math.sqrt(d_head)
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        maps.append(p)
        if rng is not None:
            p = p * ad._keep_mask(rng, p.shape, rate) / (1.0 - rate)
        out[..., cols] = p @ v[..., cols]
    return out, maps


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
@settings(max_examples=60, deadline=None)
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
        return ad.sum_all(ad.mul(out, wy))

    x = ad.parameter(ops[operand].values.copy())
    assert finite_diff_check(loss, x, eps=1e-6) < 1e-6


@settings(deadline=None)
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
])
def test_attention_rejects_bad_shapes(operand, shape, n_heads):
    ops = _attention_operands(5)
    if operand is not None:
        ops[operand] = np.zeros(shape)
    with pytest.raises(DimensionError, match="attention"):
        ad.attention(*(ad.tensor(v) for v in ops.values()), n_heads)


@pytest.mark.parametrize("op, rate", [
    ("attention", -0.1), ("attention", 1.0), ("attention", math.nan),
    ("dropout", -0.5), ("dropout", 1.0), ("dropout", math.nan),
], ids=["-0.1", "1.0", "nan", "dropout--0.5", "dropout-1.0", "dropout-nan"])
def test_attention_rejects_rate_outside_unit_interval(op, rate):
    with pytest.raises(ContractError, match="dropout rate"):
        if op == "attention":
            ad.attention(*(ad.tensor(v) for v in _attention_operands(5).values()), 2, rate, np.random.default_rng(0))
        else:
            ad.dropout(ad.tensor(np.ones((2, 3))), rate, np.random.default_rng(0))


def _head_pool_calls(monkeypatch, cpus):
    """Report ``cpus`` usable CPUs to attention and count its pool requests;
    returns the list that grows by one per request."""
    calls = []
    pool = ad._head_pool
    monkeypatch.setattr(ad, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(ad, "_head_pool", lambda: calls.append(1) or pool())
    return calls


def _pool_sized_operands(B, fallback, seed=0, n_heads=4, d_head=4):
    """Operands for n_heads heads of width d_head with at least
    ``_BLOCK_ELEMS`` scores per head, so they run pooled when two CPUs are
    usable. With ``fallback``, head 0 alone has keys whose columns
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
    """Output, gradients and trace maps of one taped call pooled on
    ``pooled_cpus`` CPUs and of one run serially, and how often each asked
    for the pool."""
    g = np.random.default_rng(1).normal(size=ops["q"].shape)
    runs = []
    for cpus in (pooled_cpus, 1):
        with monkeypatch.context() as m:
            calls = _head_pool_calls(m, cpus)
            q, k, v = (ad.parameter(ops[name]) for name in "qkv")
            trace, tape = [], Tape()
            with record(tape):
                out = ad.attention(q, k, v, n_heads, rate, np.random.default_rng(3), trace)
            out.grad = g
            tape.nodes[-1]()
            runs.append(((out.values, q.grad, k.grad, v.grad, *trace), len(calls)))
    return runs


@pytest.mark.parametrize("fallback", [False, True], ids=["bound", "exact_max_head"])
@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("rate", [0.0, 0.4], ids=["no_dropout", "dropout"])
def test_attention_pooled_heads_match_serial_bit_for_bit(rate, B, fallback, monkeypatch):
    ops = _pool_sized_operands(B, fallback)
    (pooled, pool_calls), (serial, serial_calls) = _pooled_and_serial(monkeypatch, ops, rate)
    assert pool_calls == 2 and serial_calls == 0  # forward and backward
    assert len(pooled) == len(serial) == 4 + 4
    for want, got in zip(serial, pooled, strict=True):
        assert np.array_equal(want, got)


class _LastFirstPool:
    """Executor double that runs nothing until a result is asked for, and then
    runs every waiting task in this thread, last submitted first: heads
    finish in reverse order and start only after every head is submitted."""

    def __init__(self):
        self.waiting = []

    def submit(self, fn, *args):
        future = _LastFirstFuture(self)
        self.waiting.append((future, fn, args))
        return future

    def run_all(self):
        while self.waiting:
            future, fn, args = self.waiting.pop()
            try:
                future.set_result(fn(*args))
            except BaseException as exc:
                future.set_exception(exc)


class _LastFirstFuture(Future):
    def __init__(self, pool):
        super().__init__()
        self.pool = pool

    def result(self, timeout=None):
        self.pool.run_all()
        return super().result(timeout)


@pytest.mark.parametrize("rate", [0.0, 0.4], ids=["no_dropout", "dropout"])
def test_attention_heads_finishing_out_of_order_change_nothing(rate, monkeypatch):
    # keep masks must be drawn before each head is submitted, and trace
    # maps kept in head order, whatever order the heads run and finish in
    ops = _pool_sized_operands(1, fallback=False)
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 1)
    serial = _attention_grads(ops, np.ones(ops["q"].shape), trace := [], rate)
    pool = _LastFirstPool()
    monkeypatch.setattr(ad, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ad, "_head_pool", lambda: pool)
    reordered = _attention_grads(ops, np.ones(ops["q"].shape), reordered_trace := [], rate)
    for want, got in zip((*serial, *trace), (*reordered, *reordered_trace), strict=True):
        assert np.array_equal(want, got)


def test_attention_pool_with_more_threads_than_cpus_matches_serial(monkeypatch):
    # eight heads on a new pool of eight threads, switching every microsecond
    ops = _pool_sized_operands(1, fallback=True, n_heads=8)
    monkeypatch.setattr(ad, "_POOL", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        (pooled, pool_calls), (serial, _) = _pooled_and_serial(monkeypatch, ops, 0.4, n_heads=8, pooled_cpus=8)
        assert ad._POOL._max_workers == 8
    finally:
        sys.setswitchinterval(interval)
        if ad._POOL is not None:
            ad._POOL.shutdown()
    assert pool_calls == 2
    for want, got in zip(serial, pooled, strict=True):
        assert np.array_equal(want, got)


@pytest.mark.parametrize("rows", [1, 2], ids=["one_row", "uneven_tail"])
@pytest.mark.parametrize("t_k", [3, 5], ids=["self", "cross"])
def test_attention_row_block_tests_run_pooled(rows, t_k, monkeypatch):
    # small_row_blocks shrinks the block below a head's scores, so the
    # row-block gradient tests above run their heads on the pool
    small_row_blocks(monkeypatch, rows, 2, t_k)
    calls = _head_pool_calls(monkeypatch, 2)
    _attention_fd_error("q", t_k, 0.4)
    assert calls


def test_attention_pool_works_in_a_child_forked_after_a_pooled_call(monkeypatch):
    # the child inherits the pool object but not its threads; it must make
    # a new pool instead of waiting forever on the copy
    ops = _pool_sized_operands(1, fallback=False)
    calls = _head_pool_calls(monkeypatch, 2)
    want = ad.attention(*(ad.tensor(ops[n]) for n in "qkv"), 4).values
    assert calls and ad._POOL is not None
    with warnings.catch_warnings():
        # Python 3.12+ warns on every fork of a process with threads
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


def test_gradients_accumulate_across_shared_use():
    x = ad.parameter([2.0])
    tape = Tape()
    with record(tape):
        out = ad.sum_all(ad.add(ad.mul(x, x), ad.mul(x, ad.tensor([3.0]))))
    backward(tape, out)
    assert np.allclose(x.grad, [7.0])  # 2x + 3


def test_dropout_identity_at_zero_rate_and_scales_expectation():
    x = ad.tensor(np.ones((100, 10)))
    rng = np.random.default_rng(7)
    assert ad.dropout(x, 0.0, rng) is x
    out = ad.dropout(x, 0.5, rng).values
    kept = out[out > 0]
    assert np.allclose(kept, 2.0)
    assert abs(out.mean() - 1.0) < 0.1


def test_dropout_rejects_missing_generator():
    with pytest.raises(ContractError, match="dropout: rng"):
        ad.dropout(ad.tensor(np.ones((2, 3))), 0.1, None)


def test_no_tape_means_no_graph():
    x = ad.parameter(np.ones(3))
    out = ad.mul(x, x)
    assert out.tape_id is None and not out.requires_grad
