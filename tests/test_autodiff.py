import math

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_matmul_identity():
    a = ad.tensor([[1.0, 0.0], [0.0, 1.0]])
    b = ad.tensor([[3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(ad.matmul(a, b).values, b.values)


def test_matmul_hand_computed():
    out = ad.matmul(ad.tensor([[1.0, 2.0]]), ad.tensor([[3.0], [4.0]]))
    assert np.array_equal(out.values, [[11.0]])


def test_matmul_zero_annihilates():
    rng = np.random.default_rng(0)
    a = ad.tensor(rng.normal(size=(3, 4)))
    z = ad.tensor(np.zeros((4, 2)))
    assert np.array_equal(ad.matmul(a, z).values, np.zeros((3, 2)))


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        ad.matmul(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_matmul_batched_matches_loop():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 3, 4))
    b = rng.normal(size=(5, 4, 2))
    out = ad.matmul(ad.tensor(a), ad.tensor(b)).values
    for i in range(5):
        assert np.allclose(out[i], a[i] @ b[i])


def test_elementwise_rejects_nonscalar_broadcast():
    with pytest.raises(DimensionError):
        ad.add(ad.tensor(np.ones((2, 3))), ad.tensor(np.ones(3)))


def test_scalar_broadcast_allowed():
    x = ad.tensor([1.0, 2.0])
    assert np.array_equal(ad.mul(x, 3.0).values, [3.0, 6.0])


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
    rng = np.random.default_rng(6)
    w = ad.parameter(rng.normal(size=(4, 3)))

    def wrap(build):
        return build

    return {
        "matmul": wrap(lambda x: ad.sum_all(ad.matmul(x, w))),
        "matmul_batched": wrap(lambda x: ad.sum_all(ad.matmul(ad.reshape(x, (2, 2, 4)), w))),
        "add": wrap(lambda x: ad.sum_all(ad.add(x, ad.mul(x, 0.5)))),
        "mul": wrap(lambda x: ad.sum_all(ad.mul(x, x))),
        "add_bias": wrap(lambda x: ad.sum_all(ad.tanh(ad.add_bias(x, ad.last_step(x))))),
        "relu": wrap(lambda x: ad.sum_all(ad.relu(x))),
        "tanh": wrap(lambda x: ad.sum_all(ad.tanh(x))),
        "sigmoid": wrap(lambda x: ad.sum_all(ad.sigmoid(x))),
        "layer_norm": wrap(
            lambda x: ad.sum_all(
                ad.mul(ad.layer_norm(x, ad.tensor(np.ones(4)), ad.tensor(np.zeros(4)), eps=1e-3), x))),
        "reshape": wrap(lambda x: ad.sum_all(ad.tanh(ad.reshape(x, (2, 8))))),
        "last_step": wrap(lambda x: ad.sum_all(ad.tanh(ad.last_step(ad.reshape(x, (2, 2, 4)))))),
        "rmse": wrap(lambda x: ad.rmse(x, ad.tensor(np.full((4, 4), 0.3)))),
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


def test_first_gradient_is_a_copy():
    # add hands the same upstream array to a and b; a later accumulation
    # into a must leave b (and the upstream gradient) unchanged
    a, b = ad.parameter(np.zeros(3)), ad.parameter(np.zeros(3))
    tape = Tape()
    with record(tape):
        p = ad.mul(a, 3.0)  # recorded first, so its gradient reaches a last
        s = ad.add(a, b)
        out = ad.sum_all(ad.add(s, p))
    backward(tape, out)
    assert np.array_equal(a.grad, np.full(3, 4.0))
    assert np.array_equal(b.grad, np.ones(3))
    assert np.array_equal(s.grad, np.ones(3))


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


@pytest.mark.parametrize("rate", [0.0, 0.4], ids=["no_dropout", "dropout"])
@pytest.mark.parametrize("t_k", [3, 5], ids=["self", "cross"])
@pytest.mark.parametrize("operand", ["q", "k", "v"])
def test_attention_gradient_vs_finite_difference(operand, t_k, rate):
    ops = {name: ad.tensor(v) for name, v in _attention_operands(t_k).items()}
    wy = ad.tensor(np.random.default_rng(1).normal(size=ops["q"].shape))

    def loss(x: Tensor) -> Tensor:
        # a fresh generator per evaluation, so every evaluation drops the same weights
        out = ad.attention(**{**ops, operand: x}, n_heads=2, rate=rate, rng=np.random.default_rng(2))
        return ad.sum_all(ad.mul(out, wy))

    x = ad.parameter(ops[operand].values.copy())
    assert finite_diff_check(loss, x, eps=1e-6) < 1e-6


def test_attention_gradient_through_one_shared_operand():
    # self-attention on one tensor: the q, k and v gradients accumulate
    x0 = _attention_operands(3)["q"]
    wy = ad.tensor(np.random.default_rng(1).normal(size=x0.shape))

    def loss(x: Tensor) -> Tensor:
        return ad.sum_all(ad.mul(ad.attention(x, x, x, 4, 0.4, np.random.default_rng(2)), wy))

    assert finite_diff_check(loss, ad.parameter(x0), eps=1e-6) < 1e-6


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


@pytest.mark.parametrize("rate", [-0.1, 1.0])
def test_attention_rejects_rate_outside_unit_interval(rate):
    with pytest.raises(ContractError, match="dropout rate"):
        ad.attention(*(ad.tensor(v) for v in _attention_operands(5).values()), 2, rate, np.random.default_rng(0))


def test_gradients_accumulate_across_shared_use():
    x = ad.parameter([2.0])
    tape = Tape()
    with record(tape):
        out = ad.sum_all(ad.add(ad.mul(x, x), ad.mul(x, 3.0)))
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


def test_no_tape_means_no_graph():
    x = ad.parameter(np.ones(3))
    out = ad.mul(x, x)
    assert out.tape_id is None and not out.requires_grad
