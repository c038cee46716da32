import numpy as np
import pytest

from peakcast import autodiff as ad
from peakcast import efe

from gradcheck import finite_diff_check, sum_all, tanh


def build_subsequence(window, j, s_efe):
    """Per-point oracle for ``efe.subsequence_matrix``: the feature vector of
    time point j of one (m, t) window.

    Layout: [x1_j, x2_j .. xm_j, lags of x2, lags of x3, ...] where each
    lag block is [x_i(j-s) .. x_i(j-1)]. Indices before the window start
    repeat that series' earliest in-window value.
    """
    m, t = window.shape
    if not 0 <= j < t:
        raise IndexError(f"time index {j} outside [0, {t})")
    lag_idx = np.maximum(np.arange(j - s_efe, j), 0)
    parts = [window[0, j:j + 1], window[1:, j]]
    for i in range(1, m):
        parts.append(window[i, lag_idx])
    return np.concatenate(parts)


def demo_window(m=2, t=10, seed=0):
    return np.random.default_rng(seed).normal(size=(m, t))


class TestBuildSubsequence:
    def test_layout_m2_s3(self):
        w = np.arange(20, dtype=float).reshape(2, 10)  # row0: 0..9, row1: 10..19
        vec = build_subsequence(w, j=5, s_efe=3)
        assert len(vec) == 1 + 1 * (3 + 1)
        assert list(vec) == [w[0, 5], w[1, 5], w[1, 2], w[1, 3], w[1, 4]]

    def test_boundary_padding_at_zero(self):
        w = demo_window()
        vec = build_subsequence(w, j=0, s_efe=4)
        assert np.all(vec[2:] == w[1, 0])

    def test_partial_padding(self):
        w = np.arange(20, dtype=float).reshape(2, 10)
        vec = build_subsequence(w, j=2, s_efe=3)
        # lags for j=2 with s=3: indices [-1, 0, 1] -> [0, 0, 1]
        assert list(vec[2:]) == [w[1, 0], w[1, 0], w[1, 1]]

    def test_degenerate_single_series(self):
        w = demo_window(m=1)
        vec = build_subsequence(w, j=4, s_efe=3)
        assert vec.shape == (1,)
        assert vec[0] == w[0, 4]

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            build_subsequence(demo_window(), j=10, s_efe=2)

    def test_matrix_matches_per_point_builder(self):
        w = demo_window(m=3, t=12)
        mat = efe.subsequence_matrix(w[None], s_efe=4)[0]
        assert mat.shape == (12, efe.input_width(3, 4))
        for j in range(12):
            assert np.array_equal(mat[j], build_subsequence(w, j, 4))

    def test_matrix_batched(self):
        batch = np.stack([demo_window(seed=1), demo_window(seed=2)])
        mat = efe.subsequence_matrix(batch, s_efe=3)
        assert mat.shape[:2] == (2, 10)
        assert np.array_equal(mat[1], efe.subsequence_matrix(batch[1][None], s_efe=3)[0])


def make_layer(s_efe, m, d_model, seed=0):
    rng = np.random.default_rng(seed)
    w = ad.parameter(rng.normal(0, 0.3, size=(efe.input_width(m, s_efe), d_model)))
    b = ad.parameter(rng.normal(0, 0.3, size=d_model))
    return w, b


class TestEmbedSequence:
    def test_zero_layer_annihilates(self):
        s_efe = 3
        w = ad.tensor(np.zeros((efe.input_width(2, s_efe), 8)))
        b = ad.tensor(np.zeros(8))
        out = efe.embed_sequence(demo_window()[None], w, b, s_efe)
        assert np.array_equal(out.values, np.zeros((1, 10, 8)))

    def test_output_shape(self):
        s_efe = 5
        w, b = make_layer(s_efe, 2, 16)
        out = efe.embed_sequence(demo_window(t=40)[None], w, b, s_efe)
        assert out.shape == (1, 40, 16)

    def test_locality_future_perturbation(self):
        s_efe = 3
        w, b = make_layer(s_efe, 2, 8)
        win = demo_window()[None]
        base = efe.embed_sequence(win, w, b, s_efe).values[0]
        pert = win.copy()
        j = 5
        pert[0, 1, j + 1] += 10.0
        out = efe.embed_sequence(pert, w, b, s_efe).values[0]
        assert np.array_equal(out[j], base[j])

    def test_locality_at_random_sites(self):
        # row j depends only on x1[j] and aux values in [j - s, j]
        s_efe = 4
        w, b = make_layer(s_efe, 3, 8, seed=3)
        win = demo_window(m=3, t=30, seed=4)[None]
        base = efe.embed_sequence(win, w, b, s_efe).values[0]
        rng = np.random.default_rng(5)
        for _ in range(20):
            j = int(rng.integers(0, 30))
            k = int(rng.integers(0, 30))
            row = int(rng.integers(1, 3))
            pert = win.copy()
            pert[0, row, k] += 3.0
            out = efe.embed_sequence(pert, w, b, s_efe).values[0]
            inside = j - s_efe <= k <= j or (k == 0 and j - s_efe < 0)
            if not inside:
                assert np.array_equal(out[j], base[j]), (j, k)

    def test_position_freeness_shared_map(self):
        s_efe = 2
        w, b = make_layer(s_efe, 2, 6)
        win = demo_window(t=12, seed=6)
        win[:, 8:11] = win[:, 2:5]  # make points 4 and 10 see identical subsequences
        mat = efe.subsequence_matrix(win[None], s_efe)[0]
        assert np.array_equal(mat[4], mat[10])
        out = efe.embed_sequence(win[None], w, b, s_efe).values[0]
        assert np.array_equal(out[4], out[10])

    def test_no_nan_on_finite_inputs(self):
        s_efe = 8
        w, b = make_layer(s_efe, 2, 8)
        out = efe.embed_sequence(demo_window(t=100, seed=7)[None] * 1e4, w, b, s_efe)
        assert np.isfinite(out.values).all()

    def test_mismatched_layer_raises(self):
        s_efe = 3
        w = ad.tensor(np.zeros((99, 8)))
        with pytest.raises(ad.DimensionError):
            efe.embed_sequence(demo_window()[None], w, ad.tensor(np.zeros(8)), s_efe)

    def test_gradient_through_embedding(self):
        s_efe = 3
        win = demo_window(t=6, seed=8)[None]
        rng = np.random.default_rng(9)
        w = ad.parameter(rng.normal(0, 0.4, size=(efe.input_width(2, s_efe), 4)))
        b = ad.parameter(rng.normal(0, 0.4, size=4))
        # a step of 1e-5 in w moves a pre-activation by far less than this,
        # so no difference straddles the ReLU kink
        assert np.abs(efe.subsequence_matrix(win, s_efe) @ w.values + b.values).min() > 1e-3
        err = finite_diff_check(lambda p: sum_all(tanh(efe.embed_sequence(win, p, b, s_efe))), w)
        assert err < 1e-4
