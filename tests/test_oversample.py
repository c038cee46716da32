import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from peakcast import oversample as ov
from peakcast.data import WindowSample, gen_synthetic


def two_component_sample(seed, n=5000, mu0=0.0, mu1=10.0):
    rng = np.random.default_rng(seed)
    pick = rng.random(n) < 0.5
    return np.where(pick, rng.normal(mu0, 1.0, n), rng.normal(mu1, 1.0, n))


def fit_gmm_reference(values, n_components):
    """Sample-major (n, M) EM oracle for ``fit_gmm``: the same initialization,
    variance floor and stopping rule, with fresh temporaries each iteration.

    Also returns, per iteration, the sum of |log-density| over the samples:
    the scale of the rounding error in that iteration's log-likelihood, which
    sums them in an order of its own."""
    x = np.asarray(values, dtype=np.float64).ravel()
    M = n_components
    pooled_var = float(x.var())
    var_floor = 1e-6 * pooled_var
    means = np.quantile(x, (np.arange(M) + 0.5) / M)
    if len(np.unique(means)) < M:
        means = means + np.random.default_rng(ov.EM_TIE_SEED).normal(0.0, math.sqrt(pooled_var) * 1e-3, size=M)
    weights = np.full(M, 1.0 / M)
    variances = np.full(M, pooled_var)

    ll_history, abs_sums = [], []
    prev_ll = -np.inf
    for _ in range(ov.EM_MAX_ITER):
        diff = x[:, None] - means[None, :]
        logp = -0.5 * (np.log(2.0 * np.pi * variances)[None, :] + diff * diff / variances[None, :])
        logp = logp + np.log(weights)[None, :]
        mx = logp.max(axis=1, keepdims=True)
        lse = mx + np.log(np.exp(logp - mx).sum(axis=1, keepdims=True))
        ll = float(lse.sum())
        ll_history.append(ll)
        abs_sums.append(float(np.abs(lse).sum()))
        resp = np.exp(logp - lse)

        nk = np.maximum(resp.sum(axis=0), 1e-12)
        weights = nk / nk.sum()
        means = (resp * x[:, None]).sum(axis=0) / nk
        diff = x[:, None] - means[None, :]
        variances = np.maximum((resp * diff * diff).sum(axis=0) / nk, var_floor)

        if ll - prev_ll < ov.EM_TOL and np.isfinite(prev_ll):
            break
        prev_ll = ll
    return ov.GmmParams(weights, means, variances, np.array(ll_history)), np.array(abs_sums)


def lognormal_sample(seed, n=4000):
    return np.random.default_rng(seed).lognormal(1.0, 1.2, size=n)


def discrete_sample(seed, n=3000):
    """Mostly zeros, so the quantile initialization yields duplicate means."""
    return np.random.default_rng(seed).choice([0.0, 1.0, 2.0, 5.0, 20.0], size=n, p=[0.85, 0.06, 0.04, 0.03, 0.02])


def floor_sample(seed):
    """Clusters of identical values whose component variances hit the floor."""
    return np.concatenate([np.zeros(400), np.random.default_rng(seed).normal(5.0, 1.0, 600), np.full(3, 100.0)])


class TestFitGmmMatchesReference:
    @pytest.mark.parametrize("M", [1, 2, 3, 4])
    @pytest.mark.parametrize("sample", [two_component_sample, lognormal_sample, discrete_sample, floor_sample])
    def test_same_fit(self, sample, M):
        x = sample(5)
        got, (want, abs_sums) = ov.fit_gmm(x, M), fit_gmm_reference(x, M)
        assert len(got.ll_history) == len(want.ll_history)
        for field in ("weights", "means", "variances"):
            np.testing.assert_allclose(getattr(got, field), getattr(want, field), rtol=1e-10, atol=0, err_msg=field)
        # a log-likelihood near zero is a sum of large terms of both signs:
        # its rounding error scales with the sum of |terms|, not with itself
        assert np.all(np.abs(got.ll_history - want.ll_history) <= 1e-10 * abs_sums)

    def test_cases_reach_jitter_and_floor(self):
        x = discrete_sample(5)
        assert len(np.unique(np.quantile(x, (np.arange(3) + 0.5) / 3))) < 3
        x = floor_sample(5)
        assert np.any(ov.fit_gmm(x, 3).variances == 1e-6 * x.var())

    def test_same_peaks_on_one_year_series(self):
        policy = ov.OversamplePolicy()
        y = gen_synthetic(7, 35040).target
        got, (want, _) = ov.fit_gmm(y, policy.n_components), fit_gmm_reference(y, policy.n_components)
        assert len(got.ll_history) == len(want.ll_history)
        peaks = [ov.mark_important(y, policy.eta, ov.highest_mean(g), policy.nu) for g in (got, want)]
        assert peaks[0].size > 0
        assert np.array_equal(peaks[0], peaks[1])


class TestFitGmm:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        x = rng.lognormal(1.0, 0.7, size=2000)
        g = ov.fit_gmm(x, 1)
        assert g.means[0] == pytest.approx(x.mean(), rel=1e-9)
        assert g.variances[0] == pytest.approx(x.var(), rel=1e-9)
        assert g.weights[0] == pytest.approx(1.0, abs=1e-12)

    def test_stops_at_second_iteration_when_initialization_is_optimal(self):
        y = np.random.default_rng(0).lognormal(size=500)
        g = ov.fit_gmm(np.concatenate([-y, y]), 1)  # median == mean: EM has nothing to move
        assert len(g.ll_history) == 2

    def test_two_component_recovery(self):
        x = two_component_sample(1)
        g = ov.fit_gmm(x, 2)
        means = np.sort(g.means)
        assert abs(means[0] - 0.0) < 0.2
        assert abs(means[1] - 10.0) < 0.2
        assert np.all(np.abs(g.weights - 0.5) < 0.05)

    def test_loglik_monotone_every_iteration(self):
        x = two_component_sample(2)
        g = ov.fit_gmm(x, 3)
        diffs = np.diff(g.ll_history)
        assert np.all(diffs >= -1e-10)

    def test_weights_sum_to_one(self):
        x = two_component_sample(3)
        g = ov.fit_gmm(x, 4)
        assert abs(g.weights.sum() - 1.0) <= 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_recovery_over_seeds(self, seed):
        x = two_component_sample(seed)
        g = ov.fit_gmm(x, 2)
        means = np.sort(g.means)
        assert abs(means[0]) < 0.2 and abs(means[1] - 10.0) < 0.2
        assert np.all(np.diff(g.ll_history) >= -1e-10)

    def test_fewer_values_than_components_rejected(self):
        with pytest.raises(ov.GmmFitError, match="need at least 3 values, got 2"):
            ov.fit_gmm(np.array([1.0, 2.0]), 3)

    def test_more_components_than_distinct_values(self):
        with pytest.raises(ov.GmmFitError):
            ov.fit_gmm(np.array([1.0, 1.0, 2.0, 2.0]), 3)

    @pytest.mark.parametrize("M", [2.5, 2.0, True, "2", None], ids=["fraction", "whole_float", "bool", "str", "none"])
    def test_component_count_that_is_not_an_integer_rejected(self, M):
        with pytest.raises(ov.GmmFitError, match="n_components must be an integer"):
            ov.fit_gmm(two_component_sample(0, n=200), M)

    @pytest.mark.parametrize("M", [0, -1])
    def test_component_count_below_one_rejected(self, M):
        with pytest.raises(ov.GmmFitError, match=">= 1"):
            ov.fit_gmm(two_component_sample(0, n=200), M)

    def test_numpy_integer_component_count_accepted(self):
        x = two_component_sample(0, n=200)
        assert np.array_equal(ov.fit_gmm(x, np.int64(2)).means, ov.fit_gmm(x, 2).means)

    def test_constant_data_rejected(self):
        with pytest.raises(ov.GmmFitError):
            ov.fit_gmm(np.full(100, 2.0), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        x = two_component_sample(4)
        x[10] = bad
        with pytest.raises(ov.GmmFitError):
            ov.fit_gmm(x, 2)

    def test_unseeded_fits_are_identical(self):
        # the tie-break jitter of discrete data comes from a fixed seed
        x = discrete_sample(5)
        a, b = ov.fit_gmm(x, 3), ov.fit_gmm(x, 3)
        for field in ("weights", "means", "variances", "ll_history"):
            assert np.array_equal(getattr(a, field), getattr(b, field)), field

    def test_variance_floor_holds(self):
        x = np.concatenate([np.zeros(500) + 1e-9, np.ones(500), np.full(3, 100.0)])
        g = ov.fit_gmm(x, 3)
        assert np.all(g.variances >= 1e-6 * x.var() - 1e-15)


class TestHighestMean:
    def test_max(self):
        g = ov.GmmParams(np.array([0.3, 0.3, 0.4]), np.array([2.0, 7.0, 5.0]), np.ones(3), np.zeros(1))
        assert ov.highest_mean(g) == 7.0

    def test_single(self):
        g = ov.GmmParams(np.array([1.0]), np.array([3.0]), np.ones(1), np.zeros(1))
        assert ov.highest_mean(g) == 3.0

    def test_ties(self):
        g = ov.GmmParams(np.array([0.5, 0.5]), np.array([7.0, 7.0]), np.ones(2), np.zeros(1))
        assert ov.highest_mean(g) == 7.0


def mark_important_loop(values, eta, z, nu=8):
    """Per-candidate oracle for ``mark_important``: a candidate is kept when
    it is the leftmost maximum of its span, truncated at the series ends."""
    x = np.asarray(values, dtype=np.float64)
    half = nu // 2
    peaks = []
    for i in np.flatnonzero(x > eta * z):
        lo = max(0, i - half)
        hi = min(len(x), i + half + 1)
        if lo + int(np.argmax(x[lo:hi])) == i:
            peaks.append(i)
    return np.array(peaks, dtype=np.intp)


def expand_peaks_loop(peaks, s_step, nu, series_len, t, h):
    """Per-peak, per-issue-point oracle for ``expand_peaks``."""
    max_origin = series_len - t - h
    origins = set()
    for p in np.asarray(peaks, dtype=np.intp):
        first_issue = int(p) - nu // 2
        for k in range(nu // s_step):
            origin = first_issue + k * s_step - (t - 1)
            if 0 <= origin <= max_origin:
                origins.add(origin)
    return np.array(sorted(origins), dtype=np.intp)


def assert_same_indices(got, want):
    assert got.dtype == want.dtype == np.intp
    assert np.array_equal(got, want)


# small integers make plateaus and ties; finite only, since a non-finite value raises
series_values = st.lists(st.integers(0, 5).map(float), min_size=0, max_size=60)


class TestArrayOpsMatchLoops:
    @given(series_values, st.integers(0, 70), st.sampled_from([0.5, 1.0, 1.2]), st.integers(-3, 8))
    @settings(max_examples=400)
    @example([], 8, 1.2, -3)
    @example([3.0] * 10, 0, 1.0, -1)  # threshold below every value, no neighborhood
    @example([3.0] * 10, 25, 1.0, -1)  # a plateau spanning the series, nu past its length
    @example([1.0, 4.0, 4.0, 2.0, 4.0], 2, 1.0, 5)  # threshold above every value
    def test_mark_important(self, values, nu, eta, z):
        assert_same_indices(ov.mark_important(np.array(values), eta, z, nu),
                            mark_important_loop(values, eta, z, nu))

    @given(st.lists(st.integers(-20, 100), max_size=8), st.integers(1, 5), st.integers(0, 15),
           st.integers(0, 80), st.integers(1, 10), st.integers(1, 10))
    @settings(max_examples=400)
    @example([], 1, 0, 50, 5, 5)  # no peaks
    @example([-20, 3, 99, 100], 3, 2, 60, 4, 6)  # peaks before 0 and past L; s_step does not divide nu
    def test_expand_peaks(self, peaks, s_step, extra_nu, series_len, t, h):
        nu = s_step + extra_nu
        assert_same_indices(ov.expand_peaks(np.array(peaks, dtype=np.intp), s_step, nu, series_len, t, h),
                            expand_peaks_loop(peaks, s_step, nu, series_len, t, h))


class TestMarkImportant:
    def test_all_below_threshold(self):
        assert ov.mark_important(np.ones(50), eta=1.2, z=5.0).size == 0

    def test_single_spike(self):
        x = np.ones(50)
        x[20] = 100.0
        peaks = ov.mark_important(x, eta=1.2, z=5.0)
        assert list(peaks) == [20]

    def test_plateau_keeps_leftmost(self):
        x = np.ones(60)
        x[30:35] = 50.0
        peaks = ov.mark_important(x, eta=1.2, z=5.0, nu=8)
        assert list(peaks) == [30]

    def test_two_separated_events(self):
        x = np.ones(100)
        x[20] = 50.0
        x[70] = 60.0
        peaks = ov.mark_important(x, eta=1.2, z=5.0, nu=8)
        assert list(peaks) == [20, 70]

    def test_rising_falling_event_keeps_apex(self):
        x = np.ones(40)
        x[10:17] = [10, 20, 40, 80, 40, 20, 10]
        peaks = ov.mark_important(x, eta=1.0, z=5.0, nu=8)
        assert list(peaks) == [13]

    def test_negative_neighborhood_rejected(self):
        x = np.ones(20)
        x[5] = 100.0
        with pytest.raises(ov.PolicyError, match="nu"):
            ov.mark_important(x, eta=1.2, z=5.0, nu=-2)

    @pytest.mark.parametrize("eta, z", [(np.nan, 5.0), (1.2, np.nan), (np.inf, 5.0), (1.2, -np.inf)])
    def test_non_finite_threshold_rejected(self, eta, z):
        x = np.ones(20)
        x[5] = 100.0
        with pytest.raises(ov.PolicyError, match="threshold"):
            ov.mark_important(x, eta, z)

    # np.argmax takes a NaN for the maximum of its span, so a peak next to one
    # would be dropped without a word
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 3, 7])
    def test_non_finite_value_rejected(self, bad, at):
        x = np.array([0, 0, 5, 0, 0, 0, 6, 0.])
        x[at] = bad
        with pytest.raises(ov.PolicyError, match="values must be finite"):
            ov.mark_important(x, eta=1.0, z=2.0, nu=4)

    @pytest.mark.parametrize("nu", [2.5, 8.0, True], ids=["fraction", "whole_float", "bool"])
    def test_neighborhood_that_is_not_an_integer_rejected(self, nu):
        x = np.ones(20)
        x[5] = 100.0
        with pytest.raises(ov.PolicyError, match="nu must be an integer"):
            ov.mark_important(x, eta=1.2, z=5.0, nu=nu)


class TestExpandPeaks:
    def test_step_below_one_rejected(self):
        with pytest.raises(ov.PolicyError, match="s_step must be >= 1"):
            ov.expand_peaks(np.array([500]), s_step=0, nu=8, series_len=1000, t=100, h=10)

    def test_scope_below_step_rejected(self):
        with pytest.raises(ov.PolicyError, match=r"nu \(1\) must be >= s_step \(2\)"):
            ov.expand_peaks(np.array([500]), s_step=2, nu=1, series_len=1000, t=100, h=10)

    def test_ross_setting_eight_issue_points(self):
        t, h, L = 100, 10, 1000
        origins = ov.expand_peaks(np.array([500]), s_step=1, nu=8, series_len=L, t=t, h=h)
        issues = origins + t - 1
        assert list(issues) == [496, 497, 498, 499, 500, 501, 502, 503]

    def test_stride_two_scope_sixteen(self):
        t, h, L = 100, 10, 1000
        origins = ov.expand_peaks(np.array([500]), s_step=2, nu=16, series_len=L, t=t, h=h)
        issues = origins + t - 1
        assert len(issues) == 8
        assert list(issues) == list(range(492, 508, 2))

    def test_out_of_bounds_dropped(self):
        origins = ov.expand_peaks(np.array([3]), s_step=1, nu=8, series_len=1000, t=100, h=10)
        assert origins.size == 0

    def test_duplicates_merged(self):
        origins = ov.expand_peaks(np.array([500, 501]), s_step=1, nu=8, series_len=1000, t=100, h=10)
        assert len(origins) == len(set(origins))
        assert len(origins) == 9  # 8 + 8 with 7 shared

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(300, 700))
    @settings(max_examples=50)
    def test_spacing_and_bounds(self, s_step, nu_mult, p):
        nu = s_step * nu_mult
        t, h, L = 50, 20, 1000
        origins = ov.expand_peaks(np.array([p]), s_step=s_step, nu=nu, series_len=L, t=t, h=h)
        assert len(set(origins)) == len(origins)
        assert np.all((origins >= 0) & (origins <= L - t - h))
        if len(origins) > 1:
            assert np.all(np.diff(origins + t - 1) == s_step)

    @pytest.mark.parametrize("s_step, nu", [(1, 8.0), (1.5, 8), (True, 8), (1, np.float64(8))],
                             ids=["float_nu", "fraction_step", "bool_step", "numpy_float_nu"])
    def test_step_or_scope_that_is_not_an_integer_rejected(self, s_step, nu):
        with pytest.raises(ov.PolicyError, match="must be integers"):
            ov.expand_peaks(np.array([500]), s_step=s_step, nu=nu, series_len=1000, t=100, h=10)

    @pytest.mark.parametrize("kw", [dict(t=100.0), dict(h=10.0), dict(series_len=1000.0), dict(t=True),
                                    dict(series_len=np.float64(1000))],
                             ids=["float_t", "float_h", "float_series_len", "bool_t", "numpy_float_series_len"])
    def test_geometry_that_is_not_an_integer_rejected(self, kw):
        # a float t once gave float64 origins
        with pytest.raises(ov.PolicyError, match="must be integers"):
            ov.expand_peaks(np.array([500]), **{"s_step": 1, "nu": 8, "series_len": 1000, "t": 100, "h": 10, **kw})

    @pytest.mark.parametrize("peaks", [np.array([300.7]), np.array([500.0]), np.array([True])],
                             ids=["fraction", "whole_float", "bool"])
    def test_peaks_that_are_not_integers_rejected(self, peaks):
        # a cast to intp once read 300.7 as 300 and True as 1
        with pytest.raises(ov.PolicyError, match="peak indices must be integers"):
            ov.expand_peaks(peaks, s_step=1, nu=8, series_len=1000, t=100, h=10)

    def test_no_peaks_give_no_origins(self):
        got = ov.expand_peaks([], s_step=1, nu=8, series_len=1000, t=100, h=10)
        assert got.dtype == np.intp and got.size == 0

    def test_numpy_integer_geometry_gives_integer_origins(self):
        got = ov.expand_peaks(np.array([500]), 1, 8, np.int64(1000), np.int64(100), np.int32(10))
        assert got.dtype == np.intp
        assert np.array_equal(got, ov.expand_peaks(np.array([500]), 1, 8, 1000, 100, 10))


def _mk_windows(n, oversampled=False):
    return [WindowSample(np.zeros((2, 4)), np.zeros(2), issue_index=3 + i, is_oversampled=oversampled)
            for i in range(n)]


class TestCapOversample:
    def test_acceptance_arithmetic(self):
        assert ov.cap_kept_count(800, 500, 20.0) == 200

    def test_all_kept_when_cap_loose(self):
        base, extra = _mk_windows(100), _mk_windows(5)
        out = ov.cap_oversample(base, extra, os_pct=50.0, seed=0)
        assert len(out) == 105
        assert sum(w.is_oversampled for w in out) == 5

    def test_no_extras(self):
        base = _mk_windows(10)
        assert ov.cap_oversample(base, [], os_pct=20.0, seed=0) == base

    def test_truncation_is_seeded(self):
        base, extra = _mk_windows(800), _mk_windows(500)
        a = ov.cap_oversample(base, extra, 20.0, seed=7)
        b = ov.cap_oversample(base, extra, 20.0, seed=7)
        assert len(a) == 1000
        assert [w.issue_index for w in a] == [w.issue_index for w in b]

    def test_flagging(self):
        base, extra = _mk_windows(800), _mk_windows(500)
        out = ov.cap_oversample(base, extra, 20.0, seed=0)
        assert sum(w.is_oversampled for w in out) == 200

    @given(st.integers(1, 2000), st.integers(0, 2000),
           st.floats(min_value=0.5, max_value=100.0, allow_nan=False))
    @settings(max_examples=200)
    @example(97, 100, 3.0)  # 3 of a final 100 is exactly 3%; float arithmetic kept 2
    def test_cap_ratio_property(self, n_base, n_extra, os_pct):
        kept = ov.cap_kept_count(n_base, n_extra, os_pct)
        assert 0 <= kept <= n_extra
        assert kept / (n_base + kept) <= os_pct / 100.0 + 1.0 / (n_base + kept)
        # exactly: within the cap, and keeping one more would break it
        pct = Fraction(os_pct)
        assert 100 * kept <= pct * (n_base + kept)
        assert kept == n_extra or 100 * (kept + 1) > pct * (n_base + kept + 1)

    def test_policy_validation(self):
        with pytest.raises(ov.PolicyError):
            ov.OversamplePolicy(s_step=4, nu=2)
        with pytest.raises(ov.PolicyError):
            ov.OversamplePolicy(os_pct=0.0)
        with pytest.raises(ov.PolicyError):
            ov.cap_kept_count(10, 10, 101.0)
        with pytest.raises(ov.PolicyError, match="s_step must be >= 1"):
            ov.OversamplePolicy(s_step=0)
        with pytest.raises(ov.PolicyError, match="n_components must be >= 1"):
            ov.OversamplePolicy(n_components=0)

    @pytest.mark.parametrize("os_pct", [100, 100.0])
    def test_full_cap_keeps_every_extra(self, os_pct):
        # the rational solve would divide by 100 - os_pct = 0
        assert ov.cap_kept_count(5, 7, os_pct) == 7

    @pytest.mark.parametrize("eta", [np.nan, np.inf, 0.0, -1.0])
    def test_bad_eta_rejected(self, eta):
        with pytest.raises(ov.PolicyError, match="eta"):
            ov.OversamplePolicy(eta=eta)

    @pytest.mark.parametrize("kw", [dict(eta="1.2"), dict(eta=None), dict(eta=True), dict(os_pct="20"),
                                    dict(os_pct=None), dict(os_pct=True)],
                             ids=["str_eta", "none_eta", "bool_eta", "str_pct", "none_pct", "bool_pct"])
    def test_policy_level_that_is_not_a_real_number_rejected(self, kw):
        with pytest.raises(ov.PolicyError, match=f"{next(iter(kw))} must be a real number"):
            ov.OversamplePolicy(**kw)

    @pytest.mark.parametrize("os_pct", ["20", None, True], ids=["str", "none", "bool"])
    def test_cap_percentage_that_is_not_a_real_number_rejected(self, os_pct):
        with pytest.raises(ov.PolicyError, match="os_pct must be a real number"):
            ov.cap_kept_count(800, 500, os_pct)

    def test_real_levels_of_any_type_accepted(self):
        policy = ov.OversamplePolicy(eta=np.float64(1.5), os_pct=Fraction(20))
        assert ov.cap_kept_count(800, 500, policy.os_pct) == ov.cap_kept_count(800, 500, np.int64(20)) == 200

    @pytest.mark.parametrize("kw", [dict(s_step=1.5), dict(s_step=1.0), dict(nu=8.0), dict(n_components=2.5),
                                    dict(n_components=True)],
                             ids=["fraction_step", "whole_float_step", "float_nu", "fraction_components",
                                  "bool_components"])
    def test_policy_count_that_is_not_an_integer_rejected(self, kw):
        with pytest.raises(ov.PolicyError, match=f"{next(iter(kw))} must be an integer"):
            ov.OversamplePolicy(**kw)
