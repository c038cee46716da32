import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakcast import oversample as ov
from peakcast.data import WindowSample, gen_synthetic


def two_component_sample(seed, n=5000, mu0=0.0, mu1=10.0):
    rng = np.random.default_rng(seed)
    pick = rng.random(n) < 0.5
    return np.where(pick, rng.normal(mu0, 1.0, n), rng.normal(mu1, 1.0, n))


def fit_gmm_reference(values, n_components, max_iter=200, tol=1e-6, seed=None):
    """Sample-major (n, M) EM oracle for ``fit_gmm``: the same initialization,
    variance floor and stopping rule, with fresh temporaries each iteration."""
    x = np.asarray(values, dtype=np.float64).ravel()
    M = n_components
    pooled_var = float(x.var())
    var_floor = 1e-6 * pooled_var
    means = np.quantile(x, (np.arange(M) + 0.5) / M)
    if len(np.unique(means)) < M:
        means = means + np.random.default_rng(seed).normal(0.0, math.sqrt(pooled_var) * 1e-3, size=M)
    weights = np.full(M, 1.0 / M)
    variances = np.full(M, pooled_var)

    ll_history = []
    prev_ll = -np.inf
    for _ in range(max_iter):
        diff = x[:, None] - means[None, :]
        logp = -0.5 * (np.log(2.0 * np.pi * variances)[None, :] + diff * diff / variances[None, :])
        logp = logp + np.log(weights)[None, :]
        mx = logp.max(axis=1, keepdims=True)
        lse = mx + np.log(np.exp(logp - mx).sum(axis=1, keepdims=True))
        ll = float(lse.sum())
        ll_history.append(ll)
        resp = np.exp(logp - lse)

        nk = np.maximum(resp.sum(axis=0), 1e-12)
        weights = nk / nk.sum()
        means = (resp * x[:, None]).sum(axis=0) / nk
        diff = x[:, None] - means[None, :]
        variances = np.maximum((resp * diff * diff).sum(axis=0) / nk, var_floor)

        if ll - prev_ll < tol and np.isfinite(prev_ll):
            break
        prev_ll = ll
    return ov.GmmParams(weights, means, variances, ll_history[-1], np.array(ll_history))


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
        got, want = ov.fit_gmm(x, M, seed=3), fit_gmm_reference(x, M, seed=3)
        assert len(got.ll_history) == len(want.ll_history)
        for field in ("weights", "means", "variances", "ll_history"):
            np.testing.assert_allclose(getattr(got, field), getattr(want, field), rtol=1e-10, atol=0, err_msg=field)
        assert got.log_likelihood == pytest.approx(want.log_likelihood, rel=1e-10, abs=0)

    def test_cases_reach_jitter_and_floor(self):
        x = discrete_sample(5)
        assert len(np.unique(np.quantile(x, (np.arange(3) + 0.5) / 3))) < 3
        x = floor_sample(5)
        assert np.any(ov.fit_gmm(x, 3).variances == 1e-6 * x.var())

    def test_same_peaks_on_one_year_series(self):
        policy = ov.OversamplePolicy()
        y = gen_synthetic(7, 35040).target
        got, want = ov.fit_gmm(y, policy.n_components), fit_gmm_reference(y, policy.n_components)
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

    def test_more_components_than_distinct_values(self):
        with pytest.raises(ov.GmmFitError):
            ov.fit_gmm(np.array([1.0, 1.0, 2.0, 2.0]), 3)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, max_iter):
        with pytest.raises(ov.GmmFitError, match="max_iter"):
            ov.fit_gmm(two_component_sample(0, n=200), 2, max_iter=max_iter)

    def test_constant_data_rejected(self):
        with pytest.raises(ov.GmmFitError):
            ov.fit_gmm(np.full(100, 2.0), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        x = two_component_sample(4)
        x[10] = bad
        with pytest.raises(ov.GmmFitError):
            ov.fit_gmm(x, 2)

    def test_variance_floor_holds(self):
        x = np.concatenate([np.zeros(500) + 1e-9, np.ones(500), np.full(3, 100.0)])
        g = ov.fit_gmm(x, 3)
        assert np.all(g.variances >= 1e-6 * x.var() - 1e-15)


class TestHighestMean:
    def test_max(self):
        g = ov.GmmParams(np.array([0.3, 0.3, 0.4]), np.array([2.0, 7.0, 5.0]),
                         np.ones(3), 0.0, np.zeros(1))
        assert ov.highest_mean(g) == 7.0

    def test_single(self):
        g = ov.GmmParams(np.array([1.0]), np.array([3.0]), np.ones(1), 0.0, np.zeros(1))
        assert ov.highest_mean(g) == 3.0

    def test_ties(self):
        g = ov.GmmParams(np.array([0.5, 0.5]), np.array([7.0, 7.0]), np.ones(2), 0.0, np.zeros(1))
        assert ov.highest_mean(g) == 7.0


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


class TestExpandPeaks:
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
    def test_cap_ratio_property(self, n_base, n_extra, os_pct):
        kept = ov.cap_kept_count(n_base, n_extra, os_pct)
        assert 0 <= kept <= n_extra
        assert kept / (n_base + kept) <= os_pct / 100.0 + 1.0 / (n_base + kept)

    def test_policy_validation(self):
        with pytest.raises(ov.PolicyError):
            ov.OversamplePolicy(s_step=4, nu=2)
        with pytest.raises(ov.PolicyError):
            ov.OversamplePolicy(os_pct=0.0)
        with pytest.raises(ov.PolicyError):
            ov.cap_kept_count(10, 10, 101.0)
