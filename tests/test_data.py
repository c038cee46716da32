import math
from dataclasses import fields
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakcast import data as d

UTC = timezone.utc
T0 = datetime(2021, 9, 1, tzinfo=UTC)
STEP = timedelta(minutes=15)


def write(tmp_path, name, rows):
    p = tmp_path / name
    p.write_text("timestamp,value\n" + "\n".join(rows) + "\n")
    return p


def grid_series(name, start, values, step=STEP):
    return d.RawSeries(name, [start + i * step for i in range(len(values))], np.asarray(values, dtype=float))


def grid_fill_loop(series, start, step, n):
    """Per-grid-point oracle for ``_grid_fill``: the last observation at or
    before each grid point, zero before the first observation."""
    out = np.zeros(n, dtype=np.float64)
    ts, vals = series.timestamps, series.values
    j = -1
    for i in range(n):
        point = start + i * step
        while j + 1 < len(ts) and ts[j + 1] <= point:
            j += 1
        out[i] = vals[j] if j >= 0 else 0.0
    return out


def brute_force_stats(x):
    """Independent moment oracle: plain loops, no shortcuts."""
    n = len(x)
    mean = sum(x) / n
    m2 = sum((v - mean) ** 2 for v in x) / n
    m3 = sum((v - mean) ** 3 for v in x) / n
    m4 = sum((v - mean) ** 4 for v in x) / n
    return m3 / m2 ** 1.5, m4 / m2 ** 2


class TestLoadCsv:
    def test_well_formed(self, tmp_path):
        p = write(tmp_path, "a.csv", ["2021-09-01T00:00,1.0", "2021-09-01T00:15,2.0", "2021-09-01T00:30,3.0"])
        s = d.load_csv(p)
        assert len(s.values) == 3
        assert s.timestamps[0] == T0

    def test_invalid_numeric_reports_line(self, tmp_path):
        p = write(tmp_path, "a.csv", ["2021-09-01T00:00,1.0", "2021-09-01T00:15,abc"])
        with pytest.raises(d.ParseError) as exc:
            d.load_csv(p)
        assert exc.value.line == 3  # header is line 1

    def test_unsorted_input_sorted(self, tmp_path):
        p = write(tmp_path, "a.csv", ["2021-09-01T00:30,3.0", "2021-09-01T00:00,1.0", "2021-09-01T00:15,2.0"])
        s = d.load_csv(p)
        assert s.timestamps == sorted(s.timestamps)
        assert list(s.values) == [1.0, 2.0, 3.0]

    def test_duplicate_timestamp_rejected(self, tmp_path):
        p = write(tmp_path, "a.csv", ["2021-09-01T00:00,1.0", "2021-09-01T00:00,2.0"])
        with pytest.raises(d.DataError):
            d.load_csv(p)

    def test_column_map_and_z_suffix(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("time,flow\n2021-09-01T00:00:00Z,4.5\n")
        s = d.load_csv(p, column_map={"timestamp": "time", "value": "flow"})
        assert s.values[0] == 4.5
        assert s.timestamps[0] == T0

    def test_missing_timestamp_field_reports_line(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("value,time\n1.0,2021-09-01T00:00\n2.0\n")
        with pytest.raises(d.ParseError, match="'time'") as exc:
            d.load_csv(p, column_map={"timestamp": "time"})
        assert exc.value.line == 3

    def test_blank_line_skipped(self, tmp_path):
        p = write(tmp_path, "a.csv", ["2021-09-01T00:00,1.0", "", "2021-09-01T00:15,2.0", "2021-09-01T00:30,x"])
        with pytest.raises(d.ParseError) as exc:
            d.load_csv(p)
        assert exc.value.line == 5  # the blank line still counts
        p = write(tmp_path, "b.csv", ["2021-09-01T00:00,1.0", "", "2021-09-01T00:15,2.0"])
        s = d.load_csv(p)
        assert list(s.values) == [1.0, 2.0]
        assert s.timestamps == [T0, T0 + STEP]

    def test_reordered_header_and_extra_columns(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("value,station,timestamp,note\n2.5,n1,2021-09-01T00:15,late\n1.5,n1,2021-09-01T00:00,\n")
        s = d.load_csv(p)
        assert list(s.values) == [1.5, 2.5]
        assert s.timestamps == [T0, T0 + STEP]

    def test_row_without_value_reports_line(self, tmp_path):
        p = write(tmp_path, "a.csv", ["2021-09-01T00:00,1.0", "2021-09-01T00:15"])
        with pytest.raises(d.ParseError) as exc:
            d.load_csv(p)
        assert exc.value.line == 3

    @pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_value_reports_line(self, tmp_path, raw):
        p = write(tmp_path, "a.csv", ["2021-09-01T00:00,1.0", f"2021-09-01T00:15,{raw}", "2021-09-01T00:30,3.0"])
        with pytest.raises(d.ParseError) as exc:
            d.load_csv(p)
        assert exc.value.line == 3


class TestAlign:
    def test_already_aligned_unchanged(self):
        a = grid_series("t", T0, [1, 2, 3, 4])
        b = grid_series("r", T0, [5, 6, 7, 8])
        out = d.align([a, b])
        assert np.array_equal(out.target, [1, 2, 3, 4])
        assert np.array_equal(out.auxiliaries[0], [5, 6, 7, 8])

    def test_midseries_gap_forward_filled(self):
        ts = [T0, T0 + STEP, T0 + 3 * STEP]
        a = d.RawSeries("t", ts, np.array([1.0, 2.0, 4.0]))
        out = d.align([a])
        assert np.array_equal(out.target, [1.0, 2.0, 2.0, 4.0])

    def test_leading_gap_zeros(self):
        a = grid_series("t", T0, [1, 2, 3, 4])
        late = d.RawSeries("r", [T0 + 2 * STEP, T0 + 3 * STEP], np.array([9.0, 9.5]))
        out = d.align([a, late], start=T0, end=T0 + 3 * STEP)
        assert np.array_equal(out.auxiliaries[0], [0.0, 0.0, 9.0, 9.5])

    def test_intersection_range(self):
        a = grid_series("t", T0, [1, 2, 3, 4, 5])
        b = grid_series("r", T0 + STEP, [7, 8, 9])
        out = d.align([a, b])
        assert out.start == T0 + STEP
        assert len(out) == 3

    def test_empty_intersection_raises(self):
        a = grid_series("t", T0, [1, 2])
        b = grid_series("r", T0 + 10 * STEP, [1, 2])
        with pytest.raises(d.AlignmentError):
            d.align([a, b])

    def test_series_without_observations_raises(self, tmp_path):
        empty = d.load_csv(write(tmp_path, "empty.csv", []))
        a = grid_series("t", T0, [1, 2, 3, 4])
        with pytest.raises(d.AlignmentError):
            d.align([a, empty])
        with pytest.raises(d.AlignmentError):
            d.align([a, empty], start=T0, end=T0 + 3 * STEP)

    @given(st.lists(st.integers(-3_600_000, 20_000_000), min_size=1, max_size=40, unique=True),
           st.integers(-2_000, 15_000), st.sampled_from([timedelta(seconds=7.5), timedelta(minutes=1), STEP]),
           st.integers(1, 300), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_grid_fill_matches_loop(self, offsets_ms, start_s, step, n, shifted_zone):
        # off-grid millisecond stamps with random gaps; the grid may start
        # before the first observation, after the last, or anywhere between
        offsets_ms.sort()
        raw = d.RawSeries("x", [T0 + timedelta(milliseconds=o) for o in offsets_ms],
                          np.arange(1.0, len(offsets_ms) + 1.0))
        start = T0 + timedelta(seconds=start_s)
        if shifted_zone:
            start = start.astimezone(timezone(timedelta(hours=5)))
        assert np.array_equal(d._grid_fill(raw, start, step, n), grid_fill_loop(raw, start, step, n))


class TestWindows:
    def make_series(self, L):
        return d.AlignedSeries(T0, STEP, np.arange(L, dtype=float), [np.arange(L, dtype=float) * 2], ["t", "r"])

    def test_exact_fit_single_window(self):
        ws = d.make_windows(self.make_series(1728), t=1440, h=288, stride=1)
        assert len(ws) == 1

    def test_stride_count(self):
        ws = d.make_windows(self.make_series(1760), t=1440, h=288, stride=16)
        assert len(ws) == 3
        assert [w.origin for w in ws] == [0, 16, 32]

    def test_too_short_raises(self):
        with pytest.raises(d.WindowError):
            d.make_windows(self.make_series(1727), t=1440, h=288)

    def test_window_contents(self):
        ws = d.make_windows(self.make_series(20), t=6, h=2, stride=4)
        w = ws[1]
        assert w.origin == 4
        assert w.issue_index == 9
        assert np.array_equal(w.input[0], np.arange(4, 10, dtype=float))
        assert np.array_equal(w.input[1], np.arange(4, 10, dtype=float) * 2)
        assert np.array_equal(w.target, [10.0, 11.0])

    def test_window_at_origin_equals_make_windows(self):
        series = self.make_series(40)
        windows = d.make_windows(series, t=6, h=3)
        for origin in (0, 7, len(windows) - 1):
            w = d.window_at_origin(series, origin, 6, 3)
            for f in fields(d.WindowSample):
                assert np.array_equal(getattr(w, f.name), getattr(windows[origin], f.name)), f.name
        assert d.window_at_origin(series, 5, 6, 3, oversampled=True).is_oversampled

    def test_windows_are_views_of_the_matrix(self):
        series = self.make_series(40)
        mat = series.matrix()
        w = d.window_at_origin(series, 3, 6, 3, oversampled=True)
        assert np.shares_memory(w.input, mat) and np.shares_memory(w.target, mat)
        assert all(np.shares_memory(v.input, mat) and np.shares_memory(v.target, mat)
                   for v in d.make_windows(series, 6, 3, stride=5))

    @pytest.mark.parametrize("origin", [-1, 32, 100])
    def test_window_at_origin_out_of_range(self, origin):
        with pytest.raises(d.WindowError):
            d.window_at_origin(self.make_series(40), origin, 6, 3)  # origins 0..31

    def test_matrix_is_read_only_and_never_copied(self):
        series = self.make_series(10)
        mat = series.matrix()
        assert mat is series.matrix()
        assert mat.shape == (2, 10) and mat.dtype == np.float64
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0
        assert np.shares_memory(series.target, mat) and np.shares_memory(series.auxiliaries[0], mat)
        scaled = d.transform_series(series, [d.Transform(mode="standardize", mean=1.0, std=2.0)] * 2)
        assert not scaled.matrix().flags.writeable
        assert np.array_equal(scaled.matrix(), (mat - 1.0) / 2.0)

    @given(st.integers(1, 400), st.integers(1, 50), st.integers(1, 50), st.integers(1, 40))
    @settings(max_examples=100)
    def test_count_formula(self, extra, t, h, stride):
        L = t + h + extra
        series = d.AlignedSeries(T0, STEP, np.zeros(L), [np.zeros(L)], ["t", "r"])
        ws = d.make_windows(series, t=t, h=h, stride=stride)
        assert len(ws) == (L - t - h) // stride + 1


class TestChronoSplit:
    def split(self, L=200, t=20, h=10, cutoff_idx=150, val_fraction=0.1):
        series = d.AlignedSeries(T0, STEP, np.arange(L, dtype=float), [], ["t"])
        windows = d.make_windows(series, t=t, h=h, stride=1)
        cutoff = series.timestamp_at(cutoff_idx)
        return series, windows, d.chrono_split(windows, series, cutoff, val_fraction)

    def test_conservation(self):
        _, windows, (train, val, test) = self.split()
        assert len(train) + len(val) + len(test) == len(windows)

    def test_all_before_cutoff_means_empty_test(self):
        series = d.AlignedSeries(T0, STEP, np.arange(50, dtype=float), [], ["t"])
        windows = d.make_windows(series, t=10, h=5, stride=1)
        _, _, test = d.chrono_split(windows, series, series.timestamp_at(500))
        assert test == []

    def test_boundary_window_goes_to_later_partition(self):
        series, _, (train, val, test) = self.split(cutoff_idx=150)
        test_idx = series.index_at(series.timestamp_at(150))
        for w in train + val:
            assert w.issue_index + len(w.target) < test_idx
        # some test window's target truly spans the cutoff
        assert any(w.issue_index + 1 < test_idx <= w.issue_index + len(w.target) for w in test)

    def test_no_leakage_property(self):
        series, _, (train, val, test) = self.split(L=400, t=30, h=12, cutoff_idx=300)
        max_train_touched = max(w.issue_index + len(w.target) for w in train)
        min_test_target = min(w.issue_index + 1 for w in test)
        assert max_train_touched < min_test_target


def test_filter_by_months():
    start = datetime(2021, 6, 30, tzinfo=UTC)
    L = 24 * 4 * 40  # 40 days spanning June..August
    series = d.AlignedSeries(start, STEP, np.zeros(L), [], ["t"])
    windows = d.make_windows(series, t=96, h=96, stride=96)
    kept = d.filter_by_months(windows, series, months={7})
    assert kept
    for w in kept:
        assert series.timestamp_at(w.issue_index).month == 7


class TestTransform:
    def test_none_is_identity(self):
        x = np.array([1.0, 2.0, 3.0])
        tr = d.Transform.fit(x, "none")
        assert np.array_equal(tr.apply(x), x)
        assert np.array_equal(tr.invert(x), x)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_standardize_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(3.0, 2.0, size=500)
        tr = d.Transform.fit(x, "standardize")
        assert np.max(np.abs(tr.invert(tr.apply(x)) - x)) < 1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_log1p_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.lognormal(1.0, 2.0, size=500)
        tr = d.Transform.fit(x, "log1p_standardize")
        back = tr.invert(tr.apply(x))
        assert np.max(np.abs(back - x) / np.maximum(1.0, np.abs(x))) < 1e-9

    def test_log1p_finite_on_nonnegative(self):
        x = np.array([0.0, 1e-9, 5.0, 1e6])
        tr = d.Transform.fit(x, "log1p_standardize")
        assert np.isfinite(tr.apply(x)).all()

    @pytest.mark.parametrize("bad", [-1.0, -2.0])
    def test_log1p_rejects_values_at_or_below_minus_one(self, bad):
        with pytest.raises(d.DataError, match="> -1"):
            d.Transform.fit(np.array([bad, 1.0, 3.0]), "log1p_standardize")
        tr = d.Transform.fit(np.array([0.0, 1.0, 3.0]), "log1p_standardize")
        with pytest.raises(d.DataError, match="> -1"):
            tr.apply(np.array([2.0, bad]))

    @pytest.mark.parametrize("mode", ["log1p_standardize", "standardize"])
    def test_fit_rejects_empty_slice(self, mode):
        series = d.AlignedSeries(T0, STEP, np.array([1.0, 2.0, 3.0]), [], ["t"])
        with pytest.raises(d.DataError, match="no values"):
            d.fit_transforms(series, train_end_index=0, mode=mode)

    def test_fit_uses_training_slice_only(self):
        series = d.AlignedSeries(T0, STEP, np.array([1.0, 1.0, 1.0, 100.0]), [], ["t"])
        trs = d.fit_transforms(series, train_end_index=3, mode="standardize")
        assert trs[0].mean == 1.0


class TestStats:
    def test_symmetric_data_zero_skew(self):
        st_ = d.compute_stats(np.array([-1.0, 0.0, 1.0, -1.0, 0.0, 1.0]))
        assert st_.skewness == pytest.approx(0.0, abs=1e-12)

    def test_brute_force_oracle_small(self):
        x = [0.0, 0.0, 0.0, 12.0]
        st_ = d.compute_stats(np.array(x))
        skew, kurt = brute_force_stats(x)
        assert st_.skewness == pytest.approx(skew, abs=1e-12)
        assert st_.kurtosis == pytest.approx(kurt, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_brute_force_oracle_random(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.lognormal(0.0, 1.5, size=100)
        st_ = d.compute_stats(x)
        skew, kurt = brute_force_stats(list(x))
        assert st_.skewness == pytest.approx(skew, rel=1e-9)
        assert st_.kurtosis == pytest.approx(kurt, rel=1e-9)

    def test_constant_series_undefined(self):
        with pytest.raises(d.StatsError):
            d.compute_stats(np.full(10, 3.0))

    def test_too_short(self):
        with pytest.raises(d.StatsError):
            d.compute_stats(np.array([1.0, 2.0, 3.0]))


class TestSynthetic:
    def test_no_events_flat(self):
        s = d.gen_synthetic(0, 20_000, peak_rate=0.0)
        assert abs(d.compute_stats(s.target).skewness) < 0.1
        assert np.allclose(s.target, 5.0, atol=0.5)

    def test_deterministic(self):
        a = d.gen_synthetic(42, 5_000)
        b = d.gen_synthetic(42, 5_000)
        assert np.array_equal(a.target, b.target)
        assert np.array_equal(a.auxiliaries[0], b.auxiliaries[0])

    def test_default_params_heavy_skew(self):
        s = d.gen_synthetic(7, 50_000)
        assert d.compute_stats(s.target).skewness > 5.0

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_nonnegative_every_seed(self, seed):
        s = d.gen_synthetic(seed, 20_000)
        assert (s.target >= 0).all()
        assert all((a >= 0).all() for a in s.auxiliaries)

    def test_multiple_auxiliaries(self):
        s = d.gen_synthetic(0, 2_000, m=4)
        assert s.m == 4
        assert s.names == ["flow", "rain1", "rain2", "rain3"]

    def test_csv_round_trip(self, tmp_path):
        s = d.gen_synthetic(0, 200)
        p = tmp_path / "flow.csv"
        d.write_csv(p, s.start, s.step, s.target)
        back = d.load_csv(p)
        assert np.array_equal(back.values, s.target)
        assert back.timestamps[0] == s.start
