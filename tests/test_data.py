import calendar
import csv
import hashlib
import math
import warnings
from dataclasses import fields, replace
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from peakcast import data as d

UTC = timezone.utc
T0 = datetime(2021, 9, 1, tzinfo=UTC)
STEP = timedelta(minutes=15)
EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
US = timedelta(microseconds=1)


def us(*stamps):
    """int64 microseconds since 1970-01-01 UTC of aware datetimes."""
    return np.array([(ts - EPOCH) // US for ts in stamps], dtype=np.int64)


def write(tmp_path, name, rows):
    p = tmp_path / name
    p.write_text("timestamp,value\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return p


def grid_series(name, start, values, step=STEP):
    return d.RawSeries(name, us(*(start + i * step for i in range(len(values)))), np.asarray(values, dtype=float))


def grid_fill_loop(series, start, step, n):
    """Per-grid-point oracle for ``_grid_fill``: the last observation at or
    before each grid point, for a grid that starts at or after the first.
    Times are integer microseconds."""
    out = np.zeros(n, dtype=np.float64)
    ts, vals = series.times_us.tolist(), series.values
    j = 0
    for i in range(n):
        point = start + i * step
        while j + 1 < len(ts) and ts[j + 1] <= point:
            j += 1
        out[i] = vals[j]
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
        assert s.times_us.dtype == np.int64 and s.times_us[0] == us(T0)[0]

    def test_invalid_numeric_reports_line(self, tmp_path):
        p = write(tmp_path, "a.csv", ["2021-09-01T00:00,1.0", "2021-09-01T00:15,abc"])
        with pytest.raises(d.ParseError) as exc:
            d.load_csv(p)
        assert exc.value.line == 3  # header is line 1

    def test_unsorted_input_sorted(self, tmp_path):
        p = write(tmp_path, "a.csv", ["2021-09-01T00:30,3.0", "2021-09-01T00:00,1.0", "2021-09-01T00:15,2.0"])
        s = d.load_csv(p)
        assert np.array_equal(s.times_us, us(T0, T0 + STEP, T0 + 2 * STEP))
        assert list(s.values) == [1.0, 2.0, 3.0]

    def test_duplicate_timestamp_rejected(self, tmp_path):
        p = write(tmp_path, "a.csv", ["2021-09-01T00:00,1.0", "2021-09-01T00:00,2.0"])
        with pytest.raises(d.DataError):
            d.load_csv(p)

    def test_byte_order_mark_dropped(self, tmp_path):
        # spreadsheet exports often start the file with a UTF-8 byte-order mark
        p = tmp_path / "bom.csv"
        p.write_bytes("\ufefftimestamp,value\n2021-09-01T00:00,1.5\n2021-09-01T00:15,2.5\n".encode("utf-8"))
        s = d.load_csv(p)
        assert np.array_equal(s.times_us, us(T0, T0 + STEP)) and list(s.values) == [1.5, 2.5]

    def test_z_suffix_read_as_utc(self, tmp_path):
        p = write(tmp_path, "b.csv", ["2021-09-01T00:00:00Z,4.5", "2021-09-01T02:15:00+02:00,5.5"])
        s = d.load_csv(p)
        assert np.array_equal(s.times_us, us(T0, T0 + STEP)) and list(s.values) == [4.5, 5.5]

    def test_missing_timestamp_field_reports_line(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("value,timestamp\n1.0,2021-09-01T00:00\n2.0\n", encoding="utf-8")
        with pytest.raises(d.ParseError, match="'timestamp'") as exc:
            d.load_csv(p)
        assert exc.value.line == 3

    @pytest.mark.parametrize("header", ["time,value", "timestamp,flow", ""], ids=["time", "flow", "empty"])
    def test_header_without_timestamp_and_value_rejected(self, tmp_path, header):
        p = tmp_path / "odd.csv"
        p.write_text(f"{header}\n2021-09-01T00:00,1.0\n", encoding="utf-8")
        with pytest.raises(d.ParseError, match="header must include 'timestamp' and 'value'") as exc:
            d.load_csv(p)
        assert exc.value.line == 1

    @pytest.mark.parametrize("header", ["timestamp,value,value", "timestamp,value,timestamp"],
                             ids=["value", "timestamp"])
    def test_header_naming_a_column_twice_rejected(self, tmp_path, header):
        # the last such column once won without a word
        p = tmp_path / "twice.csv"
        p.write_text(f"{header}\n2021-09-01T00:00,1.0,2.0\n", encoding="utf-8")
        with pytest.raises(d.ParseError, match="once each") as exc:
            d.load_csv(p)
        assert exc.value.line == 1

    def test_blank_line_skipped(self, tmp_path):
        p = write(tmp_path, "a.csv", ["2021-09-01T00:00,1.0", "", "2021-09-01T00:15,2.0", "2021-09-01T00:30,x"])
        with pytest.raises(d.ParseError) as exc:
            d.load_csv(p)
        assert exc.value.line == 5  # the blank line still counts
        p = write(tmp_path, "b.csv", ["2021-09-01T00:00,1.0", "", "2021-09-01T00:15,2.0"])
        s = d.load_csv(p)
        assert list(s.values) == [1.0, 2.0]
        assert np.array_equal(s.times_us, us(T0, T0 + STEP))

    def test_reordered_header_and_extra_columns(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("value,station,timestamp,note\n2.5,n1,2021-09-01T00:15,late\n1.5,n1,2021-09-01T00:00,\n",
                     encoding="utf-8")
        s = d.load_csv(p)
        assert list(s.values) == [1.5, 2.5]
        assert np.array_equal(s.times_us, us(T0, T0 + STEP))

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


def oracle_parse_timestamp(text, line):
    """The per-row stamp parser load_csv used before its one-pass read.
    astimezone's OverflowError, for a stamp outside datetime's range once
    in UTC, counts as a bad stamp; that parser let it escape."""
    text = text.strip()
    try:
        ts = datetime.fromisoformat(text)
        if ts.tzinfo is None:
            ts = ts.replace(tzinfo=UTC)
        return ts.astimezone(UTC)
    except (ValueError, OverflowError):
        raise d.ParseError(f"invalid timestamp {text!r}", line) from None


def oracle_load(lines):
    """Per-row oracle for load_csv on ``timestamp,value`` data lines:
    ("ok", times in us, values) sorted by time, ("parse", line) for the
    first bad line, or ("duplicate",)."""
    rows = []
    for line, text in enumerate(lines, start=2):
        stamp, raw = text.split(",")
        try:
            ts = oracle_parse_timestamp(stamp, line)
        except d.ParseError:
            return ("parse", line)
        try:
            value = float(raw)
        except ValueError:
            return ("parse", line)
        if not math.isfinite(value):
            return ("parse", line)
        rows.append(((ts - EPOCH) // US, value))
    rows.sort()
    if any(a[0] == b[0] for a, b in zip(rows, rows[1:])):
        return ("duplicate",)
    return ("ok", np.array([r[0] for r in rows], dtype=np.int64), np.array([r[1] for r in rows]))


ZONES = [None, UTC, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-3)),
         timezone(timedelta(hours=-23, minutes=-59)), timezone(timedelta(hours=14))]


def format_stamp(ts, zone, layout):
    """One instant written in a layout that datetime.fromisoformat reads."""
    if layout == "fraction":
        ts = ts.replace(microsecond=ts.microsecond or 1)
    else:
        ts = ts.replace(microsecond=0)
    local = ts.replace(tzinfo=zone)
    if layout == "z":
        return ts.isoformat() + "Z"
    if layout == "minutes":
        return local.isoformat(timespec="minutes")
    if layout == "space":
        return local.isoformat(sep=" ")
    return local.isoformat()  # "offset" and "fraction": +HH:MM after any zone


def format_invalid(ts, field):
    """A stamp in write_csv's layout with one field out of range."""
    year = ts.year if not calendar.isleap(ts.year) else ts.year - 1
    month, day, hour, second = {
        "month13": (13, 1, 0, 0), "april31": (4, 31, 0, 0), "feb29": (2, 29, 0, 0),
        "hour24": (ts.month, 1, 24, 0), "second60": (ts.month, 1, 0, 60),
    }[field]
    return f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:00:{second:02d}+00:00"


stamps = st.one_of(
    st.builds(format_stamp, st.datetimes(min_value=datetime(1, 1, 1)), st.sampled_from(ZONES),
              st.sampled_from(["offset", "offset", "z", "minutes", "fraction", "space"])),
    st.builds(format_invalid, st.datetimes(min_value=datetime(2, 1, 1)),
              st.sampled_from(["month13", "april31", "feb29", "hour24", "second60"])),
)
values = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                   st.sampled_from([" 1.5", "2e3 ", "-0.0", "nan", "inf", "abc", ""]))


def assert_reads_as_oracle(path, lines):
    want = oracle_load(lines)
    if want[0] == "parse":
        with pytest.raises(d.ParseError) as exc:
            d.load_csv(path)
        assert exc.value.line == want[1]
    elif want[0] == "duplicate":
        with pytest.raises(d.DataError, match="duplicate"):
            d.load_csv(path)
    else:
        s = d.load_csv(path)
        assert s.times_us.dtype == np.int64 and s.values.dtype == np.float64
        assert np.array_equal(s.times_us, want[1]) and s.values.tobytes() == want[2].tobytes()


def write_csv_row_by_row(path, start, step, values):
    """Oracle for ``write_csv``: one ``csv.writer`` row per value, its
    stamp and value formatted by ``isoformat`` and ``repr``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value"])
        for i, v in enumerate(values):
            writer.writerow([(start + i * step).isoformat(), repr(float(v))])


class TestReadPath:
    """load_csv against a per-row oracle, and the one-pass read's edges."""

    @given(st.lists(st.tuples(stamps, values), min_size=1, max_size=25))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_per_row_oracle(self, tmp_path, rows):
        lines = [f"{stamp},{value}" for stamp, value in rows]
        assert_reads_as_oracle(write(tmp_path, "x.csv", lines), lines)

    @pytest.mark.parametrize("stamp", [
        # loadtxt cuts a field to its column's width
        "2021-09-01T00:00:00+00:00garbage", "2021-09-01T00:00:00+00:00" + "x" * 40,
        # a NUL inside a stamp, or bytes after a valid stamp's NUL: only
        # trailing NULs are dropped
        "2021-09-01T00:15\0:00+00:00", "2021-09-01T00:15\0\0\0+00:00",
        "2021-09-01T00:15:00+00:00\0junk", "2021-09-01T00:15:00+00:00\0\0+00:00",
        # off the layout, where numpy's datetime64 parser or a blind offset
        # decode would read them
        "2021-09-01T00:15:00+00-00", "2021-09-01T00:15:00 00:00", "2021-09-01T00:15:00+0a:00",
        # year 0, which datetime64 reads, even when in datetime's range once in UTC
        "0000-12-31T23:00:00-01:00", "0000-06-01T00:00:00+00:00",
        # out of datetime's range once in UTC; the per-row parser once let
        # astimezone's OverflowError escape
        "0001-01-01T00:00:00+00:01", "9999-12-31T23:59:00-00:01",
    ], ids=["garbage", "over_long", "inner_nul", "inner_nuls", "junk_after_nul", "offset_after_nul",
            "offset_dash", "no_sign", "offset_letter", "year_0_utc_year_1", "year_0",
            "before_utc_range", "after_utc_range"])
    def test_bad_stamp_reports_line(self, tmp_path, stamp):
        p = write(tmp_path, "a.csv", ["2021-08-31T23:45:00+00:00,1.0", f"{stamp},2.0"])
        with pytest.raises(d.ParseError, match="invalid timestamp") as exc:
            d.load_csv(p)
        assert exc.value.line == 3

    def test_valid_stamp_longer_than_the_column_read(self, tmp_path):
        # fromisoformat reads any number of fractional digits, so a valid
        # stamp may be longer than the one-pass read's column
        stamp = "2021-09-01T00:00:00." + "0" * 40 + "+00:00"
        s = d.load_csv(write(tmp_path, "a.csv", ["2021-08-31T23:45:00+00:00,1.0", f"{stamp},2.0"]))
        assert np.array_equal(s.times_us, us(T0 - STEP, T0)) and list(s.values) == [1.0, 2.0]

    def test_comment_row_reports_line(self, tmp_path):
        p = write(tmp_path, "a.csv", ["2021-09-01T00:00:00+00:00,1.0", "#2021-09-01T00:15:00+00:00,2.0"])
        with pytest.raises(d.ParseError) as exc:
            d.load_csv(p)
        assert exc.value.line == 3

    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n"], ids=["none", "blank", "crlf"])
    def test_header_only_file_is_empty_without_a_warning(self, tmp_path, body):
        p = tmp_path / "empty.csv"
        p.write_bytes(("timestamp,value\n" + body).encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = d.load_csv(p)
        assert s.times_us.dtype == np.int64 and s.times_us.shape == (0,) and s.values.shape == (0,)

    def test_crlf_and_quoted_fields(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_bytes(b'"timestamp","value"\r\n"2021-09-01T00:15:00+00:00","2.5"\r\n'
                      b'2021-09-01T00:00:00+00:00,"1.5"\r\n')
        s = d.load_csv(p)
        assert np.array_equal(s.times_us, us(T0, T0 + STEP)) and list(s.values) == [1.5, 2.5]

    @pytest.mark.parametrize("raw", ["1_0", "1_000.5", "\u0661"], ids=["underscore", "grouped", "arabic_digit"])
    def test_value_outside_numpy_float_syntax_rejected(self, tmp_path, raw):
        # float() reads these; numpy's parser, which load_csv uses, does not
        p = write(tmp_path, "a.csv", ["2021-09-01T00:00:00+00:00,1.0", f"2021-09-01T00:15:00+00:00,{raw}"])
        with pytest.raises(d.ParseError, match="invalid numeric value") as exc:
            d.load_csv(p)
        assert exc.value.line == 3

    @pytest.mark.parametrize("body", ["2021-09-01T00:15:00+00:00\0,2.0", "2021-09-01T00:15:00\0\0,2.0",
                                      '"2021-09-01T00:15:00+00:00\0",2.0'], ids=["offset", "naive", "quoted"])
    def test_trailing_nul_in_stamp_dropped(self, tmp_path, body):
        # a bytes column cannot hold trailing NULs, so neither read keeps
        # them: the second file has a row only fromisoformat reads, and the
        # third a stamp too long for the one-pass read
        long_stamp = "2021-09-01T00:00:00." + "0" * 40 + "+00:00"
        for rows in ([body], [body, "2021-09-01T00:00,1.0"], [body, f"{long_stamp},1.0"]):
            s = d.load_csv(write(tmp_path, "a.csv", rows))
            assert s.times_us[-1] == us(T0 + STEP)[0] and s.values[-1] == 2.0

    def test_write_csv_layout_read_in_one_pass(self, tmp_path, monkeypatch):
        zones = [z for z in ZONES if z is not None]
        lines = [f"{format_stamp(T0 + i * STEP, zones[i % len(zones)], 'offset')},{i}.5" for i in range(3 * len(zones))]
        p = write(tmp_path, "a.csv", lines)
        monkeypatch.setattr(d, "_read_rows", None)  # the row-by-row read must not run
        assert_reads_as_oracle(p, lines)

    @pytest.mark.parametrize("start, step, n", [
        (datetime(2021, 9, 1), STEP, 59),
        (T0, STEP, 59),
        (datetime(2021, 9, 1, 23, tzinfo=timezone(timedelta(hours=5, minutes=30))), STEP, 59),
        (datetime(2021, 9, 1, 0, 0, 59, 999_000, tzinfo=UTC), timedelta(milliseconds=250), 59),
        (datetime(2021, 3, 28, tzinfo=ZoneInfo("Europe/Berlin")), timedelta(minutes=45), 59),
        (datetime(1, 1, 1, 0, 0, 30), timedelta(seconds=-15), 3),  # 30 s down to 0 s into year 1
        (T0, STEP, 0),
    ], ids=["naive", "utc", "plus_0530", "sub_second", "zone_across_dst", "year_1_backwards", "no_rows"])
    def test_write_csv_writes_the_row_by_row_bytes(self, tmp_path, start, step, n, monkeypatch):
        monkeypatch.setattr(d, "_CSV_BLOCK_ROWS", 7)  # 59 rows: eight blocks of 7 and a tail of 3
        rng = np.random.default_rng(3)
        values = np.concatenate([[0.0, -0.0, 1.0, -2.5, 1e16, 1e-5, 123456789.123, 2.0 ** -1074, np.pi],
                                 rng.lognormal(sigma=3.0, size=40), -rng.random(10)])[:n]
        d.write_csv(tmp_path / "fast.csv", start, step, values)
        write_csv_row_by_row(tmp_path / "rows.csv", start, step, values)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()

    def test_write_csv_past_the_last_year_raises_before_writing(self, tmp_path):
        path = tmp_path / "a.csv"
        with pytest.raises(OverflowError):
            d.write_csv(path, datetime(9999, 12, 31, 23, tzinfo=UTC), timedelta(minutes=30), np.zeros(3))
        assert not path.exists()

    @pytest.mark.parametrize("offset", ["+24:00", "-24:00", "+00:60", "+23:59", "-00:00"])
    def test_offset_edges_read_as_fromisoformat(self, tmp_path, offset):
        # fromisoformat rejects a whole day but reads minute 60 as the next hour
        lines = ["2021-09-01T00:00:00+00:00,1.0", f"2021-09-01T12:00:00{offset},2.0"]
        assert_reads_as_oracle(write(tmp_path, "a.csv", lines), lines)


class TestAlign:
    def test_auxiliary_of_another_length_rejected(self):
        with pytest.raises(d.DataError, match="auxiliary length 3 != target length 4"):
            d.AlignedSeries(T0, STEP, np.zeros(4), [np.zeros(3)], ["t", "r"])

    @pytest.mark.parametrize("names", [["t"], ["t", "r", "s"]], ids=["too_few", "too_many"])
    def test_names_that_do_not_cover_every_series_rejected(self, names):
        with pytest.raises(d.DataError, match="names must cover"):
            d.AlignedSeries(T0, STEP, np.zeros(4), [np.ones(4)], names)

    def test_no_series_rejected(self):
        with pytest.raises(d.AlignmentError, match="no series to align"):
            d.align([])

    def test_already_aligned_unchanged(self):
        a = grid_series("t", T0, [1, 2, 3, 4])
        b = grid_series("r", T0, [5, 6, 7, 8])
        out = d.align([a, b])
        assert np.array_equal(out.target, [1, 2, 3, 4])
        assert np.array_equal(out.auxiliaries[0], [5, 6, 7, 8])

    def test_midseries_gap_forward_filled(self):
        a = d.RawSeries("t", us(T0, T0 + STEP, T0 + 3 * STEP), np.array([1.0, 2.0, 4.0]))
        out = d.align([a])
        assert np.array_equal(out.target, [1.0, 2.0, 2.0, 4.0])

    def test_intersection_range(self):
        a = grid_series("t", T0, [1, 2, 3, 4, 5])
        b = grid_series("r", T0 + STEP, [7, 8, 9])
        out = d.align([a, b])
        assert out.start == T0 + STEP
        assert len(out) == 3
        # a late-starting gauge cuts the grid; no value is made up before its first reading
        late = d.RawSeries("r", us(T0 + 2 * STEP, T0 + 4 * STEP), np.array([9.0, 9.5]))
        out = d.align([a, late])
        assert out.start == T0 + 2 * STEP
        assert np.array_equal(out.target, [3, 4, 5]) and np.array_equal(out.auxiliaries[0], [9.0, 9.0, 9.5])

    def test_empty_intersection_raises(self):
        a = grid_series("t", T0, [1, 2])
        b = grid_series("r", T0 + 10 * STEP, [1, 2])
        with pytest.raises(d.AlignmentError):
            d.align([a, b])

    @pytest.mark.parametrize("step", [timedelta(0), -STEP])
    def test_non_positive_step_rejected(self, step):
        a = grid_series("t", T0, [1, 2, 3, 4])
        with pytest.raises(d.AlignmentError, match="step"):
            d.align([a], step=step)

    def test_series_without_observations_raises(self, tmp_path):
        empty = d.load_csv(write(tmp_path, "empty.csv", []))
        a = grid_series("t", T0, [1, 2, 3, 4])
        with pytest.raises(d.AlignmentError):
            d.align([a, empty])

    def test_unordered_timestamps_rejected(self):
        a = d.RawSeries("gauge", us(T0 + 2 * STEP, T0, T0 + STEP, T0 + 3 * STEP), np.array([3.0, 1.0, 2.0, 4.0]))
        with pytest.raises(d.DataError, match="'gauge'.*strictly increase"):
            d.align([a])
        # disorder that also crosses the ranges is named, not reported as no overlap
        b = d.RawSeries("rain", us(T0 + 3 * STEP, T0), np.array([1.0, 2.0]))
        with pytest.raises(d.DataError, match="'rain'"):
            d.align([grid_series("t", T0 + STEP, [1, 2, 3]), b])

    def test_duplicated_timestamp_rejected(self):
        a = d.RawSeries("gauge", us(T0, T0 + STEP, T0 + STEP, T0 + 2 * STEP), np.array([1.0, 2.0, 5.0, 3.0]))
        with pytest.raises(d.DataError, match="'gauge'.*strictly increase"):
            d.align([grid_series("t", T0, [1, 2, 3]), a])

    def test_value_count_must_match_timestamps(self):
        a = d.RawSeries("gauge", us(T0, T0 + STEP, T0 + 2 * STEP), np.array([1.0, 2.0]))
        with pytest.raises(d.DataError, match="'gauge' has 2 values for 3 timestamps"):
            d.align([a])

    @given(st.lists(st.integers(-3_600_000, 20_000_000), min_size=1, max_size=40, unique=True),
           st.integers(0, 25_000_000), st.sampled_from([7_500_000, 60_000_000, 900_000_000]),
           st.integers(1, 300))
    @settings(max_examples=200, deadline=None)
    def test_grid_fill_matches_loop(self, offsets_ms, start_ms, step_us, n):
        # off-grid millisecond stamps with random gaps; the grid starts at
        # the first observation or after it, up to past the last
        offsets_ms.sort()
        raw = d.RawSeries("x", us(T0) + np.array(offsets_ms, dtype=np.int64) * 1000,
                          np.arange(1.0, len(offsets_ms) + 1.0))
        start_us = int(raw.times_us[0]) + start_ms * 1000
        assert np.array_equal(d._grid_fill(raw, start_us, step_us, n), grid_fill_loop(raw, start_us, step_us, n))


class TestWindows:
    def make_series(self, L):
        return d.AlignedSeries(T0, STEP, np.arange(L, dtype=float), [np.arange(L, dtype=float) * 2], ["t", "r"])

    def test_exact_fit_single_window(self):
        ws = d.make_windows(self.make_series(1728), t=1440, h=288, stride=1)
        assert len(ws) == 1

    def test_stride_count(self):
        ws = d.make_windows(self.make_series(1760), t=1440, h=288, stride=16)
        assert len(ws) == 3
        assert [w.issue_index for w in ws] == [1439, 1455, 1471]

    def test_too_short_raises(self):
        with pytest.raises(d.WindowError):
            d.make_windows(self.make_series(1727), t=1440, h=288)

    def test_window_contents(self):
        ws = d.make_windows(self.make_series(20), t=6, h=2, stride=4)
        w = ws[1]
        assert w.issue_index == 9
        assert np.array_equal(w.input[0], np.arange(4, 10, dtype=float))
        assert np.array_equal(w.input[1], np.arange(4, 10, dtype=float) * 2)
        assert np.array_equal(w.target, [10.0, 11.0])

    def test_window_at_origin_equals_make_windows(self):
        series = self.make_series(40)
        flags = ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE", "ALIGNED")
        for stride in (1, 3, 16):
            windows = d.make_windows(series, t=6, h=3, stride=stride)
            origins = range(0, 40 - 6 - 3 + 1, stride)
            assert len(windows) == len(origins)
            for origin, w in zip(origins, windows):
                ref = d.window_at_origin(series, origin, 6, 3)
                for f in fields(d.WindowSample):
                    got, want = getattr(w, f.name), getattr(ref, f.name)
                    assert np.array_equal(got, want) and type(got) is type(want), f.name
                    if isinstance(got, np.ndarray):
                        assert got.strides == want.strides, f.name
                        assert [got.flags[k] for k in flags] == [want.flags[k] for k in flags], f.name
        assert d.window_at_origin(series, 5, 6, 3, oversampled=True).is_oversampled

    def test_window_sample_has_slots_and_replaces(self):
        series = self.make_series(40)
        w = d.window_at_origin(series, 3, 6, 3)
        assert not hasattr(w, "__dict__")
        flagged = replace(w, is_oversampled=True)
        assert flagged.is_oversampled and flagged.input is w.input and flagged.issue_index == w.issue_index

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

    @pytest.mark.parametrize("t, h", [(0, 3), (-1, 3), (6, 0), (6, -2)])
    def test_empty_history_or_horizon_rejected(self, t, h):
        series = self.make_series(40)
        with pytest.raises(d.WindowError, match="must be >= 1"):
            d.make_windows(series, t, h)
        with pytest.raises(d.WindowError, match="must be >= 1"):
            d.window_at_origin(series, 0, t, h)

    @pytest.mark.parametrize("kw", [dict(t=True), dict(t=6.0), dict(h=3.5), dict(h=np.float64(3)),
                                    dict(stride=2.0), dict(stride=False)],
                             ids=["bool_t", "float_t", "fraction_h", "numpy_float_h", "float_stride", "bool_stride"])
    def test_window_count_that_is_not_an_integer_rejected(self, kw):
        # t=True once slid 495 windows of t = 1 out of a 500-step series
        with pytest.raises(d.WindowError, match="integer"):
            d.make_windows(self.make_series(40), **{"t": 6, "h": 3, **kw})

    @pytest.mark.parametrize("kw", [dict(origin=3.0), dict(origin=True), dict(t=6.0), dict(h=True)],
                             ids=["float_origin", "bool_origin", "float_t", "bool_h"])
    def test_window_at_origin_count_that_is_not_an_integer_rejected(self, kw):
        with pytest.raises(d.WindowError, match="integer"):
            d.window_at_origin(self.make_series(40), **{"origin": 3, "t": 6, "h": 3, **kw})

    def test_numpy_integer_counts_accepted(self):
        series = self.make_series(40)
        want = d.make_windows(series, 6, 3, stride=5)
        got = d.make_windows(series, np.int64(6), np.int32(3), stride=np.int64(5))
        assert [w.issue_index for w in got] == [w.issue_index for w in want]
        w = d.window_at_origin(series, np.int64(3), np.int64(6), np.int64(3))
        assert w.issue_index == 8 and np.array_equal(w.input, series.matrix()[:, 3:9])

    def test_matrix_is_read_only_and_never_copied(self):
        series = self.make_series(10)
        mat = series.matrix()
        assert mat is series.matrix()
        assert mat.shape == (2, 10) and mat.dtype == np.float64
        assert not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0
        assert np.shares_memory(series.target, mat) and np.shares_memory(series.auxiliaries[0], mat)
        scaled = d.transform_series(series, [d.Transform(mean=1.0, std=2.0)] * 2)
        assert not scaled.matrix().flags.writeable
        assert np.array_equal(scaled.matrix(), (np.log1p(mat) - 1.0) / 2.0)

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

    @pytest.mark.parametrize("val_fraction", [-0.1, 1.0, 1.5, float("nan")])
    def test_val_fraction_outside_unit_interval_rejected(self, val_fraction):
        with pytest.raises(d.DataError, match="val_fraction"):
            self.split(val_fraction=val_fraction)

    def test_no_leakage_property(self):
        series, _, (train, val, test) = self.split(L=400, t=30, h=12, cutoff_idx=300)
        max_train_touched = max(w.issue_index + len(w.target) for w in train)
        min_test_target = min(w.issue_index + 1 for w in test)
        assert max_train_touched < min_test_target


class TestIndexAt:
    def test_naive_reads_as_utc(self):
        s = d.gen_synthetic(0, 500)  # starts 2000-01-01 00:00 UTC
        naive = datetime(2000, 1, 1, 1, 0)
        assert s.index_at(naive) == 4 and s.index_at(naive + US) == 5
        assert s.index_at(datetime(2000, 1, 1, 6, 0, tzinfo=timezone(timedelta(hours=5)))) == 4
        naive_start = d.AlignedSeries(datetime(2000, 1, 1), STEP, np.zeros(500), [np.zeros(500)], ["t", "r"])
        assert naive_start.index_at(naive.replace(tzinfo=UTC)) == 4 and naive_start.index_at(naive) == 4

    def test_chrono_split_takes_a_naive_cutoff(self):
        s = d.gen_synthetic(0, 500)
        windows = d.make_windows(s, 20, 10)
        aware = d.chrono_split(windows, s, s.timestamp_at(400))
        naive = d.chrono_split(windows, s, s.timestamp_at(400).replace(tzinfo=None))
        assert [len(part) for part in naive] == [len(part) for part in aware]
        assert all(a is b for pa, pn in zip(aware, naive) for a, b in zip(pa, pn))

    def test_exact_far_from_start(self):
        # float division puts 1 us past grid point 2e8 (year 7704) on it
        s = d.gen_synthetic(0, 10)
        k = 2 * 10**8
        far = s.start + k * STEP
        assert s.index_at(far) == k and s.index_at(far + US) == k + 1 and s.index_at(far - US) == k
        assert s.index_at(s.start - STEP) == 0 and s.index_at(s.start) == 0


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
    @pytest.mark.parametrize("count", [1, 3])
    def test_transform_count_other_than_series_count_rejected(self, count):
        series = d.gen_synthetic(0, 100)
        tr = d.Transform.fit(series.target)
        with pytest.raises(d.DataError, match=f"need 2 transforms, got {count}"):
            d.transform_series(series, [tr] * count)

    @given(st.integers(0, 10_000))
    @settings(max_examples=10)
    def test_log1p_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.lognormal(1.0, 2.0, size=500)
        tr = d.Transform.fit(x)
        assert abs(tr.apply(x).mean()) < 1e-12 and tr.apply(x).std() == pytest.approx(1.0, rel=1e-12)
        back = tr.invert(tr.apply(x))
        assert np.max(np.abs(back - x) / np.maximum(1.0, np.abs(x))) < 1e-9

    def test_log1p_finite_on_nonnegative(self):
        x = np.array([0.0, 1e-9, 5.0, 1e6])
        tr = d.Transform.fit(x)
        assert np.isfinite(tr.apply(x)).all()

    @pytest.mark.parametrize("bad", [-1.0, -2.0])
    def test_log1p_rejects_values_at_or_below_minus_one(self, bad):
        with pytest.raises(d.DataError, match="> -1"):
            d.Transform.fit(np.array([bad, 1.0, 3.0]))
        tr = d.Transform.fit(np.array([0.0, 1.0, 3.0]))
        with pytest.raises(d.DataError, match="> -1"):
            tr.apply(np.array([2.0, bad]))

    def test_fit_rejects_empty_slice(self):
        series = d.AlignedSeries(T0, STEP, np.array([1.0, 2.0, 3.0]), [], ["t"])
        with pytest.raises(d.DataError, match="no values"):
            d.fit_transforms(series, 0, "log1p_standardize")

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_fit_rejects_non_finite_values(self, bad):
        with pytest.raises(d.DataError, match="NaN or infinite"):
            d.Transform.fit(np.array([1.0, bad, 3.0]))

    def test_fit_uses_training_slice_only(self):
        series = d.AlignedSeries(T0, STEP, np.array([1.0, 1.0, 1.0, 100.0]), [], ["t"])
        trs = d.fit_transforms(series, 3, "log1p_standardize")
        assert trs[0].mean == math.log1p(1.0) and trs[0].std == 1.0  # a constant slice keeps std 1

    @pytest.mark.parametrize("mode", ["standardize", "none", "log1p"])
    def test_unknown_mode_rejected(self, mode):
        series = d.AlignedSeries(T0, STEP, np.array([1.0, 2.0, 3.0]), [], ["t"])
        with pytest.raises(ValueError, match="unknown transform mode"):
            d.fit_transforms(series, 3, mode)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(d.StatsError, match="NaN or infinite"):
            d.compute_stats(np.array([1.0, 2.0, bad, 4.0, 5.0]))

    def test_too_short(self):
        with pytest.raises(d.StatsError):
            d.compute_stats(np.array([1.0, 2.0, 3.0]))


class TestSynthetic:
    def test_no_auxiliary_rejected(self):
        with pytest.raises(d.DataError, match="at least one auxiliary"):
            d.gen_synthetic(0, 100, m=1)

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

    @pytest.mark.parametrize("seed, length, digest", [
        (0, 35_040, "9aa6921ca879b272"), (0, 105_120, "79028e99cf7f3c51"),
        (1, 35_040, "66ed3236416dfbb0"), (1, 105_120, "5369cbbfecfe63ae"),
    ])
    def test_series_bits_pinned(self, seed, length, digest):
        matrix = d.gen_synthetic(seed, length).matrix()
        assert hashlib.sha256(matrix.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("length", [1, 3, 4])
    def test_no_longer_than_lag_is_baseline_plus_noise(self, length):
        s = d.gen_synthetic(0, length, lag=4, noise_sd=0.05)
        assert s.target.shape == (length,)
        assert np.allclose(s.target, 5.0, atol=0.5)

    @pytest.mark.parametrize("kw", [dict(length=0), dict(lag=-1), dict(decay=0.0), dict(decay=-0.1),
                                    dict(decay=np.nan)], ids=["empty", "negative_lag", "zero_decay",
                                                              "negative_decay", "nan_decay"])
    def test_bad_arguments_rejected(self, kw):
        with pytest.raises(d.DataError):
            d.gen_synthetic(**{"seed": 0, "length": 100, **kw})

    @pytest.mark.parametrize("kw, match", [
        (dict(peak_rate=np.nan), "peak_rate"), (dict(peak_rate=-0.1), "peak_rate"), (dict(peak_rate=1.5), "peak_rate"),
        (dict(noise_sd=np.nan), "noise_sd"), (dict(noise_sd=-0.05), "noise_sd"), (dict(noise_sd=np.inf), "noise_sd"),
        (dict(gain=np.nan), "gain"), (dict(gain=np.inf), "gain"),
        (dict(baseline=np.inf), "baseline"), (dict(baseline=np.nan), "baseline"),
    ], ids=["nan_rate", "negative_rate", "rate_above_one", "nan_noise", "negative_noise", "inf_noise",
            "nan_gain", "inf_gain", "inf_baseline", "nan_baseline"])
    def test_bad_rate_or_scale_rejected(self, kw, match):
        with pytest.raises(d.DataError, match=match):
            d.gen_synthetic(**{"seed": 0, "length": 100, **kw})

    @pytest.mark.parametrize("kw", [dict(length=100.5), dict(length=100.0), dict(lag=2.5), dict(lag=True),
                                    dict(m=2.5), dict(m=np.float64(2))],
                             ids=["fraction_length", "whole_float_length", "fraction_lag", "bool_lag",
                                  "fraction_m", "numpy_float_m"])
    def test_count_that_is_not_an_integer_rejected(self, kw):
        with pytest.raises(d.DataError, match="must be integers"):
            d.gen_synthetic(**{"seed": 0, "length": 100, **kw})

    def test_numpy_integer_counts_accepted(self):
        want = d.gen_synthetic(0, 100, m=3, lag=2).matrix()
        assert np.array_equal(d.gen_synthetic(0, np.int64(100), m=np.int32(3), lag=np.int64(2)).matrix(), want)

    def test_rate_bounds_accepted(self):
        assert not d.gen_synthetic(0, 50, peak_rate=0.0).auxiliaries[0].any()
        assert d.gen_synthetic(0, 50, peak_rate=1.0).auxiliaries[0].all()

    def test_csv_round_trip(self, tmp_path):
        # the digests are test_series_bits_pinned's: write, read and align
        # give back the generated matrix bit for bit
        for seed, length, digest in [(0, 200, None), (0, 105_120, "79028e99cf7f3c51"), (1, 105_120, "5369cbbfecfe63ae")]:
            s = d.gen_synthetic(seed, length)
            paths = []
            for name, row in zip(s.names, s.matrix()):
                paths.append(tmp_path / f"{name}.csv")
                d.write_csv(paths[-1], s.start, s.step, row)
            raws = [d.load_csv(p) for p in paths]
            assert np.array_equal(raws[0].values, s.target)
            assert raws[0].times_us[0] == us(s.start)[0]
            back = d.align(raws)
            assert back.matrix().tobytes() == s.matrix().tobytes()
            assert back.start == s.start and back.start.tzinfo is UTC and back.step == s.step
            if digest is not None:
                assert hashlib.sha256(back.matrix().tobytes()).hexdigest()[:16] == digest
