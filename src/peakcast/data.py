"""Series ingestion, alignment, windowing, scaling, and synthetic data.

All series live on a uniform 15-minute UTC grid after :func:`align`, which
spans the intersection of their time ranges and forward-fills gaps. An
:class:`AlignedSeries` stores its values once, as one read-only (m, L)
float64 matrix with the target in row 0 and the auxiliary series (rain
gauges and the like) in the remaining rows; ``matrix()`` returns it
without copying. Every window's input and target are views into that
matrix, so no window copies the series; :func:`make_windows` slices all
of them from one sliding-window view of it, with the matrix's own
strides. A :class:`RawSeries` holds its times as int64 microseconds since
1970-01-01 UTC, and :func:`align` works on those integers. CSV files have a
``timestamp,value`` header and are read and written as UTF-8;
:func:`load_csv` reads their rows in one C pass (``np.loadtxt``) and decodes
the stamps :func:`write_csv` writes as arrays. Each series is
scaled by one fitted :class:`Transform`, log1p then standardize.
"""

from __future__ import annotations

import csv
import itertools
import math
import warnings
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone

import numpy as np

STEP_15MIN = timedelta(minutes=15)
_US = timedelta(microseconds=1)
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
# the UTC range a datetime can hold, in microseconds since the epoch
_MIN_US = (datetime.min.replace(tzinfo=timezone.utc) - _EPOCH) // _US
_MAX_US = (datetime.max.replace(tzinfo=timezone.utc) - _EPOCH) // _US


class ParseError(ValueError):
    """Malformed CSV row; carries the 1-based line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class DataError(ValueError):
    """Inconsistent input data (duplicate timestamps and similar)."""


class AlignmentError(ValueError):
    """Series time ranges do not overlap."""


class WindowError(ValueError):
    """Series too short for the requested window geometry."""


class StatsError(ValueError):
    """Moment statistics undefined (constant series)."""


@dataclass
class RawSeries:
    """One series as read: ``times_us`` is an int64 array of microseconds
    since 1970-01-01 UTC, one per value in ``values``."""

    name: str
    times_us: np.ndarray
    values: np.ndarray


def _to_us(ts: datetime) -> int:
    """Microseconds since 1970-01-01 UTC; a naive datetime is read as UTC."""
    return ((ts if ts.tzinfo is not None else ts.replace(tzinfo=timezone.utc)) - _EPOCH) // _US


def _from_us(us: int) -> datetime:
    """The UTC datetime ``us`` microseconds after 1970-01-01 UTC."""
    return _EPOCH + timedelta(microseconds=int(us))


@dataclass
class AlignedSeries:
    """Target plus auxiliaries on one uniform grid, no missing values.

    The constructor copies the rows into one read-only (m, L) float64
    matrix, target in row 0; ``target`` and ``auxiliaries`` become row
    views of it, and ``matrix()`` returns it without copying.
    """

    start: datetime
    step: timedelta
    target: np.ndarray
    auxiliaries: list[np.ndarray]
    names: list[str]
    _matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.target)
        for aux in self.auxiliaries:
            if len(aux) != n:
                raise DataError(f"auxiliary length {len(aux)} != target length {n}")
        if len(self.names) != 1 + len(self.auxiliaries):
            raise DataError("names must cover target and every auxiliary")
        self._matrix = np.vstack([self.target, *self.auxiliaries], dtype=np.float64)
        self._matrix.flags.writeable = False
        self.target, *self.auxiliaries = self._matrix

    def __len__(self) -> int:
        return len(self.target)

    @property
    def m(self) -> int:
        return 1 + len(self.auxiliaries)

    def matrix(self) -> np.ndarray:
        """The read-only (m, L) value matrix, target in row 0; not a copy."""
        return self._matrix

    def timestamp_at(self, i: int) -> datetime:
        return self.start + i * self.step

    def index_at(self, ts: datetime) -> int:
        """First grid index at or after ``ts``; a naive ``ts`` or ``start``
        is read as UTC, as :func:`load_csv` reads a naive stamp."""
        return max(0, -((_to_us(self.start) - _to_us(ts)) // (self.step // _US)))


@dataclass(slots=True)
class WindowSample:
    """One training/eval instance: (m, t) inputs and an h-step target."""

    input: np.ndarray
    target: np.ndarray
    issue_index: int
    is_oversampled: bool = False


@dataclass
class DatasetStats:
    min: float
    max: float
    mean: float
    std_deviation: float
    skewness: float
    kurtosis: float


# the 25-byte stamp write_csv writes, YYYY-MM-DDTHH:MM:SS+HH:MM: each
# byte's lowest value and how far above it may lie (the sign, at 19, is
# checked on its own)
_LOW = np.frombuffer(b"0000-00-00T00:00:00\x0000:00", dtype=np.uint8)
_SIGN = 19
_SPAN = np.where(_LOW == ord("0"), 9, 0).astype(np.uint8)
_SPAN[_SIGN] = 255
# loadtxt cuts a longer field to this width; the bytes after a stamp in
# write_csv's layout must all be NUL, so a cut field is never decoded
_STAMP_BYTES = 48
_ROW = np.dtype([("stamp", f"S{_STAMP_BYTES}"), ("value", np.float64)])


def _stamp_us(text: str) -> int:
    """Microseconds since 1970-01-01 UTC of one ISO 8601 stamp; a naive
    stamp is UTC. ``datetime.fromisoformat`` reads it without surrounding
    whitespace and without trailing NULs, which the one-pass read's bytes
    column cannot hold. Raises ValueError for a stamp it rejects or one
    outside datetime's range once in UTC."""
    us = _to_us(datetime.fromisoformat(text.rstrip("\0").strip()))
    if not _MIN_US <= us <= _MAX_US:
        raise ValueError(f"{text!r} is out of range in UTC")
    return us


def _parse_value(raw: str, line: int) -> float:
    """One finite value in numpy's float syntax, which is float()'s without
    digit separators or non-ASCII digits."""
    try:
        if not raw.isascii() or "_" in raw:
            raise ValueError
        value = float(raw.strip())
    except ValueError:
        raise ParseError(f"invalid numeric value {raw!r}", line) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite value {raw!r}", line)
    return value


def _decode_stamps(rows: np.ndarray) -> np.ndarray | None:
    """int64 microseconds since 1970-01-01 UTC of each stamp, or None
    unless every stamp is a valid instant in :func:`write_csv`'s layout.
    ``rows`` is a (N, _ROW.itemsize) uint8 view of N rows, each starting
    with its NUL-padded stamp. numpy's datetime64 parser reads the local
    date and time; only the layout and the offset are checked here."""
    sign = rows[:, _SIGN]
    # a byte below its lowest value wraps, so it too reads above its span
    if (((rows[:, :len(_LOW)] - _LOW) > _SPAN).any() or rows[:, len(_LOW):_STAMP_BYTES].any()
            or not ((sign == ord("+")) | (sign == ord("-"))).all()):
        return None
    try:
        local = np.ascontiguousarray(rows[:, :_SIGN]).view(f"S{_SIGN}")[:, 0].astype("datetime64[us]").view(np.int64)
    except ValueError:  # a field out of range, such as 31 April or hour 24
        return None
    oh, om = (((rows[:, i] - ord("0")) * np.uint8(10) + (rows[:, i + 1] - ord("0"))).astype(np.int64)
              for i in (_SIGN + 1, _SIGN + 4))
    offset_s = (oh * 3600 + om * 60) * np.where(sign == ord("-"), -1, 1)
    us = local - offset_s * 1_000_000
    # fromisoformat rejects year 0, which datetime64 reads
    if not ((oh <= 23) & (om <= 59) & (local >= _MIN_US) & (us >= _MIN_US) & (us <= _MAX_US)).all():
        return None
    return us


def _read_one_pass(fh, ts_col: int, value_col: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The rest of ``fh`` read by one ``np.loadtxt`` pass: int64
    microseconds and float64 values in file order. None when a row is bad,
    a value is not finite, or a stamp is not a valid instant in
    :func:`write_csv`'s layout; the file must then be read row by row."""
    try:
        with warnings.catch_warnings():  # a header-only file reads as no rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            rows = np.loadtxt(fh, dtype=_ROW, delimiter=",", quotechar='"', comments=None,
                              usecols=(ts_col, value_col), ndmin=1)
    except ValueError:
        return None
    if not np.isfinite(rows["value"]).all():
        return None
    us = _decode_stamps(rows.view(np.uint8).reshape(len(rows), _ROW.itemsize))
    return None if us is None else (us, rows["value"])


def _read_rows(path, ts_col: int, value_col: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows after the header, read row by row with ``csv``: int64
    microseconds and float64 values in file order. Raises ParseError at
    the first bad row's line."""
    times, values = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in filter(None, reader):  # blank lines read as []
            line = reader.line_num
            try:
                stamp, raw = row[ts_col], row[value_col]
            except IndexError:
                missing = "timestamp" if len(row) <= ts_col else "value"
                raise ParseError(f"row has no {missing!r} field", line) from None
            try:
                times.append(_stamp_us(stamp))
            except ValueError:
                raise ParseError(f"invalid timestamp {stamp.strip()!r}", line) from None
            values.append(_parse_value(raw, line))
    return np.array(times, dtype=np.int64), np.array(values, dtype=np.float64)


def load_csv(path, name: str | None = None) -> RawSeries:
    """Read a UTF-8 CSV into a time-sorted RawSeries.

    The header must name a ``timestamp`` and a ``value`` column once each,
    in any order and among any others, as :func:`write_csv` writes it. A
    leading byte-order mark is dropped, whatever the locale. Each stamp is
    an ISO 8601 date and time that ``datetime.fromisoformat`` reads once
    trailing NULs are dropped; a stamp without an offset is UTC. Each value
    is finite, in numpy's float syntax (``float()``'s without digit
    separators such as ``1_0``). Blank lines are skipped. A bad row raises
    ParseError with its line, and a repeated instant raises DataError.

    The rows are read in one ``np.loadtxt`` pass, and stamps in
    :func:`write_csv`'s ``YYYY-MM-DDTHH:MM:SS+HH:MM`` layout are decoded as
    arrays. A file with a bad row or any stamp in another layout is read a
    second time, row by row with ``csv`` and ``fromisoformat``, which names
    a bad row's line.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh), [])
        if header.count("timestamp") != 1 or header.count("value") != 1:
            raise ParseError("header must include 'timestamp' and 'value' once each", 1)
        cols = header.index("timestamp"), header.index("value")
        read = _read_one_pass(fh, *cols)
    times_us, values = read if read is not None else _read_rows(path, *cols)
    order = np.argsort(times_us, kind="stable")
    times_us, values = times_us[order], values[order]
    dup = np.flatnonzero(times_us[1:] == times_us[:-1])
    if dup.size:
        raise DataError(f"duplicate timestamp {_from_us(times_us[dup[0]]).isoformat()} in {path}")
    return RawSeries(name=name if name is not None else str(path), times_us=times_us, values=values)


# rows write_csv formats at a time: every temporary stays under glibc's
# default 128 KiB mmap threshold, since freeing a larger mmapped block raises
# the threshold and changes how the process allocates afterwards
_CSV_BLOCK_ROWS = 1024


def write_csv(path, start: datetime, step: timedelta, values: np.ndarray) -> None:
    """Write one series in the canonical ``timestamp,value`` format: row i
    holds ``(start + i * step).isoformat()`` and ``repr(float(values[i]))``,
    and every line ends in ``\\r\\n``, the bytes ``csv.writer`` writes.

    Rows are formatted a block at a time: numpy formats the block's
    wall-clock times at once, and the offset is ``start``'s own when its
    ``tzinfo`` is None or a fixed ``timezone``, else each row's from
    ``isoformat``. A last stamp outside ``datetime``'s range raises
    OverflowError before the file is opened."""
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n:
        start + (n - 1) * step  # raises OverflowError past datetime's range, as that row's stamp would
    first, step_us = np.datetime64(start.replace(tzinfo=None), "us"), np.timedelta64(step // _US, "us")
    fixed = start.tzinfo is None or isinstance(start.tzinfo, timezone)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("timestamp,value\r\n")
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            rows = range(lo, min(lo + _CSV_BLOCK_ROWS, n))
            wall = first + np.arange(rows.start, rows.stop) * step_us
            stamps = np.datetime_as_string(wall, unit="s")
            fraction = wall.view(np.int64) % 1_000_000 != 0  # isoformat writes the microseconds unless they are 0
            if fraction.any():
                stamps = np.where(fraction, np.datetime_as_string(wall, unit="us"), stamps)
            if fixed:
                offsets = itertools.repeat(_offset_suffix(start))
            else:  # an offset that may change along the series, such as a zoneinfo zone's
                offsets = (_offset_suffix(start + i * step) for i in rows)
            fh.write("".join(f"{stamp}{offset},{value!r}\r\n" for stamp, offset, value in
                             zip(stamps.tolist(), offsets, values[rows.start:rows.stop].tolist())))


def _offset_suffix(ts: datetime) -> str:
    """The part of ``ts.isoformat()`` after its wall-clock time."""
    return ts.isoformat()[len(ts.replace(tzinfo=None).isoformat()):]


def _check_series(series: RawSeries) -> None:
    """Raise DataError unless the times strictly increase and each has one value."""
    times = series.times_us
    if len(series.values) != len(times):
        raise DataError(f"series {series.name!r} has {len(series.values)} values for {len(times)} timestamps")
    bad = np.flatnonzero(np.diff(times) <= 0)
    if bad.size:
        i = int(bad[0]) + 1
        raise DataError(f"series {series.name!r} timestamps must strictly increase: "
                        f"{_from_us(times[i]).isoformat()} follows {_from_us(times[i - 1]).isoformat()}")


def _grid_fill(series: RawSeries, start_us: int, step_us: int, n: int) -> np.ndarray:
    """Sample a raw series onto the grid of ``n`` points from ``start_us``,
    ``step_us`` apart: the last observation at or before each grid point.
    ``start_us`` is at or after the first observation."""
    grid = start_us + np.arange(n, dtype=np.int64) * step_us
    return series.values[np.searchsorted(series.times_us, grid, side="right") - 1]


def align(series_list: list[RawSeries], step: timedelta = STEP_15MIN) -> AlignedSeries:
    """Put all series on one uniform grid; first series is the target.

    The grid starts at the latest first observation and ends at or before
    the earliest last one, so every series has an observation at or before
    each grid point; gaps are forward-filled. ``start`` is a UTC datetime.
    A series whose times do not strictly increase, or whose value count
    differs from its time count, raises DataError; ranges that do not
    overlap raise AlignmentError.
    """
    if not series_list:
        raise AlignmentError("no series to align")
    if step <= timedelta(0):
        raise AlignmentError(f"grid step must be positive, got {step}")
    for s in series_list:
        if not len(s.times_us):
            raise AlignmentError(f"series {s.name!r} has no observations")
        _check_series(s)
    lo = max(int(s.times_us[0]) for s in series_list)
    hi = min(int(s.times_us[-1]) for s in series_list)
    if hi < lo:
        raise AlignmentError(f"series time ranges do not overlap ({_from_us(lo).isoformat()} > {_from_us(hi).isoformat()})")
    step_us = step // _US
    n = (hi - lo) // step_us + 1
    grids = [_grid_fill(s, lo, step_us, n) for s in series_list]
    return AlignedSeries(
        start=_from_us(lo),
        step=step,
        target=grids[0],
        auxiliaries=grids[1:],
        names=[s.name for s in series_list],
    )


def make_windows(series: AlignedSeries, t: int, h: int, stride: int = 1) -> list[WindowSample]:
    """Slide (t history, h horizon) windows at the given origin stride.

    Window count is floor((L - t - h) / stride) + 1. A t, h or stride that
    is not an integer raises WindowError.
    """
    _check_geometry(t, h)
    if not _is_int(stride) or stride < 1:
        raise WindowError(f"stride must be an integer >= 1, got {stride!r}")
    L = len(series)
    if L < t + h:
        raise WindowError(f"series length {L} < t + h = {t + h}")
    # one (m, L - t - h + 1, t + h) view holds every window; each window's
    # input and target are slices of it with the matrix's own strides
    spans = np.lib.stride_tricks.sliding_window_view(series.matrix(), t + h, axis=1)[:, ::stride]
    inputs = np.moveaxis(spans[:, :, :t], 1, 0)
    targets = spans[0, :, t:]
    return list(map(WindowSample, inputs, targets, range(t - 1, L - h, stride)))


def window_at_origin(series: AlignedSeries, origin: int, t: int, h: int, oversampled: bool = False) -> WindowSample:
    """Single window at an explicit origin (used by the oversampler). An
    origin, t or h that is not an integer raises WindowError."""
    _check_geometry(t, h)
    L = len(series)
    if not _is_int(origin) or not 0 <= origin <= L - t - h:
        raise WindowError(f"origin {origin!r} is not an integer in [0, {L - t - h}]")
    mat = series.matrix()
    return WindowSample(mat[:, origin:origin + t], mat[0, origin + t:origin + t + h], origin + t - 1, oversampled)


def _is_int(value) -> bool:
    """A Python or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_geometry(t: int, h: int) -> None:
    if not (_is_int(t) and _is_int(h)):
        raise WindowError(f"history t and horizon h must be integers, got t={t!r}, h={h!r}")
    if t < 1 or h < 1:
        raise WindowError(f"history t and horizon h must be >= 1, got t={t}, h={h}")


def chrono_split(
    windows: list[WindowSample],
    series: AlignedSeries,
    test_cutoff: datetime,
    val_fraction: float = 0.1,
) -> tuple[list[WindowSample], list[WindowSample], list[WindowSample]]:
    """Chronological train/validation/test split with no target leakage.

    A window belongs to the latest partition whose era it touches: windows
    whose last target timestamp reaches the test cutoff go to test, windows
    reaching the validation era (the final ``val_fraction`` of the pre-test
    range) go to validation, the rest to train. Every window lands in
    exactly one partition.
    """
    if not 0.0 <= val_fraction < 1.0:
        raise DataError(f"val_fraction must be in [0, 1), got {val_fraction}")
    test_idx = series.index_at(test_cutoff)
    val_idx = test_idx - int(math.floor(val_fraction * test_idx))
    train, val, test = [], [], []
    for w in windows:
        last_touched = w.issue_index + len(w.target)
        if last_touched >= test_idx:
            test.append(w)
        elif last_touched >= val_idx:
            val.append(w)
        else:
            train.append(w)
    return train, val, test


def filter_by_months(windows: list[WindowSample], series: AlignedSeries, months: set[int]) -> list[WindowSample]:
    """Keep windows whose forecast issue timestamp falls in ``months``."""
    return [w for w in windows if series.timestamp_at(w.issue_index).month in months]


@dataclass
class Transform:
    """Invertible log1p-then-standardize value transform, fitted on
    training data only: apply gives (log1p(v) - mean) / std."""

    mean: float = 0.0
    std: float = 1.0

    @classmethod
    def fit(cls, train_values: np.ndarray) -> "Transform":
        """Fit on training values; an empty slice, a NaN or infinite value,
        or a value <= -1 raises DataError."""
        x = _log1p(train_values)
        if x.size == 0:
            raise DataError("cannot fit a transform on no values")
        if not np.isfinite(x).all():
            raise DataError("cannot fit a transform on NaN or infinite values")
        std = float(x.std())
        return cls(mean=float(x.mean()), std=std if std > 0 else 1.0)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return (_log1p(values) - self.mean) / self.std

    def invert(self, values: np.ndarray) -> np.ndarray:
        return np.expm1(np.asarray(values, dtype=np.float64) * self.std + self.mean)


def _log1p(values: np.ndarray) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if (v <= -1.0).any():
        raise DataError(f"log1p transform needs values > -1, got minimum {v.min()}")
    return np.log1p(v)


def transform_series(series: AlignedSeries, transforms: list[Transform]) -> AlignedSeries:
    """Apply one fitted transform per series row (target first)."""
    if len(transforms) != series.m:
        raise DataError(f"need {series.m} transforms, got {len(transforms)}")
    return replace(
        series,
        target=transforms[0].apply(series.target),
        auxiliaries=[tr.apply(a) for tr, a in zip(transforms[1:], series.auxiliaries)],
    )


def fit_transforms(series: AlignedSeries, train_end_index: int, mode: str) -> list[Transform]:
    """Fit one transform per row on values strictly before ``train_end_index``.

    ``mode`` names the one transform there is, "log1p_standardize"; any
    other value raises ValueError.
    """
    if mode != "log1p_standardize":
        raise ValueError(f"unknown transform mode {mode!r}; the one transform is 'log1p_standardize'")
    return [Transform.fit(row[:train_end_index]) for row in [series.target, *series.auxiliaries]]


def compute_stats(values: np.ndarray) -> DatasetStats:
    """Sample moment statistics: skewness m3/m2^1.5, kurtosis m4/m2^2.

    Kurtosis is the plain (non-excess) standardized fourth moment; the
    normal distribution scores 3. A NaN or infinite value raises StatsError.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size < 4:
        raise StatsError(f"need at least 4 values, got {x.size}")
    if not np.isfinite(x).all():
        raise StatsError("moments undefined for NaN or infinite values")
    mu = x.mean()
    d = x - mu
    m2 = float((d * d).mean())
    if m2 == 0.0:
        raise StatsError("skewness/kurtosis undefined for a constant series")
    m3 = float((d ** 3).mean())
    m4 = float((d ** 4).mean())
    return DatasetStats(
        min=float(x.min()),
        max=float(x.max()),
        mean=float(mu),
        std_deviation=math.sqrt(m2),
        skewness=m3 / m2 ** 1.5,
        kurtosis=m4 / m2 ** 2,
    )


DEFAULT_SYNTH_START = datetime(2000, 1, 1, tzinfo=timezone.utc)


def gen_synthetic(
    seed: int,
    length: int,
    m: int = 2,
    peak_rate: float = 0.003,
    decay: float = 0.05,
    baseline: float = 5.0,
    gain: float = 12.0,
    lag: int = 4,
    noise_sd: float = 0.05,
    start: datetime = DEFAULT_SYNTH_START,
    step: timedelta = STEP_15MIN,
) -> AlignedSeries:
    """Skewed flow-like series driven by sparse heavy-tailed rain impulses.

    Each auxiliary is an independent impulse train (Bernoulli arrivals at
    ``peak_rate`` per step, lognormal magnitudes). The target is a constant
    baseline plus each impulse's lagged exponential-decay response plus
    small Gaussian noise, clipped at zero. Default parameters give target
    skewness well above 5 once length reaches a few tens of thousands.
    A series no longer than ``lag`` is the baseline plus noise. A length,
    lag or m that is not an integer, a length below 1, a negative lag, a
    decay that is not finite and positive, a peak rate outside [0, 1], a
    noise_sd that is not finite and >= 0, or a baseline or gain that is
    not finite raises DataError.
    """
    if not (_is_int(length) and _is_int(lag) and _is_int(m)):
        raise DataError(f"length, lag and m must be integers, got {length!r}, {lag!r} and {m!r}")
    if m < 2:
        raise DataError("need at least one auxiliary series (m >= 2)")
    if length < 1 or lag < 0:
        raise DataError(f"need length >= 1 and lag >= 0, got length {length}, lag {lag}")
    if not (math.isfinite(decay) and decay > 0):
        raise DataError(f"decay must be finite and > 0, got {decay}")
    if not 0.0 <= peak_rate <= 1.0:  # False for NaN
        raise DataError(f"peak_rate must be in [0, 1], got {peak_rate}")
    if not (math.isfinite(noise_sd) and noise_sd >= 0):
        raise DataError(f"noise_sd must be finite and >= 0, got {noise_sd}")
    if not (math.isfinite(baseline) and math.isfinite(gain)):
        raise DataError(f"baseline and gain must be finite, got {baseline} and {gain}")
    rng = np.random.default_rng(seed)
    kernel_len = max(1, int(math.ceil(6.0 / decay)))
    kernel = np.exp(-decay * np.arange(kernel_len))
    target = np.full(length, baseline, dtype=np.float64)
    auxiliaries = []
    for _ in range(m - 1):
        hits = rng.random(length) < peak_rate
        rain = np.zeros(length)
        rain[hits] = rng.lognormal(mean=1.0, sigma=1.0, size=int(hits.sum()))
        auxiliaries.append(rain)
        response = np.convolve(rain, kernel)[:length] * gain
        target[lag:] += response[:max(length - lag, 0)]
    target += rng.normal(0.0, noise_sd, size=length)
    np.maximum(target, 0.0, out=target)
    names = ["flow"] + [f"rain{i + 1}" for i in range(m - 1)]
    return AlignedSeries(start=start, step=step, target=target, auxiliaries=auxiliaries, names=names)
