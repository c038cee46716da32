"""Series ingestion, alignment, windowing, scaling, and synthetic data.

All series live on a uniform 15-minute UTC grid after :func:`align`. An
:class:`AlignedSeries` stores its values once, as one read-only (m, L)
float64 matrix with the target in row 0 and the auxiliary series (rain
gauges and the like) in the remaining rows; ``matrix()`` returns it
without copying. Every window's input and target are views into that
matrix, so no window copies the series.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone

import numpy as np

STEP_15MIN = timedelta(minutes=15)


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
    name: str
    timestamps: list[datetime]
    values: np.ndarray


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
        """First grid index at or after ``ts``."""
        return max(0, math.ceil((ts - self.start) / self.step))


@dataclass
class WindowSample:
    """One training/eval instance: (m, t) inputs and an h-step target."""

    input: np.ndarray
    target: np.ndarray
    issue_index: int
    is_oversampled: bool = False

    @property
    def origin(self) -> int:
        return self.issue_index - self.input.shape[1] + 1


@dataclass
class DatasetStats:
    min: float
    max: float
    mean: float
    std_deviation: float
    skewness: float
    kurtosis: float


def _parse_timestamp(text: str, line: int) -> datetime:
    text = text.strip()
    try:
        ts = datetime.fromisoformat(text)
    except ValueError:
        raise ParseError(f"invalid timestamp {text!r}", line) from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def load_csv(path, column_map: dict[str, str] | None = None, name: str | None = None) -> RawSeries:
    """Read a (timestamp, value) CSV into a timestamp-sorted RawSeries.

    ``column_map`` maps the roles "timestamp" and "value" to actual column
    names when the file does not use the default header.
    """
    cmap = {"timestamp": "timestamp", "value": "value", **(column_map or {})}
    records: list[tuple[datetime, float]] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        columns = {col: i for i, col in enumerate(next(reader, []))}
        if not {cmap["timestamp"], cmap["value"]} <= columns.keys():
            raise ParseError(f"header must include {cmap['timestamp']!r} and {cmap['value']!r}", 1)
        ts_col, value_col = columns[cmap["timestamp"]], columns[cmap["value"]]
        for row in filter(None, reader):  # blank lines read as []
            line = reader.line_num
            try:
                stamp, raw = row[ts_col], row[value_col]
            except IndexError:
                missing = cmap["timestamp"] if len(row) <= ts_col else cmap["value"]
                raise ParseError(f"row has no {missing!r} field", line) from None
            ts = _parse_timestamp(stamp, line)
            try:
                value = float(raw)
            except ValueError:
                raise ParseError(f"invalid numeric value {raw!r}", line) from None
            if not math.isfinite(value):
                raise ParseError(f"non-finite value {raw!r}", line)
            records.append((ts, value))
    records.sort(key=lambda r: r[0])
    for (a, _), (b, _) in zip(records, records[1:]):
        if a == b:
            raise DataError(f"duplicate timestamp {a.isoformat()} in {path}")
    return RawSeries(
        name=name if name is not None else str(path),
        timestamps=[r[0] for r in records],
        values=np.array([r[1] for r in records], dtype=np.float64),
    )


def write_csv(path, start: datetime, step: timedelta, values: np.ndarray) -> None:
    """Write one series in the canonical ``timestamp,value`` format."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value"])
        for i, v in enumerate(values):
            writer.writerow([(start + i * step).isoformat(), repr(float(v))])


def _grid_fill(series: RawSeries, start: datetime, step: timedelta, n: int) -> np.ndarray:
    """Sample a raw series onto the grid: last observation at or before each
    grid point, zeros before the first observation (leading-gap policy)."""
    us = timedelta(microseconds=1)
    offsets = np.array([(ts - start) // us for ts in series.timestamps], dtype=np.int64)
    last = np.searchsorted(offsets, np.arange(n, dtype=np.int64) * (step // us), side="right") - 1
    return np.where(last >= 0, series.values[np.maximum(last, 0)], 0.0)


def align(
    series_list: list[RawSeries],
    step: timedelta = STEP_15MIN,
    start: datetime | None = None,
    end: datetime | None = None,
) -> AlignedSeries:
    """Put all series on one uniform grid; first series is the target.

    The grid spans the intersection of the series' time ranges unless an
    explicit ``start``/``end`` is given. Gaps are forward-filled; positions
    before a series' first observation become zero.
    """
    if not series_list:
        raise AlignmentError("no series to align")
    for s in series_list:
        if not s.timestamps:
            raise AlignmentError(f"series {s.name!r} has no observations")
    lo = start if start is not None else max(s.timestamps[0] for s in series_list)
    hi = end if end is not None else min(s.timestamps[-1] for s in series_list)
    if hi < lo:
        raise AlignmentError(f"series time ranges do not overlap ({lo.isoformat()} > {hi.isoformat()})")
    n = int((hi - lo) / step) + 1
    grids = [_grid_fill(s, lo, step, n) for s in series_list]
    return AlignedSeries(
        start=lo,
        step=step,
        target=grids[0],
        auxiliaries=grids[1:],
        names=[s.name for s in series_list],
    )


def make_windows(series: AlignedSeries, t: int, h: int, stride: int = 1) -> list[WindowSample]:
    """Slide (t history, h horizon) windows at the given origin stride.

    Window count is floor((L - t - h) / stride) + 1.
    """
    L = len(series)
    if L < t + h:
        raise WindowError(f"series length {L} < t + h = {t + h}")
    if stride < 1:
        raise WindowError(f"stride must be >= 1, got {stride}")
    mat = series.matrix()
    return [_window(mat, origin, t, h) for origin in range(0, L - t - h + 1, stride)]


def window_at_origin(series: AlignedSeries, origin: int, t: int, h: int, oversampled: bool = False) -> WindowSample:
    """Single window at an explicit origin (used by the oversampler)."""
    L = len(series)
    if not 0 <= origin <= L - t - h:
        raise WindowError(f"origin {origin} outside [0, {L - t - h}]")
    return _window(series.matrix(), origin, t, h, oversampled)


def _window(mat: np.ndarray, origin: int, t: int, h: int, oversampled: bool = False) -> WindowSample:
    """The window at ``origin``, as views into the series matrix."""
    return WindowSample(
        input=mat[:, origin:origin + t],
        target=mat[0, origin + t:origin + t + h],
        issue_index=origin + t - 1,
        is_oversampled=oversampled,
    )


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


TRANSFORM_MODES = ("log1p_standardize", "standardize", "none")


@dataclass
class Transform:
    """Invertible value transform fitted on training data only."""

    mode: str = "log1p_standardize"
    mean: float = 0.0
    std: float = 1.0

    @classmethod
    def fit(cls, train_values: np.ndarray, mode: str = "log1p_standardize") -> "Transform":
        """Fit on training values; an empty slice, or in log1p_standardize
        mode a value <= -1, raises DataError."""
        if mode not in TRANSFORM_MODES:
            raise ValueError(f"unknown transform mode {mode!r}; expected one of {TRANSFORM_MODES}")
        if mode == "none":
            return cls(mode=mode)
        x = cls(mode=mode).apply(train_values)  # mean 0 and std 1: only the log1p step, if any
        if x.size == 0:
            raise DataError(f"cannot fit a {mode} transform on no values")
        std = float(x.std())
        return cls(mode=mode, mean=float(x.mean()), std=std if std > 0 else 1.0)

    def apply(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=np.float64)
        if self.mode == "none":
            return v.copy()
        if self.mode == "log1p_standardize":
            if (v <= -1.0).any():
                raise DataError(f"log1p transform needs values > -1, got minimum {v.min()}")
            v = np.log1p(v)
        return (v - self.mean) / self.std

    def invert(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=np.float64)
        if self.mode == "none":
            return v.copy()
        v = v * self.std + self.mean
        if self.mode == "log1p_standardize":
            v = np.expm1(v)
        return v


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
    """Fit one transform per row on values strictly before ``train_end_index``."""
    rows = [series.target, *series.auxiliaries]
    return [Transform.fit(row[:train_end_index], mode) for row in rows]


def compute_stats(values: np.ndarray) -> DatasetStats:
    """Sample moment statistics: skewness m3/m2^1.5, kurtosis m4/m2^2.

    Kurtosis is the plain (non-excess) standardized fourth moment; the
    normal distribution scores 3.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size < 4:
        raise StatsError(f"need at least 4 values, got {x.size}")
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
    """
    if m < 2:
        raise DataError("need at least one auxiliary series (m >= 2)")
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
        target[lag:] += response[:length - lag]
    target += rng.normal(0.0, noise_sd, size=length)
    np.maximum(target, 0.0, out=target)
    names = ["flow"] + [f"rain{i + 1}" for i in range(m - 1)]
    return AlignedSeries(start=start, step=step, target=target, auxiliaries=auxiliaries, names=names)
