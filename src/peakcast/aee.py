"""LSTM autoencoder embedding.

An LSTM encoder folds the whole input window into latent states (h, c);
an LSTM decoder of the same width, seeded with those latents and driven
only by forecast time-stamp features, unrolls the horizon. Its
hidden-state sequence is the decoder-side embedding, and a per-step
linear head turns the same sequence into the short-term auxiliary
prediction. No target value, observed or predicted, ever enters the
decoder: prediction is direct, not recursive.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import AlignmentError, WindowError, _is_int

TIMESTAMP_FEATURE_WIDTH = 5
_EPOCH = datetime(1970, 1, 1)
_EPOCH_ORDINAL = _EPOCH.toordinal()
_US = timedelta(microseconds=1)
_US_PER_DAY = 86_400_000_000


def _time_of_day_table() -> np.ndarray:
    """Read-only (2, 86400) sine and cosine of every whole second of a day.

    Built with the same float64 operations, in the same order, as a
    per-step angle 2*pi * (second / 86400), so a lookup equals computing it.
    """
    table = np.arange(2 * 86400.0).reshape(2, 86400)
    table[1] -= 86400.0  # both rows 0, 1, ..., 86399, exactly; no temporary is made or freed
    table /= 86400.0
    table *= 2 * np.pi
    np.sin(table[0], out=table[0])
    np.cos(table[1], out=table[1])
    table.flags.writeable = False
    return table


_TIME_OF_DAY = _time_of_day_table()


def encode(windows: np.ndarray, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Run the encoder over all t columns of (B, m, t) windows; returns its
    final (h, c), each (B, hidden)."""
    zeros = ad.tensor(np.zeros((windows.shape[0], params["aee.enc.u"].shape[0])))
    _, h, c = ad.lstm_sequence(ad.tensor(np.swapaxes(windows, 1, 2)), zeros, zeros,
                               params["aee.enc.w"], params["aee.enc.u"], params["aee.enc.b"])
    return h, c


def timestamp_features(issue_index: int | np.ndarray, horizon: int, step: timedelta, start: datetime) -> np.ndarray:
    """(horizon, 5) decoder-input features for one forecast issuance.

    Row k describes forecast step k: normalized index k/h, then sine and
    cosine of the fractional time-of-day and day-of-year of the step's
    absolute timestamp (grid index issue_index + 1 + k, on the grid of
    ``step`` from ``start``), read on the start timestamp's wall clock and
    truncated to whole seconds.

    ``issue_index`` may also be an int array of B issue indices; the result
    is then (B, horizon, 5), equal bit for bit to stacking the B
    single-window calls, so a batch's features take one call.

    The timestamps are int64 wall-clock microseconds since 1970-01-01,
    floor-divided to whole seconds and then to a day number and the seconds
    of that day. Time-of-day sine and cosine are read by that second from a
    read-only (2, 86400) float64 table (1.38 MB, built once at import with
    the same float64 operations, in the same order, as a per-step angle, so
    a lookup is exact); only day-of-year runs ``np.sin``/``np.cos`` per
    call. Day-of-year subtracts the start of the call's first year and, from
    each later year start the call covers on, the length of the year before
    it, so no calendar conversion runs per step. Raises
    ``WindowError`` for a horizon that is not an integer >= 1 (a bool is not
    one) or an ``issue_index`` that is neither an int nor a non-empty 1-D
    int array, and ``AlignmentError`` for a step that is not positive.
    """
    if not _is_int(horizon) or horizon < 1:
        raise WindowError(f"horizon must be an integer >= 1, got {horizon!r}")
    if step <= timedelta(0):
        raise AlignmentError(f"grid step must be positive, got {step}")
    issue = np.asarray(issue_index)
    if issue.ndim > 1 or issue.size == 0 or issue.dtype.kind not in "iu":
        raise WindowError(f"issue_index must be an int or a non-empty 1-D int array, got {issue.dtype} {issue.shape}")
    step_us = step // _US
    first_us = (start.replace(tzinfo=None) - _EPOCH) // _US + step_us  # wall clock of grid index 1
    # a (horizon,) grid for one issue index, (B, horizon) for B of them
    us = np.arange(first_us, first_us + horizon * step_us, step_us) + issue.astype(np.int64)[..., None] * step_us
    day, sec = np.divmod(us // 1_000_000, 86400)
    # each row increases, so the smallest index's first step and the largest's last bound the call
    indices = issue.reshape(-1).tolist()
    ends = first_us + min(indices) * step_us, first_us + (max(indices) + horizon - 1) * step_us
    lo_year, hi_year = (date.fromordinal(_EPOCH_ORDINAL + e // _US_PER_DAY).year for e in ends)
    year_starts = [date(y, 1, 1).toordinal() - _EPOCH_ORDINAL for y in range(lo_year, hi_year + 1)]
    yday = day - year_starts[0]
    for prev, year_start in zip(year_starts, year_starts[1:]):  # from each later year on, less the year before
        yday -= (day >= year_start) * (year_start - prev)

    # filled feature-major, so each ufunc writes contiguous rows, then transposed once
    out = np.empty((TIMESTAMP_FEATURE_WIDTH,) + day.shape)
    np.divide(np.arange(horizon), horizon, out=out[0])
    # sec is in [0, 86400) by the divmod, so "clip" never moves an index; it only skips a buffered copy
    np.take(_TIME_OF_DAY, sec, axis=1, out=out[1:3], mode="clip")
    doy = np.divide(sec, 86400.0)  # fractional time-of-day, then the day-of-year angle
    np.add(yday, doy, out=doy)
    doy /= 366.0
    doy *= 2 * np.pi
    np.sin(doy, out=out[3])
    np.cos(doy, out=out[4])
    return out.reshape(TIMESTAMP_FEATURE_WIDTH, -1).T.copy().reshape(day.shape + (TIMESTAMP_FEATURE_WIDTH,))


def decode(latents: tuple[Tensor, Tensor], ts_features: np.ndarray, params: dict[str, Tensor]) -> Tensor:
    """Unroll the decoder from the encoder's (h, c) over (B, h, 5) time-stamp
    features; returns its hidden-state sequence, (B, h, hidden)."""
    seq, _, _ = ad.lstm_sequence(ad.tensor(ts_features), *latents,
                                 params["aee.dec.w"], params["aee.dec.u"], params["aee.dec.b"])
    return seq


def aux_head(embedding: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-step linear map hidden -> 1, squeezed to (B, h)."""
    out = ad.linear(embedding, weight, bias)
    return ad.reshape(out, out.shape[:-1])
