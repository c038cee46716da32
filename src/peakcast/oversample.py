"""Clustering-based oversampling of extreme events.

A 1-D Gaussian mixture fitted to the target values identifies the
extreme-value cluster (the one with the highest mean, z). Points above
eta * z are marked, thinned to one peak per event, and each peak is
expanded into extra window origins so the event lands inside the forecast
horizon. The extra volume is capped at os% of the final training set.

Both run as whole-array operations: thinning takes one ``argmax`` per
candidate over a ``sliding_window_view`` of the -inf-padded series, and
expansion broadcasts peaks against issue offsets, merged by ``np.unique``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .data import WindowSample, _is_int


class GmmFitError(ValueError):
    """Mixture fit is impossible for the given data/M."""


class PolicyError(ValueError):
    """Oversampling policy parameters out of range or not integers."""


EM_MAX_ITER = 200
EM_TOL = 1e-6  # stop once an iteration raises the log-likelihood by less
EM_TIE_SEED = 0  # seeds the jitter that separates duplicate initial means


def _is_real(value) -> bool:
    """A real number (Python, numpy or fractions), and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass
class GmmParams:
    """Fitted 1-D Gaussian mixture, component k ~ N(means[k], variances[k]).

    ``ll_history`` holds the log-likelihood at the start of each EM
    iteration; its last entry is that of the fit's final E-step."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    ll_history: np.ndarray


@dataclass
class OversamplePolicy:
    """Peak expansion policy: threshold eta, grid step s_step, scope nu, cap os_pct."""

    eta: float = 1.2
    s_step: int = 1
    nu: int = 8
    os_pct: float = 20.0
    n_components: int = 3

    def __post_init__(self) -> None:
        for name in ("s_step", "nu", "n_components"):
            if not _is_int(getattr(self, name)):
                raise PolicyError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("eta", "os_pct"):
            if not _is_real(getattr(self, name)):
                raise PolicyError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise PolicyError(f"eta must be finite and > 0, got {self.eta}")
        if self.s_step < 1:
            raise PolicyError(f"s_step must be >= 1, got {self.s_step}")
        if self.nu < self.s_step:
            raise PolicyError(f"nu ({self.nu}) must be >= s_step ({self.s_step})")
        if not 0 < self.os_pct <= 100:
            raise PolicyError(f"os_pct must be in (0, 100], got {self.os_pct}")
        if self.n_components < 1:
            raise PolicyError("n_components must be >= 1")


def fit_gmm(values: np.ndarray, n_components: int) -> GmmParams:
    """EM fit of a 1-D Gaussian mixture of ``n_components`` components.

    Initialization is deterministic: means at the (k + 0.5)/M quantiles,
    uniform weights, pooled variance. When the quantiles give duplicate
    means (heavily discrete data), a small jitter drawn from the fixed
    seed ``EM_TIE_SEED`` separates them. Variances are floored at
    1e-6 * var(data) so no component can collapse onto a single point.
    EM runs until an iteration raises the log-likelihood by less than
    ``EM_TOL``, for at most ``EM_MAX_ITER`` iterations.

    The per-iteration log-likelihood trace is kept in ``ll_history``; EM
    guarantees it is non-decreasing. Each iteration runs in place on two
    component-major (M, n) buffers allocated once, row by contiguous row.
    A component count that is not an integer >= 1 raises GmmFitError.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    if not _is_int(n_components):
        raise GmmFitError(f"n_components must be an integer, got {n_components!r}")
    M = int(n_components)
    if M < 1:
        raise GmmFitError("n_components must be >= 1")
    if x.size < M:
        raise GmmFitError(f"need at least {M} values, got {x.size}")
    if not np.isfinite(x).all():
        raise GmmFitError("values must be finite")
    distinct = len(np.unique(x))
    if M > distinct:
        raise GmmFitError(f"n_components {M} exceeds distinct value count {distinct}")
    pooled_var = float(x.var())
    if pooled_var == 0.0:
        raise GmmFitError("variance undefined for constant data")
    var_floor = 1e-6 * pooled_var

    means = np.quantile(x, (np.arange(M) + 0.5) / M)
    if len(np.unique(means)) < M:
        jitter = np.random.default_rng(EM_TIE_SEED).normal(0.0, math.sqrt(pooled_var) * 1e-3, size=M)
        means = means + jitter
    weights = np.full(M, 1.0 / M)
    variances = np.full(M, pooled_var)

    ll_history = []
    logp = np.empty((M, x.size))  # log w_k N(x | mu_k, var_k), then responsibilities
    work = np.empty((M, x.size))  # exp(logp - max), then (x - mu_new)^2
    lse, total = np.empty(x.size), np.empty(x.size)
    for _ in range(EM_MAX_ITER):
        np.square(np.subtract(x, means[:, None], out=logp), out=logp)
        logp *= (-0.5 / variances)[:, None]
        logp += (np.log(weights) - 0.5 * np.log(2.0 * np.pi * variances))[:, None]
        np.max(logp, axis=0, out=lse)
        np.exp(np.subtract(logp, lse, out=work), out=work)
        resp = np.divide(work, np.sum(work, axis=0, out=total), out=logp)
        lse += np.log(total, out=total)
        ll_history.append(float(lse.sum()))

        nk = np.maximum(resp.sum(axis=1), 1e-12)
        weights = nk / nk.sum()
        means = (resp @ x) / nk
        np.square(np.subtract(x, means[:, None], out=work), out=work)
        variances = np.maximum(np.einsum("kn,kn->k", resp, work) / nk, var_floor)

        if len(ll_history) > 1 and ll_history[-1] - ll_history[-2] < EM_TOL:
            break

    return GmmParams(weights=weights, means=means, variances=variances, ll_history=np.array(ll_history))


def highest_mean(g: GmmParams) -> float:
    """Mean of the extreme-value cluster."""
    return float(np.max(g.means))


def mark_important(values: np.ndarray, eta: float, z: float, nu: int = 8) -> np.ndarray:
    """Indices of peak points: above eta * z and locally maximal.

    Super-threshold indices inside one extreme event form contiguous runs;
    thinning keeps the index that is the leftmost maximum within its
    nu-wide neighborhood, so each event contributes one peak. A NaN or
    infinite threshold eta * z, or a nu that is not an integer >= 0,
    raises PolicyError.
    """
    if not _is_int(nu):
        raise PolicyError(f"nu must be an integer, got {nu!r}")
    if nu < 0:
        raise PolicyError(f"nu must be >= 0, got {nu}")
    threshold = eta * z
    if not math.isfinite(threshold):
        raise PolicyError(f"threshold eta * z must be finite, got {eta} * {z}")
    x = np.asarray(values, dtype=np.float64)
    candidates = np.flatnonzero(x > threshold)
    if candidates.size == 0:
        return candidates
    half = nu // 2  # the -inf padding never wins argmax, so spans at the edges act truncated
    spans = np.lib.stride_tricks.sliding_window_view(np.pad(x, half, constant_values=-np.inf), 2 * half + 1)
    return candidates[np.argmax(spans[candidates], axis=1) == half]


def expand_peaks(
    peaks: np.ndarray,
    s_step: int,
    nu: int,
    series_len: int,
    t: int,
    h: int,
) -> np.ndarray:
    """Extra window origins whose issue points bracket each peak.

    Per peak p the issue points are p - nu/2, p - nu/2 + s, ... for
    floor(nu / s_step) samples; origins falling outside [0, L - t - h] are
    dropped and duplicates across peaks are merged. Peak indices of a
    non-integer dtype, or an s_step, nu, series_len, t or h that is not an
    integer, raise PolicyError.
    """
    if not (_is_int(s_step) and _is_int(nu)):
        raise PolicyError(f"s_step and nu must be integers, got {s_step!r} and {nu!r}")
    if not (_is_int(series_len) and _is_int(t) and _is_int(h)):
        raise PolicyError(f"series_len, t and h must be integers, got {series_len!r}, {t!r} and {h!r}")
    if s_step < 1:
        raise PolicyError(f"s_step must be >= 1, got {s_step}")
    if nu < s_step:
        raise PolicyError(f"nu ({nu}) must be >= s_step ({s_step})")
    peaks = np.asarray(peaks)
    if peaks.size and peaks.dtype.kind not in "iu":
        raise PolicyError(f"peak indices must be integers, got dtype {peaks.dtype}")
    issues = peaks.astype(np.intp, copy=False)[:, None] - nu // 2 + s_step * np.arange(nu // s_step)
    origins = issues.ravel() - (t - 1)
    return np.unique(origins[(origins >= 0) & (origins <= series_len - t - h)])


def cap_kept_count(n_base: int, n_extra: int, os_pct: float) -> int:
    """Largest kept count with kept <= os_pct% of the final set size.

    Solves kept = floor(r * n_base / (1 - r)) for r = os_pct / 100 in exact
    rational arithmetic on the value of ``os_pct``, so a kept count that
    meets the cap exactly is kept; keeping everything when the cap is not
    binding. An os_pct that is not a real number raises PolicyError.
    """
    if not _is_real(os_pct):
        raise PolicyError(f"os_pct must be a real number, got {os_pct!r}")
    if not 0 < os_pct <= 100:
        raise PolicyError(f"os_pct must be in (0, 100], got {os_pct}")
    pct = Fraction(os_pct)
    if pct == 100:
        return n_extra
    return min(n_extra, pct * n_base // (100 - pct))


def cap_oversample(
    base_windows: list[WindowSample],
    extra_windows: list[WindowSample],
    os_pct: float,
    seed: int,
) -> list[WindowSample]:
    """Base set plus extras, truncated so extras stay within the os% cap.

    When truncation is needed the kept extras are chosen uniformly at
    random (seeded). Kept extras are flagged ``is_oversampled``.
    """
    kept = cap_kept_count(len(base_windows), len(extra_windows), os_pct)
    if kept < len(extra_windows):
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(extra_windows), size=kept, replace=False)
        chosen = [extra_windows[i] for i in sorted(idx)]
    else:
        chosen = list(extra_windows)
    flagged = [w if w.is_oversampled else replace(w, is_oversampled=True) for w in chosen]
    return list(base_windows) + flagged
