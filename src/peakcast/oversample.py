"""Clustering-based oversampling of extreme events.

A 1-D Gaussian mixture fitted to the target values identifies the
extreme-value cluster (the one with the highest mean, z). Points above
eta * z are marked, thinned to one peak per event, and each peak is
expanded into extra window origins so the event lands inside the forecast
horizon. The extra volume is capped at os% of the final training set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import WindowSample


class GmmFitError(ValueError):
    """Mixture fit is impossible for the given data/M."""


class PolicyError(ValueError):
    """Oversampling policy parameters out of range."""


@dataclass
class GmmParams:
    """Fitted 1-D Gaussian mixture, component k ~ N(means[k], variances[k])."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihood: float
    ll_history: np.ndarray

    @property
    def n_components(self) -> int:
        return len(self.weights)


@dataclass
class OversamplePolicy:
    """Peak expansion policy: threshold eta, grid step s_step, scope nu, cap os_pct."""

    eta: float = 1.2
    s_step: int = 1
    nu: int = 8
    os_pct: float = 20.0
    n_components: int = 3

    def __post_init__(self) -> None:
        if self.s_step < 1:
            raise PolicyError(f"s_step must be >= 1, got {self.s_step}")
        if self.nu < self.s_step:
            raise PolicyError(f"nu ({self.nu}) must be >= s_step ({self.s_step})")
        if not 0 < self.os_pct <= 100:
            raise PolicyError(f"os_pct must be in (0, 100], got {self.os_pct}")
        if self.n_components < 1:
            raise PolicyError("n_components must be >= 1")


def fit_gmm(
    values: np.ndarray,
    n_components: int,
    max_iter: int = 200,
    tol: float = 1e-6,
    seed: int | None = None,
) -> GmmParams:
    """EM fit of a 1-D Gaussian mixture.

    Initialization is deterministic: means at the (k + 0.5)/M quantiles,
    uniform weights, pooled variance. Variances are floored at
    1e-6 * var(data) so no component can collapse onto a single point.
    ``seed`` only breaks ties when quantile initialization produces
    duplicate means (heavily discrete data).

    The per-iteration log-likelihood trace is kept in ``ll_history``; EM
    guarantees it is non-decreasing. Each iteration runs in place on two
    component-major (M, n) buffers allocated once, row by contiguous row.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    M = int(n_components)
    if M < 1:
        raise GmmFitError("n_components must be >= 1")
    if max_iter < 1:
        raise GmmFitError(f"max_iter must be >= 1, got {max_iter}")
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
        jitter = np.random.default_rng(seed).normal(0.0, math.sqrt(pooled_var) * 1e-3, size=M)
        means = means + jitter
    weights = np.full(M, 1.0 / M)
    variances = np.full(M, pooled_var)

    ll_history = []
    logp = np.empty((M, x.size))  # log w_k N(x | mu_k, var_k), then responsibilities
    work = np.empty((M, x.size))  # exp(logp - max), then (x - mu_new)^2
    lse, total = np.empty(x.size), np.empty(x.size)
    for _ in range(max_iter):
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

        if len(ll_history) > 1 and ll_history[-1] - ll_history[-2] < tol:
            break

    return GmmParams(
        weights=weights,
        means=means,
        variances=variances,
        log_likelihood=ll_history[-1],
        ll_history=np.array(ll_history),
    )


def highest_mean(g: GmmParams) -> float:
    """Mean of the extreme-value cluster."""
    return float(np.max(g.means))


def mark_important(values: np.ndarray, eta: float, z: float, nu: int = 8) -> np.ndarray:
    """Indices of peak points: above eta * z and locally maximal.

    Super-threshold indices inside one extreme event form contiguous runs;
    thinning keeps the index that is the leftmost maximum within its
    nu-wide neighborhood, so each event contributes one peak.
    """
    x = np.asarray(values, dtype=np.float64)
    threshold = eta * z
    candidates = np.flatnonzero(x > threshold)
    half = nu // 2
    peaks = []
    for i in candidates:
        lo = max(0, i - half)
        hi = min(len(x), i + half + 1)
        seg = x[lo:hi]
        if lo + int(np.argmax(seg)) == i:
            peaks.append(i)
    return np.array(peaks, dtype=np.intp)


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
    dropped and duplicates across peaks are merged.
    """
    if s_step < 1:
        raise PolicyError(f"s_step must be >= 1, got {s_step}")
    if nu < s_step:
        raise PolicyError(f"nu ({nu}) must be >= s_step ({s_step})")
    count = nu // s_step
    max_origin = series_len - t - h
    origins: set[int] = set()
    for p in np.asarray(peaks, dtype=np.intp):
        first_issue = int(p) - nu // 2
        for k in range(count):
            origin = first_issue + k * s_step - (t - 1)
            if 0 <= origin <= max_origin:
                origins.add(origin)
    return np.array(sorted(origins), dtype=np.intp)


def cap_kept_count(n_base: int, n_extra: int, os_pct: float) -> int:
    """Largest kept count with kept <= os_pct% of the final set size.

    Solves kept = floor(r * (n_base + kept)) for r = os_pct / 100; keeping
    everything when the cap is not binding.
    """
    if not 0 < os_pct <= 100:
        raise PolicyError(f"os_pct must be in (0, 100], got {os_pct}")
    r = os_pct / 100.0
    if r >= 1.0:
        return n_extra
    return min(n_extra, int(math.floor(r * n_base / (1.0 - r))))


def cap_oversample(
    base_windows: list[WindowSample],
    extra_windows: list[WindowSample],
    os_pct: float,
    seed: int | None = None,
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


def policy_report(g: GmmParams, eta: float) -> str:
    """Human-readable fit summary with the eta * z threshold."""
    z = highest_mean(g)
    lines = [
        f"components: {g.n_components}",
        "weights:    " + " ".join(f"{w:.6f}" for w in g.weights),
        "means:      " + " ".join(f"{m:.6f}" for m in g.means),
        "variances:  " + " ".join(f"{v:.6f}" for v in g.variances),
        f"log_likelihood: {g.log_likelihood:.6f}",
        f"iterations: {len(g.ll_history)}",
        f"z (highest mean): {z:.6f}",
        f"eta: {eta:.6f}",
        f"threshold eta*z: {eta * z:.6f}",
    ]
    return "\n".join(lines)
