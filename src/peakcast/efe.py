"""Lag-window feature embedding (the efe.* config surface).

Each time point j is embedded from a small cross-series feature vector:
the target's concurrent value, every auxiliary's concurrent value, and
each auxiliary's s preceding values. One shared dense layer plus a
nonlinearity maps that vector to d_model. No positional term is ever
added; order information lives entirely in the lag structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


@dataclass
class EfeConfig:
    """Subsequence geometry; ``s_efe`` counts preceding auxiliary values."""

    s_efe: int = 60
    activation: str = "relu"
    include_target_lags: bool = False

    def __post_init__(self) -> None:
        if self.s_efe < 1:
            raise ValueError(f"s_efe must be >= 1, got {self.s_efe}")
        if self.activation not in ad.ACTIVATIONS:
            raise ValueError(f"activation must be one of {sorted(ad.ACTIVATIONS)}, got {self.activation!r}")

    def input_width(self, m: int) -> int:
        w = 1 + (m - 1) * (self.s_efe + 1)
        if self.include_target_lags:
            w += self.s_efe
        return w


def subsequence_matrix(windows: np.ndarray, s_efe: int, include_target_lags: bool = False) -> np.ndarray:
    """All-j feature matrix, vectorized: (B, m, t) -> (B, t, width).

    Row j is [x1_j, x2_j .. xm_j, lags of x2, lags of x3, ...] where each
    lag block is [x_i(j-s) .. x_i(j-1)]; target lags come last when asked
    for. Indices before the window start repeat the earliest value.
    """
    B, m, t = windows.shape
    lag_idx = np.maximum(np.arange(t)[:, None] + np.arange(-s_efe, 0)[None, :], 0)  # (t, s)
    parts = [np.swapaxes(windows, 1, 2)]  # concurrent values, (B, t, m) with target first
    for i in range(1, m):
        parts.append(windows[:, i, :][:, lag_idx])  # (B, t, s)
    if include_target_lags:
        parts.append(windows[:, 0, :][:, lag_idx])
    return np.concatenate(parts, axis=-1)


def embed_sequence(windows: np.ndarray, weight: Tensor, bias: Tensor, cfg: EfeConfig) -> Tensor:
    """Map every time point through the shared dense layer.

    (B, m, t) windows -> (B, t, d_model) embeddings. Raises a
    dimension error when the layer does not match the configured width.
    """
    m = windows.shape[-2]
    expected = cfg.input_width(m)
    if weight.shape[0] != expected:
        raise ad.DimensionError(
            f"efe weight expects input width {weight.shape[0]}, config gives {expected}")
    features = subsequence_matrix(windows, cfg.s_efe, cfg.include_target_lags)
    out = ad.linear(ad.tensor(features), weight, bias)
    return ad.activation(cfg.activation, out)
