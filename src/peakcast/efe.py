"""Lag-window feature embedding.

Each time point j is embedded from a small cross-series feature vector:
the target's concurrent value, every auxiliary's concurrent value, and
each auxiliary's s preceding values. One shared dense layer plus a ReLU
maps that vector to d_model. No positional term is ever added; order
information lives entirely in the lag structure.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor


def input_width(m: int, s_efe: int) -> int:
    """Features per time point: the target's value, and each of the m - 1
    auxiliaries' value with its ``s_efe`` preceding values."""
    return 1 + (m - 1) * (s_efe + 1)


def subsequence_matrix(windows: np.ndarray, s_efe: int) -> np.ndarray:
    """All-j feature matrix, vectorized: (B, m, t) -> (B, t, width).

    Row j is [x1_j, x2_j .. xm_j, lags of x2, lags of x3, ...] where each
    lag block is [x_i(j-s) .. x_i(j-1)]. Indices before the window start
    repeat the earliest value.
    """
    B, m, t = windows.shape
    lag_idx = np.maximum(np.arange(t)[:, None] + np.arange(-s_efe, 0)[None, :], 0)  # (t, s)
    parts = [np.swapaxes(windows, 1, 2)]  # concurrent values, (B, t, m) with target first
    for i in range(1, m):
        parts.append(windows[:, i, :][:, lag_idx])  # (B, t, s)
    return np.concatenate(parts, axis=-1)


def embed_sequence(windows: np.ndarray, weight: Tensor, bias: Tensor, s_efe: int) -> Tensor:
    """relu(features @ weight + bias) at every time point: (B, m, t)
    windows -> (B, t, d_model) embeddings. A weight whose row count is not
    ``input_width(m, s_efe)`` raises a dimension error."""
    return ad.relu(ad.linear(ad.tensor(subsequence_matrix(windows, s_efe)), weight, bias))
