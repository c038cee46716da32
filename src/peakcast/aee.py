"""LSTM autoencoder embedding (the aee.* config surface).

An LSTM encoder folds the whole input window into latent states (h, c);
an LSTM decoder, seeded with those latents and driven only by forecast
time-stamp features, unrolls the horizon. Its hidden-state sequence is
the decoder-side embedding, and a per-step linear head turns the same
sequence into the short-term auxiliary prediction. No target value,
observed or predicted, ever enters the decoder: prediction is direct,
not recursive.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import DEFAULT_SYNTH_START

TIMESTAMP_FEATURE_WIDTH = 5


@dataclass
class AeeConfig:
    hidden: int = 64
    layers: int = 1

    def __post_init__(self) -> None:
        if self.hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {self.hidden}")
        if self.layers not in (1, 2):
            raise ValueError(f"layers must be 1 or 2, got {self.layers}")


def lstm_param_shapes(input_width: int, hidden: int) -> dict[str, tuple[int, ...]]:
    """Gate-stacked cell parameterization: i, f, g, o along the last axis."""
    return {"w": (input_width, 4 * hidden), "u": (hidden, 4 * hidden), "b": (4 * hidden,)}


def _layer(params: dict[str, Tensor], branch: str, layer: int) -> tuple[Tensor, Tensor, Tensor]:
    return tuple(params[f"aee.{branch}.{layer}.{key}"] for key in ("w", "u", "b"))


def encode(windows: np.ndarray, params: dict[str, Tensor], cfg: AeeConfig) -> list[tuple[Tensor, Tensor]]:
    """Run the encoder stack over all t columns of (B, m, t) windows.

    Returns the final (h, c) of each layer, bottom first.
    """
    if windows.ndim == 2:
        windows = windows[None, ...]
    zeros = ad.tensor(np.zeros((windows.shape[0], cfg.hidden)))
    inp = ad.tensor(np.swapaxes(windows, 1, 2))  # (B, t, m)
    states = []
    for layer in range(cfg.layers):
        inp, h, c = ad.lstm_sequence(inp, zeros, zeros, *_layer(params, "enc", layer))
        states.append((h, c))
    return states


def timestamp_features(
    issue_index: int,
    horizon: int,
    step: timedelta = timedelta(minutes=15),
    start: datetime | None = None,
) -> np.ndarray:
    """(horizon, 5) decoder-input features for one forecast issuance.

    Row k describes forecast step k: normalized index k/h, then sine and
    cosine of the fractional time-of-day and day-of-year of the step's
    absolute timestamp (grid index issue_index + 1 + k), read on the start
    timestamp's wall clock and truncated to whole seconds. Without a start
    timestamp the calendar features fall back to a fixed epoch so the
    encoding stays total.
    """
    anchor = start if start is not None else DEFAULT_SYNTH_START
    us = timedelta(microseconds=1)
    k = np.arange(horizon)
    wall = np.datetime64(anchor.replace(tzinfo=None), "us")
    ts = wall + (issue_index + 1 + k) * np.timedelta64(step // us, "us")
    day = ts.astype("datetime64[D]")
    tod = (ts - day).astype("timedelta64[s]").astype(np.int64) / 86400.0
    doy = ((day - day.astype("datetime64[Y]")).astype(np.int64) + tod) / 366.0
    return np.stack([k / horizon,
                     np.sin(2 * np.pi * tod), np.cos(2 * np.pi * tod),
                     np.sin(2 * np.pi * doy), np.cos(2 * np.pi * doy)], axis=-1)


def decode(
    latents: list[tuple[Tensor, Tensor]],
    ts_features: np.ndarray,
    params: dict[str, Tensor],
    cfg: AeeConfig,
) -> Tensor:
    """Unroll the decoder stack over (B, h, 5) time-stamp features.

    Latents map layer-to-layer from the encoder. The result is the
    top layer's hidden-state sequence, (B, h, hidden).
    """
    if len(latents) != cfg.layers:
        raise ad.DimensionError(f"decode: {len(latents)} latent states for {cfg.layers} layers")
    if ts_features.ndim == 2:
        ts_features = ts_features[None, ...]
    inp = ad.tensor(ts_features)
    for layer, (h, c) in enumerate(latents):
        inp, _, _ = ad.lstm_sequence(inp, h, c, *_layer(params, "dec", layer))
    return inp


def aux_head(embedding: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """Per-step linear map hidden -> 1, squeezed to (B, h)."""
    out = ad.linear(embedding, weight, bias)
    return ad.reshape(out, out.shape[:-1])
