"""The forecasting network: mask-free transformer over learned embeddings.

Encoder self-attention runs on the lag-feature embedding, decoder
self-attention runs on the LSTM-autoencoder embedding, and cross-attention
ties the two together. No attention mask exists anywhere; the decoder
emits all h steps in one pass and its per-step linear head is fused with
the autoencoder's short-term head by element-wise addition.

Two ablation embedding modes replace the learned embeddings with a plain
token embedding, optionally plus the classic sinusoidal positional term.
Only the embedding step differs between modes; encoder, decoder and head
are shared.

Parameter layout: every attention block ``{prefix}`` holds ``.wq``,
``.wk``, ``.wv`` and ``.wo``, each (d_model, d_model), and ``.bo``. Head
i owns column block [i * d_head, (i + 1) * d_head) of ``wq``, ``wk`` and
``wv``, and the same row block of ``wo``. Checkpoints are format version 2;
version 1 files (one q/k/v matrix per head) are rejected.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import aee as aee_mod
from . import autodiff as ad
from . import efe as efe_mod
from .aee import AeeConfig
from .autodiff import Tensor
from .efe import EfeConfig

EMBEDDING_MODES = ("efe_aee", "position_token", "token_only")

CHECKPOINT_FORMAT = "peakcast-checkpoint"
CHECKPOINT_VERSION = 2


class CheckpointError(ValueError):
    """Unreadable or corrupted checkpoint file."""


@dataclass
class PfConfig:
    """Complete hyperparameter record for one model."""

    d_model: int = 64
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 1
    ffn_width: int = 128
    t: int = 1440
    h: int = 288
    m: int = 2
    efe: EfeConfig = field(default_factory=EfeConfig)
    aee: AeeConfig = field(default_factory=AeeConfig)
    embedding_mode: str = "efe_aee"
    dropout_rate: float = 0.1

    def __post_init__(self) -> None:
        for name in ("d_model", "n_heads", "ffn_width", "t", "h", "m"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.embedding_mode not in EMBEDDING_MODES:
            raise ValueError(f"embedding_mode must be one of {EMBEDDING_MODES}, got {self.embedding_mode!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    def to_dict(self) -> dict:
        return {
            "d_model": self.d_model,
            "n_heads": self.n_heads,
            "n_enc_layers": self.n_enc_layers,
            "n_dec_layers": self.n_dec_layers,
            "ffn_width": self.ffn_width,
            "t": self.t,
            "h": self.h,
            "m": self.m,
            "efe.s": self.efe.s_efe,
            "efe.activation": self.efe.activation,
            "efe.target_lags": self.efe.include_target_lags,
            "aee.hidden": self.aee.hidden,
            "aee.layers": self.aee.layers,
            "embedding_mode": self.embedding_mode,
            "dropout_rate": self.dropout_rate,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PfConfig":
        return cls(
            d_model=int(d["d_model"]),
            n_heads=int(d["n_heads"]),
            n_enc_layers=int(d["n_enc_layers"]),
            n_dec_layers=int(d["n_dec_layers"]),
            ffn_width=int(d["ffn_width"]),
            t=int(d["t"]),
            h=int(d["h"]),
            m=int(d["m"]),
            efe=EfeConfig(
                s_efe=int(d["efe.s"]),
                activation=str(d["efe.activation"]),
                include_target_lags=bool(d["efe.target_lags"]),
            ),
            aee=AeeConfig(hidden=int(d["aee.hidden"]), layers=int(d["aee.layers"])),
            embedding_mode=str(d["embedding_mode"]),
            dropout_rate=float(d["dropout_rate"]),
        )


# ---------------------------------------------------------------------------
# parameters


def _param_shapes(cfg: PfConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape map; insertion order fixes the init RNG stream."""
    d, ffn = cfg.d_model, cfg.ffn_width
    shapes: dict[str, tuple[int, ...]] = {}

    def attn(prefix: str) -> None:
        for key in ("wq", "wk", "wv", "wo"):
            shapes[f"{prefix}.{key}"] = (d, d)
        shapes[f"{prefix}.bo"] = (d,)

    def block(prefix: str, sublayers: int) -> None:
        shapes[f"{prefix}.ffn.w1"] = (d, ffn)
        shapes[f"{prefix}.ffn.b1"] = (ffn,)
        shapes[f"{prefix}.ffn.w2"] = (ffn, d)
        shapes[f"{prefix}.ffn.b2"] = (d,)
        for k in range(sublayers):
            shapes[f"{prefix}.ln{k + 1}.g"] = (d,)
            shapes[f"{prefix}.ln{k + 1}.b"] = (d,)

    if cfg.embedding_mode == "efe_aee":
        shapes["efe.w"] = (cfg.efe.input_width(cfg.m), d)
        shapes["efe.b"] = (d,)
        hidden = cfg.aee.hidden
        for layer in range(cfg.aee.layers):
            enc_in = cfg.m if layer == 0 else hidden
            dec_in = aee_mod.TIMESTAMP_FEATURE_WIDTH if layer == 0 else hidden
            for branch, width in (("enc", enc_in), ("dec", dec_in)):
                for key, shape in aee_mod.lstm_param_shapes(width, hidden).items():
                    shapes[f"aee.{branch}.{layer}.{key}"] = shape
        shapes["aee.head.w"] = (hidden, 1)
        shapes["aee.head.b"] = (1,)
        if hidden != d:
            shapes["aee.proj.w"] = (hidden, d)
            shapes["aee.proj.b"] = (d,)
    else:
        shapes["tok.w"] = (cfg.m, d)
        shapes["tok.b"] = (d,)
        shapes["dec.start"] = (cfg.h, d)

    for i in range(cfg.n_enc_layers):
        attn(f"enc.{i}.attn")
        block(f"enc.{i}", 2)
    for i in range(cfg.n_dec_layers):
        attn(f"dec.{i}.self")
        attn(f"dec.{i}.cross")
        block(f"dec.{i}", 3)

    shapes["head.w"] = (d, 1)
    shapes["head.b"] = (1,)
    return shapes


def init_params(cfg: PfConfig, seed: int) -> dict[str, Tensor]:
    """Seeded initialization: matrices uniform +-1/sqrt(fan_in), biases zero,
    layer-norm gains one, LSTM forget-gate biases one."""
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape in _param_shapes(cfg).items():
        if len(shape) == 1:
            values = np.zeros(shape)
            if ".ln" in name and name.endswith(".g"):
                values = np.ones(shape)
            if name.startswith("aee.") and name.endswith(".b") and ".head." not in name:
                hidden = shape[0] // 4
                values[hidden:2 * hidden] = 1.0  # forget gate
        else:
            scale = 1.0 / math.sqrt(shape[0])
            values = rng.uniform(-scale, scale, size=shape)
        params[name] = ad.parameter(values)
    return params


def param_count(params: dict[str, Tensor]) -> int:
    return sum(p.size for p in params.values())


# ---------------------------------------------------------------------------
# network blocks


def sinusoidal_positions(length: int, d_model: int) -> np.ndarray:
    """Classic fixed positional encoding table, (length, d_model)."""
    pe = np.zeros((length, d_model))
    pos = np.arange(length)[:, None]
    div = np.exp(np.arange(0, d_model, 2) * (-math.log(10000.0) / d_model))
    pe[:, 0::2] = np.sin(pos * div)
    pe[:, 1::2] = np.cos(pos * div[: d_model // 2])
    return pe


def multi_head_attention(
    x: Tensor,
    source: Tensor,
    params: dict[str, Tensor],
    prefix: str,
    cfg: PfConfig,
    rng: np.random.Generator | None = None,
    trace: list | None = None,
) -> Tensor:
    """Scaled dot-product attention of ``x`` over all rows of ``source``.

    Self-attention passes the same tensor twice. Q = x wq, K = source wk and
    V = source wv are projected with one matmul each; :func:`ad.attention`
    runs every head (head i on column block i, scaled by 1/sqrt(d_head)),
    and the heads' outputs are output-projected with ``wo`` and ``bo``. No
    mask. Attention weights are dropped out when ``rng`` is given. When
    ``trace`` is given, every head's attention matrix (numpy) is appended
    to it.
    """
    q = ad.matmul(x, params[f"{prefix}.wq"])
    k = ad.matmul(source, params[f"{prefix}.wk"])
    v = ad.matmul(source, params[f"{prefix}.wv"])
    heads = ad.attention(q, k, v, cfg.n_heads, cfg.dropout_rate, rng, trace)
    return ad.add_bias(ad.matmul(heads, params[f"{prefix}.wo"]), params[f"{prefix}.bo"])


def _ffn(x: Tensor, params: dict[str, Tensor], prefix: str, cfg: PfConfig,
         rng: np.random.Generator | None) -> Tensor:
    hidden = ad.relu(ad.add_bias(ad.matmul(x, params[f"{prefix}.w1"]), params[f"{prefix}.b1"]))
    if rng is not None:
        hidden = ad.dropout(hidden, cfg.dropout_rate, rng)
    return ad.add_bias(ad.matmul(hidden, params[f"{prefix}.w2"]), params[f"{prefix}.b2"])


def _add_norm(x: Tensor, residual: Tensor, params: dict[str, Tensor], prefix: str) -> Tensor:
    return ad.layer_norm(ad.add(x, residual), params[f"{prefix}.g"], params[f"{prefix}.b"])


def encoder_forward(
    x: Tensor,
    params: dict[str, Tensor],
    cfg: PfConfig,
    rng: np.random.Generator | None = None,
    trace: list | None = None,
) -> Tensor:
    """Standard post-norm encoder stack; shape-preserving (..., t, d_model).
    Dropout runs when ``rng`` is given."""
    for i in range(cfg.n_enc_layers):
        attn = multi_head_attention(x, x, params, f"enc.{i}.attn", cfg, rng, trace)
        x = _add_norm(x, attn, params, f"enc.{i}.ln1")
        x = _add_norm(x, _ffn(x, params, f"enc.{i}.ffn", cfg, rng), params, f"enc.{i}.ln2")
    return x


def decoder_forward(
    y: Tensor,
    memory: Tensor,
    params: dict[str, Tensor],
    cfg: PfConfig,
    rng: np.random.Generator | None = None,
    trace: list | None = None,
) -> Tensor:
    """Unmasked self-attention, cross-attention to memory, then FFN.
    Dropout runs when ``rng`` is given."""
    for i in range(cfg.n_dec_layers):
        sa = multi_head_attention(y, y, params, f"dec.{i}.self", cfg, rng, trace)
        y = _add_norm(y, sa, params, f"dec.{i}.ln1")
        ca = multi_head_attention(y, memory, params, f"dec.{i}.cross", cfg, rng, trace)
        y = _add_norm(y, ca, params, f"dec.{i}.ln2")
        y = _add_norm(y, _ffn(y, params, f"dec.{i}.ffn", cfg, rng), params, f"dec.{i}.ln3")
    return y


def _embed(windows: np.ndarray, ts_features: np.ndarray, params: dict[str, Tensor],
           cfg: PfConfig) -> tuple[Tensor, Tensor, Tensor | None]:
    """Encoder input, decoder input and the auxiliary forecast of one batch.

    efe_aee: lag-feature embedding for the encoder; the autoencoder's
    hidden sequence (projected to d_model if needed) for the decoder, and
    its short-term head as the auxiliary forecast. Ablation modes: a
    per-step linear map of the m-vector for the encoder and learned start
    tokens for the decoder, plus the sinusoidal table in position_token
    mode; there is no auxiliary forecast (None).
    """
    if cfg.embedding_mode == "efe_aee":
        enc_in = efe_mod.embed_sequence(windows, params["efe.w"], params["efe.b"], cfg.efe)
        latents = aee_mod.encode(windows, params, cfg.aee)
        emb = aee_mod.decode(latents, ts_features, params, cfg.aee)
        yaux = aee_mod.aux_head(emb, params["aee.head.w"], params["aee.head.b"])
        dec_in = emb
        if cfg.aee.hidden != cfg.d_model:
            dec_in = ad.add_bias(ad.matmul(emb, params["aee.proj.w"]), params["aee.proj.b"])
        return enc_in, dec_in, yaux

    B = windows.shape[0]
    cols = np.swapaxes(windows, 1, 2)  # (B, t, m)
    enc_in = ad.add_bias(ad.matmul(ad.tensor(cols), params["tok.w"]), params["tok.b"])
    dec_in = ad.tile_leading(params["dec.start"], B)
    if cfg.embedding_mode == "position_token":
        pe_t = sinusoidal_positions(cfg.t, cfg.d_model)
        pe_h = sinusoidal_positions(cfg.h, cfg.d_model)
        enc_in = ad.add(enc_in, ad.tensor(np.broadcast_to(pe_t, (B, cfg.t, cfg.d_model))))
        dec_in = ad.add(dec_in, ad.tensor(np.broadcast_to(pe_h, (B, cfg.h, cfg.d_model))))
    return enc_in, dec_in, None


def forward(
    windows: np.ndarray,
    ts_features: np.ndarray,
    params: dict[str, Tensor],
    cfg: PfConfig,
    rng: np.random.Generator | None = None,
    training: bool = False,
    trace: list | None = None,
) -> tuple[Tensor, Tensor]:
    """Full forward pass on a (B, m, t) batch and its (B, h, 5) time-stamp
    features; a single (m, t) window and (h, 5) features are batched.

    Returns (yhat, yaux), both (B, h). In the ablation modes yaux is a
    constant zero tensor and the fused output is the decoder head alone.
    Dropout runs only when ``training`` and ``rng`` are both given.
    Inputs of another shape raise DimensionError, in every embedding mode;
    non-finite inputs raise ContractError.
    """
    if windows.ndim == 2:
        windows = windows[None, ...]
    if ts_features.ndim == 2:
        ts_features = ts_features[None, ...]
    if windows.ndim != 3 or windows.shape[1:] != (cfg.m, cfg.t):
        raise ad.DimensionError(f"window batch {windows.shape} does not match (m, t) = ({cfg.m}, {cfg.t})")
    want = (windows.shape[0], cfg.h, aee_mod.TIMESTAMP_FEATURE_WIDTH)
    if ts_features.shape != want:
        raise ad.DimensionError(f"time-stamp features {ts_features.shape} do not match (B, h, width) = {want}")
    if not (np.isfinite(windows).all() and np.isfinite(ts_features).all()):
        raise ad.ContractError("forward: windows and time-stamp features must be finite")
    rng = rng if training else None

    enc_in, dec_in, yaux = _embed(windows, ts_features, params, cfg)
    memory = encoder_forward(enc_in, params, cfg, rng, trace)
    dec_out = decoder_forward(dec_in, memory, params, cfg, rng, trace)
    out = ad.add_bias(ad.matmul(dec_out, params["head.w"]), params["head.b"])
    yhat = ad.reshape(out, out.shape[:-1])
    if yaux is None:
        return yhat, ad.tensor(np.zeros(yhat.shape))
    return ad.add(yhat, yaux), yaux


# ---------------------------------------------------------------------------
# checkpoints


def _checksum(config_blob: str, entries: list[dict]) -> str:
    digest = hashlib.sha256()
    digest.update(config_blob.encode())
    for e in entries:
        digest.update(e["name"].encode())
        digest.update(json.dumps(e["shape"]).encode())
        digest.update(e["data"].encode())
    return digest.hexdigest()


def save_checkpoint(path, cfg: PfConfig, params: dict[str, Tensor]) -> None:
    """Self-describing JSON container: config, named float64 tensors, checksum."""
    config_blob = json.dumps(cfg.to_dict(), sort_keys=True)
    entries = []
    for name in sorted(params):
        values = params[name].values
        entries.append({
            "name": name,
            "shape": list(values.shape),
            "data": base64.b64encode(np.ascontiguousarray(values, dtype="<f8").tobytes()).decode(),
        })
    doc = {
        "format": CHECKPOINT_FORMAT,
        "format_version": CHECKPOINT_VERSION,
        "config": cfg.to_dict(),
        "params": entries,
        "checksum": _checksum(config_blob, entries),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _is_entry(e) -> bool:
    return (isinstance(e, dict) and isinstance(e.get("name"), str) and isinstance(e.get("data"), str)
            and isinstance(e.get("shape"), list) and all(isinstance(n, int) for n in e["shape"]))


def load_checkpoint(path) -> tuple[PfConfig, dict[str, Tensor]]:
    """Load and verify a checkpoint; a corrupted, malformed or mismatched
    file raises CheckpointError."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a checkpoint file")
    if doc.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('format_version')}")
    try:
        cfg = PfConfig.from_dict(doc["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed config in {path}: {exc!r}") from None
    entries = doc.get("params")
    if not isinstance(entries, list) or not all(_is_entry(e) for e in entries):
        raise CheckpointError(f"malformed parameter list in {path}")
    config_blob = json.dumps(cfg.to_dict(), sort_keys=True)
    if _checksum(config_blob, entries) != doc.get("checksum"):
        raise CheckpointError(f"checksum mismatch in {path}: file is corrupted")
    shapes = _param_shapes(cfg)
    if sorted(e["name"] for e in entries) != sorted(shapes):
        raise CheckpointError("checkpoint parameters do not match its config")
    params: dict[str, Tensor] = {}
    for e in entries:
        name, shape = e["name"], tuple(e["shape"])
        if shape != shapes[name]:
            raise CheckpointError(f"parameter {name} has shape {shape}, its config gives {shapes[name]}")
        try:
            buf = np.frombuffer(base64.b64decode(e["data"], validate=True), dtype="<f8").reshape(shape)
        except ValueError as exc:
            raise CheckpointError(f"parameter {name} data does not decode to shape {shape}: {exc}") from None
        params[name] = ad.parameter(buf.copy())
    return cfg, params
