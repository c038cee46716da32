"""The forecasting network: mask-free transformer over learned embeddings.

Encoder self-attention runs on the lag-feature embedding, decoder
self-attention runs on the LSTM-autoencoder embedding, and cross-attention
ties the two together. No attention mask exists anywhere; the decoder
emits all h steps in one pass and its per-step linear head is fused with
the autoencoder's short-term head by element-wise addition.

Encoder and decoder layers are post-norm, LayerNorm(x + Sublayer(x)), and
each sublayer's tail is one fused op: :func:`autodiff.project_add_norm`
projects the attention heads with ``wo`` and ``bo``, adds the sublayer's
input and normalises the sum, and :func:`autodiff.ffn_add_norm` does the
same for the whole feed-forward sublayer. Neither keeps the sublayer's
output on the tape. Training drops out attention weights and FFN units.

Two ablation embedding modes replace the learned embeddings with a plain
token embedding, optionally plus the classic sinusoidal positional term.
Only the embedding step differs between modes; encoder, decoder and head
are shared.

Parameter layout: every attention block ``{prefix}`` holds ``.wq``,
``.wk``, ``.wv`` and ``.wo``, each (d_model, d_model), and ``.bo``. Head
i owns column block [i * d_head, (i + 1) * d_head) of ``wq``, ``wk`` and
``wv``, and the same row block of ``wo``. The AEE's two LSTMs, ``aee.enc``
and ``aee.dec``, each hold ``.w`` (n_in, 4H), ``.u`` (H, 4H) and ``.b``
(4H,), with H = d_model and n_in = m or the time-stamp feature width;
gates i, f, g and o are column blocks in that order, the forget gate's
bias is 1 at init, and :func:`autodiff.lstm_sequence` computes in this
order, which checkpoints store too. Checkpoints are format version 5,
a numpy ``.npz`` archive: member ``header`` holds a JSON object of the
format name and version and ``config`` (``PfConfig.to_dict()``, one flat
dict of scalars), and each parameter is a float64 member of its own name,
shaped by the config. zip's CRC-32 on each member detects a corrupted
file. Files of versions 1 to 4, which were JSON, are rejected.
"""

from __future__ import annotations

import functools
import json
import math
import os
import secrets
import zipfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import aee as aee_mod
from . import autodiff as ad
from . import efe as efe_mod
from .autodiff import Tensor

EMBEDDING_MODES = ("efe_aee", "position_token", "token_only")

CHECKPOINT_FORMAT = "peakcast-checkpoint"
CHECKPOINT_VERSION = 5


class CheckpointError(ValueError):
    """Unreadable or corrupted checkpoint file."""


@dataclass
class PfConfig:
    """Complete hyperparameter record for one model.

    Each field must have the type of its default, except that an int passes
    for a float and is stored as one; a bool passes for neither. A value of
    another type raises TypeError, and one out of range ValueError.
    """

    d_model: int = 64
    n_heads: int = 4
    n_enc_layers: int = 2
    n_dec_layers: int = 1
    ffn_width: int = 128
    t: int = 1440
    h: int = 288
    m: int = 2
    s_efe: int = 60
    embedding_mode: str = "efe_aee"
    dropout_rate: float = 0.1

    def __post_init__(self) -> None:
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if kind is float and type(value) is int:
                setattr(self, f.name, float(value))
            elif type(value) is not kind:
                raise TypeError(f"PfConfig.{f.name} must be {kind.__name__}, got {type(value).__name__} {value!r}")
        for name in ("d_model", "n_heads", "n_enc_layers", "n_dec_layers", "ffn_width", "t", "h", "m", "s_efe"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.embedding_mode not in EMBEDDING_MODES:
            raise ValueError(f"embedding_mode must be one of {EMBEDDING_MODES}, got {self.embedding_mode!r}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> PfConfig:
        """A config from a dict of exactly its fields' keys; the constructor
        checks the types and ranges. Raises TypeError or ValueError."""
        if not isinstance(d, dict):
            raise TypeError(f"PfConfig needs a dict, got {type(d).__name__}")
        names = {f.name for f in fields(cls)}
        if d.keys() != names:
            raise ValueError(f"PfConfig needs the keys {sorted(names)}, got {sorted(d)}")
        return cls(**d)


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
        shapes["efe.w"] = (efe_mod.input_width(cfg.m, cfg.s_efe), d)
        shapes["efe.b"] = (d,)
        # LSTM gates stacked i, f, g, o along the last axis
        for branch, width in (("enc", cfg.m), ("dec", aee_mod.TIMESTAMP_FEATURE_WIDTH)):
            shapes[f"aee.{branch}.w"] = (width, 4 * d)
            shapes[f"aee.{branch}.u"] = (d, 4 * d)
            shapes[f"aee.{branch}.b"] = (4 * d,)
        shapes["aee.head.w"] = (d, 1)
        shapes["aee.head.b"] = (1,)
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
            if name.startswith(("aee.enc.", "aee.dec.")) and name.endswith(".b"):
                hidden = shape[0] // 4
                values[hidden:2 * hidden] = 1.0  # forget gate
        else:
            scale = 1.0 / math.sqrt(shape[0])
            values = rng.uniform(-scale, scale, size=shape)
        params[name] = ad.parameter(values)
    return params


# ---------------------------------------------------------------------------
# network blocks


@functools.cache
def sinusoidal_positions(length: int, d_model: int) -> np.ndarray:
    """Classic fixed positional encoding table, (length, d_model).

    Built once per (length, d_model) and returned read-only, so every
    forward of the ``position_token`` ablation shares one table."""
    pe = np.zeros((length, d_model))
    pos = np.arange(length)[:, None]
    div = np.exp(np.arange(0, d_model, 2) * (-math.log(10000.0) / d_model))
    pe[:, 0::2] = np.sin(pos * div)
    pe[:, 1::2] = np.cos(pos * div[: d_model // 2])
    pe.flags.writeable = False
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
    """Scaled dot-product attention of ``x`` over all rows of ``source``: the
    heads' outputs, (..., t_x, d_model), before the output projection.

    Self-attention passes the same tensor twice. Q = x wq, K = source wk and
    V = source wv are projected with one :func:`ad.linear` each, and
    :func:`ad.attention` runs every head (head i on column block i, scaled
    by 1/sqrt(d_head)). The caller projects the result with ``wo`` and
    ``bo`` inside its post-norm tail, :func:`ad.project_add_norm`. No mask.
    Attention weights are dropped out when ``rng`` is given. When ``trace``
    is given, every head's attention matrix (numpy) is appended to it.
    """
    q = ad.linear(x, params[f"{prefix}.wq"])
    k = ad.linear(source, params[f"{prefix}.wk"])
    v = ad.linear(source, params[f"{prefix}.wv"])
    return ad.attention(q, k, v, cfg.n_heads, 0.0 if rng is None else cfg.dropout_rate, rng, trace)


def _attention_add_norm(x: Tensor, source: Tensor, params: dict[str, Tensor], prefix: str, norm: str,
                        cfg: PfConfig, rng: np.random.Generator | None, trace: list | None) -> Tensor:
    """LayerNorm(x + attention of x over source, projected by wo and bo)."""
    heads = multi_head_attention(x, source, params, prefix, cfg, rng, trace)
    return ad.project_add_norm(heads, params[f"{prefix}.wo"], params[f"{prefix}.bo"], x, params[f"{norm}.g"],
                               params[f"{norm}.b"])


def _ffn_add_norm(x: Tensor, params: dict[str, Tensor], prefix: str, norm: str, cfg: PfConfig,
                  rng: np.random.Generator | None) -> Tensor:
    """LayerNorm(x + FFN(x))."""
    weights = (params[f"{prefix}.{key}"] for key in ("w1", "b1", "w2", "b2"))
    return ad.ffn_add_norm(x, *weights, params[f"{norm}.g"], params[f"{norm}.b"],
                           0.0 if rng is None else cfg.dropout_rate, rng)


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
        x = _attention_add_norm(x, x, params, f"enc.{i}.attn", f"enc.{i}.ln1", cfg, rng, trace)
        x = _ffn_add_norm(x, params, f"enc.{i}.ffn", f"enc.{i}.ln2", cfg, rng)
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
        y = _attention_add_norm(y, y, params, f"dec.{i}.self", f"dec.{i}.ln1", cfg, rng, trace)
        y = _attention_add_norm(y, memory, params, f"dec.{i}.cross", f"dec.{i}.ln2", cfg, rng, trace)
        y = _ffn_add_norm(y, params, f"dec.{i}.ffn", f"dec.{i}.ln3", cfg, rng)
    return y


def _embed(windows: np.ndarray, ts_features: np.ndarray, params: dict[str, Tensor],
           cfg: PfConfig) -> tuple[Tensor, Tensor, Tensor | None]:
    """Encoder input, decoder input and the auxiliary forecast of one batch.

    efe_aee: lag-feature embedding for the encoder; the autoencoder's
    hidden sequence for the decoder, and its short-term head as the
    auxiliary forecast. Ablation modes: a per-step linear map of the
    m-vector for the encoder and learned start tokens for the decoder, plus
    the sinusoidal table in position_token mode; there is no auxiliary
    forecast (None).
    """
    if cfg.embedding_mode == "efe_aee":
        enc_in = efe_mod.embed_sequence(windows, params["efe.w"], params["efe.b"], cfg.s_efe)
        dec_in = aee_mod.decode(aee_mod.encode(windows, params), ts_features, params)
        return enc_in, dec_in, aee_mod.aux_head(dec_in, params["aee.head.w"], params["aee.head.b"])

    B = windows.shape[0]
    cols = np.swapaxes(windows, 1, 2)  # (B, t, m)
    enc_in = ad.linear(ad.tensor(cols), params["tok.w"], params["tok.b"])
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
    features.

    Returns (yhat, yaux), both (B, h). In the ablation modes yaux is a
    constant zero tensor and the fused output is the decoder head alone.
    Dropout runs only when ``training``; it then draws from ``rng``, and
    without a generator a nonzero ``cfg.dropout_rate`` raises ContractError.
    Inputs of another shape raise DimensionError, in every embedding mode;
    non-finite inputs raise ContractError.
    """
    if windows.ndim != 3 or windows.shape[1:] != (cfg.m, cfg.t):
        raise ad.DimensionError(f"window batch {windows.shape} does not match (m, t) = ({cfg.m}, {cfg.t})")
    want = (windows.shape[0], cfg.h, aee_mod.TIMESTAMP_FEATURE_WIDTH)
    if ts_features.shape != want:
        raise ad.DimensionError(f"time-stamp features {ts_features.shape} do not match (B, h, width) = {want}")
    if not (np.isfinite(windows).all() and np.isfinite(ts_features).all()):
        raise ad.ContractError("forward: windows and time-stamp features must be finite")
    if training and rng is None and cfg.dropout_rate > 0:
        raise ad.ContractError("forward: training with dropout needs a numpy Generator, got None")
    rng = rng if training else None

    enc_in, dec_in, yaux = _embed(windows, ts_features, params, cfg)
    memory = encoder_forward(enc_in, params, cfg, rng, trace)
    dec_out = decoder_forward(dec_in, memory, params, cfg, rng, trace)
    out = ad.linear(dec_out, params["head.w"], params["head.b"])
    yhat = ad.reshape(out, out.shape[:-1])
    if yaux is None:
        return yhat, ad.tensor(np.zeros(yhat.shape))
    return ad.add(yhat, yaux), yaux


# ---------------------------------------------------------------------------
# checkpoints


def _check_params(cfg: PfConfig, arrays: dict[str, np.ndarray]) -> None:
    """Raise CheckpointError naming the first parameter, in name order, that
    ``cfg`` gives and ``arrays`` lacks or the reverse, whose shape is not the
    one ``cfg`` gives, that is not float64, or that holds a NaN or infinite
    value."""
    shapes = _param_shapes(cfg)
    stray = sorted(arrays.keys() ^ shapes.keys())
    if stray:
        where = "is not in its config" if stray[0] in arrays else "of its config is missing"
        raise CheckpointError(f"parameter {stray[0]} {where}")
    for name in sorted(arrays):
        if arrays[name].shape != shapes[name]:
            raise CheckpointError(f"parameter {name} has shape {arrays[name].shape}, its config gives {shapes[name]}")
        if arrays[name].dtype != np.float64:
            raise CheckpointError(f"parameter {name} has dtype {arrays[name].dtype}, not float64")
        if not np.isfinite(arrays[name]).all():
            raise CheckpointError(f"parameter {name} has non-finite values")


def save_checkpoint(path, cfg: PfConfig, params: dict[str, Tensor]) -> None:
    """Write a format-5 archive whose bytes depend only on ``cfg`` and the
    values. A parameter that ``_check_params`` rejects raises CheckpointError
    naming it, and no file is written. A synced temporary file beside ``path``
    (beside its target if it is a symlink) takes the old file's permission
    bits and is renamed over it, and the directory is synced, so a failed or
    interrupted save leaves the previous file whole. The owner is not kept."""
    arrays = {name: params[name].values for name in sorted(params)}
    _check_params(cfg, arrays)
    header = json.dumps({"format": CHECKPOINT_FORMAT, "format_version": CHECKPOINT_VERSION, "config": cfg.to_dict()})
    path = os.path.realpath(path)  # replace a symlink's target, not the link
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    with open(tmp, "xb") as fh:
        try:
            if os.path.exists(path):
                os.chmod(tmp, os.stat(path).st_mode & 0o7777)
            np.savez(fh, header=np.array(header), **arrays)  # a file object: savez adds .npz to a path
            fh.flush()
            os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.remove(tmp)
            raise
    fd = os.open(os.path.dirname(path), os.O_RDONLY)
    try:
        os.fsync(fd)  # the rename survives a power loss
    finally:
        os.close(fd)


def load_checkpoint(path) -> tuple[PfConfig, dict[str, Tensor]]:
    """Load and verify a checkpoint. A file that is not a format-5 archive,
    is truncated or corrupted, or has a bad config or a parameter that
    ``_check_params`` rejects raises CheckpointError."""
    try:
        with open(path, "rb") as fh:
            # np.load returns a .npy file's array, and calls any other file a pickle
            if fh.read(4) != b"PK\x03\x04":
                raise zipfile.BadZipFile("not a zip archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                members = {name: np.asarray(archive[name]) for name in archive.files}  # bytes for a non-.npy member
    # BadZipFile: also a CRC-32 mismatch; MemoryError: a member's header claims more values than memory holds
    except (OSError, ValueError, EOFError, MemoryError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from None
    try:
        header = json.loads(members.pop("header").item())
    except (KeyError, TypeError, ValueError):
        header = None
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a checkpoint file")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {header.get('format_version')}")
    try:
        cfg = PfConfig.from_dict(header.get("config"))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed config in {path}: {exc}") from None
    _check_params(cfg, members)
    return cfg, {name: ad.parameter(values) for name, values in members.items()}
