import gc
import json
import math
import weakref

import numpy as np
import pytest

from peakcast import autodiff as ad
from peakcast import model
from peakcast.aee import AeeConfig
from peakcast.efe import EfeConfig
from peakcast.model import CheckpointError, PfConfig


def toy_cfg(mode="efe_aee", **kw):
    """Small geometry; AEE hidden != d_model so the projection runs too."""
    base = dict(d_model=4, n_heads=2, n_enc_layers=1, n_dec_layers=1, ffn_width=6, t=8, h=3, m=2,
                efe=EfeConfig(s_efe=2, activation="tanh"), aee=AeeConfig(hidden=3), embedding_mode=mode)
    base.update(kw)
    return PfConfig(**base)


def toy_batch(cfg, batch=2, seed=0):
    rng = np.random.default_rng(seed)
    windows = rng.normal(size=(batch, cfg.m, cfg.t))
    ts = rng.uniform(-1.0, 1.0, size=(batch, cfg.h, 5))
    truth = ad.tensor(rng.normal(size=(batch, cfg.h)))
    return windows, ts, truth


def loss_of(params, cfg, batch, rng=None, training=False):
    windows, ts, truth = batch
    yhat, yaux = model.forward(windows, ts, params, cfg, rng, training=training)
    return ad.add(ad.rmse(yhat, truth), ad.rmse(yaux, truth))


def reference_attention(q_in, kv_in, params, prefix, n_heads, trace, rate=0.0, rng=None):
    """Textbook per-head attention in numpy; head i owns column block i of wq/wk/wv.
    With ``rng``, each head's weights go through inverted dropout, one mask per
    head drawn in head order."""
    d = q_in.shape[-1]
    d_head = d // n_heads
    heads = []
    for i in range(n_heads):
        cols = slice(i * d_head, (i + 1) * d_head)
        q = q_in @ params[f"{prefix}.wq"].values[:, cols]
        k = kv_in @ params[f"{prefix}.wk"].values[:, cols]
        v = kv_in @ params[f"{prefix}.wv"].values[:, cols]
        scores = q @ np.swapaxes(k, -1, -2) / math.sqrt(d_head)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs = e / e.sum(axis=-1, keepdims=True)
        trace.append(probs)
        if rng is not None:
            probs = probs * ((rng.random(probs.shape) >= rate) / (1.0 - rate))
        heads.append(probs @ v)
    return np.concatenate(heads, axis=-1) @ params[f"{prefix}.wo"].values + params[f"{prefix}.bo"].values


class TestAttention:
    @staticmethod
    def compare(n_heads, kind, rate):
        cfg = PfConfig(d_model=8, n_heads=n_heads, t=7, h=5, dropout_rate=rate)
        params = model.init_params(cfg, 1)
        prefix = "dec.0.self" if kind == "self" else "dec.0.cross"
        rng = np.random.default_rng(2)
        params[f"{prefix}.bo"].values[:] = rng.normal(size=8)
        x = rng.normal(size=(3, cfg.h, 8))
        kv = x if kind == "self" else rng.normal(size=(3, cfg.t, 8))
        got_rng, want_rng = (np.random.default_rng(3), np.random.default_rng(3)) if rate > 0 else (None, None)
        got_trace, want_trace = [], []
        got = model.multi_head_attention(ad.tensor(x), ad.tensor(kv), params, prefix, cfg, got_rng, got_trace)
        want = reference_attention(x, kv, params, prefix, n_heads, want_trace, rate, want_rng)
        assert got.shape == (3, cfg.h, 8)
        assert np.max(np.abs(got.values - want)) <= 1e-10
        assert len(got_trace) == n_heads
        for g, w in zip(got_trace, want_trace):
            assert g.shape == (3, cfg.h, kv.shape[1])
            assert np.max(np.abs(g - w)) <= 1e-10
        return got.values

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["self", "cross"])
    def test_matches_per_head_reference(self, n_heads, kind):
        self.compare(n_heads, kind, 0.0)

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("kind", ["self", "cross"])
    def test_dropout_matches_per_head_reference(self, n_heads, kind):
        dropped = self.compare(n_heads, kind, 0.3)
        assert not np.allclose(dropped, self.compare(n_heads, kind, 0.0))

    def test_records_at_most_six_tape_nodes(self):
        cfg = PfConfig(d_model=8, n_heads=4, t=7, h=5, dropout_rate=0.3)
        params = model.init_params(cfg, 1)
        x = ad.tensor(np.random.default_rng(2).normal(size=(2, cfg.h, 8)))
        tape = ad.Tape()
        with ad.record(tape):
            model.multi_head_attention(x, x, params, "dec.0.self", cfg, np.random.default_rng(3))
        assert len(tape) <= 6

    def test_width_mismatch_rejected(self):
        cfg = PfConfig(d_model=8, n_heads=2, t=7, h=5)
        params = model.init_params(cfg, 1)
        with pytest.raises(ad.DimensionError):
            model.multi_head_attention(ad.tensor(np.ones((1, 5, 8))), ad.tensor(np.ones((1, 7, 6))),
                                       params, "dec.0.cross", cfg)


class TestParameters:
    def test_default_layout(self):
        params = model.init_params(PfConfig(), 0)
        assert len(params) == 58
        assert model.param_count(params) == 155_650
        attn = {name.rsplit(".", 1)[1] for name in params if name.startswith("enc.0.attn.")}
        assert attn == {"wq", "wk", "wv", "wo", "bo"}
        assert params["dec.0.cross.wq"].shape == (64, 64)

    def test_init_is_seeded(self):
        a, b = model.init_params(toy_cfg(), 3), model.init_params(toy_cfg(), 3)
        assert all(np.array_equal(a[k].values, b[k].values) for k in a)


class TestForward:
    @pytest.mark.parametrize("mode", model.EMBEDDING_MODES)
    def test_full_model_gradient_vs_finite_difference(self, mode):
        cfg = toy_cfg(mode)
        params = model.init_params(cfg, 4)
        batch = toy_batch(cfg)
        worst = 0.0
        for p in params.values():
            worst = max(worst, ad.finite_diff_check(lambda _: loss_of(params, cfg, batch), p, eps=1e-5))
        assert worst < 1e-6, f"{mode}: max rel err {worst}"

    @pytest.mark.parametrize("mode", model.EMBEDDING_MODES)
    def test_output_shapes(self, mode):
        cfg = toy_cfg(mode)
        windows, ts, _ = toy_batch(cfg, batch=3)
        yhat, yaux = model.forward(windows, ts, model.init_params(cfg, 0), cfg)
        assert yhat.shape == (3, cfg.h) and yaux.shape == (3, cfg.h)
        if mode != "efe_aee":
            assert np.array_equal(yaux.values, np.zeros((3, cfg.h)))

    def test_training_forward_is_seeded(self):
        cfg = toy_cfg(dropout_rate=0.3)
        params = model.init_params(cfg, 0)
        windows, ts, _ = toy_batch(cfg)

        def run(seed, training=True):
            return model.forward(windows, ts, params, cfg, np.random.default_rng(seed), training=training)[0].values

        assert np.array_equal(run(5), run(5))
        assert not np.array_equal(run(5), run(6))
        eval_out = model.forward(windows, ts, params, cfg)[0].values
        assert np.array_equal(run(5, training=False), eval_out)
        assert not np.array_equal(run(5), eval_out)

    def test_trace_collects_every_head(self):
        cfg = toy_cfg()
        windows, ts, _ = toy_batch(cfg)
        trace = []
        model.forward(windows, ts, model.init_params(cfg, 0), cfg, trace=trace)
        attention_blocks = cfg.n_enc_layers + 2 * cfg.n_dec_layers
        assert len(trace) == attention_blocks * cfg.n_heads
        for probs in trace:
            assert np.allclose(probs.sum(axis=-1), 1.0)

    def test_single_window_is_batched(self):
        cfg = toy_cfg()
        windows, ts, _ = toy_batch(cfg, batch=1)
        params = model.init_params(cfg, 0)
        batched = model.forward(windows, ts, params, cfg)[0].values
        single = model.forward(windows[0], ts[0], params, cfg)[0].values
        assert np.array_equal(batched, single)

    def test_window_shape_checked(self):
        cfg = toy_cfg()
        with pytest.raises(ad.DimensionError):
            model.forward(np.zeros((1, cfg.m, cfg.t + 1)), np.zeros((1, cfg.h, 5)), model.init_params(cfg, 0), cfg)

    @pytest.mark.parametrize("mode", model.EMBEDDING_MODES)
    @pytest.mark.parametrize("shape", [(2, 5, 5), (2, 3, 4), (1, 3, 5), (3, 5)], ids=["horizon", "width", "batch", "2d"])
    def test_timestamp_feature_shape_checked(self, mode, shape):
        cfg = toy_cfg(mode)
        windows, _, _ = toy_batch(cfg)
        with pytest.raises(ad.DimensionError, match="time-stamp features"):
            model.forward(windows, np.zeros(shape), model.init_params(cfg, 0), cfg)

    def test_nan_window_rejected(self):
        cfg = toy_cfg()
        windows, ts, _ = toy_batch(cfg)
        windows[1, 0, 3] = np.nan
        with pytest.raises(ad.ContractError):
            model.forward(windows, ts, model.init_params(cfg, 0), cfg)

    def test_infinite_timestamp_feature_rejected(self):
        cfg = toy_cfg()
        windows, ts, _ = toy_batch(cfg)
        ts[0, 2, 1] = np.inf
        with pytest.raises(ad.ContractError):
            model.forward(windows, ts, model.init_params(cfg, 0), cfg)

    def test_step_tape_freed_without_cyclic_gc(self):
        class WeakTape(ad.Tape):
            __slots__ = ("__weakref__",)

        cfg = toy_cfg()
        params = model.init_params(cfg, 0)
        batch = toy_batch(cfg)
        gc.disable()
        try:
            tape = WeakTape()
            with ad.record(tape):
                loss = loss_of(params, cfg, batch, np.random.default_rng(0), training=True)
            ad.backward(tape, loss)
            alive = weakref.ref(tape)
            del tape, loss
            assert alive() is None
        finally:
            gc.enable()


class TestPositions:
    def test_odd_width_table(self):
        pe = model.sinusoidal_positions(4, 5)
        assert pe.shape == (4, 5)
        for pos in range(4):
            for col in range(5):
                angle = pos / 10000.0 ** ((col - col % 2) / 5)
                assert pe[pos, col] == pytest.approx(math.sin(angle) if col % 2 == 0 else math.cos(angle), abs=1e-12)

    def test_position_token_mode_at_odd_width(self):
        cfg = toy_cfg("position_token", d_model=5, n_heads=1)
        windows, ts, _ = toy_batch(cfg)
        yhat, _ = model.forward(windows, ts, model.init_params(cfg, 0), cfg)
        assert yhat.shape == (2, cfg.h) and np.isfinite(yhat.values).all()


def dec_u(doc):
    return next(e for e in doc["params"] if e["name"] == "aee.dec.0.u")


class TestCheckpoint:
    @pytest.fixture
    def saved(self, tmp_path):
        cfg = toy_cfg()
        params = model.init_params(cfg, 7)
        path = tmp_path / "ckpt.json"
        model.save_checkpoint(path, cfg, params)
        return path, cfg, params

    @staticmethod
    def rewrite(path, edit, rechecksum=False):
        doc = json.loads(path.read_text())
        edit(doc)
        if rechecksum:
            cfg = PfConfig.from_dict(doc["config"])
            doc["checksum"] = model._checksum(json.dumps(cfg.to_dict(), sort_keys=True), doc["params"])
        path.write_text(json.dumps(doc))

    def test_round_trip_reproduces_forecasts(self, saved):
        path, cfg, params = saved
        loaded_cfg, loaded = model.load_checkpoint(path)
        assert loaded_cfg == cfg
        windows, ts, _ = toy_batch(cfg)
        want = model.forward(windows, ts, params, cfg)
        got = model.forward(windows, ts, loaded, loaded_cfg)
        assert np.array_equal(got[0].values, want[0].values)
        assert np.array_equal(got[1].values, want[1].values)

    def test_version_one_rejected(self, saved):
        path = saved[0]
        self.rewrite(path, lambda doc: doc.update(format_version=1))
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            model.load_checkpoint(path)

    def test_corrupted_data_rejected(self, saved):
        path = saved[0]

        def flip(doc):
            entry = doc["params"][0]
            entry["data"] = ("A" if entry["data"][0] != "A" else "B") + entry["data"][1:]

        self.rewrite(path, flip)
        with pytest.raises(CheckpointError, match="checksum"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["config"].pop("d_model"),
        lambda doc: doc.update(config=None),
        lambda doc: doc["config"].update(n_heads=0),
        lambda doc: doc["config"].update(t="long"),
    ], ids=["missing_key", "null", "zero_heads", "non_numeric"])
    def test_malformed_config_rejected(self, saved, edit):
        path = saved[0]
        self.rewrite(path, edit)
        with pytest.raises(CheckpointError, match="malformed config"):
            model.load_checkpoint(path)

    def test_malformed_param_entry_rejected(self, saved):
        path = saved[0]
        self.rewrite(path, lambda doc: doc["params"].append({"name": 3}))
        with pytest.raises(CheckpointError):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda doc: dec_u(doc).update(shape=dec_u(doc)["shape"][::-1]),
        lambda doc: dec_u(doc).update(data=dec_u(doc)["data"][:-12]),
    ], ids=["transposed", "truncated"])
    def test_bad_tensor_rejected_despite_valid_checksum(self, saved, edit):
        path = saved[0]
        self.rewrite(path, edit, rechecksum=True)
        with pytest.raises(CheckpointError, match="aee.dec.0.u"):
            model.load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(CheckpointError):
            model.load_checkpoint(path)
