import gc
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
import weakref
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakcast import autodiff as ad
from peakcast import model
from peakcast.model import CheckpointError, PfConfig

from gradcheck import finite_diff_check, softmax_attention


def toy_cfg(mode="efe_aee", **kw):
    """Small geometry: every layer and the AEE are 4 wide."""
    base = dict(d_model=4, n_heads=2, n_enc_layers=1, n_dec_layers=1, ffn_width=6, t=8, h=3, m=2, s_efe=2,
                embedding_mode=mode)
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
    """Textbook attention in numpy: q, k and v projected by wq, wk and wv,
    and the per-head softmax of gradcheck.softmax_attention, with its
    reference keep masks when ``rng`` is given; returns the heads before
    the output projection."""
    q, k, v = (x @ params[f"{prefix}.{w}"].values for x, w in ((q_in, "wq"), (kv_in, "wk"), (kv_in, "wv")))
    heads, maps = softmax_attention(q, k, v, n_heads, rate, rng)
    trace.extend(maps)
    return heads


class TestAttention:
    @staticmethod
    def compare(n_heads, kind, rate):
        cfg = PfConfig(d_model=8, n_heads=n_heads, t=7, h=5, dropout_rate=rate)
        params = model.init_params(cfg, 1)
        prefix = "dec.0.self" if kind == "self" else "dec.0.cross"
        rng = np.random.default_rng(2)
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

    # 1-row blocks, and 2-row blocks that leave a 1-row tail of the 5 query rows
    @pytest.mark.parametrize("rows", [1, 2], ids=["one_row", "uneven_tail"])
    @pytest.mark.parametrize("rate", [0.0, 0.3], ids=["no_dropout", "dropout"])
    @pytest.mark.parametrize("kind", ["self", "cross"])
    def test_row_blocks_match_per_head_reference(self, kind, rate, rows, monkeypatch):
        t_k = 5 if kind == "self" else 7
        monkeypatch.setattr(ad, "_BLOCK_ELEMS", rows * 3 * t_k)
        self.compare(2, kind, rate)

    def test_records_four_tape_nodes(self):
        cfg = PfConfig(d_model=8, n_heads=4, t=7, h=5, dropout_rate=0.3)
        params = model.init_params(cfg, 1)
        x = ad.tensor(np.random.default_rng(2).normal(size=(2, cfg.h, 8)))
        tape = ad.Tape()
        with ad.record(tape):
            model.multi_head_attention(x, x, params, "dec.0.self", cfg, np.random.default_rng(3))
        assert len(tape) == 4  # the q, k and v projections and the heads

    def test_no_generator_means_no_dropout(self):
        # eval forwards pass no rng: attention then runs at rate 0, bit for bit
        x = ad.tensor(np.random.default_rng(2).normal(size=(2, 5, 8)))
        outs = []
        for rate in (0.0, 0.3):
            cfg = PfConfig(d_model=8, n_heads=2, t=7, h=5, dropout_rate=rate)
            outs.append(model.multi_head_attention(x, x, model.init_params(cfg, 1), "dec.0.self", cfg).values)
        assert np.array_equal(outs[0], outs[1])

    def test_width_mismatch_rejected(self):
        cfg = PfConfig(d_model=8, n_heads=2, t=7, h=5)
        params = model.init_params(cfg, 1)
        with pytest.raises(ad.DimensionError):
            model.multi_head_attention(ad.tensor(np.ones((1, 5, 8))), ad.tensor(np.ones((1, 7, 6))),
                                       params, "dec.0.cross", cfg)


class TestConfig:
    @pytest.mark.parametrize("name, value", [("n_enc_layers", -1), ("n_enc_layers", 0), ("n_dec_layers", 0)])
    def test_layer_count_below_one_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            PfConfig(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("t", 8.0), ("t", True), ("d_model", "64"), ("n_heads", None), ("dropout_rate", True),
        ("dropout_rate", "0.1"), ("embedding_mode", 1),
    ], ids=["float_for_int", "bool_for_int", "str_for_int", "none_for_int", "bool_for_float", "str_for_float",
            "int_for_str"])
    def test_wrong_type_rejected(self, name, value):
        with pytest.raises(TypeError, match=f"PfConfig.{name} must be"):
            PfConfig(**{name: value})

    def test_width_not_divisible_by_head_count_rejected(self):
        with pytest.raises(ValueError, match="d_model 6 not divisible by n_heads 4"):
            PfConfig(d_model=6, n_heads=4)

    @pytest.mark.parametrize("rate", [-0.1, 1.0, math.nan])
    def test_dropout_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match=r"dropout_rate must be in \[0, 1\)"):
            PfConfig(dropout_rate=rate)

    def test_int_stored_as_float(self):
        cfg = PfConfig(dropout_rate=0)
        assert type(cfg.dropout_rate) is float and cfg.dropout_rate == 0.0
        assert cfg == PfConfig(dropout_rate=0.0) and cfg.to_dict()["dropout_rate"] == 0.0


class TestParameters:
    def test_default_layout(self):
        params = model.init_params(PfConfig(), 0)
        assert len(params) == 58
        assert sum(p.size for p in params.values()) == 155_650
        attn = {name.rsplit(".", 1)[1] for name in params if name.startswith("enc.0.attn.")}
        assert attn == {"wq", "wk", "wv", "wo", "bo"}
        assert params["dec.0.cross.wq"].shape == (64, 64)

    def test_init_is_seeded(self):
        a, b = model.init_params(toy_cfg(), 3), model.init_params(toy_cfg(), 3)
        assert all(np.array_equal(a[k].values, b[k].values) for k in a)

    # the sha256 of every initial value, little-endian float64 in insertion
    # order: a change of parameter order, shape or init rule changes it
    @pytest.mark.parametrize("mode, digest", [
        ("efe_aee", "3fbea45972bca3017e6a6f5b5a2813da850a0401a048c10f0a10872486281aac"),
        ("position_token", "eb9782e4dd448bfc8c90fa349902ea093da307160655ef8aa4655620bcd92b97"),
        ("token_only", "eb9782e4dd448bfc8c90fa349902ea093da307160655ef8aa4655620bcd92b97"),
    ])
    def test_default_init_is_pinned(self, mode, digest):
        params = model.init_params(PfConfig(embedding_mode=mode), 0)
        blob = b"".join(np.ascontiguousarray(p.values, dtype="<f8").tobytes() for p in params.values())
        assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("cfg", [toy_cfg(), PfConfig(d_model=32)], ids=["toy", "hidden_32"])
    def test_vector_init(self, cfg):
        # zeros, except layer-norm gains (one) and LSTM forget-gate biases
        # (one on [H, 2H), where the AEE width H is d_model)
        params = model.init_params(cfg, 0)
        H = cfg.d_model
        for name, p in params.items():
            if p.values.ndim != 1:
                continue
            want = np.zeros(p.shape)
            if ".ln" in name and name.endswith(".g"):
                want[:] = 1.0
            elif name.startswith(("aee.enc.", "aee.dec.")):
                want[H:2 * H] = 1.0
            assert np.array_equal(p.values, want), name


class TestForward:
    @pytest.mark.parametrize("mode", model.EMBEDDING_MODES)
    def test_full_model_gradient_vs_finite_difference(self, mode):
        cfg = toy_cfg(mode)
        params = model.init_params(cfg, 4)
        batch = toy_batch(cfg)
        worst = 0.0
        for p in params.values():
            worst = max(worst, finite_diff_check(lambda _: loss_of(params, cfg, batch), p, eps=1e-5))
        assert worst < 1e-6, f"{mode}: max rel err {worst}"

    @pytest.mark.parametrize("mode", model.EMBEDDING_MODES)
    def test_full_model_gradient_check_stays_clear_of_relu_kinks(self, mode, monkeypatch):
        # a central difference that straddles a ReLU kink is wrong, so the
        # EFE and FFN pre-activations of the check above keep more than
        # 10 eps away from 0
        pre = []
        relu, ffn_add_norm = ad.relu, ad.ffn_add_norm

        def record_relu(x):
            pre.append(x.values)
            return relu(x)

        def record_ffn(x, w1, b1, *rest):
            pre.append(x.values @ w1.values + b1.values)
            return ffn_add_norm(x, w1, b1, *rest)

        monkeypatch.setattr(ad, "relu", record_relu)
        monkeypatch.setattr(ad, "ffn_add_norm", record_ffn)
        cfg = toy_cfg(mode)
        loss_of(model.init_params(cfg, 4), cfg, toy_batch(cfg))
        assert len(pre) == (mode == "efe_aee") + cfg.n_enc_layers + cfg.n_dec_layers
        assert min(np.abs(p).min() for p in pre) > 10 * 1e-5

    @pytest.mark.parametrize("mode", model.EMBEDDING_MODES)
    def test_output_shapes(self, mode):
        cfg = toy_cfg(mode)
        windows, ts, _ = toy_batch(cfg, batch=3)
        yhat, yaux = model.forward(windows, ts, model.init_params(cfg, 0), cfg)
        assert yhat.shape == (3, cfg.h) and yaux.shape == (3, cfg.h)
        if mode != "efe_aee":
            assert np.array_equal(yaux.values, np.zeros((3, cfg.h)))

    def test_default_training_tape_has_35_nodes(self):
        # an attention sublayer records its q, k and v projections and its
        # heads, and one node for its output projection, residual add and
        # layer norm; a feed-forward sublayer is one node, layer norm
        # included: 6 nodes per encoder layer and 11 per decoder layer,
        # where separate output-projection, add-and-norm and FFN nodes take
        # 8 and 14, and linear, relu, dropout, linear, add and layer_norm
        # nodes 13 and 20
        cfg = PfConfig()
        params = model.init_params(cfg, 0)
        tape = ad.Tape()
        with ad.record(tape):
            loss_of(params, cfg, toy_batch(cfg, batch=1), np.random.default_rng(5), training=True)
        assert len(tape) == 35

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

    def test_training_without_generator_rejected(self):
        cfg = toy_cfg(dropout_rate=0.3)
        windows, ts, _ = toy_batch(cfg)
        params = model.init_params(cfg, 0)
        with pytest.raises(ad.ContractError, match="Generator"):
            model.forward(windows, ts, params, cfg, training=True)
        # without dropout there is nothing to draw, so no generator is needed
        cfg = toy_cfg(dropout_rate=0.0)
        model.forward(windows, ts, model.init_params(cfg, 0), cfg, training=True)

    def test_gradients_equal_with_every_first_gradient_copied(self, monkeypatch):
        # every op hands the gradients it allocates to _accum without a copy;
        # copying every first gradient instead changes no bit
        cfg = toy_cfg(dropout_rate=0.3)
        batch = toy_batch(cfg)

        def grads():
            params = model.init_params(cfg, 0)
            tape = ad.Tape()
            with ad.record(tape):
                loss = loss_of(params, cfg, batch, np.random.default_rng(5), training=True)
            ad.backward(tape, loss)
            return {name: p.grad for name, p in params.items()}

        handed_over = grads()
        accum = ad._accum
        monkeypatch.setattr(ad, "_accum", lambda t, g: accum(t, g.copy()))
        copied = grads()
        assert handed_over.keys() == copied.keys()
        for name, g in copied.items():
            assert np.array_equal(handed_over[name], g), name

    @pytest.mark.parametrize("mode", model.EMBEDDING_MODES)
    def test_no_two_parameter_gradients_share_memory(self, mode):
        cfg = toy_cfg(mode, dropout_rate=0.3)
        params = model.init_params(cfg, 0)
        tape = ad.Tape()
        with ad.record(tape):
            loss = loss_of(params, cfg, toy_batch(cfg), np.random.default_rng(5), training=True)
        ad.backward(tape, loss)
        grads = [(name, p.grad) for name, p in params.items() if p.grad is not None]
        assert len(grads) > len(params) // 2
        for i, (name, g) in enumerate(grads):
            for other, h in grads[i + 1:]:
                assert not np.shares_memory(g, h), (name, other)

    def test_trace_collects_every_head(self):
        cfg = toy_cfg()
        windows, ts, _ = toy_batch(cfg)
        trace = []
        model.forward(windows, ts, model.init_params(cfg, 0), cfg, trace=trace)
        attention_blocks = cfg.n_enc_layers + 2 * cfg.n_dec_layers
        assert len(trace) == attention_blocks * cfg.n_heads
        for probs in trace:
            assert np.allclose(probs.sum(axis=-1), 1.0)

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

    def test_backward_frees_the_tape_as_it_runs(self):
        # backward drops each node once it has run, so its saved arrays go
        # while the gradients grow: the traced peak during backward stays
        # close to what the forward left alive, not that plus every gradient
        cfg = toy_cfg(dropout_rate=0.3, t=24, h=8, d_model=8, ffn_width=16)
        params = model.init_params(cfg, 0)
        batch = toy_batch(cfg, batch=4)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tape = ad.Tape()
            with ad.record(tape):
                loss = loss_of(params, cfg, batch, np.random.default_rng(5), training=True)
            held = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            ad.backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1.4 * held, (peak, held)

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

    def test_table_is_built_once_and_read_only(self):
        pe = model.sinusoidal_positions(6, 4)
        values = pe.copy()
        assert model.sinusoidal_positions(6, 4) is pe
        assert not pe.flags.writeable
        with pytest.raises(ValueError):
            pe[0, 0] = 1.0
        assert np.array_equal(pe, values)

    def test_position_token_mode_at_odd_width(self):
        cfg = toy_cfg("position_token", d_model=5, n_heads=1)
        windows, ts, _ = toy_batch(cfg)
        yhat, _ = model.forward(windows, ts, model.init_params(cfg, 0), cfg)
        assert yhat.shape == (2, cfg.h) and np.isfinite(yhat.values).all()


def npy_bytes(values):
    buf = io.BytesIO()
    np.save(buf, values)
    return buf.getvalue()


SAVE_SCRIPT = """
import json, sys
from peakcast import model
cfg = model.PfConfig.from_dict(json.loads(sys.argv[2]))
model.save_checkpoint(sys.argv[1], cfg, model.init_params(cfg, 7))
"""


def configs():
    """Every embedding mode, over a range of sizes."""
    sizes = st.integers(1, 10_000)
    heads = st.integers(1, 16)
    return heads.flatmap(lambda n: st.builds(
        PfConfig, d_model=st.integers(1, 64).map(lambda k: k * n), n_heads=st.just(n), n_enc_layers=sizes,
        n_dec_layers=sizes, ffn_width=sizes, t=sizes, h=sizes, m=sizes, s_efe=sizes,
        embedding_mode=st.sampled_from(model.EMBEDDING_MODES),
        dropout_rate=st.floats(0.0, 1.0, exclude_max=True)))


class TestConfigDict:
    @settings(max_examples=200)
    @given(configs())
    def test_json_round_trip(self, cfg):
        assert PfConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_config_dict_is_flat(self):
        d = toy_cfg().to_dict()
        assert len(d) == 11 and d["s_efe"] == 2
        assert all(type(v) in (int, float, str) for v in d.values())

    def test_int_passes_for_float(self):
        cfg = PfConfig.from_dict(toy_cfg().to_dict() | {"dropout_rate": 0})
        assert type(cfg.dropout_rate) is float and cfg.dropout_rate == 0.0


class TestCheckpoint:
    @pytest.fixture
    def saved(self, tmp_path):
        cfg = toy_cfg()
        params = model.init_params(cfg, 7)
        path = tmp_path / "ckpt.npz"
        model.save_checkpoint(path, cfg, params)
        return path, cfg, params

    @staticmethod
    def rewrite(path, edit):
        """Rewrite the archive at ``path`` after ``edit`` on its JSON header,
        with the parameter members under "params"; the new archive's CRC-32s
        match its members."""
        with np.load(path) as archive:
            doc = json.loads(archive["header"].item()) | {"params": {n: archive[n] for n in archive.files}}
        doc["params"].pop("header")
        edit(doc)
        params = doc.pop("params")
        with open(path, "wb") as fh:
            np.savez(fh, header=np.array(json.dumps(doc)), **params)

    def test_round_trip_reproduces_forecasts(self, saved):
        path, cfg, params = saved
        loaded_cfg, loaded = model.load_checkpoint(path)
        assert loaded_cfg == cfg
        windows, ts, _ = toy_batch(cfg)
        want = model.forward(windows, ts, params, cfg)
        got = model.forward(windows, ts, loaded, loaded_cfg)
        assert np.array_equal(got[0].values, want[0].values)
        assert np.array_equal(got[1].values, want[1].values)

    def test_file_is_a_numpy_archive(self, saved):
        path, cfg, params = saved
        with np.load(path, allow_pickle=False) as archive:
            assert archive.files == ["header", *sorted(params)]
            assert json.loads(archive["header"].item()) == {
                "format": "peakcast-checkpoint", "format_version": 5, "config": cfg.to_dict()}
            assert all(np.array_equal(archive[name], p.values) for name, p in params.items())

    def test_interrupted_save_keeps_the_old_file(self, saved, monkeypatch):
        path, cfg, params = saved
        before = path.read_bytes()
        savez = np.savez

        def half_savez(fh, **members):
            buf = io.BytesIO()
            savez(buf, **members)
            fh.write(buf.getvalue()[:len(buf.getvalue()) // 2])
            raise KeyboardInterrupt

        monkeypatch.setattr(model.np, "savez", half_savez)
        changed = {name: ad.parameter(p.values + 1.0) for name, p in params.items()}
        with pytest.raises(KeyboardInterrupt):
            model.save_checkpoint(path, cfg, changed)
        assert path.read_bytes() == before
        assert list(path.parent.iterdir()) == [path]
        _, loaded = model.load_checkpoint(path)
        assert all(np.array_equal(loaded[name].values, p.values) for name, p in params.items())

    def test_save_syncs_the_directory_after_the_rename(self, saved, monkeypatch):
        path, cfg, params = saved
        events = []
        fsync, replace = os.fsync, os.replace

        def record_fsync(fd):
            events.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")
            fsync(fd)

        def record_replace(src, dst):
            events.append("replace")
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", record_fsync)
        monkeypatch.setattr(os, "replace", record_replace)
        model.save_checkpoint(path, cfg, params)
        assert events == ["fsync file", "replace", "fsync dir"]

    def test_save_keeps_the_old_files_permission_bits(self, saved):
        path, cfg, params = saved
        path.chmod(0o600)
        model.save_checkpoint(path, cfg, params)
        assert path.stat().st_mode & 0o7777 == 0o600

    def test_save_through_a_symlink_replaces_its_target(self, saved):
        path, cfg, params = saved
        link = path.parent / "link.npz"
        link.symlink_to(path.name)
        changed = {name: ad.parameter(p.values + 1.0) for name, p in params.items()}
        model.save_checkpoint(link, cfg, changed)
        assert link.is_symlink() and os.readlink(link) == path.name
        _, loaded = model.load_checkpoint(path)
        assert all(np.array_equal(loaded[name].values, p.values) for name, p in changed.items())
        assert sorted(path.parent.iterdir()) == sorted([path, link])

    def test_file_is_independent_of_hash_seed(self, saved, tmp_path):
        path, cfg, _ = saved
        src = str(Path(model.__file__).parents[1])
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            out = tmp_path / f"seed{seed}.npz"
            subprocess.run([sys.executable, "-c", SAVE_SCRIPT, str(out), json.dumps(cfg.to_dict())],
                           env=env, check=True, timeout=60)
            assert out.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_old_version_rejected(self, saved, version):
        path = saved[0]
        self.rewrite(path, lambda doc: doc.update(format_version=version))
        with pytest.raises(CheckpointError, match="unsupported checkpoint version"):
            model.load_checkpoint(path)

    def test_corrupted_data_rejected(self, saved):
        path, _, params = saved
        data = bytearray(path.read_bytes())
        data[data.index(params["head.w"].values.tobytes()) + 3] ^= 0x10
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="Bad CRC-32"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["config"].pop("d_model"),
        lambda doc: doc.update(config=None),
        lambda doc: doc["config"].update(n_heads=0),
        lambda doc: doc["config"].update(t="long"),
        lambda doc: doc["config"].update(n_enc_layers=-1),
        lambda doc: doc["config"].update(n_dec_layers=0),
        lambda doc: doc["config"].update(d_model=4.0),
        lambda doc: doc["config"].update(n_heads=True),
        lambda doc: doc["config"].update(t="8"),
        lambda doc: doc["config"].update(embedding_mode=1),
        lambda doc: doc["config"].update(extra=1),
        lambda doc: doc["config"].update(s_efe={"s_efe": 2}),
        # the version-3 layout, with nested efe and aee configs
        lambda doc: doc["config"].update(efe={"s_efe": doc["config"].pop("s_efe")}, aee={"hidden": 4, "layers": 1}),
        lambda doc: doc["config"].update(embedding_mode="gelu"),
    ], ids=["missing_key", "null", "zero_heads", "non_numeric", "no_encoder_layer", "no_decoder_layer",
            "float_for_int", "bool_for_int", "numeric_string", "int_for_str", "extra_key",
            "dict_for_int", "nested_layout", "unknown_embedding_mode"])
    def test_malformed_config_rejected(self, saved, edit):
        path = saved[0]
        self.rewrite(path, edit)
        with pytest.raises(CheckpointError, match="malformed config"):
            model.load_checkpoint(path)

    def test_malformed_param_entry_rejected(self, saved):
        path = saved[0]
        self.rewrite(path, lambda doc: doc["params"].update({"head.b": doc["params"]["head.b"].astype(np.float32)}))
        with pytest.raises(CheckpointError, match="head.b has dtype float32, not float64"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc["params"].update({"aee.dec.u": doc["params"]["aee.dec.u"].ravel()[:-12]}),
         r"aee.dec.u has shape \(52,\), its config gives \(4, 16\)"),
        (lambda doc: doc["params"].pop("aee.dec.u"), "aee.dec.u of its config is missing"),
        (lambda doc: doc["params"].update(extra=doc["params"]["head.b"]), "extra is not in its config"),
    ], ids=["truncated", "missing", "extra"])
    def test_bad_tensor_rejected_despite_valid_checksum(self, saved, edit, match):
        path = saved[0]
        self.rewrite(path, edit)
        with pytest.raises(CheckpointError, match=match):
            model.load_checkpoint(path)

    def test_member_that_is_not_an_array_rejected(self, saved):
        path = saved[0]
        with zipfile.ZipFile(path, "a") as archive:
            archive.writestr("notes.txt", b"hello")
        with pytest.raises(CheckpointError, match="notes.txt is not in its config"):
            model.load_checkpoint(path)

    def test_member_claiming_more_values_than_memory_rejected(self, saved):
        path = saved[0]
        member = io.BytesIO()
        np.lib.format.write_array_header_1_0(member, {"descr": "<f8", "fortran_order": False, "shape": (10 ** 13,)})
        with zipfile.ZipFile(path, "a") as archive:
            archive.writestr("huge.npy", member.getvalue() + bytes(8))
        with pytest.raises(CheckpointError, match="unreadable checkpoint"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("edit, name", [
        (lambda params: params.update(extra=ad.parameter(np.zeros(3))), "extra"),
        (lambda params: params.pop("aee.dec.u"), "aee.dec.u"),
        (lambda params: params.update({"head.w": ad.parameter(np.zeros((1, 4)))}), "head.w"),
        (lambda params: setattr(params["head.w"], "values", params["head.w"].values.astype(np.float32)),
         "head.w has dtype float32"),
    ], ids=["extra", "missing", "transposed", "float32"])
    def test_params_not_matching_config_rejected_on_save(self, tmp_path, edit, name):
        cfg = toy_cfg()
        params = model.init_params(cfg, 7)
        edit(params)
        path = tmp_path / "ckpt.npz"
        with pytest.raises(CheckpointError, match=name):
            model.save_checkpoint(path, cfg, params)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg_inf"])
    def test_non_finite_parameter_rejected_on_save(self, tmp_path, value):
        cfg = toy_cfg()
        params = model.init_params(cfg, 7)
        params["head.w"].values[1, 0] = value
        path = tmp_path / "ckpt.npz"
        with pytest.raises(CheckpointError, match="head.w"):
            model.save_checkpoint(path, cfg, params)
        assert not path.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg_inf"])
    def test_non_finite_parameter_rejected_on_load(self, saved, value):
        path = saved[0]
        self.rewrite(path, lambda doc: doc["params"]["head.w"].__setitem__((1, 0), value))
        with pytest.raises(CheckpointError, match="head.w has non-finite values"):
            model.load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, x=np.zeros(3))
        with pytest.raises(CheckpointError, match="is not a checkpoint file"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        np.array("{"), np.array("[1, 2]"), np.array(json.dumps({"format": "other", "format_version": 5})),
        np.zeros(2), np.array(1.5),
    ], ids=["not_json", "json_list", "other_format", "two_floats", "float"])
    def test_bad_header_rejected(self, saved, header):
        path, _, params = saved
        with open(path, "wb") as fh:
            np.savez(fh, header=header, **{name: p.values for name, p in params.items()})
        with pytest.raises(CheckpointError, match="is not a checkpoint file"):
            model.load_checkpoint(path)

    @pytest.mark.parametrize("content", [
        lambda data: b"\xff\xfe{",
        lambda data: b"{",
        lambda data: b"",
        lambda data: b"PK\x03\x04",
        lambda data: json.dumps({"format": "peakcast-checkpoint", "format_version": 4}).encode(),
        lambda data: npy_bytes(np.zeros(3)),
        lambda data: data[:10],
        lambda data: data[:len(data) // 2],
        lambda data: data[:-1],
    ], ids=["not_utf8", "truncated_json", "empty", "zip_magic_only", "version_4_json", "npy",
            "cut_in_first_header", "cut_in_half", "cut_last_byte"])
    def test_unreadable_file_rejected(self, saved, content):
        path = saved[0]
        path.write_bytes(content(path.read_bytes()))
        with pytest.raises(CheckpointError, match="unreadable checkpoint"):
            model.load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="unreadable checkpoint"):
            model.load_checkpoint(tmp_path / "absent.npz")
