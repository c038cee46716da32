import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from peakcast import aee
from peakcast import autodiff as ad
from peakcast.data import DEFAULT_SYNTH_START

STEP = timedelta(minutes=15)


def timestamp_features_loop(issue_index, horizon, step=STEP, start=None):
    """Per-step oracle for ``timestamp_features``, on Python datetimes."""
    anchor = start if start is not None else DEFAULT_SYNTH_START
    out = np.empty((horizon, aee.TIMESTAMP_FEATURE_WIDTH))
    for k in range(horizon):
        ts = anchor + (issue_index + 1 + k) * step
        tod = (ts.hour * 3600 + ts.minute * 60 + ts.second) / 86400.0
        doy = (ts.timetuple().tm_yday - 1 + tod) / 366.0
        out[k] = (k / horizon,
                  math.sin(2 * math.pi * tod), math.cos(2 * math.pi * tod),
                  math.sin(2 * math.pi * doy), math.cos(2 * math.pi * doy))
    return out


def columns(x, lo, hi):
    """x[..., lo:hi] as a product with a 0/1 selection matrix, so the
    gradient flows back through ``ad.matmul``."""
    return ad.matmul(x, ad.tensor(np.eye(x.shape[-1])[:, lo:hi]))


def lstm_cell(x, h, c, w, u, b):
    """One recurrence step on a (B, input) slice; returns (h', c'). The
    composed-op oracle for ``ad.lstm_sequence``."""
    hidden = h.shape[-1]
    gates = ad.add_bias(ad.add(ad.matmul(x, w), ad.matmul(h, u)), b)
    i = ad.sigmoid(columns(gates, 0, hidden))
    f = ad.sigmoid(columns(gates, hidden, 2 * hidden))
    g = ad.tanh(columns(gates, 2 * hidden, 3 * hidden))
    o = ad.sigmoid(columns(gates, 3 * hidden, 4 * hidden))
    c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_new = ad.mul(o, ad.tanh(c_new))
    return h_new, c_new


def unrolled(x_seq, layers, states):
    """Run a stack of ``lstm_cell`` layers step by step over (B, T, n) values.

    ``layers`` holds (w, u, b) per layer and ``states`` the initial (h, c)
    per layer. Returns the top layer's per-step hidden states and the final
    (h, c) of every layer.
    """
    states = list(states)
    tops = []
    for k in range(x_seq.shape[1]):
        inp = ad.tensor(x_seq[:, k, :])
        for layer, (w, u, b) in enumerate(layers):
            states[layer] = lstm_cell(inp, *states[layer], w, u, b)
            inp = states[layer][0]
        tops.append(inp)
    return tops, states


def zero_params(cfg, m, feat=aee.TIMESTAMP_FEATURE_WIDTH):
    params = {}
    for layer in range(cfg.layers):
        enc_in = m if layer == 0 else cfg.hidden
        dec_in = feat if layer == 0 else cfg.hidden
        for prefix, width in (("enc", enc_in), ("dec", dec_in)):
            shapes = aee.lstm_param_shapes(width, cfg.hidden)
            for key, shape in shapes.items():
                params[f"aee.{prefix}.{layer}.{key}"] = ad.tensor(np.zeros(shape))
    return params


def random_params(cfg, m, seed=0, feat=aee.TIMESTAMP_FEATURE_WIDTH):
    rng = np.random.default_rng(seed)
    params = zero_params(cfg, m, feat)
    for key, t in params.items():
        scale = 1.0 / math.sqrt(cfg.hidden)
        params[key] = ad.parameter(rng.uniform(-scale, scale, size=t.shape))
    return params


class TestEncode:
    def test_zero_params_zero_states(self):
        cfg = aee.AeeConfig(hidden=4, layers=2)
        win = np.random.default_rng(0).normal(size=(2, 12))
        states = aee.encode(win, zero_params(cfg, 2), cfg)
        for h, c in states:
            assert np.array_equal(h.values, np.zeros((1, 4)))
            assert np.array_equal(c.values, np.zeros((1, 4)))

    def test_state_shapes(self):
        cfg = aee.AeeConfig(hidden=6, layers=2)
        win = np.zeros((3, 2, 10))  # batch of 3
        states = aee.encode(win, random_params(cfg, 2), cfg)
        assert len(states) == 2
        for h, c in states:
            assert h.shape == (3, 6) and c.shape == (3, 6)

    def test_single_cell_matches_hand_equations(self):
        # one step, scalar input 1, all weights 1, bias 0
        cfg = aee.AeeConfig(hidden=1, layers=1)
        params = zero_params(cfg, 1)
        params["aee.enc.0.w"] = ad.tensor(np.ones((1, 4)))
        params["aee.enc.0.u"] = ad.tensor(np.ones((1, 4)))
        (h, c), = aee.encode(np.ones((1, 1)), params, cfg)
        sig = 1.0 / (1.0 + math.exp(-1.0))
        c_exp = sig * math.tanh(1.0)  # f*0 + i*g
        h_exp = sig * math.tanh(c_exp)
        assert c.values[0, 0] == pytest.approx(c_exp, abs=1e-12)
        assert h.values[0, 0] == pytest.approx(h_exp, abs=1e-12)

    def test_forget_path(self):
        # second step keeps a fraction of c via the forget gate
        cfg = aee.AeeConfig(hidden=1, layers=1)
        params = zero_params(cfg, 1)
        params["aee.enc.0.w"] = ad.tensor(np.ones((1, 4)))
        params["aee.enc.0.u"] = ad.tensor(np.zeros((1, 4)))
        (h1, c1), = aee.encode(np.ones((1, 1)), params, cfg)
        (h2, c2), = aee.encode(np.ones((1, 2)), params, cfg)
        sig = 1.0 / (1.0 + math.exp(-1.0))
        c2_exp = sig * c1.values[0, 0] + sig * math.tanh(1.0)
        assert c2.values[0, 0] == pytest.approx(c2_exp, abs=1e-12)


class TestTimestampFeatures:
    def test_first_component_zero_at_origin(self):
        f = aee.timestamp_features(0, 8)
        assert f[0, 0] == 0.0
        assert np.allclose(f[:, 0], np.arange(8) / 8)

    def test_unit_circle_rows(self):
        f = aee.timestamp_features(123, 50)
        assert np.allclose(f[:, 1] ** 2 + f[:, 2] ** 2, 1.0, atol=1e-12)
        assert np.allclose(f[:, 3] ** 2 + f[:, 4] ** 2, 1.0, atol=1e-12)

    def test_daily_period(self):
        start = datetime(2021, 9, 1, tzinfo=timezone.utc)  # midnight issue
        f = aee.timestamp_features(issue_index=-1, horizon=97, step=STEP, start=start)
        assert np.allclose(f[96, 1:3], f[0, 1:3], atol=1e-9)

    def test_width(self):
        assert aee.timestamp_features(0, 4).shape == (4, aee.TIMESTAMP_FEATURE_WIDTH)

    @pytest.mark.parametrize("issue_index, horizon, step, start", [
        (0, 288, STEP, None),
        (-5000, 300, STEP, None),  # negative issue index, back across a year boundary
        (0, 120, STEP, datetime(2020, 12, 31, 23, 0, tzinfo=timezone.utc)),  # year boundary
        (3, 60, timedelta(hours=1), datetime(2024, 2, 28, 2, 30, tzinfo=timezone.utc)),  # leap day
        (10, 96, STEP, datetime(2021, 3, 1, 12, 34, 56)),  # naive anchor
        (7, 200, STEP, datetime(2021, 12, 31, 22, 0, tzinfo=timezone(timedelta(hours=5)))),  # non-UTC anchor
        (-3, 500, timedelta(seconds=7.5), datetime(2021, 12, 31, 23, 59, 30, 250_000, tzinfo=timezone.utc)),
        (120_000, 48, timedelta(milliseconds=333), datetime(2023, 12, 31, 23, 59, tzinfo=timezone.utc)),
        (-3, 200, timedelta(seconds=7.5), datetime(1969, 12, 31, 23, 59, 59, 500_000)),  # before the epoch
    ])
    def test_matches_per_step_loop(self, issue_index, horizon, step, start):
        got = aee.timestamp_features(issue_index, horizon, step=step, start=start)
        assert np.array_equal(got, timestamp_features_loop(issue_index, horizon, step, start))


class TestDecode:
    def run(self, cfg, seed=1, batch=2, horizon=5, m=2):
        params = random_params(cfg, m, seed)
        win = np.random.default_rng(seed + 1).normal(size=(batch, m, 9))
        latents = aee.encode(win, params, cfg)
        ts = np.stack([aee.timestamp_features(10 + i, horizon) for i in range(batch)])
        return aee.decode(latents, ts, params, cfg), latents, params

    def test_output_shape(self):
        cfg = aee.AeeConfig(hidden=7, layers=2)
        out, _, _ = self.run(cfg, horizon=5)
        assert out.shape == (2, 5, 7)

    def test_zero_params_zero_embedding(self):
        cfg = aee.AeeConfig(hidden=3, layers=1)
        params = zero_params(cfg, 2)
        latents = aee.encode(np.zeros((1, 2, 6)), params, cfg)
        ts = aee.timestamp_features(0, 4)[None, ...]
        out = aee.decode(latents, ts, params, cfg)
        assert np.array_equal(out.values, np.zeros((1, 4, 3)))

    def test_latent_sensitivity_at_first_row(self):
        cfg = aee.AeeConfig(hidden=4, layers=1)
        params = random_params(cfg, 2, seed=3)
        win = np.random.default_rng(4).normal(size=(1, 2, 8))
        ts = aee.timestamp_features(5, 6)[None, ...]
        base = aee.decode(aee.encode(win, params, cfg), ts, params, cfg).values
        bumped = aee.encode(win + 1.0, params, cfg)
        out = aee.decode(bumped, ts, params, cfg).values
        assert not np.allclose(out[0, 0], base[0, 0])

    def test_no_target_values_enter_decoder(self):
        # decoding depends only on latents and time stamps: replaying with a
        # different window but identical latents gives identical output
        cfg = aee.AeeConfig(hidden=4, layers=1)
        params = random_params(cfg, 2, seed=5)
        win = np.random.default_rng(6).normal(size=(1, 2, 8))
        latents = aee.encode(win, params, cfg)
        ts = aee.timestamp_features(3, 5)[None, ...]
        a = aee.decode(latents, ts, params, cfg).values
        b = aee.decode(latents, ts, params, cfg).values
        assert np.array_equal(a, b)

    def test_latent_count_must_match_layers(self):
        cfg = aee.AeeConfig(hidden=3, layers=2)
        params = random_params(cfg, 2)
        latents = aee.encode(np.zeros((1, 2, 6)), params, cfg)
        ts = aee.timestamp_features(0, 4)[None, ...]
        for wrong in (latents[:1], latents + latents[:1]):
            with pytest.raises(ad.DimensionError, match="latent"):
                aee.decode(wrong, ts, params, cfg)


def _layers(params, branch, cfg):
    return [tuple(params[f"aee.{branch}.{layer}.{k}"] for k in ("w", "u", "b")) for layer in range(cfg.layers)]


@pytest.mark.parametrize("layers", [1, 2])
def test_fused_recurrence_matches_unrolled_cells(layers):
    # B=3, t=7 encoder steps, h=4 decoder steps; the loss reads the decoder
    # output and every encoder latent, so h_seq and c_T both carry gradient
    cfg = aee.AeeConfig(hidden=5, layers=layers)
    params = random_params(cfg, 2, seed=11)
    rng = np.random.default_rng(12)
    win = rng.normal(size=(3, 2, 7))
    ts = np.stack([aee.timestamp_features(40 + 9 * i, 4) for i in range(3)])
    w_out = rng.normal(size=(3, 4, cfg.hidden))
    w_lat = rng.normal(size=(layers, 2, 3, cfg.hidden))

    def run(fused):
        for p in params.values():
            p.zero_grad()
        tape = ad.Tape()
        with ad.record(tape):
            if fused:
                latents = aee.encode(win, params, cfg)
                out = aee.decode(latents, ts, params, cfg)
                terms = [ad.mul(out, ad.tensor(w_out))]
                out_values = out.values
            else:
                zeros = ad.tensor(np.zeros((3, cfg.hidden)))
                _, latents = unrolled(np.swapaxes(win, 1, 2), _layers(params, "enc", cfg), [(zeros, zeros)] * layers)
                tops, _ = unrolled(ts, _layers(params, "dec", cfg), latents)
                terms = [ad.mul(h, ad.tensor(w_out[:, k])) for k, h in enumerate(tops)]
                out_values = np.stack([h.values for h in tops], axis=1)
            terms += [ad.mul(t, ad.tensor(w_lat[layer, j]))
                      for layer, state in enumerate(latents) for j, t in enumerate(state)]
            loss = ad.sum_all(terms[0])
            for t in terms[1:]:
                loss = ad.add(loss, ad.sum_all(t))
        ad.backward(tape, loss)
        lat_values = [t.values for state in latents for t in state]
        return loss.item(), out_values, lat_values, {k: p.grad.copy() for k, p in params.items()}

    loss_f, out_f, lat_f, grads_f = run(True)
    loss_u, out_u, lat_u, grads_u = run(False)
    assert abs(loss_f - loss_u) <= 1e-10
    assert np.abs(out_f - out_u).max() <= 1e-10
    for a, b in zip(lat_f, lat_u):
        assert np.abs(a - b).max() <= 1e-10
    assert grads_f.keys() == grads_u.keys()
    for key in grads_f:
        assert np.abs(grads_f[key] - grads_u[key]).max() <= 1e-10, key


@pytest.mark.parametrize("layers", [1, 2])
def test_encode_and_decode_record_at_most_two_nodes_per_layer(layers):
    cfg = aee.AeeConfig(hidden=4, layers=layers)
    params = random_params(cfg, 2)
    tape = ad.Tape()
    with ad.record(tape):
        latents = aee.encode(np.ones((2, 2, 50)), params, cfg)
        n_encode = len(tape)
        aee.decode(latents, np.stack([aee.timestamp_features(0, 20)] * 2), params, cfg)
    assert n_encode <= 2 * layers
    assert len(tape) - n_encode <= 2 * layers


class TestAuxHead:
    def test_zero_head(self):
        emb = ad.tensor(np.random.default_rng(0).normal(size=(2, 6, 4)))
        out = aee.aux_head(emb, ad.tensor(np.zeros((4, 1))), ad.tensor(np.zeros(1)))
        assert np.array_equal(out.values, np.zeros((2, 6)))

    def test_shape(self):
        emb = ad.tensor(np.zeros((3, 288, 16)))
        out = aee.aux_head(emb, ad.tensor(np.zeros((16, 1))), ad.tensor(np.zeros(1)))
        assert out.shape == (3, 288)

    def test_mean_pool_weights_give_row_means(self):
        rng = np.random.default_rng(1)
        emb_np = rng.normal(size=(2, 5, 8))
        w = ad.tensor(np.full((8, 1), 1.0 / 8.0))
        out = aee.aux_head(ad.tensor(emb_np), w, ad.tensor(np.zeros(1)))
        assert np.allclose(out.values, emb_np.mean(axis=-1))


def test_gradients_through_full_autoencoder():
    # tiny config: t=8, h=4, hidden=3; finite differences within 1e-4
    cfg = aee.AeeConfig(hidden=3, layers=2)
    params = random_params(cfg, 2, seed=7)
    win = np.random.default_rng(8).normal(size=(1, 2, 8))
    ts = aee.timestamp_features(7, 4)[None, ...]
    head_b = ad.parameter(np.array([0.05]))
    target = np.random.default_rng(9).normal(size=(1, 4))

    def loss_for(head_w: ad.Tensor) -> ad.Tensor:
        latents = aee.encode(win, params, cfg)
        emb = aee.decode(latents, ts, params, cfg)
        pred = aee.aux_head(emb, head_w, head_b)
        return ad.rmse(pred, ad.tensor(target))

    head_w = ad.parameter(np.random.default_rng(10).normal(0, 0.5, size=(3, 1)))
    assert ad.finite_diff_check(loss_for, head_w) < 1e-4

    # and through a recurrent weight, the long path
    w_key = "aee.enc.0.u"

    def loss_for_recurrent(u: ad.Tensor) -> ad.Tensor:
        params[w_key] = u
        latents = aee.encode(win, params, cfg)
        emb = aee.decode(latents, ts, params, cfg)
        pred = aee.aux_head(emb, head_w, head_b)
        return ad.rmse(pred, ad.tensor(target))

    assert ad.finite_diff_check(loss_for_recurrent, params[w_key]) < 1e-4
