import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peakcast import aee
from peakcast import autodiff as ad
from peakcast.data import DEFAULT_SYNTH_START, AlignmentError, WindowError

from gradcheck import finite_diff_check, lstm_reference, sum_all

STEP = timedelta(minutes=15)
START = DEFAULT_SYNTH_START
SPAN_US = 60 * 365 * 86_400_000_000  # grid offsets stay within ~60 years of the anchor


def timestamp_features_loop(issue_index, horizon, step, start):
    """Per-step oracle for ``timestamp_features``, on Python datetimes."""
    out = np.empty((horizon, aee.TIMESTAMP_FEATURE_WIDTH))
    for k in range(horizon):
        ts = start + (issue_index + 1 + k) * step
        tod = (ts.hour * 3600 + ts.minute * 60 + ts.second) / 86400.0
        doy = (ts.timetuple().tm_yday - 1 + tod) / 366.0
        out[k] = (k / horizon,
                  math.sin(2 * math.pi * tod), math.cos(2 * math.pi * tod),
                  math.sin(2 * math.pi * doy), math.cos(2 * math.pi * doy))
    return out


def zero_params(hidden, m):
    """Gate-stacked (i, f, g, o) encoder and decoder weights, all zero."""
    params = {}
    for branch, width in (("enc", m), ("dec", aee.TIMESTAMP_FEATURE_WIDTH)):
        for key, shape in (("w", (width, 4 * hidden)), ("u", (hidden, 4 * hidden)), ("b", (4 * hidden,))):
            params[f"aee.{branch}.{key}"] = ad.tensor(np.zeros(shape))
    return params


def random_params(hidden, m, seed=0):
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(hidden)
    return {key: ad.parameter(rng.uniform(-scale, scale, size=t.shape))
            for key, t in zero_params(hidden, m).items()}


class TestEncode:
    def test_zero_params_zero_states(self):
        win = np.random.default_rng(0).normal(size=(2, 12))
        h, c = aee.encode(win[None], zero_params(4, 2))
        assert np.array_equal(h.values, np.zeros((1, 4)))
        assert np.array_equal(c.values, np.zeros((1, 4)))

    def test_state_shapes(self):
        win = np.zeros((3, 2, 10))  # batch of 3
        h, c = aee.encode(win, random_params(6, 2))
        assert h.shape == (3, 6) and c.shape == (3, 6)

    def test_single_cell_matches_hand_equations(self):
        # one step, scalar input 1, all weights 1, bias 0
        params = zero_params(1, 1)
        params["aee.enc.w"] = ad.tensor(np.ones((1, 4)))
        params["aee.enc.u"] = ad.tensor(np.ones((1, 4)))
        h, c = aee.encode(np.ones((1, 1))[None], params)
        sig = 1.0 / (1.0 + math.exp(-1.0))
        c_exp = sig * math.tanh(1.0)  # f*0 + i*g
        h_exp = sig * math.tanh(c_exp)
        assert c.values[0, 0] == pytest.approx(c_exp, abs=1e-12)
        assert h.values[0, 0] == pytest.approx(h_exp, abs=1e-12)

    def test_forget_path(self):
        # second step keeps a fraction of c via the forget gate
        params = zero_params(1, 1)
        params["aee.enc.w"] = ad.tensor(np.ones((1, 4)))
        params["aee.enc.u"] = ad.tensor(np.zeros((1, 4)))
        h1, c1 = aee.encode(np.ones((1, 1))[None], params)
        h2, c2 = aee.encode(np.ones((1, 2))[None], params)
        sig = 1.0 / (1.0 + math.exp(-1.0))
        c2_exp = sig * c1.values[0, 0] + sig * math.tanh(1.0)
        assert c2.values[0, 0] == pytest.approx(c2_exp, abs=1e-12)


class TestTimestampFeatures:
    def test_first_component_zero_at_origin(self):
        f = aee.timestamp_features(0, 8, STEP, START)
        assert f[0, 0] == 0.0
        assert np.allclose(f[:, 0], np.arange(8) / 8)

    def test_unit_circle_rows(self):
        f = aee.timestamp_features(123, 50, STEP, START)
        assert np.allclose(f[:, 1] ** 2 + f[:, 2] ** 2, 1.0, atol=1e-12)
        assert np.allclose(f[:, 3] ** 2 + f[:, 4] ** 2, 1.0, atol=1e-12)

    def test_daily_period(self):
        start = datetime(2021, 9, 1, tzinfo=timezone.utc)  # midnight issue
        f = aee.timestamp_features(issue_index=-1, horizon=97, step=STEP, start=start)
        assert np.allclose(f[96, 1:3], f[0, 1:3], atol=1e-9)

    def test_width(self):
        assert aee.timestamp_features(0, 4, STEP, START).shape == (4, aee.TIMESTAMP_FEATURE_WIDTH)

    # a start of None stands for the synthetic series' start, START
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
        start = START if start is None else start
        got = aee.timestamp_features(issue_index, horizon, step=step, start=start)
        assert np.array_equal(got, timestamp_features_loop(issue_index, horizon, step, start))

    # naive, UTC and non-UTC anchors from 1900 to 2100, with microseconds;
    # steps of 1 us to 3 days; issue indices up to ~60 years either side
    @given(
        start=st.datetimes(datetime(1900, 1, 1), datetime(2100, 1, 1), timezones=st.none() | st.sampled_from(
            [timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-9))])),
        step_issue=st.integers(1, 3 * 86_400_000_000).flatmap(
            lambda us: st.tuples(st.just(timedelta(microseconds=us)), st.integers(-SPAN_US // us, SPAN_US // us))),
        horizon=st.integers(1, 600),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_step_loop_property(self, start, step_issue, horizon):
        step, issue_index = step_issue
        got = aee.timestamp_features(issue_index, horizon, step=step, start=start)
        assert np.array_equal(got, timestamp_features_loop(issue_index, horizon, step, start))

    def test_every_second_of_a_day_matches_loop(self):
        # each of the time-of-day table's 86,400 entries, read once
        start = datetime(2023, 5, 17, tzinfo=timezone.utc)  # midnight
        got = aee.timestamp_features(-1, 86_400, step=timedelta(seconds=1), start=start)
        assert np.array_equal(got, timestamp_features_loop(-1, 86_400, timedelta(seconds=1), start))

    # anchors before 1970 with microsecond fractions, steps that do not divide
    # a day, negative issue indices; a batch against the oracle and single calls
    @given(
        start=st.datetimes(datetime(1900, 1, 1), datetime(1970, 1, 1), timezones=st.none() | st.just(timezone.utc)),
        step=st.sampled_from([timedelta(seconds=7, microseconds=3), timedelta(minutes=37), timedelta(milliseconds=333)]),
        issues=st.lists(st.integers(-300_000, 300_000), min_size=1, max_size=5),
        horizon=st.integers(1, 150),
    )
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_loop_at_steps_that_do_not_divide_a_day(self, start, step, issues, horizon):
        got = aee.timestamp_features(np.array(issues), horizon, step=step, start=start)
        assert np.array_equal(got, np.stack([timestamp_features_loop(i, horizon, step, start) for i in issues]))
        assert np.array_equal(got, np.stack([aee.timestamp_features(i, horizon, step, start) for i in issues]))

    def test_time_of_day_table_is_read_only(self):
        table = aee._TIME_OF_DAY
        assert table.shape == (2, 86_400) and table.dtype == np.float64 and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0

    @pytest.mark.parametrize("issues, horizon, step, start", [
        ([0, 7, 3, 7, -2], 96, STEP, None),  # unordered, repeated and negative indices
        ([80, 95, 100, 130], 48, STEP, datetime(2020, 12, 31, tzinfo=timezone.utc)),  # across a year boundary
        ([0, 20, 23, 40], 30, timedelta(hours=1), datetime(2024, 2, 28, tzinfo=timezone.utc)),  # over a leap day
        ([-40_000, 0, 35_000, 105_000], 288, STEP, datetime(2021, 6, 1, 7, 30)),  # a batch spanning four years
        ([5], 1, timedelta(days=400), datetime(1969, 12, 31, 23, 59, 59, 999_999)),
    ])
    def test_batch_matches_stacked_calls(self, issues, horizon, step, start):
        start = START if start is None else start
        got = aee.timestamp_features(np.array(issues), horizon, step=step, start=start)
        want = np.stack([aee.timestamp_features(i, horizon, step=step, start=start) for i in issues])
        assert got.shape == (len(issues), horizon, aee.TIMESTAMP_FEATURE_WIDTH) and got.flags.c_contiguous
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_rejects_horizon_below_one(self, horizon):
        with pytest.raises(WindowError, match="horizon"):
            aee.timestamp_features(0, horizon, STEP, START)

    @pytest.mark.parametrize("horizon", [2.5, 8.0, True, "8"], ids=["fraction", "integral_float", "bool", "str"])
    def test_rejects_horizon_that_is_not_an_integer(self, horizon):
        with pytest.raises(WindowError, match="horizon must be an integer"):
            aee.timestamp_features(0, horizon, STEP, START)

    def test_accepts_numpy_integer_horizon(self):
        got = aee.timestamp_features(0, np.int64(8), STEP, START)
        assert np.array_equal(got, aee.timestamp_features(0, 8, STEP, START))

    def test_step_and_start_are_required(self):
        with pytest.raises(TypeError):
            aee.timestamp_features(0, 8)
        with pytest.raises(TypeError):
            aee.timestamp_features(0, 8, STEP)

    @pytest.mark.parametrize("step", [timedelta(0), timedelta(minutes=-15)])
    def test_rejects_step_that_is_not_positive(self, step):
        with pytest.raises(AlignmentError, match="step"):
            aee.timestamp_features(0, 8, step, START)

    @pytest.mark.parametrize("issue_index", [np.zeros((2, 3), dtype=int), np.array([], dtype=int), 1.5,
                                             np.array([1.0, 2.0])], ids=["2d", "empty", "float", "float_array"])
    def test_rejects_issue_index_that_is_not_int_or_int_vector(self, issue_index):
        with pytest.raises(WindowError, match="issue_index"):
            aee.timestamp_features(issue_index, 8, STEP, START)


class TestDecode:
    def test_output_shape(self):
        params = random_params(7, 2, seed=1)
        latents = aee.encode(np.random.default_rng(2).normal(size=(2, 2, 9)), params)
        ts = np.stack([aee.timestamp_features(10 + i, 5, STEP, START) for i in range(2)])
        assert aee.decode(latents, ts, params).shape == (2, 5, 7)

    def test_zero_params_zero_embedding(self):
        params = zero_params(3, 2)
        latents = aee.encode(np.zeros((1, 2, 6)), params)
        ts = aee.timestamp_features(0, 4, STEP, START)[None, ...]
        out = aee.decode(latents, ts, params)
        assert np.array_equal(out.values, np.zeros((1, 4, 3)))

    def test_latent_sensitivity_at_first_row(self):
        params = random_params(4, 2, seed=3)
        win = np.random.default_rng(4).normal(size=(1, 2, 8))
        ts = aee.timestamp_features(5, 6, STEP, START)[None, ...]
        base = aee.decode(aee.encode(win, params), ts, params).values
        bumped = aee.encode(win + 1.0, params)
        out = aee.decode(bumped, ts, params).values
        assert not np.allclose(out[0, 0], base[0, 0])

    def test_no_target_values_enter_decoder(self):
        # decoding depends only on latents and time stamps: replaying with a
        # different window but identical latents gives identical output
        params = random_params(4, 2, seed=5)
        win = np.random.default_rng(6).normal(size=(1, 2, 8))
        latents = aee.encode(win, params)
        ts = aee.timestamp_features(3, 5, STEP, START)[None, ...]
        a = aee.decode(latents, ts, params).values
        b = aee.decode(latents, ts, params).values
        assert np.array_equal(a, b)


def test_fused_recurrence_matches_unrolled_cells():
    # B=3, t=7 encoder steps, h=4 decoder steps; the loss reads the decoder
    # output and both encoder latents, so h_seq and c_T both carry gradient
    hidden = 5
    params = random_params(hidden, 2, seed=11)
    rng = np.random.default_rng(12)
    win = rng.normal(size=(3, 2, 7))
    ts = np.stack([aee.timestamp_features(40 + 9 * i, 4, STEP, START) for i in range(3)])
    w_out = rng.normal(size=(3, 4, hidden))
    w_lat = rng.normal(size=(2, 3, hidden))
    tape = ad.Tape()
    with ad.record(tape):
        latents = aee.encode(win, params)
        out = aee.decode(latents, ts, params)
        terms = [ad.mul(out, ad.tensor(w_out))] + [ad.mul(t, ad.tensor(w_lat[j])) for j, t in enumerate(latents)]
        loss = sum_all(terms[0])
        for t in terms[1:]:
            loss = ad.add(loss, sum_all(t))
    ad.backward(tape, loss)

    # the reference encoder runs twice: forward for the decoder's initial
    # state, then backward from the latents' weights plus the decoder's
    # gradients with respect to that state
    x_enc, zeros = np.swapaxes(win, 1, 2), np.zeros((3, hidden))
    enc, dec = ([params[f"aee.{branch}.{k}"].values for k in ("w", "u", "b")] for branch in ("enc", "dec"))
    (_, h_T, c_T), _, _ = lstm_reference(x_enc, zeros, zeros, *enc, np.zeros((3, 7, hidden)), zeros, zeros)
    (h_seq, _, _), dec_grads, _ = lstm_reference(ts, h_T, c_T, *dec, w_out, zeros, zeros)
    _, enc_grads, _ = lstm_reference(x_enc, zeros, zeros, *enc, np.zeros((3, 7, hidden)),
                                     w_lat[0] + dec_grads["h0"], w_lat[1] + dec_grads["c0"])
    assert np.abs(out.values - h_seq).max() <= 1e-10
    assert np.abs(latents[0].values - h_T).max() <= 1e-10
    assert np.abs(latents[1].values - c_T).max() <= 1e-10
    for branch, grads in (("enc", enc_grads), ("dec", dec_grads)):
        for k in ("w", "u", "b"):
            assert np.abs(params[f"aee.{branch}.{k}"].grad - grads[k]).max() <= 1e-10, (branch, k)


def test_encode_and_decode_record_one_node_each():
    params = random_params(4, 2)
    tape = ad.Tape()
    with ad.record(tape):
        latents = aee.encode(np.ones((2, 2, 50)), params)
        n_encode = len(tape)
        aee.decode(latents, np.stack([aee.timestamp_features(0, 20, STEP, START)] * 2), params)
    assert n_encode == 1
    assert len(tape) - n_encode == 1


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
    params = random_params(3, 2, seed=7)
    win = np.random.default_rng(8).normal(size=(1, 2, 8))
    ts = aee.timestamp_features(7, 4, STEP, START)[None, ...]
    head_b = ad.parameter(np.array([0.05]))
    target = np.random.default_rng(9).normal(size=(1, 4))

    def loss_for(head_w: ad.Tensor) -> ad.Tensor:
        latents = aee.encode(win, params)
        emb = aee.decode(latents, ts, params)
        pred = aee.aux_head(emb, head_w, head_b)
        return ad.rmse(pred, ad.tensor(target))

    head_w = ad.parameter(np.random.default_rng(10).normal(0, 0.5, size=(3, 1)))
    assert finite_diff_check(loss_for, head_w) < 1e-4

    # and through a recurrent weight, the long path
    w_key = "aee.enc.u"

    def loss_for_recurrent(u: ad.Tensor) -> ad.Tensor:
        params[w_key] = u
        latents = aee.encode(win, params)
        emb = aee.decode(latents, ts, params)
        pred = aee.aux_head(emb, head_w, head_b)
        return ad.rmse(pred, ad.tensor(target))

    assert finite_diff_check(loss_for_recurrent, params[w_key]) < 1e-4
