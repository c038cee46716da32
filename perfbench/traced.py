"""Traced run of one workload (``--trace 1``): the per-layer metrics.

Set-up runs once with every layer wrapped. Model workloads then
alternate untraced and traced train steps, so that the tracing overhead
is measured in the same process, run one step under ``tracemalloc`` for
the retained-memory figures, and alternate untraced and traced B=1
forecasts. The data workload alternates untraced and traced batches.

Step metrics are per traced step, forecast metrics per traced forecast,
set-up metrics per set-up and time-stamp features per assembled window.
A layer a workload never runs reports 0.
"""

from __future__ import annotations

import statistics
import time
import weakref
from contextlib import nullcontext

import numpy as np

from peakcast import autodiff as ad
from tracer import Tracer
from workload import (MIN_FORECASTS, Run, assemble, batch_order, check_batch, check_forecast, check_setup,
                      check_step, forecast, gate_directional_gradient, gate_forecast_matches_taped, prepare,
                      train_step)

MIN_COVERAGE = 0.9

# (metric, layer, kind, phase); kind picks the Tracer reading.
STEP_LAYERS = [
    ("train.model.multi_head_attention.ms", "model.multi_head_attention", "ms", "train"),
    ("train.model.multi_head_attention.backward_ms", "model.multi_head_attention", "backward_ms", "train"),
    ("train.model.multi_head_attention.tape_nodes", "model.multi_head_attention", "tape_nodes", "train"),
    ("train.model.multi_head_attention.retained_mb", "model.multi_head_attention", "retained_mb", "train"),
    ("train.aee.encode.ms", "aee.encode", "ms", "train"),
    ("train.aee.encode.backward_ms", "aee.encode", "backward_ms", "train"),
    ("train.aee.encode.tape_nodes", "aee.encode", "tape_nodes", "train"),
    ("train.aee.encode.retained_mb", "aee.encode", "retained_mb", "train"),
    ("train.aee.decode.ms", "aee.decode", "ms", "train"),
    ("train.aee.decode.backward_ms", "aee.decode", "backward_ms", "train"),
    ("train.aee.decode.tape_nodes", "aee.decode", "tape_nodes", "train"),
    ("train.efe.embed_sequence.ms", "efe.embed_sequence", "ms", "train"),
    ("train.efe.embed_sequence.backward_ms", "efe.embed_sequence", "backward_ms", "train"),
    ("train.model.encoder_forward.self_ms", "model.encoder_forward", "self_ms", "train"),
    ("train.model.encoder_forward.backward_self_ms", "model.encoder_forward", "backward_self_ms", "train"),
    ("train.model.decoder_forward.self_ms", "model.decoder_forward", "self_ms", "train"),
    ("train.model.forward.ms", "model.forward", "ms", "train"),
    ("train.model.forward.retained_mb", "model.forward", "retained_mb", "train"),
    ("train.autodiff.backward.ms", "autodiff.backward", "ms", "train"),
    ("train.autodiff.tape_nodes", None, "tape_nodes", "train"),
    ("forecast.model.forward.ms", "model.forward", "ms", "forecast"),
    ("forecast.model.multi_head_attention.ms", "model.multi_head_attention", "ms", "forecast"),
    ("forecast.aee.encode.ms", "aee.encode", "ms", "forecast"),
    ("forecast.aee.decode.ms", "aee.decode", "ms", "forecast"),
]
SETUP_LAYERS = ["data.load_csv", "data.align", "data.make_windows", "data.chrono_split", "oversample.fit_gmm"]


class CountedTape(ad.Tape):
    """A Tape that weak references can track, to count tapes still alive."""

    __slots__ = ("__weakref__",)


def reading(tracer: Tracer, kind: str, phase: str, layer: str | None) -> float:
    if kind == "ms":
        return tracer.ms(phase, layer)
    if kind == "self_ms":
        return tracer.self_ms(phase, layer)
    if kind == "backward_ms":
        return tracer.backward_ms(phase, layer)
    if kind == "backward_self_ms":
        return tracer.backward_ms(phase, layer, own=True)
    return tracer.tape_nodes(phase, layer)


def alternate(untraced, traced, seconds: float, min_ops: int) -> tuple[list[float], list[float]]:
    """Run untraced/traced pairs for ``seconds``, and at least ``min_ops`` ops."""
    plain, tr = [], []
    deadline = time.perf_counter() + seconds
    while 2 * len(tr) < min_ops or time.perf_counter() < deadline:
        plain.append(untraced())
        tr.append(traced())
    return plain, tr


def run_traced(run: Run, wl, cfg, paths, seed: int, seconds: int) -> dict:
    tracer = Tracer()
    with tracer.installed(""):
        prep = prepare(paths, wl, cfg, seed)
    run.record("setup", check_setup(prep))
    kept = len(prep.train_set) - len(prep.train)
    metrics = {f"{layer}.ms": (tracer.ms("", layer), "ms") for layer in SETUP_LAYERS}
    metrics.update({
        "oversample.fit_gmm.iterations": (len(prep.gmm.ll_history), "count"),
        "oversample.peaks": (len(prep.peaks), "count"),
        "oversample.extra_windows": (len(prep.extras), "count"),
        "oversample.kept": (kept, "count"),
        "oversample.kept_ratio": (kept / len(prep.extras) if prep.extras else 0.0, "ratio"),
        "data.window_at_origin.ms": (tracer.ms("", "data.window_at_origin"), "ms"),
        "data.window_at_origin.calls": (tracer.n_calls("", "data.window_at_origin"), "count"),
    })

    batches = batch_order(len(prep.train_set), wl.batch, seed)
    matrix = prep.series.matrix()
    assembled = 0

    def batch_of(windows, traced: bool):
        nonlocal assembled
        if not traced:
            return assemble(windows, prep.series, wl.h)
        with tracer.installed(""):
            batch = assemble(windows, prep.series, wl.h)
        assembled += len(windows)
        return batch

    if not wl.model:
        def data_batch(traced: bool) -> float:
            windows = [prep.train_set[j] for j in next(batches)]
            t0 = time.perf_counter()
            batch = batch_of(windows, traced)
            dt = time.perf_counter() - t0
            run.record("batch", check_batch(windows, batch, prep.series, matrix, wl.t, wl.h))
            return dt

        plain, tr = alternate(lambda: data_batch(False), lambda: data_batch(True), seconds, 2)
        overhead = sum(tr) / sum(plain)
        print(f"traced data pass: {len(tr)} traced and {len(plain)} untraced batches, overhead x{overhead:.3f}")
        return finish(tracer, metrics, assembled, n_train=0, n_forecast=0, step_ms=0.0, overhead=overhead,
                      live_max=0, coverage=0.0)

    params = prep.params
    rng = np.random.default_rng([seed, 1])
    tapes: weakref.WeakSet = weakref.WeakSet()
    live_max = 0
    first = {}

    def step(traced: bool, phase: str = "train", memory: bool = False) -> float:
        nonlocal live_max
        live_max = max(live_max, len(tapes))
        windows = [prep.train_set[j] for j in next(batches)]
        batch = batch_of(windows, traced)
        first.setdefault("batch", batch)
        tape = CountedTape()
        tapes.add(tape)
        if traced and not memory:
            tracer.tag_tape(tape)
        context = tracer.installed(phase, memory=memory) if traced else nullcontext()
        t0 = time.perf_counter()
        with context:
            loss, shape = train_step(params, cfg, batch, rng, tape)
        dt = time.perf_counter() - t0
        run.record("train step", check_batch(windows, batch, prep.series, matrix, wl.t, wl.h)
                   + check_step(params, loss, shape, wl.batch, wl.h))
        return dt

    warm = step(False)
    plain, tr = alternate(lambda: step(False), lambda: step(True), 0.0, wl.train_steps)
    mem_time = step(True, phase="train_mem", memory=True)
    overhead = sum(tr) / sum(plain)
    step_ms = 1e3 * statistics.median(tr)
    coverage = tracer.top_level_ms("train") / (1e3 * sum(tr))
    bw_coverage = tracer.node_ms("train") / tracer.ms("train", "autodiff.backward")
    print(f"traced training: warm-up {warm:.3f} s, {len(tr)} traced / {len(plain)} untraced steps, "
          f"overhead x{overhead:.3f}, tracemalloc step {mem_time:.3f} s")
    print(f"  spans cover {coverage:.3f} of traced step time, tagged nodes {bw_coverage:.3f} of backward")
    run.record("trace coverage", [] if min(coverage, bw_coverage) >= MIN_COVERAGE else
               [f"per-layer times cover {coverage:.3f} of the step, {bw_coverage:.3f} of backward"])

    test_rng = np.random.default_rng([seed, 4])

    def fc(traced: bool) -> float:
        window = prep.test[int(test_rng.integers(len(prep.test)))]
        batch = batch_of([window], traced)
        first["forecast"] = batch
        context = tracer.installed("forecast") if traced else nullcontext()
        t0 = time.perf_counter()
        with context:
            yhat = forecast(params, cfg, batch)
        dt = time.perf_counter() - t0
        run.record("forecast", check_batch([window], batch, prep.series, matrix, wl.t, wl.h)
                   + check_forecast(yhat, wl.h))
        return dt

    fc(False)
    fc_plain, fc_tr = alternate(lambda: fc(False), lambda: fc(True), seconds, MIN_FORECASTS)
    fc_coverage = tracer.top_level_ms("forecast") / (1e3 * sum(fc_tr))
    run.record("trace coverage", [] if fc_coverage >= MIN_COVERAGE else
               [f"per-layer times cover {fc_coverage:.3f} of the forecast"])
    print(f"traced forecasts: {len(fc_tr)} traced / {len(fc_plain)} untraced, "
          f"overhead x{sum(fc_tr) / sum(fc_plain):.3f}, spans cover {fc_coverage:.3f}")

    run.record("gate: forecast", gate_forecast_matches_taped(params, cfg, first["forecast"]))
    run.record("gate: gradient", gate_directional_gradient(params, cfg, first["batch"], seed))
    return finish(tracer, metrics, assembled, n_train=len(tr), n_forecast=len(fc_tr), step_ms=step_ms,
                  overhead=overhead, live_max=live_max, coverage=coverage)


def finish(tracer: Tracer, metrics: dict, assembled: int, *, n_train: int, n_forecast: int, step_ms: float,
           overhead: float, live_max: int, coverage: float) -> dict:
    for name, layer, kind, phase in STEP_LAYERS:
        per = {"train": n_train, "forecast": n_forecast}[phase]
        if not per:
            value = 0.0
        elif kind == "retained_mb":  # from the one tracemalloc step
            value = tracer.retained_mb("train_mem", layer)
        else:
            value = reading(tracer, kind, phase, layer) / per
        metrics[name] = (value, {"tape_nodes": "count", "retained_mb": "MB"}.get(kind, "ms"))
    metrics.update({
        "train.step_ms": (step_ms, "ms"),
        "train.autodiff.live_tapes_max": (live_max, "count"),
        "aee.timestamp_features.ms": (tracer.ms("", "aee.timestamp_features") / assembled, "ms"),
        "aee.timestamp_features.calls": (tracer.n_calls("", "aee.timestamp_features") / assembled, "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.coverage_ratio": (coverage, "ratio"),
    })
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.4f} {unit}")
    if n_train:
        v = {name: value for name, (value, _) in metrics.items()}
        fwd = v["forecast.model.forward.ms"]
        print("shares of a traced train step ({:.1f} ms), forward + backward: attention {:.2f}, aee.encode {:.2f}; "
              "of a forecast ({:.1f} ms): attention {:.2f}, aee.encode {:.2f}".format(
                  step_ms,
                  (v["train.model.multi_head_attention.ms"] + v["train.model.multi_head_attention.backward_ms"]) / step_ms,
                  (v["train.aee.encode.ms"] + v["train.aee.encode.backward_ms"]) / step_ms,
                  fwd, v["forecast.model.multi_head_attention.ms"] / fwd, v["forecast.aee.encode.ms"] / fwd))
    return {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()}
