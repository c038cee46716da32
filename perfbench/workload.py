"""One benchmark workload, run in its own process by ``run.py``.

Phases, in order:

1. Inputs: a seeded ``data.gen_synthetic`` series (target plus one
   auxiliary) written as two CSV files. Not measured.
2. Set-up, repeated ``SETUPS`` times, median timed as ``setup_s``: load the
   CSVs, align, fit transforms on the training era, transform, window,
   split chronologically, fit the GMM, mark and expand peaks, build the
   extra windows, cap the oversampling and (for model workloads)
   initialise parameters.
3. Model workloads: B=1 forecasts for half of ``--seconds`` (the first
   is a warm-up), one warm-up train step, a fixed number of timed train
   steps (forward, RMSE of yhat and yaux, backward, plain SGD), then
   forecasts for the other half. The data workload instead assembles
   B-window batches of inputs, targets and time-stamp features in a
   seeded epoch order, in three slices of ``--seconds`` that alternate
   with the set-ups. Batches are assembled outside the timed train steps
   and forecasts.
4. Correctness gate, outside every timed region.

Gated timings are rescaled to a reference machine speed (see
``reference_kernel``); raw wall times are printed beside them.

Each step's tape and outputs are dropped by going out of scope, as in a
plain training loop. The garbage collector is left at its defaults and
never called, so memory kept alive by reference cycles shows up in the
peak.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from peakcast import aee, data, model, oversample  # noqa: E402
from peakcast import autodiff as ad  # noqa: E402
from run import WORKLOADS, Workload  # noqa: E402

SETUPS = 3
TEST_START = 0.8  # test era starts at this fraction of the grid
VAL_FRACTION = 0.1
TRANSFORM = "log1p_standardize"
LR = 1e-3
MIN_FORECASTS = 10
FORECAST_TOL = 1e-10
FD_EPS = 1e-6
FD_RTOL = 1e-5
POLICY = oversample.OversamplePolicy()  # the package's default oversampling policy
# ---------------------------------------------------------------------------
# machine-speed reference
#
# On a small shared machine, neighbours' load changes how fast this process
# runs by up to 40% for minutes at a time, which no statistic within a run
# removes. Every timed operation is therefore bracketed by a short fixed
# reference kernel, and the gated figures are the wall times rescaled by
# (nominal reference time) / (reference time around the operation): the
# time the operation takes at the machine speed where the kernel runs in
# its nominal time. Raw wall times are printed beside them.

_REF_START = datetime(2000, 1, 1, tzinfo=timezone.utc)
_REF_STEP = timedelta(minutes=15)
_REF_MATRIX = np.random.default_rng(0).standard_normal((96, 96))


class Reference:
    """Fixed work that does not use the package and resembles the timed
    work: interpreter-bound datetime and scalar code with small numpy ops,
    plus, for workloads that run the model, one attention-sized (t x t)
    softmax and matmul. It creates no object the garbage collector tracks,
    so it never triggers a collection."""

    def __init__(self, wl: Workload) -> None:
        self.nominal_s = wl.ref_nominal_s
        rng = np.random.default_rng(0)
        self.qk = (rng.standard_normal((wl.t, 16)), rng.standard_normal((wl.t, 16))) if wl.model else None

    def seconds(self) -> float:
        """Fastest of three interpreter-bound runs (so an interrupt does not
        count) plus one attention-sized block."""
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            acc = 0.0
            for k in range(400):
                ts = _REF_START + k * _REF_STEP
                acc += math.sin(ts.hour / 24.0 + ts.toordinal())
            v = _REF_MATRIX[0]
            for _ in range(100):
                v = v * 1.0000001 + 1.0
            _REF_MATRIX @ _REF_MATRIX
            best = min(best, time.perf_counter() - t0)
        if self.qk is not None:
            q, k = self.qk
            t0 = time.perf_counter()
            scores = q @ k.T
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            (e / e.sum(axis=-1, keepdims=True)) @ q
            best += time.perf_counter() - t0
        return best


class Timings:
    """Raw wall times of one kind of operation and the same times rescaled
    to the reference machine speed."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def __len__(self) -> int:
        return len(self.raw)

    def measure(self, fn, *args):
        before = self.reference.seconds()
        t0 = time.perf_counter()
        out = fn(*args)
        raw = time.perf_counter() - t0
        ref = 0.5 * (before + self.reference.seconds())
        self.raw.append(raw)
        self.scaled.append(raw * self.reference.nominal_s / ref)
        return out

    def drop_first(self) -> tuple[float, float]:
        """Remove and return the warm-up (raw, scaled) pair."""
        return self.raw.pop(0), self.scaled.pop(0)

    def describe(self, label: str, unit: str, scale: float = 1.0) -> None:
        describe(label + ", scaled", self.scaled, unit, scale)
        describe(label + ", raw wall", self.raw, unit, scale)


# ---------------------------------------------------------------------------
# reporting helpers


def tail(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it, else the max."""
    n = len(values)
    for pct in (99.9, 99.0, 90.0):
        if n * (1.0 - pct / 100.0) >= 10:
            return f"p{pct:g}", float(np.percentile(values, pct))
    return "max", max(values)


def describe(label: str, values: list[float], unit: str, scale: float = 1.0) -> None:
    scaled = [v * scale for v in values]
    name, t = tail(scaled)
    print(f"  {label}: median {statistics.median(scaled):.4f} {unit}, {name} {t:.4f} {unit}, n={len(scaled)}")


def openblas_threads() -> str:
    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs", "libscipy_openblas*"))
    for path in libs:
        try:
            return str(ctypes.CDLL(path).scipy_openblas_get_num_threads64_())
        except (OSError, AttributeError):
            continue
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')})"


def source_provenance() -> tuple[str, str]:
    """(git commit, digest of the package sources) of the checkout."""
    commit = "n/a (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "peakcast").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return commit, digest.hexdigest()[:16]


def provenance(name: str, wl: Workload, seed: int, seconds: int, trace: int) -> None:
    commit, digest = source_provenance()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(f"# workload {name}: {wl.why}")
    print(f"# seed {seed}, seconds {seconds}, trace {trace}")
    print(f"# geometry m=2 t={wl.t} h={wl.h}, series {wl.series_len} points, "
          f"{'train' if wl.model else 'data-pass'} B={wl.batch}" + (", forecast B=1" if wl.model else ""))
    print(f"# nproc {os.cpu_count()} (usable {len(os.sched_getaffinity(0))}), "
          f"BLAS {blas.get('name')} {blas.get('version')} threads {openblas_threads()}")
    print(f"# python {platform.python_version()}, numpy {np.__version__}, "
          f"git commit {commit}, peakcast source sha256 {digest}")


# ---------------------------------------------------------------------------
# inputs and set-up


def write_inputs(work_dir: Path, wl: Workload, seed: int) -> list[tuple[str, Path]]:
    series = data.gen_synthetic(seed, wl.series_len, m=2)
    paths = []
    for name, values in zip(series.names, [series.target, *series.auxiliaries]):
        path = work_dir / f"{name}.csv"
        data.write_csv(path, series.start, series.step, values)
        paths.append((name, path))
    return paths


@dataclass
class Prepared:
    series: data.AlignedSeries  # transformed
    windows: list
    train: list
    val: list
    test: list
    val_idx: int
    test_idx: int
    extras: list
    train_set: list  # train plus kept extras
    gmm: oversample.GmmParams
    peaks: np.ndarray
    params: dict | None


def prepare(paths, wl: Workload, cfg: model.PfConfig, seed: int) -> Prepared:
    """CSV files on disk -> training-ready data (the timed set-up)."""
    raw = data.align([data.load_csv(path, name=name) for name, path in paths])
    L = len(raw)
    test_cutoff = raw.timestamp_at(int(TEST_START * L))
    test_idx = raw.index_at(test_cutoff)
    val_idx = test_idx - int(math.floor(VAL_FRACTION * test_idx))
    series = data.transform_series(raw, data.fit_transforms(raw, val_idx, TRANSFORM))
    windows = data.make_windows(series, wl.t, wl.h)
    train, val, test = data.chrono_split(windows, series, test_cutoff, VAL_FRACTION)

    history = raw.target[:val_idx]
    gmm = oversample.fit_gmm(history, POLICY.n_components)
    peaks = oversample.mark_important(history, POLICY.eta, oversample.highest_mean(gmm), POLICY.nu)
    origins = oversample.expand_peaks(peaks, POLICY.s_step, POLICY.nu, L, wl.t, wl.h)
    # Only extras whose targets end inside the training era, as for train windows.
    extras = [data.window_at_origin(series, int(o), wl.t, wl.h, oversampled=True)
              for o in origins if o + wl.t + wl.h <= val_idx]
    train_set = oversample.cap_oversample(train, extras, POLICY.os_pct, seed)
    params = model.init_params(cfg, seed) if wl.model else None
    return Prepared(series, windows, train, val, test, val_idx, test_idx, extras, train_set, gmm, peaks, params)


def check_setup(prep: Prepared) -> list[str]:
    """Split partition, leakage and oversampling-cap invariants."""
    errors = []
    ids = [set(map(id, part)) for part in (prep.train, prep.val, prep.test)]
    if sum(map(len, ids)) != len(prep.windows) or set().union(*ids) != set(map(id, prep.windows)):
        errors.append("windows are not partitioned into exactly one split each")
    last = lambda w: w.issue_index + len(w.target)  # noqa: E731
    if any(last(w) >= prep.val_idx for w in prep.train) or any(
            not prep.val_idx <= last(w) < prep.test_idx for w in prep.val) or any(
            last(w) < prep.test_idx for w in prep.test):
        errors.append("a window's targets cross its split's era")
    kept = prep.train_set[len(prep.train):]
    if prep.train_set[:len(prep.train)] != prep.train:
        errors.append("oversampled set does not start with the base train windows")
    if len(kept) != oversample.cap_kept_count(len(prep.train), len(prep.extras), POLICY.os_pct):
        errors.append(f"kept {len(kept)} extras, cap_kept_count says otherwise")
    if not all(w.is_oversampled for w in kept) or any(w.is_oversampled for w in prep.train):
        errors.append("is_oversampled flags are wrong")
    if not prep.train or not prep.test:
        errors.append("empty train or test split")
    return errors


# ---------------------------------------------------------------------------
# batches


def assemble(windows: list, series: data.AlignedSeries, h: int):
    """Model inputs, targets and decoder time-stamp features of a batch."""
    x = np.stack([w.input for w in windows])
    y = np.stack([w.target for w in windows])
    ts = np.stack([aee.timestamp_features(w.issue_index, h, step=series.step, start=series.start)
                   for w in windows])
    return x, y, ts


def check_batch(windows: list, batch, series: data.AlignedSeries, matrix: np.ndarray, t: int, h: int) -> list[str]:
    """Shapes, values against the series, and time-stamp features against a
    vectorised calendar oracle."""
    x, y, ts = batch
    B = len(windows)
    if x.shape != (B, matrix.shape[0], t) or y.shape != (B, h) or ts.shape != (B, h, aee.TIMESTAMP_FEATURE_WIDTH):
        return [f"batch shapes {x.shape} {y.shape} {ts.shape}"]
    errors = []
    issue = np.array([w.issue_index for w in windows])
    rows = issue[:, None] + np.arange(-t + 1, 1)[None, :]
    if not np.array_equal(x, np.swapaxes(matrix[:, rows], 0, 1)):
        errors.append("batch inputs differ from the series")
    if not np.array_equal(y, matrix[0][issue[:, None] + 1 + np.arange(h)[None, :]]):
        errors.append("batch targets differ from the series")
    if not (np.isfinite(x).all() and np.isfinite(y).all() and np.isfinite(ts).all()):
        errors.append("non-finite batch values")
    k = np.arange(h)
    if not np.array_equal(ts[:, :, 0], np.broadcast_to(k / h, (B, h))):
        errors.append("time-stamp column 0 is not k/h")
    if np.abs(ts[:, :, 1:]).max() > 1.0:
        errors.append("time-stamp sin/cos outside [-1, 1]")
    step_s = int(series.step.total_seconds())
    secs = int(series.start.timestamp()) + (issue[:, None] + 1 + k[None, :]) * step_s
    tod = (secs % 86400) / 86400.0
    day = (secs // 86400).astype("datetime64[D]")
    yday = (day - day.astype("datetime64[Y]").astype("datetime64[D]")).astype(np.int64)
    doy = (yday + tod) / 366.0
    expect = np.stack([np.sin(2 * np.pi * tod), np.cos(2 * np.pi * tod),
                       np.sin(2 * np.pi * doy), np.cos(2 * np.pi * doy)], axis=-1)
    if np.abs(ts[:, :, 1:] - expect).max() > 1e-9:
        errors.append("time-stamp calendar features disagree with the calendar")
    return errors


# ---------------------------------------------------------------------------
# model steps


def train_step(params, cfg, batch, rng, tape) -> tuple[float, tuple]:
    x, y, ts = batch
    with ad.record(tape):
        yhat, yaux = model.forward(x, ts, params, cfg, rng, training=True)
        truth = ad.tensor(y)
        loss = ad.add(ad.rmse(yhat, truth), ad.rmse(yaux, truth))
    ad.backward(tape, loss)
    for p in params.values():
        p.values -= LR * p.grad
    return loss.item(), yhat.shape


def check_step(params, loss: float, yhat_shape: tuple, batch_size: int, h: int) -> list[str]:
    errors = []
    if not math.isfinite(loss):
        errors.append(f"loss {loss}")
    if yhat_shape != (batch_size, h):
        errors.append(f"yhat shape {yhat_shape}")
    for name, p in params.items():
        if p.grad is None or p.grad.shape != p.values.shape or not np.isfinite(p.grad).all():
            errors.append(f"gradient of {name} missing, misshapen or non-finite")
        if not np.isfinite(p.values).all():
            errors.append(f"parameter {name} non-finite")
        p.grad = None
    return errors


def forecast(params, cfg, batch) -> np.ndarray:
    yhat, _ = model.forward(batch[0], batch[2], params, cfg)
    return yhat.values


def check_forecast(yhat: np.ndarray, h: int) -> list[str]:
    if yhat.shape != (1, h) or not np.isfinite(yhat).all():
        return [f"forecast shape {yhat.shape} or non-finite values"]
    return []


def gate_forecast_matches_taped(params, cfg, batch) -> list[str]:
    """Untraced forecast equals a taped training=False forward."""
    untaped = forecast(params, cfg, batch)
    with ad.record(ad.Tape()):
        taped, _ = model.forward(batch[0], batch[2], params, cfg, training=False)
    diff = float(np.max(np.abs(untaped - taped.values)))
    print(f"  gate: untraced vs taped forecast max |diff| {diff:.3e} (limit {FORECAST_TOL:g})")
    return [] if diff <= FORECAST_TOL else [f"untraced forecast differs from taped by {diff:.3e}"]


def gate_directional_gradient(params, cfg, batch, seed: int) -> list[str]:
    """Directional finite difference of the full-model loss (dropout off)
    against the backward pass."""
    x, y, ts = batch
    truth = ad.tensor(y)

    def loss(record: bool) -> float | ad.Tensor:
        yhat, yaux = model.forward(x, ts, params, cfg, training=False)
        out = ad.add(ad.rmse(yhat, truth), ad.rmse(yaux, truth))
        return out if record else out.item()

    tape = ad.Tape()
    with ad.record(tape):
        root = loss(True)
    ad.backward(tape, root)
    rng = np.random.default_rng([seed, 3])
    direction = {k: rng.standard_normal(p.values.shape) for k, p in params.items()}
    norm = math.sqrt(sum(float((d * d).sum()) for d in direction.values()))
    analytic = sum(float((params[k].grad * d).sum()) for k, d in direction.items()) / norm
    for p in params.values():
        p.grad = None
    values = []
    for sign in (1.0, -1.0):
        for k, d in direction.items():
            params[k].values += sign * FD_EPS / norm * d
        values.append(loss(False))
        for k, d in direction.items():
            params[k].values -= sign * FD_EPS / norm * d
    numeric = (values[0] - values[1]) / (2 * FD_EPS)
    rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)
    print(f"  gate: directional derivative analytic {analytic:.10e} numeric {numeric:.10e} "
          f"rel err {rel:.2e} (limit {FD_RTOL:g})")
    return [] if rel <= FD_RTOL else [f"directional gradient rel err {rel:.2e}"]


# ---------------------------------------------------------------------------
# the workload


class Run:
    """Operation counts and failure log of one workload process."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"  CHECK FAILED ({what}): " + "; ".join(errors[:5]), flush=True)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]
    cfg = model.PfConfig(t=wl.t, h=wl.h, m=2)
    provenance(args.workload, wl, args.seed, args.seconds, args.trace)
    paths = write_inputs(args.work_dir, wl, args.seed)
    run = Run()
    if args.trace:
        import traced
        measure = traced.run_traced
    else:
        measure = run_training if wl.model else run_data_pass
    metrics = measure(run, wl, cfg, paths, args.seed, args.seconds)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}), flush=True)
    return 0 if run.failed == 0 else 1


def timed_setup(run: Run, wl: Workload, cfg, paths, seed: int, times: Timings) -> Prepared:
    prep = times.measure(prepare, paths, wl, cfg, seed)
    run.record("setup", check_setup(prep))
    return prep


def report_setup(prep: Prepared, times: Timings) -> None:
    print(f"set-up: {len(prep.windows)} windows, train/val/test {len(prep.train)}/{len(prep.val)}/{len(prep.test)}, "
          f"GMM {len(prep.gmm.ll_history)} iterations, {len(prep.peaks)} peaks, {len(prep.extras)} extra windows, "
          f"{len(prep.train_set) - len(prep.train)} kept")
    times.describe("setup", "s")


def batch_order(n: int, size: int, seed: int):
    """Endless index batches over n training windows in a seeded epoch order."""
    order = np.random.default_rng([seed, 2]).permutation(n)
    while True:
        for i in range(0, n - size + 1, size):
            yield order[i:i + size]


def run_data_pass(run: Run, wl: Workload, cfg, paths, seed: int, seconds: int) -> dict:
    """Set-ups alternate with equal slices of the data pass, so that both are
    sampled across the whole run rather than in one stretch of it."""
    reference = Reference(wl)
    setups, batches = Timings(reference), Timings(reference)
    order = None
    for _ in range(SETUPS):
        prep = None  # drop the previous set-up before building the next
        prep = timed_setup(run, wl, cfg, paths, seed, setups)
        order = order or batch_order(len(prep.train_set), wl.batch, seed)
        data_slice(run, wl, prep, order, seconds / SETUPS, batches)
    report_setup(prep, setups)
    rate = wl.batch * len(batches) / sum(batches.scaled)
    print(f"data pass: {len(batches)} batches of {wl.batch} windows")
    print(f"data_windows_per_s     {rate:12.2f} 1/s  (scaled; raw wall {wl.batch * len(batches) / sum(batches.raw):.2f})")
    batches.describe("batch assembly", "ms", 1e3)
    return {"setup_s": {"value": statistics.median(setups.scaled), "unit": "s"},
            "windows_per_s": {"value": rate, "unit": "1/s"},
            "latency_ms_p50": {"value": 1e3 * statistics.median(batches.scaled), "unit": "ms"}}


def data_slice(run: Run, wl: Workload, prep: Prepared, order, seconds: float, times: Timings) -> None:
    matrix = prep.series.matrix()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        windows = [prep.train_set[j] for j in next(order)]
        batch = times.measure(assemble, windows, prep.series, wl.h)
        run.record("batch", check_batch(windows, batch, prep.series, matrix, wl.t, wl.h))


def run_training(run: Run, wl: Workload, cfg, paths, seed: int, seconds: int) -> dict:
    """Set-ups, then forecasts in two halves around the contiguous training
    steps, so that forecast latency samples the machine across the run."""
    reference = Reference(wl)
    setups = Timings(reference)
    for _ in range(SETUPS):
        prep = None  # drop the previous set-up before building the next
        prep = timed_setup(run, wl, cfg, paths, seed, setups)
    report_setup(prep, setups)
    params = prep.params
    matrix = prep.series.matrix()
    test_rng = np.random.default_rng([seed, 4])
    fcs = Timings(reference)

    def forecasts(budget: float):
        start = len(fcs)
        deadline = time.perf_counter() + budget
        while len(fcs) - start <= MIN_FORECASTS // 2 or time.perf_counter() < deadline:
            window = prep.test[int(test_rng.integers(len(prep.test)))]
            batch = assemble([window], prep.series, wl.h)
            yhat = fcs.measure(forecast, params, cfg, batch)
            run.record("forecast", check_batch([window], batch, prep.series, matrix, wl.t, wl.h)
                       + check_forecast(yhat, wl.h))
        return batch

    forecasts(seconds / 2)
    order = batch_order(len(prep.train_set), wl.batch, seed)
    rng = np.random.default_rng([seed, 1])
    steps = Timings(reference)
    first_batch = None
    for _ in range(1 + wl.train_steps):
        windows = [prep.train_set[j] for j in next(order)]
        batch = assemble(windows, prep.series, wl.h)
        first_batch = first_batch or batch
        loss, shape = steps.measure(train_step, params, cfg, batch, rng, ad.Tape())
        run.record("train step", check_batch(windows, batch, prep.series, matrix, wl.t, wl.h)
                   + check_step(params, loss, shape, wl.batch, wl.h))
    warm, _ = steps.drop_first()
    rate = wl.batch * len(steps) / sum(steps.scaled)
    print(f"training: warm-up step {warm:.3f} s (excluded), {len(steps)} timed steps of B={wl.batch}")
    print(f"train_windows_per_s    {rate:12.4f} 1/s  (scaled, total time; raw wall "
          f"{wl.batch * len(steps) / sum(steps.raw):.4f})")
    steps.describe("train step", "s")

    last_batch = forecasts(seconds / 2)
    warm, _ = fcs.drop_first()
    p50 = 1e3 * statistics.median(fcs.scaled)
    print(f"forecasts: warm-up {1e3 * warm:.2f} ms (excluded), half before and half after training")
    print(f"forecast_ms_p50        {p50:12.4f} ms   (scaled, untraced model.forward, B=1; raw wall "
          f"{1e3 * statistics.median(fcs.raw):.4f})")
    fcs.describe("forecast", "ms", 1e3)

    run.record("gate: forecast", gate_forecast_matches_taped(params, cfg, last_batch))
    run.record("gate: gradient", gate_directional_gradient(params, cfg, first_batch, seed))
    return {"setup_s": {"value": statistics.median(setups.scaled), "unit": "s"},
            "windows_per_s": {"value": rate, "unit": "1/s"},
            "latency_ms_p50": {"value": p50, "unit": "ms"}}


if __name__ == "__main__":
    sys.exit(main())
