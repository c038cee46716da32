"""peakcast benchmark: run named workloads, each in its own process.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` every workload runs in turn. Each workload runs in
a fresh child process (``perfbench/workload.py``), so its peak resident
memory is its own and an out-of-memory kill is recorded as a failed run
instead of taking the harness down. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics; with
``--trace 1`` they are the per-layer metrics of a traced run.

This file imports only the standard library; the child imports numpy and
the package from ``src/`` of the same checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload. ``batch`` is the training batch size, or the
    data-pass batch size when ``train_steps`` is 0 (no model code runs).

    Training follows a fixed schedule of one warm-up step plus
    ``train_steps`` timed steps, so every run and every commit times the
    same steps: the garbage collector's cycle over dead tapes makes step
    cost depend on the step's index. ``--seconds`` bounds the forecast
    phase and the data pass.
    """

    series_len: int
    t: int
    h: int
    batch: int
    train_steps: int
    ref_nominal_s: float  # reference kernel time (workload.Reference) that scaled timings assume
    why: str

    @property
    def model(self) -> bool:
        return self.train_steps > 0


WORKLOADS = {
    "train_paper": Workload(
        35_040, 1440, 288, 1, 7, 0.025,
        "paper geometry at B=1 on a 1-year series: attention and the 24k-node LSTM tape share the step"),
    "train_small": Workload(
        35_040, 288, 48, 16, 14, 0.001,
        "small geometry, B=16 training and B=1 forecasts: the LSTM recurrence dominates forecasts"),
    "ingest": Workload(
        105_120, 1440, 288, 16, 0, 0.0005,
        "3-year series through set-up and an epoch pass of B=16 batches; no model code runs"),
}


# One BLAS thread per workload. On a small shared machine, multi-threaded
# OpenBLAS spin-waits for a thread whose core is busy elsewhere and a B=1
# forecast then takes several times as long, which swamps the measurement.
BLAS_THREADS = "1"


def failure(reason: str) -> dict:
    print(f"FAILED: {reason}", flush=True)
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a child process and return its result object."""
    work = WORK_DIR / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--work-dir", str(work)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    last = ""
    try:
        for line in proc.stdout:
            if last:
                print(last, end="", flush=True)
            last = line
        proc.stdout.close()
        # wait4 gives this child's own resource usage, peak RSS included.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    if proc.returncode < 0:
        return failure(f"{name} killed by signal {-proc.returncode} (an OOM kill shows as signal 9)")
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        if last:
            print(last, end="", flush=True)
        return failure(f"{name} exited with code {proc.returncode} and no result")
    if trace == 0:
        peak_mb = usage.ru_maxrss / 1024.0  # Linux reports kilobytes
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
        print(f"peak_rss_mb            {peak_mb:12.1f} MB   (peak resident set of the workload process)")
    ratio = result["failed"] / result["attempted"]
    print(f"failed_ops_ratio       {ratio:12.4f} ratio ({result['failed']} of {result['attempted']} ops failed)")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10, help="forecast / data-pass time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced per-layer run")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "peakcast" / "__init__.py").is_file():
        print(f"error: no peakcast sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        print(f"== workload {name} (seed {args.seed}, {args.seconds} s, trace {args.trace})", flush=True)
        results[name] = run_workload(name, args.seed, args.seconds, args.trace)
    ok = all(r["correct"] and r["failed"] == 0 for r in results.values())
    if len(names) > 1:
        for name, r in results.items():
            metrics = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in r["metrics"].items())
            print(f"{name}: correct={r['correct']} failed={r['failed']}/{r['attempted']} {metrics}")
        results = {
            "correct": ok,
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    else:
        results = results[names[0]]
    print(json.dumps(results), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
