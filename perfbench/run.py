#!/usr/bin/env python3
"""The sill benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {fuzz-meta,fuzz-bridge,cli-scaled} \\
        --seed N --seconds S --trace {0,1}

Each workload runs in a fresh single-threaded interpreter with the
checkout's `src/` on its path: one client in a closed loop calls
`sill.cli.main` and checks every answer (see workloads.py).

`--trace 0` prints the end-to-end metrics: set-up time (the median over
several fresh interpreters of launch up to `import sill` done), samples and
operations per second of time spent in `cli.main`, per-operation median and
90th percentile, and the worker's peak RSS.  Times are in nominal seconds:
each is scaled by a reference computation run beside it (calibrate.py), so
that the drift of a shared machine's speed cancels out.  `--trace 1` runs the workload untraced for half the
time, replays exactly the same operations in a second interpreter with
per-module spans (tracer.py), checks that both printed byte-identical
output, and prints the per-layer metrics and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Without `src/sill` in the checkout the benchmark exits with
code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import calibrate
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{name: ("s" if name.endswith("_s") else "ratio" if name.endswith("_frac") else "count")
       for name in tracer.metric_names()},
    "trace.overhead": "ratio",
}

SETUP_PROBES = 9  # set-up-only interpreters, besides the worker itself
MIN_OPS = 100  # so that at least ten operations lie beyond the 90th percentile
RSS_UNITS = {"fuzz-meta": 10, "fuzz-bridge": 10, "cli-scaled": 1}  # about 300 samples, or one sweep
WORKER_TIMEOUT_S = 170  # the worker is killed after this


class BenchError(Exception):
    pass


def launch(spec: dict) -> tuple[float, dict | None]:
    """Run worker.py on spec in a fresh interpreter: (nominal set-up seconds,
    result), the result holding `nominal_s`, each op's time in nominal
    seconds (calibrate.py)."""
    cmd = [sys.executable, str(HERE / "worker.py"), json.dumps(spec)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True) as proc:
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            lines = proc.stdout.read().splitlines()
        finally:
            timer.cancel()
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode} before finishing")
    setup *= calibrate.NOMINAL_S / float(lines[0])
    if len(lines) == 1:
        return setup, None
    res = json.loads(lines[1])
    res["nominal_s"] = calibrate.nominal(res["latencies_s"], res["refs_s"])
    return setup, res


def unit_size(workload: str, workdir: Path, seed: int) -> int:
    return len(workloads.unit_ops(workload, workdir, seed, 0))


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def describe(workload: str, res: dict) -> None:
    """Human-readable lines; the JSON result follows them."""
    failed = len(res["raised"]) + len(res["wrong"])
    print(f"{workload}: {res['ops']} ops in {res['units']} units, {res['samples']} samples, "
          f"{sum(res['latencies_s']):.2f} s measured = {sum(res['nominal_s']):.2f} s nominal in cli.main; "
          f"failed_frac {failed / res['ops']:.4f} ({failed}/{res['ops']})")
    for line in res["raised"][:5] + res["wrong"][:5]:
        print(f"  failed: {line}")
    if workload == "cli-scaled":
        by_label: dict[str, list[float]] = {}
        for label, dt in zip(res["labels"], res["nominal_s"]):
            by_label.setdefault(label, []).append(dt)
        for label, dts in by_label.items():
            print(f"  op {label}: median {1000 * statistics.median(dts):.1f} ms nominal over {len(dts)}")


def result(runs: list[dict], metrics: dict, units: dict, correct: bool) -> dict:
    return {"correct": correct and not any(r["wrong"] for r in runs),
            "attempted": sum(r["ops"] for r in runs),
            "failed": sum(len(r["raised"]) + len(r["wrong"]) for r in runs),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def untraced(workload: str, workdir: Path, seed: int, seconds: float) -> dict:
    spec = {"workload": workload, "seed": seed, "workdir": str(workdir), "src": str(SRC),
            "trace": False, "seconds": seconds, "rss_units": RSS_UNITS[workload],
            "min_units": max(RSS_UNITS[workload], math.ceil(MIN_OPS / unit_size(workload, workdir, seed)))}
    launch({**spec, "setup_only": True})  # compiles bytecode on a fresh checkout; not timed
    setups = [launch({**spec, "setup_only": True})[0] for _ in range(SETUP_PROBES)]
    setup, res = launch(spec)
    setups.append(setup)
    describe(workload, res)
    lat, busy = res["nominal_s"], sum(res["nominal_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "samples_per_s": res["samples"] / busy,
        "ops_per_s": res["ops"] / busy,
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * percentile(lat, 90),
        "peak_rss_mb": res["rss_mb"],
    }
    return result([res], metrics, END_TO_END_UNITS, True)


def traced(workload: str, workdir: Path, seed: int, seconds: float) -> dict:
    spec = {"workload": workload, "seed": seed, "workdir": str(workdir), "src": str(SRC),
            "trace": False, "seconds": seconds / 2, "min_units": 1, "rss_units": 1}
    _, plain = launch(spec)
    _, spanned = launch({**spec, "trace": True, "max_ops": plain["ops"]})
    describe(workload, plain)
    same = plain["digest"] == spanned["digest"] and plain["ops"] == spanned["ops"]
    busy_plain, busy_spanned = sum(plain["nominal_s"]), sum(spanned["nominal_s"])
    print(f"traced output {'identical to' if same else 'DIFFERS from'} untraced output; "
          f"{busy_spanned:.2f} s traced / {busy_plain:.2f} s untraced, nominal")
    scale = busy_spanned / sum(spanned["latencies_s"])
    metrics = {k: (v * scale if k.endswith("_s") else v) for k, v in spanned["trace"].items()}
    metrics["trace.overhead"] = busy_spanned / busy_plain
    return result([plain, spanned], metrics, PER_LAYER_UNITS, same)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sill" / "__init__.py").is_file():
        print(f"no sill sources under {SRC}", file=sys.stderr)
        return 2
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        if args.workload == "cli-scaled":
            workloads.write_inputs(workdir, args.seed)
        run = traced if args.trace else untraced
        summary = run(args.workload, workdir, args.seed, args.seconds)
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
