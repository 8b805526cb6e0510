"""One workload in a fresh interpreter: `python3 perfbench/worker.py SPEC_JSON`.

The worker imports `sill`, prints `ready` at once (the parent times set-up
up to that line) and then a reference time (calibrate.py), then runs whole
units of operations through
`sill.cli.main` with stdout captured, checking each answer.  It runs until
`seconds` have passed and at least `min_units` units are done, or until
`max_ops` operations are done, and prints one JSON line of results.
Caches and the name supply start empty, as they do for a user's `sill` run.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import sill  # the parent puts the checkout's src/ on PYTHONPATH
import sill.cli

import calibrate
import tracer as tracing
import workloads


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_op(op: workloads.Op) -> tuple[str, str | None, float, int | None, str]:
    """(outcome, detail, seconds, exit code, stdout), the outcome being
    'ok', 'wrong' or 'raised'."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = sill.cli.main(list(op.argv))
    except (Exception, SystemExit) as e:  # an exception escaping cli.main is a failed op
        dt = time.perf_counter() - t0
        return "raised", f"{type(e).__name__}: {str(e)[:200]}", dt, None, buf.getvalue()
    dt = time.perf_counter() - t0
    out = buf.getvalue()
    detail = op.check(rc, out)
    return ("ok" if detail is None else "wrong"), detail, dt, rc, out


def run(spec: dict) -> dict:
    workload, seed = spec["workload"], spec["seed"]
    workdir = Path(spec["workdir"])
    seconds, min_units, max_ops = spec["seconds"], spec["min_units"], spec.get("max_ops")
    rss_units = spec["rss_units"]
    tracer = tracing.Tracer() if spec["trace"] else None
    digest = hashlib.sha256()
    latencies: list[float] = []
    labels: list[str] = []
    samples = 0
    problems: dict[str, list[str]] = {"raised": [], "wrong": []}
    rss_mb = None
    refs = [calibrate.reference()]
    units = 0
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        while max_ops is None or len(latencies) < max_ops:
            if max_ops is None and units >= min_units and time.perf_counter() - start >= seconds:
                break
            for op in workloads.unit_ops(workload, workdir, seed, units):
                if max_ops is not None and len(latencies) >= max_ops:
                    break
                outcome, detail, dt, rc, out = run_op(op)
                latencies.append(dt)
                labels.append(op.label)
                samples += op.samples
                if outcome != "ok":
                    problems[outcome].append(f"{op.label}: {detail}")
                digest.update(json.dumps([op.label, outcome, rc, out]).encode())
                refs.append(calibrate.reference())
            units += 1
            if units == rss_units:
                rss_mb = _maxrss_mb()
    finally:
        if tracer is not None:
            tracer.restore()
    return {
        "ops": len(latencies),
        "units": units,
        "samples": samples,
        "latencies_s": latencies,
        "labels": labels,
        "refs_s": refs,
        "raised": problems["raised"],
        "wrong": problems["wrong"],
        "digest": digest.hexdigest(),
        "rss_mb": rss_mb if rss_mb is not None else _maxrss_mb(),
        "trace": tracer.metrics() if tracer is not None else None,
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    if not Path(sill.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
        print(f"sill was imported from {sill.__file__}, not from {spec['src']}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    print(calibrate.reference(), flush=True)
    if spec.get("setup_only"):
        return 0
    print(json.dumps(run(spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
