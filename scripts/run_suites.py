#!/usr/bin/env python3
"""Run every metatheory suite at acceptance scale and print the reports.

Usage: python scripts/run_suites.py [--seed N] [--count K]
"""
import argparse
import sys
import time

from sill import harness
from sill.cli import _at_least


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--count", type=_at_least(0, "count"), default=500)
    args = ap.parse_args()
    ok = True
    t0 = time.perf_counter()
    for name in harness.SUITE_NAMES:
        count = min(args.count, 300) if name in ("disentangle", "internalize") else args.count
        cfg = harness.GenConfig(seed=args.seed, count=count)
        t1 = time.perf_counter()
        rep = harness.run_suite(name, cfg)
        print(rep.text())
        print(f"  ({time.perf_counter() - t1:.1f}s)")
        ok = ok and rep.ok
    print(f"total: {time.perf_counter() - t0:.1f}s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
