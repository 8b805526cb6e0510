#!/usr/bin/env python3
"""Sample random well-typed processes and print their reduction traces.

Usage: python scripts/walk_reductions.py [--seed N] [--count K] [--dialect cp|hcp]
"""
import argparse
import sys

from sill import harness, reduction, surface
from sill.cli import _at_least


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--count", type=_at_least(0, "count"), default=5)
    ap.add_argument("--dialect", choices=["cp", "hcp"], default="cp")
    args = ap.parse_args()
    cfg = harness.GenConfig(seed=args.seed, count=args.count)
    gen = harness.gen_cp if args.dialect == "cp" else harness.gen_hcp
    for i in range(args.count):
        term, env, _ = gen(cfg, i)
        print(f"-- sample {i}:  ⊢ {surface.print_term(term)} : {surface.print_env(env)}")
        trace = reduction.reduce(term)
        print(reduction.render_trace(trace))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
