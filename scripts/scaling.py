#!/usr/bin/env python3
"""Time `reduce` on growing inputs and fit how its cost scales.

Usage: python scripts/scaling.py [--max N] [--repeat R]

Workloads: CP and HCP unit-cut chains (`new x1:1 (x1[].0 | x1().new x2:1
(...))`) and HCP mixes of independent unit cuts, at n = 25, 50, 100, ...
doubling up to --max (default 200).  Each size is parsed afresh before every
run, so a run includes freshening, and the best of --repeat runs (default
3) is reported in milliseconds.  A workload stops at the first size that
raises.  Its slope is the least-squares fit of log(time) against log(n)
over the sizes that ran: the empirical computational complexity of
Goldsmith, Aiken and Wilkerson (trend-prof, FSE 2007), where 1 means
linear and 2 quadratic.
"""
import argparse
import math
import sys
import time

from sill import reduction, surface
from sill.cli import _at_least


def chain(n: int, hcp: bool) -> str:
    body = "w[].0"
    for i in range(n, 0, -1):
        body = f"new x{i}:1{'.' if hcp else ''} (x{i}[].0 | x{i}().{body})"
    return body


def mix(n: int) -> str:
    parts = [f"new c{i}:1. (c{i}[].0 | c{i}().o{i}[].0)" for i in range(1, n + 1)]
    term = parts[-1]
    for p in reversed(parts[:-1]):
        term = f"({p} | {term})"
    return term


WORKLOADS = {
    "reduce cp chain": (lambda n: chain(n, False), "cp"),
    "reduce hcp chain": (lambda n: chain(n, True), "hcp"),
    "reduce hcp mix": (mix, "hcp"),
}


def best_ms(src: str, dialect: str, repeat: int) -> float:
    best = math.inf
    for _ in range(repeat):
        term = surface.parse_term(src, dialect)
        t0 = time.perf_counter()
        reduction.reduce(term)
        best = min(best, time.perf_counter() - t0)
    return best * 1000


def slope(points: list[tuple[int, float]]) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(ms) for _, ms in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max", type=_at_least(25, "max"), default=200)
    ap.add_argument("--repeat", type=_at_least(1, "repeat"), default=3)
    args = ap.parse_args()
    for label, (make, dialect) in WORKLOADS.items():
        points = []
        n = 25
        while n <= args.max:
            try:
                ms = best_ms(make(n), dialect, args.repeat)
            except Exception as e:  # RecursionError on deep input, among others
                print(f"{label} n={n}: raised {type(e).__name__}")
                break
            points.append((n, ms))
            print(f"{label} n={n}: {ms:.2f} ms")
            n *= 2
        fit = f"{slope(points):.2f}" if len(points) > 1 else "n/a"
        print(f"{label}: log-log slope {fit} over n = {points[0][0] if points else '-'}..{points[-1][0] if points else '-'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
