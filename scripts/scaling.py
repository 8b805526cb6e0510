#!/usr/bin/env python3
"""Time lexing, parsing, the checkers, `reduce`, congruence keys and
`equiv`, the rendering of derivations and traces, translation,
disentangling, random generation and the preservation-hcp property on
growing inputs, and fit how their cost scales.

Usage: python scripts/scaling.py [--max N] [--repeat R] [--only SUBSTRING]... [--json PATH]

Inputs: CP and HCP unit-cut chains (`new x1:1 (x1[].0 | x1().new x2:1
(...))`), CP terms with n top-level cuts (`new x1:1 (x1[].0 | new x2:1
(x2[].0 | ... x1().x2()...xn().w[].0))`), HCP mixes of independent unit
cuts and HCP link chains (`new x1:1. ... new xn:1. (x1[].0 | (x1<->x2 |
(... | (x(n-1)<->xn | xn().w[].0))))`), at n = 25, 50, 100, ... doubling up to --max (default 200); for
generation, preservation and checking samples, n samples; for the reduction
graph of a mix, whose 2^w nodes grow with its width w, w = 3..8; and n = 10,
20, 40, 80 samples for the graphs of samples and n = 25..200 for the
simulation properties, whatever --max.  A `lex`
run times `surface._lex` of the input's text alone, and a `parse` run
`surface.parse_file` of it: that lexing, then the reader of its token
lists.  Every other run on a chain or mix parses the input afresh first,
outside the clock.  A `check` run times `typecheck.check_cp` or
`typecheck.check_hcp` of the input, or of `harness.gen_cp` or `harness.gen_hcp`
samples 0..n-1 at seed 42, generated outside the clock.  A `reduce` run times
`reduction.reduce` (so it includes freshening); a `graph` run times
`reduction.reduction_graph` of the input and `surface.print_terms` of its
nodes, as `sill graph` does, and a `graph samples` run
`reduction.reduction_graph` at cap 200 of `harness.gen_hcp` samples 0..n-1
at `GenConfig(7, max_depth=3)`, generated outside the clock, a graph that
exceeds the cap counting as done; a `render derivation` run
times only `typecheck.render_derivation` of the input's typing derivation,
and a `render trace` run only `reduction.render_trace` of its reduction
trace with every reduct already built.  A `key` run times `congruence.key`
of the input's term, and an `equiv` run `congruence.equiv` of it against a
fresh parse of the same text (so it includes freshening, and the matcher
runs, since the keys are equal).  A `scramble` run times `harness.scramble`
of the input's term, 5 steps drawn from `random.Random(0)`.  A `translate` run times
`bridge.translate_typed` of the input's typing derivation, and a
`disentangle` run `bridge.disentangle` and then `bridge.tens_internalize` of
it.  A `generate` run times `harness.gen_cp` or `harness.gen_hcp` of samples
0..n-1 at seed 42, with the sample caches and the `provable` cache cleared
first.  A `preservation` run times the preservation-hcp property
(`harness._prop_preservation`) on `harness.gen_hcp` samples 0..n-1 at seed
42, generated outside the clock: per sample, its reduction, the derivation
transported along it and checked where new, and `check_hcp` of the final
reduct.  A `simulate` run times the simulate-forward and simulate-backward
properties (`harness._prop_simulate_forward` and `_prop_simulate_backward`)
on `harness.gen_cp` samples 0..n-1 at seed 42, generated outside the
clock; both decide structural congruence at every step.

Each row runs in a fresh interpreter, so that no row is timed on the heap
the rows before it left.  Each input is prepared in a thread with a big
stack and a raised recursion limit; the layer is timed in the main thread
at the default limit.  The best
of --repeat runs (default 3) is reported in milliseconds, and a size at
which the layer raises is reported as `raised <Error>`, the row going on to
the next size.  A row's slope is the least-squares fit of log(time) against
log(n) over the sizes that ran: the empirical computational complexity of
Goldsmith, Aiken and Wilkerson (trend-prof, FSE 2007), where 1 means linear
and 2 quadratic.  A rendered derivation or trace of a chain has O(n^2)
characters (n judgements or reducts of size O(n)), so those slopes cannot
fall to 1 however the printer shares work: compare their milliseconds.

`--only SUBSTRING` (repeatable) runs only the rows whose label contains
one of the substrings, so a change can re-time its own rows in seconds.

`--json PATH` also writes the rows to PATH: the Python version, the CPU
count, --max, --repeat and the --only filter (null without one), and per
row its label, per size n either `ms` or what was raised (`raised`, or
`preparation raised` for the input), and its slope (null with fewer than
two sizes that ran).
"""
import argparse
import json
import math
import os
import pathlib
import platform
import random
import subprocess
import sys
import threading
import time

from sill import bridge, congruence, harness, reduction, surface, typecheck
from sill.cli import _at_least

HERE = pathlib.Path(__file__).resolve()


def chain(n: int, hcp: bool) -> str:
    body = "w[].0"
    for i in range(n, 0, -1):
        body = f"new x{i}:1{'.' if hcp else ''} (x{i}[].0 | x{i}().{body})"
    return f"{'hproc' if hcp else 'proc'} Main : w:1 = {body}\n"


def mix(n: int) -> str:
    parts = [f"new c{i}:1. (c{i}[].0 | c{i}().o{i}[].0)" for i in range(1, n + 1)]
    term = parts[-1]
    for p in reversed(parts[:-1]):
        term = f"({p} | {term})"
    env = ", ".join(f"o{i}:1" for i in range(1, n + 1))
    return f"hproc Main : {env} = {term}\n"


def link_chain(n: int) -> str:
    term = f"x{n}().w[].0"
    for i in range(n - 1, 0, -1):
        term = f"(x{i}<->x{i + 1} | {term})"
    news = "".join(f"new x{i}:1. " for i in range(1, n + 1))
    return f"hproc Main : w:1 = {news}(x1[].0 | {term})\n"


def many_cuts(n: int) -> str:
    body = "".join(f"x{i}()." for i in range(1, n + 1)) + "w[].0"
    for i in range(n, 0, -1):
        body = f"new x{i}:1 (x{i}[].0 | {body})"
    return f"proc Main : w:1 = {body}\n"


def _cut(rng: random.Random, x: str, sender: str, waiter: str) -> str:
    """The cut on x between the side that closes x and the side that waits
    on it, in a random order."""
    if rng.random() < 0.5:
        return f"new {x}:1 ({sender} | {waiter})"
    return f"new {x}:bot ({waiter} | {sender})"


def path(n: int, seed: int) -> str:
    """Components x1[].0, x1().x2[].0, ..., xn().w[].0, the cut on x_k
    joining the (k-1)-th to the k-th, nested at random: a path whose cut
    uids and orientations are shuffled, which reduces from its x1 end."""
    rng = random.Random(f"configuration-path:{n}:{seed}")
    comps = ["x1[].0", *(f"x{k}().x{k + 1}[].0" for k in range(1, n)), f"x{n}().w[].0"]

    def nest(lo: int, hi: int) -> str:  # the components lo..hi and the cuts between them
        if lo == hi:
            return comps[lo]
        k = rng.randint(lo + 1, hi)
        return _cut(rng, f"x{k}", nest(lo, k - 1), nest(k, hi))

    return f"proc Main : w:1 = {nest(0, n)}\n"


def star(n: int, seed: int) -> str:
    """many_cuts with its cuts nested in a random order and orientation."""
    rng = random.Random(f"configuration-star:{n}:{seed}")
    body = "".join(f"x{i}()." for i in range(1, n + 1)) + "w[].0"
    for k in rng.sample(range(1, n + 1), n):
        body = _cut(rng, f"x{k}", f"x{k}[].0", body)
    return f"proc Main : w:1 = {body}\n"


def _main(src: str):
    return surface.parse_file(src).decls[0]


def _lex(src: str):
    return lambda: surface._lex(src, "<input>")


def _parse(src: str):
    return lambda: surface.parse_file(src)


def _check(src: str):
    d = _main(src)
    if d.dialect == "cp":
        return lambda: typecheck.check_cp(d.term, d.env)
    return lambda: typecheck.check_hcp(d.term, d.env)


def _check_samples(gen, check):
    def prepare(n: int):
        cfg = harness.GenConfig(seed=42)
        samples = [gen(cfg, i)[:2] for i in range(n)]
        return lambda: [check(t, env) for t, env in samples]

    return prepare


def _reduce(src: str):
    d = _main(src)
    return lambda: reduction.reduce(d.term)


def _graph(src: str):
    t = _main(src).term
    return lambda: surface.print_terms(reduction.reduction_graph(t).nodes)


def _graph_samples(n: int):
    cfg = harness.GenConfig(7, max_depth=3)
    samples = [harness.gen_hcp(cfg, i)[0] for i in range(n)]

    def run():
        for t in samples:
            try:
                reduction.reduction_graph(t, cap=200)
            except reduction.BudgetExceeded:
                pass

    return run


def _key(src: str):
    t = _main(src).term
    return lambda: congruence.key(t)


def _equiv(src: str):
    t1, t2 = _main(src).term, _main(src).term
    return lambda: congruence.equiv(t1, t2)


def _scramble(src: str):
    t = _main(src).term
    return lambda: harness.scramble(t, random.Random(0), 5)


def _render_derivation(src: str):
    d = _main(src)
    deriv = typecheck.check_cp(d.term, d.env) if d.dialect == "cp" else typecheck.check_hcp(d.term, d.env)[0]
    return lambda: typecheck.render_derivation(deriv)


def _render_trace(src: str):
    trace = reduction.reduce(_main(src).term)
    for st in trace.steps:
        st.term  # build every reduct before the clock starts
    return lambda: reduction.render_trace(trace)


def _translate(src: str):
    d = _main(src)
    deriv = typecheck.check_cp(d.term, d.env)
    return lambda: bridge.translate_typed(deriv)


def _disentangle(src: str):
    d = _main(src)
    deriv = typecheck.check_hcp(d.term, d.env)[0]
    return lambda: (bridge.disentangle(deriv), bridge.tens_internalize(deriv))


def _generate(gen):
    def prepare(n: int):
        harness._cp_samples.clear()
        harness._hcp_samples.clear()
        harness.provable.cache_clear()
        cfg = harness.GenConfig(seed=42)
        return lambda: [gen(cfg, i) for i in range(n)]

    return prepare


def _preservation(n: int):
    cfg = harness.GenConfig(seed=42)
    samples = [(*harness.gen_hcp(cfg, i), i) for i in range(n)]
    return lambda: [harness._prop_preservation(*s) for s in samples]


def _simulate(n: int):
    cfg = harness.GenConfig(seed=42)
    samples = [(*harness.gen_cp(cfg, i), i) for i in range(n)]
    return lambda: [(harness._prop_simulate_forward(*s), harness._prop_simulate_backward(*s))
                    for s in samples]


# label -> (input of size n, what to time, given that input)
WORKLOADS = {
    "lex cp chain": (lambda n: chain(n, False), _lex),
    "lex hcp chain": (lambda n: chain(n, True), _lex),
    "lex hcp mix": (mix, _lex),
    "parse cp chain": (lambda n: chain(n, False), _parse),
    "parse hcp chain": (lambda n: chain(n, True), _parse),
    "parse hcp mix": (mix, _parse),
    "check cp chain": (lambda n: chain(n, False), _check),
    "check hcp chain": (lambda n: chain(n, True), _check),
    "check hcp mix": (mix, _check),
    "check hcp link chain": (link_chain, _check),
    "check cp samples": (lambda n: n, _check_samples(harness.gen_cp, typecheck.check_cp)),
    "check hcp samples": (lambda n: n, _check_samples(harness.gen_hcp, typecheck.check_hcp)),
    "reduce cp chain": (lambda n: chain(n, False), _reduce),
    "reduce hcp chain": (lambda n: chain(n, True), _reduce),
    "reduce hcp mix": (mix, _reduce),
    "reduce cp many cuts": (many_cuts, _reduce),
    "graph hcp mix": (mix, _graph),
    "graph samples": (lambda n: n, _graph_samples),
    "key cp chain": (lambda n: chain(n, False), _key),
    "key hcp chain": (lambda n: chain(n, True), _key),
    "key hcp mix": (mix, _key),
    "equiv cp chain": (lambda n: chain(n, False), _equiv),
    "equiv hcp chain": (lambda n: chain(n, True), _equiv),
    "equiv hcp mix": (mix, _equiv),
    "scramble hcp mix": (mix, _scramble),
    "render derivation cp chain": (lambda n: chain(n, False), _render_derivation),
    "render derivation hcp chain": (lambda n: chain(n, True), _render_derivation),
    "render trace cp chain": (lambda n: chain(n, False), _render_trace),
    "render trace hcp chain": (lambda n: chain(n, True), _render_trace),
    "translate cp chain": (lambda n: chain(n, False), _translate),
    "disentangle hcp mix": (mix, _disentangle),
    "generate cp": (lambda n: n, _generate(harness.gen_cp)),
    "generate hcp": (lambda n: n, _generate(harness.gen_hcp)),
    "preservation hcp": (lambda n: n, _preservation),
    "simulate samples": (lambda n: n, _simulate),
}


# label -> its sizes, where they are not n = 25, 50, ... up to --max
SIZES = {"graph hcp mix": range(3, 9), "graph samples": (10, 20, 40, 80),
         "simulate samples": (25, 50, 100, 200)}


class PreparationError(Exception):
    """Building a workload's input raised, even with a big stack."""


def deep(f, *args):
    """f(*args), run in a thread with a 512 MiB stack and a recursion limit
    of 200 000, so that the recursive layers can build deep inputs."""
    out = {}

    def run():
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(200_000)
        try:
            out["value"] = f(*args)
        except Exception as e:
            out["error"] = e
        finally:
            sys.setrecursionlimit(limit)

    size = threading.stack_size(512 << 20)
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
    finally:
        threading.stack_size(size)
    if "error" in out:
        raise PreparationError(type(out["error"]).__name__) from out["error"]
    return out["value"]


def best_ms(src, prepare, repeat: int) -> float:
    best = math.inf
    for _ in range(repeat):
        run = deep(prepare, src)
        t0 = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - t0)
    return best * 1000


def slope(points: list[tuple[int, float]]) -> float:
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(ms) for _, ms in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def doublings(n: int, top: int):
    while n <= top:
        yield n
        n *= 2


def row(label: str, top: int, repeat: int) -> dict:
    """Time the row label at its sizes in this interpreter, printing a line
    per size, and return it as a `--json` row."""
    make, prepare = WORKLOADS[label]
    points, sizes = [], []
    for n in SIZES.get(label) or doublings(25, top):
        try:
            ms = best_ms(make(n), prepare, repeat)
        except PreparationError as e:
            sizes.append({"n": n, "preparation raised": str(e)})
            print(f"{label} n={n}: preparation raised {e}", flush=True)
        except Exception as e:  # RecursionError on deep input, among others
            sizes.append({"n": n, "raised": type(e).__name__})
            print(f"{label} n={n}: raised {type(e).__name__}", flush=True)
        else:
            points.append((n, ms))
            sizes.append({"n": n, "ms": round(ms, 3)})
            print(f"{label} n={n}: {ms:.2f} ms", flush=True)
    fit = slope(points) if len(points) > 1 else None
    print(f"{label}: log-log slope {'n/a' if fit is None else f'{fit:.2f}'} "
          f"over n = {points[0][0] if points else '-'}..{points[-1][0] if points else '-'}", flush=True)
    return {"label": label, "sizes": sizes, "slope": None if fit is None else round(fit, 3)}


_ROW = "row\t"  # how a row's interpreter marks the line holding its result


def fresh_row(label: str, top: int, repeat: int) -> dict:
    """`row` run in a new interpreter, whose lines are passed on, so that
    no row is timed on the heap another row left."""
    code = (f"import json, sys; sys.path.insert(0, {str(HERE.parent)!r}); import scaling; "
            f"print({_ROW!r} + json.dumps(scaling.row({label!r}, {top}, {repeat})))")
    proc = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True, encoding="utf-8")
    out = None
    for line in proc.stdout:
        if line.startswith(_ROW):
            out = json.loads(line[len(_ROW):])
        else:
            print(line, end="", flush=True)
    if proc.wait() != 0 or out is None:
        raise SystemExit(f"{label}: the interpreter exited {proc.returncode}")
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--max", type=_at_least(25, "max"), default=200)
    ap.add_argument("--repeat", type=_at_least(1, "repeat"), default=3)
    ap.add_argument("--only", metavar="SUBSTRING", action="append",
                    help="run only the rows whose label contains SUBSTRING (repeatable)")
    ap.add_argument("--json", metavar="PATH", help="also write the rows to PATH as JSON")
    args = ap.parse_args()
    rows = [fresh_row(label, args.max, args.repeat) for label in WORKLOADS
            if not args.only or any(s in label for s in args.only)]
    if args.json:
        out = {"python": platform.python_version(), "cpus": os.cpu_count(), "max": args.max,
               "repeat": args.repeat, "only": args.only, "rows": rows}
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(out, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
