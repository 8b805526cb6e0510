#!/usr/bin/env python3
"""Check that this checkout and another one print the same outputs.

Usage: python scripts/same_outputs.py OTHER_CHECKOUT

Each checkout's `src` is put alone on PYTHONPATH of fresh interpreters,
which print six outputs:

- `fuzz`: `sill fuzz --suite all --json` at seed 42, then 43, then 42
  again in the same interpreter (so that samples leaking from one stream
  into another would show), and each exit code;
- `cp`, `hcp`: for `harness.gen_cp` / `harness.gen_hcp` samples 0-299 at
  `GenConfig(seed=42)`, each sample's `surface.print_term`,
  `typecheck.render_derivation` and `reduction.render_trace` of
  `reduction.reduce` of it (or the exception one of them raised), and
  then the name supply's counter `names._counter`;
- `scramble`: for samples 0-299 of both generators at `GenConfig(seed=42)`,
  the printed `harness.scramble(t, random.Random(i), 5)` of sample i, and
  then `names._counter`;
- `graph`: for `harness.gen_cp` / `harness.gen_hcp` samples 0-39 at
  `GenConfig(seed=42)`, the printed nodes, the edges and the terminals of
  `reduction.reduction_graph(t, cap=200)` (or the exception it raised), and
  then `names._counter`;
- `cli`: `sill check` (text, `--json`, `--show-derivation`), `sill graph`
  (text, `--json`, `--dot`), `sill reduce` (`--trace`, `--json`) and
  `sill translate`, `sill disentangle` and `sill internalize` (text,
  `--json`, `--show-derivation`) of every declaration of this checkout's
  `fixtures/*.sill`, of HCP mixes of w = 3..6 unit cuts in a shuffled order,
  of CP and HCP unit-cut chains of n = 25 and 50, of HCP link chains of
  n = 10 and 25 (`scaling.link_chain`, the one input that takes many κ↔
  steps), of CP terms with n = 25 and 50 top-level cuts
  (`scaling.many_cuts`), of CP cut paths and stars of n = 10 and 25 with
  shuffled cut uids and orientations, seeds 1 and 2 (`scaling.path`,
  `scaling.star`; the steps of these three reorder the cut tree) and of a
  CP term whose ⊤ absorbs a cut's channel (its `reduce` and `graph`
  fail), with each command's stdout, stderr and exit code.  A
  command refuses a declaration of the other dialect, and that refusal is
  compared too.  The inputs are written to a temporary directory, which is
  the working directory while the commands run.

Every line is tagged with its stream (the output and the function that
printed it).  Prints `same` and exits 0 if both checkouts print the same
lines; otherwise prints the first line that differs, with its stream and
sample, and exits 1.
"""
import argparse
import contextlib
import io
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve()
FIXTURES = HERE.parent.parent / "fixtures"
OUTPUTS = ("fuzz", "cp", "hcp", "scramble", "graph", "cli")
SAMPLES = 300
GRAPH_SAMPLES, GRAPH_CAP = 40, 200
CLI_FLAGS = [("graph",), ("graph", "--json"), ("graph", "--dot"), ("reduce", "--trace"), ("reduce", "--json")]
CLI_FLAGS += [(command, *flags) for command in ("check", "translate", "disentangle", "internalize")
              for flags in ((), ("--json",), ("--show-derivation",))]


def emit_fuzz() -> None:
    from sill import cli

    for seed in ("42", "43", "42"):
        argv = ["fuzz", "--suite", "all", "--seed", seed, "--json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.run(argv)
        print(f"fuzz\t# {' '.join(argv)}")
        for line in out.getvalue().splitlines():
            print(f"fuzz\t{line}")
        print(f"fuzz\texit {code}")


def emit_samples(dialect: str) -> None:
    from sill import harness, names, reduction, surface, typecheck

    gen = harness.gen_cp if dialect == "cp" else harness.gen_hcp
    cfg = harness.GenConfig(seed=42)
    shows = [("print_term", lambda t, d: surface.print_term(t)),
             ("render_derivation", lambda t, d: typecheck.render_derivation(d)),
             ("render_trace", lambda t, d: reduction.render_trace(reduction.reduce(t)))]
    for i in range(SAMPLES):
        t, _, d = gen(cfg, i)
        for what, show in shows:
            try:
                text = show(t, d)
            except Exception as e:
                text = f"raised {type(e).__name__}: {e}"
            print(f"{dialect} {what}\t# sample {i}")
            for line in text.splitlines():
                print(f"{dialect} {what}\t{line}")
    print(f"{dialect}\tnames._counter {names._counter}")


def emit_scramble() -> None:
    from sill import harness, names, surface

    cfg = harness.GenConfig(seed=42)
    for dialect, gen in (("cp", harness.gen_cp), ("hcp", harness.gen_hcp)):
        for i in range(SAMPLES):
            t = harness.scramble(gen(cfg, i)[0], random.Random(i), 5)
            print(f"scramble\t# {dialect} sample {i}")
            print(f"scramble\t{surface.print_term(t)}")
    print(f"scramble\tnames._counter {names._counter}")


def emit_graph() -> None:
    from sill import harness, names, reduction, surface

    cfg = harness.GenConfig(seed=42)
    for dialect, gen in (("cp", harness.gen_cp), ("hcp", harness.gen_hcp)):
        for i in range(GRAPH_SAMPLES):
            print(f"graph\t# {dialect} sample {i}")
            try:
                g = reduction.reduction_graph(gen(cfg, i)[0], cap=GRAPH_CAP)
            except Exception as e:
                print(f"graph\traised {type(e).__name__}: {e}")
                continue
            for k, text in enumerate(surface.print_terms(g.nodes)):
                print(f"graph\tnode {k}: {text}")
            for src, dst, rule, channel in g.edges:
                print(f"graph\tedge {src} -> {dst}: {rule} on {channel}")
            print(f"graph\tterminals {g.terminals}")
    print(f"graph\tnames._counter {names._counter}")


def cli_inputs() -> dict[str, str]:
    """The `cli` output's input files, by file name."""
    from scaling import link_chain, many_cuts, path, star

    files = {p.name: p.read_text(encoding="utf-8") for p in sorted(FIXTURES.glob("*.sill"))}
    for w in range(3, 7):
        order = list(range(1, w + 1))
        random.Random(f"same-outputs:{w}").shuffle(order)
        parts = [f"new c{i}:1. (c{i}[].0 | c{i}().o{i}[].0)" for i in order]
        term = parts[-1]
        for p in reversed(parts[:-1]):
            term = f"({p} | {term})"
        files[f"mix-{w}.sill"] = f"hproc Main : {', '.join(f'o{i}:1' for i in order)} = {term}\n"
    for n in (25, 50):
        for kw, dot in (("proc", ""), ("hproc", ".")):
            body = "w[].0"
            for i in range(n, 0, -1):
                body = f"new x{i}:1{dot} (x{i}[].0 | x{i}().{body})"
            files[f"chain-{kw}-{n}.sill"] = f"{kw} Main : w:1 = {body}\n"
        files[f"many-cuts-{n}.sill"] = many_cuts(n)
    for n in (10, 25):
        files[f"link-chain-{n}.sill"] = link_chain(n)
        for seed in (1, 2):
            files[f"path-{n}-{seed}.sill"] = path(n, seed)
            files[f"star-{n}-{seed}.sill"] = star(n, seed)
    files["top-cut.sill"] = "proc Main : c9:top, w:1 = new x:1 + 1 (x!inl.c9?{} | x?{inl: x().w[].0; inr: x().w[].0})\n"
    return files


def emit_cli() -> None:
    from sill import cli

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in cli_inputs().items():
                pathlib.Path(name).write_text(text, encoding="utf-8")
                for proc in re.findall(r"^h?proc\s+(\w+)", text, re.MULTILINE):
                    for command, *flags in CLI_FLAGS:
                        argv = [command, name, "--proc", proc, *flags]
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            try:
                                code = cli.run(argv)
                            except SystemExit as e:
                                code = e.code
                        print(f"cli\t# {' '.join(argv)}")
                        for line in out.getvalue().splitlines():
                            print(f"cli\t{line}")
                        for line in err.getvalue().splitlines():
                            print(f"cli stderr\t{line}")
                        print(f"cli\texit {code}")
        finally:
            os.chdir(cwd)


def run(tree: pathlib.Path, output: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen([sys.executable, str(HERE), "--emit", output], env=env,
                            stdout=subprocess.PIPE, text=True, encoding="utf-8")


def first_difference(ours: list[str], theirs: list[str]) -> str | None:
    """The first line at which the two outputs differ, described; None if
    they are equal."""
    sample = ""
    for k in range(max(len(ours), len(theirs))):
        a = ours[k] if k < len(ours) else "\t<end of output>"
        b = theirs[k] if k < len(theirs) else "\t<end of output>"
        stream, _, text = a.partition("\t")
        if a != b:
            other_stream, _, other = b.partition("\t")
            return (f"{stream or other_stream}, line {k + 1}{sample}:\n"
                    f"  this checkout:  {text}\n"
                    f"  other checkout: {other}")
        if text.startswith("# sample "):
            sample = f" (sample {text.rpartition(' ')[2]})"
        elif text.startswith("# "):
            sample = f" ({text[2:]})"
    return None


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("other", nargs="?", type=pathlib.Path, metavar="OTHER_CHECKOUT")
    ap.add_argument("--emit", choices=OUTPUTS, help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.emit in ("cp", "hcp"):
        emit_samples(args.emit)
        return 0
    if args.emit:
        {"fuzz": emit_fuzz, "scramble": emit_scramble, "graph": emit_graph, "cli": emit_cli}[args.emit]()
        return 0
    if args.other is None or not (args.other / "src" / "sill").is_dir():
        ap.error("OTHER_CHECKOUT must be a checkout with a src/sill package")
    for output in OUTPUTS:
        procs = [run(HERE.parent.parent, output), run(args.other.resolve(), output)]
        texts = [p.communicate()[0] for p in procs]
        for p in procs:
            if p.returncode != 0:
                print(f"{output}: the interpreter exited {p.returncode}")
                return 1
        diff = first_difference(*(text.splitlines() for text in texts))
        if diff is not None:
            print(diff)
            return 1
    print("same")
    return 0


if __name__ == "__main__":
    sys.exit(main())
