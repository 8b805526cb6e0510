"""Operations, inputs and expected answers of the three benchmark workloads.

Everything here is a pure function of the workload seed and imports nothing
from `sill`: the expected answers follow from the shapes of the inputs and
the typing and reduction rules of CP and HCP, never from running the code
under test.

An operation is one call of `sill.cli.main(argv)`.  Operations come in
units, each a complete mix: one round of fuzz commands in the suites'
proportions, or one sweep over every `cli-scaled` input.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("fuzz-meta", "fuzz-bridge", "cli-scaled")

# (suite, samples per command): criterion 1's proportions 1:1:2:2, and
# criteria 3-5's proportions 5:10:5:5:3:3.  Suites over both dialects
# alternate CP and HCP samples, so their commands take even counts.
# fuzz-meta's six commands put the median inside the cheap-to-middle
# commands rather than on the gap between two suites' latencies.
FUZZ_ROUNDS = {
    "fuzz-meta": (("preservation-cp", 5), ("preservation-hcp", 5),
                  ("progress", 4), ("progress", 6), ("termination", 4), ("termination", 6)),
    "fuzz-bridge": (("translate-typing", 5), ("equiv-preservation", 10),
                    ("simulate-forward", 5), ("simulate-backward", 5),
                    ("disentangle", 3), ("internalize", 3)),
}


@dataclass(frozen=True)
class Sizes:
    chains: tuple[int, ...] = (25, 50, 100, 200)  # check, reduce
    derivations: tuple[int, ...] = (25, 50, 100)  # check --show-derivation, reduce --trace
    mixes: tuple[int, ...] = (16, 32, 64)  # check, reduce, disentangle, internalize
    graphs: tuple[int, ...] = (4, 5, 6)  # graph


SWEEP = Sizes()

# Spellings the seed chooses from; none is a keyword, and none starts with
# `z`, the name `internalize` gives its collapsed channel.
CHANNEL_PREFIXES = ("x", "c", "ch", "k", "u", "link", "q", "s")
OUTPUT_NAMES = ("w", "out", "r", "v", "done", "res")

Check = Callable[[int, str], "str | None"]


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    samples: int
    check: Check


@dataclass(frozen=True)
class InputFile:
    name: str
    text: str


# -- fuzz workloads -------------------------------------------------------------


def fuzz_seed(seed: int, unit: int, index: int) -> int:
    """Each command draws a fresh sample stream, so generation is never cached."""
    return (seed * 100_000 + unit) * 100 + index


def _check_fuzz(suite: str, seed: int, count: int) -> Check:
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        recs = [json.loads(line) for line in out.splitlines()]
        if len(recs) != count + 1:
            return f"{len(recs)} records for {count} samples"
        for i, rec in enumerate(recs[:-1]):
            if rec != {"suite": suite, "seed": seed, "index": i, "status": "pass"}:
                return f"sample record {rec}"
        summary = {"suite": suite, "seed": seed, "passed": count, "count": count}
        if recs[-1] != summary:
            return f"summary {recs[-1]}"
        return None

    return check


def fuzz_unit(workload: str, seed: int, unit: int) -> list[Op]:
    ops = []
    for index, (suite, k) in enumerate(FUZZ_ROUNDS[workload]):
        s = fuzz_seed(seed, unit, index)
        ops.append(Op(f"{suite} x{k}", ("fuzz", "--suite", suite, "--seed", str(s), "--count", str(k), "--json"),
                      k, _check_fuzz(suite, s, k)))
    return ops


# -- cli-scaled inputs ------------------------------------------------------------


@dataclass(frozen=True)
class Spelling:
    chan: str  # prefix of the restricted channels
    out: str  # free name of a chain
    mix_chan: str  # prefix of a mix's restricted channels
    mix_out: str  # prefix of a mix's free names
    order: dict  # width -> component indices, in term order


def spelling(seed: int, sizes: Sizes = SWEEP) -> Spelling:
    rng = random.Random(f"cli-scaled:{seed}")
    chan, mix_chan, mix_out = rng.sample(CHANNEL_PREFIXES, 3)
    order = {}
    for w in sorted(set(sizes.mixes) | set(sizes.graphs)):
        idx = list(range(1, w + 1))
        rng.shuffle(idx)
        order[w] = idx
    return Spelling(chan, rng.choice(OUTPUT_NAMES), mix_chan, mix_out, order)


def chain_term(n: int, hcp: bool, chan: str, out: str) -> str:
    """new x1:1 (x1[].0 | x1().new x2:1 (... xn().out[].0)), n unit cuts."""
    body = f"{out}[].0"
    for i in range(n, 0, -1):
        x = f"{chan}{i}"
        body = f"new {x}:1{'.' if hcp else ''} ({x}[].0 | {x}().{body})"
    return body


def mix_term(order: list[int], chan: str, out: str) -> str:
    """A right-nested HCP mix of independent unit cuts, in the given order."""
    parts = [f"new {chan}{i}:1. ({chan}{i}[].0 | {chan}{i}().{out}{i}[].0)" for i in order]
    term = parts[-1]
    for p in reversed(parts[:-1]):
        term = f"({p} | {term})"
    return term


def inputs(seed: int, sizes: Sizes = SWEEP) -> list[InputFile]:
    sp = spelling(seed, sizes)
    files = []
    for hcp in (False, True):
        for n in sorted(set(sizes.chains) | set(sizes.derivations)):
            kw = "hproc" if hcp else "proc"
            files.append(InputFile(_chain_file(n, hcp),
                                   f"{kw} Main : {sp.out}:1 = {chain_term(n, hcp, sp.chan, sp.out)}\n"))
    for w, order in sp.order.items():
        env = ", ".join(f"{sp.mix_out}{i}:1" for i in order)
        files.append(InputFile(_mix_file(w), f"hproc Main : {env} = {mix_term(order, sp.mix_chan, sp.mix_out)}\n"))
    return files


def write_inputs(workdir: Path, seed: int, sizes: Sizes = SWEEP) -> None:
    for f in inputs(seed, sizes):
        (workdir / f.name).write_text(f.text, encoding="utf-8")


def _chain_file(n: int, hcp: bool) -> str:
    return f"chain-{'hcp' if hcp else 'cp'}-{n}.sill"


def _mix_file(w: int) -> str:
    return f"mix-{w}.sill"


# -- cli-scaled expected answers ---------------------------------------------------


def _expect_text(want: str) -> Check:
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        return None if out == want else f"printed {out[:120]!r}, expected {want[:120]!r}"

    return check


def _expect_lines(pred: Callable[[list[str]], "str | None"]) -> Check:
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        return pred(out.splitlines())

    return check


def _chain_derivation(n: int, hcp: bool, out: str) -> Check:
    # CP: per cut, the Cut, 1 and ⊥ rules; then 1 on the free name.
    # HCP: per cut, H-Cut, H-Mix, 1, H-Mix₀ and ⊥; then 1 and H-Mix₀.
    per_cut, tail = (5, 2) if hcp else (3, 1)
    last = "H-Mix₀: ⊢ 0 : ·" if hcp else f"1: ⊢ {out}[].0 : {out}:1"
    cut = "H-Cut:" if hcp else "Cut:"

    def pred(lines: list[str]) -> str | None:
        if lines[:1] != [f"⊢ Main : {out}:1"]:
            return f"first line {lines[:1]}"
        rules = lines[1:]
        if len(rules) != per_cut * n + tail:
            return f"{len(rules)} rule lines, expected {per_cut * n + tail}"
        cuts = sum(1 for line in rules if line.lstrip().startswith(cut))
        if cuts != n:
            return f"{cuts} cut rules, expected {n}"
        return None if rules[-1].strip() == last else f"last rule {rules[-1].strip()!r}"

    return _expect_lines(pred)


def _chain_trace(n: int, chan: str, out: str) -> Check:
    # Exactly one redex exists at each point: the outermost remaining cut.
    def pred(lines: list[str]) -> str | None:
        if len(lines) != n + 1:
            return f"{len(lines)} lines, expected {n + 1}"
        for k, line in enumerate(lines[:-1], 1):
            if not line.startswith(f"step {k}: β1⊥ on {chan}{k} ⇒ "):
                return f"step line {line[:80]!r}"
        want = f"canonical after {n} steps: {out}[].0"
        return None if lines[-1] == want else f"last line {lines[-1][:80]!r}"

    return _expect_lines(pred)


def _mix_atoms(text: str) -> list[str]:
    return sorted(a.strip() for a in text.replace("(", " ").replace(")", " ").split("|"))


def _mix_reduce(order: list[int], out: str) -> Check:
    # Each cut reduces once; what remains is the mix of the free outputs, in
    # whatever order and nesting the congruence leaves them.
    head = f"canonical after {len(order)} steps: "
    want = sorted(f"{out}{i}[].0" for i in order)

    def pred(lines: list[str]) -> str | None:
        if len(lines) != 1 or not lines[0].startswith(head):
            return f"printed {lines[:1]}"
        return None if _mix_atoms(lines[0][len(head):]) == want else f"canonical form {lines[0][:120]!r}"

    return _expect_lines(pred)


def _mix_disentangle(order: list[int], chan: str, out: str) -> Check:
    # One CP component per unit cut, typed by its own free name.
    want = sorted(f"⊢ new {chan}{i}:1 ({chan}{i}[].0 | {chan}{i}().{out}{i}[].0) : {out}{i}:1" for i in order)

    def pred(lines: list[str]) -> str | None:
        if len(lines) != len(order) + 1 or not lines[-1].startswith("recombined: "):
            return f"{len(lines)} lines, expected {len(order)} components and the recombination"
        return None if sorted(lines[:-1]) == want else "components differ"

    return _expect_lines(pred)


def _mix_internalize(width: int) -> Check:
    # The hyper-environment has one sequent `out_i:1` per cut, so the collapse
    # is a tensor of `width` units.
    def pred(lines: list[str]) -> str | None:
        if len(lines) != 1 or not lines[0].startswith("⊢ "):
            return f"printed {lines[:2]}"
        name, sep, typ = lines[0].rpartition(" : ")[2].partition(":")
        if not sep or typ.replace("(", "").replace(")", "") != " * ".join(["1"] * width):
            return f"internalized type {typ[:80]!r}"
        return None

    return _expect_lines(pred)


def _mix_graph(width: int) -> Check:
    # The states are the subsets of cuts already reduced: 2^w nodes, one edge
    # per (state, unreduced cut), and one terminal state.
    want = f"{2 ** width} nodes, {width * 2 ** (width - 1)} edges, 1 terminal"

    def pred(lines: list[str]) -> str | None:
        return None if lines[-1:] == [want] else f"last line {lines[-1:]}"

    return _expect_lines(pred)


def cli_sweep(workdir: Path, seed: int, sizes: Sizes = SWEEP) -> list[Op]:
    """Every cli-scaled operation once, in file order."""
    sp = spelling(seed, sizes)
    ops = []

    def op(label: str, args: list[str], check: Check) -> None:
        ops.append(Op(label, tuple(args[:1] + [str(workdir / args[1])] + args[2:]), 1, check))

    for hcp in (False, True):
        d = "hcp" if hcp else "cp"
        for n in sizes.chains:
            f = _chain_file(n, hcp)
            op(f"check {d} chain n={n}", ["check", f], _expect_text(f"⊢ Main : {sp.out}:1\n"))
            op(f"reduce {d} chain n={n}", ["reduce", f, "--proc", "Main"],
               _expect_text(f"canonical after {n} steps: {sp.out}[].0\n"))
        for n in sizes.derivations:
            f = _chain_file(n, hcp)
            op(f"check --show-derivation {d} chain n={n}", ["check", f, "--show-derivation"],
               _chain_derivation(n, hcp, sp.out))
            op(f"reduce --trace {d} chain n={n}", ["reduce", f, "--proc", "Main", "--trace"],
               _chain_trace(n, sp.chan, sp.out))
    for w in sizes.mixes:
        f, order = _mix_file(w), sp.order[w]
        env = " | ".join(f"{sp.mix_out}{i}:1" for i in order)
        op(f"check mix w={w}", ["check", f], _expect_text(f"⊢ Main : {env}\n"))
        op(f"reduce mix w={w}", ["reduce", f, "--proc", "Main"], _mix_reduce(order, sp.mix_out))
        op(f"disentangle mix w={w}", ["disentangle", f, "--proc", "Main"],
           _mix_disentangle(order, sp.mix_chan, sp.mix_out))
        op(f"internalize mix w={w}", ["internalize", f, "--proc", "Main"], _mix_internalize(w))
    for w in sizes.graphs:
        op(f"graph mix w={w}", ["graph", _mix_file(w), "--proc", "Main"], _mix_graph(w))
    return ops


def cli_unit(workdir: Path, seed: int, unit: int) -> list[Op]:
    ops = cli_sweep(workdir, seed)
    random.Random(f"cli-scaled:{seed}:sweep:{unit}").shuffle(ops)
    return ops


def unit_ops(workload: str, workdir: Path, seed: int, unit: int) -> list[Op]:
    if workload == "cli-scaled":
        return cli_unit(workdir, seed, unit)
    return fuzz_unit(workload, seed, unit)
