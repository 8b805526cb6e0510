"""Command-line front door over .sill session files.

Subcommands: check, reduce, graph, translate, disentangle, internalize, fuzz.
Exit codes: 0 success / all-pass, 1 type or simulation failure, 2 usage or
parse error, 3 budget exhausted, or an input nested too deeply for the
recursive layers (one line, `RecursionError: input nests too deeply`).
--json switches the output to JSON lines (graph's --dot takes precedence), and
--show-derivation appends each derivation in the same form.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import bridge, congruence, harness, reduction, surface
from .typecheck import TypeCheckError, check_cp, check_hcp, derivation_json_lines, render_derivation


def _load(path: str) -> surface.SessionFile:
    with open(path, "r", encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
        return surface.parse_file(fh.read(), filename=path)


def _at_least(low: int, what: str):
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"{what} must be at least {low}, not {n}")
        return n

    parse.__name__ = what  # argparse names the type in "invalid <what> value"
    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line, `<prog>: error: <message>`, without
    argparse's usage block.  Subcommand parsers are made of the same class."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _emit(records) -> None:
    for r in records:
        print(json.dumps(r, ensure_ascii=False))


def _show(args, records: list[dict], lines: list[str], derivations=()) -> None:
    """Print a command's result: its records as JSON lines under --json, its
    text lines otherwise; then, under --show-derivation, each derivation in
    the same form.  Commands without that option pass no derivations."""
    if args.json:
        _emit(records)
    else:
        for line in lines:
            print(line)
    if derivations and args.show_derivation:
        for deriv in derivations:
            if args.json:
                _emit(derivation_json_lines(deriv))
            else:
                print(render_derivation(deriv))


class _Refused(Exception):
    """An input a command declines: `main` prints the message and exits with
    the code."""

    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


_DIALECT_NAMES = {"cp": "a CP", "hcp": "an HCP"}


def _decl(f: surface.SessionFile, name: str) -> surface.Decl:
    """f's declaration named name; an unknown name is refused with exit 2."""
    try:
        return f.get(name)
    except KeyError:
        raise _Refused(f"{f.filename}: no declaration named '{name}'", 2) from None


def _checked(args, dialect: str | None = None):
    """Load args.file, take its declaration args.proc and typecheck it:
    (declaration, derivation).  A declaration not of the given dialect is
    refused with exit 2, one that does not typecheck with exit 1, each in
    one line."""
    d = _decl(_load(args.file), args.proc)
    if dialect is not None and d.dialect != dialect:
        raise _Refused(f"{args.file}: {d.name} is not {_DIALECT_NAMES[dialect]} declaration", 2)
    try:
        return d, check_cp(d.term, d.env) if d.dialect == "cp" else check_hcp(d.term, d.env)[0]
    except TypeCheckError as e:
        raise _Refused(e.render(args.file), 1) from None


def cmd_check(args) -> int:
    f = _load(args.file)
    decls = f.decls if args.proc is None else [_decl(f, args.proc)]
    status = 0
    for d in decls:
        try:
            if d.dialect == "cp":
                deriv, shown = check_cp(d.term, d.env), surface.print_env(d.env)
            else:
                deriv, part = check_hcp(d.term, d.env)
                shown = surface.print_hyper_env(part)
        except TypeCheckError as e:
            _show(args, [{"proc": d.name, **e.json_record()}], [e.render(args.file)])
            status = 1
            continue
        _show(args, [{"proc": d.name, "ok": True, "env": shown}], [f"⊢ {d.name} : {shown}"], [deriv])
    return status


def cmd_reduce(args) -> int:
    d, _ = _checked(args)
    trace = reduction.reduce(d.term, fuel=args.fuel)  # None: reduce's own bound, 1 + the measure's sum
    if args.json:
        _emit(reduction.trace_json_lines(trace))
    elif args.trace:
        print(reduction.render_trace(trace))
    else:
        print(f"{trace.status} after {len(trace.steps)} steps: {surface.print_term(trace.final)}")
    return 0 if trace.status == "canonical" else 1


def cmd_graph(args) -> int:
    d, _ = _checked(args)
    g = reduction.reduction_graph(d.term, cap=args.cap)
    printed = surface.print_terms(g.nodes)
    terminals = set(g.terminals)
    if args.dot:
        print("digraph reduction {")
        for i, term in enumerate(printed):
            shape = "doublecircle" if i in terminals else "circle"
            label = term.replace('"', "'")
            print(f'  n{i} [shape={shape}, label="{label}"];')
        for src, dst, rule, chan in g.edges:
            print(f'  n{src} -> n{dst} [label="{rule} {chan}"];')
        print("}")
        return 0
    records = [{"node": i, "term": term, "terminal": i in terminals} for i, term in enumerate(printed)]
    records += [{"edge": [src, dst], "rule": rule, "channel": chan} for src, dst, rule, chan in g.edges]
    lines = [f"node {i}{' (terminal)' if i in terminals else ''}: {term}" for i, term in enumerate(printed)]
    lines += [f"edge {src} -> {dst}: {rule} on {chan}" for src, dst, rule, chan in g.edges]
    lines.append(f"{len(g.nodes)} nodes, {len(g.edges)} edges, {len(g.terminals)} terminal")
    _show(args, records, lines)
    return 0


def cmd_translate(args) -> int:
    d, deriv = _checked(args, "cp")
    hd = bridge.translate_typed(deriv)
    term = surface.print_term(hd.term)
    _show(args, [{"proc": d.name, "term": term, "env": surface.print_hyper_env(hd.env)}], [term], [hd])
    return 0


def cmd_disentangle(args) -> int:
    _, deriv = _checked(args, "hcp")
    res = bridge.disentangle(deriv)
    shown = [(surface.print_term(c.term), surface.print_env(c.env)) for c in res.components]
    recombined = surface.print_term(res.recombined)
    records = [{"component": i, "term": term, "env": env} for i, (term, env) in enumerate(shown)]
    lines = [f"⊢ {term} : {env}" for term, env in shown]
    _show(args, records + [{"recombined": recombined}], lines + [f"recombined: {recombined}"], res.components)
    return 0


def cmd_internalize(args) -> int:
    d, deriv = _checked(args, "hcp")
    out = bridge.tens_internalize(deriv)
    term, env = surface.print_term(out.term), surface.print_env(out.env)
    _show(args, [{"proc": d.name, "term": term, "env": env}], [f"⊢ {term} : {env}"], [out])
    return 0


def cmd_fuzz(args) -> int:
    cfg = harness.GenConfig(seed=args.seed, count=args.count)
    suites = harness.SUITE_NAMES if args.suite == "all" else [args.suite]
    ok = True
    for name in suites:
        report = harness.run_suite(name, cfg)
        _show(args, report.json_lines(), [report.text()])
        ok = ok and report.ok
    return 0 if ok else 1


_FLAG = {"action": "store_true"}
_DERIVATION = [("--show-derivation", _FLAG)]

# Each command over a .sill file: its function, its help, and its options
# between `file --proc` and `--json`, in the order `-h` lists them.
_COMMANDS = {
    "check": (cmd_check, "typecheck the declarations of a .sill file", _DERIVATION),
    "reduce": (cmd_reduce, "run the deterministic reduction strategy",
               [("--fuel", {"type": _at_least(1, "fuel")}), ("--trace", _FLAG)]),
    "graph": (cmd_graph, "explore the full reduction graph",
              [("--cap", {"type": _at_least(1, "cap"), "default": 10000}), ("--dot", _FLAG)]),
    "translate": (cmd_translate, "print the HCP image of a CP declaration", _DERIVATION),
    "disentangle": (cmd_disentangle, "split an HCP derivation into CP components", _DERIVATION),
    "internalize": (cmd_internalize, "collapse a hyper-environment to one tensor formula", _DERIVATION),
}


@functools.cache
def _parser() -> _Parser:
    """The `sill` argument parser, built on first use: parsing leaves it
    unchanged, so every `main` call shares it."""
    ap = _Parser(prog="sill", description="CP/HCP session-calculus toolkit")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("file")
        p.add_argument("--proc", required=name != "check")  # check takes every declaration by default
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn)

    p = sub.add_parser("fuzz", help="run a metatheory property suite")
    p.add_argument("--suite", default="all", choices=["all"] + harness.SUITE_NAMES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=_at_least(0, "count"), default=100)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_fuzz)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except _Refused as e:
        print(str(e))
        return e.code
    except surface.ParseError as e:
        print(str(e))
        return 2
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {e}")
        return 2
    except (reduction.BudgetExceeded, congruence.ClosureBudgetExceeded) as e:
        print(f"{type(e).__name__}: {e}")
        return 3
    except (reduction.ReductionError, congruence.CongruenceError, bridge.BridgeError) as e:
        print(f"{type(e).__name__}: {e}")
        return 1


def run(argv: list[str] | None = None) -> int:
    """The `sill` command: `main`, except that an input nested too deeply for
    the layers that still recurse (the checkers, free names) exits 3 with
    one line instead of a traceback.  `main` lets the RecursionError out, so
    that in-process callers see it as an exception.  The parser reads any
    depth; a parse error exits 2 with the one line
    `FILE:LINE:COL: syntax error: expected …, found …` (or a CP-only hint)."""
    try:
        return main(argv)
    except RecursionError:
        print("RecursionError: input nests too deeply")
        return 3


if __name__ == "__main__":
    sys.exit(run())
