"""The table-driven lexer and term reader against the recursive-descent parser
they replaced (tests/reference_surface.py).

On every input, either both accept it, with `==` results, equal `loc` on
every term node and declaration, and the same uids drawn, or both raise
`ParseError` at the same line and column.  Where the old parser gave one of
the five CP-only hints, the new one gives the same message."""
from __future__ import annotations

import pathlib
import random
import sys

import pytest
import reference_surface as ref
from conftest import FIXTURES, clash_heavy_terms, print_file, subterms
from hypothesis import given, settings
from hypothesis import strategies as st

from sill import cp, harness, names, surface
from sill.surface import Decl, ParseError, SessionFile
from sill.types import Type

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (the benchmark's input shapes; it imports nothing from sill)

_HINTS = ("is not a CP construct", "CP cut is written", "CP output requires", "CP halt is")


def _run(parse, src: str):
    with names.supply_from(10_000):
        try:
            out = parse(src)
        except ParseError as e:
            return e
        return out, names._counter


def _locs(t) -> list:
    return [node.loc for node in subterms(t)]


def _assert_same(src: str, new_parse, old_parse) -> bool:
    """True when both accept src."""
    new, old = _run(new_parse, src), _run(old_parse, src)
    if isinstance(old, ParseError) or isinstance(new, ParseError):
        assert isinstance(new, ParseError) and isinstance(old, ParseError), (src, new, old)
        assert new.loc == old.loc, (src, new.message, old.message)
        if any(h in old.message for h in _HINTS):
            assert new.message == old.message, src
        return False
    (a, a_counter), (b, b_counter) = new, old
    assert a == b and a_counter == b_counter, src
    if isinstance(a, SessionFile):
        assert [d.loc for d in a.decls] == [d.loc for d in b.decls]
        for d, e in zip(a.decls, b.decls):
            assert _locs(d.term) == _locs(e.term), src
    elif not isinstance(a, Type):
        assert _locs(a) == _locs(b), src
    return True


def _same_file(src: str) -> bool:
    return _assert_same(src, surface.parse_file, ref.parse_file)


def _same_term(src: str, dialect: str) -> bool:
    return _assert_same(src, lambda s: surface.parse_term(s, dialect), lambda s: ref.parse_term(s, dialect))


def _sample_files(count: int) -> list[str]:
    cfg = harness.GenConfig(seed=42, count=count)
    out = []
    for dialect, gen in (("cp", harness.gen_cp), ("hcp", harness.gen_hcp)):
        for i in range(count):
            term, env, _ = gen(cfg, i)
            out.append(print_file(SessionFile([Decl(f"S{i}", dialect, env, term, None)])))
    return out


def test_printed_samples():
    files = _sample_files(300)
    assert all(_same_file(src) for src in files)


def test_fixtures():
    for path in sorted(FIXTURES.glob("*.sill")):
        assert _same_file(path.read_text(encoding="utf-8")), path


_CP_TERMS, _HCP_TERMS = clash_heavy_terms()


@settings(max_examples=300, deadline=None)
@given(st.one_of(_CP_TERMS, _HCP_TERMS))
def test_printed_clash_heavy_terms(t):
    assert _same_term(surface.print_term(t), "cp" if isinstance(t, cp.CpTerm) else "hcp")


def test_benchmark_chains_and_mixes():
    sizes = workloads.Sizes(chains=(1, 2, 25, 50, 100), derivations=(), mixes=(1, 2, 16, 64, 100), graphs=())
    for seed in (1, 2, 3):
        for f in workloads.inputs(seed, sizes):
            assert _same_file(f.text), f.name


def _layouts(src: str) -> list[str]:
    def code(f) -> str:  # f applied to every line but the comments
        return "\n".join(line if line.startswith("--") else f(line) for line in src.split("\n"))

    return [code(lambda s: s.replace(" ", "\t")), src.replace("\n", "\r\n"), code(lambda s: s.replace(" ", " \t\r ")),
            code(lambda s: s + " -- a comment" if s else s), "-- head\n" + src + "-- tail",
            code(lambda s: s.replace("(", "\n(").replace(".", ".\t-- dot\n")), src.rstrip("\n") + "  -- no newline"]


def test_layouts():
    srcs = [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.sill"))] + _sample_files(20)
    for src in srcs:
        for variant in _layouts(src):
            assert _same_file(variant)
    # ends of input after blanks and comments, on the last line or not
    for src in ["proc A : w:1 =", "proc A : w:1 = -- c", "proc A : w:1 =\t\r -- c\n", "proc A : w:1 = w[].\n\n",
                "proc A : w:1 = w[] -- c\n-- d", "", "-- only", "\n\n  ", "proc A : w:1 = new x:1 (x[].0 |"]:
        _same_file(src)


def test_identifier_characters_and_numbers():
    accepted = ["proc Aé : é:1 = é[].0", "hproc λ : λ':1, x²:bot = λ'[].x²().0",
                "proc Aⅻ : aⅫ:1 = aⅫ[].0", "hproc A : x٣:1, _':bot = x٣[]._'().0", "proc A_b' : w:1 = w[].0"]
    rejected = ["01", "proc A : w:1 = w[].01", "proc A : w:10 = w[].0", "proc A : w:1 = w[].0²",
                "proc A : w:1 = ²w[].0", "proc A : Ⅻ:1 = Ⅻ[].0", "proc A : ٣:1 = ٣[].0", "proc A : 'w:1 = w[].0",
                "proc A : w:2 = w[].0", "proc A : w:1 = w[].0 @", "proc A : w:1 = w -> v", "proc A : w:1 = w <- v",
                "proc A : w:1 = w[].0 "]
    assert all(_same_file(src) for src in accepted)
    assert not any(_same_file(src) for src in rejected)
    for src in ["01", "1 * bot", "~(1 * bot) par 0", "1 + 1 & top", "1 * bot par 1", "((1)", "~", "1 *"]:
        _assert_same(src, surface.parse_type, ref.parse_type)
    for src in ["0", "(x[].0 | y[].0)", "new x:1. x[].0", "x[y].P", "x[].y[].0", "x[].", "new x:1 (x[].0 | 0)"]:
        assert not _same_term(src, "cp")


def _mutants(src: str, rng: random.Random, count: int) -> list[str]:
    """count token deletions, duplications and swaps of src's tokens."""
    toks = [t.text for t in ref._lex(src, "<src>")[:-1]]
    out = []
    for k in range(count):
        i, j = rng.randrange(len(toks)), rng.randrange(len(toks))
        mutant = list(toks)
        if k % 3 == 0:
            del mutant[i]
        elif k % 3 == 1:
            mutant.insert(i, toks[i])
        else:
            mutant[i], mutant[j] = mutant[j], mutant[i]
        out.append(" ".join(mutant))
    return out


def test_token_mutations():
    rng = random.Random(42)
    srcs = [src for src in _sample_files(300) if len(src) < 300]
    srcs += [path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.sill"))]
    mutants = [m for src in srcs for m in _mutants(src, rng, 15)]
    assert len(mutants) >= 2000
    accepted = sum(_same_file(m) for m in mutants)
    assert 0 < accepted < len(mutants)


@pytest.mark.parametrize("dialect", ["cp", "hcp"])
def test_printed_sample_terms(dialect):
    gen = harness.gen_cp if dialect == "cp" else harness.gen_hcp
    cfg = harness.GenConfig(seed=42, count=300)
    for i in range(300):
        text = surface.print_term(gen(cfg, i)[0])
        assert _same_term(text, dialect)
        _same_term(text, "hcp" if dialect == "cp" else "cp")  # read as the other dialect: hints and errors agree
