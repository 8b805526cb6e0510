"""Differential tests: typed translation, disentanglement and internalization
against the bridge they replaced (kept in tests/reference_bridge.py).

Both must build the same derivations node for node (rule, term, and every
environment with its order), the same disentanglement log and recombined
term, raise the same errors, and leave the global name supply in the same
place.  `Derivation` compares by identity, so the comparison walks the trees.
Inputs: samples 0-299 of each dialect at seed 42, every fixture declaration,
the HCP mixes of the cli-scaled benchmark workload (w = 16, 32, 64), and
processes that push a mix out of every rule that can hold one.
"""
import pathlib
import sys

import pytest

import reference_bridge as ref

from sill import bridge, harness, names, surface
from sill.typecheck import TypeCheckError, check_cp, check_hcp

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _envs(env) -> list:
    if isinstance(env, dict):
        return list(env.items())
    return [list(e.items()) for e in env]


def _same_derivation(got, want) -> None:
    stack = [(got, want)]
    while stack:
        g, w = stack.pop()
        assert g.rule == w.rule
        assert g.term == w.term, (g.rule, surface.print_term(g.term), surface.print_term(w.term))
        assert _envs(g.env) == _envs(w.env), g.rule
        assert len(g.premises) == len(w.premises), g.rule
        stack += zip(g.premises, w.premises)


def _same_disentanglement(got, want) -> None:
    assert len(got.components) == len(want.components)
    for g, w in zip(got.components, want.components):
        _same_derivation(g, w)
    assert got.log == want.log
    assert got.recombined == want.recombined


def _run(fn, d):
    try:
        return fn(d)
    except bridge.BridgeError as e:
        return e


def _agree(new, old, d, same) -> None:
    """Run old and new from the same name supply and compare."""
    start = names._counter
    want = _run(old, d)
    want_counter = names._counter
    names._counter = start
    got = _run(new, d)
    assert names._counter == want_counter
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        same(got, want)


def _compare_cp(d) -> None:
    _agree(bridge.translate_typed, ref.translate_typed, d, _same_derivation)
    hd = bridge.translate_typed(d)
    _compare_hcp(hd)


def _compare_hcp(d) -> None:
    _agree(bridge.disentangle, ref.disentangle, d, _same_disentanglement)
    _agree(bridge.tens_internalize, ref.tens_internalize, d, _same_derivation)


@pytest.mark.parametrize("dialect", ["cp", "hcp"])
def test_generated_samples_agree(dialect):
    cfg = harness.GenConfig(seed=42, count=300)
    gen = harness.gen_cp if dialect == "cp" else harness.gen_hcp
    compare = _compare_cp if dialect == "cp" else _compare_hcp
    for i in range(300):
        _, _, d = gen(cfg, i)
        compare(d)


def _compare_decls(f) -> int:
    compared = 0
    for decl in f.decls:
        try:
            d = check_cp(decl.term, decl.env) if decl.dialect == "cp" else check_hcp(decl.term, decl.env)[0]
        except TypeCheckError:
            continue
        (_compare_cp if decl.dialect == "cp" else _compare_hcp)(d)
        compared += 1
    return compared


@pytest.mark.parametrize("fixture", sorted(p.name for p in (ROOT / "fixtures").glob("*.sill")))
def test_fixture_declarations_agree(fixture):
    path = ROOT / "fixtures" / fixture
    _compare_decls(surface.parse_file(path.read_text(encoding="utf-8"), filename=str(path)))


def test_cli_scaled_mixes_agree():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    mixes = {f"mix-{w}.sill" for w in (16, 32, 64)}
    files = [f for f in workloads.inputs(5) if f.name in mixes]
    assert len(files) == 3
    for f in files:
        assert _compare_decls(surface.parse_file(f.text, filename=f.name)) == 1


# Neither the samples nor the fixtures push a mix out of a wait, an input, a
# selection or a unit output.
PUSHES = """\
hproc Wait : x:bot, a:1, b:1 = x().(a[].0 | b[].0)
hproc Input : x:bot par 1, b:1 = x(y).(y().x[].0 | b[].0)
hproc Select : x:1 + bot, b:1 = x!inl.(x[].0 | b[].0)
hproc Halt : x:1, b:1 = x[].b[].0
hproc Cut : w:1, b:1 = new x:1. (x[].0 | (b[].0 | x().w[].0))
hproc Output : x:1 * 1, b:1 = x[y].(y[].0 | (b[].0 | x[].0))
"""


def test_every_pushed_mix_agrees():
    f = surface.parse_file(PUSHES, filename="pushes.sill")
    assert _compare_decls(f) == len(f.decls)
    logs = [bridge.disentangle(check_hcp(d.term, d.env)[0]).log for d in f.decls]
    assert [len(log) for log in logs] == [1] * len(f.decls)
    assert [log[0].split(" on ")[0] for log in logs] == [
        "pushed a mix out of the wait", "pushed a mix out of the input", "pushed a mix out of the selection",
        "split the unit output", "pushed a mix below the cut", "pushed a mix below the output"]
