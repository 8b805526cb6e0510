"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is also part of the default suite.
"""
import pathlib
import random
import time

import pytest

from conftest import FIXTURES, load_fixture

from sill import bridge, congruence as cg, harness, reduction as rd, surface, terms
from sill.harness import GenConfig, run_suite
from sill.typecheck import TypeCheckError, check_cp, check_hcp
from sill.types import BOT, ONE

SEED = 42


def _report(criterion: str, detail: str):
    print(f"PASS: {criterion} — {detail}")


def test_criterion_1_metatheory_suites():
    t0 = time.perf_counter()
    reports = [
        run_suite("preservation-cp", GenConfig(seed=SEED, count=500)),
        run_suite("preservation-hcp", GenConfig(seed=SEED, count=500)),
        run_suite("progress", GenConfig(seed=SEED, count=1000)),  # 500 per dialect
        run_suite("termination", GenConfig(seed=SEED, count=1000)),
    ]
    elapsed = time.perf_counter() - t0
    for rep in reports:
        assert rep.ok, f"{rep.suite}: {rep.failures[0].detail}"
    assert elapsed < 60.0, f"metatheory suites took {elapsed:.1f}s"
    _report("criterion 1 (preservation/progress/termination)",
            f"500 samples per dialect each, seed {SEED}, {elapsed:.1f}s")


def test_criterion_2_termination_bound():
    violations = 0
    checked = 0
    for i in range(500):
        for gen in (harness.gen_cp, harness.gen_hcp):
            term, env, _ = gen(GenConfig(seed=SEED, count=500), i)
            bound = sum(rd.measure(term))
            trace = rd.reduce(term, fuel=1 + bound)
            if trace.status != "canonical" or len(trace.steps) > bound:
                violations += 1
            prev = rd.measure(term)
            for st in trace.steps:
                checked += 1
                if not rd.multiset_less(st.measure, prev):
                    violations += 1
                prev = st.measure
    assert violations == 0
    _report("criterion 2 (termination bound)",
            f"trace length ≤ Σmeasure and strict multiset decrease over {checked} steps, 0 violations")


def test_criterion_3_translation_theorems():
    reports = [
        run_suite("translate-typing", GenConfig(seed=SEED, count=500)),
        run_suite("equiv-preservation", GenConfig(seed=SEED, count=1000)),  # 500 CP halves
        run_suite("simulate-forward", GenConfig(seed=SEED, count=500)),
        run_suite("simulate-backward", GenConfig(seed=SEED, count=500)),
    ]
    for rep in reports:
        assert rep.ok, f"{rep.suite}: {rep.failures[0].detail}"
    _report("criterion 3 (translation theorems)",
            "typing, congruence, forward and backward simulation on 500 CP samples, 0 failures")


def test_criterion_4_disentanglement():
    rep = run_suite("disentangle", GenConfig(seed=SEED, count=300))
    assert rep.ok, rep.failures[0].detail if rep.failures else None
    _report("criterion 4 (disentanglement)",
            "300 HCP samples split into CP components, recombination congruent")


def test_criterion_5_internalization():
    assert bridge.bigparr({}) == BOT
    assert bridge.bigtens([]) == ONE
    rep = run_suite("internalize", GenConfig(seed=SEED, count=300))
    assert rep.ok, rep.failures[0].detail if rep.failures else None
    _report("criterion 5 (internalization)",
            "bigparr(∅)=bot, bigtens(∅)=1, 300 samples typecheck at the tensor collapse")


def test_criterion_6_negative_controls():
    selflock = load_fixture("selflock.sill").decls[0]
    with pytest.raises(TypeCheckError) as e1:
        check_hcp(selflock.term, selflock.env)
    assert e1.value.kind == "SelfLock"

    stuck2 = load_fixture("with_counterexample.sill").decls[0]
    with pytest.raises(TypeCheckError) as e2:
        check_hcp(stuck2.term, stuck2.env)
    assert e2.value.kind == "HyperContextForbidden"

    # with the checks mutated off, both fixtures typecheck yet are stuck:
    # no redex and not in canonical form, so the progress property fails
    check_hcp(selflock.term, selflock.env, allow_self_lock=True)
    assert rd.find_redexes(selflock.term) == []
    assert not rd.is_canonical(selflock.term).ok

    check_hcp(stuck2.term, stuck2.env, allow_hyper_with=True)
    assert rd.find_redexes(stuck2.term) == []
    assert not rd.is_canonical(stuck2.term).ok
    _report("criterion 6 (negative controls)",
            "SelfLock and HyperContextForbidden fire; mutated checkers admit stuck terms")


def test_criterion_7_determinism_and_roundtrip():
    count = 0
    for path in sorted(FIXTURES.glob("*.sill")):
        f = surface.parse_file(path.read_text(), filename=str(path))
        for d in f.decls:
            printed = surface.print_term(d.term)
            again = surface.parse_term(printed, d.dialect)
            eq = terms.alpha_eq
            assert eq(d.term, again), f"{path.name}:{d.name}"
            count += 1

    cfg = GenConfig(seed=SEED, count=40)
    a = run_suite("translate-typing", cfg).text()
    harness._cp_samples.clear()
    harness._hcp_samples.clear()
    b = run_suite("translate-typing", cfg).text()
    assert a == b

    term = load_fixture("tensor_unit.sill").decls[0].term
    t1 = rd.render_trace(rd.reduce(term))
    t2 = rd.render_trace(rd.reduce(term))
    assert t1 == t2
    _report("criterion 7 (determinism and round-trip)",
            f"parse∘print identity on {count} corpus declarations; reports and traces byte-identical")


def test_criterion_8_oracle_cross_checks():
    rng = random.Random("acceptance-oracle")
    pairs = 0
    small_cfg = GenConfig(seed=SEED, count=1, max_depth=2, max_type_size=3)
    i = 0
    while pairs < 200 and i < 4000:
        gen = harness.gen_cp if i % 2 == 0 else harness.gen_hcp
        a, _, _ = gen(small_cfg, i)
        i += 1
        if len(surface.print_term(a)) > 70:
            continue
        b = harness.scramble(a, rng, rng.randint(1, 3))
        assert cg.equiv(a, b)
        assert cg.bfs_equiv(a, b, max_steps=6, node_cap=200000)
        pairs += 1
    assert pairs >= 200

    # a non-congruent pair agrees negatively
    x = surface.parse_term("new x:1 (x[].0 | x().w[].0)", "cp")
    y = surface.parse_term("new x:1 (x[].0 | x().v[].0)", "cp")
    assert not cg.equiv(x, y) and not cg.bfs_equiv(x, y, max_steps=4)

    term = load_fixture("tensor_unit.sill").decls[0].term
    g = rd.reduction_graph(term)
    assert len(g.nodes) == 4 and len(g.edges) == 3 and g.is_path and len(g.terminals) == 1
    _report("criterion 8 (oracle cross-checks)",
            f"equiv agrees with bounded BFS closure on {pairs} pairs; fixture graph is the unique 4-node path")
