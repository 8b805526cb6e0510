import contextlib
import io
import os
import pathlib
import subprocess
import sys
from collections import Counter

import pytest

from sill import congruence as cg
from sill import cli, cp, harness, hcp, names, reduction as rd, transport
from sill.harness import GenConfig, gen_cp, gen_hcp, provable, run_suite
from sill.names import Name
from sill.surface import parse_file, print_env, print_term
from sill.typecheck import TypeCheckError, check_cp, check_hcp, first_invalid, hyper_eq
from sill.types import BOT, ONE, TOP, ZERO, Par, Plus, Tensor, With, dual


def test_generator_soundness_thousand_samples_seed_42():
    cfg = GenConfig(seed=42, count=1000)
    for i in range(1000):
        term, env, deriv = gen_cp(cfg, i)  # check_cp runs inside
        assert deriv is not None


def test_hcp_generator_soundness():
    cfg = GenConfig(seed=42, count=1)
    for i in range(300):
        term, env, deriv = gen_hcp(cfg, i)
        assert deriv is not None


def test_generator_is_reproducible():
    from sill.surface import print_term

    cfg = GenConfig(seed=77, count=1)
    a = [print_term(gen_cp(cfg, i)[0]) for i in range(20)]
    harness._cp_samples.clear()
    b = [print_term(gen_cp(cfg, i)[0]) for i in range(20)]
    assert a == b


def test_fuzz_commands_do_not_grow_the_heap():
    # each fuzz command draws a fresh stream; samples of earlier streams must
    # not stay reachable, or the heap (and the cyclic GC's passes over it)
    # grows with every command a process runs
    code = ("import contextlib, gc, io\n"
            "from sill import cli\n"
            "for k in range(1, 31):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(['fuzz', '--suite', 'progress', '--count', '6', '--seed', str(1000 + k)]) == 0\n"
            "    if k in (5, 30):\n"
            "        gc.collect()\n"
            "        print(len(gc.get_objects()))\n")
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_5, after_30 = map(int, proc.stdout.split())
    assert after_30 < 1.5 * after_5, (after_5, after_30)


def test_fuzz_all_generates_each_sample_once_per_dialect(monkeypatch):
    made = Counter()
    sample = harness._CpGen.sample

    def counted(self, what, index):
        made[what, index] += 1
        return sample(self, what, index)

    cfg = GenConfig(seed=4242, count=8)
    harness._cp_samples.clear()
    harness._hcp_samples.clear()
    monkeypatch.setattr(harness._CpGen, "sample", counted)
    for i in range(cfg.count):
        gen_hcp(cfg, i)
    once = made + Counter(("CP term", i) for i in range(cfg.count))  # an HCP sample makes a component per part
    harness._cp_samples.clear()
    harness._hcp_samples.clear()
    made.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["fuzz", "--suite", "all", "--seed", "4242", "--count", "8", "--json"]) == 0
    assert made == once


def test_returning_to_a_stream_makes_the_same_samples_and_reports():
    a, b = GenConfig(seed=51, count=6), GenConfig(seed=52, count=6)
    first = gen_cp(a, 3), gen_hcp(a, 3)
    runs = []
    for cfg in (a, b, a):
        runs.append([run_suite(name, cfg).json_lines() for name in harness.SUITE_NAMES])
    assert runs[0] == runs[2]
    gen_cp(b, 3), gen_hcp(b, 3)  # drop stream a again
    counter = names._counter
    again = gen_cp(a, 3), gen_hcp(a, 3)
    assert names._counter == counter  # made again, the sample moves no supply
    for (t1, env1, _), (t2, env2, _) in zip(first, again):
        assert t2 is not t1 and t2 == t1 and env2 == env1


def test_reduction_rule_coverage():
    cfg = GenConfig(seed=42, count=1)
    rules = Counter()
    for i in range(400):
        term, _, _ = gen_cp(cfg, i)
        for st in rd.reduce(term).steps:
            rules[st.redex.rule] += 1
    for rule in (rd.RULE_LINK, rd.RULE_TENS, rd.RULE_UNIT, rd.RULE_PLUS1, rd.RULE_PLUS2):
        assert rules[rule] > 0, rule


def test_hcp_samples_include_wide_root_mixes():
    cfg = GenConfig(seed=42, count=1)
    widths = Counter()
    for i in range(200):
        term, _, _ = gen_hcp(cfg, i)
        widths[len(cg.prenex_hcp(term).comps)] += 1
    assert any(w >= 3 for w in widths)


def test_hcp_samples_leave_translation_image():
    # scrambling produces terms that are not literal translation images
    cfg = GenConfig(seed=42, count=1)
    non_image = 0
    for i in range(80):
        term, _, _ = gen_hcp(cfg, i)
        p = cg.prenex_hcp(term)
        if len(p.comps) >= 2 and p.binders:
            non_image += 1
    assert non_image > 0


def test_provable_oracle_matches_checker_on_samples():
    # the generator's provability oracle and the checker agree on accepts
    cfg = GenConfig(seed=43, count=1)
    for i in range(100):
        term, env, _ = gen_cp(cfg, i)
        assert provable(harness._canon(tuple(env.values())))


def test_inhabit_premises_are_provable(monkeypatch):
    # provability is looked up only for a sampled environment
    # (`_CpGen.sample_env`): every premise inhabit or _finish passes down is
    # provable by construction
    inhabit, nested, calls = harness._CpGen.inhabit, 0, 0

    def checked(self, env, depth):
        nonlocal nested, calls
        if nested:
            calls += 1
            assert harness._env_provable(env), env
        nested += 1
        try:
            return inhabit(self, env, depth)
        finally:
            nested -= 1

    monkeypatch.setattr(harness._CpGen, "inhabit", checked)
    for cfg in (GenConfig(seed=42), GenConfig(seed=7, max_type_size=7, max_depth=6),
                GenConfig(seed=1234, max_type_size=3, max_depth=3)):
        for i in range(150):
            harness._make_cp(cfg, i)
            harness._make_hcp(cfg, i)
    assert calls > 20000


def test_provable_oracle_basic_values():
    assert provable((ONE,))
    assert provable((TOP,))
    assert not provable((BOT,))
    assert not provable((ONE, ONE))
    assert provable((ONE, BOT))
    assert provable((Tensor(ONE, ONE), BOT, BOT))
    assert not provable((ZERO,))
    assert provable((ZERO, TOP))
    assert provable((Plus(ONE, ZERO),))
    assert not provable((Plus(ZERO, ZERO),))
    assert provable((With(BOT, BOT), ONE))


def test_splitting_soundness_env_names_all_free():
    # every declared channel of a generated sample occurs free in the term,
    # so the deterministic routing consumes each exactly once
    cfg = GenConfig(seed=44, count=1)
    for i in range(60):
        term, env, _ = gen_cp(cfg, i)
        assert set(env) == cp.free_names(term)
    for i in range(60):
        term, env, _ = gen_hcp(cfg, i)
        assert set(env) == hcp.free_names(term)


def test_suite_reports_are_reproducible():
    cfg = GenConfig(seed=42, count=25)
    a = run_suite("preservation-cp", cfg).text()
    b = run_suite("preservation-cp", cfg).text()
    assert a == b
    aj = run_suite("termination", cfg).json_lines()
    bj = run_suite("termination", cfg).json_lines()
    assert aj == bj


def test_all_suites_pass_smoke():
    cfg = GenConfig(seed=42, count=20)
    for name in harness.SUITE_NAMES:
        rep = run_suite(name, cfg)
        assert rep.ok, (name, rep.failures[0].detail if rep.failures else None)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense", GenConfig(seed=1, count=1))


def test_report_text_format():
    cfg = GenConfig(seed=42, count=5)
    rep = run_suite("progress", cfg)
    text = rep.text()
    assert text.startswith("suite progress: seed 42, 5 samples")
    assert text.endswith("suite progress: 5/5 passed")
    recs = rep.json_lines()
    assert recs[-1] == {"suite": "progress", "seed": 42, "passed": 5, "count": 5}


def test_mutation_selflock_admits_stuck_term():
    # with the side-condition check off, the self-lock fixture typechecks and
    # the progress property fails on it
    from conftest import load_fixture

    d = load_fixture("selflock.sill").decls[0]
    with pytest.raises(TypeCheckError):
        check_hcp(d.term, d.env)
    check_hcp(d.term, d.env, allow_self_lock=True)
    assert rd.find_redexes(d.term) == []
    assert not rd.is_canonical(d.term).ok  # progress would fail here


def test_mutation_liberal_offer_admits_stuck_term():
    from conftest import load_fixture

    d = load_fixture("with_counterexample.sill").decls[0]
    with pytest.raises(TypeCheckError):
        check_hcp(d.term, d.env)
    check_hcp(d.term, d.env, allow_hyper_with=True)
    assert rd.find_redexes(d.term) == []
    assert not rd.is_canonical(d.term).ok


def test_shrinking_produces_smaller_counterexample():
    # inject a deliberately false property and observe shrinking at work
    from sill.surface import print_term

    cfg = GenConfig(seed=42, count=1)

    def bogus(term, env, d, index):
        return "always fails" if isinstance(term, cp.CpTerm) else None

    for i in range(40):
        term, env, d = gen_cp(cfg, i)
        if len(print_term(term)) > 60:
            small, detail = harness._shrink(term, env, d, i, bogus, "always fails")
            assert len(print_term(small)) <= len(print_term(term))
            break
    else:
        pytest.skip("no large sample found")


def test_hcp_shrink_leaves_are_images_of_cp_leaves():
    x, y = Name("x", 1), Name("y", 2)
    assert harness._leaf_for([], "hcp") == hcp.Inert()
    assert harness._leaf_for([{x: ONE}], "hcp") == hcp.OutUnit(x, hcp.Inert())
    assert harness._leaf_for([{x: ONE, y: BOT}], "hcp") == hcp.Link(x, y)
    assert harness._leaf_for([{x: ONE, y: TOP}], "hcp") == hcp.Absurd(y)
    assert harness._leaf_for([{x: ONE}, {y: ONE}], "hcp") is None
    assert harness._leaf_for([{x: Tensor(ONE, ONE)}], "hcp") is None


def test_reduction_graph_budget():
    from conftest import load_fixture

    term = load_fixture("tensor_unit.sill").decls[0].term
    with pytest.raises(rd.BudgetExceeded):
        rd.reduction_graph(term, cap=2)


def test_progress_builds_one_configuration_per_sample(monkeypatch):
    builds = 0
    init = rd.Configuration.__init__

    def counted(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        init(self, *args, **kwargs)

    cfg = GenConfig(seed=42, count=1)
    samples = [(*gen(cfg, i), i) for gen in (gen_cp, gen_hcp) for i in range(100)]
    monkeypatch.setattr(rd.Configuration, "__init__", counted)
    for sample in samples:
        builds = 0
        assert harness._prop_progress(*sample) is None
        assert builds == 1


def test_hcp_samples_build_at_most_one_configuration(monkeypatch):
    # the steps an HCP sample is reduced by all fire on one configuration
    builds, fires, most = 0, 0, 0
    init, fire = rd.Configuration.__init__, rd.Configuration.fire

    def counted_init(self, *args, **kwargs):
        nonlocal builds
        builds += 1
        init(self, *args, **kwargs)

    def counted_fire(self, r):
        nonlocal fires
        fires += 1
        fire(self, r)

    monkeypatch.setattr(rd.Configuration, "__init__", counted_init)
    monkeypatch.setattr(rd.Configuration, "fire", counted_fire)
    for i in range(60):
        builds = fires = 0
        harness._make_hcp(GenConfig(seed=42), i)
        assert builds <= 1
        most = max(most, fires)
    assert most == 2


def test_properties_leave_the_sample_derivations_unchanged():
    # samples are cached and every suite reads the same derivation objects
    from sill.typecheck import render_derivation

    cfg = GenConfig(seed=42, count=12)
    samples = {(gen, i): gen(cfg, i)[2] for gen in (gen_cp, gen_hcp) for i in range(cfg.count)}
    before = {k: render_derivation(d) for k, d in samples.items()}
    for name in harness.SUITE_NAMES:
        assert run_suite(name, cfg).ok
    assert all(gen(cfg, i)[2] is d for (gen, i), d in samples.items())
    assert {k: render_derivation(d) for k, d in samples.items()} == before


def test_equiv_preservation_failures_are_shrunk(monkeypatch):
    cfg = GenConfig(seed=42, count=6)
    monkeypatch.setattr(cg, "equiv", lambda t1, t2: False)
    rep = run_suite("equiv-preservation", cfg)
    assert len(rep.failures) == cfg.count
    sizes = []
    for r in rep.failures:
        t, env, _ = (gen_cp if r.index % 2 == 0 else gen_hcp)(cfg, r.index)
        sizes.append((len(r.counterexample), len(harness._fmt_sample(t, env))))
    assert all(shrunk <= full for shrunk, full in sizes)
    assert any(shrunk < full for shrunk, full in sizes)


def test_transported_derivations_agree_with_the_checker():
    # every reduct of every sample: the transported derivation is valid where
    # it is new, derives the reduct itself, and concludes what the checker
    # infers for the reduct
    cfg = GenConfig(seed=42, count=1)
    steps = 0
    for i in range(100):
        term, env, d = gen_hcp(cfg, i)
        trace = rd.reduce(term)
        for st, d2, made in transport.derivations(d, trace.steps):
            steps += 1
            assert d2.term is st.term
            assert first_invalid(made) is None
            _, part = check_hcp(st.term, env)
            assert hyper_eq(part, d2.env)
    assert steps > 500


def test_transport_follows_a_freshened_sample():
    # the binder x occurs twice, so reduction freshens the term first, and
    # the transport renames the sample's derivation along with it
    x, w1, w2 = Name("x", 1), Name("w1", 2), Name("w2", 3)

    def unit_cut(w):
        return hcp.New(x, ONE, hcp.Par(hcp.OutUnit(x, hcp.Inert()), hcp.InUnit(x, hcp.OutUnit(w, hcp.Inert()))))

    term = hcp.Par(unit_cut(w1), unit_cut(w2))
    env = {w1: ONE, w2: ONE}
    d, _ = check_hcp(term, env)
    trace = rd.reduce(term)
    assert len(trace.steps) == 2
    out = list(transport.derivations(d, trace.steps))
    assert all(first_invalid(made) is None for _, _, made in out)
    assert all(hyper_eq(d2.env, d.env) for _, d2, _ in out)
    assert harness._prop_preservation(term, env, d, 0) is None


def test_transport_builds_an_inert_reduct():
    # the wait's continuation 0 offers no component, which only
    # allow_self_lock accepts; the step leaves no component, so the reduct is
    # 0 and its derivation is a lone H-Mix₀ node
    x = Name("x", 1)
    term = hcp.New(x, ONE, hcp.Par(hcp.OutUnit(x, hcp.Inert()), hcp.InUnit(x, hcp.Inert())))
    d, _ = check_hcp(term, {}, allow_self_lock=True)
    [(st, d2, made)] = transport.derivations(d, rd.reduce(term).steps)
    assert st.term == hcp.Inert()
    assert (d2.rule, d2.env, d2.premises) == ("H-Mix₀", [], ())
    assert made == [d2] and first_invalid(made) is None


def _flip_one_type(node):
    first = next(k for k, e in enumerate(node.env) if e)
    e = node.env[first]
    n = next(iter(e))
    node.env = [{m: dual(a) if m == n else a for m, a in e.items()} if k == first else f
                for k, f in enumerate(node.env)]


def _drop_one_premise(node):
    node.premises = node.premises[:-1]


@pytest.mark.parametrize("mutate", [_flip_one_type, _drop_one_premise])
def test_preservation_hcp_rejects_a_broken_transported_node(monkeypatch, mutate):
    # negative control: one transported node per step is spoiled after the
    # transport made it (it is a new node, so no cached derivation changes);
    # the per-node check must catch it on every sample that takes a step
    real = transport.derivations

    def spoiled(d, steps):
        for st, d2, made in real(d, steps):
            mutate(next(n for n in made if n.premises and any(n.env)))
            yield st, d2, made

    cfg = GenConfig(seed=42, count=1)
    samples = [(*gen_hcp(cfg, i), i) for i in range(40)]
    monkeypatch.setattr(transport, "derivations", spoiled)
    stepped = 0
    for sample in samples:
        if rd.reduce(sample[0]).steps:
            stepped += 1
            detail = harness._prop_preservation(*sample)
            assert detail is not None and "fails local validation" in detail, detail
    assert stepped > 20


def test_a_property_that_raises_fails_its_sample(monkeypatch):
    # reduce raises on this well-typed term (⊤ absorbs the cut's channel),
    # and on some of the shrinker's candidates for it; the suite reports
    # each such exception as the sample's failure instead of raising it
    src = "proc Main : c9:top, w:1 = new x:1 + 1 (x!inl.c9?{} | x?{inl: x().w[].0; inr: x().w[].0})\n"
    decl = parse_file(src).decls[0]
    sample = (decl.term, decl.env, check_cp(decl.term, decl.env))

    def reduces(t, env, d, index):
        rd.reduce(t)
        return None

    monkeypatch.setattr(harness, "gen_cp", lambda cfg, i: (sample[0], dict(sample[1]), sample[2]))
    monkeypatch.setitem(harness._SUITES, "reduces", (("cp",), reduces))
    rep = run_suite("reduces", GenConfig(seed=1, count=2))
    assert len(rep.failures) == 2
    for r in rep.failures:
        assert r.detail.startswith(("ReductionError: ", "CongruenceError: ")), r.detail
        assert "\n" not in r.detail
        assert r.counterexample


@pytest.mark.xfail(strict=True, reason="CHANGES.md FOUND: a ⊤ that absorbs a restricted name leaves "
                                       "a reduct whose cut has one endpoint, so preservation fails")
def test_preservation_hcp_holds_where_top_absorbs_a_payload():
    # well typed, and no generated sample has this shape: β⊗⅋ on c13 cuts
    # c15 between c15[].0 and c3?{}, which absorbed c14, so c15 has one user
    src = "hproc HA : c3:top = new c13:bot par bot. (c13(c14).c3?{} | c13[c15].(c15[].0 | c13[].0))\n"
    decl = parse_file(src).decls[0]
    d, _ = check_hcp(decl.term, decl.env)
    assert harness._prop_preservation(decl.term, decl.env, d, 0) is None


GENERATOR_GOLDEN = pathlib.Path(__file__).parent / "golden" / "generator" / "samples.txt"
# between them these reach every rule of both `inhabit` and `_finish`
GOLDEN_CONFIGS = (GenConfig(seed=42), GenConfig(seed=7, max_depth=2, max_type_size=3),
                  GenConfig(seed=1234, max_depth=6, max_type_size=6))


def generator_transcript() -> str:
    """Samples 0-19 of gen_cp and gen_hcp at each of GOLDEN_CONFIGS: per
    sample, its printed term and its printed environment.  After a deliberate
    change to the generator, rewrite the golden with
    `PYTHONPATH=src python tests/test_harness.py`."""
    lines = []
    for cfg in GOLDEN_CONFIGS:
        label = f"seed={cfg.seed} max_depth={cfg.max_depth} max_type_size={cfg.max_type_size}"
        for gen, dialect in ((gen_cp, "cp"), (gen_hcp, "hcp")):
            for i in range(20):
                t, env, _ = gen(cfg, i)
                lines.append(f"{label} {dialect} {i} term {print_term(t)}")
                lines.append(f"{label} {dialect} {i} env {print_env(env)}")
    return "\n".join(lines) + "\n"


def test_generated_samples_match_golden():
    assert generator_transcript() == GENERATOR_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GENERATOR_GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GENERATOR_GOLDEN.write_text(generator_transcript(), encoding="utf-8")
    print("wrote tests/golden/generator/samples.txt", file=sys.stderr)
