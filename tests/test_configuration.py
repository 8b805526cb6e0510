"""Reduction on configurations, checked against the reducer it replaced.

`reference_reduction` keeps the term-level reducer verbatim: it takes the
prenex form of the whole term again at every step.  Both run on samples
0-299 of `gen_cp`/`gen_hcp` at seed 42, on every fixture declaration, on
unit-cut chains and mixes of the sizes the benchmark uses, on many-cuts terms
and on CP cut trees shaped as paths and stars with shuffled cut uids (whose
cut order moves at every step; `scripts/scaling.py` makes them), and on the
terms the shrinker builds with a ⊤ leaf, some of whose steps raise.  Per
step they must agree on the redex list (each redex as its rule, channel and
the components it names: after a CP step a position indexes the
configuration, not the term), the reduct (`==`), the measure and the
configuration's fields against the prenex form of the reduct (for CP as
multisets: each cut with its two components) or on the error's class and
message; per run on the trace, the status and the name supply's counter
afterwards.  After every step the configuration's index (`users`, the free
names, the CP cut records' endpoints, the slots) is checked against its
components (`_check_index`).  Single steps on a term, whose positions are
the term's, are compared on every redex of every sample.
"""
import pathlib
import random
import sys
from collections import Counter

import pytest

import reference_reduction as ref
from sill import congruence as cg
from sill import cp, harness, hcp, names, surface, terms, typecheck
from sill import reduction as rd
from sill.names import Name
from sill.types import BOT, ONE, Plus, Tensor, dual

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
sys.path.insert(0, str(ROOT / "scripts"))
import scaling  # noqa: E402  (the benchmark's inputs: many cuts, paths and stars)


def _redex(r) -> tuple:
    return (r.rule, r.channel, r.i, r.j)


def _redex_at(r, comps) -> tuple:
    """A redex with its positions read as the components they index."""
    return (r.rule, r.channel, comps[r.i], comps[r.j])


def _new_redex(r) -> rd.Redex:
    return rd.Redex(r.rule, r.channel, r.i, r.j)


def _outcome(fn):
    """fn's value, or the class name and message of what it raised."""
    try:
        return fn(), None
    except Exception as e:  # the two reducers must fail alike
        return None, (type(e).__name__, str(e))


def _cp_fields(cuts, comps) -> tuple:
    """CP cuts (name, formula, left component, right component), each with
    its two components and the formula each end has, and the components,
    as multisets: a CP configuration keeps no order."""
    return Counter((x, frozenset(((left, a), (right, dual(a))))) for x, a, left, right in cuts), Counter(comps)


def _ref_fields(t) -> tuple:
    if isinstance(t, cp.CpTerm):
        p = ref.prenex_cp(t)
        return _cp_fields([(b.name, b.ty, p.comps[b.left], p.comps[b.right]) for b in p.binders], p.comps)
    p = ref.prenex_hcp(t)
    return list(p.binders), list(p.comps)


def _fields(c: rd.Configuration) -> tuple:
    if c.is_cp:
        at = dict(zip(c.slots, c.comps))
        return _cp_fields([(x, a, at[left], at[right]) for x, (a, left, right) in c.binders.items()], c.comps)
    return list(c.binders.items()), list(c.comps)


def _prenex_comps(t) -> list:
    return (ref.prenex_cp(t) if isinstance(t, cp.CpTerm) else ref.prenex_hcp(t)).comps


def _ref_walk(t) -> list:
    out, cur = [], t
    for _ in range(ref.fuel_bound(t)):
        rs = ref.find_redexes(cur)
        comps = _prenex_comps(cur)
        out.append([_redex_at(r, comps) for r in rs])
        if not rs:
            break
        cur = ref.step(cur, rs[0])
        out.append((cur, ref.measure(cur), _ref_fields(cur)))
    return out


def _check_index(c: rd.Configuration) -> None:
    """The index a step keeps: `users[x]` is exactly the slots whose free
    names hold the restricted name x; the free names are the component's
    (for CP on the restricted names only); a CP cut's two endpoint slots
    are among its name's users; the slots ascend."""
    assert set(c.users) == set(c.binders)
    for x, us in c.users.items():
        assert sorted(us) == [s for s, fv in zip(c.slots, c.fvs) if x in fv], x
    for comp, fv in zip(c.comps, c.fvs):
        if c.is_cp:
            assert fv & c.users.keys() == cp.free_names(comp) & c.users.keys()
        else:
            assert fv == hcp.free_names(comp)
    if c.is_cp:
        for x, (_, left, right) in c.binders.items():
            assert left in c.users[x] and right in c.users[x], x
    assert all(a < b for a, b in zip(c.slots, c.slots[1:]))


def _walk(t) -> list:
    out, c = [], rd.Configuration(t, with_measure=True)
    for _ in range(1 + sum(rd.measure(t))):
        rs = c.redexes()
        out.append([_redex_at(r, c.comps) for r in rs])
        assert c.first_redex() == (rs[0] if rs else None)
        if not rs:
            break
        c.fire(rs[0])
        _check_index(c)
        out.append((c.term(), c.measure(), _fields(c)))
    return out


def _trace(tr) -> tuple:
    """A trace's steps without their positions, which after a CP step index
    the configuration, not a term; `_walk` compares them as components."""
    return [(s.redex.rule, s.redex.channel, s.term, s.measure) for s in tr.steps], tr.status, tr.final


def _canonical(res) -> tuple:
    return res.ok, res.binders, res.comps, res.reason


def _same_runs(ref_fn, new_fn):
    """Run both from the same name supply; they must agree on the value (or
    the error) and leave the supply in the same place."""
    start = names._counter
    want = _outcome(ref_fn), names._counter
    names._counter = start
    got = _outcome(new_fn), names._counter
    assert got == want


def _check_term(t):
    _same_runs(lambda: _ref_walk(t), lambda: _walk(t))
    _same_runs(lambda: _trace(ref.reduce(t)), lambda: _trace(rd.reduce(t)))
    _same_runs(lambda: _canonical(ref.is_canonical(t)), lambda: _canonical(rd.is_canonical(t)))


def _check_single_steps(t):
    rs = ref.find_redexes(t)
    assert [_redex(r) for r in rd.find_redexes(t)] == [_redex(r) for r in rs]
    for r in rs:
        _same_runs(lambda: ref.step(t, r), lambda: rd.step(t, _new_redex(r)))
    assert [(_redex(r), t2) for r, t2 in rd.successors(t)] == [(_redex(r), ref.step(t, r)) for r in rs]
    if rs:
        # the first redex again, on its own reduct: stale or not, both agree
        t2 = ref.step(t, rs[0])
        _same_runs(lambda: ref.step(t2, rs[0]), lambda: rd.step(t2, _new_redex(rs[0])))


@pytest.mark.parametrize("gen", [harness.gen_cp, harness.gen_hcp], ids=["cp", "hcp"])
def test_agrees_with_reference_on_generated_samples(gen):
    cfg = harness.GenConfig(seed=42, count=300)
    rules = Counter()
    for i in range(300):
        t = gen(cfg, i)[0]
        _check_term(t)
        _check_single_steps(t)
        rules.update(s.redex.rule for s in rd.reduce(t).steps)
    # every rule fired somewhere
    assert set(rules) == {rd.RULE_LINK, rd.RULE_TENS, rd.RULE_UNIT, rd.RULE_PLUS1, rd.RULE_PLUS2}


def test_agrees_with_reference_on_fixtures():
    checked = 0
    for path in sorted(FIXTURES.glob("*.sill")):
        for d in surface.parse_file(path.read_text(), filename=str(path)).decls:
            _check_term(d.term)
            _check_single_steps(d.term)
            checked += 1
    assert checked >= 10


def _chain(n: int, hcp_: bool) -> str:
    body = "w[].0"
    for i in range(n, 0, -1):
        body = f"new x{i}:1{'.' if hcp_ else ''} (x{i}[].0 | x{i}().{body})"
    return body


def _mix(w: int) -> str:
    order = list(range(1, w + 1))
    random.Random(f"configuration-mix:{w}").shuffle(order)
    parts = [f"new c{i}:1. (c{i}[].0 | c{i}().o{i}[].0)" for i in order]
    term = parts[-1]
    for p in reversed(parts[:-1]):
        term = f"({p} | {term})"
    return term


def _many_cuts(n: int) -> str:
    return _term(scaling.many_cuts(n))


def _term(decl: str) -> str:
    """The term of a one-declaration file."""
    return decl.partition(" = ")[2].strip()


def _shape(dialect: str, src: str, name: str | None = None):
    return pytest.param(dialect, src, id=name or f"{dialect}-{len(src)}")


SHAPES = ([_shape("cp", _chain(n, False)) for n in (25, 50, 100, 200)]
          + [_shape("hcp", _chain(n, True)) for n in (25, 50, 100, 150)]
          + [_shape("hcp", _mix(w)) for w in (16, 32, 64)]
          + [_shape("cp", _many_cuts(n), f"cp-many-cuts-{n}") for n in (2, 10, 25, 50)]
          + [_shape("cp", _term(scaling.path(n, seed)), f"cp-path-{n}-{seed}") for n in (10, 25, 50) for seed in (1, 2)]
          + [_shape("cp", _term(scaling.star(n, seed)), f"cp-star-{n}-{seed}") for n in (10, 25, 50) for seed in (1, 2)])


@pytest.mark.parametrize("dialect,src", SHAPES)
def test_agrees_with_reference_on_chains_and_mixes(dialect, src):
    t = surface.parse_term(src, dialect)
    _check_term(t)
    _check_single_steps(t)


TOP_CONFIGS = [harness.GenConfig(42), harness.GenConfig(7, max_depth=3),
               harness.GenConfig(1234, max_depth=6, max_type_size=6)]


def _top_leaf_terms(configs=TOP_CONFIGS, samples=range(200)) -> list:
    """The well-typed terms the shrinker builds from the given CP samples
    (0-199 of each config) by putting a ⊤ leaf (`x?{}`) at one site.  A ⊤
    absorbs names, so some of their cuts have an endpoint on one side only,
    and the steps that meet such a cut raise."""
    out = []
    for cfg in configs:
        for i in samples:
            _, env, d = harness.gen_cp(cfg, i)
            for site in harness._shrink_sites(d):
                if isinstance(site[2], cp.Absurd):
                    t = cg.rebuild_site(site)
                    try:
                        typecheck.check_cp(t, env)
                    except typecheck.TypeCheckError:
                        continue
                    out.append(t)
    return out


def test_agrees_with_reference_on_top_leaves():
    corpus = _top_leaf_terms()
    for t in corpus:
        _check_term(t)
        for r in ref.find_redexes(t):
            _same_runs(lambda: ref.step(t, r), lambda: rd.step(t, _new_redex(r)))
    raised = sum(_outcome(lambda: ref.reduce(t))[1] is not None for t in corpus)
    assert (len(corpus), raised) == (232, 35)


def test_agrees_with_reference_when_a_later_step_leaves_two_cuts_without_ends():
    """Sample 58 of `GenConfig(10)` with a ⊤ leaf: a step after the first
    leaves two cuts without two endpoints, and the error names the one that
    comes first in the cut order of the term before that step, which is not
    the first of the two in the original term's prenex order."""
    corpus = _top_leaf_terms([harness.GenConfig(10)], [58])
    for t in corpus:
        _check_term(t)
    assert ("CongruenceError", "cannot rebuild: binder c17 lacks two endpoint components") in [
        _outcome(lambda: rd.reduce(t))[1] for t in corpus]


def _tied(rng: random.Random, n: int, star: bool) -> cp.CpTerm:
    """`scaling.star`'s or `scaling.path`'s shape built in code, whose distinct names draw
    their uids from 1..4, so that cuts' uids tie."""
    xs = [Name(f"x{k}", rng.randint(1, 4)) for k in range(1, n + 1)]
    w = cp.Halt(Name("w", 99))

    def cut(x: Name, sender: cp.CpTerm, waiter: cp.CpTerm) -> cp.CpTerm:
        return cp.Cut(x, ONE, sender, waiter) if rng.random() < 0.5 else cp.Cut(x, BOT, waiter, sender)

    if star:
        body = w
        for x in reversed(xs):
            body = cp.Wait(x, body)
        for x in rng.sample(xs, n):
            body = cut(x, cp.Halt(x), body)
        return body
    comps = [cp.Halt(xs[0]), *(cp.Wait(xs[k - 1], cp.Halt(xs[k])) for k in range(1, n)), cp.Wait(xs[-1], w)]

    def nest(lo: int, hi: int) -> cp.CpTerm:
        if lo == hi:
            return comps[lo]
        k = rng.randint(lo + 1, hi)
        return cut(xs[k - 1], nest(lo, k - 1), nest(k, hi))

    return nest(0, n)


def test_agrees_with_reference_when_cut_uids_tie():
    """Distinct names may share a uid in a term built in code; cut_order
    then breaks ties by list position, which the kept order cannot see."""
    rng = random.Random("tied-uids")
    for k in range(200):
        t = _tied(rng, rng.randint(2, 6), star=k % 2 == 0)
        assert terms.freshen_if_needed(t) is t
        _check_term(t)


def test_trace_terms_are_built_once_and_marked_fresh():
    tr = rd.reduce(surface.parse_term(_chain(5, False), "cp"))
    first = tr.steps[2].term
    assert tr.steps[2].term is first and first._clean
    assert terms.freshen_if_needed(first) is first


# -- whole-term walks per reduce ------------------------------------------------


@pytest.mark.parametrize("mod", [cp, hcp], ids=["cp", "hcp"])
def test_whole_term_walks_do_not_grow_with_the_term(mod, monkeypatch):
    """One `reduce` of a unit-cut chain: the calls of freshen_if_needed,
    binders and measure that receive the whole term (at least half of its
    cuts) are as many for 25 cuts as for 150."""
    cuts = rd._cut_sizes
    counts = {}
    for n in (25, 150):
        t = surface.parse_term(_chain(n, mod is hcp), "cp" if mod is cp else "hcp")
        calls = Counter()

        def counted(name, fn):
            def wrapper(arg, *rest):
                if len(cuts(arg)) >= n // 2:
                    calls[name] += 1
                return fn(arg, *rest)
            return wrapper

        with monkeypatch.context() as m:
            m.setattr(terms, "freshen_if_needed", counted("freshen_if_needed", terms.freshen_if_needed))
            m.setattr(terms, "binders", counted("binders", terms.binders))
            m.setattr(rd, "measure", counted("measure", rd.measure))
            trace = rd.reduce(t)
            assert trace.status == "canonical" and len(trace.steps) == n
        counts[n] = calls
    assert counts[25] == counts[150]
    assert set(counts[25]) == {"freshen_if_needed", "binders", "measure"}


def test_a_cp_step_writes_only_its_redex(monkeypatch):
    """`reduce` of the many-cuts term orders no cuts with `cut_order`, and
    the slots a step adds or rewrites are as few for 100 cuts as for 25."""
    most = {}
    for n in (25, 100):
        t = surface.parse_term(_many_cuts(n), "cp")
        ordered = []
        real_order = cg.cut_order
        monkeypatch.setattr(cg, "cut_order", lambda bs, k: ordered.append(len(bs)) or real_order(bs, k))
        assert len(rd.reduce(t).steps) == n and ordered == []
        c, written = rd.Configuration(t, with_measure=True), []
        while (r := c.first_redex()) is not None:
            before = dict(zip(c.slots, c.comps))
            c.fire(r)
            written.append(sum(before.get(s) is not comp for s, comp in zip(c.slots, c.comps)))
        assert len(written) == n and ordered == []
        most[n] = max(written)
        monkeypatch.undo()
    assert most[25] == most[100] <= 2


def test_building_a_trace_orders_each_term_once(monkeypatch):
    """A CP trace orders its cuts only when a step's term is built: one
    `cut_order` per term, none for a term built before."""
    ordered = []
    real_order = cg.cut_order
    monkeypatch.setattr(cg, "cut_order", lambda bs, k: ordered.append(len(bs)) or real_order(bs, k))
    for src in (_many_cuts(10), _term(scaling.path(25, 1)), _term(scaling.star(25, 2)), _chain(10, False)):
        ordered.clear()
        trace = rd.reduce(surface.parse_term(src, "cp"))
        assert ordered == [] and trace.status == "canonical"
        for k, st in enumerate(trace.steps, 1):
            assert st.term is st.term and len(ordered) == k


# -- rebuild_cp -----------------------------------------------------------------


def _tree(rng: random.Random, n: int, shape: str) -> tuple[list[cg.CpBinder], list[cp.CpTerm]]:
    """n cuts over n + 1 components joined as a path, a star or a random tree;
    distinct random uids, random orientation and formulas."""
    comps = [cp.Halt(Name(f"c{k}", 1_000_000 + k)) for k in range(n + 1)]
    order = list(range(n + 1))
    rng.shuffle(order)
    edges = []
    for k in range(1, n + 1):
        parent = {"path": k - 1, "star": 0}.get(shape, rng.randrange(k))
        edges.append((order[k], order[parent]))
    rng.shuffle(edges)
    uids = rng.sample(range(1, 10 * n + 10), n)
    binders = []
    for (a, b), uid in zip(edges, uids):
        if rng.random() < 0.5:
            a, b = b, a
        ty = rng.choice([ONE, BOT, Tensor(ONE, BOT), Plus(BOT, ONE)])
        binders.append(cg.CpBinder(Name(f"x{uid}", uid), ty, a, b))
    return binders, comps


def test_rebuild_cp_matches_the_recursive_one():
    rng = random.Random("rebuild-cp")
    cases = []
    for n in list(range(0, 12)) + [50, 100, 200, 300]:
        for shape in ("path", "star", "random", "random"):
            cases.append(_tree(rng, n, shape))
    for i in range(300):
        for gen in (harness.gen_cp,):
            p = cg.prenex_cp(gen(harness.GenConfig(seed=42, count=300), i)[0])
            cases.append((p.binders, p.comps))
    # broken trees: a missing endpoint, a self-loop, a cycle, two trees
    b, c = _tree(rng, 6, "random")
    cases.append(([*b[:-1], cg.CpBinder(b[-1].name, ONE, None, 0)], c))
    cases.append(([*b[:-1], cg.CpBinder(b[-1].name, ONE, 2, 2)], c))
    cases.append(([*b, cg.CpBinder(Name("loop", 1), ONE, b[0].left, b[1].right)], c + [c[0]]))
    cases.append((b[:-1], c))
    for binders, comps in cases:
        _same_runs(lambda: ref.rebuild_cp(binders, comps), lambda: cg.rebuild_cp(binders, comps))


def test_rebuild_cp_takes_a_long_spine():
    binders, comps = _tree(random.Random("spine"), 5000, "path")
    t = cg.rebuild_cp(binders, comps)
    depth = 0
    while isinstance(t, cp.Cut):
        depth += 1
        t = t.right
    assert depth == 5000
