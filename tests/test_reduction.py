import pytest

from conftest import load_fixture

from sill import congruence as cg
from sill import harness, reduction as rd, terms
from sill.surface import parse_term, print_term
from sill.typecheck import check_cp


def t(src, dialect="cp"):
    return parse_term(src, dialect)


def test_canonical_fixture_has_no_redexes():
    term = t("new x:1 (a().x[].0 | b().x().w[].0)")
    assert rd.find_redexes(term) == []
    assert rd.is_canonical(term).ok


def test_unit_redex_found():
    term = t("new x:1 (x[].0 | x().w[].0)")
    (r,) = rd.find_redexes(term)
    assert r.rule == rd.RULE_UNIT and r.channel.surface == "x"


def test_link_redex_found_and_fires():
    term = t("new x:bot (w<->x | x[].0)")
    rs = rd.find_redexes(term)
    assert rs[0].rule == rd.RULE_LINK
    out = rd.step(term, rs[0])
    assert print_term(out) == "w[].0"


def test_hcp_unit_step_yields_mix():
    term = t("new x:1. (x[].0 | x().w[].0)", "hcp")
    (r,) = rd.find_redexes(term)
    out = rd.step(term, r)
    assert cg.equiv(out, t("w[].0", "hcp"))


def test_cp_tensor_step_has_nested_double_cut_shape():
    term = t("new x:1*1 (x[y].(y[].0 | x[].0) | x(y).y().x().w[].0)")
    rs = rd.find_redexes(term)
    assert rs[0].rule == rd.RULE_TENS
    out = rd.step(term, rs[0])
    want = t("new y:1 (y[].0 | new x:1 (x[].0 | y().x().w[].0))")
    assert cg.equiv(out, want)


def test_hcp_tensor_step_shape():
    term = t("new x:1*1. (x[y].(y[].0 | x[].0) | x(y).y().x().w[].0)", "hcp")
    rs = rd.find_redexes(term)
    out = rd.step(term, rs[0])
    want = t("new x:1. new y:1. ((y[].0 | x[].0) | y().x().w[].0)", "hcp")
    assert cg.equiv(out, want)


def test_three_step_trace_and_unique_path_graph():
    term = load_fixture("tensor_unit.sill").decls[0].term
    trace = rd.reduce(term)
    assert trace.status == "canonical" and len(trace.steps) == 3
    assert print_term(trace.final) == "w[].0"
    g = rd.reduction_graph(term)
    assert len(g.nodes) == 4 and len(g.edges) == 3 and g.is_path
    assert len(g.terminals) == 1


def test_selection_steps():
    term = t("new x:1+bot (x!inl.x[].0 | x?{inl: x().w[].0; inr: x[].0})")
    trace = rd.reduce(term)
    assert [s.redex.rule for s in trace.steps] == [rd.RULE_PLUS1, rd.RULE_UNIT]
    term2 = t("new x:1+bot (x!inr.x().w[].0 | x?{inl: x().v[].0; inr: x[].0})")
    trace2 = rd.reduce(term2)
    assert [s.redex.rule for s in trace2.steps] == [rd.RULE_PLUS2, rd.RULE_UNIT]


def test_stale_redex_rejected():
    term = t("new x:1 (x[].0 | x().w[].0)")
    (r,) = rd.find_redexes(term)
    out = rd.step(term, r)
    with pytest.raises(rd.StaleRedexError):
        rd.step(out, r)


def test_link_is_canonical():
    term = t("x<->y")
    assert rd.find_redexes(term) == []
    res = rd.is_canonical(term)
    assert res.ok and rd.check_blocked(res)


def test_free_links_parallel_canonical_hcp():
    term = t("(x<->y | z<->w)", "hcp")
    assert rd.is_canonical(term).ok
    assert rd.check_blocked(rd.is_canonical(term))


def test_inert_is_canonical_and_blocked():
    term = t("0", "hcp")
    res = rd.is_canonical(term)
    assert res.ok and res.comps == []
    assert rd.check_blocked(rd.is_canonical(term))


def test_redex_makes_term_non_canonical():
    term = t("new x:1. (x[].0 | x().0?; ", "hcp") if False else t("new x:1. (x[].0 | x().w[].0)", "hcp")
    assert not rd.is_canonical(term).ok


def test_selfguarded_is_not_canonical():
    term = t("new x:bot. (x().x[].0 | 0)", "hcp").body  # strip to the bare restriction
    term = t("new x:bot. x().x[].0", "hcp")
    res = rd.is_canonical(term)
    assert not res.ok and "fewer components" in res.reason
    assert rd.find_redexes(term) == []


def test_blocked_counts_cp():
    term = t("new x:1 (a().x[].0 | new y:1 (b().x().y[].0 | c().y().d[].0))")
    res = rd.is_canonical(term)
    assert res.ok and len(res.binders) == 2 and len(res.comps) == 3
    assert rd.check_blocked(rd.is_canonical(term))


def test_blocked_counts_hcp():
    term = t("new x:1. (a().x[].0 | (b().x().c[].0 | d[].0))", "hcp")
    res = rd.is_canonical(term)
    assert res.ok and len(res.binders) == 1 and len(res.comps) == 3
    assert rd.check_blocked(rd.is_canonical(term))


def test_measure_and_bound():
    term = load_fixture("tensor_unit.sill").decls[0].term
    assert rd.measure(term) == (3,)
    trace = rd.reduce(term, fuel=1 + sum(rd.measure(term)))
    assert len(trace.steps) <= sum(rd.measure(term))
    prev = rd.measure(term)
    for st in trace.steps:
        assert rd.multiset_less(st.measure, prev)
        prev = st.measure


def test_multiset_less():
    assert rd.multiset_less((1, 1), (3,))
    assert rd.multiset_less((), (1,))
    assert not rd.multiset_less((3,), (1, 1))
    assert not rd.multiset_less((2, 2), (2, 2))
    assert rd.multiset_less((5, 1), (6, 2))
    assert not rd.multiset_less((3,), (2, 2, 2))


def test_fuel_exhaustion_reported():
    term = load_fixture("tensor_unit.sill").decls[0].term
    trace = rd.reduce(term, fuel=1)
    assert trace.status == "fuel-exhausted" and len(trace.steps) == 1


@pytest.mark.parametrize("cap", [0, -3])
def test_graph_cap_below_one_is_rejected(cap):
    with pytest.raises(ValueError, match="cap must be at least 1"):
        rd.reduction_graph(t("x[].0", "hcp"), cap=cap)


def test_trace_rendering_formats():
    term = load_fixture("unit_cut.sill").decls[0].term
    trace = rd.reduce(term)
    text = rd.render_trace(trace)
    assert text.splitlines()[0].startswith("step 1: β1⊥ on x ⇒ ")
    assert "[measure: {}]" in text
    recs = rd.trace_json_lines(trace)
    assert recs[0]["rule"] == "β1⊥" and recs[0]["channel"] == "x"
    assert recs[-1]["status"] == "canonical"


def test_deterministic_traces_are_reproducible():
    term = load_fixture("tensor_unit.sill").decls[0].term
    a = rd.render_trace(rd.reduce(term))
    b = rd.render_trace(rd.reduce(term))
    assert a == b


def test_reduce_all_matches_graph():
    term = load_fixture("tensor_unit.sill").decls[0].term
    g = rd.reduction_graph(term)
    assert isinstance(g, rd.ReductionGraph) and len(g.nodes) == 4


def test_terminal_nodes_are_canonical():
    cfg = harness.GenConfig(seed=21, count=1, max_depth=3)
    for i in range(15):
        term, env, _ = harness.gen_cp(cfg, i)
        g = rd.reduction_graph(term, cap=600)
        for idx in g.terminals:
            assert rd.is_canonical(g.nodes[idx]).ok


def test_redex_search_complete_modulo_congruence():
    # if any congruent rearrangement has a top-level rule match, the prenex
    # search reports a redex; checked against the BFS closure oracle
    from sill.surface import print_term

    cfg = harness.GenConfig(seed=23, count=1, max_depth=2, max_type_size=3)
    checked = 0
    i = 0
    while checked < 15 and i < 200:
        gen = harness.gen_cp if i % 2 == 0 else harness.gen_hcp
        term, _, _ = gen(cfg, i)
        i += 1
        if len(print_term(term)) > 60:
            continue
        has_redex = bool(rd.find_redexes(term))
        frontier, seen = [term], set()
        key = terms.alpha_key
        seen.add(key(term))
        for _ in range(3):
            nxt = []
            for u in frontier:
                for _, v in cg.neighbors(u, allow_unit_intro=False):
                    k = key(v)
                    if k in seen:
                        continue
                    seen.add(k)
                    nxt.append(v)
                    assert bool(rd.find_redexes(v)) == has_redex
            frontier = nxt
        checked += 1
    assert checked == 15


def test_graph_depth_within_measure_bound():
    cfg = harness.GenConfig(seed=22, count=1, max_depth=3)
    for i in range(12):
        term, env, _ = harness.gen_cp(cfg, i)
        bound = sum(rd.measure(term))
        g = rd.reduction_graph(term, cap=600)
        # longest path cannot exceed the measure sum; check via BFS layering
        depth = {0: 0}
        frontier = [0]
        while frontier:
            nxt = []
            for n in frontier:
                for src, dst, _, _ in g.edges:
                    if src == n and dst not in depth:
                        depth[dst] = depth[n] + 1
                        nxt.append(dst)
            frontier = nxt
        assert all(v <= bound for v in depth.values())


def _unit_mix(w: int):
    parts = [f"new c{i}:1. (c{i}[].0 | c{i}().o{i}[].0)" for i in range(1, w + 1)]
    term = parts[-1]
    for p in reversed(parts[:-1]):
        term = f"({p} | {term})"
    return t(term, "hcp")


@pytest.mark.parametrize("w", [4, 5, 6])
def test_graph_builds_each_terms_levels_once(monkeypatch, w):
    walked, matched, built = [], [], []
    real_levels, real_match, real_init = cg._levels, cg.match, rd.Configuration.__init__
    monkeypatch.setattr(cg, "_levels", lambda term: walked.append(term) or real_levels(term))
    monkeypatch.setattr(cg, "match", lambda l1, l2: matched.append(l1) or real_match(l1, l2))
    monkeypatch.setattr(rd.Configuration, "__init__", lambda c, *a, **k: built.append(c) or real_init(c, *a, **k))
    g = rd.reduction_graph(_unit_mix(w))
    # 2^w nodes, reached by w * 2^(w-1) edges in all: one level walk per
    # state, the root's included, since every successor but a state's first
    # is settled by its components' identity; no match; one configuration,
    # the root's, whose copies are stepped
    assert len(g.nodes) == 2 ** w and len(g.edges) == w * 2 ** (w - 1)
    assert (len(walked), len(matched), len(built)) == (2 ** w, 0, 1)
