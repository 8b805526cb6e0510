import pathlib
import random
import sys

from sill import congruence as cg
from sill import cp, harness, hcp
from sill.names import Name
from sill.surface import parse_term, print_term
from sill.terms import SCHEMA
from sill.typecheck import check_cp, check_hcp, hyper_eq
from sill.types import dual


def t(src, dialect="cp"):
    return parse_term(src, dialect)


def test_link_symmetry():
    assert cg.equiv(t("x<->y"), t("y<->x"))


def test_mix_commutativity():
    assert cg.equiv(t("(x[].0 | y[].0)", "hcp"), t("(y[].0 | x[].0)", "hcp"))


def test_congruence_closure_distinguishes():
    a = t("new x:1 (x[].0 | x().w[].0)")
    b = t("new x:1 (x[].0 | x().v[].0)")
    assert not cg.equiv(a, b)


def test_nu_commutativity_flips_annotation():
    a = t("new x:1 (x[].0 | x().w[].0)")
    b = t("new x:bot (x().w[].0 | x[].0)")
    assert cg.equiv(a, b)
    # same swap without dualizing the annotation is not congruent
    c = t("new x:1 (x().w[].0 | x[].0)")
    assert not cg.equiv(a, c)


def test_prenex_drops_inert():
    p = cg.prenex_hcp(t("(w[].0 | 0)", "hcp"))
    assert len(p.comps) == 1 and not p.binders


def test_prenex_scope_extrusion():
    term = t("new x:1. (v().u[].0 | new y:1. ((x[].0 | y[].0) | y().x().w[].0))", "hcp")
    p = cg.prenex_hcp(term)
    assert [n.surface for n, _ in p.binders] == ["x", "y"]
    assert len(p.comps) == 4


def test_prenex_cp_cut_spine():
    term = t("new x:1 (x[].0 | new y:1 (y[].0 | y().x().w[].0))")
    p = cg.prenex_cp(term)
    assert [b.name.surface for b in p.binders] == ["x", "y"]
    assert len(p.comps) == 3
    rebuilt = cg.rebuild_cp(p.binders, p.comps)
    assert cg.equiv(term, rebuilt)


def test_hcp_rebuild_roundtrip():
    term = t("(v().u[].0 | new x:1. (x[].0 | x().w[].0))", "hcp")
    p = cg.prenex_hcp(term)
    rebuilt = cg.rebuild_hcp(p.binders, p.comps)
    assert cg.equiv(term, rebuilt)


def test_equiv_is_equivalence_on_corpus():
    cfg = harness.GenConfig(seed=11, count=1)
    rng = random.Random("equiv-props")
    terms = [harness.gen_cp(cfg, i)[0] for i in range(8)]
    scrambled = [harness.scramble(x, rng, 3) for x in terms]
    for a, b in zip(terms, scrambled):
        assert cg.equiv(a, a)
        assert cg.equiv(a, b) and cg.equiv(b, a)
    for i, a in enumerate(terms):
        for j, b in enumerate(scrambled):
            if i != j and cg.equiv(a, b):
                assert cg.equiv(terms[j], a)  # transitivity through the pair


def test_equiv_preserved_typing_cp():
    cfg = harness.GenConfig(seed=12, count=1)
    rng = random.Random("equiv-typing")
    for i in range(12):
        term, env, _ = harness.gen_cp(cfg, i)
        other = harness.scramble(term, rng, 3)
        check_cp(other, env)


def test_equiv_preserved_typing_hcp():
    cfg = harness.GenConfig(seed=13, count=1)
    rng = random.Random("equiv-typing-h")
    for i in range(12):
        term, env, _ = harness.gen_hcp(cfg, i)
        _, part0 = check_hcp(term, env)
        other = harness.scramble(term, rng, 3)
        _, part = check_hcp(other, env)
        assert hyper_eq(part, part0)


def test_prenex_idempotent_up_to_equiv():
    cfg = harness.GenConfig(seed=14, count=1)
    for i in range(8):
        term, _, _ = harness.gen_hcp(cfg, i)
        p = cg.prenex_hcp(term)
        rebuilt = cg.rebuild_hcp(p.binders, p.comps)
        p2 = cg.prenex_hcp(rebuilt)
        rebuilt2 = cg.rebuild_hcp(p2.binders, p2.comps)
        assert cg.equiv(rebuilt, rebuilt2) and cg.equiv(term, rebuilt)


def small_terms(seed: int, dialect: str, want: int, limit: int = 70):
    """Generated terms small enough for the brute-force closure oracle."""
    from sill.surface import print_term

    cfg = harness.GenConfig(seed=seed, count=1, max_depth=2, max_type_size=3)
    out = []
    i = 0
    while len(out) < want and i < want * 30:
        gen = harness.gen_cp if dialect == "cp" else harness.gen_hcp
        a, _, _ = gen(cfg, i)
        if len(print_term(a)) <= limit:
            out.append(a)
        i += 1
    return out


def test_bfs_oracle_agrees_with_equiv():
    rng = random.Random("bfs-oracle")
    pairs = []
    for a in small_terms(1501, "cp", 12):
        pairs.append((a, harness.scramble(a, rng, rng.randint(1, 3))))
    for a in small_terms(1502, "hcp", 12):
        pairs.append((a, harness.scramble(a, rng, rng.randint(1, 3))))
    for a, b in pairs:
        assert cg.equiv(a, b)
        assert cg.bfs_equiv(a, b, max_steps=6, node_cap=120000)


def test_bfs_oracle_agrees_on_negatives():
    a = t("new x:1 (x[].0 | x().w[].0)")
    b = t("new x:1 (x[].0 | x().v[].0)")
    assert not cg.equiv(a, b)
    assert not cg.bfs_equiv(a, b, max_steps=4)


def test_cut_annotation_is_checked_even_when_its_name_is_on_one_side():
    """A CP cut's annotation types its name on each side, also where the name
    occurs on one side only: dualising it gives a term that is not congruent."""
    a = t("new x:1 (x[].0 | w[].0)")
    b = t("new x:bot (x[].0 | w[].0)")
    assert not cg.equiv(a, b) and not cg.equiv(b, a)
    assert not cg.bfs_equiv(a, b, max_steps=4)


def test_hcp_restriction_annotation_counts_up_to_duality():
    """An HCP restriction names one endpoint's type without saying which, so
    equiv, like check_hcp, reads it up to duality; the BFS oracle's axioms
    never flip an annotation."""
    a = t("new x:1. (x[].0 | w[].0)", "hcp")
    b = t("new x:bot. (x[].0 | w[].0)", "hcp")
    assert cg.equiv(a, b) and cg.equiv(b, a)
    assert not cg.bfs_equiv(a, b, max_steps=4)


# -- the neighbour enumeration and the scramble stream --------------------------


def _ref_cp_neighbors(t):
    """The recursive Def-2 enumeration `neighbors` replaced, kept as a reference."""
    out = []
    match t:
        case cp.Link(x, y):
            out.append(("link-sym", cp.Link(y, x)))
        case cp.Cut(x, a, p, q):
            out.append(("nu-comm", cp.Cut(x, dual(a), q, p)))
            if isinstance(q, cp.Cut):
                y, b, q1, r = q.x, q.ty, q.left, q.right
                if x not in cp.free_names(r) and y not in cp.free_names(p):
                    out.append(("cut-assoc", cp.Cut(y, b, cp.Cut(x, a, p, q1), r)))
            if isinstance(p, cp.Cut):
                x2, a2, p1, q1 = p.x, p.ty, p.left, p.right
                if x2 not in cp.free_names(q) and x not in cp.free_names(p1):
                    out.append(("cut-assoc", cp.Cut(x2, a2, p1, cp.Cut(x, a, q1, q))))
    match t:
        case cp.Cut(x, a, p, q):
            out += [(lbl, cp.Cut(x, a, p2, q)) for lbl, p2 in _ref_cp_neighbors(p)]
            out += [(lbl, cp.Cut(x, a, p, q2)) for lbl, q2 in _ref_cp_neighbors(q)]
        case cp.Send(x, y, p, q):
            out += [(lbl, cp.Send(x, y, p2, q)) for lbl, p2 in _ref_cp_neighbors(p)]
            out += [(lbl, cp.Send(x, y, p, q2)) for lbl, q2 in _ref_cp_neighbors(q)]
        case cp.Case(x, p, q):
            out += [(lbl, cp.Case(x, p2, q)) for lbl, p2 in _ref_cp_neighbors(p)]
            out += [(lbl, cp.Case(x, p, q2)) for lbl, q2 in _ref_cp_neighbors(q)]
        case cp.Recv(x, y, p):
            out += [(lbl, cp.Recv(x, y, p2)) for lbl, p2 in _ref_cp_neighbors(p)]
        case cp.Wait(_, p) | cp.Inl(_, p) | cp.Inr(_, p):
            out += [(lbl, type(t)(t.x, p2)) for lbl, p2 in _ref_cp_neighbors(p)]
    return out


def _ref_hcp_neighbors(t, allow_unit_intro):
    """The recursive Def-10 enumeration `neighbors` replaced, kept as a reference."""
    out = []
    match t:
        case hcp.Link(x, y):
            out.append(("link-sym", hcp.Link(y, x)))
        case hcp.Par(p, q):
            out.append(("mix-comm", hcp.Par(q, p)))
            if isinstance(q, hcp.Par):
                out.append(("mix-assoc", hcp.Par(hcp.Par(p, q.left), q.right)))
            if isinstance(p, hcp.Par):
                out.append(("mix-assoc", hcp.Par(p.left, hcp.Par(p.right, q))))
            if isinstance(q, hcp.Inert):
                out.append(("mix-unit", p))
            if isinstance(p, hcp.Inert):
                out.append(("mix-unit", q))
            if isinstance(q, hcp.New) and q.x not in hcp.free_names(p):
                out.append(("scope-ext", hcp.New(q.x, q.ty, hcp.Par(p, q.body))))
            if isinstance(p, hcp.New) and p.x not in hcp.free_names(q):
                out.append(("scope-ext", hcp.New(p.x, p.ty, hcp.Par(p.body, q))))
        case hcp.New(x, a, p):
            if isinstance(p, hcp.New) and p.x != x:
                out.append(("nu-comm", hcp.New(p.x, p.ty, hcp.New(x, a, p.body))))
            if isinstance(p, hcp.Par):
                if x not in hcp.free_names(p.left):
                    out.append(("scope-ext", hcp.Par(p.left, hcp.New(x, a, p.right))))
                if x not in hcp.free_names(p.right):
                    out.append(("scope-ext", hcp.Par(hcp.New(x, a, p.left), p.right)))
    if allow_unit_intro:
        out.append(("mix-unit", hcp.Par(t, hcp.Inert())))
    sub = lambda p: _ref_hcp_neighbors(p, allow_unit_intro)
    match t:
        case hcp.New(x, a, p):
            out += [(lbl, hcp.New(x, a, p2)) for lbl, p2 in sub(p)]
        case hcp.Par(p, q) | hcp.Case(_, p, q):
            rest = (t.x,) if isinstance(t, hcp.Case) else ()
            out += [(lbl, type(t)(*rest, p2, q)) for lbl, p2 in sub(p)]
            out += [(lbl, type(t)(*rest, p, q2)) for lbl, q2 in sub(q)]
        case hcp.BoundOut(x, y, p) | hcp.In(x, y, p):
            out += [(lbl, type(t)(x, y, p2)) for lbl, p2 in sub(p)]
        case hcp.OutUnit(x, p) | hcp.InUnit(x, p) | hcp.Inl(x, p) | hcp.Inr(x, p):
            out += [(lbl, type(t)(x, p2)) for lbl, p2 in sub(p)]
    return out


# one letter per axiom label in the golden scramble stream
_LABEL_CODES = {"link-sym": "l", "nu-comm": "n", "cut-assoc": "a", "mix-comm": "c",
                "mix-assoc": "A", "mix-unit": "u", "scope-ext": "s"}
SCRAMBLE_GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "scramble.txt"


def _golden_samples():
    cfg = harness.GenConfig(seed=42)
    for dialect, gen in (("cp", harness.gen_cp), ("hcp", harness.gen_hcp)):
        for i in range(150):
            yield dialect, i, gen(cfg, i)[0]


def scramble_transcript() -> str:
    """Samples 0-149 of gen_cp and gen_hcp at seed 42: per sample, the neighbour
    labels in order (one letter each, see _LABEL_CODES) without and with unit
    introduction, then the printed result of scramble(t, Random(i), 4).  After a
    deliberate change, rewrite the golden with
    `PYTHONPATH=src python tests/test_congruence.py`."""
    lines = []
    for dialect, i, term in _golden_samples():
        for unit in (False, True):
            labels = "".join(_LABEL_CODES[lbl] for lbl, _ in cg.neighbors(term, allow_unit_intro=unit))
            lines.append(f"{dialect} {i} unit={int(unit)} {len(labels)} {labels}")
        lines.append(f"{dialect} {i} scramble {print_term(harness.scramble(term, random.Random(i), 4))}")
    return "\n".join(lines) + "\n"


def test_scramble_stream_matches_golden():
    assert scramble_transcript() == SCRAMBLE_GOLDEN.read_text(encoding="utf-8")


def test_neighbors_agree_with_recursive_reference():
    # equal terms (subterms are shared, so this is cheap) are in particular alpha-equal
    checked = 0
    for _, i, term in _golden_samples():
        # the sample and a few of its neighbours, so rewritten shapes are covered too
        for u in [term] + [v for _, v in cg.neighbors(term, allow_unit_intro=False)[i % 7::50]]:
            for unit in (False, True) if u is term else (False,):
                want = _ref_cp_neighbors(u) if isinstance(u, cp.CpTerm) else _ref_hcp_neighbors(u, unit)
                assert cg.neighbors(u, allow_unit_intro=unit) == want
                checked += len(want)
    assert checked > 40000


def test_deep_terms_neighbors_and_scramble_without_recursion():
    n = 5000
    x, y, w = Name("x", 1), Name("y", 2), Name("w", 3)
    hcp_chain = hcp.Link(x, y)
    cp_chain = cp.Link(x, y)
    for _ in range(n):
        hcp_chain = hcp.InUnit(w, hcp_chain)
        cp_chain = cp.Wait(w, cp_chain)
    for term, labels in ((hcp.Par(hcp_chain, hcp.Inert()), ["mix-comm", "mix-unit", "link-sym"]),
                         (cp_chain, ["link-sym"])):
        nbrs = cg.neighbors(term, allow_unit_intro=False)
        assert [lbl for lbl, _ in nbrs] == labels
        assert print_term(nbrs[-1][1]) == print_term(term).replace("x<->y", "y<->x")
        assert print_term(harness.scramble(term, random.Random(0), 3)).count("w().") == n


def test_wide_mix_neighbors_without_recursion():
    # no spine Par of a freshly built mix keeps its free-name set yet; a
    # guard asked top-down would make the root's by recursing down the spine
    parts = [t(f"new c{i}:1. (c{i}[].0 | c{i}().o{i}[].0)", "hcp") for i in range(2000)]
    term = parts[-1]
    for p in reversed(parts[:-1]):
        term = hcp.Par(p, term)
    nbrs = cg.neighbors(term, allow_unit_intro=False)
    assert nbrs[0] == ("mix-comm", hcp.Par(term.right, term.left))
    assert [lbl for lbl, _ in nbrs].count("mix-comm") == 2 * 2000 - 1


def _height(term) -> int:
    out, stack = 0, [(term, 1)]
    while stack:
        node, h = stack.pop()
        out = max(out, h)
        stack += [(getattr(node, f), h + 1) for f in SCHEMA[type(node)].subterms]
    return out


def test_scramble_builds_one_rewrite_and_its_path_per_step(monkeypatch):
    # a width-64 mix has hundreds of sites per step; building each one's
    # rewrite to keep one would show in the count
    parts = [t(f"new c{i}:1. (c{i}[].0 | c{i}().o{i}[].0)", "hcp") for i in range(64)]
    term = cg.rebuild_hcp([], parts)
    steps = 5
    for seed in range(3):  # the sites drawn are those the listing of every site gives
        rng, want = random.Random(seed), term
        for _ in range(steps):
            sites = cg.sites(want, allow_unit_intro=False)
            path, label, build = sites[rng.randrange(len(sites))]
            want = cg.rebuild_site((path, label, build()))
        assert print_term(harness.scramble(term, random.Random(seed), steps)) == print_term(want)
    built = 0

    def counting(init):
        def counted(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)
        return counted

    for cls in SCHEMA:
        monkeypatch.setattr(cls, "__init__", counting(cls.__init__))
    harness.scramble(term, random.Random(0), steps)
    # per step: the copies of the site's path, which a step lengthens by at
    # most one node, and a rewrite of at most two nodes
    bound = sum(_height(term) + k + 2 for k in range(steps))
    assert 0 < built <= bound < steps * len(cg.sites(term, allow_unit_intro=False))


if __name__ == "__main__":
    SCRAMBLE_GOLDEN.write_text(scramble_transcript(), encoding="utf-8")
    print("wrote tests/golden/scramble.txt", file=sys.stderr)
