"""Congruence keys and the key-pruned matcher.

`congruence.key` must agree on congruent terms (every single-axiom rewrite
keeps it), and `equiv`, which answers no when keys differ and only pairs
components with equal certificates, must answer exactly as the unpruned
backtracking matcher it replaced.  That matcher is kept below as a
reference copy.  `congruence.match` must also answer as the generator-based
matcher it replaced, kept in `reference_congruence.py`, on every call that
reduction graphs make, and must backtrack out of every kind of wrong
choice: a component placed on the wrong candidate, a link paired the wrong
way round, and an assignment that pairs a restriction with a name bound
elsewhere.
"""
import dataclasses
import random
from collections import Counter

import reference_congruence
from sill import congruence as cg
from sill import cp, harness, hcp, reduction, terms, translate, typecheck
from sill.names import Name
from sill.surface import parse_term
from sill.terms import SCHEMA
from sill.types import ONE, dual
from test_configuration import _top_leaf_terms

# -- the matcher before keys, kept as a reference ------------------------------


def ref_equiv(t1, t2) -> bool:
    for _ in _ref_match_terms(t1, t2, ({}, {}), frozenset(), frozenset()):
        return True
    return False


def _ref_pair(n1: Name, n2: Name, bij, open1, open2):
    l2r, r2l = bij
    if n1 in l2r:
        return bij if l2r[n1] == n2 else None
    if n2 in r2l:
        return None
    if n1 in open1 and n2 in open2:
        return (l2r | {n1: n2}, r2l | {n2: n1})
    if n1 not in open1 and n2 not in open2:
        if n1.surface == n2.surface:
            return (l2r | {n1: n2}, r2l | {n2: n1})
    return None


def _ref_sig(c) -> str:
    return type(c).__name__


def _ref_match_terms(t1, t2, bij, open1, open2):
    """Yield every name bijection under which t1 ≡ t2."""
    is_cp = isinstance(t1, cp.CpTerm)
    p1 = cg.prenex_cp(t1) if is_cp else cg.prenex_hcp(t1)
    p2 = cg.prenex_cp(t2) if is_cp else cg.prenex_hcp(t2)
    if len(p1.comps) != len(p2.comps) or len(p1.binders) != len(p2.binders):
        return
    if is_cp:
        names1 = [b.name for b in p1.binders]
        names2 = [b.name for b in p2.binders]
    else:
        names1 = [b[0] for b in p1.binders]
        names2 = [b[0] for b in p2.binders]
    o1 = open1 | set(names1)
    o2 = open2 | set(names2)
    n = len(p1.comps)
    used = [False] * n
    sigma: dict[int, int] = {}

    def assign(i, bij):
        if i == n:
            yield from _ref_check_binders(p1, p2, bij, sigma, is_cp, o1, o2)
            return
        c1 = p1.comps[i]
        s = _ref_sig(c1)
        for j in range(n):
            if used[j] or _ref_sig(p2.comps[j]) != s:
                continue
            used[j] = True
            sigma[i] = j
            for bij2 in _ref_unify_comp(c1, p2.comps[j], bij, o1, o2):
                yield from assign(i + 1, bij2)
            used[j] = False
            del sigma[i]

    yield from assign(0, bij)


def _ref_check_binders(p1, p2, bij, sigma, is_cp, o1, o2):
    l2r, r2l = bij
    if is_cp:
        by_name2 = {b.name: b for b in p2.binders}
        unmatched2 = dict(by_name2)
        deferred1 = []
        for b1 in p1.binders:
            n2 = l2r.get(b1.name)
            if n2 is None:
                deferred1.append(b1)
                continue
            b2 = by_name2.get(n2)
            if b2 is None:
                return
            unmatched2.pop(n2, None)
            if not _ref_cp_binder_compat(b1, b2, sigma):
                return
        # binders with no occurrences anywhere: pair by type compatibility
        rest2 = [b for b in unmatched2.values() if b.name not in r2l]
        if len(deferred1) != len(rest2) or len(rest2) != len(unmatched2):
            return
        for b1 in deferred1:
            ok = None
            for k, b2 in enumerate(rest2):
                if b1.ty in (b2.ty, dual(b2.ty)):
                    ok = k
                    break
            if ok is None:
                return
            rest2.pop(ok)
        yield bij
    else:
        by_name2 = {b[0]: b for b in p2.binders}
        unmatched2 = dict(by_name2)
        deferred1 = []
        for x1, ty1 in p1.binders:
            n2 = l2r.get(x1)
            if n2 is None:
                deferred1.append((x1, ty1))
                continue
            b2 = by_name2.get(n2)
            if b2 is None:
                return
            unmatched2.pop(n2, None)
            if ty1 not in (b2[1], dual(b2[1])):
                return
        rest2 = [b for b in unmatched2.values() if b[0] not in r2l]
        if len(deferred1) != len(rest2) or len(rest2) != len(unmatched2):
            return
        for _, ty1 in deferred1:
            ok = None
            for k, (_, ty2) in enumerate(rest2):
                if ty1 in (ty2, dual(ty2)):
                    ok = k
                    break
            if ok is None:
                return
            rest2.pop(ok)
        yield bij


def _ref_cp_binder_compat(b1: cg.CpBinder, b2: cg.CpBinder, sigma) -> bool:
    if b1.left is not None and b1.right is not None and b2.left is not None and b2.right is not None:
        sl = sigma.get(b1.left)
        sr = sigma.get(b1.right)
        if sl == b2.left and sr == b2.right:
            return b1.ty == b2.ty
        if sl == b2.right and sr == b2.left:
            return b1.ty == dual(b2.ty)
        return False
    return b1.ty in (b2.ty, dual(b2.ty))


def _ref_unify_comp(c1, c2, bij, o1, o2):
    is_cp = isinstance(c1, cp.CpTerm)
    if is_cp:
        match c1, c2:
            case cp.Link(x1, y1), cp.Link(x2, y2):
                for a, b in ((x2, y2), (y2, x2)):
                    bij2 = _ref_pair(x1, a, bij, o1, o2)
                    if bij2 is None:
                        continue
                    bij3 = _ref_pair(y1, b, bij2, o1, o2)
                    if bij3 is not None:
                        yield bij3
                return
            case (cp.Halt(x1), cp.Halt(x2)) | (cp.Absurd(x1), cp.Absurd(x2)):
                bij2 = _ref_pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    yield bij2
                return
            case (cp.Wait(x1, p1), cp.Wait(x2, p2)) | (cp.Inl(x1, p1), cp.Inl(x2, p2)) | (cp.Inr(x1, p1), cp.Inr(x2, p2)):
                bij2 = _ref_pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    yield from _ref_match_terms(p1, p2, bij2, o1, o2)
                return
            case cp.Recv(x1, y1, p1), cp.Recv(x2, y2, p2):
                bij2 = _ref_pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    l2r, r2l = bij2
                    bij3 = (l2r | {y1: y2}, r2l | {y2: y1})
                    yield from _ref_match_terms(p1, p2, bij3, o1, o2)
                return
            case cp.Send(x1, y1, p1, q1), cp.Send(x2, y2, p2, q2):
                bij2 = _ref_pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    l2r, r2l = bij2
                    bij3 = (l2r | {y1: y2}, r2l | {y2: y1})
                    for bij4 in _ref_match_terms(p1, p2, bij3, o1, o2):
                        yield from _ref_match_terms(q1, q2, bij4, o1, o2)
                return
            case cp.Case(x1, p1, q1), cp.Case(x2, p2, q2):
                bij2 = _ref_pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    for bij3 in _ref_match_terms(p1, p2, bij2, o1, o2):
                        yield from _ref_match_terms(q1, q2, bij3, o1, o2)
                return
    else:
        match c1, c2:
            case hcp.Link(x1, y1), hcp.Link(x2, y2):
                for a, b in ((x2, y2), (y2, x2)):
                    bij2 = _ref_pair(x1, a, bij, o1, o2)
                    if bij2 is None:
                        continue
                    bij3 = _ref_pair(y1, b, bij2, o1, o2)
                    if bij3 is not None:
                        yield bij3
                return
            case hcp.Absurd(x1), hcp.Absurd(x2):
                bij2 = _ref_pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    yield bij2
                return
            case (hcp.OutUnit(x1, p1), hcp.OutUnit(x2, p2)) | (hcp.InUnit(x1, p1), hcp.InUnit(x2, p2)) | \
                 (hcp.Inl(x1, p1), hcp.Inl(x2, p2)) | (hcp.Inr(x1, p1), hcp.Inr(x2, p2)):
                bij2 = _ref_pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    yield from _ref_match_terms(p1, p2, bij2, o1, o2)
                return
            case (hcp.BoundOut(x1, y1, p1), hcp.BoundOut(x2, y2, p2)) | (hcp.In(x1, y1, p1), hcp.In(x2, y2, p2)):
                bij2 = _ref_pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    l2r, r2l = bij2
                    bij3 = (l2r | {y1: y2}, r2l | {y2: y1})
                    yield from _ref_match_terms(p1, p2, bij3, o1, o2)
                return
            case hcp.Case(x1, p1, q1), hcp.Case(x2, p2, q2):
                bij2 = _ref_pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    for bij3 in _ref_match_terms(p1, p2, bij2, o1, o2):
                        yield from _ref_match_terms(q1, q2, bij3, o1, o2)
                return
    return


# -- soundness: congruent terms have equal keys ----------------------------------

SEED42 = harness.GenConfig(seed=42)


def _samples(count: int):
    for gen in (harness.gen_cp, harness.gen_hcp):
        for i in range(count):
            yield gen(SEED42, i)[0]


def test_every_neighbour_has_the_same_key():
    checked = 0
    for term in _samples(300):
        want = cg.key(term)
        for label, other in cg.neighbors(term):
            assert cg.key(other) == want, label
            checked += 1
    assert checked > 40000


def test_levels_carry_the_key():
    for term in _samples(300):
        fresh = terms.freshen_if_needed(term)
        assert cg.levels(term).key == cg.key(term) == cg.levels(fresh).key == cg.key(fresh)
    # a binder that is also a free name: levels freshen it, key does not
    x, w = Name("x", 1), Name("w", 2)
    term = hcp.Par(hcp.New(x, ONE, hcp.Link(x, w)), hcp.Link(x, w))
    assert terms.freshen_if_needed(term) != term
    assert cg.levels(term).key == cg.key(term)


def test_key_ignores_binder_spelling_and_link_direction():
    a = cg.key(hcp.New(Name("x", 1), dual(ONE), hcp.Par(hcp.Link(Name("x", 1), Name("w", 2)), hcp.Inert())))
    b = cg.key(hcp.New(Name("q", 7), ONE, hcp.Link(Name("w", 3), Name("q", 7))))
    assert a == b
    # a free name counts by surface, a bound one by its binder's label
    c = cg.key(hcp.New(Name("x", 1), ONE, hcp.Link(Name("x", 1), Name("v", 2))))
    assert c != b


def test_key_is_a_value_of_strings():
    def atoms(k):
        stack = [k]
        while stack:
            v = stack.pop()
            if isinstance(v, tuple):
                stack.extend(v)
            else:
                yield v

    for term in _samples(20):
        assert all(type(v) is str for v in atoms(cg.key(term)))


def test_dualising_a_cut_changes_the_key_and_nu_comm_keeps_it():
    """A cut's annotation is the type of its left endpoint: dualising it alone
    changes the key, and nu-comm, which also swaps the sides, keeps it."""
    a = parse_term("new x:1 (x[].0 | x().w[].0)", "cp")
    assert cg.key(parse_term("new x:bot (x().w[].0 | x[].0)", "cp")) == cg.key(a)
    assert cg.key(parse_term("new x:bot (x[].0 | x().w[].0)", "cp")) != cg.key(a)
    dualised = 0
    for i in range(150):
        term = harness.gen_cp(SEED42, i)[0]
        other = _dualise_first_cut(term)
        if other is not None:
            assert cg.key(other) != cg.key(term)
            dualised += 1
    assert dualised > 100


# -- agreement: the pruned matcher answers as the reference does -------------------


def _rebind_one_subject(t):
    """t with the subject of a component on a bound name moved to another
    bound name in scope there, the innermost that keeps the key, at the first
    component (in pre-order) where one does.  Usually not congruent.  None if
    there is no such component."""
    want = cg.key(t)
    stack = [(t, None, ())]
    while stack:
        node, path, scope = stack.pop()
        x = getattr(node, "x", None)
        if type(node) not in (cp.Cut, hcp.New) and x in scope:
            for y in reversed(scope):
                if y != x:
                    other = cg.rebuild_site((path, "", dataclasses.replace(node, x=y)))
                    if cg.key(other) == want:
                        return other
        shape = SCHEMA[type(node)]
        for f in shape.subterms:
            inner = scope + (getattr(node, shape.binder),) if f in shape.inside else scope
            stack.append((getattr(node, f), (path, node, f), inner))
    return None


def _dualise_first_cut(t):
    """t with its first cut annotated by the dual type: its endpoints' types
    change, so the key does wherever the cut's name occurs."""
    stack = [(t, None)]
    while stack:
        node, path = stack.pop()
        if type(node) is cp.Cut:
            return cg.rebuild_site((path, "", dataclasses.replace(node, ty=dual(node.ty))))
        stack += [(getattr(node, f), (path, node, f)) for f in SCHEMA[type(node)].subterms]
    return None


def _pairs(count: int):
    """Congruent pairs (scrambles) and others: reducts against their source,
    and key-preserving rewrites that break congruence."""
    rng = random.Random("key-agreement")
    for term in _samples(count):
        yield term, harness.scramble(term, rng, rng.randint(1, 4))
        redexes = reduction.find_redexes(term)
        if redexes:
            yield reduction.step(term, redexes[0]), term
        for mutate in (_rebind_one_subject, _dualise_first_cut):
            other = mutate(term)
            if other is not None:
                yield term, other
                yield harness.scramble(other, rng, 2), term


def test_pruned_equiv_agrees_with_reference():
    answers = {True: 0, False: 0}
    same_key_no = 0
    for a, b in _pairs(150):
        want = ref_equiv(a, b)
        assert cg.equiv(a, b) == want
        assert cg.equiv(b, a) == want
        answers[want] += 1
        same_key_no += not want and cg.key(a) == cg.key(b)
    # every scramble is a yes; most no-pairs get past the key to the matcher
    assert answers[True] >= 300 and answers[False] > 600 and same_key_no > 500


def test_equal_keys_in_reduction_graphs_agree_with_reference():
    """Reduction graph nodes are pairwise non-congruent; where two share a key
    the matcher decides, and must decide as the reference does."""
    cfg = harness.GenConfig(seed=7, max_depth=3)
    compared = 0
    for gen in (harness.gen_cp, harness.gen_hcp):
        for i in range(40):
            g = reduction.reduction_graph(gen(cfg, i)[0], cap=200)
            keys = [cg.key(n) for n in g.nodes]
            for j, a in enumerate(g.nodes):
                for k in range(j):
                    if keys[j] == keys[k]:
                        assert not ref_equiv(a, g.nodes[k])
                        compared += 1
    assert compared > 50


def test_matcher_agrees_with_the_replaced_one_on_reduction_graph_calls(monkeypatch):
    """Every `match` call made while building the reduction graphs above,
    and those of a quarter of the ⊤-leaf terms at cap 20, gets the same
    answer from the replaced matcher."""
    real = cg.match
    answers = Counter()

    def both(l1, l2):
        got = real(l1, l2)
        assert reference_congruence.match(l1, l2) == got
        answers[got] += 1
        return got

    monkeypatch.setattr(cg, "match", both)
    cfg = harness.GenConfig(seed=7, max_depth=3)
    for gen in (harness.gen_cp, harness.gen_hcp):
        for i in range(40):
            reduction.reduction_graph(gen(cfg, i)[0], cap=200)
    for t in _top_leaf_terms()[::4]:
        try:
            reduction.reduction_graph(t, cap=20)
        except (reduction.BudgetExceeded, cg.CongruenceError, reduction.ReductionError):
            pass
    assert answers[True] > 1600 and answers[False] > 900


# -- backtracking: each wrong choice is undone ---------------------------------------


def _hcp(body: str):
    return parse_term(f"new x:1. new y:1. {body}", "hcp")


def _decided(a, b, want: bool) -> None:
    """a and b have one key, and equiv, the reference and the BFS oracle
    all answer want, both ways round."""
    assert cg.key(a) == cg.key(b)
    for p, q in ((a, b), (b, a)):
        assert cg.equiv(p, q) == ref_equiv(p, q) == cg.bfs_equiv(p, q, max_steps=3) == want


def test_a_shared_certificate_is_undone_when_a_deeper_level_fails():
    # both components wait on a restriction and then on x: whichever is
    # placed first may take the wrong candidate, and only the wait below
    # shows it
    parts = ["x().x().a[].0", "y().x().a[].0"]
    for left in (parts, parts[::-1]):
        for right in (parts, parts[::-1]):
            _decided(_hcp(f"({left[0]} | {left[1]})"), _hcp(f"({right[0]} | {right[1]})"), True)


def test_a_symmetric_link_pairs_the_other_way_round():
    # both ends are labelled by a restriction of class 1, and x<->y pairs
    # with y<->x only swapped
    _decided(_hcp("(x<->y | (x[].0 | y().a[].0))"), _hcp("(y<->x | (x[].0 | y().a[].0))"), True)


def test_only_the_second_assignment_pairs_restriction_with_restriction():
    # the inner level's two sends share a certificate; sending on the outer
    # x first pairs the inner y with the outer x, which the restrictions
    # check refuses
    a = parse_term("new x:1. b().new y:1. (x[].0 | y[].0)", "hcp")
    b = parse_term("new x:1. b().new y:1. (y[].0 | x[].0)", "hcp")
    _decided(a, b, True)
    # here the one assignment that pairs the components pairs the waits'
    # subjects, the outer x with the inner y, and the check refuses it
    a = parse_term("new x:1. b().new y:1. (x().c[].0 | y[].0)", "hcp")
    b = parse_term("new x:1. b().new y:1. (y().c[].0 | x[].0)", "hcp")
    _decided(a, b, False)


_PREFIXES = (hcp.InUnit, hcp.OutUnit, hcp.Inl, hcp.Inr, hcp.In, hcp.BoundOut)


def _restriction_moves(t) -> list[tuple]:
    """Per one-body prefix of the HCP term t and two names of one class that
    its body's level restricts: t with the first of them restricted just
    above the prefix instead, and t with the second.  The two have one key
    and differ only in which level restricts which name."""
    out = []
    stack = [(t, None)]
    while stack:
        node, path = stack.pop()
        for f in SCHEMA[type(node)].subterms:
            stack.append((getattr(node, f), (path, node, f)))
        if type(node) not in _PREFIXES:
            continue
        binders, comps = cg.spine_hcp(node.body)

        def moved(x, a):
            inner = cg.rebuild_hcp([b for b in binders if b[0] != x], comps)
            prefix = type(node)(*[inner if g == "body" else getattr(node, g) for g in SCHEMA[type(node)].args])
            return cg.rebuild_site((path, None, hcp.New(x, a, prefix)))

        for k, (y, b) in enumerate(binders):
            for w, c in binders[k + 1:]:
                if {b, dual(b)} == {c, dual(c)}:
                    out.append((moved(y, b), moved(w, c)))
    return out


def test_generated_pairs_that_differ_in_which_level_restricts_a_name():
    """Samples of both generators (CP ones translated) with one of two
    restrictions of one class moved out of a prefix, or else the other,
    both well typed: every component pairs, and only the restrictions check
    (`congruence._binders_match`) finds that the outer restriction of one
    is the inner one of the other."""
    cfg = harness.GenConfig(seed=42)
    samples = [(t, dict(env)) for t, env, _ in (harness.gen_hcp(cfg, i) for i in range(40))]
    samples += [(translate.cp_to_hcp(t), env) for t, env, _ in (harness.gen_cp(cfg, i) for i in range(40))]
    pairs = noes = 0
    for t, env in samples:
        for a, b in _restriction_moves(t):
            try:
                typecheck.check_hcp(a, env)
                typecheck.check_hcp(b, env)
            except typecheck.TypeCheckError:
                continue
            assert cg.key(a) == cg.key(b)
            want = reference_congruence.equiv(a, b)
            assert cg.equiv(a, b) == cg.equiv(b, a) == want
            if pairs % 4 == 0:  # the oracle finds no rewrite one axiom away
                assert not cg.bfs_equiv(a, b, max_steps=1) or want
            pairs += 1
            noes += not want
    assert pairs >= 150 and noes == pairs


def test_a_no_exhausts_every_candidate():
    # one key, but x().x() and y().x() never pair with x().x() and y().y()
    _decided(_hcp("(x().x().a[].0 | y().x().a[].0)"), _hcp("(x().x().a[].0 | y().y().a[].0)"), False)
    # the two x().a[] share a certificate, and each fits only y().a[]: the
    # second must not take the candidate the first holds once its choice
    # point is spent
    _decided(_hcp("(x().a[].0 | (x().a[].0 | y().b[].0))"), _hcp("(x().a[].0 | (y().a[].0 | x().b[].0))"), False)


# -- deep terms -----------------------------------------------------------------------


def test_key_on_deep_chains_without_recursion():
    n = 5000
    x, y, w = Name("x", 1), Name("y", 2), Name("w", 3)
    hcp_chain, cp_chain = hcp.Link(x, y), cp.Link(x, y)
    for _ in range(n):
        hcp_chain = hcp.InUnit(w, hcp_chain)
        cp_chain = cp.Wait(w, cp_chain)
    for term, ctor in ((hcp.Par(hcp_chain, hcp.Inert()), "InUnit"), (cp_chain, "Wait")):
        k, depth = cg.key(term), 0
        while k[1][0] == ctor:  # ((), certificate) per level
            assert len(k) == 2 and k[0] == () and k[1][1] == "w"
            k, depth = k[1][2], depth + 1
        assert depth == n and k == ((), ("Link", "x", "y"))


def test_equiv_on_deep_unit_chains_at_the_default_limit():
    # comparing two equal keys recurses twice per prefix, so 400 prefixes
    # stay under the default recursion limit of 1000
    src = "".join(f"x{i}()." for i in range(1, 401)) + "w[].0"
    assert cg.equiv(parse_term(src, "hcp"), parse_term(src, "hcp"))
