"""Differential tests: the shared walkers of `sill.terms` against the
per-dialect ones they replaced (kept in tests/reference_terms.py).

Substitution and freshening must build equal terms and leave the global name
supply in the same place; binders and free names must be equal; `alpha_eq`
must answer as the old one does on alpha-equivalent and near-miss pairs.
"""
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_terms as ref
from conftest import clash_heavy_terms, subterms

from sill import congruence, cp, harness, hcp, names, terms
from sill.names import Name
from sill.translate import cp_to_hcp

_CP_TERMS, _HCP_TERMS = clash_heavy_terms()


def _old(t, fn: str):
    return getattr(ref, ("cp_" if isinstance(t, cp.CpTerm) else "hcp_") + fn)


def _free_names(t):
    return (cp.free_names if isinstance(t, cp.CpTerm) else hcp.free_names)(t)


def _same_supply(old, new):
    """Run both from the same name supply: equal results, and the supply left
    in the same place."""
    start = names._counter
    want = old()
    want_counter = names._counter
    names._counter = start
    got = new()
    assert got == want
    assert names._counter == want_counter
    return got


def _twice(t):
    """t beside itself, so that every binder of the second copy clashes."""
    if isinstance(t, cp.CpTerm):
        return cp.Case(Name("s", 0), t, t)
    return hcp.Par(t, t)


def _rebind_one_subject(t):
    """t with the subject of its first component on a bound name moved to
    another bound name in scope there, or None."""
    stack = [(t, None, ())]
    while stack:
        node, path, scope = stack.pop()
        x = getattr(node, "x", None)
        if type(node) not in (cp.Cut, hcp.New) and x in scope:
            others = [n for n in scope if n != x]
            if others:
                return congruence.rebuild_site((path, "", dataclasses.replace(node, x=others[-1])))
        shape = terms.SCHEMA[type(node)]
        for f in shape.subterms:
            inner = scope + (getattr(node, shape.binder),) if f in shape.inside else scope
            stack.append((getattr(node, f), (path, node, f), inner))
    return None


def _substitutions(t):
    """(w, x) pairs that exercise substitution on t: a free name replaced by
    a binder of t (so binders equal to it are renamed, drawing fresh names),
    or by a new name; and a bound name replaced (shadowed at its binder)."""
    free = sorted(_free_names(t), key=lambda n: (n.uid, n.surface))
    bound = terms.binders(t)
    out = []
    if free:
        out.append((bound[0], free[-1]) if bound else (Name("w", 8_000_001), free[0]))
    if bound:
        out.append((Name("w", 8_000_002), bound[-1]))
    return out


def _check_walkers(t, turn: int | None = None):
    """Compare every walker on t; with turn, only the turn-th of t's
    substitution cases (cyclically), to bound the cost on large corpora."""
    assert _free_names(t) == _old(t, "free_names")(t)
    assert terms.binders(t) == _old(t, "binders")(t)
    cases = _substitutions(t)
    if turn is not None and cases:
        cases = [cases[turn % len(cases)]]
    for w, x in cases:
        _same_supply(lambda: _old(t, "substitute")(t, w, x), lambda: terms.substitute(t, w, x))
    _same_supply(lambda: _old(t, "freshen_if_needed")(t), lambda: terms.freshen_if_needed(t))


def _check_alpha(a, b):
    want = _old(a, "alpha_eq")(a, b)
    assert want == (_old(a, "alpha_key")(a) == _old(b, "alpha_key")(b))
    assert terms.alpha_eq(a, b) == want
    assert (terms.alpha_key(a) == terms.alpha_key(b)) == want


def _samples():
    cfg = harness.GenConfig(seed=42, count=1)
    for gen in (harness.gen_cp, harness.gen_hcp):
        for i in range(300):
            yield gen(cfg, i)[0]


def test_walkers_agree_with_the_reference_on_samples_and_their_subterms():
    checked = 0
    for t in _samples():
        for sub in subterms(t):
            _check_walkers(sub, turn=checked)
            checked += 1
        twice = _twice(t)
        _check_walkers(twice)
        for w, x in _substitutions(twice):
            _check_walkers(terms.substitute(twice, w, x))
    assert checked > 10_000


def test_alpha_eq_agrees_with_the_reference_on_samples():
    equal = unequal = 0
    for t in _samples():
        twice = _twice(t)
        fresh = terms.freshen_if_needed(twice)
        pairs = [(twice, fresh), (t, fresh.right), (t, fresh.left)]
        pairs += [(t, n) for _, n in congruence.neighbors(t)[:8]]
        moved = _rebind_one_subject(t)
        if moved is not None:
            pairs.append((t, moved))
        for a, b in pairs:
            _check_alpha(a, b)
            equal += terms.alpha_eq(a, b)
            unequal += not terms.alpha_eq(a, b)
        if isinstance(t, cp.CpTerm):
            assert not terms.alpha_eq(t, cp_to_hcp(t))
            assert not terms.alpha_eq(cp_to_hcp(t), t)
    assert equal > 1000 and unequal > 1000


@settings(max_examples=500, deadline=None)
@given(st.one_of(_CP_TERMS, _HCP_TERMS), st.one_of(_CP_TERMS, _HCP_TERMS))
def test_walkers_agree_with_the_reference_on_clash_heavy_terms(t, u):
    # substitution's fresh names must be new to the term, as every term the
    # package builds guarantees (the parser and generator draw from the supply)
    names.ensure_above(3)
    _check_walkers(t)
    for w, x in [(Name(s, k), Name(s2, k2)) for s in "ab" for s2 in "ab" for k in (1, 2) for k2 in (1, 3)]:
        _same_supply(lambda: _old(t, "substitute")(t, w, x), lambda: terms.substitute(t, w, x))
    fresh = terms.freshen_if_needed(_twice(t))
    for a, b in [(t, fresh.right), (_twice(t), fresh), (t, u)]:
        if isinstance(a, cp.CpTerm) == isinstance(b, cp.CpTerm):
            _check_alpha(a, b)
        else:
            assert not terms.alpha_eq(a, b)
