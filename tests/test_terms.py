import dataclasses
from dataclasses import FrozenInstanceError, fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import subterms

from sill import congruence, cp, harness, hcp, reduction, surface, terms, typecheck
from sill.names import Loc, Name
from sill.terms import FREE_NAMES, SCHEMA, alpha_eq, alpha_key, binders, freshen_if_needed, substitute
from sill.translate import cp_to_hcp
from sill.types import ONE


def t(src, dialect="cp"):
    return surface.parse_term(src, dialect)


def test_free_names_link():
    term = t("x<->y")
    assert {n.surface for n in cp.free_names(term)} == {"x", "y"}


def test_free_names_cut_binds_both_branches():
    term = t("new x:1 (x[].0 | x().w[].0)")
    assert {n.surface for n in cp.free_names(term)} == {"w"}


def test_free_names_send_payload_bound():
    # the fresh payload name is bound in the payload only
    term = t("x[y].(y[].0 | x[].0)")
    assert {n.surface for n in cp.free_names(term)} == {"x"}


def test_substitute_subject():
    x, z, w = Name("x", 9001), Name("z", 9002), Name("w", 9003)
    term = cp.Wait(x, cp.Halt(z))
    out = substitute(term, w, x)
    assert out == cp.Wait(w, cp.Halt(z))


def test_substitute_bound_name_is_identity():
    term = t("new x:1 (x[].0 | x().w[].0)")
    x = term.x
    w = Name("fresh_w", 9100)
    assert substitute(term, w, x) == term


def test_substitute_renames_colliding_binder():
    # binder spelled and identified exactly as the incoming name: it must be
    # renamed first; reference answer substitutes on a pre-freshened term
    x, w = Name("x", 9201), Name("w", 9202)
    body = cp.Cut(w, ONE, cp.Halt(w), cp.Wait(w, cp.Halt(x)))
    got = substitute(body, w, x)
    freshened = cp.Cut(Name("w", 9999), ONE, cp.Halt(Name("w", 9999)),
                       cp.Wait(Name("w", 9999), cp.Halt(x)))
    want = substitute(freshened, w, x)
    assert alpha_eq(got, want)


@given(st.integers(0, 60))
def test_substitute_noop_when_not_free(i):
    cfg = harness.GenConfig(seed=5, count=1)
    term, env, _ = harness.gen_cp(cfg, i)
    w, x = Name("w", 1), Name("nowhere", 2)
    assert x not in cp.free_names(term)
    assert substitute(term, w, x) == term


def test_alpha_eq_is_equivalence_on_corpus():
    cfg = harness.GenConfig(seed=6, count=1)
    terms = [harness.gen_cp(cfg, i)[0] for i in range(10)]
    for a in terms:
        assert alpha_eq(a, a)
    renamed = [freshen_if_needed(a) for a in terms]
    for a, b in zip(terms, renamed):
        assert alpha_eq(a, b) and alpha_eq(b, a)


def test_alpha_key_identifies_alpha_classes():
    a = t("new x:1 (x[].0 | x().w[].0)")
    b = t("new q:1 (q[].0 | q().w[].0)")
    c = t("new x:1 (x[].0 | x().v[].0)")
    assert alpha_key(a) == alpha_key(b)
    assert alpha_key(a) != alpha_key(c)
    assert alpha_eq(a, b) and not alpha_eq(a, c)


def test_translation_clauses():
    assert alpha_eq(cp_to_hcp(t("x<->y")), t("x<->y", "hcp"))
    halt = t("x[].0")
    assert cp_to_hcp(halt) == hcp.OutUnit(halt.x, hcp.Inert())
    got = cp_to_hcp(t("new x:1 (x[].0 | x().w[].0)"))
    want = t("new x:1. (x[].0 | x().w[].0)", "hcp")
    assert alpha_eq(got, want)


def test_translation_preserves_free_names():
    cfg = harness.GenConfig(seed=7, count=1)
    for i in range(25):
        term, env, _ = harness.gen_cp(cfg, i)
        assert hcp.free_names(cp_to_hcp(term)) == cp.free_names(term)


def test_freshen_if_needed_keeps_clean_terms():
    term = t("new x:1 (x[].0 | x().w[].0)")
    assert freshen_if_needed(term) is term


def test_image_of_a_reduct_is_not_walked_again(monkeypatch):
    # a reduct is built clean and marked so; its image has the same binders
    # and free names, so it is clean and marked too, and freshening it does
    # not walk its binders
    reduct = reduction.reduce(t("new x:1 (x[].0 | x().new y:1 (y[].0 | y().w[].0))")).steps[0].term
    image = cp_to_hcp(reduct)
    walked = []
    monkeypatch.setattr(terms, "binders", lambda u: walked.append(u) or binders(u))
    assert freshen_if_needed(image) is image and not walked
    unmarked = cp_to_hcp(t("new y:1 (y[].0 | y().w[].0)"))
    assert freshen_if_needed(unmarked) is unmarked and walked == [unmarked]


def test_freshen_if_needed_is_stable():
    x, w = Name("x", 9301), Name("w", 9302)
    dup = cp.Cut(x, ONE, cp.Halt(x), cp.Wait(x, cp.Cut(x, ONE, cp.Halt(x), cp.Wait(x, cp.Halt(w)))))
    once = freshen_if_needed(dup)
    twice = freshen_if_needed(dup)
    assert once == twice
    assert alpha_eq(once, dup)


def _fv_reference(t) -> set:
    """Free names by plain recursion over the term, keeping nothing."""
    match t:
        case cp.Link(x, y) | hcp.Link(x, y):
            return {x, y}
        case cp.Halt(x) | cp.Absurd(x) | hcp.Absurd(x):
            return {x}
        case hcp.Inert():
            return set()
        case cp.Cut(x, _, p, q):
            return (_fv_reference(p) | _fv_reference(q)) - {x}
        case cp.Send(x, y, p, q):
            return (_fv_reference(p) - {y}) | _fv_reference(q) | {x}
        case cp.Recv(x, y, p) | hcp.BoundOut(x, y, p) | hcp.In(x, y, p):
            return (_fv_reference(p) - {y}) | {x}
        case hcp.New(x, _, p):
            return _fv_reference(p) - {x}
        case hcp.Par(p, q):
            return _fv_reference(p) | _fv_reference(q)
        case cp.Case(x, p, q) | hcp.Case(x, p, q):
            return _fv_reference(p) | _fv_reference(q) | {x}
        case (cp.Wait(x, p) | cp.Inl(x, p) | cp.Inr(x, p) | hcp.OutUnit(x, p) | hcp.InUnit(x, p)
              | hcp.Inl(x, p) | hcp.Inr(x, p)):
            return _fv_reference(p) | {x}
    raise TypeError(f"not a term: {t!r}")


def _subterms(t):
    yield t
    for f in fields(t):
        sub = getattr(t, f.name)
        if isinstance(sub, (cp.CpTerm, hcp.HcpTerm)):
            yield from _subterms(sub)


def _derived(term):
    """Terms built from a sample, sharing its subterms: reducts, congruent
    neighbours, substitutions and freshenings."""
    mod = cp if isinstance(term, cp.CpTerm) else hcp
    out = [reduction.step(term, r) for r in reduction.find_redexes(term)[:3]]
    out += [n for _, n in congruence.neighbors(term)[:12]]
    free = sorted(mod.free_names(term), key=lambda n: n.uid)
    if free:
        out.append(substitute(term, Name("w", 7_000_001), free[0]))
    bound = binders(term)
    if free and bound:
        # the incoming name is a binder of the term, which must be renamed
        out.append(substitute(term, bound[0], free[-1]))
    # both copies share every binder, so the second is renamed
    twice = cp.Case(free[0], term, term) if mod is cp else hcp.Par(term, term)
    out += [twice, freshen_if_needed(twice)]
    return out


def _mix(width: int):
    """A parsed HCP mix of width unit cuts, right-nested, each component with
    a free name of its own: its mixes hold up to width free names."""
    parts = [f"new c{i}:1. (c{i}[].0 | c{i}().o{i}[].0)" for i in range(width)]
    term = parts[-1]
    for p in reversed(parts[:-1]):
        term = f"({p} | {term})"
    env = ", ".join(f"o{i}:1" for i in range(width))
    return surface.parse_file(f"hproc Main : {env} = {term}\n").decls[0]


@pytest.mark.parametrize("gen", [harness.gen_cp, harness.gen_hcp], ids=["cp", "hcp"])
def test_free_names_agree_with_plain_recursion_on_derived_terms(gen):
    cfg = harness.GenConfig(seed=11, count=30)
    samples = [gen(cfg, i)[0] for i in range(30)]
    if gen is harness.gen_hcp:
        # generated samples seldom keep a set of more than 8 names; these do
        samples += [_mix(32).term, _mix(64).term]
    checked = 0
    for term in samples:
        mod = cp if isinstance(term, cp.CpTerm) else hcp
        assert mod.free_names(term) == _fv_reference(term)  # fills the kept sets first
        for d in _derived(term):
            for sub in _subterms(d):
                fv = mod.free_names(sub)
                assert fv == _fv_reference(sub)
                assert mod.free_names(sub) == fv
                checked += 1
    assert checked > 1000


def test_check_hcp_makes_each_mix_set_once(monkeypatch):
    # every mix keeps its set whatever its size, so checking a wide mix asks
    # the mix rule at most once per node, however often the checker splits
    from sill.typecheck import check_hcp

    decl = _mix(128)
    rule = FREE_NAMES[hcp.Par]
    asked: list = []

    def counted(t, rec):
        asked.append(t)
        return rule(t, rec)

    monkeypatch.setitem(FREE_NAMES, hcp.Par, counted)
    check_hcp(decl.term, decl.env)
    pars = [t for t in subterms(decl.term) if type(t) is hcp.Par]
    assert len(pars) == 2 * 128 - 1  # the spine's and one in each component
    assert 0 < len(asked) <= len(pars)
    assert len({id(t) for t in asked}) == len(asked)


def test_a_kept_empty_set_is_read_not_made_again(monkeypatch):
    # a closed spine of mixes keeps empty sets, which a second query reads
    rule = FREE_NAMES[hcp.Par]
    asked: list = []
    monkeypatch.setitem(FREE_NAMES, hcp.Par, lambda t, rec: asked.append(t) or rule(t, rec))
    term = hcp.Inert()
    for _ in range(50):
        term = hcp.Par(term, hcp.Inert())
    assert hcp.free_names(term) == frozenset()
    assert len(asked) == 50
    assert hcp.free_names(term) == frozenset() and len(asked) == 50


def test_name_hashes_as_its_pair():
    # name-keyed sets iterate in an order fixed by these hash values
    for s, u in [("x", 1), ("c0", 1_000_000_001), ("", 0)]:
        assert hash(Name(s, u)) == hash((s, u))
        assert Name(s, u) == Name(s, u) and str(Name(s, u)) == s


def test_free_names_cannot_be_mutated():
    cfg = harness.GenConfig(seed=11, count=5)
    for term in (harness.gen_cp(cfg, 0)[0], harness.gen_hcp(cfg, 0)[0]):
        mod = cp if isinstance(term, cp.CpTerm) else hcp
        fv = mod.free_names(term)
        assert isinstance(fv, frozenset)
        with pytest.raises(AttributeError):
            fv.add(Name("intruder", 7_000_002))
        with pytest.raises(AttributeError):
            fv.discard(next(iter(fv)))
        widened = fv | {Name("intruder", 7_000_002)}
        assert Name("intruder", 7_000_002) in widened
        assert mod.free_names(term) == _fv_reference(term)


# -- the schema ---------------------------------------------------------------------


def test_schema_covers_every_field_of_every_term_class_once():
    classes = cp.CpTerm.__subclasses__() + hcp.HcpTerm.__subclasses__()
    assert set(SCHEMA) == set(classes)
    for cls in classes:
        s = SCHEMA[cls]
        declared = list(s.names) + [s.binder] * (s.binder is not None) + list(s.inside) + list(s.outside)
        declared += ["ty"] * s.typed
        assert sorted(declared) == sorted(f.name for f in fields(cls) if f.name != "loc"), cls
        assert bool(s.inside) == (s.binder is not None), cls


# -- constructors and locations ------------------------------------------------------


def test_a_parsed_term_is_frozen():
    term = t("new x:1 (x[].0 | x().w[].0)")
    for name in ("x", "ty", "left", "right", "loc"):
        with pytest.raises(FrozenInstanceError):
            setattr(term, name, None)
    with pytest.raises(FrozenInstanceError):
        del term.x
    assert term.loc == Loc(1, 1) and term.right.loc == Loc(1, 18)


def test_equality_and_hash_ignore_loc():
    term = t("new x:1 (x[].0 | x().w[].0)")
    bare = type(term)(*(getattr(term, f) for f in SCHEMA[type(term)].args))
    assert bare.loc is None and term.loc == Loc(1, 1)
    assert bare == term and hash(bare) == hash(term)
    x, y = Name("x", 1), Name("y", 2)
    assert cp.Link(x, y, loc=Loc(1, 1)) == cp.Link(x, y, loc=Loc(4, 2)) != cp.Link(y, x, loc=Loc(1, 1))
    assert hash(hcp.Link(x, y, loc=Loc(1, 1))) == hash(hcp.Link(x, y))


def test_repr_fields_and_match_args_of_the_term_classes():
    term = surface.parse_file("proc A : w:1 =\n  new x:1 (x[].0 |\n    x().v[].0)\n").decls[0].term
    uid = term.x.uid
    assert repr(term) == (f"Cut(x=Name(surface='x', uid={uid}), ty=One(), left=Halt(x=Name(surface='x', uid={uid})), "
                          f"right=Wait(x=Name(surface='x', uid={uid}), body=Halt(x=Name(surface='v', uid={uid + 1}))))")
    assert repr(hcp.New(Name("x", 1), ONE, hcp.Inert())) == "New(x=Name(surface='x', uid=1), ty=One(), body=Inert())"
    assert [f.name for f in fields(cp.Send)] == ["loc", "x", "y", "payload", "cont"]
    assert hcp.New.__match_args__ == ("x", "ty", "body") and hcp.Inert.__match_args__ == ()
    for cls in cp.CpTerm.__subclasses__() + hcp.HcpTerm.__subclasses__():
        assert [f.name for f in fields(cls)] == ["loc", *SCHEMA[cls].args], cls
        assert cls.__match_args__ == SCHEMA[cls].args, cls
    match term:
        case cp.Cut(x, a, cp.Halt(y), right):
            assert x == y and a == ONE and right is term.right
        case _:
            raise AssertionError(term)


def test_term_constructors_take_keywords_and_check_arity():
    x, y = Name("x", 1), Name("y", 2)
    assert cp.Link(x=x, y=y) == cp.Link(x, y) == cp.Link(y=y, x=x, loc=Loc(2, 3))
    assert cp.Link(x, y, loc=Loc(2, 3)).loc == Loc(2, 3)
    for args, kwargs in [((x,), {}), ((x, y, x), {}), ((x, y), {"z": x}), ((x, y, Loc(2, 3)), {})]:
        with pytest.raises(TypeError):
            cp.Link(*args, **kwargs)
    term = t("x().w[].0")
    moved = dataclasses.replace(term, x=y)
    assert moved == cp.Wait(y, term.body) and moved.loc == term.loc


def test_loc_fields_text_equality_and_repr():
    loc = Loc(3, 7)
    assert (loc.line, loc.col) == (3, 7)
    assert str(loc) == f"{loc}" == "3:7"
    assert loc == Loc(3, 7) != Loc(7, 3) and hash(loc) == hash(Loc(3, 7))
    assert repr(loc) == "Loc(line=3, col=7)"


def test_a_type_error_reports_its_loc_in_json():
    d = surface.parse_file("proc A : w:1 =\n  new x:1 (x[].0 |\n    x().v[].0)\n").decls[0]
    with pytest.raises(typecheck.TypeCheckError) as e:
        typecheck.check_cp(d.term, d.env)
    assert e.value.json_record() == {"kind": "UnusedLinear", "name": "w", "loc": "2:3", "expected": None, "actual": None}
    assert e.value.render("F") == "F:2:3: UnusedLinear: linear channel w is not used"


# -- deep terms ---------------------------------------------------------------------

_DEPTH = 5000


def _chain(kind: str):
    """A term _DEPTH prefixes deep, all on the free name x, each binding a
    name of its own where the prefix binds one."""
    x, w = Name("x", 7_100_000), Name("w", 7_100_001)
    t = cp.Halt(w) if kind.startswith("cp") else hcp.OutUnit(w, hcp.Inert())
    for i in range(_DEPTH):
        y = Name("y", 7_100_002 + i)
        if kind == "cp-recv":
            t = cp.Recv(x, y, t)
        elif kind == "cp-wait":
            t = cp.Wait(x, t)
        elif kind == "hcp-in":
            t = hcp.In(x, y, t)
        elif kind == "hcp-inunit":
            t = hcp.InUnit(x, t)
        else:
            t = hcp.New(y, ONE, hcp.Par(hcp.OutUnit(y, hcp.Inert()), hcp.InUnit(y, hcp.InUnit(x, t))))
    return t


@pytest.mark.parametrize("kind", ["cp-recv", "cp-wait", "hcp-in", "hcp-inunit", "hcp-new"])
def test_shared_walkers_take_deep_terms(kind):
    # (terms this deep are compared by alpha key: dataclass == recurses)
    t, x, v = _chain(kind), Name("x", 7_100_000), Name("v", 7_200_000)
    moved = substitute(t, v, x)
    key = alpha_key(t)
    assert alpha_key(_chain(kind)) == key and alpha_key(moved) != key
    assert alpha_key(substitute(moved, x, v)) == key
    assert alpha_eq(t, _chain(kind)) and not alpha_eq(t, moved)
    assert len(binders(t)) == (0 if kind in ("cp-wait", "hcp-inunit") else _DEPTH)
