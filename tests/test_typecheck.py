import hashlib
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys
import threading

import pytest

from conftest import load_fixture

from sill import congruence, cp, harness, hcp, surface
from sill import types as ty
from sill.names import Name
from sill.surface import parse_term, parse_type
from sill.terms import SCHEMA
from sill.typecheck import (Derivation, TypeCheckError, check_cp, check_hcp,
                            hyper_eq, render_derivation, revalidate)
from sill.types import BOT, ONE, TOP, Tensor, dual


def env_of(src: str) -> dict:
    f = surface.parse_file(f"proc T : {src} = t<->t_\n" if src else "proc T : = t<->t_\n")
    return f.decls[0].env


def check_src(term_src: str, env_src: str, dialect: str = "cp", **kw):
    decl_kw = "proc" if dialect == "cp" else "hproc"
    f = surface.parse_file(f"{decl_kw} T : {env_src} = {term_src}\n")
    d = f.decls[0]
    if dialect == "cp":
        return check_cp(d.term, d.env), None
    return check_hcp(d.term, d.env, **kw)


def err_of(term_src: str, env_src: str, dialect: str = "cp", **kw) -> TypeCheckError:
    with pytest.raises(TypeCheckError) as e:
        check_src(term_src, env_src, dialect, **kw)
    return e.value


# -- CP -----------------------------------------------------------------------


def test_ax_on_dual_endpoints():
    d, _ = check_src("x<->y", "x:bot, y:1")
    assert d.rule == "Ax" and revalidate(d)


def test_ax_rejects_non_dual():
    assert err_of("x<->y", "x:1, y:1").kind == "TypeMismatch"


def test_halt_leaf():
    d, _ = check_src("x[].0", "x:1")
    assert d.rule == "1" and not d.premises


def test_halt_with_leftover_is_unused_linear():
    e = err_of("x[].0", "x:1, z:1")
    assert e.kind == "UnusedLinear" and e.name.surface == "z"


def test_composite_send_recv_derivation():
    d, _ = check_src(
        "new x:1*1 (x[y].(y[].0 | x[].0) | x(y).y().x().w[].0)", "w:1")
    rules = set()

    def walk(n):
        rules.add(n.rule)
        for c in n.premises:
            walk(c)

    walk(d)
    assert {"Cut", "⊗", "⅋", "1", "⊥"} <= rules
    assert revalidate(d)


def test_absurd_consumes_remainder():
    d, _ = check_src("g?{}", "g:top, extra:1 * 1")
    assert d.rule == "⊤" and revalidate(d)


def test_split_conflict():
    # w occurs free in both branches of the cut
    w, x, v = Name("w", 8001), Name("x", 8002), Name("v", 8003)
    bad = cp.Cut(x, ONE, cp.Wait(w, cp.Halt(x)), cp.Wait(x, cp.Wait(w, cp.Halt(v))))
    with pytest.raises(TypeCheckError) as e:
        check_cp(bad, {w: BOT, v: ONE})
    assert e.value.kind == "SplitConflict"


def test_unknown_name():
    assert err_of("x[].0", "w:1").kind == "UnknownName"


def test_wrong_constructor_for_type():
    e = err_of("x().w[].0", "x:1, w:1")
    assert e.kind == "TypeMismatch" and e.actual == "1"


def test_cp_mismatch_messages_are_verbatim():
    cases = [
        ("x[y].(y[].0 | x[].0)", "x:1", "channel x has type 1, but the action requires an output type A * B"),
        ("x(y).x().y[].0", "x:1", "channel x has type 1, but the action requires an input type A par B"),
        ("x[].0", "x:bot", "channel x has type bot, but the action requires the unit 1"),
        ("x().w[].0", "x:1, w:1", "channel x has type 1, but the action requires the unit bot"),
        ("x!inl.x[].0", "x:1", "channel x has type 1, but the action requires a selection type A + B"),
        ("x!inr.x[].0", "x:1", "channel x has type 1, but the action requires a selection type A + B"),
        ("x?{inl: x[].0; inr: x[].0}", "x:1", "channel x has type 1, but the action requires an offer type A & B"),
        ("x?{}", "x:1", "channel x has type 1, but the action requires the empty offer top"),
    ]
    for term, env, message in cases:
        e = err_of(term, env)
        assert e.render() == f"TypeMismatch: {message}"
        assert e.expected == message.split(" requires ")[1]


# -- HCP ----------------------------------------------------------------------


def test_hmix_partition():
    _, part = check_src("(x[].0 | w[].0)", "x:1, w:1", "hcp")
    assert [sorted(n.surface for n in e) for e in part] == [["x"], ["w"]]
    assert [list(e.values()) for e in part] == [[ONE], [ONE]]


def test_translated_cut_is_single_sequent():
    d, part = check_src("new x:bot. (x().w[].0 | x[].0)", "w:1", "hcp")
    assert len(part) == 1 and [n.surface for n in part[0]] == ["w"]
    assert revalidate(d)


def test_selflock_rejected():
    e = err_of("new x:bot. (x().x[].0 | 0)", "", "hcp")
    assert e.kind == "SelfLock" and e.name.surface == "x"


def test_selflock_guarded_parallel_rejected():
    # the other endpoint hides inside the waited-on continuation
    e = err_of("new x:bot. (x().(x[].0 | b[].0) | b_dummy<->b2)", "b:1, b_dummy:1, b2:bot", "hcp")
    assert e.kind == "SelfLock"


def test_hyper_context_forbidden_on_offer():
    f = load_fixture("with_counterexample.sill")
    d = f.decls[0]
    with pytest.raises(TypeCheckError) as e:
        check_hcp(d.term, d.env)
    assert e.value.kind == "HyperContextForbidden"


def test_counterexample_typechecks_under_liberal_offer():
    f = load_fixture("with_counterexample.sill")
    d = f.decls[0]
    deriv, part = check_hcp(d.term, d.env, allow_hyper_with=True)
    assert sorted(surface.print_env(e) for e in part) == ["w:1", "z:1"]


def test_selflock_typechecks_under_mutation():
    f = load_fixture("selflock.sill")
    d = f.decls[0]
    deriv, part = check_hcp(d.term, d.env, allow_self_lock=True)
    assert part is not None


def test_a_self_locked_restriction_still_needs_dual_endpoints():
    # the self-locked wait leaves x:bot in a member of its own, while the
    # input around it concludes x:bot par bot in the other: both endpoints
    # are concrete at the restriction, and they are not dual
    e = err_of("new x:1 * 1. x(y).x().x<->y", "", "hcp", allow_self_lock=True)
    assert e.kind == "TypeMismatch" and e.loc is not None
    assert e.message == "endpoints of x have types bot par bot and bot, but the restriction is annotated 1 * 1"


@pytest.mark.xfail(strict=True, reason="the self-locked wait leaves its input's premise holding x:1, and "
                   "_hcp_in writes the subject's type without comparing it with the member's")
def test_a_self_locked_derivation_revalidates():
    d, part = check_src("x(y).x().x<->y", "x:bot par bot", "hcp", allow_self_lock=True)
    assert revalidate(d)


def test_wait_needs_a_component():
    e = err_of("x().0", "x:bot", "hcp")
    assert e.kind == "TypeMismatch"


def test_link_under_restriction():
    d, part = check_src("new x:1. (x<->w | x().v[].0)", "w:bot, v:1", "hcp")
    assert revalidate(d)


def test_flex_flex_link_chain():
    # both link endpoints restricted; polarity resolved through the chain
    d, part = check_src(
        "new x:1. (new y:1. (x<->y | y().v[].0) | x[].0)", "v:1", "hcp")
    assert revalidate(d)
    assert [n.surface for n in part[0]] == ["v"]


@pytest.mark.parametrize("term", [
    "new x:1. new y:1*1. new z:1. (x[].0 | (x<->y | (y<->z | z().w[].0)))",
    "new x:1. new z:1. (new y:1*1. (x<->y | y<->z) | (x[].0 | z().w[].0))",
], ids=["Y", "F"])
def test_a_link_refuses_restrictions_of_unrelated_annotations(term):
    # x's restriction allows 1 or bot, y's only 1 * 1 or its dual: no type
    # fits both ends of x<->y, so the link itself is refused, where it stands
    e = err_of(term, "w:1", "hcp")
    assert e.kind == "TypeMismatch" and e.name.surface == "y"
    assert e.loc == (1, len("hproc T : w:1 = ") + term.index("x<->y") + 1)
    assert e.message == "a link cannot join x, restricted at 1, and y, restricted at 1 * 1"


def test_a_link_joins_restrictions_of_one_annotation():
    d, part = check_src("new x:1. new z:1. (new y:1. (x<->y | y<->z) | (x[].0 | z().w[].0))", "w:1", "hcp")
    assert revalidate(d)
    mix = d.premises[0].premises[0]
    assert mix.rule == "H-Mix"
    assert surface.print_hyper_env(mix.env) == "x:bot, z:1 | x:1 | w:1, z:bot"


def _link_chains():
    """Every chain of k = 2 or 3 restrictions x1..xk, annotated from {1, bot,
    1 * 1}, joined by links x_i<->x_(i+1) each written either way round, where
    x1 sends and xk waits; the links sit beside the two acting ends inside
    every restriction, or in a mix of their own with the middle restrictions
    around them."""
    for k, inside in itertools.product((2, 3), (True, False)):
        for anns in itertools.product(("1", "bot", "1 * 1"), repeat=k):
            for flips in itertools.product((False, True), repeat=k - 1):
                links = [f"x{i + 2}<->x{i + 1}" if flip else f"x{i + 1}<->x{i + 2}" for i, flip in enumerate(flips)]
                new = [f"new x{i + 1}:{a}. " for i, a in enumerate(anns)]
                if inside:
                    body = f"x{k}().w[].0"
                    for link in reversed(links):
                        body = f"({link} | {body})"
                    term = "".join(new) + f"(x1[].0 | {body})"
                else:
                    block = links[0] if k == 2 else f"({' | '.join(links)})"
                    ends = f"(x1[].0 | x{k}().w[].0)"
                    term = new[0] + new[-1] + f"({''.join(new[1:-1])}{block} | {ends})"
                yield term, all(a != "1 * 1" for a in anns)


def test_link_chains_are_refused_at_the_link_or_typed_whole():
    terms = list(_link_chains())
    assert len(terms) == 252 and len(set(terms)) == 252
    for term, typable in terms:
        try:
            d, part = check_src(term, "w:1", "hcp")
        except TypeCheckError as e:
            assert not typable, (term, str(e))
            assert e.loc is not None, (term, str(e))
            continue
        assert typable, term
        assert revalidate(d), term
        stack = [d]
        while stack:
            node = stack.pop()
            assert all(type(s) is not int for e in node.env for s in e.values()), term
            stack += node.premises


def test_unconstrained_polarity_resolved_at_finalize():
    # a sibling constraint arrives after the restriction is resolved
    d, part = check_src(
        "new c35:bot. (new c36:bot. (c33<->c36 | c35<->c36) | c34().c35[].0)",
        "c33:1, c34:bot", "hcp")
    assert revalidate(d)


def test_unit_output_carries_parallel_continuation():
    # the unit rule concludes G | x:1, so the continuation runs alongside
    d, part = check_src("x[].w[].0", "x:1, w:1", "hcp")
    assert sorted(surface.print_env(e) for e in part) == ["w:1", "x:1"]
    assert revalidate(d)


def test_restriction_used_once_rejected():
    e = err_of("new x:1. (x[].0 | w[].0)", "w:1", "hcp")
    assert e.kind == "UnusedLinear" and e.name.surface == "x"


def test_name_reuse_two_components():
    e = err_of("(x[].0 | x[].0)", "x:1", "hcp")
    assert e.kind == "NameReuse"


def test_output_needs_independent_components():
    e = err_of("x[y].y().x[].0", "x:bot * 1", "hcp")
    assert e.kind == "SplitConflict"


def test_input_needs_shared_component():
    e = err_of("x(y).(y().v[].0 | x[].0)", "x:bot par 1, v:1", "hcp")
    assert e.kind == "SplitConflict"


def test_output_may_not_entangle_a_restriction():
    # payload and continuation sit in two components that hold the two
    # endpoints of n, so the output would put both in one sequent
    e = err_of("new n:1. x[y].(n<->y | n<->x)", "x:1 * bot", "hcp")
    assert e.kind == "NameReuse" and e.name.surface == "n"
    assert str(e).endswith("output on x would entangle both endpoints of n")


def test_a_prefix_binder_may_not_capture_a_name_in_scope():
    # built in code, since the parser draws a fresh uid per binder: the
    # input's b is the output's b, and the input's x the selected x
    a, b, c, x, y = (Name(s, 1) for s in "abcxy")
    cases = [
        (check_hcp, hcp.New(a, Tensor(ONE, BOT), hcp.BoundOut(y, b, hcp.In(a, b, hcp.Absurd(c)))),
         {c: TOP, y: Tensor(ONE, BOT)}, b),
        (check_hcp, hcp.Inl(x, hcp.In(a, x, hcp.InUnit(a, hcp.OutUnit(x, hcp.Inert())))),
         {x: ty.Plus(BOT, BOT), a: ty.Par(ONE, BOT)}, x),
        (check_cp, cp.Inl(x, cp.Recv(a, x, cp.Wait(a, cp.Halt(x)))), {x: ty.Plus(BOT, BOT), a: ty.Par(ONE, BOT)}, x),
    ]
    for check, term, env, bound in cases:
        with pytest.raises(TypeCheckError) as e:
            check(term, env)
        assert (e.value.kind, e.value.name) == ("NameReuse", bound)
        assert str(e.value).endswith(f"bound channel {bound.surface} shadows a channel in scope")
        assert "\n" not in str(e.value)


def test_unit_output_self_lock_rejected_unless_allowed():
    # the continuation holds x's other endpoint, at type bot
    e = err_of("x[].x().w[].0", "x:1, w:1", "hcp")
    assert e.kind == "SelfLock" and str(e).endswith("cannot send on x while also holding its other endpoint")
    d, part = check_src("x[].x().w[].0", "x:1, w:1", "hcp", allow_self_lock=True)
    assert surface.print_hyper_env(part) == "w:1, x:bot | x:1"


def test_liberal_offer_needs_the_same_channel_sets():
    # under allow_hyper_with each branch may be split, but x's component
    # holds v in one branch and w in the other
    e = err_of("x?{inl: (x().v[].0 | w[].0); inr: x().v[].w[].0}", "x:bot & bot, v:1, w:1", "hcp",
               allow_hyper_with=True)
    assert e.kind == "TypeMismatch" and str(e).endswith("the branches of the offer on x use different channel sets")


@pytest.mark.parametrize("check,term,construct", [
    (check_cp, cp.Wait(Name("x", 1), hcp.Inert()), "not a CP construct: Inert"),
    (check_hcp, hcp.InUnit(Name("x", 1), cp.Halt(Name("w", 1))), "not an HCP construct: Halt"),
])
def test_a_node_of_the_other_dialect_is_refused(check, term, construct):
    with pytest.raises(TypeCheckError) as e:
        check(term, {Name("x", 1): BOT, Name("w", 1): ONE})
    assert e.value.kind == "DialectViolation" and str(e.value).endswith(construct)


# -- revalidate ---------------------------------------------------------------


def test_revalidate_detects_corruption():
    d, _ = check_src("new x:1 (x[].0 | x().w[].0)", "w:1")
    assert revalidate(d)
    corrupted = Derivation(d.rule, d.term, {Name("w", 1): BOT}, d.premises)
    assert not revalidate(corrupted)


def test_revalidate_hcp_corruption():
    (d, part) = check_src("(x[].0 | w[].0)", "x:1, w:1", "hcp")[0:2]
    bad = Derivation(d.rule, d.term, [part[0]], d.premises)
    assert not revalidate(bad)


def test_revalidate_does_not_rest_on_asserts():
    # `python -O` strips assert statements; revalidate must still reject a
    # link whose environment was changed to top
    root = pathlib.Path(__file__).resolve().parent.parent
    code = ("import sys\n"
            "from sill import cp\n"
            "from sill.names import Name\n"
            "from sill.typecheck import Derivation, check_cp, revalidate\n"
            "from sill.types import BOT, ONE, TOP\n"
            "x, y = Name('x', 1), Name('y', 2)\n"
            "d = check_cp(cp.Link(x, y), {x: ONE, y: BOT})\n"
            "bad = Derivation(d.rule, d.term, {x: ONE, y: TOP}, d.premises)\n"
            "print(sys.flags.optimize, revalidate(d), revalidate(bad))\n")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "1 True False\n"


def test_revalidate_deep_derivation_at_default_recursion_limit():
    # the checker recurses, so the 2000-deep derivation is built in a thread
    # with a big stack and a raised limit; revalidate runs at the default one
    w = Name("w", 0)
    xs = [Name(f"x{i}", i) for i in range(1, 2001)]
    term = cp.Halt(w)
    for x in reversed(xs):
        term = cp.Wait(x, term)
    env = {w: ONE, **{x: BOT for x in xs}}
    out = {}

    def build():
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(50_000)
        try:
            out["d"] = check_cp(term, env)
        finally:
            sys.setrecursionlimit(limit)

    size = threading.stack_size(256 << 20)
    try:
        thread = threading.Thread(target=build)
        thread.start()
        thread.join()
    finally:
        threading.stack_size(size)
    d, depth = out["d"], 0
    while d.premises:
        (d,) = d.premises
        depth += 1
    assert depth == 2000
    assert revalidate(out["d"])
    assert not revalidate(Derivation(d.rule, d.term, {w: BOT}, ()))


def test_derivation_rendering():
    from sill.typecheck import derivation_json_lines, render_derivation

    d, _ = check_src("new x:1 (x[].0 | x().w[].0)", "w:1")
    text = render_derivation(d)
    assert "Cut" in text and "⊢" in text
    recs = derivation_json_lines(d)
    assert recs[0]["rule"] == "Cut" and recs[0]["children"] == 2


def _unit_cut_chain(n: int, dialect: str):
    """The n-cut chain `new x1:1 (x1[].0 | x1().new x2:1 (...w[].0))` of a
    dialect, with each node's free-name set made as it is built, so that
    `free_names` never recurses more than a few frames."""
    w = Name("w", 0)
    free_names = cp.free_names if dialect == "cp" else hcp.free_names
    t = cp.Halt(w) if dialect == "cp" else hcp.OutUnit(w, hcp.Inert())
    for i in range(n, 0, -1):
        x = Name(f"x{i}", i)
        if dialect == "cp":
            nodes = [cp.Wait(x, t)]
            nodes.append(cp.Cut(x, ONE, cp.Halt(x), nodes[-1]))
        else:
            nodes = [hcp.InUnit(x, t)]
            nodes.append(hcp.Par(hcp.OutUnit(x, hcp.Inert()), nodes[-1]))
            nodes.append(hcp.New(x, ONE, nodes[-1]))
        for node in nodes:
            free_names(node)
        t = nodes[-1]
    return t, {w: ONE}


@pytest.mark.parametrize("dialect,per_cut", [("cp", 2), ("hcp", 3)])
def test_checkers_take_a_fixed_number_of_frames_per_cut(dialect, per_cut):
    # the checkers recurse once per term level; the deepest Python stack a
    # chain of n cuts reaches stays within per_cut frames a cut (so a rule
    # that adds a wrapper frame fails), measured in a big-stack thread
    n = 300
    t, env = _unit_cut_chain(n, dialect)
    check = check_cp if dialect == "cp" else check_hcp
    out = {}

    def run():
        depth = deepest = 0

        def hook(frame, event, arg):
            nonlocal depth, deepest
            if event == "call":
                depth += 1
                deepest = max(deepest, depth)
            elif event == "return":
                depth -= 1

        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(20_000)
        sys.setprofile(hook)
        try:
            check(t, env)
        finally:
            sys.setprofile(None)
            sys.setrecursionlimit(limit)
        out["deepest"] = deepest

    size = threading.stack_size(128 << 20)
    try:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
    finally:
        threading.stack_size(size)
    assert 0 < out["deepest"] <= per_cut * n + 20, out["deepest"]


# -- golden outcomes ----------------------------------------------------------


OUTCOMES_GOLDEN = pathlib.Path(__file__).parent / "golden" / "typecheck" / "outcomes.txt"


def _subject_swaps(t, env: dict, rng) -> list:
    """Up to 6 terms that each replace one node's subject name by another
    name in scope there (a name of env or of an enclosing binder), drawn by
    rng from every such (node, field, name) in pre-order."""
    found = []
    stack = [(t, None, tuple(env))]
    while stack:
        node, path, scope = stack.pop()
        s = SCHEMA[type(node)]
        for f in s.names:
            here = getattr(node, f)
            for n in sorted(scope, key=lambda n: (n.uid, n.surface)):
                if n != here:
                    found.append((path, node, f, n))
        inner = scope + (getattr(node, s.binder),) if s.binder else scope
        for f in reversed(s.subterms):
            stack.append((getattr(node, f), (path, node, f), inner if f in s.inside else scope))
    picks = sorted(rng.sample(range(len(found)), min(6, len(found))))
    out = []
    for k in picks:
        path, node, f, n = found[k]
        swapped = type(node)(*[n if g == f else getattr(node, g) for g in SCHEMA[type(node)].args])
        out.append(congruence.rebuild_site((path, "", swapped)))
    return out


def checker_outcomes() -> str:
    """Per sample 0-59 of gen_cp and gen_hcp at GenConfig(seed=42), the
    checker's answer on the sample and on variants of it: each shrink site
    rebuilt, the env without its first name, with an unused `zz:1` and with
    its first type dualised, and up to 6 subject swaps.  An answer is a
    digest of the rendered derivation with its root's rule and conclusion
    environment, or the error's `render()` and `json_record()`.  After a deliberate change
    to the checkers, rewrite the golden with
    `PYTHONPATH=src python tests/test_typecheck.py`."""
    cfg = harness.GenConfig(seed=42)
    lines = []
    for dialect, gen in (("cp", harness.gen_cp), ("hcp", harness.gen_hcp)):
        check = check_cp if dialect == "cp" else (lambda t, env: check_hcp(t, env)[0])
        for i in range(60):
            t, env, d = gen(cfg, i)
            (first, a), rest = next(iter(env.items())), list(env.items())[1:]
            variants = [("sample", t, env)]
            variants += [(f"shrink{k}", congruence.rebuild_site(site), env)
                         for k, site in enumerate(harness._shrink_sites(d))]
            variants += [("drop-first", t, dict(rest)),
                         ("plus-zz", t, {**env, Name("zz", 1): ONE}),
                         ("dual-first", t, {first: dual(a), **dict(rest)})]
            variants += [(f"swap{k}", t2, env)
                         for k, t2 in enumerate(_subject_swaps(t, env, random.Random(f"{dialect}:{i}")))]
            for label, term, e in variants:
                try:
                    d2 = check(term, e)
                except TypeCheckError as err:
                    answer = f"error {err.render()} {json.dumps(err.json_record(), ensure_ascii=False)}"
                else:
                    digest = hashlib.sha256(render_derivation(d2).encode()).hexdigest()[:16]
                    envs = surface.print_env(d2.env) if dialect == "cp" else surface.print_hyper_env(d2.env)
                    answer = f"ok {digest} {d2.rule} : {envs}"
                lines.append(f"{dialect} {i} {label} {answer}")
    return "\n".join(lines) + "\n"


def test_checker_outcomes_match_golden():
    assert checker_outcomes() == OUTCOMES_GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    OUTCOMES_GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    OUTCOMES_GOLDEN.write_text(checker_outcomes(), encoding="utf-8")
    print("wrote tests/golden/typecheck/outcomes.txt", file=sys.stderr)
