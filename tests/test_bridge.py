import pytest

from conftest import load_fixture

from sill import bridge, congruence as cg, cp, harness, hcp, reduction as rd, terms
from sill import types as ty
from sill.names import Name, fresh
from sill.surface import parse_term, print_term
from sill.translate import cp_to_hcp
from sill.typecheck import check_cp, check_hcp, hyper_eq, revalidate
from sill.types import BOT, ONE, Par, Tensor


def t(src, dialect="cp"):
    return parse_term(src, dialect)


def checked(src, env_src, dialect="cp"):
    from sill import surface

    kw = "proc" if dialect == "cp" else "hproc"
    f = surface.parse_file(f"{kw} T : {env_src} = {src}\n")
    d = f.decls[0]
    if dialect == "cp":
        return d, check_cp(d.term, d.env)
    return d, check_hcp(d.term, d.env)


# -- typed translation ---------------------------------------------------------


def test_translate_cut_becomes_mix_under_hypercut():
    d, deriv = checked("new x:1 (x[].0 | x().w[].0)", "w:1")
    hd = bridge.translate_typed(deriv)
    assert hd.rule == "H-Cut" and hd.premises[0].rule == "H-Mix"
    assert revalidate(hd)
    assert terms.alpha_eq(hd.term, cp_to_hcp(d.term))


def test_translate_halt_becomes_inert_axiom_under_unit():
    d, deriv = checked("x[].0", "x:1")
    hd = bridge.translate_typed(deriv)
    assert hd.rule == "1" and hd.premises[0].rule == "H-Mix₀"
    assert revalidate(hd)


def test_translate_output_becomes_mix_under_output():
    d, deriv = checked("x[y].(y[].0 | x[].0)", "x:1*1")
    hd = bridge.translate_typed(deriv)
    assert hd.rule == "⊗" and hd.premises[0].rule == "H-Mix"
    assert revalidate(hd)


def test_translated_environment_preserved():
    cfg = harness.GenConfig(seed=31, count=1)
    for i in range(20):
        term, env, deriv = harness.gen_cp(cfg, i)
        hd = bridge.translate_typed(deriv)
        assert revalidate(hd)
        assert hyper_eq(hd.env, [env])
        assert hd.term == cp_to_hcp(term)


def test_translation_respects_congruence():
    import random

    rng = random.Random("tr-cong")
    cfg = harness.GenConfig(seed=32, count=1)
    for i in range(15):
        term, env, _ = harness.gen_cp(cfg, i)
        other = harness.scramble(term, rng, 2)
        assert cg.equiv(cp_to_hcp(term), cp_to_hcp(other))


# -- simulations ----------------------------------------------------------------


def test_forward_simulation_on_fixture():
    term = load_fixture("tensor_unit.sill").decls[0].term
    trace = rd.reduce(term)
    assert len(trace.steps) == 3
    assert bridge.simulate_forward(term, trace)


def test_forward_simulation_empty_trace():
    term = t("x<->y")
    trace = rd.reduce(term)
    assert not trace.steps and bridge.simulate_forward(term, trace)


def test_backward_simulation_on_fixture():
    term = load_fixture("tensor_unit.sill").decls[0].term
    image = cp_to_hcp(term)
    for r in rd.find_redexes(image):
        reduct = rd.step(image, r)
        q = bridge.simulate_backward(term, reduct)
        assert cg.equiv(reduct, cp_to_hcp(q))


def test_backward_simulation_link_substitution():
    term = t("new x:bot (w<->x | x[].0)")
    image = cp_to_hcp(term)
    (r,) = rd.find_redexes(image)
    q = bridge.simulate_backward(term, rd.step(image, r))
    assert print_term(q) == "w[].0"


def test_backward_simulation_error_on_mismatch():
    term = load_fixture("unit_cut.sill").decls[0].term
    with pytest.raises(bridge.SimulationError):
        bridge.simulate_backward(term, t("v[].0", "hcp"))


# -- disentanglement -------------------------------------------------------------


def test_disentangle_root_mix_splits_components():
    d, (deriv, part) = checked("(x[].0 | w[].0)", "x:1, w:1", "hcp")
    res = bridge.disentangle(deriv)
    assert len(res.components) == 2
    for c in res.components:
        assert revalidate(c)
        check_cp(c.term, c.env)
    assert hyper_eq([c.env for c in res.components], part)
    assert cg.equiv(res.recombined, d.term)


def test_disentangle_pushes_mix_below_cut():
    # the scrambled form holds an unrelated component inside the restriction
    d, (deriv, part) = checked(
        "new x:1. ((x[].0 | v().u[].0) | x().w[].0)", "w:1, v:bot, u:1", "hcp")
    res = bridge.disentangle(deriv)
    assert len(res.components) == 2
    assert any("pushed a mix below the cut" in line for line in res.log)
    assert cg.equiv(res.recombined, d.term)
    for c in res.components:
        check_cp(c.term, c.env)


def test_disentangle_translated_cut_is_single_component():
    d, (deriv, part) = checked("new x:bot. (x().w[].0 | x[].0)", "w:1", "hcp")
    res = bridge.disentangle(deriv)
    assert len(res.components) == 1
    assert cg.equiv(res.recombined, d.term)


def test_disentangle_inert():
    d, (deriv, part) = checked("0", "", "hcp")
    res = bridge.disentangle(deriv)
    assert res.components == [] and isinstance(res.recombined, hcp.Inert)


def test_disentangle_random_suite():
    cfg = harness.GenConfig(seed=33, count=1)
    for i in range(20):
        term, env, deriv = harness.gen_hcp(cfg, i)
        res = bridge.disentangle(deriv)
        _, part = check_hcp(term, env)
        assert hyper_eq([c.env for c in res.components], part)
        for c in res.components:
            assert revalidate(c)
            check_cp(c.term, c.env)
        assert cg.equiv(res.recombined, term)


# -- internalization -------------------------------------------------------------


def test_bigparr_of_empty_is_bot():
    assert bridge.bigparr({}) == BOT


def test_bigtens_of_empty_is_one():
    assert bridge.bigtens([]) == ONE


def test_bigtens_two_singletons():
    x, w = Name("x", 1), Name("w", 2)
    assert bridge.bigtens([{x: ONE}, {w: ONE}]) == Tensor(ONE, ONE)


def test_bigparr_right_associated_in_uid_order():
    a, b, c = Name("a", 1), Name("b", 2), Name("c", 3)
    env = {b: BOT, a: ONE, c: ONE}
    assert bridge.bigparr(env) == Par(ONE, Par(BOT, ONE))


def test_parr_collapse_singleton_unchanged():
    d, deriv = checked("x[].0", "x:1")
    out = bridge._parr_collapse(deriv)
    assert out is deriv


def test_parr_collapse_two_names():
    d, deriv = checked("w().z[].0", "w:bot, z:1")
    out = bridge._parr_collapse(deriv)
    assert revalidate(out)
    (zc,) = out.env
    assert out.env[zc] == Par(BOT, ONE)
    assert isinstance(out.term, cp.Recv)
    check_cp(out.term, out.env)


def test_parr_collapse_carrier_is_last_canonical_name():
    from sill import surface

    f = surface.parse_file("proc T : w:bot, z:1 = w().z[].0\n")
    decl = f.decls[0]
    deriv = check_cp(decl.term, decl.env)
    out = bridge._parr_collapse(deriv)
    (carrier,) = out.env
    assert carrier.surface == "z"  # declared last, highest uid
    assert print_term(out.term).startswith("z(w).")


def test_tens_internalize_empty_hyper_env():
    d, (deriv, part) = checked("0", "", "hcp")
    out = bridge.tens_internalize(deriv)
    assert out.rule == "1" and isinstance(out.term, cp.Halt)
    (z,) = out.env
    assert out.env[z] == ONE
    check_cp(out.term, out.env)


def test_tens_internalize_two_singletons():
    d, (deriv, part) = checked("(x[].0 | w[].0)", "x:1, w:1", "hcp")
    out = bridge.tens_internalize(deriv)
    assert revalidate(out)
    (z,) = out.env
    assert out.env[z] == Tensor(ONE, ONE)
    check_cp(out.term, out.env)


def test_tens_internalize_single_sequent_degenerates_to_collapse():
    d, (deriv, part) = checked("new x:bot. (x().w[].0 | x[].0)", "w:1", "hcp")
    out = bridge.tens_internalize(deriv)
    (z,) = out.env
    assert out.env[z] == ONE  # single member, single name: no chain
    check_cp(out.term, out.env)


def test_tens_internalize_random_suite():
    cfg = harness.GenConfig(seed=34, count=1)
    for i in range(20):
        term, env, deriv = harness.gen_hcp(cfg, i)
        _, part = check_hcp(term, env)
        out = bridge.tens_internalize(deriv)
        assert revalidate(out)
        (z,) = out.env
        assert out.env[z] == bridge.bigtens(part)
        check_cp(out.term, out.env)
