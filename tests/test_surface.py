import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clash_heavy_terms, load_fixture, print_file, subterms

from sill import cp, harness, hcp, reduction, surface, terms, typecheck
from sill import types as ty
from sill.names import Name
from sill.surface import ParseError, parse_file, parse_term, parse_type, print_term
from sill.types import BOT, ONE, Par, Tensor


def test_parse_type_examples():
    assert parse_type("1 * bot") == Tensor(ONE, BOT)
    assert parse_type("~(1 * bot)") == Par(BOT, ONE)


def test_mixed_additive_level_rejected():
    with pytest.raises(ParseError):
        parse_type("1 + 1 & top")


def test_mixed_multiplicative_level_rejected():
    with pytest.raises(ParseError):
        parse_type("1 * bot par 1")
    assert parse_type("1 * (bot par 1)") == Tensor(ONE, Par(BOT, ONE))


def test_binary_operators_right_associative():
    assert parse_type("1 * bot * 1") == Tensor(ONE, Tensor(BOT, ONE))
    assert parse_type("(1 * bot) * 1") == Tensor(Tensor(ONE, BOT), ONE)


def test_deeply_nested_types_parse_without_recursion():
    n = 5000
    assert parse_type("(" * n + "1" + ")" * n) == ONE
    assert parse_type("~" * n + "(~" * n + "bot" + ")" * n) == BOT
    with pytest.raises(ParseError) as e:
        parse_type("(" * n + "1 * bot" + ")" * (n - 1))
    assert e.value.loc.col == 2 * n + 7  # the end of input, where the last ")" is missing


def test_parse_cp_cut():
    term = parse_term("new x:1 (x[].0 | x().w[].0)", "cp")
    assert isinstance(term, cp.Cut) and term.ty == ONE
    assert isinstance(term.left, cp.Halt) and isinstance(term.right, cp.Wait)


def test_cp_output_requires_pair_body():
    with pytest.raises(ParseError) as e:
        parse_term("x[y].P", "cp")
    assert "(P | Q)" in str(e.value)


def test_cp_rejects_bare_parallel_and_inert():
    with pytest.raises(ParseError):
        parse_term("(x[].0 | y[].0)", "cp")
    with pytest.raises(ParseError):
        parse_term("0", "cp")


def test_hcp_selflock_parses():
    term = parse_term("new x:bot. (x().x[].0 | 0)", "hcp")
    assert isinstance(term, hcp.New)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse_file("proc Broken : w:1 = new x:1 (x[].0 | )\n")
    assert e.value.loc.line == 1
    assert e.value.loc.col > 30


def test_cp_only_hints_and_table_built_messages():
    hints = {"(x[].0 | y[].0)": "1:1: syntax error: bare parallel composition '(P | Q)' is not a CP construct",
             "0": "1:1: syntax error: the inert process '0' is not a CP construct",
             "new x:1. x[].0": "1:8: syntax error: CP cut is written 'new x:A (P | Q)', not 'new x:A. P'",
             "x[y].y[].0": "1:6: syntax error: CP output requires a '(P | Q)' body",
             "x[].y[].0": "1:5: syntax error: expected '0' (CP halt is 'x[].0'), found 'y'"}
    for src, message in hints.items():
        with pytest.raises(ParseError) as e:
            parse_term(src, "cp")
        assert str(e.value).startswith(f"<input>:{message}")
    with pytest.raises(ParseError) as e:
        parse_term("x y", "hcp")
    assert e.value.message == "expected '<->' or '(' or '!' or '?' or '[', found 'y'"
    with pytest.raises(ParseError) as e:
        parse_term("x[].0 |", "hcp")
    assert e.value.message == "expected end of input, found '|'"


def test_lexer_rejects_unknown_character():
    with pytest.raises(ParseError):
        parse_type("1 @ bot")


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError):
        parse_file("proc A : w:1 = w[].0\nproc A : v:1 = v[].0\n")


def test_duplicate_env_name_rejected():
    with pytest.raises(ParseError):
        parse_file("proc A : w:1, w:bot = w[].0\n")


def test_roundtrip_corpus():
    f = load_fixture("corpus.sill")
    for d in f.decls:
        printed = print_term(d.term)
        again = parse_term(printed, d.dialect)
        eq = terms.alpha_eq
        assert eq(d.term, again), d.name


def test_roundtrip_counterexample_fixture():
    f = load_fixture("with_counterexample.sill")
    d = f.decls[0]
    printed = print_term(d.term)
    assert terms.alpha_eq(d.term, parse_term(printed, "hcp"))


def test_file_roundtrip():
    f = load_fixture("corpus.sill")
    printed = print_file(f)
    again = parse_file(printed)
    assert [d.name for d in again.decls] == [d.name for d in f.decls]
    for d1, d2 in zip(f.decls, again.decls):
        assert d1.dialect == d2.dialect
        assert surface.print_env(d1.env) == surface.print_env(d2.env)
        eq = terms.alpha_eq
        assert eq(d1.term, d2.term)


def test_printer_renames_captured_binders():
    # substitution can move a free name under a binder of the same spelling;
    # printing must not let the reparse capture it
    from sill.names import Name
    from sill.types import ONE

    w_free = Name("w", 7001)
    binder = Name("w", 7002)
    term = cp.Cut(binder, ONE, cp.Halt(binder), cp.Wait(binder, cp.Halt(w_free)))
    printed = print_term(term)
    again = parse_term(printed, "cp")
    assert terms.alpha_eq(term, again)
    assert "w1" in printed  # the binder got a fresh spelling, the free name kept its own


def test_comments_and_whitespace():
    f = parse_file("-- a comment\nproc A : w:1 = w[].0  -- trailing\n\n")
    assert f.decls[0].name == "A"


def test_print_env_and_partition():
    f = load_fixture("unit_cut.sill")
    d = f.decls[0]
    assert surface.print_env(d.env) == "w:1"
    assert surface.print_hyper_env([d.env, d.env]) == "w:1 | w:1"
    assert surface.print_hyper_env([]) == "·"


# -- the printer's name choice against the rule it implements ------------------


def _reference_names(t) -> dict[Name, str]:
    """Rename a binder b iff some f in free_names(body) has b's surface and
    f != b, picking spellings in pre-order: a plain recursion over the terms."""
    fv = cp.free_names if isinstance(t, cp.CpTerm) else hcp.free_names
    taken: set[str] = set()
    scopes: list[tuple[Name, list]] = []

    def walk(t):
        for n in (getattr(t, "x", None), getattr(t, "y", None)):
            if isinstance(n, Name):
                taken.add(n.surface)
        match t:
            case cp.Cut(b, _, p, q):
                scopes.append((b, [p, q]))
            case cp.Send(_, b, p, _) | cp.Recv(_, b, p) | hcp.New(b, _, p) | hcp.BoundOut(_, b, p) | hcp.In(_, b, p):
                scopes.append((b, [p]))
        for f in ("left", "right", "body", "payload", "cont"):
            if hasattr(t, f):
                walk(getattr(t, f))

    def pick(surface: str) -> str:
        if surface not in taken:
            return surface
        i = 1
        while f"{surface}{i}" in taken:
            i += 1
        return f"{surface}{i}"

    walk(t)
    out: dict[Name, str] = {}
    for b, bodies in scopes:
        if b not in out and any(f.surface == b.surface and f != b for body in bodies for f in fv(body)):
            out[b] = pick(b.surface)
            taken.add(out[b])
    return out


@pytest.mark.parametrize("gen", [harness.gen_cp, harness.gen_hcp], ids=["cp", "hcp"])
def test_print_names_agree_with_reference_on_samples(gen):
    cfg = harness.GenConfig(seed=5, count=60)
    for i in range(60):
        term = gen(cfg, i)[0]
        # two copies share every binder
        twice = cp.Case(Name("s", 0), term, term) if isinstance(term, cp.CpTerm) else hcp.Par(term, term)
        for t in (term, twice):
            assert surface._print_names(t) == _reference_names(t)
            dialect, eq = ("cp", terms.alpha_eq) if isinstance(t, cp.CpTerm) else ("hcp", terms.alpha_eq)
            assert eq(t, parse_term(print_term(t), dialect))


_CP_TERMS, _HCP_TERMS = clash_heavy_terms()


@settings(max_examples=400, deadline=None)
@given(st.one_of(_CP_TERMS, _HCP_TERMS))
def test_print_names_agree_with_reference_on_clash_heavy_terms(t):
    # two spellings and three uids: clashes, shadowing and rebinding are common
    assert surface._print_names(t) == _reference_names(t)


def test_every_term_class_has_one_form_naming_each_field_once():
    classes = [cls for classes, _ in surface._FORM_PIECES for cls in classes]
    assert len(classes) == len(set(classes)) and set(classes) == set(terms.SCHEMA)
    for classes, pieces in surface._FORM_PIECES:
        for cls in classes:
            # in constructor order, as the reader builds each node from its fields as read
            assert [p for p in pieces if p in terms.SCHEMA[cls].args] == list(terms.SCHEMA[cls].args), cls


def _deep_inputs(n: int) -> dict[str, str]:
    """Files holding one term nested n deep (chains) or n wide (the mix)."""
    units = [f"new c{i}:1. (c{i}[].0 | c{i}().o{i}[].0)" for i in range(1, n + 1)]
    return {
        "cp chain": "proc M : w:1 = " + "".join(f"new x{i}:1 (x{i}[].0 | x{i}()." for i in range(1, n + 1))
        + "w[].0" + ")" * n,
        "hcp chain": "hproc M : w:1 = " + "".join(f"new x{i}:1. (x{i}[].0 | x{i}()." for i in range(1, n + 1))
        + "w[].0" + ")" * n,
        "waits": "hproc M : w:1, " + ", ".join(f"x{i}:bot" for i in range(1, n + 1)) + " = "
        + "".join(f"x{i}()." for i in range(1, n + 1)) + "w[].0",
        "mix": "hproc M : " + ", ".join(f"o{i}:1" for i in range(1, n + 1)) + " = "
        + "".join(f"({u} | " for u in units[:-1]) + units[-1] + ")" * (n - 1),
    }


@pytest.mark.parametrize("shape", ["cp chain", "hcp chain", "waits", "mix"])
def test_deep_and_wide_inputs_parse_without_recursion(shape):
    n = 5000
    assert sys.getrecursionlimit() < n
    src = _deep_inputs(n)[shape]
    d = parse_file(src).decls[0]
    assert print_term(d.term) == src.split(" = ", 1)[1]


def test_deep_chains_print_without_recursion():
    n = 5000
    x, w = Name("x", 1), Name("w", 2)
    chains = [(cp.Halt(x), lambda i, t: cp.Recv(x, Name("y", 10 + i), t), "x(y)."),
              (cp.Halt(x), lambda i, t: cp.Wait(x, t), "x()."),
              (hcp.Inert(), lambda i, t: hcp.New(Name("x", 10 + i), ONE, t), "new x:1. "),
              (hcp.OutUnit(w, hcp.Inert()), lambda i, t: hcp.InUnit(x, t), "x().")]
    for leaf, wrap, prefix in chains:
        t = leaf
        for i in range(n):
            t = wrap(i, t)
        assert print_term(t) == prefix * n + print_term(leaf)


# -- printing many terms at once ----------------------------------------------


def _derivation_terms(d) -> list:
    out, stack = [], [d]
    while stack:
        d = stack.pop()
        out.append(d.term)
        stack += reversed(d.premises)
    return out


def _assert_prints_alike(ts):
    assert surface.print_terms(ts) == [print_term(t) for t in ts]


@pytest.mark.parametrize("gen", [harness.gen_cp, harness.gen_hcp], ids=["cp", "hcp"])
def test_print_terms_matches_print_term_on_derivations_and_traces(gen):
    cfg = harness.GenConfig(seed=7, count=80)
    for i in range(80):
        term, _, d = gen(cfg, i)
        _assert_prints_alike(_derivation_terms(d))
        trace = reduction.reduce(term)
        _assert_prints_alike([*(st.term for st in trace.steps), trace.final])


@settings(max_examples=300, deadline=None)
@given(st.one_of(_CP_TERMS, _HCP_TERMS), st.one_of(_CP_TERMS, _HCP_TERMS))
def test_print_terms_matches_print_term_on_clash_heavy_terms(t, u):
    # t's subterm objects, then roots that hold t under a clash-prone binder
    wrap = (lambda b, p: cp.Cut(b, ONE, p, p)) if isinstance(t, cp.CpTerm) else (lambda b, p: hcp.New(b, ONE, p))
    held = [wrap(Name(s, k), t) for s in "ab" for k in (1, 2, 3)]
    _assert_prints_alike([*subterms(t), *held, u, t])
    _assert_prints_alike([*held, *subterms(t)])


def test_print_terms_does_not_slice_into_a_renaming_root():
    x, y = Name("x", 1), Name("y", 2)
    inner = cp.Wait(x, cp.Halt(y))  # clash-free alone
    # the binder x sees a distinct free x, so it and its use inside `inner` print as x1
    clash = cp.Cut(x, ONE, inner, cp.Halt(Name("x", 9)))
    assert surface.print_terms([inner, clash, inner]) == [
        "x().y[].0", "new x1:1 (x1().y[].0 | x[].0)", "x().y[].0"]


def test_print_terms_deep_chain_without_recursion():
    n = 5000
    x = Name("x", 1)
    t = cp.Halt(x)
    for i in range(n):
        t = cp.Recv(x, Name("y", 10 + i), t)
    mid = t
    for _ in range(n // 2):
        mid = mid.body
    whole, half = "x(y)." * n + "x[].0", "x(y)." * (n // 2) + "x[].0"
    assert surface.print_terms([t, mid, cp.Wait(x, t), mid, t]) == [whole, half, "x()." + whole, half, whole]


def _unit_chain(n: int) -> str:
    body = "w[].0"
    for i in range(n, 0, -1):
        body = f"new x{i}:1 (x{i}[].0 | x{i}().{body})"
    return f"proc Main : w:1 = {body}\n"


@pytest.mark.parametrize("n", [25, 200])
def test_rendering_walks_names_once_per_new_root(monkeypatch, n):
    walks = []
    real = surface._print_names
    monkeypatch.setattr(surface, "_print_names", lambda t, memo=None: walks.append(t) or real(t, memo))
    d = parse_file(_unit_chain(n)).decls[0]
    typecheck.render_derivation(typecheck.check_cp(d.term, d.env))
    assert len(walks) == 1
    trace = reduction.reduce(d.term)
    walks.clear()
    reduction.render_trace(trace)
    assert len(walks) <= n + 1


class _CountingScoping(dict):
    """`surface._SCOPING`, counting its lookups: one per node a name walk visits."""

    visits = 0

    def get(self, cls, default=None):
        self.visits += 1
        return super().get(cls, default)


def test_trace_name_walks_visit_linearly_many_nodes(monkeypatch):
    n = 200
    d = parse_file(_unit_chain(n)).decls[0]
    trace = reduction.reduce(d.term)
    for st_ in trace.steps:
        st_.term  # build every reduct first
    counting = _CountingScoping(surface._SCOPING)
    monkeypatch.setattr(surface, "_SCOPING", counting)
    text = reduction.render_trace(trace)
    # the first root is walked whole (3n + 1 nodes); every later reduct
    # visits its few new nodes and the shared chain below them, not entered
    assert counting.visits <= 8 * n
    monkeypatch.undo()
    assert text == reduction.render_trace(trace)


def test_print_terms_walks_again_when_a_skipped_node_holds_a_clash():
    x, z, y = Name("x", 9), Name("z", 3), Name("x1", 5)
    # a branching node with a free x and a bound x1, keeping its free-name set
    shared = cp.Case(z, cp.Halt(x), cp.Recv(z, y, cp.Halt(y)))
    assert cp.free_names(shared) == {x, z}
    # a new binder x whose scope holds the shared node's free x: it must be
    # renamed, and past the x1 bound inside the shared node
    root = cp.Cut(Name("x", 1), ONE, shared, cp.Halt(Name("x", 1)))
    ts = [shared, root, shared]
    assert surface.print_terms(ts) == [print_term(t) for t in ts]
    assert surface.print_terms(ts)[1] == "new x2:1 (z?{inl: x[].0; inr: z(x1).x1[].0} | x2[].0)"
