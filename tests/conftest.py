import pathlib

import pytest

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir():
    return FIXTURES


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


def load_fixture(name: str):
    from sill import surface

    path = FIXTURES / name
    return surface.parse_file(path.read_text(), filename=str(path))


def print_file(f) -> str:
    """The text of a `surface.SessionFile`: one `proc` or `hproc` line per
    declaration, which `surface.parse_file` reads back."""
    from sill import surface

    lines = []
    for d in f.decls:
        kw = "proc" if d.dialect == "cp" else "hproc"
        head = f"{kw} {d.name} :"
        if d.env:
            head += f" {surface.print_env(d.env)}"
        lines.append(f"{head} = {surface.print_term(d.term)}")
    return "\n".join(lines) + "\n"


def subterms(t):
    """Every subterm object of t, t first."""
    from sill.terms import SCHEMA

    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack += [getattr(node, f) for f in SCHEMA[type(node)].subterms]


def clash_heavy_terms():
    """Hypothesis strategies (CP, HCP) for terms over two spellings and three
    uids, so that clashes, shadowing and rebinding are common."""
    from hypothesis import strategies as st

    from sill import cp, hcp
    from sill.names import Name
    from sill.types import BOT, ONE, Tensor

    names = st.builds(Name, st.sampled_from("ab"), st.integers(1, 3))
    types = st.sampled_from([ONE, BOT, Tensor(ONE, BOT)])
    cp_terms = st.recursive(
        st.one_of(st.builds(cp.Link, names, names), st.builds(cp.Halt, names), st.builds(cp.Absurd, names)),
        lambda kids: st.one_of(
            st.builds(cp.Cut, names, types, kids, kids), st.builds(cp.Send, names, names, kids, kids),
            st.builds(cp.Recv, names, names, kids), st.builds(cp.Wait, names, kids),
            st.builds(cp.Inl, names, kids), st.builds(cp.Inr, names, kids), st.builds(cp.Case, names, kids, kids)),
        max_leaves=10)
    hcp_terms = st.recursive(
        st.one_of(st.builds(hcp.Link, names, names), st.builds(hcp.Absurd, names), st.just(hcp.Inert())),
        lambda kids: st.one_of(
            st.builds(hcp.New, names, types, kids), st.builds(hcp.Par, kids, kids),
            st.builds(hcp.BoundOut, names, names, kids), st.builds(hcp.In, names, names, kids),
            st.builds(hcp.OutUnit, names, kids), st.builds(hcp.InUnit, names, kids),
            st.builds(hcp.Inl, names, kids), st.builds(hcp.Inr, names, kids), st.builds(hcp.Case, names, kids, kids)),
        max_leaves=10)
    return cp_terms, hcp_terms
