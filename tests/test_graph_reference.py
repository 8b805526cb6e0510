"""Reduction graphs, checked against the explorer they replaced.

`reference_reduction.reduction_graph` builds every successor's term and
levels and matches them against the nodes with its key; `reduction_graph`
steps configurations and settles most successors by what they are made of.
Both must give the same nodes (`==`), edges and terminals, or raise the
same error with the same message, and leave the name supply in the same
place; and with a cap one below the node count the new one must raise
`BudgetExceeded` too.  Inputs: every fixture declaration, HCP unit mixes of
w = 3..7 in shuffled orders, CP and HCP unit-cut chains, CP terms with many
top-level cuts, `gen_cp`/`gen_hcp` samples 0-39 at two configurations, and
the terms the shrinker builds with a ⊤ leaf, some of whose steps raise.
"""
import pathlib
from collections import Counter

import pytest

import reference_reduction as ref
from sill import harness, names, surface
from sill import reduction as rd
from test_configuration import _chain, _mix, _outcome, _top_leaf_terms

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _graph(explore, t, cap: int) -> tuple:
    g = explore(t, cap)
    return g.nodes, g.edges, g.terminals


def _same_runs(t, cap: int):
    """Both explorers from the same name supply: the graph or the error, and
    the supply afterwards."""
    start = names._counter
    want = _outcome(lambda: _graph(ref.reduction_graph, t, cap)), names._counter
    names._counter = start
    got = _outcome(lambda: _graph(rd.reduction_graph, t, cap)), names._counter
    assert got == want
    return got[0]


def _agree(t, cap: int = 10000):
    """The same graph or error; and if the graph has n > 1 nodes, with cap
    n - 1 the new explorer raises `BudgetExceeded` too, as the reference
    must on building its n-th node.  Returns the graph (nodes, edges,
    terminals) or None, and None or the error's class name and message."""
    g, error = _same_runs(t, cap)
    if g is not None and len(g[0]) > 1:
        with pytest.raises(rd.BudgetExceeded, match=f"exceeded {len(g[0]) - 1} nodes"):
            rd.reduction_graph(t, len(g[0]) - 1)
    return g, error


def test_fixture_declarations_agree():
    checked = 0
    for path in sorted(FIXTURES.glob("*.sill")):
        for d in surface.parse_file(path.read_text(encoding="utf-8"), filename=str(path)).decls:
            _agree(d.term)
            checked += 1
    assert checked >= 10


def _many_cuts(n: int) -> str:
    body = "".join(f"x{i}()." for i in range(1, n + 1)) + "w[].0"
    for i in range(n, 0, -1):
        body = f"new x{i}:1 (x{i}[].0 | {body})"
    return body


SHAPES = ([("hcp", _mix(w)) for w in range(3, 8)]
          + [(d, _chain(n, d == "hcp")) for d in ("cp", "hcp") for n in (1, 10, 50)]
          + [("cp", _many_cuts(n)) for n in (2, 10, 25)])


@pytest.mark.parametrize("dialect,src", SHAPES, ids=[f"{d}-{len(s)}" for d, s in SHAPES])
def test_mixes_chains_and_many_cuts_agree(dialect, src):
    assert _agree(surface.parse_term(src, dialect))[1] is None


@pytest.mark.parametrize("cfg", [harness.GenConfig(seed=42), harness.GenConfig(7, max_depth=3)],
                         ids=["seed42", "seed7-depth3"])
@pytest.mark.parametrize("gen", [harness.gen_cp, harness.gen_hcp], ids=["cp", "hcp"])
def test_generated_samples_agree(gen, cfg):
    outcomes = [_agree(gen(cfg, i)[0], cap=200) for i in range(40)]
    assert any(g is not None and len(g[0]) > 20 for g, _ in outcomes)


def test_top_leaf_terms_agree():
    # at cap 20: some of these graphs take seconds per hundred nodes
    corpus = _top_leaf_terms()
    raised = Counter(error[0] for _, error in (_agree(t, cap=20) for t in corpus) if error)
    assert len(corpus) == 232 and raised == {"BudgetExceeded": 77, "CongruenceError": 25, "ReductionError": 4}

