"""Golden reduction graphs: `graph` text and `--json`, byte for byte.

The inputs are generated here: HCP mixes of w independent unit cuts in a
shuffled order (w = 4, 5), whose graphs have 2^w nodes that differ only in
which cuts are already reduced, so telling nodes apart is all congruence
work; and a CP chain of 25 unit cuts, whose graph is a path.  The expected
output lives in tests/golden/graph/; after a deliberate change to CLI text,
rewrite it with `PYTHONPATH=src python tests/test_golden_graph.py`.
"""
import contextlib
import io
import pathlib
import random
import sys

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "graph"


def _mix(w: int) -> str:
    order = list(range(1, w + 1))
    random.Random(f"graph-golden:{w}").shuffle(order)
    parts = [f"new k{i}:1. (k{i}[].0 | k{i}().out{i}[].0)" for i in order]
    term = parts[-1]
    for p in reversed(parts[:-1]):
        term = f"({p} | {term})"
    env = ", ".join(f"out{i}:1" for i in order)
    return f"hproc Main : {env} = {term}\n"


def _chain(n: int) -> str:
    body = "w[].0"
    for i in range(n, 0, -1):
        body = f"new x{i}:1 (x{i}[].0 | x{i}().{body})"
    return f"proc Main : w:1 = {body}\n"


INPUTS = {"mix-4": _mix(4), "mix-5": _mix(5), "chain-cp-25": _chain(25)}
CASES = [(name, flags) for name in INPUTS for flags in ((), ("--json",))]


def _golden_name(name: str, flags: tuple) -> str:
    return f"{name}{'.json' if flags else ''}.txt"


def output(tmp: pathlib.Path, name: str, flags: tuple) -> str:
    from sill.cli import main

    path = tmp / f"{name}.sill"
    path.write_text(INPUTS[name], encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["graph", str(path), "--proc", "Main", *flags])
    assert code == 0
    return buf.getvalue()


@pytest.mark.parametrize("name,flags", CASES)
def test_graph_matches_golden(tmp_path, name, flags):
    expected = (GOLDEN / _golden_name(name, flags)).read_text(encoding="utf-8")
    assert output(tmp_path, name, flags) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as d:
        for name, flags in CASES:
            (GOLDEN / _golden_name(name, flags)).write_text(output(pathlib.Path(d), name, flags), encoding="utf-8")
            print(f"wrote tests/golden/graph/{_golden_name(name, flags)}", file=sys.stderr)
