"""perfbench's tracer wraps sill functions it names as "module.attr"; one
that sill no longer has would make `perfbench/run.py --trace 1` fail at
install.  The tracer is read as text, so it is neither imported nor changed."""
import ast
import importlib
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _traced() -> tuple:
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no TRACED")


def test_every_traced_name_resolves_in_sill():
    traced = _traced()
    assert traced
    for qual in traced:
        mod, attr = qual.split(".")
        assert callable(getattr(importlib.import_module(f"sill.{mod}"), attr, None)), qual
