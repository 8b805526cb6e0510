"""Per-module spans around calls into `sill`, installed from outside the package.

`Tracer.install` replaces each traced function by a wrapper on every `sill`
module that holds a reference to it (several modules use
`from .typecheck import check_cp`), and `Tracer.restore` puts the originals
back.  A span is recorded only at the outermost call of a function: while
it runs, its holders see the original again, so recursive re-entry passes
straight through and adds no stack frames.  Spans (name, start, end, parent)
stay in memory until `metrics()` folds them into per-function call counts
and self times, self time being the span's duration minus that of its
direct child spans.
"""
from __future__ import annotations

import sys
import time
from array import array

TRACED = (
    "typecheck.check_cp", "typecheck.check_hcp", "typecheck.revalidate", "typecheck.render_derivation",
    "cp.free_names", "hcp.free_names",
    "reduction.find_redexes", "reduction.step", "reduction.measure", "reduction.reduction_graph",
    "congruence.prenex_cp", "congruence.prenex_hcp", "congruence.equiv", "congruence.neighbors",
    "bridge.translate_typed", "bridge.simulate_forward", "bridge.simulate_backward",
    "bridge.disentangle", "bridge.tens_internalize", "translate.cp_to_hcp",
    "surface.parse_file", "surface.print_term", "cli.main",
    "harness.gen_cp", "harness.gen_hcp",
)

COUNTS = ("congruence.equiv.true_frac", "reduction.reduction_graph.nodes",
          "harness.provable.hits", "harness.provable.misses", "names.fresh.calls")

PACKAGE = "sill"


def metric_names() -> list[str]:
    """The per-layer metrics a traced run reports, besides the overhead."""
    return [f"{fn}.{kind}" for fn in TRACED for kind in ("calls", "self_s")] + list(COUNTS)


def _holders(fn) -> list[tuple[object, str]]:
    return [(mod, attr) for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
            for attr, value in sorted(vars(mod).items()) if value is fn]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.open: list[int] = []
        self.patches: list[tuple[object, str, object]] = []
        self.equiv_true = 0
        self.graph_nodes = 0
        self.fresh_calls = 0

    def install(self) -> None:
        for qual in TRACED:
            mod, attr = qual.split(".")
            fn = getattr(sys.modules[f"{PACKAGE}.{mod}"], attr)
            self._patch(fn, self._span_wrapper(qual, fn, _holders(fn)))
        fresh = sys.modules[f"{PACKAGE}.names"].fresh
        self._patch(fresh, self._fresh_wrapper(fresh))

    def restore(self) -> None:
        for mod, attr, fn in reversed(self.patches):
            setattr(mod, attr, fn)
        self.patches.clear()

    def _patch(self, fn, wrapper) -> None:
        for mod, attr in _holders(fn):
            self.patches.append((mod, attr, fn))
            setattr(mod, attr, wrapper)

    def _span_wrapper(self, qual: str, fn, holders):
        nid = len(self.names)
        self.names.append(qual)
        on_result = {"congruence.equiv": self._count_equiv,
                     "reduction.reduction_graph": self._count_graph}.get(qual)
        now = time.perf_counter

        def wrapper(*args, **kwargs):
            for mod, attr in holders:
                setattr(mod, attr, fn)
            span = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.open[-1] if self.open else -1)
            self.end.append(0.0)
            self.open.append(span)
            self.start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[span] = now()
                self.open.pop()
                for mod, attr in holders:
                    setattr(mod, attr, wrapper)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _fresh_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self.fresh_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_equiv(self, result) -> None:
        self.equiv_true += bool(result)

    def _count_graph(self, graph) -> None:
        self.graph_nodes += len(graph.nodes)

    def metrics(self) -> dict[str, float]:
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for span, nid in enumerate(self.name_id):
            dur = self.end[span] - self.start[span]
            calls[nid] += 1
            self_s[nid] += dur
            p = self.parent[span]
            if p >= 0:
                self_s[self.name_id[p]] -= dur
        out: dict[str, float] = {}
        for nid, qual in enumerate(self.names):
            out[f"{qual}.calls"] = calls[nid]
            out[f"{qual}.self_s"] = self_s[nid]
        equiv_calls = out["congruence.equiv.calls"]
        out["congruence.equiv.true_frac"] = self.equiv_true / equiv_calls if equiv_calls else 0.0
        out["reduction.reduction_graph.nodes"] = self.graph_nodes
        info = sys.modules[f"{PACKAGE}.harness"].provable.cache_info()
        out["harness.provable.hits"] = info.hits
        out["harness.provable.misses"] = info.misses
        out["names.fresh.calls"] = self.fresh_calls
        return out
