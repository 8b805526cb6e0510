"""A fixed reference computation that tells how fast the machine runs now.

On a shared machine the speed of one core drifts by tens of percent within
seconds to minutes, and that drift moves every timing of a run. The worker
runs `reference()` before its first operation and after every operation,
and each operation's time is scaled by NOMINAL_S over the mean of the two
reference times around it: the time the operation would have taken on a
machine that runs the reference in exactly NOMINAL_S. Set-up is scaled by
a reference run in the same interpreter just after `import sill`.

The reference imports nothing from `sill`, so no change to the program can
move it. Like the term traversals the workloads run, it is recursion over
small tuples, sets and dicts, and string building.
"""
from __future__ import annotations

import time

NOMINAL_S = 0.005


def _build(depth: int, i: int):
    if depth == 0:
        return ("leaf", f"x{i % 11}")
    return ("node", f"y{i % 13}", _build(depth - 1, 2 * i), _build(depth - 1, 2 * i + 1))


def _free(t) -> frozenset:
    if t[0] == "leaf":
        return frozenset((t[1],))
    return (_free(t[2]) | _free(t[3])) - {t[1]}


def _rename(t, env: dict):
    if t[0] == "leaf":
        return ("leaf", env.get(t[1], t[1]))
    inner = {**env, t[1]: t[1] + "'"}
    return ("node", inner[t[1]], _rename(t[2], inner), _rename(t[3], inner))


def reference() -> float:
    """Seconds taken by one fixed, deterministic computation."""
    t0 = time.perf_counter()
    tree = _build(10, 1)
    for _ in range(2):
        _free(_rename(tree, {}))
    return time.perf_counter() - t0


def nominal(times: list[float], refs: list[float]) -> list[float]:
    """times[i] in nominal seconds, given refs[i] and refs[i + 1] around it."""
    return [t * 2 * NOMINAL_S / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]
