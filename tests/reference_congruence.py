"""The structural-congruence matcher as it was before `congruence.match`
searched with one explicit stack, kept verbatim as the reference for the
differential tests in `test_congruence_key.py`: `match`, the name bijection
`_Bijection` with its undo trail, `_match_level` with its per-level
`pairings` generator, and `_binders_match`.  It reads the levels that
`congruence.levels` builds, including their lazily built `groups`."""
from __future__ import annotations

from sill import congruence, cp
from sill.congruence import _Level
from sill.names import Name


def match(l1: _Level, l2: _Level) -> bool:
    """Whether the terms whose `levels` these are, of one dialect, are
    structurally congruent."""
    if l1.key != l2.key:
        return False
    for _ in _match_level(l1, l2, _Bijection()):
        return True
    return False


def equiv(t1, t2) -> bool:
    """Decide structural congruence.  Free names must agree by surface."""
    c1, c2 = isinstance(t1, cp.CpTerm), isinstance(t2, cp.CpTerm)
    if c1 != c2:
        raise ValueError("cannot compare terms of different dialects")
    return match(congruence.levels(t1), congruence.levels(t2))


class _Bijection:
    """The name correspondence built while matching two freshened terms: one
    dict pair, and a trail of the pairs made, so backtracking can undo them.
    It pairs only names at positions with equal certificates, so paired names
    carry equal labels: free names have the same surface, and two paired
    restrictions the same type at each endpoint (CP) or the same class (HCP)."""

    __slots__ = ("l2r", "r2l", "trail")

    def __init__(self):
        self.l2r: dict[Name, Name] = {}
        self.r2l: dict[Name, Name] = {}
        self.trail: list[tuple[Name, Name]] = []

    def pair(self, n1: Name, n2: Name) -> bool:
        """Pair n1 with n2, unless either is paired with another name."""
        m = self.l2r.get(n1)
        if m is not None:
            return m == n2
        if n2 in self.r2l:
            return False
        self.l2r[n1] = n2
        self.r2l[n2] = n1
        self.trail.append((n1, n2))
        return True

    def undo(self, mark: int) -> None:
        """Take back every pair made since the trail was mark long."""
        trail = self.trail
        while len(trail) > mark:
            n1, n2 = trail.pop()
            del self.l2r[n1], self.r2l[n2]


_DONE = object()


def _match_level(l1: _Level, l2: _Level, bij: _Bijection):
    """Yield once per extension of bij under which two levels with equal keys
    match: each component of l1 paired with one of l2 with the same
    certificate, then the restrictions checked.  The extension holds while
    the generator is suspended and is undone when it resumes."""
    n = len(l1.certs)
    if l2.groups is None:
        l2.groups = {}
        for j, c in enumerate(l2.certs):
            l2.groups.setdefault(c, []).append(j)
    used = [False] * n

    def pairings(i: int):
        """Yield once per way of matching component i with a free one of l2:
        its names in order (a link's also swapped when its two labels are
        equal), then its subterms.  A prefix binder's name is fresh, so
        pairing it binds it."""
        cert, names1, subs1 = l1.certs[i], l1.names[i], l1.children[i]
        swap = cert[0] == "Link" and cert[1] == cert[2]
        mark = len(bij.trail)
        for j in l2.groups[cert]:
            if used[j]:
                continue
            used[j] = True
            names2, subs2 = l2.names[j], l2.children[j]
            for order in (names2, names2[::-1]) if swap else (names2,):
                if all(map(bij.pair, names1, order)):
                    if not subs1:
                        yield
                    elif len(subs1) == 1:
                        yield from _match_level(subs1[0], subs2[0], bij)
                    else:  # Send and Case: the first subterm, then the second
                        for _ in _match_level(subs1[0], subs2[0], bij):
                            yield from _match_level(subs1[1], subs2[1], bij)
                bij.undo(mark)
            used[j] = False

    if n == 0:
        if _binders_match(l1, l2, bij):
            yield
        return
    # one suspended generator per component paired so far, so that a level's
    # width costs no recursion
    stack = [pairings(0)]
    while stack:
        if next(stack[-1], _DONE) is _DONE:
            stack.pop()
        elif len(stack) == n:
            if _binders_match(l1, l2, bij):
                yield
        else:
            stack.append(pairings(len(stack)))


def _binders_match(l1: _Level, l2: _Level, bij: _Bijection) -> bool:
    """Whether every restriction of either level that bij pairs is paired
    with a restriction of the other.  Paired names carry equal labels, so
    two paired cuts join corresponding components with the same endpoint
    types; the unpaired restrictions, which occur nowhere, have equal
    classes because the keys are equal."""
    if not l1.binders:  # equal keys: l2 has none either
        return True
    names1 = {x for x, _ in l1.binders}
    names2 = {x for x, _ in l2.binders}
    l2r, r2l = bij.l2r, bij.r2l
    return (all(l2r[x] in names2 for x in names1 if x in l2r)
            and all(r2l[x] in names1 for x in names2 if x in r2l))
