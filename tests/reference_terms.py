"""The per-dialect term traversals as they were before `sill.terms` held one
copy of each, kept for differential tests (tests/test_terms_reference.py).

Each function is the old `cp.<name>` or `hcp.<name>`, renamed `cp_<name>` or
`hcp_<name>`, with its constructor patterns qualified by module.  The free
name sets and clean marks they keep on terms are stored under their own
attributes (`_ref_fv`, `_ref_clean`), so the old and the new walkers never
read each other's.
"""
from __future__ import annotations

from sill import cp, hcp
from sill.names import Name, ensure_above, fresh
from sill.terms import union

# the old walkers kept a two-subterm node's set only while it held at most
# this many names
KEEP_FREE_NAMES_UP_TO = 8


# -- CP ----------------------------------------------------------------------
def cp_free_names(t: CpTerm) -> frozenset[Name]:
    """The names occurring free in t, as an immutable set that callers may
    share.  A node with two subterms computes its set once and keeps it
    (unless it exceeds KEEP_FREE_NAMES_UP_TO names); any other node derives
    its set from its subterm's on each call."""
    fv = getattr(t, "_ref_fv", None)
    if fv is not None:
        return fv
    match t:
        case cp.Link(x, y):
            return frozenset((x, y))
        case cp.Halt(x) | cp.Absurd(x):
            return frozenset((x,))
        case cp.Recv(x, y, p):
            return (cp_free_names(p) - {y}) | {x}
        case cp.Wait(x, p) | cp.Inl(x, p) | cp.Inr(x, p):
            return cp_free_names(p) | {x}
        case cp.Cut(x, _, p, q):
            fv = (cp_free_names(p) | cp_free_names(q)) - {x}
        case cp.Send(x, y, p, q):
            fv = union(cp_free_names(p) - {y}, cp_free_names(q) | {x})
        case cp.Case(x, p, q):
            fv = union(cp_free_names(p) | {x}, cp_free_names(q))
        case _:
            raise TypeError(f"not a cp term: {t!r}")
    if len(fv) <= KEEP_FREE_NAMES_UP_TO:
        object.__setattr__(t, "_ref_fv", fv)
    return fv


def cp_sub_name(n: Name, w: Name, x: Name) -> Name:
    return w if n == x else n


def cp_substitute(t: CpTerm, w: Name, x: Name) -> CpTerm:
    """Replace every free occurrence of x by w, renaming binders equal to w."""
    if w == x:
        return t

    def go(t: CpTerm) -> CpTerm:
        match t:
            case cp.Link(a, b):
                return cp.Link(cp_sub_name(a, w, x), cp_sub_name(b, w, x))
            case cp.Cut(y, ty, p, q):
                if y == x:
                    return t
                if y == w:
                    y2 = fresh(y.surface)
                    p, q = cp_substitute(p, y2, y), cp_substitute(q, y2, y)
                    y = y2
                return cp.Cut(y, ty, go(p), go(q))
            case cp.Send(a, y, p, q):
                a = cp_sub_name(a, w, x)
                if y == w:
                    y2 = fresh(y.surface)
                    p, y = cp_substitute(p, y2, y), y2
                if y != x:
                    p = go(p)
                return cp.Send(a, y, p, go(q))
            case cp.Recv(a, y, p):
                a = cp_sub_name(a, w, x)
                if y == w:
                    y2 = fresh(y.surface)
                    p, y = cp_substitute(p, y2, y), y2
                if y != x:
                    p = go(p)
                return cp.Recv(a, y, p)
            case cp.Halt(a):
                return cp.Halt(cp_sub_name(a, w, x))
            case cp.Absurd(a):
                return cp.Absurd(cp_sub_name(a, w, x))
            case cp.Wait(a, p):
                return cp.Wait(cp_sub_name(a, w, x), go(p))
            case cp.Inl(a, p):
                return cp.Inl(cp_sub_name(a, w, x), go(p))
            case cp.Inr(a, p):
                return cp.Inr(cp_sub_name(a, w, x), go(p))
            case cp.Case(a, p, q):
                return cp.Case(cp_sub_name(a, w, x), go(p), go(q))
        raise TypeError(f"not a cp term: {t!r}")

    return go(t)


def cp_alpha_eq(t1: CpTerm, t2: CpTerm) -> bool:
    """Alpha equivalence; free names must agree on surface spelling."""

    def names_eq(a: Name, b: Name, l2r: dict, r2l: dict) -> bool:
        if a in l2r:
            return l2r[a] == b and r2l.get(b) == a
        if b in r2l:
            return False
        return a.surface == b.surface

    def go(t1, t2, l2r, r2l) -> bool:
        if type(t1) is not type(t2):
            return False
        ne = lambda a, b: names_eq(a, b, l2r, r2l)
        match t1, t2:
            case cp.Link(a, b), cp.Link(c, d):
                return ne(a, c) and ne(b, d)
            case cp.Cut(x1, ty1, p1, q1), cp.Cut(x2, ty2, p2, q2):
                if ty1 != ty2:
                    return False
                l, r = l2r | {x1: x2}, r2l | {x2: x1}
                return go(p1, p2, l, r) and go(q1, q2, l, r)
            case cp.Send(x1, y1, p1, q1), cp.Send(x2, y2, p2, q2):
                l, r = l2r | {y1: y2}, r2l | {y2: y1}
                return ne(x1, x2) and go(p1, p2, l, r) and go(q1, q2, l2r, r2l)
            case cp.Recv(x1, y1, p1), cp.Recv(x2, y2, p2):
                l, r = l2r | {y1: y2}, r2l | {y2: y1}
                return ne(x1, x2) and go(p1, p2, l, r)
            case (cp.Halt(a), cp.Halt(b)) | (cp.Absurd(a), cp.Absurd(b)):
                return ne(a, b)
            case (cp.Wait(a, p1), cp.Wait(b, p2)) | (cp.Inl(a, p1), cp.Inl(b, p2)) | (cp.Inr(a, p1), cp.Inr(b, p2)):
                return ne(a, b) and go(p1, p2, l2r, r2l)
            case cp.Case(a, p1, q1), cp.Case(b, p2, q2):
                return ne(a, b) and go(p1, p2, l2r, r2l) and go(q1, q2, l2r, r2l)
        return False

    return go(t1, t2, {}, {})


def cp_alpha_key(t: CpTerm):
    """Hashable key identical for alpha-equivalent terms (canonical binder indices)."""
    from sill.types import render

    def nk(n: Name, env: dict):
        return ("b", env[n]) if n in env else ("f", n.surface)

    def go(t, env, depth):
        match t:
            case cp.Link(x, y):
                return ("link", nk(x, env), nk(y, env))
            case cp.Cut(x, ty, p, q):
                e = env | {x: depth}
                return ("cut", render(ty), go(p, e, depth + 1), go(q, e, depth + 1))
            case cp.Send(x, y, p, q):
                e = env | {y: depth}
                return ("send", nk(x, env), go(p, e, depth + 1), go(q, env, depth + 1))
            case cp.Recv(x, y, p):
                e = env | {y: depth}
                return ("recv", nk(x, env), go(p, e, depth + 1))
            case cp.Halt(x):
                return ("halt", nk(x, env))
            case cp.Wait(x, p):
                return ("wait", nk(x, env), go(p, env, depth))
            case cp.Inl(x, p):
                return ("inl", nk(x, env), go(p, env, depth))
            case cp.Inr(x, p):
                return ("inr", nk(x, env), go(p, env, depth))
            case cp.Case(x, p, q):
                return ("case", nk(x, env), go(p, env, depth), go(q, env, depth))
            case cp.Absurd(x):
                return ("absurd", nk(x, env))
        raise TypeError(f"not a cp term: {t!r}")

    return go(t, {}, 0)


def cp_binders(t: CpTerm) -> list[Name]:
    """Every binder of t, in pre-order."""
    out: list[Name] = []
    stack = [t]
    while stack:
        match stack.pop():
            case cp.Cut(x, _, p, q) | cp.Send(_, x, p, q):
                out.append(x)
                stack += (q, p)
            case cp.Recv(_, y, p):
                out.append(y)
                stack.append(p)
            case cp.Wait(_, p) | cp.Inl(_, p) | cp.Inr(_, p):
                stack.append(p)
            case cp.Case(_, p, q):
                stack += (q, p)
    return out


def cp_freshen_if_needed(t: CpTerm) -> CpTerm:
    """Rename binders so all binders are distinct and disjoint from free names.

    Stable: renaming draws uids just above the largest uid in the term, so
    repeated calls on the same term give the same result.

    A term found clean is marked as such, so asking again costs nothing.
    """
    if getattr(t, "_ref_clean", False):
        return t
    bs = cp_binders(t)
    fv = cp_free_names(t)
    seen: set[Name] = set()
    clashes = set()
    for b in bs:
        if b in seen or b in fv:
            clashes.add(b)
        seen.add(b)
    if not clashes:
        object.__setattr__(t, "_ref_clean", True)
        return t
    top = max(n.uid for n in (set(bs) | fv))
    counter = [top]

    def fresh_local(surface: str) -> Name:
        counter[0] += 1
        return Name(surface, counter[0])

    def go(t, seen: set[Name]):
        match t:
            case cp.Cut(x, ty, p, q):
                if x in seen or x in fv:
                    x2 = fresh_local(x.surface)
                    p, q = cp_substitute(p, x2, x), cp_substitute(q, x2, x)
                    x = x2
                seen.add(x)
                return cp.Cut(x, ty, go(p, seen), go(q, seen))
            case cp.Send(a, y, p, q):
                if y in seen or y in fv:
                    y2 = fresh_local(y.surface)
                    p, y = cp_substitute(p, y2, y), y2
                seen.add(y)
                return cp.Send(a, y, go(p, seen), go(q, seen))
            case cp.Recv(a, y, p):
                if y in seen or y in fv:
                    y2 = fresh_local(y.surface)
                    p, y = cp_substitute(p, y2, y), y2
                seen.add(y)
                return cp.Recv(a, y, go(p, seen))
            case cp.Wait(a, p):
                return cp.Wait(a, go(p, seen))
            case cp.Inl(a, p):
                return cp.Inl(a, go(p, seen))
            case cp.Inr(a, p):
                return cp.Inr(a, go(p, seen))
            case cp.Case(a, p, q):
                return cp.Case(a, go(p, seen), go(q, seen))
            case _:
                return t

    out = go(t, set())
    ensure_above(counter[0])
    return out


# -- HCP ---------------------------------------------------------------------
def hcp_free_names(t: HcpTerm) -> frozenset[Name]:
    """The names occurring free in t, as an immutable set that callers may
    share.  A node with two subterms computes its set once and keeps it
    (unless it exceeds KEEP_FREE_NAMES_UP_TO names); any other node derives
    its set from its subterm's on each call."""
    fv = getattr(t, "_ref_fv", None)
    if fv is not None:
        return fv
    match t:
        case hcp.Link(x, y):
            return frozenset((x, y))
        case hcp.Inert():
            return frozenset()
        case hcp.New(x, _, p):
            return hcp_free_names(p) - {x}
        case hcp.BoundOut(x, y, p) | hcp.In(x, y, p):
            return (hcp_free_names(p) - {y}) | {x}
        case hcp.OutUnit(x, p) | hcp.InUnit(x, p) | hcp.Inl(x, p) | hcp.Inr(x, p):
            return hcp_free_names(p) | {x}
        case hcp.Absurd(x):
            return frozenset((x,))
        case hcp.Par(p, q):
            fv = union(hcp_free_names(p), hcp_free_names(q))
        case hcp.Case(x, p, q):
            fv = union(hcp_free_names(p) | {x}, hcp_free_names(q))
        case _:
            raise TypeError(f"not an hcp term: {t!r}")
    if len(fv) <= KEEP_FREE_NAMES_UP_TO:
        object.__setattr__(t, "_ref_fv", fv)
    return fv


def hcp_sub_name(n: Name, w: Name, x: Name) -> Name:
    return w if n == x else n


def hcp_substitute(t: HcpTerm, w: Name, x: Name) -> HcpTerm:
    """Replace every free occurrence of x by w, renaming binders equal to w."""
    if w == x:
        return t

    def go(t: HcpTerm) -> HcpTerm:
        match t:
            case hcp.Link(a, b):
                return hcp.Link(hcp_sub_name(a, w, x), hcp_sub_name(b, w, x))
            case hcp.Inert():
                return t
            case hcp.New(y, ty, p):
                if y == x:
                    return t
                if y == w:
                    y2 = fresh(y.surface)
                    p, y = hcp_substitute(p, y2, y), y2
                return hcp.New(y, ty, go(p))
            case hcp.Par(p, q):
                return hcp.Par(go(p), go(q))
            case hcp.BoundOut(a, y, p):
                a = hcp_sub_name(a, w, x)
                if y == w:
                    y2 = fresh(y.surface)
                    p, y = hcp_substitute(p, y2, y), y2
                if y != x:
                    p = go(p)
                return hcp.BoundOut(a, y, p)
            case hcp.In(a, y, p):
                a = hcp_sub_name(a, w, x)
                if y == w:
                    y2 = fresh(y.surface)
                    p, y = hcp_substitute(p, y2, y), y2
                if y != x:
                    p = go(p)
                return hcp.In(a, y, p)
            case hcp.OutUnit(a, p):
                return hcp.OutUnit(hcp_sub_name(a, w, x), go(p))
            case hcp.InUnit(a, p):
                return hcp.InUnit(hcp_sub_name(a, w, x), go(p))
            case hcp.Inl(a, p):
                return hcp.Inl(hcp_sub_name(a, w, x), go(p))
            case hcp.Inr(a, p):
                return hcp.Inr(hcp_sub_name(a, w, x), go(p))
            case hcp.Case(a, p, q):
                return hcp.Case(hcp_sub_name(a, w, x), go(p), go(q))
            case hcp.Absurd(a):
                return hcp.Absurd(hcp_sub_name(a, w, x))
        raise TypeError(f"not an hcp term: {t!r}")

    return go(t)


def hcp_alpha_eq(t1: HcpTerm, t2: HcpTerm) -> bool:
    """Alpha equivalence; free names must agree on surface spelling."""

    def names_eq(a: Name, b: Name, l2r: dict, r2l: dict) -> bool:
        if a in l2r:
            return l2r[a] == b and r2l.get(b) == a
        if b in r2l:
            return False
        return a.surface == b.surface

    def go(t1, t2, l2r, r2l) -> bool:
        if type(t1) is not type(t2):
            return False
        ne = lambda a, b: names_eq(a, b, l2r, r2l)
        match t1, t2:
            case hcp.Link(a, b), hcp.Link(c, d):
                return ne(a, c) and ne(b, d)
            case hcp.Inert(), hcp.Inert():
                return True
            case hcp.New(x1, ty1, p1), hcp.New(x2, ty2, p2):
                if ty1 != ty2:
                    return False
                return go(p1, p2, l2r | {x1: x2}, r2l | {x2: x1})
            case hcp.Par(p1, q1), hcp.Par(p2, q2):
                return go(p1, p2, l2r, r2l) and go(q1, q2, l2r, r2l)
            case (hcp.BoundOut(x1, y1, p1), hcp.BoundOut(x2, y2, p2)) | (hcp.In(x1, y1, p1), hcp.In(x2, y2, p2)):
                if not ne(x1, x2):
                    return False
                return go(p1, p2, l2r | {y1: y2}, r2l | {y2: y1})
            case (hcp.OutUnit(a, p1), hcp.OutUnit(b, p2)) | (hcp.InUnit(a, p1), hcp.InUnit(b, p2)) | \
                 (hcp.Inl(a, p1), hcp.Inl(b, p2)) | (hcp.Inr(a, p1), hcp.Inr(b, p2)):
                return ne(a, b) and go(p1, p2, l2r, r2l)
            case hcp.Case(a, p1, q1), hcp.Case(b, p2, q2):
                return ne(a, b) and go(p1, p2, l2r, r2l) and go(q1, q2, l2r, r2l)
            case hcp.Absurd(a), hcp.Absurd(b):
                return ne(a, b)
        return False

    return go(t1, t2, {}, {})


def hcp_alpha_key(t: HcpTerm):
    """Hashable key identical for alpha-equivalent terms."""
    from sill.types import render

    def nk(n: Name, env: dict):
        return ("b", env[n]) if n in env else ("f", n.surface)

    def go(t, env, depth):
        match t:
            case hcp.Link(x, y):
                return ("link", nk(x, env), nk(y, env))
            case hcp.Inert():
                return ("inert",)
            case hcp.New(x, ty, p):
                return ("new", render(ty), go(p, env | {x: depth}, depth + 1))
            case hcp.Par(p, q):
                return ("par", go(p, env, depth), go(q, env, depth))
            case hcp.BoundOut(x, y, p):
                return ("bout", nk(x, env), go(p, env | {y: depth}, depth + 1))
            case hcp.In(x, y, p):
                return ("in", nk(x, env), go(p, env | {y: depth}, depth + 1))
            case hcp.OutUnit(x, p):
                return ("outu", nk(x, env), go(p, env, depth))
            case hcp.InUnit(x, p):
                return ("inu", nk(x, env), go(p, env, depth))
            case hcp.Inl(x, p):
                return ("inl", nk(x, env), go(p, env, depth))
            case hcp.Inr(x, p):
                return ("inr", nk(x, env), go(p, env, depth))
            case hcp.Case(x, p, q):
                return ("case", nk(x, env), go(p, env, depth), go(q, env, depth))
            case hcp.Absurd(x):
                return ("absurd", nk(x, env))
        raise TypeError(f"not an hcp term: {t!r}")

    return go(t, {}, 0)


def hcp_binders(t: HcpTerm) -> list[Name]:
    """Every binder of t, in pre-order."""
    out: list[Name] = []
    stack = [t]
    while stack:
        match stack.pop():
            case hcp.New(x, _, p) | hcp.BoundOut(_, x, p) | hcp.In(_, x, p):
                out.append(x)
                stack.append(p)
            case hcp.Par(p, q) | hcp.Case(_, p, q):
                stack += (q, p)
            case hcp.OutUnit(_, p) | hcp.InUnit(_, p) | hcp.Inl(_, p) | hcp.Inr(_, p):
                stack.append(p)
    return out


def hcp_freshen_if_needed(t: HcpTerm) -> HcpTerm:
    """Rename binders so all binders are distinct and disjoint from free names.

    Stable: renaming draws uids just above the largest uid in the term.

    A term found clean is marked as such, so asking again costs nothing.
    """
    if getattr(t, "_ref_clean", False):
        return t
    bs = hcp_binders(t)
    fv = hcp_free_names(t)
    seen: set[Name] = set()
    clashes = set()
    for b in bs:
        if b in seen or b in fv:
            clashes.add(b)
        seen.add(b)
    if not clashes:
        object.__setattr__(t, "_ref_clean", True)
        return t
    top = max(n.uid for n in (set(bs) | fv))
    counter = [top]

    def fresh_local(surface: str) -> Name:
        counter[0] += 1
        return Name(surface, counter[0])

    def go(t, seen: set[Name]):
        match t:
            case hcp.New(x, ty, p):
                if x in seen or x in fv:
                    x2 = fresh_local(x.surface)
                    p, x = hcp_substitute(p, x2, x), x2
                seen.add(x)
                return hcp.New(x, ty, go(p, seen))
            case hcp.Par(p, q):
                return hcp.Par(go(p, seen), go(q, seen))
            case hcp.BoundOut(a, y, p):
                if y in seen or y in fv:
                    y2 = fresh_local(y.surface)
                    p, y = hcp_substitute(p, y2, y), y2
                seen.add(y)
                return hcp.BoundOut(a, y, go(p, seen))
            case hcp.In(a, y, p):
                if y in seen or y in fv:
                    y2 = fresh_local(y.surface)
                    p, y = hcp_substitute(p, y2, y), y2
                seen.add(y)
                return hcp.In(a, y, go(p, seen))
            case hcp.OutUnit(a, p):
                return hcp.OutUnit(a, go(p, seen))
            case hcp.InUnit(a, p):
                return hcp.InUnit(a, go(p, seen))
            case hcp.Inl(a, p):
                return hcp.Inl(a, go(p, seen))
            case hcp.Inr(a, p):
                return hcp.Inr(a, go(p, seen))
            case hcp.Case(a, p, q):
                return hcp.Case(a, go(p, seen), go(q, seen))
            case _:
                return t

    out = go(t, set())
    ensure_above(counter[0])
    return out
