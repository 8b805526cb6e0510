"""Structural congruence for CP and HCP.

Both calculi are handled through a prenex normal form: all restrictions
pulled outermost (cut spines flattened for CP, scope extrusion for HCP),
parallel structure flattened into a component multiset, inert units dropped.
Equivalence is decided by matching prenex forms: multiset matching of
components up to recursive equivalence, link symmetry, and backtracking over
binder correspondences.

Single-axiom rewriting (CP Def. 2, HCP Def. 10) is split in two: `sites`
walks the term once and lists each rewrite as a site (the path to a node,
the axiom's label and the rewritten node), and `rebuild_site` copies only the
ancestors on one site's path.  `neighbors` rebuilds every site; a bounded BFS
over it is the independent oracle for equiv.  `harness.scramble` rebuilds
only the site it draws.
"""
from __future__ import annotations

from dataclasses import dataclass, fields

from . import cp, hcp
from .names import Name
from .terms import SUBTERM_FIELDS
from .types import Type, dual


class CongruenceError(Exception):
    pass


class ClosureBudgetExceeded(CongruenceError):
    pass


@dataclass
class CpBinder:
    name: Name
    ty: Type  # type of the endpoint in comps[left]
    left: int | None  # component index holding the cut's left endpoint
    right: int | None


@dataclass
class CpPrenex:
    binders: list[CpBinder]
    comps: list[cp.CpTerm]


@dataclass
class HcpPrenex:
    binders: list[tuple[Name, Type]]
    comps: list[hcp.HcpTerm]


def prenex_cp(t: cp.CpTerm) -> CpPrenex:
    t = cp.freshen_if_needed(t)
    binders: list[CpBinder] = []
    comps: list[cp.CpTerm] = []

    def go(t) -> list[int]:
        if isinstance(t, cp.Cut):
            slot = len(binders)
            binders.append(None)  # keep outermost-first order
            li = go(t.left)
            ri = go(t.right)
            la = [i for i in li if t.x in cp.free_names(comps[i])]
            ra = [i for i in ri if t.x in cp.free_names(comps[i])]
            binders[slot] = CpBinder(
                t.x,
                t.ty,
                la[0] if len(la) == 1 else None,
                ra[0] if len(ra) == 1 else None,
            )
            return li + ri
        comps.append(t)
        return [len(comps) - 1]

    go(t)
    return CpPrenex(binders, comps)


def prenex_hcp(t: hcp.HcpTerm) -> HcpPrenex:
    t = hcp.freshen_if_needed(t)
    binders: list[tuple[Name, Type]] = []
    comps: list[hcp.HcpTerm] = []

    def go(t):
        match t:
            case hcp.New(x, a, p):
                binders.append((x, a))
                go(p)
            case hcp.Par(p, q):
                go(p)
                go(q)
            case hcp.Inert():
                pass
            case _:
                comps.append(t)

    go(t)
    return HcpPrenex(binders, comps)


def prenex(t):
    return prenex_cp(t) if isinstance(t, cp.CpTerm) else prenex_hcp(t)


def rebuild_hcp(binders: list[tuple[Name, Type]], comps: list[hcp.HcpTerm]) -> hcp.HcpTerm:
    if not comps:
        body: hcp.HcpTerm = hcp.Inert()
    else:
        body = comps[-1]
        for c in reversed(comps[:-1]):
            body = hcp.Par(c, body)
    for x, a in reversed(binders):
        body = hcp.New(x, a, body)
    return body


def rebuild_cp(binders: list[CpBinder], comps: list[cp.CpTerm]) -> cp.CpTerm:
    """Reassemble a cut spine.  Components and binders must form a tree
    (each binder connecting its two endpoint components), as any well-typed
    CP term does."""
    for b in binders:
        if b.left is None or b.right is None or b.left == b.right:
            raise CongruenceError(f"cannot rebuild: binder {b.name} lacks two endpoint components")

    def build(edges: list[CpBinder], alive: frozenset[int]) -> cp.CpTerm:
        if not edges:
            if len(alive) != 1:
                raise CongruenceError("cannot rebuild: components do not form a cut tree")
            return comps[next(iter(alive))]
        deg: dict[int, int] = {}
        for e in edges:
            deg[e.left] = deg.get(e.left, 0) + 1
            deg[e.right] = deg.get(e.right, 0) + 1
        best = None
        for e in edges:
            leaf = e.left if deg[e.left] == 1 else (e.right if deg[e.right] == 1 else None)
            if leaf is not None and (best is None or e.name.uid < best[0].name.uid):
                best = (e, leaf)
        if best is None:
            raise CongruenceError("cannot rebuild: cyclic cut structure")
        e, leaf = best
        ann = e.ty if leaf == e.left else dual(e.ty)
        rest = build([x for x in edges if x is not e], alive - {leaf})
        return cp.Cut(e.name, ann, comps[leaf], rest)

    return build(list(binders), frozenset(range(len(comps))))


# -- the decision procedure ---------------------------------------------------


def equiv(t1, t2) -> bool:
    """Decide structural congruence.  Free names must agree by surface."""
    c1, c2 = isinstance(t1, cp.CpTerm), isinstance(t2, cp.CpTerm)
    if c1 != c2:
        raise ValueError("cannot compare terms of different dialects")
    for _ in _match_terms(t1, t2, ({}, {}), frozenset(), frozenset()):
        return True
    return False


def _pair(n1: Name, n2: Name, bij, open1, open2):
    l2r, r2l = bij
    if n1 in l2r:
        return bij if l2r[n1] == n2 else None
    if n2 in r2l:
        return None
    if n1 in open1 and n2 in open2:
        return (l2r | {n1: n2}, r2l | {n2: n1})
    if n1 not in open1 and n2 not in open2:
        if n1.surface == n2.surface:
            return (l2r | {n1: n2}, r2l | {n2: n1})
    return None


def _sig(c) -> str:
    return type(c).__name__


def _match_terms(t1, t2, bij, open1, open2):
    """Yield every name bijection under which t1 ≡ t2."""
    is_cp = isinstance(t1, cp.CpTerm)
    p1 = prenex_cp(t1) if is_cp else prenex_hcp(t1)
    p2 = prenex_cp(t2) if is_cp else prenex_hcp(t2)
    if len(p1.comps) != len(p2.comps) or len(p1.binders) != len(p2.binders):
        return
    if is_cp:
        names1 = [b.name for b in p1.binders]
        names2 = [b.name for b in p2.binders]
    else:
        names1 = [b[0] for b in p1.binders]
        names2 = [b[0] for b in p2.binders]
    o1 = open1 | set(names1)
    o2 = open2 | set(names2)
    n = len(p1.comps)
    used = [False] * n
    sigma: dict[int, int] = {}

    def assign(i, bij):
        if i == n:
            yield from _check_binders(p1, p2, bij, sigma, is_cp, o1, o2)
            return
        c1 = p1.comps[i]
        s = _sig(c1)
        for j in range(n):
            if used[j] or _sig(p2.comps[j]) != s:
                continue
            used[j] = True
            sigma[i] = j
            for bij2 in _unify_comp(c1, p2.comps[j], bij, o1, o2):
                yield from assign(i + 1, bij2)
            used[j] = False
            del sigma[i]

    yield from assign(0, bij)


def _check_binders(p1, p2, bij, sigma, is_cp, o1, o2):
    l2r, r2l = bij
    if is_cp:
        by_name2 = {b.name: b for b in p2.binders}
        unmatched2 = dict(by_name2)
        deferred1 = []
        for b1 in p1.binders:
            n2 = l2r.get(b1.name)
            if n2 is None:
                deferred1.append(b1)
                continue
            b2 = by_name2.get(n2)
            if b2 is None:
                return
            unmatched2.pop(n2, None)
            if not _cp_binder_compat(b1, b2, sigma):
                return
        # binders with no occurrences anywhere: pair by type compatibility
        rest2 = [b for b in unmatched2.values() if b.name not in r2l]
        if len(deferred1) != len(rest2) or len(rest2) != len(unmatched2):
            return
        for b1 in deferred1:
            ok = None
            for k, b2 in enumerate(rest2):
                if b1.ty in (b2.ty, dual(b2.ty)):
                    ok = k
                    break
            if ok is None:
                return
            rest2.pop(ok)
        yield bij
    else:
        by_name2 = {b[0]: b for b in p2.binders}
        unmatched2 = dict(by_name2)
        deferred1 = []
        for x1, ty1 in p1.binders:
            n2 = l2r.get(x1)
            if n2 is None:
                deferred1.append((x1, ty1))
                continue
            b2 = by_name2.get(n2)
            if b2 is None:
                return
            unmatched2.pop(n2, None)
            if ty1 not in (b2[1], dual(b2[1])):
                return
        rest2 = [b for b in unmatched2.values() if b[0] not in r2l]
        if len(deferred1) != len(rest2) or len(rest2) != len(unmatched2):
            return
        for _, ty1 in deferred1:
            ok = None
            for k, (_, ty2) in enumerate(rest2):
                if ty1 in (ty2, dual(ty2)):
                    ok = k
                    break
            if ok is None:
                return
            rest2.pop(ok)
        yield bij


def _cp_binder_compat(b1: CpBinder, b2: CpBinder, sigma) -> bool:
    if b1.left is not None and b1.right is not None and b2.left is not None and b2.right is not None:
        sl = sigma.get(b1.left)
        sr = sigma.get(b1.right)
        if sl == b2.left and sr == b2.right:
            return b1.ty == b2.ty
        if sl == b2.right and sr == b2.left:
            return b1.ty == dual(b2.ty)
        return False
    return b1.ty in (b2.ty, dual(b2.ty))


def _unify_comp(c1, c2, bij, o1, o2):
    is_cp = isinstance(c1, cp.CpTerm)
    if is_cp:
        match c1, c2:
            case cp.Link(x1, y1), cp.Link(x2, y2):
                for a, b in ((x2, y2), (y2, x2)):
                    bij2 = _pair(x1, a, bij, o1, o2)
                    if bij2 is None:
                        continue
                    bij3 = _pair(y1, b, bij2, o1, o2)
                    if bij3 is not None:
                        yield bij3
                return
            case (cp.Halt(x1), cp.Halt(x2)) | (cp.Absurd(x1), cp.Absurd(x2)):
                bij2 = _pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    yield bij2
                return
            case (cp.Wait(x1, p1), cp.Wait(x2, p2)) | (cp.Inl(x1, p1), cp.Inl(x2, p2)) | (cp.Inr(x1, p1), cp.Inr(x2, p2)):
                bij2 = _pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    yield from _match_terms(p1, p2, bij2, o1, o2)
                return
            case cp.Recv(x1, y1, p1), cp.Recv(x2, y2, p2):
                bij2 = _pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    l2r, r2l = bij2
                    bij3 = (l2r | {y1: y2}, r2l | {y2: y1})
                    yield from _match_terms(p1, p2, bij3, o1, o2)
                return
            case cp.Send(x1, y1, p1, q1), cp.Send(x2, y2, p2, q2):
                bij2 = _pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    l2r, r2l = bij2
                    bij3 = (l2r | {y1: y2}, r2l | {y2: y1})
                    for bij4 in _match_terms(p1, p2, bij3, o1, o2):
                        yield from _match_terms(q1, q2, bij4, o1, o2)
                return
            case cp.Case(x1, p1, q1), cp.Case(x2, p2, q2):
                bij2 = _pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    for bij3 in _match_terms(p1, p2, bij2, o1, o2):
                        yield from _match_terms(q1, q2, bij3, o1, o2)
                return
    else:
        match c1, c2:
            case hcp.Link(x1, y1), hcp.Link(x2, y2):
                for a, b in ((x2, y2), (y2, x2)):
                    bij2 = _pair(x1, a, bij, o1, o2)
                    if bij2 is None:
                        continue
                    bij3 = _pair(y1, b, bij2, o1, o2)
                    if bij3 is not None:
                        yield bij3
                return
            case hcp.Absurd(x1), hcp.Absurd(x2):
                bij2 = _pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    yield bij2
                return
            case (hcp.OutUnit(x1, p1), hcp.OutUnit(x2, p2)) | (hcp.InUnit(x1, p1), hcp.InUnit(x2, p2)) | \
                 (hcp.Inl(x1, p1), hcp.Inl(x2, p2)) | (hcp.Inr(x1, p1), hcp.Inr(x2, p2)):
                bij2 = _pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    yield from _match_terms(p1, p2, bij2, o1, o2)
                return
            case (hcp.BoundOut(x1, y1, p1), hcp.BoundOut(x2, y2, p2)) | (hcp.In(x1, y1, p1), hcp.In(x2, y2, p2)):
                bij2 = _pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    l2r, r2l = bij2
                    bij3 = (l2r | {y1: y2}, r2l | {y2: y1})
                    yield from _match_terms(p1, p2, bij3, o1, o2)
                return
            case hcp.Case(x1, p1, q1), hcp.Case(x2, p2, q2):
                bij2 = _pair(x1, x2, bij, o1, o2)
                if bij2 is not None:
                    for bij3 in _match_terms(p1, p2, bij2, o1, o2):
                        yield from _match_terms(q1, q2, bij3, o1, o2)
                return
    return


# -- single-axiom rewriting (oracle support) ----------------------------------


def _cp_rewrites(t: cp.CpTerm) -> list[tuple[str, cp.CpTerm]]:
    """The Def-2 axioms applied at the root of t (either direction)."""
    out: list[tuple[str, cp.CpTerm]] = []
    match t:
        case cp.Link(x, y):
            out.append(("link-sym", cp.Link(y, x)))
        case cp.Cut(x, a, p, q):
            out.append(("nu-comm", cp.Cut(x, dual(a), q, p)))
            if isinstance(q, cp.Cut):
                y, b, q1, r = q.x, q.ty, q.left, q.right
                if x not in cp.free_names(r) and y not in cp.free_names(p):
                    out.append(("cut-assoc", cp.Cut(y, b, cp.Cut(x, a, p, q1), r)))
            if isinstance(p, cp.Cut):
                x2, a2, p1, q1 = p.x, p.ty, p.left, p.right
                if x2 not in cp.free_names(q) and x not in cp.free_names(p1):
                    out.append(("cut-assoc", cp.Cut(x2, a2, p1, cp.Cut(x, a, q1, q))))
    return out


def _hcp_rewrites(t: hcp.HcpTerm) -> list[tuple[str, hcp.HcpTerm]]:
    """The Def-10 axioms applied at the root of t (either direction), except
    the introduction of a `| 0`, which `sites` adds."""
    out: list[tuple[str, hcp.HcpTerm]] = []
    match t:
        case hcp.Link(x, y):
            out.append(("link-sym", hcp.Link(y, x)))
        case hcp.Par(p, q):
            out.append(("mix-comm", hcp.Par(q, p)))
            if isinstance(q, hcp.Par):
                out.append(("mix-assoc", hcp.Par(hcp.Par(p, q.left), q.right)))
            if isinstance(p, hcp.Par):
                out.append(("mix-assoc", hcp.Par(p.left, hcp.Par(p.right, q))))
            if isinstance(q, hcp.Inert):
                out.append(("mix-unit", p))
            if isinstance(p, hcp.Inert):
                out.append(("mix-unit", q))
            if isinstance(q, hcp.New) and q.x not in hcp.free_names(p):
                out.append(("scope-ext", hcp.New(q.x, q.ty, hcp.Par(p, q.body))))
            if isinstance(p, hcp.New) and p.x not in hcp.free_names(q):
                out.append(("scope-ext", hcp.New(p.x, p.ty, hcp.Par(p.body, q))))
        case hcp.New(x, a, p):
            if isinstance(p, hcp.New) and p.x != x:
                out.append(("nu-comm", hcp.New(p.x, p.ty, hcp.New(x, a, p.body))))
            if isinstance(p, hcp.Par):
                if x not in hcp.free_names(p.left):
                    out.append(("scope-ext", hcp.Par(p.left, hcp.New(x, a, p.right))))
                if x not in hcp.free_names(p.right):
                    out.append(("scope-ext", hcp.Par(hcp.New(x, a, p.left), p.right)))
    return out


# each term class's positional constructor fields (all but `loc`)
_ARGS = {cls: tuple(f.name for f in fields(cls) if not f.kw_only) for cls in SUBTERM_FIELDS}


def sites(t, allow_unit_intro: bool = True) -> list[tuple]:
    """Every single-axiom rewrite of t, as a site (path, label, rewritten node),
    without rebuilding t around it.  Sites come in pre-order: a node's own
    rewrites, then each child's, left to right.  A path is a linked chain
    (parent's path, parent, field), None at the root."""
    rewrites = _cp_rewrites if isinstance(t, cp.CpTerm) else _hcp_rewrites
    unit_intro = allow_unit_intro and rewrites is _hcp_rewrites
    out: list[tuple] = []
    stack = [(t, None)]
    while stack:
        node, path = stack.pop()
        for label, new in rewrites(node):
            out.append((path, label, new))
        if unit_intro:
            out.append((path, "mix-unit", hcp.Par(node, hcp.Inert())))
        for f in reversed(SUBTERM_FIELDS[type(node)]):  # popped first to last
            stack.append((getattr(node, f), (path, node, f)))
    return out


def rebuild_site(site: tuple):
    """The whole term with the site's rewrite in place.  Only the nodes on the
    site's path are copied; like every rewritten node, the copies carry no loc."""
    path, _, t = site
    while path is not None:
        path, parent, f = path
        t = type(parent)(*[t if g == f else getattr(parent, g) for g in _ARGS[type(parent)]])
    return t


def neighbors(t, allow_unit_intro: bool = True):
    """All terms one Def-2 (CP) or Def-10 (HCP) axiom application away, in
    either direction and at any position, with their axiom labels."""
    return [(site[1], rebuild_site(site)) for site in sites(t, allow_unit_intro)]


def bfs_equiv(t1, t2, max_steps: int = 6, node_cap: int = 20000) -> bool:
    """Oracle: breadth-first closure over single-axiom rewrites, up to alpha."""
    is_cp = isinstance(t1, cp.CpTerm)
    key = cp.alpha_key if is_cp else hcp.alpha_key
    target = key(t2)
    frontier = [t1]
    seen = {key(t1)}
    if key(t1) == target:
        return True
    for _ in range(max_steps):
        nxt = []
        for t in frontier:
            for _, t2c in neighbors(t):
                k = key(t2c)
                if k in seen:
                    continue
                if k == target:
                    return True
                seen.add(k)
                if len(seen) > node_cap:
                    raise ClosureBudgetExceeded("bfs closure exceeded the node budget")
                nxt.append(t2c)
        frontier = nxt
        if not frontier:
            break
    return False
