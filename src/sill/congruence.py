"""Structural congruence for CP and HCP.

Both calculi are handled through a prenex normal form: all restrictions
pulled outermost (cut spines flattened for CP, scope extrusion for HCP),
parallel structure flattened into a component multiset, inert units dropped.

`key` is an invariant of the congruence, computed in one walk: per prenex
level, the sorted certificates of its components (constructor, subject names
with bound ones blanked, the keys of the levels below) and the sorted classes
{A, dual A} of its restrictions.  Congruent terms get equal keys; equal keys
do not imply congruence.  It plays the part of the first round of colour
refinement (McKay and Piperno, "Practical graph isomorphism, II", 2014): a
cheap invariant that prunes the search, not a canonical form, which would
need individualisation of the bound names.

`equiv` decides congruence: it answers no when the keys differ, and otherwise
matches the two terms' prenex levels, each built once: multiset matching of
components with equal certificates, link symmetry, and backtracking over
binder correspondences, kept in one name bijection with an undo trail.

Single-axiom rewriting (CP Def. 2, HCP Def. 10) is split in two: `sites`
walks the term once and lists each rewrite as a site (the path to a node,
the axiom's label and the rewritten node), and `rebuild_site` copies only the
ancestors on one site's path.  `neighbors` rebuilds every site; a bounded BFS
over it is the independent oracle for equiv.  `harness.scramble` rebuilds
only the site it draws.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

from . import cp, hcp, terms
from .names import Name
from .terms import SCHEMA
from .types import Type, dual, render


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


def spine_cp(t: cp.CpTerm) -> tuple[list[CpBinder], list[cp.CpTerm], list[frozenset[Name]], dict[Name, list[int]]]:
    """The prenex form of a fresh CP term, without freshening it: its cuts
    outermost first, its components left to right, each component's free
    names, and per cut name the components it is free in.  A cut's endpoint
    is the one component on that side of it in which its name is free (None
    unless there is exactly one)."""
    binders: list[tuple[Name, Type]] = []
    spans: list[list[int]] = []  # per cut: where its left side starts, where its right side starts and ends
    comps: list[cp.CpTerm] = []
    stack: list = [(None, t)]  # (None, term) to visit, or (cut slot, 1 or 2) where its side ends
    while stack:
        slot, node = stack.pop()
        if slot is not None:
            spans[slot][node] = len(comps)
        elif type(node) is cp.Cut:
            slot = len(spans)
            binders.append((node.x, node.ty))
            spans.append([len(comps), 0, 0])
            stack += ((slot, 2), (None, node.right), (slot, 1), (None, node.left))
        else:
            comps.append(node)
    fvs = [cp.free_names(c) for c in comps]
    users = free_in([x for x, _ in binders], fvs)
    return _cut_binders(binders, spans, users), comps, fvs, users


def _cut_binders(binders: list[tuple[Name, Type]], spans: list[list[int]],
                 users: dict[Name, list[int]]) -> list[CpBinder]:
    """Each cut with its endpoints, given where its two sides' components
    start and end and, per cut name, the components it is free in: on each
    side, the one component holding the name (None unless there is exactly
    one)."""
    out = []
    for (x, a), (start, mid, end) in zip(binders, spans):
        la = [k for k in users[x] if start <= k < mid]
        ra = [k for k in users[x] if mid <= k < end]
        out.append(CpBinder(x, a, la[0] if len(la) == 1 else None, ra[0] if len(ra) == 1 else None))
    return out


def free_in(names, fvs: list[frozenset[Name]]) -> dict[Name, list[int]]:
    """Per name, the positions of the free-name sets in fvs that hold it."""
    users: dict[Name, list[int]] = {x: [] for x in names}
    for k, fv in enumerate(fvs):
        for n in fv:
            if n in users:
                users[n].append(k)
    return users


def spine_hcp(t: hcp.HcpTerm) -> tuple[list[tuple[Name, Type]], list[hcp.HcpTerm]]:
    """The prenex form of a fresh HCP term, without freshening it: its
    restrictions outermost first and its components left to right, inert
    ones dropped."""
    binders: list[tuple[Name, Type]] = []
    comps: list[hcp.HcpTerm] = []
    stack = [t]
    while stack:
        node = stack.pop()
        cls = type(node)
        if cls is hcp.New:
            binders.append((node.x, node.ty))
            stack.append(node.body)
        elif cls is hcp.Par:
            stack += (node.right, node.left)
        elif cls is not hcp.Inert:
            comps.append(node)
    return binders, comps


def prenex_cp(t: cp.CpTerm) -> CpPrenex:
    binders, comps, _, _ = spine_cp(terms.freshen_if_needed(t))
    return CpPrenex(binders, comps)


def prenex_hcp(t: hcp.HcpTerm) -> HcpPrenex:
    return HcpPrenex(*spine_hcp(terms.freshen_if_needed(t)))


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


def cut_order(binders: list[CpBinder], n: int) -> tuple[list[tuple[CpBinder, int, Type]], int]:
    """The order in which `rebuild_cp` nests a cut tree over components
    0..n-1: again and again the cut of least uid (the earlier one on a tie)
    among those with a leaf end, which it cuts off.  Returns per cut, in that
    order, the cut, its leaf and its formula on the leaf's side; and the
    component left at the end.  A heap of the cuts with a leaf end makes it
    O(n log n)."""
    for b in binders:
        if b.left is None or b.right is None or b.left == b.right:
            raise CongruenceError(f"cannot rebuild: binder {b.name} lacks two endpoint components")
    deg = [0] * n
    incident = [0] * n  # per component, the xor of its remaining cuts' indices
    for k, b in enumerate(binders):
        for c in (b.left, b.right):
            deg[c] += 1
            incident[c] ^= k
    heap = [(b.name.uid, k) for k, b in enumerate(binders) if deg[b.left] == 1 or deg[b.right] == 1]
    heapq.heapify(heap)
    done = [False] * len(binders)
    order = []
    while heap:
        k = heapq.heappop(heap)[1]
        if done[k]:
            continue
        done[k] = True
        b = binders[k]
        if deg[b.left] == 1:
            leaf, other, ann = b.left, b.right, b.ty
        else:
            leaf, other, ann = b.right, b.left, dual(b.ty)
        order.append((b, leaf, ann))
        deg[leaf] = 0
        deg[other] -= 1
        incident[other] ^= k
        if deg[other] == 1:
            k2 = incident[other]
            heapq.heappush(heap, (binders[k2].name.uid, k2))
    if len(order) < len(binders):
        raise CongruenceError("cannot rebuild: cyclic cut structure")
    if n - len(order) != 1:
        raise CongruenceError("cannot rebuild: components do not form a cut tree")
    leaves = {leaf for _, leaf, _ in order}
    return order, next(c for c in range(n) if c not in leaves)


def rebuild_cp(binders: list[CpBinder], comps: list[cp.CpTerm]) -> cp.CpTerm:
    """Reassemble a cut spine.  Components and binders must form a tree
    (each binder connecting its two endpoint components), as any well-typed
    CP term does."""
    order, last = cut_order(binders, len(comps))
    body = comps[last]
    for b, leaf, ann in reversed(order):
        body = cp.Cut(b.name, ann, comps[leaf], body)
    return body


# -- congruence keys ----------------------------------------------------------


class _Level:
    """One prenex level of a term: its restrictions in prenex order, its
    components left to right, and per component a certificate and the
    levels of its subterms.  `key` is the level's congruence key."""

    __slots__ = ("binders", "spans", "comps", "certs", "children", "key", "groups", "cp_binders")

    def __init__(self):
        self.binders: list[tuple[Name, Type]] = []
        self.spans: list[list[int]] = []  # CP: per cut, where its left and right components start and end
        self.comps: list = []
        # per component: constructor and subject names, then its subterms' keys
        self.certs: list[tuple] = []
        self.children: list[tuple[_Level, ...]] = []  # per component: its subterms' levels, in field order
        self.groups: dict | None = None  # certificate -> component indices, built on first use
        self.cp_binders: list[CpBinder] | None = None  # built on first use


# walk stack entries: (_VISIT, term, level), (_EXIT, name, None), and
# (_MID or _END, level, cut slot) where a cut's right side begins or ends
_VISIT, _EXIT, _MID, _END = 0, 1, 2, 3


def _component_plan(cls) -> tuple:
    """A component class's constructor name, subterm fields, prefix binder
    field (None if it binds nothing) and the order a walk pushes its subterm
    indices in: those outside the binder's scope, -1 where the scope ends
    (popped after the subterms inside it), then those inside."""
    s = SCHEMA[cls]
    fs = s.subterms
    outside = tuple(k for k in reversed(range(len(fs))) if fs[k] in s.outside)
    inside = tuple(k for k in reversed(range(len(fs))) if fs[k] in s.inside)
    return cls.__name__, fs, s.binder, outside + (-1,) + inside if s.binder else outside


_COMPONENTS = {cls: _component_plan(cls) for cls in SCHEMA
               if cls not in (cp.Cut, hcp.New, hcp.Par, hcp.Inert)}


def _levels(t) -> tuple[_Level, set[Name]]:
    """Every prenex level of t, keys included, in one explicit-stack walk;
    and the names t's restrictions bind.

    A subject name is written as its surface when free and as `•` when a
    binder of that name is in scope, so the keys need no freshening."""
    scope: dict[Name, int] = {}  # name -> binders of it in scope
    restricted: set[Name] = set()
    root = _Level()
    levels = [root]
    stack: list[tuple] = [(_VISIT, t, root)]
    push = stack.append
    while stack:
        op, node, level = stack.pop()
        if op:
            if op == _EXIT:
                scope[node] -= 1
            else:  # _MID or _END
                node.spans[level][op - 1] = len(node.comps)
            continue
        cls = type(node)
        if cls is cp.Cut or cls is hcp.New:
            x = node.x
            level.binders.append((x, node.ty))
            restricted.add(x)
            scope[x] = scope.get(x, 0) + 1
            push((_EXIT, x, None))
            if cls is cp.Cut:
                slot = len(level.spans)
                level.spans.append([len(level.comps), 0, 0])
                stack += ((_END, level, slot), (_VISIT, node.right, level),
                          (_MID, level, slot), (_VISIT, node.left, level))
            else:
                push((_VISIT, node.body, level))
        elif cls is hcp.Par:
            stack += ((_VISIT, node.right, level), (_VISIT, node.left, level))
        elif cls is not hcp.Inert:
            ctor, fs, bound, order = _COMPONENTS[cls]
            x = node.x
            x = "•" if scope.get(x) else x.surface
            if cls is cp.Link or cls is hcp.Link:
                y = node.y
                y = "•" if scope.get(y) else y.surface
                level.certs.append((ctor, x, y) if x <= y else (ctor, y, x))
            else:
                level.certs.append((ctor, x))
            level.comps.append(node)
            subs = tuple([_Level() for _ in fs])
            level.children.append(subs)
            levels += subs
            for k in order:
                if k < 0:  # the subterms pushed next are in the binder's scope
                    y = getattr(node, bound)
                    scope[y] = scope.get(y, 0) + 1
                    push((_EXIT, y, None))
                else:
                    push((_VISIT, getattr(node, fs[k]), subs[k]))
    # a level is made before its components' subterm levels, so reversed
    # creation order finishes every level after the levels below it
    for level in reversed(levels):
        certs = level.certs
        for i, subs in enumerate(level.children):
            if subs:
                certs[i] += tuple([s.key for s in subs])
        classes = tuple(sorted([_type_class(a) for _, a in level.binders])) if level.binders else ()
        level.key = (tuple(sorted(certs)) if len(certs) > 1 else tuple(certs), classes)
    return root, restricted


def _type_class(a: Type) -> str:
    """The same for A and dual A: a restriction may be written either way round."""
    return min(render(a), render(dual(a)))


def key(t) -> tuple:
    """An invariant of structural congruence: congruent terms get equal keys.

    Per prenex level, the key holds the sorted certificates of the level's
    components and the sorted classes {A, dual A} of its restrictions.  A
    component's certificate is its constructor, its subject names (a link's
    two ends sorted; a free name by surface, a bound one as `•`) and the
    keys of its subterms' levels.  The value is nested tuples of strings, the
    same in every process.  Terms with equal keys need not be congruent:
    `equiv` decides."""
    return _levels(t)[0].key


# -- the decision procedure ---------------------------------------------------


def equiv(t1, t2) -> bool:
    """Decide structural congruence.  Free names must agree by surface."""
    c1, c2 = isinstance(t1, cp.CpTerm), isinstance(t2, cp.CpTerm)
    if c1 != c2:
        raise ValueError("cannot compare terms of different dialects")
    l1, restricted1 = _levels(terms.freshen_if_needed(t1))
    l2, restricted2 = _levels(terms.freshen_if_needed(t2))
    if l1.key != l2.key:
        return False
    for _ in _match_level(l1, l2, _Bijection(restricted1, restricted2)):
        return True
    return False


class _Bijection:
    """The name correspondence built while matching two freshened terms: one
    dict pair, and a trail of the pairs made, so backtracking can undo them.
    A name some restriction binds pairs only with such a name, and any other
    name not paired on entering its binder's scope only with a name of the
    same surface.  The restricted sets hold every restriction's name in the
    whole term: binders of a fresh term are distinct and no free name equals
    one, so a name occurring at a level is in the set exactly when a
    restriction around that level binds it."""

    __slots__ = ("l2r", "r2l", "trail", "restricted1", "restricted2")

    def __init__(self, restricted1: set[Name], restricted2: set[Name]):
        self.l2r: dict[Name, Name] = {}
        self.r2l: dict[Name, Name] = {}
        self.trail: list[tuple[Name, Name]] = []
        self.restricted1 = restricted1
        self.restricted2 = restricted2

    def pair(self, n1: Name, n2: Name) -> bool:
        m = self.l2r.get(n1)
        if m is not None:
            return m == n2
        if n2 in self.r2l:
            return False
        r1, r2 = n1 in self.restricted1, n2 in self.restricted2
        if (r1 and r2) or (not r1 and not r2 and n1.surface == n2.surface):
            self.bind(n1, n2)
            return True
        return False

    def bind(self, n1: Name, n2: Name) -> None:
        """Pair two names neither of which is paired yet."""
        self.l2r[n1] = n2
        self.r2l[n2] = n1
        self.trail.append((n1, n2))

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
    n = len(l1.comps)
    if l2.groups is None:
        l2.groups = {}
        for j, c in enumerate(l2.certs):
            l2.groups.setdefault(c, []).append(j)
    used = [False] * n
    sigma: dict[int, int] = {}

    def pairings(i: int):
        """Yield once per way of matching component i with a free one of l2:
        subject names (a link either way round), prefix binder, subterms."""
        c1, subs1 = l1.comps[i], l1.children[i]
        link = type(c1) is cp.Link or type(c1) is hcp.Link
        bound = SCHEMA[type(c1)].binder
        mark = len(bij.trail)
        for j in l2.groups[l1.certs[i]]:
            if used[j]:
                continue
            used[j] = True
            sigma[i] = j
            c2, subs2 = l2.comps[j], l2.children[j]
            if link:
                for a, b in ((c2.x, c2.y), (c2.y, c2.x)):
                    if bij.pair(c1.x, a) and bij.pair(c1.y, b):
                        yield
                    bij.undo(mark)
            elif bij.pair(c1.x, c2.x):
                if bound is not None:
                    bij.bind(getattr(c1, bound), getattr(c2, bound))
                if not subs1:
                    yield
                elif len(subs1) == 1:
                    yield from _match_level(subs1[0], subs2[0], bij)
                else:  # Send and Case: the first subterm, then the second
                    for _ in _match_level(subs1[0], subs2[0], bij):
                        yield from _match_level(subs1[1], subs2[1], bij)
                bij.undo(mark)
            used[j] = False
            del sigma[i]

    if n == 0:
        if _binders_match(l1, l2, bij, sigma):
            yield
        return
    # one suspended generator per component paired so far, so that a level's
    # width costs no recursion
    stack = [pairings(0)]
    while stack:
        if next(stack[-1], _DONE) is _DONE:
            stack.pop()
        elif len(stack) == n:
            if _binders_match(l1, l2, bij, sigma):
                yield
        else:
            stack.append(pairings(len(stack)))


def _cp_binders(level: _Level) -> list[CpBinder]:
    """The level's restrictions with the component that holds each endpoint:
    for CP cuts as `prenex_cp` finds them, while an HCP restriction's
    endpoints are unknown (None)."""
    if level.cp_binders is None:
        if level.spans:
            users = free_in([x for x, _ in level.binders], [cp.free_names(c) for c in level.comps])
            level.cp_binders = _cut_binders(level.binders, level.spans, users)
        else:
            level.cp_binders = [CpBinder(x, a, None, None) for x, a in level.binders]
    return level.cp_binders


def _binders_match(l1: _Level, l2: _Level, bij: _Bijection, sigma: dict[int, int]) -> bool:
    """Whether the restrictions of two levels correspond under bij, once
    sigma pairs every component of l1 with one of l2."""
    l2r, r2l = bij.l2r, bij.r2l
    by_name2 = {b.name: b for b in _cp_binders(l2)}
    unmatched2 = dict(by_name2)
    deferred1 = []
    for b1 in _cp_binders(l1):
        n2 = l2r.get(b1.name)
        if n2 is None:
            deferred1.append(b1.ty)
            continue
        b2 = by_name2.get(n2)
        if b2 is None:
            return False
        unmatched2.pop(n2, None)
        if not _cp_binder_compat(b1, b2, sigma):
            return False
    rest2 = [b.ty for b in unmatched2.values() if b.name not in r2l]
    # binders with no occurrences anywhere: pair by type compatibility
    if len(deferred1) != len(rest2) or len(rest2) != len(unmatched2):
        return False
    for ty1 in deferred1:
        ok = None
        for k, ty2 in enumerate(rest2):
            if ty1 in (ty2, dual(ty2)):
                ok = k
                break
        if ok is None:
            return False
        rest2.pop(ok)
    return True


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
        for f in reversed(SCHEMA[type(node)].subterms):  # popped first to last
            stack.append((getattr(node, f), (path, node, f)))
    return out


def rebuild_site(site: tuple):
    """The whole term with the site's rewrite in place.  Only the nodes on the
    site's path are copied; like every rewritten node, the copies carry no loc."""
    path, _, t = site
    while path is not None:
        path, parent, f = path
        t = type(parent)(*[t if g == f else getattr(parent, g) for g in SCHEMA[type(parent)].args])
    return t


def neighbors(t, allow_unit_intro: bool = True):
    """All terms one Def-2 (CP) or Def-10 (HCP) axiom application away, in
    either direction and at any position, with their axiom labels."""
    return [(site[1], rebuild_site(site)) for site in sites(t, allow_unit_intro)]


def bfs_equiv(t1, t2, max_steps: int = 6, node_cap: int = 20000) -> bool:
    """Oracle: breadth-first closure over single-axiom rewrites, up to alpha."""
    key = terms.alpha_key
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
