"""Structural congruence for CP and HCP.

Both calculi are handled through a prenex normal form: all restrictions
pulled outermost (cut spines flattened for CP, scope extrusion for HCP),
parallel structure flattened into a component multiset, inert units dropped.

`key` is an invariant of the congruence, computed in one walk: per prenex
level, the sorted certificates of its components (constructor, subject names'
labels, the keys of the levels below) and the sorted classes {A, dual A} of
its restrictions.  A bound name's label is its binder's: for a CP cut, the
type of the endpoint on that side, which every axiom keeps.  Congruent terms
get equal keys; equal keys do not imply congruence.  It plays the part of the
first round of colour refinement (McKay and Piperno, "Practical graph
isomorphism, II", 2014): a cheap invariant that prunes the search, not a
canonical form, which would need individualisation of the bound names.

`equiv` decides congruence, as `match` of the two terms' `levels` (built
once from the freshened term): no when the keys differ, else a backtracking
search on one explicit stack that places each component on one with its
certificate, fewest candidates first, pairing names in one bijection.
`reduction.reduction_graph` builds levels once per successor it cannot
settle by its components' identity, buckets them by key and matches them.

Single-axiom rewriting (CP Def. 2, HCP Def. 10) is split in two: `sites`
walks the term once and lists each rewrite as a site (the path to a node,
the axiom's label and a function that builds the rewritten node), and
`rebuild_site` copies only the ancestors on one site's path.  The axioms are
written once, in `_cp_rewrites` and `_hcp_rewrites`.  `neighbors` builds and
rebuilds every site; a bounded BFS over it is the independent oracle for
equiv.  `harness.scramble` builds only the site it draws.
"""
from __future__ import annotations

import heapq
from collections.abc import Callable
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


def spine_cp(t: cp.CpTerm) -> tuple[list[tuple], list[cp.CpTerm], list[frozenset[Name]], dict[Name, list[int]]]:
    """The prenex form of a fresh CP term, without freshening it: its cuts
    outermost first, as (name, formula, left, right) tuples, its components
    left to right, each component's free names, and per cut name the
    components it is free in.  A cut's endpoint is the one component on
    that side of it in which its name is free (None unless there is exactly
    one)."""
    binders, spans, comps = cut_spans(t)
    fvs = [cp.free_names(c) for c in comps]
    users = free_in([x for x, _ in binders], fvs)
    return [(x, a, *ends(users[x], span)) for (x, a), span in zip(binders, spans)], comps, fvs, users


def cut_spans(t: cp.CpTerm) -> tuple[list[tuple[Name, Type]], list[list[int]], list[cp.CpTerm]]:
    """The cuts of a CP term's spine, outermost first, each one's span (where
    its left side starts, where its right side starts and where it ends, as
    component positions) and its components left to right."""
    binders: list[tuple[Name, Type]] = []
    spans: list[list[int]] = []
    comps: list[cp.CpTerm] = []
    stack: list = [t]  # terms to visit, or a cut's span where one of its sides ends
    while stack:
        node = stack.pop()
        if type(node) is list:
            node.append(len(comps))
        elif type(node) is cp.Cut:
            span = [len(comps)]
            binders.append((node.x, node.ty))
            spans.append(span)
            stack += (span, node.right, span, node.left)
        else:
            comps.append(node)
    return binders, spans, comps


def ends(holders, span, offset: int = 0) -> tuple[int | None, int | None]:
    """A cut's endpoints: per side of its span (shifted by offset), the one
    position among holders, those of the components its name is free in, on
    that side (None unless there is exactly one)."""
    start, mid, end = span
    start, mid, end = start + offset, mid + offset, end + offset
    left = right = None
    nl = nr = 0
    for k in holders:
        if start <= k < mid:
            left, nl = k, nl + 1
        elif mid <= k < end:
            right, nr = k, nr + 1
    return left if nl == 1 else None, right if nr == 1 else None


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
    cuts, comps, _, _ = spine_cp(terms.freshen_if_needed(t))
    return CpPrenex([CpBinder(*c) for c in cuts], comps)


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


def cut_order(binders: list[CpBinder], n: int) -> tuple[list[tuple[CpBinder, int, int, Type]], int]:
    """The order in which `rebuild_cp` nests a cut tree over components
    0..n-1: again and again the cut of least uid (the earlier one on a tie)
    among those with a leaf end, which it cuts off.  Returns per cut, in that
    order, the cut, its leaf, its other end and its formula on the leaf's
    side; and the component left at the end.  A heap of the cuts with a leaf
    end makes it O(n log n)."""
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
        order.append((b, leaf, other, ann))
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
    leaves = {leaf for _, leaf, _, _ in order}
    return order, next(c for c in range(n) if c not in leaves)


def rebuild_cp(binders: list[CpBinder], comps: list[cp.CpTerm]) -> cp.CpTerm:
    """Reassemble a cut spine.  Components and binders must form a tree
    (each binder connecting its two endpoint components), as any well-typed
    CP term does."""
    order, last = cut_order(binders, len(comps))
    body = comps[last]
    for b, leaf, _, ann in reversed(order):
        body = cp.Cut(b.name, ann, comps[leaf], body)
    return body


# -- congruence keys ----------------------------------------------------------


class _Level:
    """One prenex level of a term: its restrictions in prenex order, each
    with its class, and per component, left to right, a certificate, its
    names and the levels of its subterms.  `key` is the level's congruence
    key."""

    __slots__ = ("binders", "certs", "names", "children", "key", "groups", "ways", "order")

    def __init__(self):
        self.binders: list[tuple[Name, str]] = []
        # per component: constructor and subject labels, then its subterms' keys
        self.certs: list[tuple] = []
        # per component: subject names in certificate order, then the name its prefix binds
        self.names: list[tuple[Name, ...]] = []
        self.children: list[tuple[_Level, ...]] = []  # per component: its subterms' levels, in field order
        self.groups: dict | None = None  # certificate -> component indices, built on first match
        self.ways: dict | None = None  # (group's first index, subject or None) -> (index, names), likewise
        self.order: range | list[int] | None = None  # components fewest candidates first, likewise


# walk stack entries: (_VISIT, term, level), and (_LABEL, name, label) where a
# cut's right side begins or a binder's scope ends (label None: no binder)
_VISIT, _LABEL = 0, 1


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


def _levels(t) -> _Level:
    """Every prenex level of t, keys included, in one explicit-stack walk.

    A subject name is written as its surface when free and otherwise as the
    label of its innermost binder: `•` for a prefix binder, `•` and the
    endpoint's type for a CP cut (A on its left side, dual A on its right),
    and `•` and the class {A, dual A} for an HCP restriction.  So the keys
    need no freshening."""
    scope: dict[Name, str | None] = {}  # name -> the label of its innermost binder in scope
    root = _Level()
    levels = [root]
    stack: list[tuple] = [(_VISIT, t, root)]
    push = stack.append
    while stack:
        op, node, level = stack.pop()
        if op:  # _LABEL
            scope[node] = level
            continue
        cls = type(node)
        if cls is cp.Cut or cls is hcp.New:
            x, a = node.x, node.ty
            left, right = render(a), render(dual(a))
            c = min(left, right)  # the class {A, dual A}: the same either way round
            level.binders.append((x, c))
            push((_LABEL, x, scope.get(x)))
            if cls is cp.Cut:
                scope[x] = "•" + left
                stack += ((_VISIT, node.right, level), (_LABEL, x, "•" + right),
                          (_VISIT, node.left, level))
            else:  # an HCP restriction may be annotated either way round
                scope[x] = "•" + c
                push((_VISIT, node.body, level))
        elif cls is hcp.Par:
            stack += ((_VISIT, node.right, level), (_VISIT, node.left, level))
        elif cls is not hcp.Inert:
            ctor, fs, bound, order = _COMPONENTS[cls]
            x = node.x
            lx = scope.get(x) or x.surface
            if cls is cp.Link or cls is hcp.Link:
                y = node.y
                ly = scope.get(y) or y.surface
                if lx <= ly:
                    level.certs.append((ctor, lx, ly))
                    level.names.append((x, y))
                else:
                    level.certs.append((ctor, ly, lx))
                    level.names.append((y, x))
            else:
                level.certs.append((ctor, lx))
                level.names.append((x, getattr(node, bound)) if bound else (x,))
            subs = tuple([_Level() for _ in fs])
            level.children.append(subs)
            levels += subs
            for k in order:
                if k < 0:  # the subterms pushed next are in the binder's scope
                    y = getattr(node, bound)
                    push((_LABEL, y, scope.get(y)))
                    scope[y] = "•"
                else:
                    push((_VISIT, getattr(node, fs[k]), subs[k]))
    # a level is made before its components' subterm levels, so reversed
    # creation order finishes every level after the levels below it
    for level in reversed(levels):
        certs = level.certs
        for i, subs in enumerate(level.children):
            if subs:
                certs[i] += tuple([s.key for s in subs])
        classes = tuple(sorted([c for _, c in level.binders])) if level.binders else ()
        level.key = (classes, *sorted(certs)) if len(certs) > 1 else (classes, *certs)
    return root


def key(t) -> tuple:
    """An invariant of structural congruence: congruent terms get equal keys.

    Per prenex level, the key is the flat tuple (classes, *certificates):
    the sorted classes {A, dual A} of the level's restrictions, then the
    sorted certificates of its components, so comparing two keys recurses
    twice per level.  A component's certificate is its constructor, its
    subject names' labels (a link's two sorted) and the keys of its
    subterms' levels.  A free name's
    label is its surface; a bound one's is its binder's: `•` for a prefix
    binder, `•` and the endpoint's type for a CP cut, `•` and the class of the
    annotation for an HCP restriction.  Every axiom keeps every label: CP's
    nu-comm swaps a cut's sides and dualises its annotation.  The value is
    nested tuples of strings, the same in every process.  Terms with equal
    keys need not be congruent: `equiv` decides."""
    return _levels(t).key


# -- the decision procedure ---------------------------------------------------


def levels(t) -> _Level:
    """The prenex levels of t freshened, which `match` compares; their `key`
    is `key(t)`.  A caller that compares one term with many builds its
    levels once."""
    return _levels(terms.freshen_if_needed(t))


def match(l1: _Level, l2: _Level) -> bool:
    """Whether the terms whose `levels` these are, of one dialect, are
    structurally congruent.

    A depth-first search on one explicit stack of goals (a, b, k, rest),
    rest a linked list: place the k-th component of level a, fewest
    candidates first, on a free one of b with its certificate, or, past the
    last, check a's restrictions, after all of a's sublevels.  A level of one
    component goes straight down.  A choice point stays only where a
    component has more than one free way: another candidate, or a link with
    equal labels the other way round; once its subject is paired, only
    candidates whose subject is its partner.  The trail records the names
    paired and candidates marked used, so backtracking undoes exactly those."""
    if l1.key != l2.key:
        return False
    l2r, r2l = {}, {}  # the names of l1's term paired with those of l2's, and back
    used: set[tuple[_Level, int]] = set()  # (a level of l2's term, its component) placed
    trail, choices = [], []  # choices: (goals, trail length, a, b, i, alternatives left)
    goals, ok = (l1, l2, 0, None), True
    while True:
        if not ok:  # back to the latest choice point, for its next alternative
            if not choices:
                return False
            goals, mark, a, b, i, alts = choices[-1]
            while len(trail) > mark:
                e = trail.pop()
                if type(e) is tuple:  # a used mark (a Name is a NamedTuple)
                    used.discard(e)
                else:
                    del r2l[l2r.pop(e)]
            placed, names2 = alts.pop()
            j = placed[1]
            if not alts:
                choices.pop()
        elif goals is None:
            return True
        else:
            a, b, k, goals = goals
            n = len(a.certs)
            if k == n:
                ok = not a.binders or _binders_match(a, b, l2r, r2l)
                continue
            if k + 1 < n or a.binders:
                goals = (a, b, k + 1, goals)
            if a.order is None or b.ways is None:
                _plan(a, b)
            i = a.order[k]
            cert = a.certs[i]
            swap = cert[0] == "Link" and cert[1] == cert[2]
            group = b.groups[cert]
            if len(group) == 1 and not swap:  # equal keys: so its one candidate is free
                j, placed, names2 = group[0], None, b.names[group[0]]
            else:  # its free ways, with the subject its subject is paired with if it is
                alts = [((b, j), ns) for j, ns in reversed(b.ways.get((group[0], l2r.get(a.names[i][0])), ()))
                        if (b, j) not in used]
                if alts:
                    choices.append((goals, len(trail), a, b, i, alts))
                ok = False  # so the choice point just pushed, if any, places it
                continue
        while True:  # place component i of a on component j of b, its names as names2
            ok = False
            for n1, n2 in zip(a.names[i], names2):
                m = l2r.get(n1)
                if m is None:
                    if r2l.setdefault(n2, n1) is not n1:  # n2 is paired with another name
                        break
                    l2r[n1] = n2
                    trail.append(n1)
                elif m != n2:
                    break
            else:
                ok = True
                if placed is not None:
                    used.add(placed)
                    trail.append(placed)
                subs1 = a.children[i]
                if subs1:  # Send and Case have two: the first is matched first
                    subs2 = b.children[j]
                    if len(subs1) == 2 and (subs1[1].certs or subs1[1].binders):
                        goals = (subs1[1], subs2[1], 0, goals)
                    a, b = subs1[0], subs2[0]
                    c = a.certs
                    if len(c) == 1 and not a.binders and not (c[0][0] == "Link" and c[0][1] == c[0][2]):
                        i, j, placed, names2 = 0, 0, None, b.names[0]  # no choice: straight down
                        continue
                    if c or a.binders:
                        goals = (a, b, 0, goals)
            break


def equiv(t1, t2) -> bool:
    """Decide structural congruence.  Free names must agree by surface."""
    c1, c2 = isinstance(t1, cp.CpTerm), isinstance(t2, cp.CpTerm)
    if c1 != c2:
        raise ValueError("cannot compare terms of different dialects")
    return match(levels(t1), levels(t2))


def _plan(a: _Level, b: _Level) -> None:
    """Build, unless built, b's certificate groups and ways to place a
    component where there is a choice, and a's fail-first order: its
    components by how many share their certificate, fewest first."""
    if b.ways is None:
        groups, ways = {}, {}
        for j, c in enumerate(b.certs):
            groups.setdefault(c, []).append(j)
        for c, group in groups.items():
            swap = c[0] == "Link" and c[1] == c[2]
            for j in group if len(group) > 1 or swap else ():
                for ns in (b.names[j], b.names[j][::-1]) if swap else (b.names[j],):
                    ways.setdefault((group[0], None), []).append((j, ns))
                    ways.setdefault((group[0], ns[0]), []).append((j, ns))
        b.groups, b.ways = groups, ways
    if a.order is None:  # equal keys: a's groups have the sizes of b's
        n, groups = len(a.certs), b.groups
        a.order = range(n) if len(groups) == n else sorted(range(n), key=lambda i: len(groups[a.certs[i]]))


def _binders_match(l1: _Level, l2: _Level, l2r: dict, r2l: dict) -> bool:
    """Whether every restriction of either level that l2r (or its inverse
    r2l) pairs is paired with a restriction of the other.  Paired names carry
    equal labels, so paired cuts have the same endpoint types."""
    names1, names2 = {x for x, _ in l1.binders}, {x for x, _ in l2.binders}
    return (all(l2r[x] in names2 for x in names1 if x in l2r)
            and all(r2l[x] in names1 for x in names2 if x in r2l))


# -- single-axiom rewriting (oracle support) ----------------------------------


def _cp_rewrites(t: cp.CpTerm) -> list[tuple[str, Callable[[], cp.CpTerm]]]:
    """The Def-2 axioms applied at the root of t (either direction), as
    (label, build) pairs: build() makes the rewritten node, so a caller that
    keeps one rewrite builds only that one.  A build takes the values it reads
    as default arguments, since the cut case rebinds q1."""
    fv = cp.free_names
    out: list[tuple[str, Callable[[], cp.CpTerm]]] = []
    match t:
        case cp.Link(x, y):
            out.append(("link-sym", lambda x=x, y=y: cp.Link(y, x)))
        case cp.Cut(x, a, p, q):
            out.append(("nu-comm", lambda x=x, a=a, p=p, q=q: cp.Cut(x, dual(a), q, p)))
            if isinstance(q, cp.Cut):
                y, b, q1, r = q.x, q.ty, q.left, q.right
                if x not in fv(r) and y not in fv(p):
                    out.append(("cut-assoc", lambda x=x, a=a, p=p, y=y, b=b, q1=q1, r=r:
                                cp.Cut(y, b, cp.Cut(x, a, p, q1), r)))
            if isinstance(p, cp.Cut):
                x2, a2, p1, q1 = p.x, p.ty, p.left, p.right
                if x2 not in fv(q) and x not in fv(p1):
                    out.append(("cut-assoc", lambda x=x, a=a, q=q, x2=x2, a2=a2, p1=p1, q1=q1:
                                cp.Cut(x2, a2, p1, cp.Cut(x, a, q1, q))))
    return out


def _hcp_rewrites(t: hcp.HcpTerm) -> list[tuple[str, Callable[[], hcp.HcpTerm]]]:
    """The Def-10 axioms applied at the root of t (either direction), except
    the introduction of a `| 0`, which `sites` adds; as `_cp_rewrites`, (label,
    build) pairs."""
    fv = hcp.free_names
    out: list[tuple[str, Callable[[], hcp.HcpTerm]]] = []
    match t:
        case hcp.Link(x, y):
            out.append(("link-sym", lambda x=x, y=y: hcp.Link(y, x)))
        case hcp.Par(p, q):
            out.append(("mix-comm", lambda p=p, q=q: hcp.Par(q, p)))
            if isinstance(q, hcp.Par):
                out.append(("mix-assoc", lambda p=p, q=q: hcp.Par(hcp.Par(p, q.left), q.right)))
            if isinstance(p, hcp.Par):
                out.append(("mix-assoc", lambda p=p, q=q: hcp.Par(p.left, hcp.Par(p.right, q))))
            if isinstance(q, hcp.Inert):
                out.append(("mix-unit", lambda p=p: p))
            if isinstance(p, hcp.Inert):
                out.append(("mix-unit", lambda q=q: q))
            if isinstance(q, hcp.New) and q.x not in fv(p):
                out.append(("scope-ext", lambda p=p, q=q: hcp.New(q.x, q.ty, hcp.Par(p, q.body))))
            if isinstance(p, hcp.New) and p.x not in fv(q):
                out.append(("scope-ext", lambda p=p, q=q: hcp.New(p.x, p.ty, hcp.Par(p.body, q))))
        case hcp.New(x, a, p):
            if isinstance(p, hcp.New) and p.x != x:
                out.append(("nu-comm", lambda x=x, a=a, p=p: hcp.New(p.x, p.ty, hcp.New(x, a, p.body))))
            if isinstance(p, hcp.Par):
                if x not in fv(p.left):
                    out.append(("scope-ext", lambda x=x, a=a, p=p: hcp.Par(p.left, hcp.New(x, a, p.right))))
                if x not in fv(p.right):
                    out.append(("scope-ext", lambda x=x, a=a, p=p: hcp.Par(hcp.New(x, a, p.left), p.right)))
    return out


def sites(t, allow_unit_intro: bool = True) -> list[tuple]:
    """Every single-axiom rewrite of t, as a site (path, label, build), where
    build() makes the rewritten node; nothing is built or rebuilt.  Sites come
    in pre-order: a node's own rewrites, then each child's, left to right.  A
    path is a linked chain (parent's path, parent, field), None at the root.

    The axioms' side conditions read the free-name sets that branching nodes
    keep, which a term shares with every term built from it.  They are asked
    children first, so each set is made from kept ones and none recurses
    down a long spine."""
    rewrites = _cp_rewrites if isinstance(t, cp.CpTerm) else _hcp_rewrites
    unit_intro = allow_unit_intro and rewrites is _hcp_rewrites
    nodes = []  # (node, path) in pre-order
    stack = [(t, None)]
    while stack:
        node, path = stack.pop()
        nodes.append((node, path))
        for f in reversed(SCHEMA[type(node)].subterms):  # popped first to last
            stack.append((getattr(node, f), (path, node, f)))
    found = [rewrites(node) for node, _ in reversed(nodes)]
    out: list[tuple] = []
    for (node, path), here in zip(nodes, reversed(found)):
        for label, build in here:
            out.append((path, label, build))
        if unit_intro:
            out.append((path, "mix-unit", lambda node=node: hcp.Par(node, hcp.Inert())))
    return out


def rebuild_site(site: tuple):
    """The whole term with a site's rewritten node in place, for a site given
    as (path, label, rewritten node).  Only the nodes on the site's path are
    copied; like every rewritten node, the copies carry no loc."""
    path, _, t = site
    while path is not None:
        path, parent, f = path
        t = type(parent)(*[t if g == f else getattr(parent, g) for g in SCHEMA[type(parent)].args])
    return t


def neighbors(t, allow_unit_intro: bool = True):
    """All terms one Def-2 (CP) or Def-10 (HCP) axiom application away, in
    either direction and at any position, with their axiom labels."""
    return [(label, rebuild_site((path, label, build())))
            for path, label, build in sites(t, allow_unit_intro)]


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
