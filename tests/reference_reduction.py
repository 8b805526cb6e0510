"""The reducer as it was before reduction ran on configurations, kept
verbatim as the reference for `test_configuration.py`: redex search, the
term-level steppers and the measure, which take the prenex form again at
every step, and the recursive `rebuild_cp`, with the prenex forms they call.
Only `reduce`'s trace loop and what it needs are here.  `reduction_graph`
is the graph explorer as it was before it stepped configurations, the
reference for `test_graph_reference.py`; it builds every successor's term
and levels and matches them against the nodes with its key, and here it
steps each node's term with the term-level stepper."""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from types import SimpleNamespace

from sill import cp, hcp, terms
from sill import types as ty
from sill.congruence import CongruenceError, levels, match
from sill.names import Name
from sill.terms import SCHEMA
from sill.types import Type, dual, size


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
    t = terms.freshen_if_needed(t)
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
    t = terms.freshen_if_needed(t)
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



RULE_LINK = "κ↔"
RULE_TENS = "β⊗⅋"
RULE_UNIT = "β1⊥"
RULE_PLUS1 = "β⊕&₁"
RULE_PLUS2 = "β⊕&₂"

_TAG_ORDER = {RULE_LINK: 0, RULE_TENS: 1, RULE_UNIT: 2, RULE_PLUS1: 3, RULE_PLUS2: 4}


class ReductionError(Exception):
    pass


class StaleRedexError(ReductionError):
    pass


class BudgetExceeded(ReductionError):
    pass


@dataclass(frozen=True)
class Redex:
    rule: str
    channel: Name
    i: int  # prenex component index of the positive side (sender / link)
    j: int  # index of the matching component


def _acts_on(c) -> tuple[Name, ...]:
    if isinstance(c, (cp.Link, hcp.Link)):
        return (c.x, c.y)
    return (c.x,)


_CP_BETA = {
    (cp.Send, cp.Recv): RULE_TENS,
    (cp.Halt, cp.Wait): RULE_UNIT,
    (cp.Inl, cp.Case): RULE_PLUS1,
    (cp.Inr, cp.Case): RULE_PLUS2,
}

_HCP_BETA = {
    (hcp.BoundOut, hcp.In): RULE_TENS,
    (hcp.OutUnit, hcp.InUnit): RULE_UNIT,
    (hcp.Inl, hcp.Case): RULE_PLUS1,
    (hcp.Inr, hcp.Case): RULE_PLUS2,
}


def find_redexes(t) -> list[Redex]:
    is_cp = isinstance(t, cp.CpTerm)
    p = congruence.prenex_cp(t) if is_cp else congruence.prenex_hcp(t)
    fv = cp.free_names if is_cp else hcp.free_names
    beta = _CP_BETA if is_cp else _HCP_BETA
    link_cls = cp.Link if is_cp else hcp.Link
    if is_cp:
        bound = [b.name for b in p.binders]
    else:
        bound = [b[0] for b in p.binders]
    links: dict[Name, list[int]] = {}  # name -> indices of the links on it
    acting: dict[Name, list[int]] = {}  # name -> indices of the actions on it
    for i, c in enumerate(p.comps):
        if isinstance(c, link_cls):
            if c.x != c.y:
                links.setdefault(c.x, []).append(i)
                links.setdefault(c.y, []).append(i)
        else:
            acting.setdefault(c.x, []).append(i)
    fvs = [fv(c) for c in p.comps] if links else []
    out: list[Redex] = []
    for b in bound:
        for i in links.get(b, ()):
            partners = [j for j, f in enumerate(fvs) if j != i and b in f]
            if partners:
                out.append(Redex(RULE_LINK, b, i, partners[0]))
        subjects = acting.get(b, ())
        for i in subjects:
            for j in subjects:
                if i == j:
                    continue
                tag = beta.get((type(p.comps[i]), type(p.comps[j])))
                if tag is not None:
                    out.append(Redex(tag, b, i, j))
    out.sort(key=lambda r: (r.channel.uid, _TAG_ORDER[r.rule], r.i, r.j))
    return out


def _oriented(rec: congruence.CpBinder, send_idx: int, want) -> ty.Type:
    if rec.left == send_idx:
        s = rec.ty
    elif rec.right == send_idx:
        s = dual(rec.ty)
    else:
        s = rec.ty if isinstance(rec.ty, want) else dual(rec.ty)
    if not isinstance(s, want):
        raise ReductionError(f"restriction {rec.name} is not annotated with the cut formula of its redex")
    return s


def _the_comp_with(comps: list, base: int, name: Name, fv) -> int:
    hits = [base + k for k, c in enumerate(comps) if name in fv(c)]
    if len(hits) != 1:
        raise ReductionError(f"channel {name} must occur in exactly one component, found {len(hits)}")
    return hits[0]


def step(t, r: Redex):
    """Fire one redex; the contractum is re-wrapped under the remaining
    prenex binders and components."""
    if isinstance(t, cp.CpTerm):
        return _step_cp(t, r)
    return _step_hcp(t, r)


def _validate(comps, r: Redex, link_cls, fv, beta):
    n = len(comps)
    if not (0 <= r.i < n and 0 <= r.j < n and r.i != r.j):
        raise StaleRedexError("redex indices out of range")
    ci = comps[r.i]
    if r.rule == RULE_LINK:
        if not (isinstance(ci, link_cls) and r.channel in (ci.x, ci.y)):
            raise StaleRedexError("link redex no longer matches")
        if r.channel not in fv(comps[r.j]):
            raise StaleRedexError("link partner no longer matches")
    else:
        cj = comps[r.j]
        if getattr(ci, "x", None) != r.channel or getattr(cj, "x", None) != r.channel:
            raise StaleRedexError("redex components no longer act on the channel")
        if beta.get((type(ci), type(cj))) != r.rule:
            raise StaleRedexError("redex components no longer match the rule")


def _step_cp(t: cp.CpTerm, r: Redex) -> cp.CpTerm:
    p = congruence.prenex_cp(t)
    _validate(p.comps, r, cp.Link, cp.free_names, _CP_BETA)
    rec = next((b for b in p.binders if b.name == r.channel), None)
    if rec is None:
        raise StaleRedexError(f"channel {r.channel} is not restricted")
    comps = p.comps
    new_comps: list[cp.CpTerm] = []
    extra_binders: list[congruence.CpBinder] = []

    if r.rule == RULE_LINK:
        link = comps[r.i]
        w = link.y if link.x == r.channel else link.x
        index_of: dict[int, int] = {}
        for k, c in enumerate(comps):
            if k == r.i:
                continue
            index_of[k] = len(new_comps)
            # a component without the channel would come back equal: the term
            # is fresh, so no binder in it equals w and substitute would
            # rename nothing and draw no fresh name
            new_comps.append(terms.substitute(c, w, r.channel) if r.channel in cp.free_names(c) else c)
        new_binders = []
        for b in p.binders:
            if b.name == r.channel:
                continue
            left = r.j if b.left == r.i else b.left
            right = r.j if b.right == r.i else b.right
            new_binders.append(congruence.CpBinder(b.name, b.ty, index_of.get(left), index_of.get(right)))
        return congruence.rebuild_cp(new_binders, new_comps)

    drop = {r.i, r.j}
    index_of = {}
    regions: dict[int, list[tuple[int, int]]] = {}
    for k, c in enumerate(comps):
        if k in drop:
            continue
        index_of[k] = len(new_comps)
        new_comps.append(c)

    def splice(term: cp.CpTerm, origin: int) -> tuple[int, int]:
        sub = congruence.prenex_cp(term)
        base = len(new_comps)
        new_comps.extend(sub.comps)
        regions.setdefault(origin, []).append((base, len(sub.comps)))
        for b in sub.binders:
            extra_binders.append(congruence.CpBinder(
                b.name, b.ty,
                None if b.left is None else base + b.left,
                None if b.right is None else base + b.right,
            ))
        return base, len(sub.comps)

    ci, cj = comps[r.i], comps[r.j]
    if r.rule == RULE_TENS:
        send, recv = ci, cj
        s = _oriented(rec, r.i, ty.Tensor)
        body = terms.substitute(recv.body, send.y, recv.y)
        pb, pn = splice(send.payload, r.i)
        qb, qn = splice(send.cont, r.i)
        rb, rn = splice(body, r.j)
        extra_binders.append(congruence.CpBinder(
            send.y, s.left,
            _the_comp_with(new_comps[pb:pb + pn], pb, send.y, cp.free_names),
            _the_comp_with(new_comps[rb:rb + rn], rb, send.y, cp.free_names),
        ))
        extra_binders.append(congruence.CpBinder(
            r.channel, s.right,
            _the_comp_with(new_comps[qb:qb + qn], qb, r.channel, cp.free_names),
            _the_comp_with(new_comps[rb:rb + rn], rb, r.channel, cp.free_names),
        ))
    elif r.rule == RULE_UNIT:
        splice(cj.body, r.j)
    elif r.rule in (RULE_PLUS1, RULE_PLUS2):
        s = _oriented(rec, r.i, ty.Plus)
        a = s.left if r.rule == RULE_PLUS1 else s.right
        branch = cj.left if r.rule == RULE_PLUS1 else cj.right
        pb, pn = splice(ci.body, r.i)
        qb, qn = splice(branch, r.j)
        extra_binders.append(congruence.CpBinder(
            r.channel, a,
            _the_comp_with(new_comps[pb:pb + pn], pb, r.channel, cp.free_names),
            _the_comp_with(new_comps[qb:qb + qn], qb, r.channel, cp.free_names),
        ))
    else:
        raise StaleRedexError(f"unknown rule {r.rule}")

    def locate(old_idx: int | None, name: Name) -> int | None:
        # spectator endpoints inside a consumed component moved into its splices
        if old_idx is None:
            return None
        if old_idx in index_of:
            return index_of[old_idx]
        hits = []
        for base, cnt in regions.get(old_idx, []):
            for k in range(base, base + cnt):
                if name in cp.free_names(new_comps[k]):
                    hits.append(k)
        return hits[0] if len(hits) == 1 else None

    new_binders = []
    for b in p.binders:
        if b.name == r.channel:
            continue
        new_binders.append(congruence.CpBinder(b.name, b.ty, locate(b.left, b.name), locate(b.right, b.name)))
    new_binders.extend(extra_binders)
    return congruence.rebuild_cp(new_binders, new_comps)


def _step_hcp(t: hcp.HcpTerm, r: Redex) -> hcp.HcpTerm:
    p = congruence.prenex_hcp(t)
    _validate(p.comps, r, hcp.Link, hcp.free_names, _HCP_BETA)
    rec = next(((n, a) for n, a in p.binders if n == r.channel), None)
    if rec is None:
        raise StaleRedexError(f"channel {r.channel} is not restricted")

    def splice(term, binders, comps):
        sub = congruence.prenex_hcp(term)
        binders.extend(sub.binders)
        comps.extend(sub.comps)

    if r.rule == RULE_LINK:
        link = p.comps[r.i]
        w = link.y if link.x == r.channel else link.x
        # only components that mention the channel change (see _step_cp)
        comps = [terms.substitute(c, w, r.channel) if r.channel in hcp.free_names(c) else c
                 for k, c in enumerate(p.comps) if k != r.i]
        binders = [(n, a) for n, a in p.binders if n != r.channel]
        return congruence.rebuild_hcp(binders, comps)

    binders = [(n, a) for n, a in p.binders if n != r.channel]
    comps = [c for k, c in enumerate(p.comps) if k not in (r.i, r.j)]
    ci, cj = p.comps[r.i], p.comps[r.j]
    if r.rule == RULE_TENS:
        s = rec[1] if isinstance(rec[1], ty.Tensor) else dual(rec[1])
        if not isinstance(s, ty.Tensor):
            raise ReductionError(f"restriction {r.channel} is not annotated with an output type")
        body = terms.substitute(cj.body, ci.y, cj.y)
        binders.append((r.channel, s.right))
        binders.append((ci.y, s.left))
        splice(ci.body, binders, comps)
        splice(body, binders, comps)
    elif r.rule == RULE_UNIT:
        splice(ci.body, binders, comps)
        splice(cj.body, binders, comps)
    elif r.rule in (RULE_PLUS1, RULE_PLUS2):
        s = rec[1] if isinstance(rec[1], ty.Plus) else dual(rec[1])
        if not isinstance(s, ty.Plus):
            raise ReductionError(f"restriction {r.channel} is not annotated with a selection type")
        a = s.left if r.rule == RULE_PLUS1 else s.right
        branch = cj.left if r.rule == RULE_PLUS1 else cj.right
        binders.append((r.channel, a))
        splice(ci.body, binders, comps)
        splice(branch, binders, comps)
    else:
        raise StaleRedexError(f"unknown rule {r.rule}")
    return congruence.rebuild_hcp(binders, comps)


# -- measure ------------------------------------------------------------------


def measure(t) -> tuple[int, ...]:
    """Multiset (sorted descending) of restriction-formula sizes."""
    sizes: list[int] = []
    stack = [t]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is cp.Cut or cls is hcp.New:
            sizes.append(size(t.ty))
        for f in SCHEMA[cls].subterms:
            stack.append(getattr(t, f))
    return tuple(sorted(sizes, reverse=True))


@dataclass
class CanonicalResult:
    ok: bool
    binders: list[Name]
    comps: list
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_canonical(t) -> CanonicalResult:
    is_cp = isinstance(t, cp.CpTerm)
    p = congruence.prenex_cp(t) if is_cp else congruence.prenex_hcp(t)
    link_cls = cp.Link if is_cp else hcp.Link
    bound = set(b.name for b in p.binders) if is_cp else set(n for n, _ in p.binders)
    names = [b.name for b in p.binders] if is_cp else [n for n, _ in p.binders]
    res = CanonicalResult(True, names, list(p.comps))
    if not is_cp and p.binders and len(p.comps) < len(p.binders) + 1:
        return CanonicalResult(False, names, list(p.comps),
                               "fewer components than restrictions: some channel is self-guarded")
    acting: dict[Name, int] = {}
    for i, c in enumerate(p.comps):
        for n in _acts_on(c):
            if n not in bound:
                continue
            if isinstance(c, link_cls):
                return CanonicalResult(False, names, list(p.comps), f"a link acts on the bound channel {n}")
            if n in acting:
                return CanonicalResult(False, names, list(p.comps), f"two components act on the bound channel {n}")
            acting[n] = i
    return res



@dataclass
class TraceStep:
    redex: Redex
    term: object
    measure: tuple[int, ...]


@dataclass
class ReductionTrace:
    initial: object
    steps: list[TraceStep]
    status: str  # 'canonical' | 'fuel-exhausted' | 'stuck'

    @property
    def final(self):
        return self.steps[-1].term if self.steps else self.initial


def fuel_bound(t) -> int:
    return 1 + sum(measure(t))


def reduce(t, fuel: int | None = None, strategy: str = "deterministic"):
    """Run the deterministic strategy to a trace, or explore the full graph."""
    if strategy == "all":
        return reduction_graph(t)
    if strategy != "deterministic":
        raise ValueError(f"unknown strategy {strategy!r}")
    if fuel is None:
        fuel = fuel_bound(t)
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    steps: list[TraceStep] = []
    cur = t
    for _ in range(fuel):
        rs = find_redexes(cur)
        if not rs:
            status = "canonical" if is_canonical(cur) else "stuck"
            return ReductionTrace(t, steps, status)
        r = rs[0]
        cur = step(cur, r)
        steps.append(TraceStep(r, cur, measure(cur)))
    if find_redexes(cur):
        return ReductionTrace(t, steps, "fuel-exhausted")
    return ReductionTrace(t, steps, "canonical" if is_canonical(cur) else "stuck")


# -- exhaustive exploration ---------------------------------------------------


def successors(t):
    """Yield (redex, reduct) for every redex of t, in order, each stepped
    from t."""
    for r in find_redexes(t):
        yield r, step(t, r)


@dataclass
class ReductionGraph:
    nodes: list
    edges: list  # (src, dst, rule, channel surface)
    terminals: list

    @property
    def is_path(self) -> bool:
        if len(self.edges) != len(self.nodes) - 1:
            return False
        outs = Counter(e[0] for e in self.edges)
        return all(outs[i] <= 1 for i in range(len(self.nodes)))


def reduction_graph(t, cap: int = 10000) -> ReductionGraph:
    """BFS over all redexes of all reachable terms, nodes quotiented by
    structural congruence."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    nodes = [t]
    levels = [congruence.levels(t)]  # per node, its prenex levels, built once
    buckets: dict = {levels[0].key: [0]}  # congruence key -> nodes with it
    edges: list = []
    terminals: list = []
    frontier = deque([0])
    while frontier:
        i = frontier.popleft()
        terminal = True
        for r, t2 in successors(nodes[i]):
            terminal = False
            l2 = congruence.levels(t2)
            found = None
            for j in buckets.get(l2.key, []):
                if congruence.match(levels[j], l2):
                    found = j
                    break
            if found is None:
                nodes.append(t2)
                levels.append(l2)
                found = len(nodes) - 1
                if len(nodes) > cap:
                    raise BudgetExceeded(f"reduction graph exceeded {cap} nodes")
                buckets.setdefault(l2.key, []).append(found)
                frontier.append(found)
            edges.append((i, found, r.rule, r.channel.surface))
        if terminal:
            terminals.append(i)
    return ReductionGraph(nodes, edges, terminals)


# the steppers call these through the module they used to live in
congruence = SimpleNamespace(CpBinder=CpBinder, prenex_cp=prenex_cp, prenex_hcp=prenex_hcp,
                             rebuild_cp=rebuild_cp, rebuild_hcp=rebuild_hcp,
                             levels=levels, match=match)
