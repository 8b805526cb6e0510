"""Reduction engines for CP and HCP.

Reduction runs on a configuration: a term in prenex normal form, which is
Milner's standard form and the "solution" of Berry and Boudol's chemical
abstract machine (TCS 1992).  Prenex form realizes closure under structural
congruence (CP Def. 2, HCP Def. 10): every cut/parallel skeleton position is
visible, and no redex under an action prefix is ever reported.  A
`Configuration` holds the restrictions in prenex order (for CP, each cut
with the positions of the components holding its two endpoints), the
components left to right with their free names, an index from each
restricted channel to the components it is free in, and the termination
measure.  Its invariants make the configuration after a step equal, field
for field, to the prenex form of the term the step denotes:

- Fresh once.  A configuration freshens its term once.  Every rule keeps a
  fresh term fresh (substitution renames no binder and draws no name), so no
  step freshens again, and terms built from a configuration are marked clean.
- Component order.  In both dialects a step drops the redex's components
  by slot and appends the prenex levels of their continuations in new
  slots, through the same helpers; that is the HCP order.  CP components
  are then renumbered into the order in which `congruence.rebuild_cp` nests
  the cut tree (`congruence.cut_order`), so redex indices are those of the
  rebuilt term, and each cut's endpoints are the leaf and the other end
  `cut_order` gives it.  Those are the rebuilt term's as long as no cut's
  name is free in more than two components, as in every well-typed term
  and every term it reduces to.
- Incremental measure.  The measure, the multiset of restriction-formula
  sizes, is taken once; a step removes its channel's formula, adds the at
  most two formulas it restricts, and for a selection removes those of the
  restrictions inside the branch it discards.

A step touches the redex's two components, the index entries of the names
they mention and the levels it splices in; it never walks inside the other
components.  A trace keeps each step's configuration fields and builds the
step's term only when asked (`TraceStep.term`).

The deterministic strategy picks the redex with the smallest (bound-channel
uid, rule tag) pair, so traces are reproducible byte for byte.  Every step
strictly decreases the measure.
"""
from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections import Counter, deque
from dataclasses import dataclass

from . import congruence, cp, hcp, terms
from . import types as ty
from .congruence import CpBinder
from .names import Name
from .terms import SCHEMA
from .types import dual, size

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


def _oriented(rec: CpBinder, send_idx: int, want) -> ty.Type:
    if rec.left == send_idx:
        s = rec.ty
    elif rec.right == send_idx:
        s = dual(rec.ty)
    else:
        s = rec.ty if isinstance(rec.ty, want) else dual(rec.ty)
    if not isinstance(s, want):
        raise ReductionError(f"restriction {rec.name} is not annotated with the cut formula of its redex")
    return s


class Configuration:
    """A term in prenex form, which `fire` rewrites in place (see the module
    docstring).

    `binders`: for CP a list of `CpBinder`s whose endpoints are component
    positions; for HCP a dict from each restricted name to its type, in
    prenex order.  `comps` and `fvs`: the components left to right and their
    free names.  `users`: each restricted name's components, those it is
    free in, as ascending slots.  `slots` holds each position's slot and
    ascends too, so a slot's position is a bisection.  Both dialects remove
    components with `_drop` and add them with `_append`, which gives each
    the next unused slot; CP then renumbers its components and slots by
    `cut_order` (its components move), HCP never renumbers.  `sizes`: the
    measure in ascending order, if asked for.

    `first_redex` keeps the uids of the restricted names that may have a
    redex in a heap.  A name leaves it when found without one, and returns
    when a component that mentions it is removed or added, the only events
    that can give it one: a link step's substitution changes components only
    in the link's two names, which the link's removal returns."""

    __slots__ = ("is_cp", "binders", "comps", "fvs", "slots", "users", "sizes", "_next", "_heap", "_pending")

    def __init__(self, t, with_measure: bool = False):
        self.is_cp = isinstance(t, cp.CpTerm)
        t = terms.freshen_if_needed(t)
        if self.is_cp:
            self.binders, comps, fvs, users = congruence.spine_cp(t)
        else:
            binders, comps = congruence.spine_hcp(t)
            self.binders = dict(binders)
            fvs = [hcp.free_names(c) for c in comps]
            users = congruence.free_in(self.binders, fvs)
        self.comps, self.fvs = comps, fvs
        self.users = {n: tuple(us) for n, us in users.items()}
        self.slots = list(range(len(comps)))
        self._next = len(comps)
        self.sizes = sorted(measure(t)) if with_measure else None
        self._heap = None  # built by the first first_redex

    def copy(self) -> Configuration:
        c = object.__new__(Configuration)
        c.is_cp, c._next, c._heap = self.is_cp, self._next, None
        c.binders = list(self.binders) if self.is_cp else dict(self.binders)
        c.comps, c.fvs, c.slots = list(self.comps), list(self.fvs), list(self.slots)
        c.users = dict(self.users)
        c.sizes = None if self.sizes is None else list(self.sizes)
        return c

    def names(self) -> list[Name]:
        """The restricted names, in prenex order."""
        return [b.name for b in self.binders] if self.is_cp else list(self.binders)

    def measure(self) -> tuple[int, ...]:
        """Multiset (sorted descending) of restriction-formula sizes."""
        return tuple(reversed(self.sizes))

    def redexes(self) -> list[Redex]:
        """Every redex, in (channel uid, rule tag, i, j) order."""
        out: list[Redex] = []
        for b in self.names():
            self._redexes_on(b, out)
        out.sort(key=_redex_order)
        return out

    def first_redex(self) -> Redex | None:
        """`redexes()[0]`, or None if there is no redex."""
        if self._heap is None:
            self._heap, self._pending = [], {}
            self._touch(self.users)
        heap, pending = self._heap, self._pending
        while heap:
            out: list[Redex] = []
            for b in pending[heap[0]]:
                if b in self.users:
                    self._redexes_on(b, out)
            if out:
                return min(out, key=_redex_order)
            del pending[heapq.heappop(heap)]
        return None

    def _touch(self, names) -> None:
        """Put the restricted ones among names back among the candidates of
        first_redex."""
        if self._heap is None:
            return
        for n in names:
            if n in self.users:
                same_uid = self._pending.get(n.uid)
                if same_uid is None:
                    self._pending[n.uid] = same_uid = set()
                    heapq.heappush(self._heap, n.uid)
                same_uid.add(n)

    def _redexes_on(self, b: Name, out: list[Redex]) -> None:
        """Add the redexes on the restricted name b to out.  A link on b
        pairs with the first other component b is free in."""
        us = self.users[b]
        if len(us) < 2:
            return
        comps, slots = self.comps, self.slots
        link_cls = cp.Link if self.is_cp else hcp.Link
        ps = [bisect_left(slots, s) for s in us]
        acting = []  # positions of the components acting on b
        for p in ps:
            c = comps[p]
            if type(c) is link_cls:
                if c.x != c.y:
                    out.append(Redex(RULE_LINK, b, p, ps[1] if p == ps[0] else ps[0]))
            elif c.x == b:
                acting.append(p)
        beta = _CP_BETA if self.is_cp else _HCP_BETA
        for i in acting:
            for j in acting:
                if i != j:
                    tag = beta.get((type(comps[i]), type(comps[j])))
                    if tag is not None:
                        out.append(Redex(tag, b, i, j))

    def fire(self, r: Redex) -> None:
        """Take the step r in place.  A step that raises past the redex's
        checks may leave the configuration half rewritten."""
        comps, n = self.comps, len(self.comps)
        if not (0 <= r.i < n and 0 <= r.j < n and r.i != r.j):
            raise StaleRedexError("redex indices out of range")
        ci = comps[r.i]
        if r.rule == RULE_LINK:
            if not (type(ci) is (cp.Link if self.is_cp else hcp.Link) and r.channel in (ci.x, ci.y)):
                raise StaleRedexError("link redex no longer matches")
            if r.channel not in self.fvs[r.j]:
                raise StaleRedexError("link partner no longer matches")
        else:
            cj = comps[r.j]
            if getattr(ci, "x", None) != r.channel or getattr(cj, "x", None) != r.channel:
                raise StaleRedexError("redex components no longer act on the channel")
            if (_CP_BETA if self.is_cp else _HCP_BETA).get((type(ci), type(cj))) != r.rule:
                raise StaleRedexError("redex components no longer match the rule")
        if self.is_cp:
            self._fire_cp(r)
        else:
            self._fire_hcp(r)

    def _resize(self, out: ty.Type, ins: tuple, dropped=None) -> None:
        """The formula out and the restrictions inside the dropped branch
        leave the measure, the formulas ins enter it."""
        sizes = self.sizes
        if sizes is not None:
            for k in [size(out)] + ([] if dropped is None else _cut_sizes(dropped)):
                del sizes[bisect_left(sizes, k)]
            for a in ins:
                insort(sizes, size(a))

    def _fire_hcp(self, r: Redex) -> None:
        binders, comps = self.binders, self.comps
        ch = r.channel
        if ch not in binders:
            raise StaleRedexError(f"channel {ch} is not restricted")
        a = binders[ch]
        ci, cj = comps[r.i], comps[r.j]
        if r.rule == RULE_LINK:
            self._link(r.i, ch)
            del binders[ch]
            self._resize(a, ())
            return
        if r.rule == RULE_TENS:
            s = a if isinstance(a, ty.Tensor) else dual(a)
            if not isinstance(s, ty.Tensor):
                raise ReductionError(f"restriction {ch} is not annotated with an output type")
            cuts = ((ch, s.right), (ci.y, s.left))
            pieces = (ci.body, terms.substitute(cj.body, ci.y, cj.y))
            dropped = None
        elif r.rule == RULE_UNIT:
            cuts, pieces, dropped = (), (ci.body, cj.body), None
        else:
            s = a if isinstance(a, ty.Plus) else dual(a)
            if not isinstance(s, ty.Plus):
                raise ReductionError(f"restriction {ch} is not annotated with a selection type")
            cuts = ((ch, s.left if r.rule == RULE_PLUS1 else s.right),)
            pieces = (ci.body, cj.left if r.rule == RULE_PLUS1 else cj.right)
            dropped = cj.right if r.rule == RULE_PLUS1 else cj.left
        self._consume(r.i, r.j, ch, [x for x, _ in cuts])
        del binders[ch]
        binders.update(cuts)
        for piece in pieces:
            bs, cs = congruence.spine_hcp(piece)
            binders.update(bs)
            self._splice([x for x, _ in bs], cs, map(hcp.free_names, cs))
        self._resize(a, tuple(b for _, b in cuts), dropped)

    def _fire_cp(self, r: Redex) -> None:
        ch, i, j = r.channel, r.i, r.j
        rec = next((b for b in self.binders if b.name == ch), None)
        if rec is None:
            raise StaleRedexError(f"channel {ch} is not restricted")
        ci, cj = self.comps[i], self.comps[j]
        si, sj = self.slots[i], self.slots[j]
        # the continuations to splice in, each with the slot it comes from,
        # and the cuts the step makes: (name, formula, the pieces holding its
        # left and right endpoints)
        pieces, cuts, dropped = (), (), None  # dropped: the branch a selection discards
        if r.rule == RULE_TENS:
            s = _oriented(rec, i, ty.Tensor)
            pieces = ((ci.payload, si), (ci.cont, si), (terms.substitute(cj.body, ci.y, cj.y), sj))
            cuts = ((ci.y, s.left, 0, 2), (ch, s.right, 1, 2))
        elif r.rule == RULE_UNIT:
            pieces = ((cj.body, sj),)
        elif r.rule != RULE_LINK:
            s = _oriented(rec, i, ty.Plus)
            a = s.left if r.rule == RULE_PLUS1 else s.right
            pieces = ((ci.body, si), (cj.left if r.rule == RULE_PLUS1 else cj.right, sj))
            dropped = cj.right if r.rule == RULE_PLUS1 else cj.left
            cuts = ((ch, a, 0, 1),)

        # binder endpoints are slots until the renumbering below
        binders = [b for b in self.binders if b.name != ch]
        spliced: dict[int, range | tuple] = {}  # a removed slot -> where its endpoints may have gone
        if r.rule == RULE_LINK:
            self._link(i, ch)
            spliced[si] = (sj,)
        else:
            self._consume(i, j, ch, [x for x, *_ in cuts])
        regions = []
        for piece, origin in pieces:
            bs, cs, fs, _ = congruence.spine_cp(piece)
            region = self._splice([b.name for b in bs], cs, fs)
            binders += [CpBinder(b.name, b.ty, None if b.left is None else region[b.left],
                                 None if b.right is None else region[b.right]) for b in bs]
            regions.append(region)
            # an origin's pieces are spliced one after the other
            spliced[origin] = range(spliced[origin].start, region.stop) if origin in spliced else region
        users = self.users

        def holding(x: Name, slots) -> list[int]:
            return [s for s in users[x] if s in slots]

        def the_comp_with(piece: int, x: Name) -> int:
            hits = holding(x, regions[piece])
            if len(hits) != 1:
                raise ReductionError(f"channel {x} must occur in exactly one component, found {len(hits)}")
            return hits[0]

        binders += [CpBinder(x, a, the_comp_with(left, x), the_comp_with(right, x)) for x, a, left, right in cuts]
        at = {s: p for p, s in enumerate(self.slots)}

        def place(s: int | None, x: Name) -> int | None:
            # an endpoint in a removed slot moves to the one component
            # spliced from it (or the link's partner) that holds x
            if s in at:
                return at[s]
            hits = holding(x, spliced.get(s, ()))
            return at[hits[0]] if len(hits) == 1 else None

        order, last = congruence.cut_order(
            [CpBinder(b.name, b.ty, place(b.left, b.name), place(b.right, b.name)) for b in binders],
            len(self.comps))
        # renumber as the rebuilt term nests its cuts, as prenex_cp would find them
        seq = [leaf for _, leaf, _, _ in order]
        seq.append(last)
        rank = [0] * len(seq)
        for k, p in enumerate(seq):
            rank[p] = k
        self.comps = [self.comps[p] for p in seq]
        self.fvs = [self.fvs[p] for p in seq]
        self.users = {x: tuple(sorted(rank[at[s]] for s in us)) for x, us in users.items()}
        self.binders = [CpBinder(b.name, ann, k, rank[other]) for k, (b, _, other, ann) in enumerate(order)]
        self.slots = list(range(len(seq)))
        self._resize(rec.ty, tuple(a for _, a, _, _ in cuts), dropped)

    def _link(self, p: int, ch: Name) -> None:
        """Drop the link at position p, one of whose ends is ch, and put its
        other end for ch in the components ch is free in."""
        link = self.comps[p]
        w = link.y if link.x == ch else link.x
        self._drop(p)
        comps, fvs, users = self.comps, self.fvs, self.users
        for s in users[ch]:
            q = bisect_left(self.slots, s)
            comps[q] = terms.substitute(comps[q], w, ch)
            fvs[q] = fvs[q] - {ch} | {w}
        if w in users:
            users[w] = tuple(sorted(set(users[w]).union(users[ch])))
        del users[ch]

    def _consume(self, i: int, j: int, ch: Name, cut_names) -> None:
        """Drop the redex's components at positions i and j, and make ready
        the users of the names the step cuts; ch stays restricted only if it
        is one of them."""
        for p in sorted((i, j), reverse=True):
            self._drop(p)
        users = self.users
        if ch not in cut_names:
            del users[ch]
        for x in cut_names:
            users.setdefault(x, ())

    def _splice(self, names, comps, fvs) -> range:
        """Append a continuation's prenex level: the names it restricts,
        then its components comps, whose free names are fvs.  Returns the
        slots they take."""
        start = self._next
        for x in names:
            self.users[x] = ()
        for c, fv in zip(comps, fvs):
            self._append(c, fv)
        return range(start, self._next)

    def _drop(self, p: int) -> None:
        """Remove the component at position p."""
        s = self.slots.pop(p)
        del self.comps[p]
        users = self.users
        fv = self.fvs.pop(p)
        for n in fv:
            us = users.get(n)
            if us is not None:
                users[n] = tuple([x for x in us if x != s])
        self._touch(fv)

    def _append(self, c, fv: frozenset[Name]) -> None:
        """Add a component at the end, in a new slot."""
        s = self._next
        self._next += 1
        self.comps.append(c)
        self.fvs.append(fv)
        self.slots.append(s)
        users = self.users
        for n in fv:
            us = users.get(n)
            if us is not None:
                users[n] = us + (s,)
        self._touch(fv)

    def term(self):
        """The term this configuration stands for.  For CP only once a step
        has put the components in nesting order."""
        return _build(self.snapshot())

    def snapshot(self) -> tuple:
        """What `term` needs, unaffected by later steps."""
        if self.is_cp:
            return True, tuple(self.binders), tuple(self.comps)
        return False, (tuple(self.binders), tuple(self.binders.values())), tuple(self.comps)


def _redex_order(r: Redex) -> tuple:
    return r.channel.uid, _TAG_ORDER[r.rule], r.i, r.j


def _build(snapshot: tuple):
    is_cp, binders, comps = snapshot
    if is_cp:
        t = comps[-1]
        for b, c in zip(reversed(binders), reversed(comps[:-1])):
            t = cp.Cut(b.name, b.ty, c, t)
    else:
        names, types = binders
        t = congruence.rebuild_hcp(list(zip(names, types)), comps)
    object.__setattr__(t, "_clean", True)  # see the module docstring: fresh stays fresh
    return t


def find_redexes(t) -> list[Redex]:
    return Configuration(t).redexes()


def step(t, r: Redex):
    """Fire one redex; the contractum is re-wrapped under the remaining
    prenex binders and components."""
    c = Configuration(t)
    c.fire(r)
    return c.term()


def successors(t):
    """Yield (redex, reduct) for every redex of t, in order, all fired from
    one configuration of t."""
    for r, c in _fired(Configuration(t)):
        yield r, c.term()


def _fired(c: Configuration):
    """Yield (redex, configuration after it) for every redex of c, in order,
    each fired on a copy of c."""
    for r in c.redexes():
        c2 = c.copy()
        c2.fire(r)
        yield r, c2


# -- measure ------------------------------------------------------------------


def measure(t) -> tuple[int, ...]:
    """Multiset (sorted descending) of restriction-formula sizes."""
    return tuple(sorted(_cut_sizes(t), reverse=True))


def _cut_sizes(t) -> list[int]:
    sizes: list[int] = []
    stack = [t]
    while stack:
        t = stack.pop()
        cls = type(t)
        if cls is cp.Cut or cls is hcp.New:
            sizes.append(size(t.ty))
        for f in SCHEMA[cls].subterms:
            stack.append(getattr(t, f))
    return sizes


def multiset_less(a, b) -> bool:
    """Dershowitz-Manna order on multisets of positive integers: a < b."""
    ca, cb = Counter(a), Counter(b)
    a_ex = ca - cb
    b_ex = cb - ca
    if not b_ex:
        return False
    if not a_ex:
        return True
    mx = max(b_ex)
    return all(k < mx for k in a_ex)


# -- canonical forms ----------------------------------------------------------


@dataclass
class CanonicalResult:
    ok: bool
    binders: list[Name]
    comps: list
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_canonical(t) -> CanonicalResult:
    return canonical(Configuration(t))


def canonical(c: Configuration) -> CanonicalResult:
    """Whether the configuration c is in canonical form (see is_canonical)."""
    link_cls = cp.Link if c.is_cp else hcp.Link
    names = c.names()
    bound = set(names)
    comps = list(c.comps)
    if not c.is_cp and names and len(comps) < len(names) + 1:
        return CanonicalResult(False, names, comps, "fewer components than restrictions: some channel is self-guarded")
    acting: dict[Name, int] = {}
    for i, comp in enumerate(comps):
        for n in _acts_on(comp):
            if n not in bound:
                continue
            if isinstance(comp, link_cls):
                return CanonicalResult(False, names, comps, f"a link acts on the bound channel {n}")
            if n in acting:
                return CanonicalResult(False, names, comps, f"two components act on the bound channel {n}")
            acting[n] = i
    return CanonicalResult(True, names, comps)


def check_blocked(res: CanonicalResult) -> bool:
    """For the result of a canonical term: every obligation of the
    canonical-form corollary holds, i.e. enough components act on free
    channels."""
    if not res.ok:
        raise ValueError(f"check_blocked requires a canonical term: {res.reason}")
    if not res.comps:
        return True
    bound = set(res.binders)
    free_acting = sum(1 for c in res.comps if all(n not in bound for n in _acts_on(c)))
    if isinstance(res.comps[0], cp.CpTerm):
        return free_acting >= 1
    return free_acting >= len(res.comps) - len(res.binders)


# -- multi-step reduction -----------------------------------------------------


class TraceStep:
    """One step of a trace: the redex fired, the measure after it, and the
    term it leads to, built from the configuration's fields on first access
    and then kept."""

    __slots__ = ("redex", "measure", "_snapshot", "_term")

    def __init__(self, redex: Redex, snapshot: tuple, measure: tuple[int, ...]):
        self.redex = redex
        self.measure = measure
        self._snapshot = snapshot
        self._term = None

    @property
    def term(self):
        if self._term is None:
            self._term = _build(self._snapshot)
            self._snapshot = None
        return self._term


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


def reduce(t, fuel: int | None = None) -> ReductionTrace:
    """Run the deterministic strategy to a trace."""
    if fuel is not None and fuel < 1:
        raise ValueError("fuel must be at least 1")
    c = Configuration(t, with_measure=True)
    if fuel is None:
        fuel = 1 + sum(c.sizes)
    steps: list[TraceStep] = []
    for _ in range(fuel):
        r = c.first_redex()
        if r is None:
            break
        c.fire(r)
        steps.append(TraceStep(r, c.snapshot(), c.measure()))
    else:
        if c.first_redex() is not None:
            return ReductionTrace(t, steps, "fuel-exhausted")
    return ReductionTrace(t, steps, "canonical" if canonical(c).ok else "stuck")


def render_trace(trace: ReductionTrace) -> str:
    *steps, last = trace_json_lines(trace)
    lines = [f"step {r['step']}: {r['rule']} on {r['channel']} ⇒ {r['term']} "
             f"[measure: {{{', '.join(map(str, r['measure']))}}}]" for r in steps]
    lines.append(f"{last['status']} after {last['steps']} steps: {last['term']}")
    return "\n".join(lines)


def trace_json_lines(trace: ReductionTrace) -> list[dict]:
    """One record per step, then one for the outcome.  Every reduct and the
    final term are printed together: a reduct shares most nodes with the one
    before it, and the final term is the last one."""
    from . import surface

    printed = surface.print_terms([*(st.term for st in trace.steps), trace.final])
    out = [{"step": k, "rule": st.redex.rule, "channel": st.redex.channel.surface, "term": term,
            "measure": list(st.measure)}
           for k, (st, term) in enumerate(zip(trace.steps, printed), 1)]
    out.append({"status": trace.status, "steps": len(trace.steps), "term": printed[-1]})
    return out


# -- exhaustive exploration ---------------------------------------------------


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


def _identity(c: Configuration) -> tuple:
    """What the stepped configuration c is made of, by object identity: for
    HCP its restriction map and the multiset of its components' ids; for CP
    its cuts (name, formula, endpoint positions) and its components' ids, in
    order."""
    if c.is_cp:
        return tuple([(b.name, b.ty, b.left, b.right) for b in c.binders]), tuple(map(id, c.comps))
    return frozenset(c.binders.items()), tuple(sorted(map(id, c.comps)))


def reduction_graph(t, cap: int = 10000) -> ReductionGraph:
    """BFS over all redexes of all reachable terms, nodes quotiented by
    structural congruence.

    The search steps configurations: the frontier keeps each new state's
    configuration until the state is popped, and `_fired` takes every step
    of it on a copy.  A successor is first settled by `_identity`, what it
    is made of.  If an earlier successor had the same identity, it joins
    that one's node, with no term, `congruence.levels` or `match`.  Two
    independent unit or selection steps, taken in either order, close a
    diamond over the very same component objects, so on a mix of unit cuts
    every successor but a state's first is settled so.  A link or tensor
    step substitutes into fresh components, whose diamonds only the
    matcher closes.  A successor not known by identity builds its term and
    levels and is matched against the nodes with its key, as in a plain
    BFS, and its identity is recorded with the node it lands in.  Each
    identity keeps its configuration's components alive, so no id in it is
    reused.  A CP identity lists the components in order: a stepped CP
    configuration is in `congruence.cut_order`'s order, which depends only
    on the cut tree and the uids.

    The result is that of the plain BFS:
    - a configuration after a step equals the prenex form of its term,
      field for field, so stepping the kept configuration gives the redexes,
      in order, and the reducts of stepping a configuration rebuilt from
      the node's term;
    - two HCP configurations with one restriction map over the same
      components rebuild to terms equal up to nu-comm, mix-comm and
      mix-assoc; two CP configurations with the same cuts over the same
      components in the same order rebuild to the identical term, since
      `term` reads nothing else;
    - graph nodes are pairwise non-congruent, so the node an identity
      finds is the one node the bucket scan would have matched;
    - BFS order and redex order are unchanged, so are nodes, edges,
      terminals and the point at which `BudgetExceeded` is raised."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    nodes = [t]
    levels = [congruence.levels(t)]  # per node, its prenex levels, built once
    buckets: dict = {levels[0].key: [0]}  # congruence key -> nodes with it
    known: dict = {}  # a successor's identity -> (its node, the components the identity names)
    edges: list = []
    terminals: list = []
    frontier = deque([(0, Configuration(t))])
    while frontier:
        i, c = frontier.popleft()
        terminal = True
        for r, c2 in _fired(c):
            terminal = False
            ident = _identity(c2)
            hit = known.get(ident)
            if hit is not None:
                found = hit[0]
            else:
                t2 = c2.term()
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
                    frontier.append((found, c2))
                known[ident] = found, c2.comps
            edges.append((i, found, r.rule, r.channel.surface))
        if terminal:
            terminals.append(i)
    return ReductionGraph(nodes, edges, terminals)
