"""Reduction engines for CP and HCP.

Reduction runs on a configuration: a term in prenex normal form, which is
Milner's standard form and the "solution" of Berry and Boudol's chemical
abstract machine (TCS 1992).  Prenex form realizes closure under structural
congruence (CP Def. 2, HCP Def. 10): every cut/parallel skeleton position is
visible, and no redex under an action prefix is ever reported.  A
`Configuration` holds the restrictions (for CP, each cut with the slots of
the components holding its two endpoints), the components with their free
names, an index from each restricted channel to the components it is free
in, and the termination measure.  Its invariants make the term built after
a step the one the step denotes, that is, the term the reducer that takes
the prenex form of the whole term again at every step would build:

- Fresh once.  A configuration freshens its term once.  Every rule keeps a
  fresh term fresh (substitution renames no binder and draws no name), so no
  step freshens again, and terms built from a configuration are marked clean.
- Component order.  In both dialects a step drops the redex's components
  by slot and appends the prenex levels of their continuations in new
  slots.  For HCP that is the order of the term.  A CP configuration is an
  unordered solution: cut-assoc and cut-comm make the nesting of a cut
  spine unobservable up to congruence, so its cuts are nested, by
  `congruence.rebuild_cp`, only when a term is built.  Redex positions are
  then positions in the configuration, not in the term, except where they
  break a tie.  The term is the prenex reducer's as long as no cut's name
  is free in more than two components, as in every well-typed term and
  every term it reduces to.
- Incremental measure.  The measure, the multiset of restriction-formula
  sizes, is taken once; a step removes its channel's formula, adds the at
  most two formulas it restricts, and for a selection removes those of the
  restrictions inside the branch it discards.

A step touches the redex's two components, the index entries of the names
they mention and the levels it splices in; it never walks inside the other
components.  A unit step whose continuation is a single component puts it
in the consumed component's slot, so the index entries of the names it
mentions stay as they are.  A trace keeps each step's configuration fields
and builds the step's term only when asked (`TraceStep.term`).

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


def _oriented(ch: Name, rec: tuple, send: int, want) -> ty.Type:
    """The formula of the cut ch, whose record rec is (formula, left slot,
    right slot), seen from the sending slot send."""
    a, left, right = rec
    if left == send:
        s = a
    elif right == send:
        s = dual(a)
    else:
        s = a if isinstance(a, want) else dual(a)
    if not isinstance(s, want):
        raise ReductionError(f"restriction {ch} is not annotated with the cut formula of its redex")
    return s


def _the_comp_with(us, region, x: Name) -> int:
    """The one slot of region among us, the slots holding x."""
    hits = [s for s in us if s in region]
    if len(hits) != 1:
        raise ReductionError(f"channel {x} must occur in exactly one component, found {len(hits)}")
    return hits[0]


def _broken(rec: tuple) -> bool:
    """Whether a CP cut's record lacks two distinct endpoint slots."""
    return rec[1] is None or rec[2] is None or rec[1] == rec[2]


def _tied(cut: dict) -> bool:
    """Whether two of the CP cuts share a uid."""
    return len({x.uid for x in cut}) < len(cut)


def _cp_binders(records, slots) -> list[CpBinder]:
    """The CP cuts (name, record) over the components in slots, with their
    endpoints as positions."""
    at = {s: p for p, s in enumerate(slots)}
    return [CpBinder(x, a, at[left], at[right]) for x, (a, left, right) in records]


class Configuration:
    """A term in prenex form, which `fire` rewrites in place (see the module
    docstring).

    `comps` and `fvs`: the components and their free names (for CP exact on
    the restricted names: a unit step whose continuation keeps its
    component's slot drops the consumed channel from the set without looking
    into the continuation).  `slots` holds each position's slot, a
    component's identity, in ascending order: a step drops components by
    slot and appends its continuations in new slots (`_append`), so a slot's
    position is a bisection of `slots`.  `users`: each restricted name's
    components, those it is free in, as slots; the `users` entries of the
    components a step leaves alone never change.  `sizes`: the measure in
    ascending order, if asked for.

    `binders` (HCP): each restricted name's type, in prenex order.  `_cut`
    (CP): each cut's record (formula, left slot, right slot), the formula
    being its left end's.  Before the first step the components and cuts
    are the term's, in prenex order; after it they are in no particular
    order, and `term` nests the cuts with `congruence.rebuild_cp`.  That
    puts last the right end of the cut of largest uid, `_top` (None before
    the first step), so `_top`'s record has the sides the term built before
    the step gives that cut (`_retop`); no other record's sides matter.
    `redexes` breaks a tie in (uid, rule) by the positions in `term()`.
    When two cuts share a uid (`_tied`), `cut_order` breaks the tie by list
    position, so each step puts `_cut` in cut order, each record leaf first,
    as the built term lists its cuts.

    `first_redex` keeps the uids of the restricted names that may have a
    redex in a heap.  A name leaves it when found without one, and returns
    when a component that mentions it is added or acts on it anew, or when
    a link step substitutes it (`_touch`), the only events that can give it
    one."""

    __slots__ = ("is_cp", "binders", "comps", "fvs", "slots", "users", "sizes", "_next", "_heap", "_pending",
                 "_cut", "_top", "_tied")

    def __init__(self, t, with_measure: bool = False):
        self.is_cp = isinstance(t, cp.CpTerm)
        t = terms.freshen_if_needed(t)
        if self.is_cp:
            cuts, comps, fvs, users = congruence.spine_cp(t)
            self._cut = {x: (a, left, right) for x, a, left, right in cuts}
            self._top, self._tied = None, False
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
        c.comps, c.fvs, c.slots = list(self.comps), list(self.fvs), list(self.slots)
        c.users = dict(self.users)
        c.sizes = None if self.sizes is None else list(self.sizes)
        if self.is_cp:
            c._cut, c._top, c._tied = dict(self._cut), self._top, self._tied
        else:
            c.binders = dict(self.binders)
        return c

    def names(self) -> list[Name]:
        """The restricted names, in prenex order before the first step."""
        return list(self._cut if self.is_cp else self.binders)

    def measure(self) -> tuple[int, ...]:
        """Multiset (sorted descending) of restriction-formula sizes."""
        return tuple(reversed(self.sizes))

    def redexes(self) -> list[Redex]:
        """Every redex, in (channel uid, rule tag, i, j) order; after a CP
        step, by positions in `term()` where uid and rule tie (`_sorted`)."""
        out: list[Redex] = []
        for b in self.names():
            self._redexes_on(b, out)
        return self._sorted(out)

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
                return self._sorted(out)[0]
            del pending[heapq.heappop(heap)]
        return None

    def _sorted(self, out: list[Redex]) -> list[Redex]:
        """Sort out in redex order.  After a CP step positions are no longer
        the term's, so redexes that tie in (uid, rule) are ordered by their
        positions in `term()`; well-typed terms tie only in the two links of
        a cut between two links."""
        if len(out) < 2:
            return out
        out.sort(key=_redex_order)
        if self.is_cp and self._top is not None and any(
                a.channel.uid == b.channel.uid and a.rule == b.rule for a, b in zip(out, out[1:])):
            order, last = congruence.cut_order(_cp_binders(self._cut.items(), self.slots), len(self.slots))
            rank = [0] * len(self.slots)
            for k, (_, leaf, _, _) in enumerate(order):
                rank[leaf] = k
            rank[last] = len(order)
            out.sort(key=lambda r: (r.channel.uid, _TAG_ORDER[r.rule], rank[r.i], rank[r.j]))
        return out

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
        ps = [bisect_left(slots, s) for s in us]
        link_cls = cp.Link if self.is_cp else hcp.Link
        acting = []  # positions of the components acting on b
        for p in ps:
            c = comps[p]
            if type(c) is link_cls:
                if c.x != c.y:
                    out.append(Redex(RULE_LINK, b, p, min([q for q in ps if q != p])))
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
            fv = self.fvs[r.j]
            if self.is_cp and r.channel not in self.users:
                fv = cp.free_names(comps[r.j])  # CP sets are exact on restricted names only
            if r.channel not in fv:
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
            for x, _ in bs:
                self.users[x] = ()
            for c in cs:
                self._append(c, hcp.free_names(c))
        self._resize(a, tuple(b for _, b in cuts), dropped)

    def _fire_cp(self, r: Redex) -> None:
        ch, i, j, rule = r.channel, r.i, r.j, r.rule
        cut, users = self._cut, self.users
        rec = cut.get(ch)
        if rec is None:
            raise StaleRedexError(f"channel {ch} is not restricted")
        comps, fvs, slots = self.comps, self.fvs, self.slots
        ci, cj, si, sj, fi, fj = comps[i], comps[j], slots[i], slots[j], fvs[i], fvs[j]
        # the continuations to splice in, each with the slot it comes from,
        # and the cuts the step makes: (name, formula, the pieces holding its
        # left and right endpoints)
        pieces, cuts, dropped = (), (), None  # dropped: the branch a selection discards
        if rule == RULE_TENS:
            s = _oriented(ch, rec, si, ty.Tensor)
            pieces = ((ci.payload, si), (ci.cont, si), (terms.substitute(cj.body, ci.y, cj.y), sj))
            cuts = ((ci.y, s.left, 0, 2), (ch, s.right, 1, 2))
        elif rule == RULE_UNIT:
            if type(cj.body) is cp.Cut:
                pieces = ((cj.body, sj),)
        elif rule != RULE_LINK:
            s = _oriented(ch, rec, si, ty.Plus)
            a = s.left if rule == RULE_PLUS1 else s.right
            pieces = ((ci.body, si), (cj.left if rule == RULE_PLUS1 else cj.right, sj))
            dropped = cj.right if rule == RULE_PLUS1 else cj.left
            cuts = ((ch, a, 0, 1),)

        gone = [(si, fi)]  # the slots the step empties, with their free names
        kept = ()  # the slots whose components it rewrites in place
        spliced: dict = {}  # a gone slot -> the slots its endpoints may have moved to
        self._forget(si, fi)
        if rule == RULE_LINK:
            w = ci.y if ci.x == ch else ci.x
            kept = users.pop(ch)
            for s in kept:
                q = bisect_left(slots, s)
                comps[q] = terms.substitute(comps[q], w, ch)
                fvs[q] = fvs[q] - {ch} | {w}
            if w in users:
                users[w] = tuple(set(users[w]).union(kept))
            self._touch((w,))
            spliced[si] = (sj,)
        else:
            if pieces:
                gone.append((sj, fj))
                self._forget(sj, fj)
            else:  # a unit step's one continuation component takes sj's place
                comps[j], fvs[j], kept = cj.body, fj - {ch}, (sj,)
                self._touch(_acts_on(cj.body))
            if not cuts:
                del users[ch]
            for x, *_ in cuts:
                users.setdefault(x, ())
        for p in sorted((i, j)[:len(gone)], reverse=True):
            del comps[p], fvs[p], slots[p]
        fresh = self._next  # the continuations' components take the slots from here on
        new_cuts = []  # (name, formula, left slot, right slot)
        regions = []
        for piece, origin in pieces:
            bs, spans, cs = congruence.cut_spans(piece)
            start = self._next
            for x, _ in bs:
                users[x] = ()
            for c in cs:
                self._append(c, cp.free_names(c))
            for (x, a), span in zip(bs, spans):
                new_cuts.append((x, a, *congruence.ends(users[x], span, start)))
            region = range(start, self._next)
            regions.append(region)
            # an origin's pieces are spliced one after the other
            spliced[origin] = range(spliced[origin].start, self._next) if origin in spliced else region
        for x, a, left, right in cuts:
            new_cuts.append((x, a, _the_comp_with(users[x], regions[left], x),
                             _the_comp_with(users[x], regions[right], x)))
        del cut[ch]
        # an endpoint in a gone slot moves to the one component spliced from
        # it (or the link's partner) that holds the cut's name
        before: dict = {}  # a cut whose endpoint moved -> its record before the step
        for g, fv in gone:
            for x in fv:
                rx = cut.get(x)
                if rx is not None and (rx[1] == g or rx[2] == g):
                    hits = [s for s in users[x] if s in spliced.get(g, ())]
                    s = hits[0] if len(hits) == 1 else None
                    before.setdefault(x, rx)
                    cut[x] = rx[0], s if rx[1] == g else rx[1], s if rx[2] == g else rx[2]
        for x, a, left, right in new_cuts:
            cut[x] = a, left, right
        first = self._top is None
        if any(map(_broken, cut.values() if first else [cut[x] for x in before] + [c[1:] for c in new_cuts])):
            self._refuse(ch, rec, first, before, new_cuts)
        if first:
            self._tied = _tied(cut)
            self._top = max(cut, key=_uid) if cut else None
        else:
            self._retop(kept, fresh, new_cuts)
            self._tied = self._tied or bool(new_cuts) and _tied(cut)
        if self._tied:
            order, _ = congruence.cut_order(_cp_binders(cut.items(), slots), len(slots))
            self._cut = {b.name: (ann, slots[leaf], slots[other]) for b, leaf, other, ann in order}
            self._top = order[-1][0].name if order else None
            self._tied = _tied(self._cut)
        self._resize(rec[0], [c[1] for c in cuts], dropped)

    def _retop(self, kept, fresh: int, new_cuts) -> None:
        """Find the CP cut of largest uid after a step that was not the
        first, kept and the slots from fresh on being what the step wrote.

        The term built after the step before this one nested every cut with
        its root side right, the root being `_top`'s right end.  The step
        keeps a record's sides, and the step's redex was on the root side of
        any other cut.  So if the step removed `_top` and an older cut takes
        its place, that cut's record is turned to put the step's components
        on its right; a new cut keeps the sides the step gave it."""
        cut, top = self._cut, self._top
        if top in cut:
            for x, *_ in new_cuts:
                if x.uid > top.uid:
                    top = x
        elif cut:
            top = max(cut, key=_uid)
            if top not in {c[0] for c in new_cuts}:
                a, left, right = cut[top]
                if self._reaches(left, top, fresh, kept):
                    cut[top] = dual(a), right, left
        else:
            top = None
        self._top = top

    def _reaches(self, start: int, avoid: Name, fresh: int, kept) -> bool:
        """Whether a CP component the step wrote (kept, or in a slot from
        fresh on) is joined to slot start by cuts other than avoid."""
        cut, slots, fvs = self._cut, self.slots, self.fvs
        seen, stack = {start}, [start]
        while stack:
            v = stack.pop()
            if v >= fresh or v in kept:
                return True
            for x in fvs[bisect_left(slots, v)]:
                rx = cut.get(x)
                if rx is not None and x != avoid and (rx[1] == v or rx[2] == v):
                    u = rx[2] if rx[1] == v else rx[1]
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
        return False

    def _refuse(self, ch: Name, rec: tuple, first: bool, before: dict, new_cuts) -> None:
        """Raise `cut_order`'s error for the first CP cut, in the order the
        term built before the step lists its cuts (the term's prenex order
        before the first step), that the step left without two distinct
        endpoints; then the step's new cuts."""
        cut = self._cut
        new = {c[0] for c in new_cuts}
        old = [x for x in cut if x not in new]
        if not (first or self._tied):
            pre = [(x, before.get(x, cut[x])) for x in old] + [(ch, rec)]
            ends = sorted({s for _, (_, left, right) in pre for s in (left, right)})
            order, _ = congruence.cut_order(_cp_binders(pre, ends), len(ends))
            old = [b.name for b, *_ in order if b.name != ch]
        congruence.cut_order([CpBinder(x, *cut[x]) for x in old] + [CpBinder(*c) for c in new_cuts], self._next)

    def _link(self, p: int, ch: Name) -> None:
        """Drop the HCP link at position p, one of whose ends is ch, and put
        its other end for ch in the components ch is free in."""
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
        """Drop the HCP redex's components at positions i and j, and make
        ready the users of the names the step cuts; ch stays restricted only
        if it is one of them."""
        for p in sorted((i, j), reverse=True):
            self._drop(p)
        users = self.users
        if ch not in cut_names:
            del users[ch]
        for x in cut_names:
            users.setdefault(x, ())

    def _drop(self, p: int) -> None:
        """Remove the HCP component at position p."""
        s = self.slots.pop(p)
        del self.comps[p]
        fv = self.fvs.pop(p)
        self._forget(s, fv)
        self._touch(fv)

    def _append(self, c, fv: frozenset[Name]) -> None:
        """Add a component at the end, in a new slot."""
        s = self._next
        self._next += 1
        self.comps.append(c)
        self.fvs.append(fv)
        self.slots.append(s)
        self._add(s, fv)

    def _forget(self, s: int, fv) -> None:
        """Take slot s, whose free names are fv, out of `users`."""
        users = self.users
        for n in fv:
            us = users.get(n)
            if us is not None:
                users[n] = tuple([x for x in us if x != s])

    def _add(self, s: int, fv) -> None:
        """Put slot s, whose free names are fv, into `users`."""
        users = self.users
        for n in fv:
            us = users.get(n)
            if us is not None:
                users[n] = us + (s,)
        self._touch(fv)

    def term(self):
        """The term this configuration stands for.  For CP only once a step
        has been taken: the cuts nested by `congruence.rebuild_cp`."""
        return _build(self.snapshot())

    def snapshot(self) -> tuple:
        """What `term` needs, unaffected by later steps."""
        if self.is_cp:
            return True, (tuple(self._cut), tuple(self._cut.values()), tuple(self.slots)), tuple(self.comps)
        return False, (tuple(self.binders), tuple(self.binders.values())), tuple(self.comps)


def _uid(x: Name) -> int:
    return x.uid


def _redex_order(r: Redex) -> tuple:
    return r.channel.uid, _TAG_ORDER[r.rule], r.i, r.j


def _build(snapshot: tuple):
    is_cp, binders, comps = snapshot
    if is_cp:
        names, records, slots = binders
        t = congruence.rebuild_cp(_cp_binders(zip(names, records), slots), comps)
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
    HCP its restriction map, for CP each cut with the ids of its two
    components and the formula each end has; and the multiset of its
    components' ids."""
    if c.is_cp:
        comp = dict(zip(c.slots, map(id, c.comps)))
        return (frozenset((x, frozenset(((comp[left], a), (comp[right], dual(a)))))
                          for x, (a, left, right) in c._cut.items()),
                tuple(sorted(comp.values())))
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
    reused.  Neither identity depends on the order of the components or on
    which way round a cut's record is written.

    The result is that of the plain BFS:
    - stepping the kept configuration gives the redexes (rule and channel),
      in order, and the reducts of stepping a configuration rebuilt from the
      node's term: HCP's configuration after a step equals the prenex form
      of its term, field for field, and CP's has its cuts and components,
      in another order but with ties broken by positions in the term
      (`Configuration._sorted`);
    - two configurations with one identity rebuild to terms equal up to
      nu-comm, mix-comm and mix-assoc (HCP) or cut-comm and cut-assoc
      (CP), which are congruent;
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
