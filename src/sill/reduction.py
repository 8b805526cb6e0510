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
  by slot and adds the prenex levels of their continuations in new slots.
  HCP appends them; that is the HCP order.  CP keeps its components in the
  order in which `congruence.rebuild_cp` nests the cut tree
  (`congruence.cut_order`), so redex indices are those of the rebuilt
  term, and each cut's endpoints are the leaf and the other end `cut_order`
  gives it.  Those are the rebuilt term's as long as no cut's name is free
  in more than two components, as in every well-typed term and every term
  it reduces to.  The first CP step orders every cut; later ones keep the
  order and move only the components whose parent cut or subtree the step
  changes (`Configuration._place`), so a step costs its redex's work and
  list shifts, not a pass over every cut.
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
from operator import itemgetter

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


_GAP = 1 << 20  # the spacing of fresh CP position labels
_BOUND = itemgetter(2)  # a `_cuts` entry's bound


class Configuration:
    """A term in prenex form, which `fire` rewrites in place (see the module
    docstring).

    `binders`: for CP a list of `CpBinder`s whose endpoints are component
    positions; for HCP a dict from each restricted name to its type, in
    prenex order.  `comps` and `fvs`: the components left to right and their
    free names (for CP exact on the restricted names: a unit step whose
    continuation keeps its component's slot drops the consumed channel from
    the set without looking into the continuation).  `slots` holds each
    position's slot, a component's identity.  `users`: each restricted
    name's components, those it is free in, as slots.  Components are
    removed by slot and added in new slots, so `users` entries of the other
    components never change.

    HCP slots ascend: a step drops components with `_drop` and appends its
    continuations with `_append`, so a slot's position is a bisection of
    `slots`, and `users` lists slots in ascending order.

    CP components sit in cut order, the order in which `congruence.rebuild_cp`
    nests the cut tree (`congruence.cut_order`): position k < n - 1 holds the
    leaf of the k-th cut, and `_cuts[k]` that cut's name, its formula on the
    leaf's side and the leaf's bound (below); the last position holds the
    root, the component left at the end.  `_cut` maps each cut to (that
    formula, leaf slot, other slot).  Before the first step `_cuts` and
    `_cut` hold the term's prenex binders instead, and `_root` is None.  A
    position's label (`_labels`, ascending; `_label` by slot) locates a slot
    by bisection, and a component put back takes a label between its new
    neighbours.  The first step, and any step that leaves two cuts with one
    uid, places every component with `cut_order` (`_order_all`).  Later
    steps keep the order by what it is: the tree rooted at the other end of
    the cut of largest uid, its other components sorted by their bound, the
    largest uid among their parent cut and the cuts below them, and the
    components of one bound, a path up from the cut that bounds them, bottom
    up.  `_place` moves only the components whose parent cut or bound the
    step changes (see there).  `_uids` holds the cuts' uids.  `sizes`: the
    measure in ascending order, if asked for.

    `first_redex` keeps the uids of the restricted names that may have a
    redex in a heap.  A name leaves it when found without one, and returns
    when a component that mentions it is added or acts on it anew, or when
    a link step substitutes it (`_touch`), the only events that can give it
    one."""

    __slots__ = ("is_cp", "_restricted", "comps", "fvs", "slots", "users", "sizes", "_next", "_heap", "_pending",
                 "_cuts", "_cut", "_labels", "_label", "_uids", "_root")

    def __init__(self, t, with_measure: bool = False):
        self.is_cp = isinstance(t, cp.CpTerm)
        t = terms.freshen_if_needed(t)
        if self.is_cp:
            cuts, comps, fvs, users = congruence.spine_cp(t)
            self._cuts = [(x, a, None) for x, a, _, _ in cuts]
            self._cut = {x: (a, left, right) for x, a, left, right in cuts}
            self._labels = list(range(len(comps)))
            self._label = dict(enumerate(self._labels))
            self._root = None  # not in cut order before the first step
        else:
            binders, comps = congruence.spine_hcp(t)
            self._restricted = dict(binders)
            fvs = [hcp.free_names(c) for c in comps]
            users = congruence.free_in(self._restricted, fvs)
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
            c._cuts, c._cut, c._root = list(self._cuts), dict(self._cut), self._root
            c._labels, c._label = list(self._labels), dict(self._label)
            if self._root is not None:
                c._uids = set(self._uids)
        else:
            c._restricted = dict(self._restricted)
        return c

    @property
    def binders(self):
        """See the class docstring; for CP a new list on every read."""
        if not self.is_cp:
            return self._restricted
        cut, pos = self._cut, self._pos
        out = []
        for x, _, _ in self._cuts:
            a, left, right = cut[x]
            out.append(CpBinder(x, a, None if left is None else pos(left), None if right is None else pos(right)))
        return out

    def names(self) -> list[Name]:
        """The restricted names, in prenex order."""
        return [e[0] for e in self._cuts] if self.is_cp else list(self._restricted)

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

    def _pos(self, s: int) -> int:
        """The position of the CP component in slot s."""
        return bisect_left(self._labels, self._label[s])

    def _redexes_on(self, b: Name, out: list[Redex]) -> None:
        """Add the redexes on the restricted name b to out.  A link on b
        pairs with the first other component b is free in."""
        us = self.users[b]
        if len(us) < 2:
            return
        comps = self.comps
        if self.is_cp:
            labels, label = self._labels, self._label
            ps = [bisect_left(labels, label[s]) for s in us]
            link_cls = cp.Link
        else:
            slots = self.slots
            ps = [bisect_left(slots, s) for s in us]
            link_cls = hcp.Link
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
        binders, comps = self._restricted, self.comps
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
        comps, fvs = self.comps, self.fvs
        ci, cj, si, sj, fi, fj = comps[i], comps[j], self.slots[i], self.slots[j], fvs[i], fvs[j]
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
                q = self._pos(s)
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
        new = []  # (slot, component, free names) spliced in, placed below
        new_cuts = []  # (name, formula, left slot, right slot)
        regions = []
        for piece, origin in pieces:
            bs, spans, cs = congruence.cut_spans(piece)
            start = s = self._next
            for x, _ in bs:
                users[x] = ()
            for c in cs:
                fv = cp.free_names(c)
                new.append((s, c, fv))
                self._add(s, fv)
                s += 1
            self._next = s
            for (x, a), span in zip(bs, spans):
                new_cuts.append((x, a, *congruence.ends(users[x], span, start)))
            region = range(start, s)
            regions.append(region)
            # an origin's pieces are spliced one after the other
            spliced[origin] = range(spliced[origin].start, s) if origin in spliced else region
        for x, a, left, right in cuts:
            new_cuts.append((x, a, _the_comp_with(users[x], regions[left], x),
                             _the_comp_with(users[x], regions[right], x)))
        del cut[ch]
        # _place needs cut order before the step, ch joining the redex's two
        # components, and a link's channel free in its partner alone
        regular = (self._root is not None and (rec[1] == si and rec[2] == sj or rec[1] == sj and rec[2] == si)
                   and kept == (() if pieces else (sj,)))
        # an endpoint in a gone slot moves to the one component spliced from
        # it (or the link's partner) that holds the cut's name
        landed: dict = {}  # a new or kept slot -> the cuts the step gave an end there
        for g, fv in gone:
            for x in fv:
                rx = cut.get(x)
                if rx is not None and (rx[1] == g or rx[2] == g):
                    hits = [s for s in users[x] if s in spliced.get(g, ())]
                    s = hits[0] if len(hits) == 1 else None
                    rx = cut[x] = rx[0], s if rx[1] == g else rx[1], s if rx[2] == g else rx[2]
                    if s is None or rx[1] == rx[2]:
                        regular = False
                    else:
                        landed.setdefault(s, []).append(x)
        for x, a, left, right in new_cuts:
            cut[x] = a, left, right
            if left is None or right is None:
                regular = False
            else:
                landed.setdefault(left, []).append(x)
                landed.setdefault(right, []).append(x)
        if not (regular and self._place(ch, rec, gone, kept, landed, new, new_cuts)):
            self._order_all(ch, gone, new, new_cuts)
        self._resize(rec[0], [c[1] for c in cuts], dropped)

    def _order_all(self, ch: Name, gone, new, new_cuts) -> None:
        """Place every CP component in cut order with `congruence.cut_order`,
        which raises if the cuts are no tree, and index the order."""
        gone_slots = {g for g, _ in gone}
        keep = [k for k, s in enumerate(self.slots) if s not in gone_slots]
        comps = [self.comps[k] for k in keep] + [c for _, c, _ in new]
        fvs = [self.fvs[k] for k in keep] + [fv for _, _, fv in new]
        slots = [self.slots[k] for k in keep] + [s for s, _, _ in new]
        at = {s: p for p, s in enumerate(slots)}
        cut = self._cut
        binders = [(x, *cut[x]) for x, _, _ in self._cuts if x != ch] + new_cuts
        order, last = congruence.cut_order(
            [CpBinder(x, a, at.get(left), at.get(right)) for x, a, left, right in binders], len(comps))
        seq = [leaf for _, leaf, _, _ in order]
        seq.append(last)
        self.comps = [comps[p] for p in seq]
        self.fvs = [fvs[p] for p in seq]
        self.slots = [slots[p] for p in seq]
        self._labels = list(range(0, len(seq) * _GAP, _GAP))
        self._label = dict(zip(self.slots, self._labels))
        self._cut = {b.name: (ann, slots[leaf], slots[other]) for b, leaf, other, ann in order}
        # each component's bound: the largest uid among its parent cut and
        # the bounds of its children, which cut order puts before it
        self._cuts, below = [], {}
        for b, leaf, other, ann in order:
            h = b.name.uid
            if leaf in below and below[leaf] > h:
                h = below[leaf]
            self._cuts.append((b.name, ann, h))
            if other not in below or h > below[other]:
                below[other] = h
        self._uids = {b.name.uid for b, *_ in order}
        # cut_order breaks a tie in uids by list position, which _place does not keep
        self._root = slots[last] if len(self._uids) == len(order) else None

    def _place(self, ch: Name, rec: tuple, gone, kept, landed, new, new_cuts) -> bool:
        """Put the CP components in cut order again after a step that left a
        tree, keeping the other components in place.  The step removed the
        cut ch (record rec) and the gone slots, and spliced in new components
        and cuts; kept slots hold rewritten components, and landed lists,
        per new or kept slot, the cuts the step gave an end there.  Returns
        False, having placed nothing, if a new cut's uid ties with another's
        or no cut is left.

        The components whose place can change are the region (the new and
        kept ones), those between the old and the new root, whose parent cut
        turns, and the ancestors of the region whose bound changes.  They are
        found by walking from the new root, and from the region's exit if
        that walk misses the region, towards the old root, stopping at
        components whose parent cut and subtree stay.  They are bounded bottom
        up and put back: a component whose bound is its parent cut in front of
        the first component with a bound at least as large, another right
        after its child with the same bound."""
        cut, cuts, pos, uids = self._cut, self._cuts, self._pos, self._uids
        # the largest cut is the last in cut order, or the head of the last
        # but one subtree if the step removed it
        top = None
        if cuts:
            top = cuts[-1][0]
            if top == ch:
                top = cuts[bisect_left(cuts, cuts[-2][2], key=_BOUND)][0] if len(cuts) > 1 else None
        uids.discard(ch.uid)
        for c in new_cuts:
            x = c[0]
            if x.uid in uids:
                return False
            uids.add(x.uid)
            if top is None or x.uid > top.uid:
                top = x
        if top is None:
            return False
        if len(self.comps) - len(gone) + len(new) == 2:
            # one cut between two components: its left end, then its right
            a, left, right = cut[top]
            both = dict(zip(self.slots, zip(self.comps, self.fvs)))
            for s, c, fv in new:
                both[s] = c, fv
            self.slots, self._cuts, self._root = [left, right], [(top, a, top.uid)], right
            self.comps, self.fvs = [both[left][0], both[right][0]], [both[left][1], both[right][1]]
            self._labels = [0, _GAP]
            self._label = {left: 0, right: _GAP}
            return True
        root = cut[top][2]  # the largest cut's other end
        fresh = {s: (c, fv) for s, c, fv in new}
        n = len(cuts)

        def links(v: int) -> list[Name]:
            if v in fresh:
                return landed[v]
            return [x for x in self.fvs[pos(v)] if (rx := cut.get(x)) is not None and (rx[1] == v or rx[2] == v)]

        par: dict = {}  # a component whose parent cut may change -> that cut (None: the root)
        walked: list[int] = []  # those components, each after its parent

        def walk(v: int, e) -> None:
            stack = [(v, e)]
            while stack:
                v, e = stack.pop()
                par[v] = e
                walked.append(v)
                out = landed.get(v, ())
                if v not in fresh:
                    k = pos(v)
                    if k < n and cuts[k][0] in cut:
                        out = [*out, cuts[k][0]]
                for x in out:
                    if x != e:
                        rx = cut[x]
                        u = rx[2] if rx[1] == v else rx[1]
                        if u in fresh or u in kept or (k := pos(u)) >= n or cuts[k][0] != x:
                            stack.append((u, x))

        bound: dict = {}  # component -> its new bound
        via: dict = {}  # component -> its child with the same bound, None if its parent cut is that bound

        def settle(v: int, e: Name) -> int:
            best, carrier = e.uid, None
            for x in links(v):
                if x != e:
                    rx = cut[x]
                    c = rx[2] if rx[1] == v else rx[1]
                    h = bound[c] if c in bound else cuts[pos(c)][2]
                    if h > best:
                        best, carrier = h, c
            bound[v], via[v] = best, carrier
            return best

        walk(root, None)
        split = len(walked)
        if (next(iter(fresh)) if fresh else kept[0]) not in par:
            # the region hangs below the old root's side: enter it by the
            # parent cut of ch's upper end, which is kept or moved into it
            p = rec[2]
            e = cuts[pos(p)][0]
            walk(p if p in kept else cut[e][1], e)
        moves = []
        for v in reversed(walked[split:]):
            settle(v, par[v])
            moves.append((v, par[v]))
        if split < len(walked):
            v = cut[par[walked[split]]][2]
            while v not in par:
                k = pos(v)
                if k >= n or settle(v, cuts[k][0]) == cuts[k][2]:
                    break
                e = cuts[k][0]
                moves.append((v, e))
                v = cut[e][2]
        for v in reversed(walked[:split]):
            e = par[v]
            if e is not None:
                settle(v, e)
                moves.append((v, e))

        stays = root == self._root
        out = [pos(g) for g, _ in gone]
        out += [pos(v) for v, _ in moves if v not in fresh]
        if not stays and root not in fresh:
            out.append(pos(root))
        out.sort(reverse=True)
        held = {}
        slots, comps, fvs, labels, label = self.slots, self.comps, self.fvs, self._labels, self._label
        for k in out:
            s = slots.pop(k)
            held[s] = comps.pop(k), fvs.pop(k)
            del label[s], labels[k]
            if k < len(cuts):
                del cuts[k]
        for v, e in moves:
            a, left, right = cut[e]
            if left == v:
                other = right
            else:
                other, a = left, dual(a)
            cut[e] = a, v, other
            h = bound[v]
            k = bisect_left(cuts, h, key=_BOUND) if via[v] is None else pos(via[v]) + 1
            self._insert(k, v, fresh[v] if v in fresh else held[v], (e, a, h))
        if not stays:
            self._insert(len(comps), root, fresh[root] if root in fresh else held[root], None)
        self._root = root
        return True

    def _insert(self, k: int, s: int, comp_fv: tuple, entry) -> None:
        """Put the CP component and free names comp_fv in slot s at position
        k, with its `_cuts` entry unless it is the root."""
        labels = self._labels
        if k == len(labels):
            label = labels[-1] + _GAP if labels else 0
        elif k == 0:
            label = labels[0] - _GAP
        else:
            if labels[k] - labels[k - 1] < 2:
                self._labels = labels = list(range(0, len(labels) * _GAP, _GAP))
                self._label = dict(zip(self.slots, labels))
            label = (labels[k - 1] + labels[k]) // 2
        labels.insert(k, label)
        self._label[s] = label
        self.slots.insert(k, s)
        self.comps.insert(k, comp_fv[0])
        self.fvs.insert(k, comp_fv[1])
        if entry is not None:
            self._cuts.insert(k, entry)

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
        """Add an HCP component at the end, in a new slot."""
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
        has put the components in nesting order."""
        return _build(self.snapshot())

    def snapshot(self) -> tuple:
        """What `term` needs, unaffected by later steps."""
        if self.is_cp:
            return True, tuple(self._cuts), tuple(self.comps)
        return False, (tuple(self._restricted), tuple(self._restricted.values())), tuple(self.comps)


def _redex_order(r: Redex) -> tuple:
    return r.channel.uid, _TAG_ORDER[r.rule], r.i, r.j


def _build(snapshot: tuple):
    is_cp, binders, comps = snapshot
    if is_cp:
        t = comps[-1]
        for (x, a, _), c in zip(reversed(binders), reversed(comps[:-1])):
            t = cp.Cut(x, a, c, t)
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
    HCP its restriction map and the multiset of its components' ids; for CP
    its cuts (name, formula on the leaf's side, bound) and its components'
    ids, in order, from which the endpoint positions follow."""
    if c.is_cp:
        return tuple(c._cuts), tuple(map(id, c.comps))
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
    reused.  A CP identity lists the cuts and the components in order: a
    stepped CP configuration keeps its components in the order
    `congruence.cut_order` gives the cut tree, which depends only on the
    tree and the uids, whichever steps led to it.

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
