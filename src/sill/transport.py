"""Derivation transport for HCP reduction: subject reduction as a program.

The proof of preservation (Wadler, "Propositions as Sessions", ICFP 2012;
for HCP, Kokke, Montesi and Peressotti, POPL 2019) takes a derivation apart
at the redex and puts it back together.  `derivations` does the same along
a reduction trace: it builds each reduct's derivation from the one before,
never searching for one.

A reduct is a prenex term (`congruence.rebuild_hcp`): restrictions over a
right-nested mix of components.  Per step,

- a component the step leaves alone keeps its derivation, shared;
- the redex's two components give way to their continuations, whose
  derivations are premises of the redex's "1"/"⊥", "⊗"/"⅋" or "⊕"/"&"
  nodes, taken apart at their own restrictions and mixes;
- a component the step renames in (κ↔ substitutes the link's other end,
  β⊗⅋ the output's payload name for the input's) is walked together with
  its old derivation, renaming the names in every conclusion;
- the H-Cut/H-Mix skeleton is built afresh over the reduct's own nodes, each
  conclusion as the checker builds it.

So a step makes the skeleton and the renamed nodes, and shares every other
node with the derivation before.  The nodes it makes are returned with the
derivation, for the caller to check: they are the only ones not checked at
an earlier step.  The transport checks nothing itself beyond what it needs
to line the derivation up with the term.
"""
from __future__ import annotations

from . import hcp, reduction, terms
from .terms import SCHEMA
from .typecheck import Derivation


class TransportError(Exception):
    """The derivation does not line up with the reduct."""


# per β rule: the rules of the redex's two components' nodes, and the
# premise of the second that is its continuation
_BETA = {
    reduction.RULE_TENS: ("⊗", "⅋", 0),
    reduction.RULE_UNIT: ("1", "⊥", 0),
    reduction.RULE_PLUS1: ("⊕₁", "&", 0),
    reduction.RULE_PLUS2: ("⊕₂", "&", 1),
}


def derivations(d: Derivation, steps):
    """Yield (step, derivation of the step's reduct, the nodes made for it)
    for each of steps, the steps of a `reduction.reduce` trace of d's term.
    The nodes made for a step are in no derivation yielded before, nor in d.
    A term the reduction freshens is transported to its freshened form
    first, and those nodes count as made for the first step."""
    made: list[Derivation] = []
    fresh = terms.freshen_if_needed(d.term)
    if fresh is not d.term:
        d = _carry(d, fresh, {}, made)
    comps = _components(d)
    for st in steps:
        root, comps = _skeleton(st.term, _step(comps, st.redex), made)
        yield st, root, made
        made = []


def _components(d: Derivation) -> list[Derivation]:
    """The derivations of the components of d.term, left to right, as
    `congruence.spine_hcp` lists them: d taken apart at its H-Cut and H-Mix
    nodes, its H-Mix₀ nodes dropped."""
    out = []
    stack = [d]
    while stack:
        d = stack.pop()
        if d.rule == "H-Cut":
            stack.append(d.premises[0])
        elif d.rule == "H-Mix":
            stack += reversed(d.premises)
        elif d.rule != "H-Mix₀":
            out.append(d)
    return out


def _step(prev: list[Derivation], r: reduction.Redex) -> list[tuple[Derivation, dict]]:
    """(derivation, renaming) per component of the reduct after step r,
    where prev derives the components before it: the derivation derives the
    component up to the renaming.  The order is the one
    `reduction.Configuration` leaves: the kept components in place, then the
    continuations' components."""
    if not (0 <= r.i < len(prev) and 0 <= r.j < len(prev) and r.i != r.j):
        raise TransportError(f"redex positions {r.i}, {r.j} outside {len(prev)} components")
    di, dj = prev[r.i], prev[r.j]
    if r.rule == reduction.RULE_LINK:
        link = di.term
        if type(link) is not hcp.Link:
            raise TransportError(f"κ↔ on {r.channel} fires a {di.rule} node")
        w = link.y if link.x == r.channel else link.x
        pairs = [(d, {r.channel: w}) for p, d in enumerate(prev) if p != r.i]
    else:
        ri, rj, k = _BETA[r.rule]
        if (di.rule, dj.rule) != (ri, rj):
            raise TransportError(f"{r.rule} on {r.channel} fires {di.rule} and {dj.rule} nodes")
        # the receiver's continuation names the payload by the sender's bound name
        rename = {dj.term.y: di.term.y} if r.rule == reduction.RULE_TENS else {}
        pairs = [(d, {}) for p, d in enumerate(prev) if p not in (r.i, r.j)]
        pairs += [(d, {}) for d in _components(di.premises[0])]
        pairs += [(d, rename) for d in _components(dj.premises[k])]
    return pairs


def _carry(d: Derivation, t, ren: dict, made: list) -> Derivation:
    """A derivation of t from d, a derivation of a term that t renames: each
    free name n that ren holds becomes ren[n], and a binder becomes t's.  d
    itself if t is its term and nothing is renamed; otherwise one walk down d
    and t together, premises in `SCHEMA` subterm order, sharing every subtree
    that comes out the same and adding each new node to made.  d may be a
    CP derivation too, whose conclusion (a dict) is renamed as one sequent."""
    out: list[Derivation] = []
    stack: list[tuple] = [(d, t, ren, False)]
    while stack:
        d, t, ren, built = stack.pop()
        if built:
            k = len(d.premises)
            premises = tuple(out[len(out) - k:])
            del out[len(out) - k:]
            env = d.env
            if ren:
                env = _renamed(env, ren) if type(env) is dict else [_renamed(e, ren) for e in env]
            node = Derivation(d.rule, t, env, premises)
            made.append(node)
            out.append(node)
            continue
        sequents = (d.env,) if type(d.env) is dict else d.env
        if t is d.term and not any(n in e for e in sequents for n in ren):
            out.append(d)
            continue
        s = SCHEMA[type(t)]
        if type(t) is not type(d.term) or len(d.premises) != len(s.subterms):
            raise TransportError(f"a {d.rule} node does not derive a {type(t).__name__} term")
        inner = ren
        if s.binder is not None:
            old, new = getattr(d.term, s.binder), getattr(t, s.binder)
            if old in ren or old != new:
                inner = {n: m for n, m in ren.items() if n != old}
                if old != new:
                    inner[old] = new
        stack.append((d, t, ren, True))
        for p, f in reversed(list(zip(d.premises, s.subterms))):
            stack.append((p, getattr(t, f), inner if f in s.inside else ren, False))
    return out[0]


def _renamed(e: dict, ren: dict) -> dict:
    if not any(n in ren for n in e):
        return e
    out = {ren.get(n, n): a for n, a in e.items()}
    if len(out) != len(e):
        raise TransportError("a renaming joins two names of one sequent")
    return out


def _skeleton(t, pairs: list[tuple[Derivation, dict]], made: list) -> tuple[Derivation, list[Derivation]]:
    """The derivation of t, and those of its components, left to right: each
    component's from its pair, by `_carry`, and an H-Cut, H-Mix or H-Mix₀
    node for each restriction, mix or inert process around them, concluding
    what the checker concludes there."""
    pairs = iter(pairs)
    comps: list[Derivation] = []
    out: list[Derivation] = []
    stack: list[tuple] = [(t, False)]
    while stack:
        t, built = stack.pop()
        cls = type(t)
        if cls is hcp.New:
            if not built:
                stack += ((t, True), (t.body, False))
                continue
            out[-1] = _cut(t, out[-1])
        elif cls is hcp.Par:
            if not built:
                stack += ((t, True), (t.right, False), (t.left, False))
                continue
            dq = out.pop()
            dp = out.pop()
            out.append(Derivation("H-Mix", t, dp.env + dq.env, (dp, dq)))
        elif cls is hcp.Inert:
            out.append(Derivation("H-Mix₀", t, [], ()))
        else:
            d, ren = next(pairs, (None, None))
            if d is None:
                raise TransportError("the reduct has more components than the step leaves")
            comps.append(_carry(d, t, ren, made))
            out.append(comps[-1])
            continue
        made.append(out[-1])
    if next(pairs, None) is not None:
        raise TransportError("the reduct has fewer components than the step leaves")
    return out[0], comps


def _cut(t: hcp.New, d: Derivation) -> Derivation:
    """The H-Cut node on t over d: the two sequents holding t.x merged at the
    first one's place, without t.x."""
    x = t.x
    idxs = [i for i, e in enumerate(d.env) if x in e]
    if len(idxs) != 2:
        raise TransportError(f"restricted channel {x} is in {len(idxs)} sequents, not 2")
    i, j = idxs
    merged = {n: a for n, a in d.env[i].items() if n != x}
    merged.update((n, a) for n, a in d.env[j].items() if n != x)
    part = d.env.copy()
    part[i] = merged
    del part[j]
    return Derivation("H-Cut", t, part, (d,))
