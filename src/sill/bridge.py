"""Executable relations between CP and HCP.

translate_typed pairs each node of a CP derivation with its image under the
term translation (`translate`), giving the HCP derivation of the image: a
cut becomes a mix under a hyper-cut, an output a mix under an output, a halt
the inert axiom under the unit rule.  Disentanglement reads an HCP
derivation back as CP derivations, one per member environment, in one pass:
every mix is pushed to the root or under the hyper-cut or output it feeds,
which becomes a CP cut or output.  Internalization collapses environments to
single formulas with process witnesses.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from . import congruence, cp, hcp, reduction, terms, transport
from . import types as ty
from .names import fresh
from .translate import MIXED, cp_to_hcp, from_image
from .typecheck import Derivation, env_key, revalidate
from .types import BOT, ONE, Type


class BridgeError(Exception):
    pass


class SimulationError(BridgeError):
    pass


# -- typed translation --------------------------------------------------------


def translate_typed(d: Derivation) -> Derivation:
    """Image of a CP derivation under the term translation, as an HCP
    derivation of the same (single-sequent) environment."""
    if not revalidate(d):
        raise BridgeError("translate_typed requires a locally valid CP derivation")
    return _tt(d, cp_to_hcp(d.term))


def _tt(d: Derivation, h: hcp.HcpTerm) -> Derivation:
    """The HCP derivation of h, the image of d's term: d's rule (a cut's is
    H-Cut) over its premises paired with h's subterms (`body`, or `left` and
    `right`), or, for a `MIXED` constructor, over the mix of them in h.body."""
    rule, env, ps = "H-Cut" if d.rule == "Cut" else d.rule, [dict(d.env)], d.premises
    if d.term.__class__ in MIXED:
        m = h.body
        ps = (_tt(ps[0], m.left), _tt(ps[1], m.right)) if ps else ()
        return Derivation(rule, h, env, (Derivation("H-Mix" if ps else "H-Mix₀", m, [c.env[0] for c in ps], ps),))
    if len(ps) == 2:
        return Derivation(rule, h, env, (_tt(ps[0], h.left), _tt(ps[1], h.right)))
    return Derivation(rule, h, env, (_tt(ps[0], h.body),) if ps else ())


# -- operational correspondence -----------------------------------------------


def simulate_forward(p: cp.CpTerm, trace: reduction.ReductionTrace) -> bool:
    """Each CP step of the trace is matched by an HCP step of the image,
    up to structural congruence."""
    h = cp_to_hcp(p)
    for st in trace.steps:
        target = cp_to_hcp(st.term)
        want = congruence.levels(target)
        if not any(congruence.match(congruence.levels(t2), want) for _, t2 in reduction.successors(h)):
            return False
        h = target
    return True


def simulate_backward(p: cp.CpTerm, r: hcp.HcpTerm) -> cp.CpTerm:
    """Given an HCP step image(p) ⟹ r, find q with p ⟹ q and r ≡ image(q)."""
    want = congruence.levels(r)
    for _, q in reduction.successors(p):
        if congruence.match(want, congruence.levels(cp_to_hcp(q))):
            return q
    raise SimulationError("no CP step matches the HCP reduct; the reflection theorem would be violated")


# -- disentanglement ----------------------------------------------------------


@dataclass
class DisentangleResult:
    components: list[Derivation]  # CP derivations, one per member environment
    recombined: hcp.HcpTerm  # mix of the component images
    log: list[str]


def disentangle(d: Derivation) -> DisentangleResult:
    if not revalidate(d):
        raise BridgeError("disentangle requires a locally valid HCP derivation")
    log: list[str] = []
    comps = _split(d, log)
    return DisentangleResult(comps, congruence.rebuild_hcp([], [cp_to_hcp(c.term) for c in comps]), log)


def _split(d: Derivation, log: list[str]) -> list[Derivation]:
    """Read d back as CP derivations, one per member environment, in post-order:
    every H-Mix is pushed to the root or under the hyper-cut or output that
    joins its two sides, which becomes a CP cut or output."""
    t = d.term
    match d.rule:
        case "H-Mix₀":
            return []
        case "H-Mix":
            return _split(d.premises[0], log) + _split(d.premises[1], log)
        case "Ax" | "⊤":
            return [Derivation(d.rule, from_image(t), dict(d.env[0]), ())]
        case "&":
            c1, c2 = _split(d.premises[0], log), _split(d.premises[1], log)
            if len(c1) != 1 or len(c2) != 1:
                raise BridgeError("offer branches must be single sequents")
            return [Derivation("&", from_image(t, c1[0].term, c2[0].term), dict(d.env[0]), (c1[0], c2[0]))]
        case "1":
            comps = _split(d.premises[0], log)
            if comps:
                log.append(f"split the unit output on {t.x} from its continuation (non-congruent)")
            return comps + [Derivation("1", cp.Halt(t.x), {t.x: ONE}, ())]
        case "H-Cut":
            comps = _split(d.premises[0], log)
            idxs = [i for i, c in enumerate(comps) if t.x in c.env]
            if len(idxs) != 2:
                raise BridgeError(f"hyper-cut on {t.x} does not connect two components")
            others = [c for k, c in enumerate(comps) if k not in idxs]
            log.extend(f"pushed a mix below the cut on {t.x}" for _ in others)
            left, right = (comps[i] for i in idxs)
            env = {n: a for c in (left, right) for n, a in c.env.items() if n != t.x}
            return others + [Derivation("Cut", cp.Cut(t.x, left.env[t.x], left.term, right.term), env, (left, right))]
        case "⊗":
            comps = _split(d.premises[0], log)
            iy = next((i for i, c in enumerate(comps) if t.y in c.env), None)
            ix = next((i for i, c in enumerate(comps) if t.x in c.env), None)
            if iy is None or ix is None:
                raise BridgeError(f"output on {t.x} lost its payload or continuation component")
            if iy == ix:
                raise BridgeError(f"output on {t.x} has entangled payload and continuation")
            others = [c for k, c in enumerate(comps) if k not in (iy, ix)]
            log.extend(f"pushed a mix below the output on {t.x}" for _ in others)
            left, right = comps[iy], comps[ix]
            env = {n: a for c, x in ((left, t.y), (right, t.x)) for n, a in c.env.items() if n != x}
            env[t.x] = ty.Tensor(left.env[t.y], right.env[t.x])
            return others + [Derivation("⊗", cp.Send(t.x, t.y, left.term, right.term), env, (left, right))]
        case "⊥":
            gamma = {n: a for e in d.env if t.x in e for n, a in e.items() if n != t.x}
            others, inner = _unary(d, "wait", lambda e: e == gamma, log,
                                   f"no component matches the environment extended by the wait on {t.x}")
            env = {**inner.env, t.x: BOT}
        case "⅋":
            others, inner = _unary(d, "input", lambda e: t.y in e, log, f"input on {t.x} lost its payload component")
            if t.x not in inner.env:
                raise BridgeError(f"input on {t.x} has split payload and continuation")
            env = {n: a for n, a in inner.env.items() if n not in (t.x, t.y)}
            env[t.x] = ty.Par(inner.env[t.y], inner.env[t.x])
        case "⊕₁" | "⊕₂":
            others, inner = _unary(d, "selection", lambda e: t.x in e, log,
                                   f"selection on {t.x} lost its continuation component")
            env = {**inner.env, t.x: next(e[t.x] for e in d.env if t.x in e)}
        case _:
            raise BridgeError(f"unknown HCP rule {d.rule}")
    return others + [Derivation(d.rule, from_image(t, inner.term), env, (inner,))]


def _unary(d: Derivation, what: str, holds, log: list[str], missing: str):
    """Split d's premise and take out the first component whose environment
    holds: (the other components, it), logging the mix pushed out of the
    `what` on d's subject if others remain."""
    comps = _split(d.premises[0], log)
    i = next((k for k, c in enumerate(comps) if holds(c.env)), None)
    if i is None:
        raise BridgeError(missing)
    others = comps[:i] + comps[i + 1:]
    if others:
        log.append(f"pushed a mix out of the {what} on {d.term.x} (non-congruent)")
    return others, comps[i]


# -- internalization ----------------------------------------------------------


def _fold(connective, parts: list, unit: Type) -> Type:
    """The parts joined by the connective, right-associated; unit if none."""
    return functools.reduce(lambda acc, a: connective(a, acc), reversed(parts[:-1]), parts[-1]) if parts else unit


def bigparr(env: dict) -> Type:
    """Collapse an environment to one par formula, right-associated over the
    canonical (internal index) name order; the empty environment gives bot."""
    return _fold(ty.Par, [env[n] for n in sorted(env, key=lambda n: n.uid)], BOT)


def bigtens(part: list) -> Type:
    """Collapse a hyper-environment to one tensor formula; the empty
    hyper-environment gives 1."""
    return _fold(ty.Tensor, [bigparr(e) for e in sorted(part, key=env_key)], ONE)


def _parr_collapse(d: Derivation) -> Derivation:
    """Chain of inputs over the last-canonical carrier channel, typing the
    process at the single formula bigparr of its environment; d must be a
    valid CP derivation with a nonempty environment."""
    *names, z = sorted(d.env, key=lambda n: n.uid)
    cur = d
    for n in reversed(names):
        env = {k: v for k, v in cur.env.items() if k not in (n, z)}
        env[z] = ty.Par(cur.env[n], cur.env[z])
        cur = Derivation("⅋", cp.Recv(z, n, cur.term), env, (cur,))
    return cur


def tens_internalize(d: Derivation) -> Derivation:
    """Witness that the hyper-environment, collapsed as a series of tensors,
    is inhabited in CP."""
    if isinstance(d.env, dict):
        raise BridgeError("tens_internalize expects an HCP derivation")
    if not revalidate(d):
        raise BridgeError("tens_internalize requires a locally valid derivation")
    if not d.env:
        z = fresh("z")
        return Derivation("1", cp.Halt(z), {z: ONE}, ())
    # d is valid, so its components are valid CP derivations with nonempty
    # environments: they go to the unchecked helpers
    comps = sorted(_split(d, []), key=lambda c: env_key(c.env))
    *firsts, last = [_parr_collapse(c) for c in comps]
    if not firsts:
        return last
    z = fresh("z")
    (zl,) = last.env
    cur = transport._carry(last, terms.substitute(last.term, z, zl), {zl: z}, [])
    for dd in reversed(firsts):
        (zi,) = dd.env
        y = fresh(zi.surface)
        dl = transport._carry(dd, terms.substitute(dd.term, y, zi), {zi: y}, [])
        cur = Derivation("⊗", cp.Send(z, y, dl.term, cur.term), {z: ty.Tensor(dl.env[y], cur.env[z])}, (dl, cur))
    return cur
