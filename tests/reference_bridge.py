"""The CP→HCP bridge as it was when typed translation rebuilt every image
node itself and disentanglement built fused HCP derivations and inverted them,
kept verbatim as the reference for `test_bridge_reference.py`: `cp_to_hcp`,
`translate_typed` with `_tt`, `disentangle` with `_split` and `_invert`, and
`tens_internalize` with `parr_collapse`, `_rename_free` and `carrier`."""
from __future__ import annotations

from dataclasses import dataclass

from sill import cp, hcp, terms
from sill import types as ty
from sill.bridge import BridgeError
from sill.names import Name, fresh
from sill.typecheck import Derivation, env_key, revalidate
from sill.types import BOT, ONE


def cp_to_hcp(t: cp.CpTerm) -> hcp.HcpTerm:
    match t:
        case cp.Link(x, y):
            return hcp.Link(x, y)
        case cp.Cut(x, ty, p, q):
            return hcp.New(x, ty, hcp.Par(cp_to_hcp(p), cp_to_hcp(q)))
        case cp.Send(x, y, p, q):
            return hcp.BoundOut(x, y, hcp.Par(cp_to_hcp(p), cp_to_hcp(q)))
        case cp.Recv(x, y, p):
            return hcp.In(x, y, cp_to_hcp(p))
        case cp.Halt(x):
            return hcp.OutUnit(x, hcp.Inert())
        case cp.Wait(x, p):
            return hcp.InUnit(x, cp_to_hcp(p))
        case cp.Inl(x, p):
            return hcp.Inl(x, cp_to_hcp(p))
        case cp.Inr(x, p):
            return hcp.Inr(x, cp_to_hcp(p))
        case cp.Case(x, p, q):
            return hcp.Case(x, cp_to_hcp(p), cp_to_hcp(q))
        case cp.Absurd(x):
            return hcp.Absurd(x)
    raise TypeError(f"not a cp term: {t!r}")


def translate_typed(d: Derivation) -> Derivation:
    """Image of a CP derivation under the term translation, as an HCP
    derivation of the same (single-sequent) environment."""
    if not revalidate(d):
        raise BridgeError("translate_typed requires a locally valid CP derivation")
    return _tt(d)


def _tt(d: Derivation) -> Derivation:
    t, env = d.term, d.env
    match d.rule:
        case "Ax":
            return Derivation("Ax", hcp.Link(t.x, t.y), [dict(env)], ())
        case "Cut":
            d1, d2 = _tt(d.premises[0]), _tt(d.premises[1])
            par = hcp.Par(d1.term, d2.term)
            mix = Derivation("H-Mix", par, [d1.env[0], d2.env[0]], (d1, d2))
            return Derivation("H-Cut", hcp.New(t.x, t.ty, par), [dict(env)], (mix,))
        case "⊗":
            d1, d2 = _tt(d.premises[0]), _tt(d.premises[1])
            par = hcp.Par(d1.term, d2.term)
            mix = Derivation("H-Mix", par, [d1.env[0], d2.env[0]], (d1, d2))
            return Derivation("⊗", hcp.BoundOut(t.x, t.y, par), [dict(env)], (mix,))
        case "1":
            mix0 = Derivation("H-Mix₀", hcp.Inert(), [], ())
            return Derivation("1", hcp.OutUnit(t.x, hcp.Inert()), [dict(env)], (mix0,))
        case "⅋":
            d1 = _tt(d.premises[0])
            return Derivation("⅋", hcp.In(t.x, t.y, d1.term), [dict(env)], (d1,))
        case "⊥":
            d1 = _tt(d.premises[0])
            return Derivation("⊥", hcp.InUnit(t.x, d1.term), [dict(env)], (d1,))
        case "⊕₁":
            d1 = _tt(d.premises[0])
            return Derivation("⊕₁", hcp.Inl(t.x, d1.term), [dict(env)], (d1,))
        case "⊕₂":
            d1 = _tt(d.premises[0])
            return Derivation("⊕₂", hcp.Inr(t.x, d1.term), [dict(env)], (d1,))
        case "&":
            d1, d2 = _tt(d.premises[0]), _tt(d.premises[1])
            return Derivation("&", hcp.Case(t.x, d1.term, d2.term), [dict(env)], (d1, d2))
        case "⊤":
            return Derivation("⊤", hcp.Absurd(t.x), [dict(env)], ())
    raise BridgeError(f"unknown CP rule {d.rule}")


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
    cp_derivs = [_invert(c) for c in comps]
    images = [cp_to_hcp(c.term) for c in cp_derivs]
    if not images:
        recombined: hcp.HcpTerm = hcp.Inert()
    else:
        recombined = images[-1]
        for t in reversed(images[:-1]):
            recombined = hcp.Par(t, recombined)
    return DisentangleResult(cp_derivs, recombined, log)


def _split(d: Derivation, log: list[str]) -> list[Derivation]:
    """Normalize into pure single-sequent components: every H-Mix is pushed to
    the root or fused under its H-Cut / output; each returned derivation has a
    single member environment."""
    t = d.term
    match d.rule:
        case "Ax" | "⊤":
            return [d]
        case "H-Mix₀":
            return []
        case "H-Mix":
            return _split(d.premises[0], log) + _split(d.premises[1], log)
        case "H-Cut":
            comps = _split(d.premises[0], log)
            idxs = [i for i, c in enumerate(comps) if t.x in c.env[0]]
            if len(idxs) != 2:
                raise BridgeError(f"hyper-cut on {t.x} does not connect two components")
            i, j = idxs
            left, right = comps[i], comps[j]
            others = [c for k, c in enumerate(comps) if k not in (i, j)]
            for c in others:
                log.append(f"pushed a mix below the cut on {t.x}")
            par = hcp.Par(left.term, right.term)
            mix = Derivation("H-Mix", par, [left.env[0], right.env[0]], (left, right))
            merged = {n: a for n, a in left.env[0].items() if n != t.x}
            merged.update((n, a) for n, a in right.env[0].items() if n != t.x)
            node = Derivation("H-Cut", hcp.New(t.x, t.ty, par), [merged], (mix,))
            return others + [node]
        case "⊗":
            comps = _split(d.premises[0], log)
            iy = next((i for i, c in enumerate(comps) if t.y in c.env[0]), None)
            ix = next((i for i, c in enumerate(comps) if t.x in c.env[0]), None)
            if iy is None or ix is None:
                raise BridgeError(f"output on {t.x} lost its payload or continuation component")
            if iy == ix:
                raise BridgeError(f"output on {t.x} has entangled payload and continuation")
            left, right = comps[iy], comps[ix]
            others = [c for k, c in enumerate(comps) if k not in (iy, ix)]
            for c in others:
                log.append(f"pushed a mix below the output on {t.x}")
            par = hcp.Par(left.term, right.term)
            mix = Derivation("H-Mix", par, [left.env[0], right.env[0]], (left, right))
            merged = {n: a for n, a in left.env[0].items() if n != t.y}
            merged.update((n, a) for n, a in right.env[0].items() if n != t.x)
            merged[t.x] = ty.Tensor(left.env[0][t.y], right.env[0][t.x])
            node = Derivation("⊗", hcp.BoundOut(t.x, t.y, par), [merged], (mix,))
            return others + [node]
        case "1":
            comps = _split(d.premises[0], log)
            if comps:
                log.append(f"split the unit output on {t.x} from its continuation (non-congruent)")
            mix0 = Derivation("H-Mix₀", hcp.Inert(), [], ())
            node = Derivation("1", hcp.OutUnit(t.x, hcp.Inert()), [{t.x: ONE}], (mix0,))
            return comps + [node]
        case "⊥":
            comps = _split(d.premises[0], log)
            (ie,) = [i for i, e in enumerate(d.env) if t.x in e]
            gamma = {n: a for n, a in d.env[ie].items() if n != t.x}
            i = next((k for k, c in enumerate(comps) if c.env[0] == gamma), None)
            if i is None:
                raise BridgeError(f"no component matches the environment extended by the wait on {t.x}")
            others = [c for k, c in enumerate(comps) if k != i]
            if others:
                log.append(f"pushed a mix out of the wait on {t.x} (non-congruent)")
            inner = comps[i]
            env2 = dict(inner.env[0])
            env2[t.x] = BOT
            node = Derivation("⊥", hcp.InUnit(t.x, inner.term), [env2], (inner,))
            return others + [node]
        case "⅋":
            comps = _split(d.premises[0], log)
            i = next((k for k, c in enumerate(comps) if t.y in c.env[0]), None)
            if i is None:
                raise BridgeError(f"input on {t.x} lost its payload component")
            inner = comps[i]
            if t.x not in inner.env[0]:
                raise BridgeError(f"input on {t.x} has split payload and continuation")
            others = [c for k, c in enumerate(comps) if k != i]
            if others:
                log.append(f"pushed a mix out of the input on {t.x} (non-congruent)")
            env2 = {n: a for n, a in inner.env[0].items() if n not in (t.x, t.y)}
            env2[t.x] = ty.Par(inner.env[0][t.y], inner.env[0][t.x])
            node = Derivation("⅋", hcp.In(t.x, t.y, inner.term), [env2], (inner,))
            return others + [node]
        case "⊕₁" | "⊕₂":
            comps = _split(d.premises[0], log)
            i = next((k for k, c in enumerate(comps) if t.x in c.env[0]), None)
            if i is None:
                raise BridgeError(f"selection on {t.x} lost its continuation component")
            inner = comps[i]
            others = [c for k, c in enumerate(comps) if k != i]
            if others:
                log.append(f"pushed a mix out of the selection on {t.x} (non-congruent)")
            (ic,) = [k for k, e in enumerate(d.env) if t.x in e]
            env2 = dict(inner.env[0])
            env2[t.x] = d.env[ic][t.x]
            cls = hcp.Inl if d.rule == "⊕₁" else hcp.Inr
            node = Derivation(d.rule, cls(t.x, inner.term), [env2], (inner,))
            return others + [node]
        case "&":
            c1 = _split(d.premises[0], log)
            c2 = _split(d.premises[1], log)
            if len(c1) != 1 or len(c2) != 1:
                raise BridgeError("offer branches must be single sequents")
            node = Derivation("&", hcp.Case(t.x, c1[0].term, c2[0].term), [dict(d.env[0])], (c1[0], c2[0]))
            return [node]
    raise BridgeError(f"unknown HCP rule {d.rule}")


def _invert(d: Derivation) -> Derivation:
    """Read a fused (translation-image) HCP derivation back as a CP derivation."""
    t = d.term
    env = dict(d.env[0])
    match d.rule:
        case "Ax":
            return Derivation("Ax", cp.Link(t.x, t.y), env, ())
        case "⊤":
            return Derivation("⊤", cp.Absurd(t.x), env, ())
        case "H-Cut":
            (mix,) = d.premises
            if mix.rule != "H-Mix":
                raise BridgeError("hyper-cut not fused with a mix")
            left, right = (_invert(c) for c in mix.premises)
            a = left.env[t.x]
            return Derivation("Cut", cp.Cut(t.x, a, left.term, right.term), env, (left, right))
        case "⊗":
            (mix,) = d.premises
            if mix.rule != "H-Mix":
                raise BridgeError("output not fused with a mix")
            left, right = (_invert(c) for c in mix.premises)
            return Derivation("⊗", cp.Send(t.x, t.y, left.term, right.term), env, (left, right))
        case "1":
            (mix0,) = d.premises
            if mix0.rule != "H-Mix₀":
                raise BridgeError("unit output not fused with the inert axiom")
            return Derivation("1", cp.Halt(t.x), env, ())
        case "⅋":
            inner = _invert(d.premises[0])
            return Derivation("⅋", cp.Recv(t.x, t.y, inner.term), env, (inner,))
        case "⊥":
            inner = _invert(d.premises[0])
            return Derivation("⊥", cp.Wait(t.x, inner.term), env, (inner,))
        case "⊕₁":
            inner = _invert(d.premises[0])
            return Derivation("⊕₁", cp.Inl(t.x, inner.term), env, (inner,))
        case "⊕₂":
            inner = _invert(d.premises[0])
            return Derivation("⊕₂", cp.Inr(t.x, inner.term), env, (inner,))
        case "&":
            d1, d2 = (_invert(c) for c in d.premises)
            return Derivation("&", cp.Case(t.x, d1.term, d2.term), env, (d1, d2))
    raise BridgeError(f"rule {d.rule} is not in the image of the translation")


def parr_collapse(d: Derivation) -> Derivation:
    """Chain of inputs over the last-canonical carrier channel, typing the
    process at the single formula bigparr of its environment."""
    if not isinstance(d.env, dict):
        raise BridgeError("parr_collapse expects a CP derivation")
    if not revalidate(d):
        raise BridgeError("parr_collapse requires a locally valid derivation")
    if not d.env:
        raise BridgeError("parr_collapse requires a nonempty environment")
    names = sorted(d.env, key=lambda n: n.uid)
    z = names[-1]
    cur = d
    for n in reversed(names[:-1]):
        a, b = cur.env[n], cur.env[z]
        env2 = {k: v for k, v in cur.env.items() if k not in (n, z)}
        env2[z] = ty.Par(a, b)
        cur = Derivation("⅋", cp.Recv(z, n, cur.term), env2, (cur,))
    return cur


def _rename_free(d: Derivation, old: Name, new: Name) -> Derivation:
    term = terms.substitute(d.term, new, old)
    env = {(new if n == old else n): a for n, a in d.env.items()}
    return Derivation(d.rule, term, env, tuple(_rename_free(c, old, new) for c in d.premises))


def carrier(d: Derivation) -> Name:
    (n,) = d.env
    return n


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
    res = disentangle(d)
    collapsed = [parr_collapse(c) for c in res.components]
    order = sorted(range(len(collapsed)), key=lambda i: env_key(res.components[i].env))
    ds = [collapsed[i] for i in order]
    if len(ds) == 1:
        return ds[0]
    z = fresh("z")
    last = ds[-1]
    cur = _rename_free(last, carrier(last), z)
    for dd in reversed(ds[:-1]):
        zi = carrier(dd)
        y = fresh(zi.surface)
        dl = _rename_free(dd, zi, y)
        a = dl.env[y]
        b = cur.env[z]
        term = cp.Send(z, y, dl.term, cur.term)
        cur = Derivation("⊗", term, {z: ty.Tensor(a, b)}, (dl, cur))
    return cur
