"""Syntax-directed typecheckers for CP and HCP, producing derivation trees.

CP checking is deterministic: every name of the ambient environment is routed
to the unique branch where it occurs free.  HCP checking synthesizes the
hyper-environment partition bottom-up; the types of the two endpoints of a
restricted channel are resolved by a small union-find with duality parity
(each endpoint use is a variable ranging over {A, dual A}).  The one genuine
rule freedom, which member environment a unit input extends, is resolved
canonically to the first member without the subject.

Each dialect has one rule table, term class -> rule: `_CP_RULES` of r(t,
env), `_HCP_RULES` of r(checker, t, ctx), where the rule owns ctx and may
update it and hand it down.  A class without a rule gets the dialect error.
A rule works on its node in a block before its premise calls and builds the
node's derivation in a block after them, and it checks each premise by
calling the table's rule for it directly, so a term level costs one Python
frame.  HCP endpoint types settle only once the whole term is checked; then
`_finalize` writes them into the environments the rules built.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import cp, hcp
from . import types as ty
from .names import Loc, Name
from .types import BOT, ONE, TOP, Type, dual

Env = dict  # Name -> Type
HyperEnv = list  # list[Env]

KIND_UNKNOWN = "UnknownName"
KIND_REUSE = "NameReuse"
KIND_UNUSED = "UnusedLinear"
KIND_SPLIT = "SplitConflict"
KIND_SELFLOCK = "SelfLock"
KIND_HYPER = "HyperContextForbidden"
KIND_MISMATCH = "TypeMismatch"
KIND_DIALECT = "DialectViolation"


class TypeCheckError(Exception):
    def __init__(self, kind: str, message: str, *, name: Name | None = None,
                 loc: Loc | None = None, expected: str | None = None, actual: str | None = None):
        self.kind = kind
        self.message = message
        self.name = name
        self.loc = loc
        self.expected = expected
        self.actual = actual
        super().__init__(self.render())

    def render(self, filename: str | None = None) -> str:
        loc = str(self.loc) if self.loc else "?:?"
        prefix = f"{filename}:{loc}: " if filename else ""
        return f"{prefix}{self.kind}: {self.message}"

    def json_record(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name.surface if self.name else None,
            "loc": str(self.loc) if self.loc else None,
            "expected": self.expected,
            "actual": self.actual,
        }


@dataclass(eq=False)
class Derivation:
    rule: str
    term: object
    env: object  # Env for CP nodes, HyperEnv for HCP nodes
    premises: tuple

    @property
    def dialect(self) -> str:
        return "cp" if isinstance(self.env, dict) else "hcp"


def env_key(e: Env) -> tuple:
    """A sort key for environments, independent of their order and of hashes."""
    return tuple(sorted((n.uid, n.surface, ty.render(a)) for n, a in e.items()))


def hyper_eq(p1: HyperEnv, p2: HyperEnv) -> bool:
    """Equality of hyper-environments as multisets of environments.  Two
    lists equal member by member, as the checker's order gives them, answer
    without the multiset comparison."""
    return p1 == p2 or Counter(frozenset(e.items()) for e in p1) == Counter(frozenset(e.items()) for e in p2)


def _unused(n: Name, t) -> TypeCheckError:
    return TypeCheckError(KIND_UNUSED, f"linear channel {n} is not used", name=n, loc=t.loc)


def _mismatch(x: Name, want: str, have: Type, t) -> TypeCheckError:
    return TypeCheckError(KIND_MISMATCH, f"channel {x} has type {ty.render(have)}, but the action requires {want}",
                          name=x, loc=t.loc, expected=want, actual=ty.render(have))


# what an action on a channel requires of its type, by the type's class
_UNIT_WANTS = {ty.One: "the unit 1", ty.Bot: "the unit bot", ty.Top: "the empty offer top",
               ty.Tensor: "an output type A * B", ty.Par: "an input type A par B",
               ty.Plus: "a selection type A + B", ty.With: "an offer type A & B"}


class _Rules(dict):
    """A rule table, term class -> rule; a class without a rule gets `missing`."""

    def __missing__(self, cls):
        return self.missing


# -- CP -----------------------------------------------------------------------


def _need(env: Env, x: Name, t) -> Type:
    if x not in env:
        raise TypeCheckError(KIND_UNKNOWN, f"channel {x} is not in the environment", name=x, loc=t.loc)
    return env[x]


def _subject(env: Env, x: Name, want, t) -> Type:
    """The type of x, the subject of t, which t's action requires to be of class want."""
    s = env.get(x)
    if s.__class__ is not want:
        raise _mismatch(x, _UNIT_WANTS[want], _need(env, x, t), t)
    return s


def _binds_fresh(env, t) -> None:
    """Refuse t's prefix binder if it captures a name in scope, as a cut or
    restriction refuses one (only terms built in code can: the parser draws
    a fresh uid per binder)."""
    if t.y in env:
        raise TypeCheckError(KIND_REUSE, f"bound channel {t.y} shadows a channel in scope", name=t.y, loc=t.loc)


def _route(env: Env, p, q, t) -> tuple[Env, Env]:
    fvp, fvq = cp.free_names(p), cp.free_names(q)
    envp: Env = {}
    envq: Env = {}
    for n, a in env.items():
        if n in fvp:
            if n in fvq:
                raise TypeCheckError(KIND_SPLIT, f"channel {n} is used by both branches of a split", name=n, loc=t.loc)
            envp[n] = a
        elif n in fvq:
            envq[n] = a
        else:
            raise _unused(n, t)
    return envp, envq


def check_cp(t: cp.CpTerm, env: Env) -> Derivation:
    """Check a CP term against a declared environment; returns the derivation."""
    if not isinstance(t, cp.CpTerm):
        raise TypeCheckError(KIND_DIALECT, "expected a CP term", loc=getattr(t, "loc", None))
    return _CP_RULES[t.__class__](t, dict(env))


def _cp_link(t, env):
    x, y = t.x, t.y
    if x == y:
        raise TypeCheckError(KIND_REUSE, f"a link must join two distinct channels, got {x} twice", name=x, loc=t.loc)
    a, b = _need(env, x, t), _need(env, y, t)
    for n in env:
        if n != x and n != y:
            raise _unused(n, t)
    if b is not a.dual:
        raise _mismatch(y, f"the dual {ty.render(dual(a))}", b, t)
    return Derivation("Ax", t, dict(env), ())


def _cp_cut(t, env):
    x, p, q = t.x, t.left, t.right
    if x in env:
        raise TypeCheckError(KIND_REUSE, f"restricted channel {x} shadows a declared channel", name=x, loc=t.loc)
    envp, envq = _route(env, p, q, t)
    envp[x] = t.ty
    envq[x] = t.ty.dual
    return Derivation("Cut", t, dict(env), (_CP_RULES[p.__class__](p, envp), _CP_RULES[q.__class__](q, envq)))


def _cp_send(t, env):
    x, p, q = t.x, t.payload, t.cont
    s = _subject(env, x, ty.Tensor, t)
    _binds_fresh(env, t)
    rest = dict(env)
    del rest[x]
    envp, envq = _route(rest, p, q, t)
    envp[t.y] = s.left
    envq[x] = s.right
    return Derivation("⊗", t, dict(env), (_CP_RULES[p.__class__](p, envp), _CP_RULES[q.__class__](q, envq)))


def _cp_recv(t, env):
    x, p = t.x, t.body
    s = _subject(env, x, ty.Par, t)
    _binds_fresh(env, t)
    env2 = dict(env)
    del env2[x]
    env2[t.y] = s.left
    env2[x] = s.right
    return Derivation("⅋", t, dict(env), (_CP_RULES[p.__class__](p, env2),))


def _cp_halt(t, env):
    x = t.x
    _subject(env, x, ty.One, t)
    for n in env:
        if n != x:
            raise _unused(n, t)
    return Derivation("1", t, dict(env), ())


def _cp_wait(t, env):
    x, p = t.x, t.body
    _subject(env, x, ty.Bot, t)
    env2 = dict(env)
    del env2[x]
    return Derivation("⊥", t, dict(env), (_CP_RULES[p.__class__](p, env2),))


def _cp_select(t, env):
    x, p = t.x, t.body
    s = _subject(env, x, ty.Plus, t)
    left = t.__class__ is cp.Inl
    env2 = {**env, x: s.left if left else s.right}
    return Derivation("⊕₁" if left else "⊕₂", t, dict(env), (_CP_RULES[p.__class__](p, env2),))


def _cp_case(t, env):
    x, p, q = t.x, t.left, t.right
    s = _subject(env, x, ty.With, t)
    envp, envq = {**env, x: s.left}, {**env, x: s.right}
    return Derivation("&", t, dict(env), (_CP_RULES[p.__class__](p, envp), _CP_RULES[q.__class__](q, envq)))


def _cp_absurd(t, env):
    _subject(env, t.x, ty.Top, t)
    return Derivation("⊤", t, dict(env), ())


def _not_cp(t, env):
    raise TypeCheckError(KIND_DIALECT, f"not a CP construct: {type(t).__name__}", loc=getattr(t, "loc", None))


_CP_RULES = _Rules({cp.Link: _cp_link, cp.Cut: _cp_cut, cp.Send: _cp_send, cp.Recv: _cp_recv, cp.Halt: _cp_halt,
                    cp.Wait: _cp_wait, cp.Inl: _cp_select, cp.Inr: _cp_select, cp.Case: _cp_case,
                    cp.Absurd: _cp_absurd})
_CP_RULES.missing = _not_cp


# -- HCP ----------------------------------------------------------------------


class _Store:
    """Union-find with duality parity over endpoint uses of restricted names."""

    def __init__(self):
        self.parent: list[int] = []
        self.parity: list[int] = []
        self.ann: list[Type] = []
        self.val: dict[int, Type] = {}

    def new_use(self, ann: Type) -> int:
        i = len(self.parent)
        self.parent.append(i)
        self.parity.append(0)
        self.ann.append(ann)
        return i

    def find(self, u: int) -> tuple[int, int]:
        p = 0
        while self.parent[u] != u:
            p ^= self.parity[u]
            u = self.parent[u]
        return u, p

    def value(self, u: int) -> Type | None:
        r, p = self.find(u)
        if r not in self.val:
            return None
        return self.val[r] if p == 0 else dual(self.val[r])

    def force(self, u: int, a: Type, name: Name, loc) -> None:
        if a not in (self.ann[u], dual(self.ann[u])):
            raise TypeCheckError(
                KIND_MISMATCH,
                f"endpoint of {name} must have type {ty.render(self.ann[u])} or its dual, not {ty.render(a)}",
                name=name, loc=loc, expected=ty.render(self.ann[u]), actual=ty.render(a),
            )
        r, p = self.find(u)
        want = a if p == 0 else dual(a)
        if r in self.val:
            if self.val[r] != want:
                have = self.val[r] if p == 0 else dual(self.val[r])
                raise TypeCheckError(
                    KIND_MISMATCH,
                    f"endpoint of {name} is used at type {ty.render(have)} but also at {ty.render(a)}",
                    name=name, loc=loc, expected=ty.render(have), actual=ty.render(a),
                )
        else:
            self.val[r] = want

    def union_dual(self, u: int, v: int, name: Name, loc) -> None:
        ru, pu = self.find(u)
        rv, pv = self.find(v)
        if ru == rv:
            if (pu ^ pv) != 1:
                raise TypeCheckError(KIND_MISMATCH, f"channel {name} would have to be dual to itself", name=name, loc=loc)
            return
        q = pu ^ pv ^ 1
        rv_val = self.val.pop(rv, None)
        self.parent[rv] = ru
        self.parity[rv] = q
        if rv_val is not None:
            want = rv_val if q == 0 else dual(rv_val)
            if ru in self.val:
                if self.val[ru] != want:
                    raise TypeCheckError(KIND_MISMATCH, f"the two endpoints of {name} have incompatible types", name=name, loc=loc)
            else:
                self.val[ru] = want


def _index_with(part: HyperEnv, x: Name) -> int:
    """The index of the first member environment of part that holds x, where one does."""
    for i, e in enumerate(part):
        if x in e:
            return i


class _HcpChecker:
    """The state of one HCP check: the endpoint store, the environments the
    rules built (whose slots `_finalize` resolves) and the two relaxations.
    A slot, the type of a name in a context, is a concrete Type or an int use-id
    in the store."""

    def __init__(self, allow_self_lock: bool = False, allow_hyper_with: bool = False):
        self.store = _Store()
        self.envs: list[dict] = []
        self.allow_self_lock = allow_self_lock
        self.allow_hyper_with = allow_hyper_with

    def _subject(self, ctx: dict, x: Name, want, t) -> Type:
        s = ctx.get(x)
        if s.__class__ is want:
            return s
        if s is None:
            raise TypeCheckError(KIND_UNKNOWN, f"channel {x} is not available here", name=x, loc=t.loc)
        if type(s) is not int:
            raise _mismatch(x, _UNIT_WANTS[want], s, t)
        ann = self.store.ann[s]
        cands = [c for c in (ann, dual(ann)) if isinstance(c, want)]
        if not cands:
            raise TypeCheckError(KIND_MISMATCH, f"channel {x} has endpoint types {ty.render(ann)} and "
                                 f"{ty.render(dual(ann))}; neither supports this action ({_UNIT_WANTS[want]})",
                                 name=x, loc=t.loc, expected=_UNIT_WANTS[want], actual=ty.render(ann))
        self.store.force(s, cands[0], x, t.loc)
        return cands[0]

    def _env_resolved_key(self, e: dict):
        out = []
        for n, s in e.items():
            v = s if type(s) is not int else self.store.value(s)
            out.append((n.uid, n.surface, ty.render(v) if v is not None else f"?{self.store.find(s)[0]}"))
        return tuple(sorted(out))


def _hcp_inert(c, t, ctx):
    for n in ctx:
        raise _unused(n, t)
    return Derivation("H-Mix₀", t, [], ())


def _hcp_link(c, t, ctx):
    x, y, store = t.x, t.y, c.store
    if x == y:
        raise TypeCheckError(KIND_REUSE, f"a link must join two distinct channels, got {x} twice", name=x, loc=t.loc)
    for n in (x, y):
        if n not in ctx:
            raise TypeCheckError(KIND_UNKNOWN, f"channel {n} is not available here", name=n, loc=t.loc)
    for n in ctx:
        if n != x and n != y:
            raise _unused(n, t)
    sx, sy = ctx[x], ctx[y]
    if type(sx) is not int and type(sy) is not int:
        if sy is not sx.dual:
            raise _mismatch(y, f"the dual {ty.render(dual(sx))}", sy, t)
    elif type(sx) is not int:
        store.force(sy, dual(sx), y, t.loc)
    elif type(sy) is not int:
        store.force(sx, dual(sy), x, t.loc)
    else:
        a, b = store.ann[sx], store.ann[sy]
        if b is not a and b is not a.dual:
            raise TypeCheckError(KIND_MISMATCH, f"a link cannot join {x}, restricted at {ty.render(a)}, and {y}, "
                                 f"restricted at {ty.render(b)}", name=y, loc=t.loc,
                                 expected=ty.render(a), actual=ty.render(b))
        store.union_dual(sx, sy, x, t.loc)
    e = {x: sx, y: sy}
    c.envs.append(e)
    return Derivation("Ax", t, [e], ())


def _hcp_par(c, t, ctx):
    p, q, store = t.left, t.right, c.store
    fvp, fvq = hcp.free_names(p), hcp.free_names(q)
    ctxp: dict = {}
    ctxq: dict = {}
    for n, s in ctx.items():
        if n in fvp:
            if n in fvq:
                if type(s) is not int:
                    raise TypeCheckError(KIND_REUSE, f"channel {n} is used by two parallel components but has only "
                                         "one declared endpoint", name=n, loc=t.loc)
                u1 = store.new_use(store.ann[s])
                u2 = store.new_use(store.ann[s])
                store.union_dual(u1, u2, n, t.loc)
                ctxp[n] = u1
                ctxq[n] = u2
            else:
                ctxp[n] = s
        elif n in fvq:
            ctxq[n] = s
        else:
            raise _unused(n, t)
    dp = _HCP_RULES[p.__class__](c, p, ctxp)
    dq = _HCP_RULES[q.__class__](c, q, ctxq)
    return Derivation("H-Mix", t, dp.env + dq.env, (dp, dq))


def _hcp_new(c, t, ctx):
    x, a, p = t.x, t.ty, t.body
    if x in ctx:
        raise TypeCheckError(KIND_REUSE, f"restricted channel {x} shadows a declared channel", name=x, loc=t.loc)
    ctx[x] = c.store.new_use(a)
    dp = _HCP_RULES[p.__class__](c, p, ctx)
    part = dp.env
    idxs = []  # the members holding x
    for k, e in enumerate(part):
        if x in e:
            idxs.append(k)
    if len(idxs) < 2:
        raise TypeCheckError(KIND_UNUSED, f"restricted channel {x} must be used by two independent components, "
                             f"found {len(idxs)}", name=x, loc=t.loc)
    if len(idxs) > 2:
        raise TypeCheckError(KIND_REUSE, f"restricted channel {x} is used by more than two components", name=x, loc=t.loc)
    i, j = idxs
    t1, t2 = part[i][x], part[j][x]
    if type(t1) is not int and type(t2) is not int and (t2 is not t1.dual or t1 is not a and t1 is not a.dual):
        # only a self-lock leaves both endpoints concrete here; the unit
        # rules set them, and the actions around them may not keep them dual
        raise TypeCheckError(KIND_MISMATCH, f"endpoints of {x} have types {ty.render(t1)} and {ty.render(t2)}, "
                             f"but the restriction is annotated {ty.render(a)}", name=x, loc=t.loc,
                             expected=f"{ty.render(a)} / {ty.render(dual(a))}",
                             actual=f"{ty.render(t1)} / {ty.render(t2)}")
    merged = dict(part[i])
    del merged[x]
    for n, s in part[j].items():
        if n != x:
            if n in merged:
                raise TypeCheckError(KIND_REUSE, f"cutting {x} would entangle both endpoints of {n} into one sequent",
                                     name=n, loc=t.loc)
            merged[n] = s
    c.envs.append(merged)
    newpart = part.copy()
    newpart[i] = merged
    del newpart[j]
    return Derivation("H-Cut", t, newpart, (dp,))


def _hcp_out(c, t, ctx):
    x, y, p = t.x, t.y, t.body
    s = c._subject(ctx, x, ty.Tensor, t)
    _binds_fresh(ctx, t)
    del ctx[x]
    ctx[y] = s.left
    ctx[x] = s.right
    dp = _HCP_RULES[p.__class__](c, p, ctx)
    part = dp.env
    iy, ix = _index_with(part, y), _index_with(part, x)
    if iy == ix:
        raise TypeCheckError(KIND_SPLIT, f"the payload {y} and continuation {x} of an output must belong to "
                             "independent components", name=x, loc=t.loc)
    merged = dict(part[iy])
    del merged[y]
    for n, v in part[ix].items():
        if n != x:
            if n in merged:
                raise TypeCheckError(KIND_REUSE, f"output on {x} would entangle both endpoints of {n}", name=n, loc=t.loc)
            merged[n] = v
    merged[x] = s
    c.envs.append(merged)
    newpart = part.copy()
    newpart[min(iy, ix)] = merged
    del newpart[max(iy, ix)]
    return Derivation("⊗", t, newpart, (dp,))


def _hcp_in(c, t, ctx):
    x, y, p = t.x, t.y, t.body
    s = c._subject(ctx, x, ty.Par, t)
    _binds_fresh(ctx, t)
    del ctx[x]
    ctx[y] = s.left
    ctx[x] = s.right
    dp = _HCP_RULES[p.__class__](c, p, ctx)
    part = dp.env
    iy = _index_with(part, y)
    if x not in part[iy]:
        raise TypeCheckError(KIND_SPLIT, f"the payload {y} and continuation {x} of an input must share one component",
                             name=x, loc=t.loc)
    e2 = {n: v for n, v in part[iy].items() if n != x and n != y}
    e2[x] = s
    c.envs.append(e2)
    newpart = part.copy()
    newpart[iy] = e2
    return Derivation("⅋", t, newpart, (dp,))


def _hcp_out_unit(c, t, ctx):
    x, p = t.x, t.body
    c._subject(ctx, x, ty.One, t)
    del ctx[x]
    if x in hcp.free_names(p):
        ctx[x] = BOT
    dp = _HCP_RULES[p.__class__](c, p, ctx)
    part = dp.env
    if not c.allow_self_lock:
        for e in part:
            if x in e:
                raise TypeCheckError(KIND_SELFLOCK, f"cannot send on {x} while also holding its other endpoint", name=x, loc=t.loc)
    return Derivation("1", t, part + [{x: ONE}], (dp,))


def _hcp_in_unit(c, t, ctx):
    x, p = t.x, t.body
    s = c._subject(ctx, x, ty.Bot, t)
    del ctx[x]
    if x in hcp.free_names(p):
        ctx[x] = ONE
    dp = _HCP_RULES[p.__class__](c, p, ctx)
    part = dp.env
    i = None  # the first member without x, which the wait extends
    for k, e in enumerate(part):
        if x in e:
            if not c.allow_self_lock:
                raise TypeCheckError(KIND_SELFLOCK, f"cannot wait on {x} while also holding its other endpoint", name=x, loc=t.loc)
        elif i is None:
            i = k
    if i is None:
        if c.allow_self_lock:
            return Derivation("⊥", t, part + [{x: s}], (dp,))
        raise TypeCheckError(KIND_MISMATCH, f"a wait on {x} needs a component to extend; its continuation offers none",
                             name=x, loc=t.loc)
    newpart = part.copy()
    newpart[i] = e = {**part[i], x: s}
    c.envs.append(e)
    return Derivation("⊥", t, newpart, (dp,))


def _hcp_select(c, t, ctx):
    x, p = t.x, t.body
    left = t.__class__ is hcp.Inl
    s = c._subject(ctx, x, ty.Plus, t)
    ctx[x] = s.left if left else s.right
    dp = _HCP_RULES[p.__class__](c, p, ctx)
    part = dp.env
    i = _index_with(part, x)
    newpart = part.copy()
    newpart[i] = e = {**part[i], x: s}
    c.envs.append(e)
    return Derivation("⊕₁" if left else "⊕₂", t, newpart, (dp,))


def _hcp_case(c, t, ctx):
    x, p, q = t.x, t.left, t.right
    s = c._subject(ctx, x, ty.With, t)
    ctxp = {**ctx, x: s.left}
    ctx[x] = s.right
    dp = _HCP_RULES[p.__class__](c, p, ctxp)
    dq = _HCP_RULES[q.__class__](c, q, ctx)
    pp, pq = dp.env, dq.env
    if not c.allow_hyper_with and (len(pp) != 1 or len(pq) != 1):
        raise TypeCheckError(KIND_HYPER, f"an offer on {x} requires a single sequent, but a branch is split into "
                             f"{max(len(pp), len(pq))} independent components", name=x, loc=t.loc)
    ip, iq = _index_with(pp, x), _index_with(pq, x)
    restp = [c._env_resolved_key(e) for k, e in enumerate(pp) if k != ip]
    restq = [c._env_resolved_key(e) for k, e in enumerate(pq) if k != iq]
    gp = c._env_resolved_key({n: v for n, v in pp[ip].items() if n != x})
    gq = c._env_resolved_key({n: v for n, v in pq[iq].items() if n != x})
    if gp != gq or sorted(restp) != sorted(restq):
        raise TypeCheckError(KIND_MISMATCH, f"the branches of the offer on {x} use different channel sets", name=x, loc=t.loc)
    e2 = {n: v for n, v in pp[ip].items() if n != x}
    e2[x] = s
    c.envs.append(e2)
    return Derivation("&", t, [e2] + [e for k, e in enumerate(pp) if k != ip], (dp, dq))


def _hcp_absurd(c, t, ctx):
    x = t.x
    c._subject(ctx, x, ty.Top, t)
    e = {**ctx, x: TOP}
    c.envs.append(e)
    return Derivation("⊤", t, [e], ())


def _not_hcp(c, t, ctx):
    raise TypeCheckError(KIND_DIALECT, f"not an HCP construct: {type(t).__name__}", loc=getattr(t, "loc", None))


_HCP_RULES = _Rules({hcp.Inert: _hcp_inert, hcp.Link: _hcp_link, hcp.Par: _hcp_par, hcp.New: _hcp_new,
                     hcp.BoundOut: _hcp_out, hcp.In: _hcp_in, hcp.OutUnit: _hcp_out_unit,
                     hcp.InUnit: _hcp_in_unit, hcp.Inl: _hcp_select, hcp.Inr: _hcp_select,
                     hcp.Case: _hcp_case, hcp.Absurd: _hcp_absurd})
_HCP_RULES.missing = _not_hcp


def check_hcp(t: hcp.HcpTerm, names: Env, *, allow_self_lock: bool = False,
              allow_hyper_with: bool = False) -> tuple[Derivation, HyperEnv]:
    """Check an HCP term against a flat name->type map; synthesizes the
    hyper-environment partition and returns it with the derivation."""
    if not isinstance(t, hcp.HcpTerm):
        raise TypeCheckError(KIND_DIALECT, "expected an HCP term", loc=getattr(t, "loc", None))
    checker = _HcpChecker(allow_self_lock=allow_self_lock, allow_hyper_with=allow_hyper_with)
    d = _HCP_RULES[t.__class__](checker, t, dict(names))
    _finalize(checker)
    return d, d.env


def _finalize(c: _HcpChecker) -> None:
    """Resolve every endpoint slot to its type, in place, in each environment
    the rules built.  A link joins the endpoint classes of two restrictions
    only if their annotations are equal or dual, so every class holds uses of
    one annotation and its dual, and every class is forced by the end: the
    components and restrictions form a forest, and a leaf component forces
    the one restricted endpoint it holds."""
    value = c.store.value
    for e in c.envs:
        for n, s in e.items():
            if type(s) is int:
                e[n] = value(s)


# -- local revalidation -------------------------------------------------------


def revalidate(d: Derivation) -> bool:
    """Check that every node's conclusion follows from its premises by its rule."""
    return first_invalid(_nodes(d)) is None


def first_invalid(ds) -> Derivation | None:
    """The first of the derivation nodes ds whose conclusion does not follow
    from its premises by its rule, or None.  Each check reads only a node and
    its premises, so the nodes may come in any order."""
    for d in ds:
        try:
            (_revalidate_cp if isinstance(d.env, dict) else _revalidate_hcp)(d)
        except _Invalid:
            return d
    return None


def _nodes(d: Derivation):
    """Every node of d, in pre-order."""
    stack = [d]
    while stack:
        d = stack.pop()
        yield d
        stack += reversed(d.premises)


class _Invalid(Exception):
    """A derivation node whose conclusion does not follow by its rule."""


def _require(ok: bool) -> None:
    if not ok:
        raise _Invalid


def _without(e: Env, *names: Name) -> Env:
    return {n: v for n, v in e.items() if n not in names}


def _disjoint_union(e1: Env, e2: Env) -> Env:
    out = dict(e1)
    for n, v in e2.items():
        _require(n not in out)
        out[n] = v
    return out


def _revalidate_cp(d: Derivation) -> None:
    t, env = d.term, d.env
    match d.rule:
        case "Ax":
            _require(isinstance(t, cp.Link) and not d.premises)
            _require(set(env) == {t.x, t.y} and env[t.y] == dual(env[t.x]))
        case "Cut":
            _require(isinstance(t, cp.Cut) and len(d.premises) == 2)
            d1, d2 = d.premises
            _require(d1.term == t.left and d2.term == t.right)
            _require(d1.env.get(t.x) == t.ty and d2.env.get(t.x) == dual(t.ty))
            _require(env == _disjoint_union(_without(d1.env, t.x), _without(d2.env, t.x)))
        case "⊗":
            _require(isinstance(t, cp.Send) and len(d.premises) == 2)
            d1, d2 = d.premises
            _require(d1.term == t.payload and d2.term == t.cont)
            a, b = d1.env.get(t.y), d2.env.get(t.x)
            _require(a is not None and b is not None)
            _require(env.get(t.x) == ty.Tensor(a, b))
            _require(_without(env, t.x) == _disjoint_union(_without(d1.env, t.y), _without(d2.env, t.x)))
        case "⅋":
            _require(isinstance(t, cp.Recv) and len(d.premises) == 1)
            (d1,) = d.premises
            _require(d1.term == t.body)
            a, b = d1.env.get(t.y), d1.env.get(t.x)
            _require(a is not None and b is not None)
            _require(env.get(t.x) == ty.Par(a, b))
            _require(_without(env, t.x) == _without(d1.env, t.y, t.x))
        case "1":
            _require(isinstance(t, cp.Halt) and not d.premises)
            _require(env == {t.x: ONE})
        case "⊥":
            _require(isinstance(t, cp.Wait) and len(d.premises) == 1)
            (d1,) = d.premises
            _require(d1.term == t.body)
            _require(env.get(t.x) == BOT and t.x not in d1.env)
            _require(_without(env, t.x) == d1.env)
        case "⊕₁" | "⊕₂":
            _require(isinstance(t, (cp.Inl, cp.Inr)) and len(d.premises) == 1)
            (d1,) = d.premises
            _require(d1.term == t.body)
            s = env.get(t.x)
            _require(isinstance(s, ty.Plus))
            branch = s.left if d.rule == "⊕₁" else s.right
            _require(d1.env.get(t.x) == branch)
            _require(_without(env, t.x) == _without(d1.env, t.x))
        case "&":
            _require(isinstance(t, cp.Case) and len(d.premises) == 2)
            d1, d2 = d.premises
            _require(d1.term == t.left and d2.term == t.right)
            s = env.get(t.x)
            _require(isinstance(s, ty.With))
            _require(d1.env.get(t.x) == s.left and d2.env.get(t.x) == s.right)
            _require(_without(d1.env, t.x) == _without(d2.env, t.x))
            _require(_without(env, t.x) == _without(d1.env, t.x))
        case "⊤":
            _require(isinstance(t, cp.Absurd) and not d.premises)
            _require(env.get(t.x) == TOP)
        case _:
            raise _Invalid


def _envs_with(part: HyperEnv, x: Name) -> list[int]:
    return [i for i, e in enumerate(part) if x in e]


def _env_with(part: HyperEnv, x: Name) -> int:
    """The index of the one member environment of part that holds x."""
    idxs = _envs_with(part, x)
    _require(len(idxs) == 1)
    return idxs[0]


def _revalidate_hcp(d: Derivation) -> None:
    t, part = d.term, d.env
    match d.rule:
        case "Ax":
            _require(isinstance(t, hcp.Link) and not d.premises)
            _require(len(part) == 1 and set(part[0]) == {t.x, t.y})
            _require(part[0][t.y] == dual(part[0][t.x]))
        case "H-Mix₀":
            _require(isinstance(t, hcp.Inert) and not d.premises)
            _require(part == [])
        case "H-Mix":
            _require(isinstance(t, hcp.Par) and len(d.premises) == 2)
            d1, d2 = d.premises
            _require(d1.term == t.left and d2.term == t.right)
            _require(hyper_eq(part, list(d1.env) + list(d2.env)))
        case "H-Cut":
            _require(isinstance(t, hcp.New) and len(d.premises) == 1)
            (d1,) = d.premises
            _require(d1.term == t.body)
            idxs = _envs_with(d1.env, t.x)
            _require(len(idxs) == 2)
            i, j = idxs
            t1, t2 = d1.env[i][t.x], d1.env[j][t.x]
            _require(t2 == dual(t1) and t1 in (t.ty, dual(t.ty)))
            want = list(d1.env)
            want[i] = _disjoint_union(_without(d1.env[i], t.x), _without(d1.env[j], t.x))
            del want[j]
            _require(hyper_eq(part, want))
        case "⊗":
            _require(isinstance(t, hcp.BoundOut) and len(d.premises) == 1)
            (d1,) = d.premises
            _require(d1.term == t.body)
            iy, ix = _env_with(d1.env, t.y), _env_with(d1.env, t.x)
            _require(iy != ix)
            a, b = d1.env[iy][t.y], d1.env[ix][t.x]
            merged = _disjoint_union(_without(d1.env[iy], t.y), _without(d1.env[ix], t.x))
            merged[t.x] = ty.Tensor(a, b)
            want = list(d1.env)
            want[min(iy, ix)] = merged
            del want[max(iy, ix)]
            _require(hyper_eq(part, want))
        case "⅋":
            _require(isinstance(t, hcp.In) and len(d.premises) == 1)
            (d1,) = d.premises
            _require(d1.term == t.body)
            iy = _env_with(d1.env, t.y)
            _require(_envs_with(d1.env, t.x) == [iy])
            a, b = d1.env[iy][t.y], d1.env[iy][t.x]
            want = list(d1.env)
            want[iy] = _without(d1.env[iy], t.y, t.x)
            want[iy][t.x] = ty.Par(a, b)
            _require(hyper_eq(part, want))
        case "1":
            _require(isinstance(t, hcp.OutUnit) and len(d.premises) == 1)
            (d1,) = d.premises
            _require(d1.term == t.body)
            _require(not _envs_with(d1.env, t.x))
            _require(hyper_eq(part, list(d1.env) + [{t.x: ONE}]))
        case "⊥":
            _require(isinstance(t, hcp.InUnit) and len(d.premises) == 1)
            (d1,) = d.premises
            _require(d1.term == t.body)
            _require(not _envs_with(d1.env, t.x))
            i = _env_with(part, t.x)
            _require(part[i][t.x] == BOT)
            want = list(part)
            want[i] = _without(part[i], t.x)
            _require(hyper_eq(d1.env, want))
        case "⊕₁" | "⊕₂":
            _require(isinstance(t, (hcp.Inl, hcp.Inr)) and len(d.premises) == 1)
            (d1,) = d.premises
            _require(d1.term == t.body)
            i, ic = _env_with(d1.env, t.x), _env_with(part, t.x)
            s = part[ic][t.x]
            _require(isinstance(s, ty.Plus))
            branch = s.left if d.rule == "⊕₁" else s.right
            _require(d1.env[i][t.x] == branch)
            want = list(d1.env)
            want[i] = dict(d1.env[i])
            want[i][t.x] = s
            _require(hyper_eq(part, want))
        case "&":
            _require(isinstance(t, hcp.Case) and len(d.premises) == 2)
            d1, d2 = d.premises
            _require(d1.term == t.left and d2.term == t.right)
            _require(len(part) == 1 and len(d1.env) == 1 and len(d2.env) == 1)
            s = part[0].get(t.x)
            _require(isinstance(s, ty.With))
            _require(d1.env[0].get(t.x) == s.left and d2.env[0].get(t.x) == s.right)
            _require(_without(d1.env[0], t.x) == _without(d2.env[0], t.x))
            _require(_without(part[0], t.x) == _without(d1.env[0], t.x))
        case "⊤":
            _require(isinstance(t, hcp.Absurd) and not d.premises)
            _require(len(part) == 1 and part[0].get(t.x) == TOP)
        case _:
            raise _Invalid


def render_derivation(d: Derivation) -> str:
    return "\n".join(f"{'  ' * r['depth']}{r['rule']}: {r['conclusion']}" for r in derivation_json_lines(d))


def derivation_json_lines(d: Derivation) -> list[dict]:
    """One record per derivation node, in pre-order.  The nodes' terms are
    printed together, so each subterm they share is printed once."""
    from . import surface

    nodes = []
    stack = [(d, 0)]
    while stack:
        d, depth = stack.pop()
        nodes.append((d, depth))
        stack += [(c, depth + 1) for c in reversed(d.premises)]
    printed = surface.print_terms([d.term for d, _ in nodes])
    out = []
    for (d, depth), term in zip(nodes, printed):
        envs = surface.print_env(d.env) if isinstance(d.env, dict) else surface.print_hyper_env(d.env)
        out.append({"rule": d.rule, "conclusion": f"⊢ {term} : {envs}",
                    "children": len(d.premises), "depth": depth})
    return out
