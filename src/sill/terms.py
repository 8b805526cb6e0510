"""The one schema of the CP and HCP term ASTs, and the traversals written on it.

Both calculi bind names the same way: a constructor binds at most one name
(CP cut, output and input; HCP restriction, bound output and input) over a
fixed set of its subterms.  `SCHEMA` records, per term class, its subject-name
fields, its binder field, its subterms inside and outside the binder's scope,
and its constructor's positional fields, from which each class's `__init__`
is generated.  The printer, the congruence walks, `reduction.measure` and the
shrinker read it, and so do the traversals below, each written once for both
dialects:

- `substitute` and `freshen_if_needed`: one explicit-stack renaming walk;
- `alpha_key`: a flat pre-order token tuple, and `alpha_eq` its equality;
- `binders`: every binder in pre-order;
- `FREE_NAMES`: per class, the free-names rule of one node.  `cp.free_names`
  and `hcp.free_names` apply it with themselves as the recursion, so that
  callers (and tracers) see one function per dialect.  Every branching node
  (CP cut, output and case; HCP mix and case) keeps its set on itself, the
  one free-name memo; a unary node derives its set from its subterm's.

Walks visit a node before its subterms and the subterms in field order
(pre-order); every binder's scoped subterms precede its unscoped ones.
"""
from __future__ import annotations

from dataclasses import fields
from operator import attrgetter
from typing import NamedTuple

from . import cp, hcp
from .names import Name, ensure_above, fresh
from .types import render


class Shape(NamedTuple):
    names: tuple[str, ...]  # name fields other than the binder
    binder: str | None  # the field of the name it binds, if any
    inside: tuple[str, ...]  # subterm fields in the binder's scope
    outside: tuple[str, ...]  # subterm fields outside it
    typed: bool  # whether it carries the type `ty` of its bound name
    subterms: tuple[str, ...]  # inside + outside, which is field order
    args: tuple[str, ...]  # the constructor's positional fields (all but `loc`)


def _shape(cls, names=(), binder=None, inside=(), outside=()) -> Shape:
    args = tuple(f.name for f in fields(cls) if not f.kw_only)
    subterms = inside + outside
    if tuple(f for f in args if f in subterms) != subterms:
        raise ValueError(f"{cls.__name__}: scoped subterms must precede the others")
    return Shape(names, binder, inside, outside, "ty" in args, subterms, args)


SCHEMA = {cls: _shape(cls, **decl) for classes, decl in [
    ((cp.Link, hcp.Link), dict(names=("x", "y"))),
    ((cp.Halt, cp.Absurd, hcp.Absurd), dict(names=("x",))),
    ((hcp.Inert,), {}),
    ((cp.Cut,), dict(binder="x", inside=("left", "right"))),
    ((hcp.New,), dict(binder="x", inside=("body",))),
    ((cp.Send,), dict(names=("x",), binder="y", inside=("payload",), outside=("cont",))),
    ((cp.Recv, hcp.BoundOut, hcp.In), dict(names=("x",), binder="y", inside=("body",))),
    ((cp.Wait, cp.Inl, cp.Inr, hcp.OutUnit, hcp.InUnit, hcp.Inl, hcp.Inr), dict(names=("x",), outside=("body",))),
    ((cp.Case, hcp.Case), dict(names=("x",), outside=("left", "right"))),
    ((hcp.Par,), dict(outside=("left", "right"))),
] for cls in classes}


# -- constructors ---------------------------------------------------------------


def _constructor(s: Shape):
    """The __init__ of a term class of shape s: `loc` and then the positional
    fields, each set with `object.__setattr__` (the classes are frozen), as
    the dataclass's own __init__ does, but without looking the setter up per
    field.  Writing to `__dict__` instead runs faster, but it gives each node
    a dict of its own: held terms took 10% more memory, and every field read
    got slower."""
    args = "".join(f"{f}, " for f in s.args)
    stores = "".join(f"    _set(self, {f!r}, {f})\n" for f in ("loc", *s.args))
    scope = {"_set": object.__setattr__}
    exec(f"def __init__(self, {args}*, loc=None):\n{stores}", scope)
    return scope["__init__"]


for _cls, _s in SCHEMA.items():  # the classes are declared init=False
    _cls.__init__ = _constructor(_s)
    _cls.__init__.__qualname__ = f"{_cls.__qualname__}.__init__"


# -- free names -----------------------------------------------------------------

def union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, reusing a or b when it already holds the other."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _free_names_rule(s: Shape):
    """rule(t, rec): the free names of a node of shape s, as an immutable set
    that callers may share, with rec giving those of its subterms.  A node
    with two subterms keeps its set in `_fv`, whatever its size, empty too,
    and callers read a kept set first: a term rebuilt around a rewrite makes
    sets only on the rewritten path.  A node with one subterm keeps none (a
    set on every node raised the fuzz suites' peak memory by 18%), and
    `union` lets a node share a subterm's set."""
    x = attrgetter(*s.names) if s.names else None
    b = attrgetter(s.binder) if s.binder else None
    if not s.subterms:
        if len(s.names) > 1:
            return lambda t, rec: frozenset(x(t))
        if x:
            return lambda t, rec: frozenset((x(t),))
        return lambda t, rec: frozenset()
    if len(s.subterms) == 1:
        sub = attrgetter(s.subterms[0])
        if b and x:
            return lambda t, rec: (rec(sub(t)) - {b(t)}) | {x(t)}
        if b:
            return lambda t, rec: rec(sub(t)) - {b(t)}
        return lambda t, rec: rec(sub(t)) | {x(t)}
    left, right = attrgetter(s.subterms[0]), attrgetter(s.subterms[1])
    # a binder's name leaves the sets of the subterms in its scope; a
    # subject name joins the set of the first subterm outside it
    bind_left, bind_right = bool(b) and len(s.inside) > 0, bool(b) and len(s.inside) > 1
    x_left = bool(x) and not s.inside

    def rule(t, rec):
        p, q = rec(left(t)), rec(right(t))
        if bind_right:
            fv = (p | q) - {b(t)}
        else:
            if bind_left:
                p = p - {b(t)}
            if x_left:
                p = p | {x(t)}
            elif x:
                q = q | {x(t)}
            fv = union(p, q)
        object.__setattr__(t, "_fv", fv)
        return fv

    return rule


FREE_NAMES = {cls: _free_names_rule(s) for cls, s in SCHEMA.items()}


# -- renaming -------------------------------------------------------------------


# per class, each positional field with what a renaming does to it
_TERM, _BINDER, _NAME, _KEPT = range(4)
_RENAMED = {cls: tuple((f, _TERM if f in s.subterms else _BINDER if f == s.binder
                        else _NAME if f in s.names else _KEPT) for f in s.args)
            for cls, s in SCHEMA.items()}


def _rename(t, env: dict, pick, prune: bool):
    """t with each free occurrence of a name n in env replaced by env[n].

    At each binder b, in pre-order, the renaming in b's scope drops b, and
    maps b to pick(b, renaming) unless that is None.  With prune, a subterm
    under an empty renaming is not visited.  A subterm that comes out the
    same is returned as itself (keeping its `loc` and kept sets); every other
    node is rebuilt without a `loc`."""
    out: list = []  # finished subterms, each node's in field order
    stack: list = [(t, env)]  # (term, renaming) to visit, or (term, (renaming, new binder)) to build
    while stack:
        node, env = stack.pop()
        if type(env) is tuple:
            env, new = env
            cls = type(node)
            k = len(SCHEMA[cls].subterms)
            subs = iter(out[len(out) - k:])
            del out[len(out) - k:]
            vals = []
            same = new is None
            for f, kind in _RENAMED[cls]:
                v = getattr(node, f)
                if kind == _TERM:
                    w = next(subs)
                elif kind == _NAME:
                    w = env.get(v, v)
                elif kind == _BINDER and new is not None:
                    w = new
                else:
                    w = v
                same = same and w is v
                vals.append(w)
            out.append(node if same else cls(*vals))
            continue
        if prune and not env:
            out.append(node)
            continue
        s = SCHEMA[type(node)]
        inner = env
        new = None
        if s.binder is not None:
            b = getattr(node, s.binder)
            if b in env:
                inner = dict(env)
                del inner[b]
            new = pick(b, inner)
            if new is not None:
                inner = dict(inner)
                inner[b] = new
        stack.append((node, (env, new)))
        for f in reversed(s.outside):
            stack.append((getattr(node, f), env))
        for f in reversed(s.inside):
            stack.append((getattr(node, f), inner))
    return out[0]


def substitute(t, w: Name, x: Name):
    """Replace every free occurrence of x by w, renaming binders equal to w
    (with fresh names from the global supply, drawn in pre-order)."""
    if w == x:
        return t

    def capture(b: Name, renaming: dict) -> Name | None:
        return fresh(b.surface) if b in renaming.values() else None

    return _rename(t, {x: w}, capture, prune=True)


def binders(t) -> list[Name]:
    """Every binder of t, in pre-order."""
    out: list[Name] = []
    stack = [t]
    while stack:
        node = stack.pop()
        s = SCHEMA[type(node)]
        if s.binder is not None:
            out.append(getattr(node, s.binder))
        for f in reversed(s.subterms):
            stack.append(getattr(node, f))
    return out


def freshen_if_needed(t):
    """Rename binders so all binders are distinct and disjoint from free names.

    Stable: renaming draws uids just above the largest uid in the term, in
    pre-order, so repeated calls on the same term give the same result.  A
    binder is renamed when a binder of the same name precedes it or the name
    is free in t.

    A term found clean is marked as such, so asking again costs nothing.
    """
    if getattr(t, "_clean", False):
        return t
    bs = binders(t)
    fv = (cp.free_names if isinstance(t, cp.CpTerm) else hcp.free_names)(t)
    seen: set[Name] = set()
    for b in bs:
        if b in seen or b in fv:
            break
        seen.add(b)
    else:
        object.__setattr__(t, "_clean", True)
        return t
    top = max(n.uid for n in (set(bs) | fv))
    seen.clear()

    def clash(b: Name, renaming: dict) -> Name | None:
        nonlocal top
        if b not in seen and b not in fv:
            seen.add(b)
            return None
        top += 1
        return Name(b.surface, top)

    out = _rename(t, {}, clash, prune=False)
    ensure_above(top)
    return out


# -- alpha equivalence ----------------------------------------------------------


def alpha_key(t) -> tuple:
    """A flat key, equal for alpha-equivalent terms and only for them: per node
    in pre-order, its class, its subject names (a bound one as the pre-order
    index of its binder, a free one as its surface) and the rendering of its
    type.  Keys compare and hash without recursion."""
    key: list = []
    index: dict[Name, int] = {}  # bound name -> index of its innermost binder in scope
    count = 0
    stack: list = [t]
    while stack:
        node = stack.pop()
        if type(node) is tuple:  # (name, index it had before): its scope ends
            b, before = node
            if before is None:
                del index[b]
            else:
                index[b] = before
            continue
        cls = type(node)
        s = SCHEMA[cls]
        key.append(cls)
        for f in s.names:
            n = getattr(node, f)
            key.append(index.get(n, n.surface))
        if s.typed:
            key.append(render(node.ty))
        for f in reversed(s.outside):
            stack.append(getattr(node, f))
        if s.binder is not None:
            b = getattr(node, s.binder)
            stack.append((b, index.get(b)))
            index[b] = count
            count += 1
            for f in reversed(s.inside):
                stack.append(getattr(node, f))
    return tuple(key)


def alpha_eq(t1, t2) -> bool:
    """Alpha equivalence; free names must agree on surface spelling."""
    return alpha_key(t1) == alpha_key(t2)
