"""CP process terms: the monolithic constructors of classical processes.

Binding structure: Cut(x, A, p, q) binds x in both branches, with A the type
of x's endpoint in p (so x : dual(A) in q).  Send(x, y, payload, cont) binds
the fresh y in payload only, while x's continuation lives in cont.
Recv(x, y, body) binds y in body.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .names import Loc, Name
from .types import Type


@dataclass(frozen=True)
class CpTerm:
    loc: Loc | None = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, init=False)
class Link(CpTerm):
    x: Name
    y: Name


@dataclass(frozen=True, init=False)
class Cut(CpTerm):
    x: Name
    ty: Type
    left: CpTerm
    right: CpTerm


@dataclass(frozen=True, init=False)
class Send(CpTerm):
    x: Name
    y: Name
    payload: CpTerm
    cont: CpTerm


@dataclass(frozen=True, init=False)
class Recv(CpTerm):
    x: Name
    y: Name
    body: CpTerm


@dataclass(frozen=True, init=False)
class Halt(CpTerm):
    x: Name


@dataclass(frozen=True, init=False)
class Wait(CpTerm):
    x: Name
    body: CpTerm


@dataclass(frozen=True, init=False)
class Inl(CpTerm):
    x: Name
    body: CpTerm


@dataclass(frozen=True, init=False)
class Inr(CpTerm):
    x: Name
    body: CpTerm


@dataclass(frozen=True, init=False)
class Case(CpTerm):
    x: Name
    left: CpTerm
    right: CpTerm


@dataclass(frozen=True, init=False)
class Absurd(CpTerm):
    x: Name


# the schema, the traversals and the __init__ of the classes above (declared
# init=False) live in `terms`, which reads them
from . import terms  # noqa: E402


def free_names(t: CpTerm) -> frozenset[Name]:
    """The names occurring free in t, as an immutable set that callers may
    share: the set t keeps, if any, else `terms.FREE_NAMES`' rule for t."""
    fv = getattr(t, "_fv", None)
    return terms.FREE_NAMES[t.__class__](t, free_names) if fv is None else fv
