"""HCP process terms: CP's constructs taken apart into pi-calculus atoms.

Name restriction New(x, A, body) binds x in body; both endpoints of the
restricted channel share the name x, with A the type of one endpoint (the
other has dual(A)).  BoundOut(x, y, body) and In(x, y, body) bind y in body.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .names import Loc, Name
from .types import Type


@dataclass(frozen=True)
class HcpTerm:
    loc: Loc | None = field(default=None, compare=False, repr=False, kw_only=True)


@dataclass(frozen=True, init=False)
class Link(HcpTerm):
    x: Name
    y: Name


@dataclass(frozen=True, init=False)
class Inert(HcpTerm):
    pass


@dataclass(frozen=True, init=False)
class New(HcpTerm):
    x: Name
    ty: Type
    body: HcpTerm


@dataclass(frozen=True, init=False)
class Par(HcpTerm):
    left: HcpTerm
    right: HcpTerm


@dataclass(frozen=True, init=False)
class BoundOut(HcpTerm):
    x: Name
    y: Name
    body: HcpTerm


@dataclass(frozen=True, init=False)
class In(HcpTerm):
    x: Name
    y: Name
    body: HcpTerm


@dataclass(frozen=True, init=False)
class OutUnit(HcpTerm):
    x: Name
    body: HcpTerm


@dataclass(frozen=True, init=False)
class InUnit(HcpTerm):
    x: Name
    body: HcpTerm


@dataclass(frozen=True, init=False)
class Inl(HcpTerm):
    x: Name
    body: HcpTerm


@dataclass(frozen=True, init=False)
class Inr(HcpTerm):
    x: Name
    body: HcpTerm


@dataclass(frozen=True, init=False)
class Case(HcpTerm):
    x: Name
    left: HcpTerm
    right: HcpTerm


@dataclass(frozen=True, init=False)
class Absurd(HcpTerm):
    x: Name


# the schema, the traversals and the __init__ of the classes above (declared
# init=False) live in `terms`, which reads them
from . import terms  # noqa: E402


def free_names(t: HcpTerm) -> frozenset[Name]:
    """The names occurring free in t, as an immutable set that callers may
    share: the set t keeps, if any, else `terms.FREE_NAMES`' rule for t."""
    fv = getattr(t, "_fv", None)
    return terms.FREE_NAMES[t.__class__](t, free_names) if fv is None else fv
