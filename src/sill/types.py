"""MALL session types with involutive duality.

Grammar (ASCII): 1, bot, 0, top, A * B, A par B, A + B, A & B.
Binary operators are right-associative; * and par share one precedence
level, + and & share a looser one, and levels never mix without parens.

Types are hash-consed (Filliâtre & Conchon, "Type-safe modular
hash-consing", 2006): a constructor returns the one object with its class
and operands, so equal types are the same object, and `==` and `hash` are
the interpreter's identity defaults.  A connective is built together with
its dual, and each object carries its dual, size and rendering as fields
set when it is made.  Types are never mutated.
"""
from __future__ import annotations

from operator import attrgetter


class Type:
    __slots__ = ("dual", "size", "text")


_UNITS: dict[type, Type] = {}


class _Unit(Type):
    __slots__ = ()

    def __new__(cls):
        return _UNITS[cls]

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class One(_Unit):
    __slots__ = ()


class Bot(_Unit):
    __slots__ = ()


class Zero(_Unit):
    __slots__ = ()


class Top(_Unit):
    __slots__ = ()


def _unit(cls: type, text: str) -> Type:
    a = object.__new__(cls)
    a.size, a.text = 1, text
    _UNITS[cls] = a
    return a


ONE, BOT, ZERO, TOP = _unit(One, "1"), _unit(Bot, "bot"), _unit(Zero, "0"), _unit(Top, "top")
ONE.dual, BOT.dual, ZERO.dual, TOP.dual = BOT, ONE, TOP, ZERO


# (class, left, right) -> the connective; operands are interned, so the key
# hashes and compares by identity
_TABLE: dict[tuple, Type] = {}


class _Binary(Type):
    """A connective over (left, right)."""

    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left: Type, right: Type):
        try:
            return _TABLE[cls, left, right]
        except KeyError:
            pass
        if not (isinstance(left, Type) and isinstance(right, Type)):
            raise TypeError(f"not a type: {left!r} or {right!r}")
        a = _connective(cls, left, right)
        d = _connective(_DUAL[cls], left.dual, right.dual)
        a.dual, d.dual = d, a
        return a

    def __repr__(self) -> str:
        return f"{type(self).__name__}(left={self.left!r}, right={self.right!r})"


class Tensor(_Binary):
    __slots__ = ()


class Par(_Binary):
    __slots__ = ()


class Plus(_Binary):
    __slots__ = ()


class With(_Binary):
    __slots__ = ()


_DUAL = {Tensor: Par, Par: Tensor, With: Plus, Plus: With}
_OPS = {Tensor: "*", Par: "par", Plus: "+", With: "&"}


def _connective(cls: type, left: Type, right: Type) -> Type:
    a = object.__new__(cls)
    a.left, a.right = left, right
    a.size = left.size + right.size + 1
    a.text = f"{_sub(left, a, False)} {_OPS[cls]} {_sub(right, a, True)}"
    _TABLE[cls, left, right] = a
    return a


def _level(a: Type) -> int:
    if type(a) in (Tensor, Par):
        return 1
    if type(a) in (Plus, With):
        return 0
    return 2


def _sub(child: Type, parent: Type, is_right: bool) -> str:
    if _level(child) > _level(parent):
        return child.text
    if is_right and type(child) is type(parent):
        return child.text
    return f"({child.text})"


# field reads, kept as functions for the callers that map or pass them
dual = attrgetter("dual")  # the dual type; dual(dual(a)) is a
size = attrgetter("size")  # formula size, the unit of the cut-reduction termination measure
render = attrgetter("text")  # canonical ASCII form with minimal parentheses
