"""Channel names with stable internal identities.

A name pairs the surface spelling (what gets printed) with an integer uid.
Binders always get fresh uids, so two binders are never confused, substitution
cannot capture, and alpha-comparison reduces to walking two binder maps.
"""
from __future__ import annotations

from typing import NamedTuple

_counter = 0


class Name(NamedTuple):
    """A (surface, uid) tuple, so that hashing and equality are tuple's own:
    a name hashes as hash((surface, uid))."""

    surface: str
    uid: int

    def __str__(self) -> str:
        return self.surface


class Loc(NamedTuple):
    """A source position, 1-based; it prints as "line:col"."""

    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


def fresh(surface: str) -> Name:
    global _counter
    _counter += 1
    return Name(surface, _counter)


def ensure_above(uid: int) -> None:
    """Bump the supply past uid (after local renumbering, see freshen)."""
    global _counter
    if _counter <= uid:
        _counter = uid + 1


class supply_from:
    """Temporarily draw uids from a fixed base, so a computation's names are
    a pure function of its inputs; on exit the global supply resumes above
    everything handed out."""

    def __init__(self, base: int):
        self.base = base

    def __enter__(self):
        global _counter
        self.saved = _counter
        _counter = self.base
        return self

    def __exit__(self, *exc):
        global _counter
        _counter = max(self.saved, _counter)
        return False
