"""Channel names with stable internal identities.

A name pairs the surface spelling (what gets printed) with an integer uid.
Binders always get fresh uids, so two binders are never confused, substitution
cannot capture, and alpha-comparison reduces to walking two binder maps.
"""
from __future__ import annotations

from dataclasses import dataclass

_counter = 0


@dataclass(frozen=True)
class Name:
    surface: str
    uid: int

    def __str__(self) -> str:
        return self.surface

    def __hash__(self) -> int:
        # the dataclass hash, computed once: names key most dicts and sets
        try:
            return self._hash
        except AttributeError:
            h = hash((self.surface, self.uid))
            object.__setattr__(self, "_hash", h)
            return h


@dataclass(frozen=True)
class Loc:
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
