"""The homomorphic translation of CP terms into HCP terms, declared once.

`SAME` pairs each CP constructor whose HCP image has the same fields with
that image.  `MIXED` pairs cut, output and halt with the HCP restriction,
output and unit output whose body is the mix of the translated subterms: a
parallel pair, or the inert process for halt.  Subterms are the last fields
of every constructor.  Names are preserved, so the translation commutes with
substitution and preserves free names.  `bridge` reads the same tables: typed
translation pairs each CP derivation node with its image, and
disentanglement reads HCP nodes back through `from_image`.
"""
from __future__ import annotations

from operator import attrgetter

from . import cp, hcp
from .terms import SCHEMA

SAME = {cp.Link: hcp.Link, cp.Recv: hcp.In, cp.Wait: hcp.InUnit, cp.Inl: hcp.Inl,
        cp.Inr: hcp.Inr, cp.Case: hcp.Case, cp.Absurd: hcp.Absurd}
MIXED = {cp.Cut: hcp.New, cp.Send: hcp.BoundOut, cp.Halt: hcp.OutUnit}
_PREIMAGE = {image: src for src, image in SAME.items()}


def _heads(cls) -> tuple[str, ...]:
    s = SCHEMA[cls]
    return s.args[:len(s.args) - len(s.subterms)]


def _plan(src, image):
    """The image of a node of class src.  It translates the subterms through
    `_PLANS` directly, so each level of a term costs one frame."""
    names = _heads(src)
    get = attrgetter(*names)
    head = get if len(names) > 1 else (lambda t: (get(t),))
    subs = [attrgetter(f) for f in SCHEMA[src].subterms]
    mixed = src in MIXED
    if not subs:
        return (lambda t: image(*head(t), hcp.Inert())) if mixed else (lambda t: image(*head(t)))
    if len(subs) == 1:
        (sub,) = subs

        def unary(t):
            p = sub(t)
            return image(*head(t), _PLANS[p.__class__](p))

        return unary
    left, right = subs

    def binary(t):
        p, q = left(t), right(t)
        p, q = _PLANS[p.__class__](p), _PLANS[q.__class__](q)
        return image(*head(t), hcp.Par(p, q)) if mixed else image(*head(t), p, q)

    return binary


_PLANS = {src: _plan(src, image) for src, image in (SAME | MIXED).items()}


def cp_to_hcp(t: cp.CpTerm) -> hcp.HcpTerm:
    """The image of t.  It has t's binders in the same order and t's free
    names, so the image of a term marked clean (see
    `terms.freshen_if_needed`) is clean, and is marked so."""
    plan = _PLANS.get(t.__class__)
    if plan is None:
        raise TypeError(f"not a cp term: {t!r}")
    h = plan(t)
    if getattr(t, "_clean", False):
        object.__setattr__(h, "_clean", True)
    return h


def from_image(h: hcp.HcpTerm, *subterms: cp.CpTerm) -> cp.CpTerm:
    """The CP node whose image is h, of a `SAME` class, over the CP subterms."""
    return _PREIMAGE[h.__class__](*[getattr(h, f) for f in _heads(h.__class__)], *subterms)
