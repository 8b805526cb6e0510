"""Structure shared by the CP and HCP term ASTs, declared once per constructor.

The walkers over both ASTs (printing, `reduction.measure`, the shrinker) read
these tables instead of matching on every constructor.
"""
from __future__ import annotations

from dataclasses import fields

from . import cp, hcp

# each term class's process-valued fields, in declaration order
SUBTERM_FIELDS = {
    cls: tuple(f.name for f in fields(cls) if f.name in ("left", "right", "body", "payload", "cont"))
    for base in (cp.CpTerm, hcp.HcpTerm) for cls in base.__subclasses__()
}

# each binding term class's bound-name field and the subterms that name scopes over
BINDERS = {
    cp.Cut: ("x", ("left", "right")),
    cp.Send: ("y", ("payload",)),
    cp.Recv: ("y", ("body",)),
    hcp.New: ("x", ("body",)),
    hcp.BoundOut: ("y", ("body",)),
    hcp.In: ("y", ("body",)),
}
