"""The two-object models of a plumbing sector: D12 (x: L1 -> L2 and
y: L2 -> L1), and B01 and D01 (g: L0 -> L1 with the loops and the
homotopy h).  build imports this module only for these three tags.
"""

from __future__ import annotations

from .algebra import Generator, NcPoly, compose
from .dgcat import SemifreeDgCat, new_semifree


def build_d01(n: int, ring) -> SemifreeDgCat:
    """Two objects, g: L0 -> L1 and a loop alpha1 with dh = alpha1 g."""
    g = Generator("g", "L0", "L1", 0, 0)
    alpha1 = Generator("alpha1", "L1", "L1", 2 - n, 1)
    h = Generator("h", "L0", "L1", 1 - n, 2)
    table = {
        "g": NcPoly.zero(ring, "L0", "L1"),
        "alpha1": NcPoly.zero(ring, "L1", "L1"),
        "h": compose(NcPoly.gen(ring, alpha1), NcPoly.gen(ring, g)),
    }
    return new_semifree(ring, ("L0", "L1"), (g, alpha1, h), table,
                        ({"op": "build", "model": f"D01:{n}"},))


def build_b01(n: int, ring) -> SemifreeDgCat:
    """build_d01 plus the loop alpha0 at L0; dh = alpha1 g - g alpha0."""
    alpha0 = Generator("alpha0", "L0", "L0", 2 - n, 0)
    g = Generator("g", "L0", "L1", 0, 1)
    alpha1 = Generator("alpha1", "L1", "L1", 2 - n, 2)
    h = Generator("h", "L0", "L1", 1 - n, 3)
    table = {
        "alpha0": NcPoly.zero(ring, "L0", "L0"),
        "g": NcPoly.zero(ring, "L0", "L1"),
        "alpha1": NcPoly.zero(ring, "L1", "L1"),
        "h": (compose(NcPoly.gen(ring, alpha1), NcPoly.gen(ring, g))
              - compose(NcPoly.gen(ring, g), NcPoly.gen(ring, alpha0))),
    }
    return new_semifree(ring, ("L0", "L1"), (alpha0, g, alpha1, h), table,
                        ({"op": "build", "model": f"B01:{n}"},))


def build_d12(n: int, ring) -> SemifreeDgCat:
    """Two objects with x: L1 -> L2 of degree 0 and y: L2 -> L1 of 2 - n."""
    x = Generator("x", "L1", "L2", 0, 0)
    y = Generator("y", "L2", "L1", 2 - n, 1)
    table = {"x": NcPoly.zero(ring, "L1", "L2"),
             "y": NcPoly.zero(ring, "L2", "L1")}
    return new_semifree(ring, ("L1", "L2"), (x, y), table,
                        ({"op": "build", "model": f"D12:{n}"},))


