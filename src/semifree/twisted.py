"""Shifts of objects and one-step cones, with exact Koszul-sign bookkeeping.

Only what the computations need: per-object shifts with the canonical
comparison map, and the extension of a category by the cone of a closed
degree-0 morphism with its four structural generators and rewrite rules.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Generator, NcPoly, compose, render_poly
from .constructions import _fresh
from .dgcat import DgFunctor, SemifreeDgCat, new_semifree, validate_functor


def _shifted_object(obj: str, m: int) -> str:
    return obj if m == 0 else f"{obj}[{m}]"


@dataclass(frozen=True)
class ShiftComparison:
    """The canonical map into a shifted presentation.

    tilde() applies it to a polynomial with the Koszul sign rule
    (1_{p,q} (x) f)(1_{q,r} (x) g) = (-1)^{|f|(q-r)} 1_{p,r} (x) (fg);
    it is not multiplicative across objects with unequal shifts, so it is
    exposed as a map rather than a raw functor.
    """

    source: object
    target: object
    shifts: dict
    object_map: dict
    gen_map: dict  # name -> Generator in target

    def tilde(self, p: NcPoly) -> NcPoly:
        return _tilde(p, self.target.ring, self.shifts, self.object_map,
                      self.gen_map)

    def annotated_functor(self) -> DgFunctor:
        gm = {name: NcPoly.gen(self.target.ring, g)
              for name, g in self.gen_map.items()}
        return DgFunctor(self.source, self.target, dict(self.object_map),
                         gm, dict(self.shifts))

    def compose_with(self, f: DgFunctor) -> DgFunctor:
        """Strict functor x -> shifted target, generator g -> tilde(f(g))."""
        gm = {name: self.tilde(img) for name, img in f.generator_map.items()}
        om = {o: self.object_map[f.object_map[o]] for o in f.source.objects}
        out = DgFunctor(f.source, self.target, om, gm)
        validate_functor(out)
        return out


def _tilde(p: NcPoly, ring, shifts: dict, object_map: dict,
           gen_map: dict) -> NcPoly:
    """p renamed into the shifted presentation with its Koszul signs: a word
    f_k...f_1 from X_0 gets (-1)^(sum_{i>=2} |f_i| (s(X_{i-1}) - s(X_0)))."""
    out = NcPoly.zero(ring, object_map[p.source], object_map[p.target])
    for word, coeff in p.terms.items():
        if isinstance(word, str):
            out.add_in_place(NcPoly.identity(ring, object_map[word]), coeff)
            continue
        s0 = shifts.get(word[-1].source, 0)
        exponent = sum(g.degree * (shifts.get(g.source, 0) - s0)
                       for g in word[:-1])
        new_word = tuple(gen_map[g.name] for g in word)
        sign = -1 if exponent % 2 else 1
        out.add_in_place(NcPoly(ring, new_word[-1].source, new_word[0].target,
                                {new_word: ring.one()}),
                         ring.mul(ring.normalize(sign), coeff))
    return out


def shift_presentation(cat: SemifreeDgCat, shifts: dict):
    """Shift objects by the given integers.

    Generator degrees move by shift(source) - shift(target); the returned
    comparison tracks the signs picked up by composites, and its annotated
    functor certificate is checked via the shift-aware validation.
    """
    if cat.rules:
        raise ValueError("shift_presentation cannot keep a category's rules")
    shifts = {o: int(shifts.get(o, 0)) for o in cat.objects}
    ring = cat.ring
    object_map = {o: _shifted_object(o, shifts[o]) for o in cat.objects}
    gen_map = {}
    gens = []
    for g in cat.generators:
        ng = Generator(g.name, object_map[g.source], object_map[g.target],
                       g.degree + shifts[g.source] - shifts[g.target], g.rank)
        gens.append(ng)
        gen_map[g.name] = ng

    table = {}
    for g in cat.generators:
        dg = _tilde(cat.differentials[g.name], ring, shifts, object_map,
                    gen_map)
        if (shifts[g.source] - shifts[g.target]) % 2:
            dg = -dg
        table[g.name] = dg
    entry = {"op": "shift", "shifts": dict(sorted(shifts.items()))}
    shifted = new_semifree(ring, tuple(object_map[o] for o in cat.objects),
                           gens, table, cat.provenance + (entry,))
    comparison = ShiftComparison(cat, shifted, shifts, object_map, gen_map)
    validate_functor(comparison.annotated_functor())
    return shifted, comparison


# ---------------------------------------------------------------------------
# one-step cones
# ---------------------------------------------------------------------------

def cone_object(g_name: str) -> str:
    return f"Cone({g_name})"


def cone_extend(cat, g, cone_name: str | None = None) -> SemifreeDgCat:
    """Extend by Cone(g) for a closed degree-0 morphism g: L0 -> L1.

    Adds i0, i1, p0, p1 with di0 = i1 g, dp1 = -g p0 and the splitting
    rewrite rules; i0 p0 rewrites to 1 - i1 p1 so the system terminates.
    """
    ring = cat.ring
    if isinstance(g, str):
        g_poly = NcPoly.gen(ring, cat.gen(g))
        label = g
    else:
        g_poly = g
        label = render_poly(g).replace("{", "(").replace("}", ")")
    if g_poly.degree() not in (0, None):
        raise ValueError("cone takes a degree-0 morphism")
    if not cat.normalize(cat.d(g_poly)).is_zero():
        raise ValueError("cone takes a closed morphism")
    l0, l1 = g_poly.source, g_poly.target
    cone = cone_name or cone_object(label)
    if cone in cat.objects:
        raise ValueError(f"object {cone!r} already present")
    taken = {gen.name for gen in cat.generators}
    rank = cat.next_rank()
    i1 = Generator(_fresh("i1", taken), l1, cone, 0, rank)
    i0 = Generator(_fresh("i0", taken), l0, cone, -1, rank + 1)
    p0 = Generator(_fresh("p0", taken), cone, l0, 1, rank + 2)
    p1 = Generator(_fresh("p1", taken), cone, l1, 0, rank + 3)

    gens = list(cat.generators) + [i1, i0, p0, p1]
    table = dict(cat.differentials)
    table[i1.name] = NcPoly.zero(ring, l1, cone)
    table[i0.name] = compose(NcPoly.gen(ring, i1), g_poly)
    table[p0.name] = NcPoly.zero(ring, cone, l0)
    table[p1.name] = -compose(g_poly, NcPoly.gen(ring, p0))

    rules = list(cat.rules)
    rules += [
        ((p0, i0), NcPoly.identity(ring, l0)),
        ((p0, i1), NcPoly.zero(ring, l1, l0)),
        ((p1, i0), NcPoly.zero(ring, l0, l1)),
        ((p1, i1), NcPoly.identity(ring, l1)),
        ((i0, p0), NcPoly.identity(ring, cone)
         - compose(NcPoly.gen(ring, i1), NcPoly.gen(ring, p1))),
    ]
    entry = {"op": "cone", "of": label, "object": cone,
             "structural": [i0.name, i1.name, p0.name, p1.name]}
    return new_semifree(ring, list(cat.objects) + [cone], gens, table,
                        cat.provenance + (entry,), rules, cat.weights)


# ---------------------------------------------------------------------------
# the plumbing-sector model categories and the generator change
# ---------------------------------------------------------------------------

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


def generator_change_d12(n: int, ring):
    """The nice-generator change: a functor from the x/y presentation into
    the cone extension of build_d01, x -> i1 and y -> (-1)^n h p0 + alpha1 p1.

    Returns (d12, functor, images) where images records the normal forms of
    the composites yx and xy in the cone extension.
    """
    d01 = build_d01(n, ring)
    coned = cone_extend(d01, "g")
    d12 = build_d12(n, ring)
    i1 = coned.gen("i1")
    p0 = coned.gen("p0")
    p1 = coned.gen("p1")
    h = coned.gen("h")
    alpha1 = coned.gen("alpha1")
    sign = -1 if n % 2 else 1
    y_img = (compose(NcPoly.gen(ring, h), NcPoly.gen(ring, p0)).scale(sign)
             + compose(NcPoly.gen(ring, alpha1), NcPoly.gen(ring, p1)))
    functor = DgFunctor(d12, coned,
                        {"L1": "L1", "L2": cone_object("g")},
                        {"x": NcPoly.gen(ring, i1), "y": y_img})
    validate_functor(functor)
    x_poly = NcPoly.gen(ring, d12.gen("x"))
    y_poly = NcPoly.gen(ring, d12.gen("y"))
    images = {
        "yx": coned.normalize(functor.apply(compose(y_poly, x_poly))),
        "xy": coned.normalize(functor.apply(compose(x_poly, y_poly))),
    }
    return d12, functor, images


def build_e12(n: int, ring, first_form: bool = False) -> SemifreeDgCat:
    """The cone-side presentation of the plumbing-sector category.

    The first form keeps the loop alpha1 and the generator c with
    dc = alpha1 b; the default form is the result of the basis change
    y := (-1)^n c + alpha1 a followed by eliminating alpha1 = yx.
    """
    if first_form:
        alpha1 = Generator("alpha1", "L1", "L1", 2 - n, 0)
        x = Generator("x", "L1", "L2", 0, 1)
        b = Generator("b", "L2", "L1", 1, 2)
        a = Generator("a", "L2", "L1", 0, 3)
        c = Generator("c", "L2", "L1", 2 - n, 4)
        gens = (alpha1, x, b, a, c)
        table = {
            "alpha1": NcPoly.zero(ring, "L1", "L1"),
            "x": NcPoly.zero(ring, "L1", "L2"),
            "b": NcPoly.zero(ring, "L2", "L1"),
            "a": -NcPoly.gen(ring, b),
            "c": compose(NcPoly.gen(ring, alpha1), NcPoly.gen(ring, b)),
        }
        rules = [
            ((a, x), NcPoly.identity(ring, "L1")),
            ((b, x), NcPoly.zero(ring, "L1", "L1")),
            ((c, x), NcPoly.zero(ring, "L1", "L1")),
        ]
        entry = {"op": "build", "model": f"E12:{n}", "form": "first"}
    else:
        x = Generator("x", "L1", "L2", 0, 1)
        b = Generator("b", "L2", "L1", 1, 2)
        a = Generator("a", "L2", "L1", 0, 3)
        y = Generator("y", "L2", "L1", 2 - n, 4)
        gens = (x, b, a, y)
        table = {
            "x": NcPoly.zero(ring, "L1", "L2"),
            "b": NcPoly.zero(ring, "L2", "L1"),
            "a": -NcPoly.gen(ring, b),
            "y": NcPoly.zero(ring, "L2", "L1"),
        }
        rules = [
            ((a, x), NcPoly.identity(ring, "L1")),
            ((b, x), NcPoly.zero(ring, "L1", "L1")),
        ]
        entry = {"op": "build", "model": f"E12:{n}"}
    return new_semifree(ring, ("L1", "L2"), gens, table, (entry,), rules)
