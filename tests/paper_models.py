"""The paper's local models and constructions that the tests check but no
subcommand runs: per-object shifts, one-step cones, the D12 -> E12
generator change, the named inclusion functors, the sphere's last-loop
inverse, the surface relation form, the elimination of a generator a rule
names, and the grading class sigma of a plumbing."""

from __future__ import annotations

from dataclasses import dataclass

from semifree.algebra import (
    Generator,
    NcPoly,
    Ring,
    compose,
    compose_all,
    render_poly,
)
from semifree.constructions import (
    _fresh,
    localization_records,
    localize,
    name_as_generator,
)
from semifree.dgcat import (
    DgFunctor,
    SemifreeDgCat,
    new_semifree,
    validate_functor,
)
from semifree.fukaya import ModelId, build
from semifree.plumbing import Arrow, PlumbingData, _spanning_forest
from semifree.reduce import _substitute
from semifree.twisted import build_d01, build_d12


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------

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
    comparison tracks the signs picked up by composites.
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
    return shifted, ShiftComparison(cat, shifted, shifts, object_map, gen_map)


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
# the generator change into the cone extension, and E12
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# inclusion functors
# ---------------------------------------------------------------------------

def _cluster_map(source, target, base: dict) -> dict:
    """Extend a generator-name map over localization clusters on both sides."""
    src_records = {r.inverted: r for r in localization_records(source)}
    tgt_records = {r.inverted: r for r in localization_records(target)}
    out = dict(base)
    for name, image in base.items():
        if name in src_records and image in tgt_records:
            for n1, n2 in zip(src_records[name].names(),
                              tgt_records[image].names()):
                out[n1] = n2
    return out


def _name_functor(source, target, object_map: dict, name_map: dict) -> DgFunctor:
    ring = target.ring
    gm = {src: NcPoly.gen(ring, target.gen(tgt))
          for src, tgt in name_map.items()}
    functor = DgFunctor(source, target, object_map, gm)
    validate_functor(functor)
    return functor


def inclusion_functor(kind: str, ring: Ring, **params) -> DgFunctor:
    """The named inclusion functors between model categories.

    kinds: "F" / "G" (punctured-sphere boundary inclusions, z to a_i or
    b_i), "surface" (z to a_i in the surface model), "Phi" / "Psi"
    (plumbing-sector inclusions), with "_shifted" variants taking m1/m2,
    and "j0" / "j1" / "j2" (disk edges into the stopped-disk model).
    """
    if kind in ("F", "G"):
        n, m_plus, m_minus, i = (params["n"], params["m_plus"],
                                 params.get("m_minus", 0), params["i"])
        target = build(ModelId("S", (n, m_plus, m_minus)), ring)
        source = build(ModelId("C", (n - 1,)), ring)
        base = f"a{i}" if kind == "F" else f"b{i}"
        limit = m_plus if kind == "F" else m_minus
        if not 1 <= i <= limit:
            raise ValueError(f"index {i} out of range for {kind}")
        names = _cluster_map(source, target, {"z": base})
        return _name_functor(source, target, {"L": "L"}, names)
    if kind == "surface":
        g, m, i = params["g"], params["m"], params["i"]
        if not 1 <= i <= m:
            raise ValueError(f"index {i} out of range")
        target = build(ModelId("M", (g, m)), ring)
        source = build(ModelId("C", (1,)), ring)
        names = _cluster_map(source, target, {"z": f"a{i}"})
        return _name_functor(source, target, {"L": "L"}, names)
    if kind in ("Phi", "Psi"):
        n = params["n"]
        if n == 2:
            return _sector_inclusion_2(kind, ring)
        source = build(ModelId("C", (n - 1,)), ring)
        target = build_d12(n, ring)
        x = NcPoly.gen(ring, target.gen("x"))
        y = NcPoly.gen(ring, target.gen("y"))
        if kind == "Phi":
            functor = DgFunctor(source, target, {"L": "L1"},
                                {"z": compose(y, x)})
        else:
            functor = DgFunctor(source, target, {"L": "L2"},
                                {"z": compose(x, y)})
        validate_functor(functor)
        return functor
    if kind in ("Phi_shifted", "Psi_shifted"):
        n, m1, m2 = params["n"], params.get("m1", 0), params.get("m2", 0)
        plain = inclusion_functor(kind.split("_")[0], ring, n=n)
        shifted, comparison = shift_presentation(
            plain.target, {"L1": m1, "L2": m2})
        return comparison.compose_with(plain)
    if kind in ("j0", "j1", "j2"):
        source = build(ModelId("A1",), ring)
        a2 = build(ModelId("A2",), ring)
        if kind == "j0":
            return _name_functor(source, a2, {"K": "K0"}, {})
        if kind == "j1":
            return _name_functor(source, a2, {"K": "K1"}, {})
        coned = cone_extend(a2, "f")
        functor = DgFunctor(source, coned, {"K": cone_object("f")}, {})
        validate_functor(functor)
        return functor
    raise ValueError(f"unknown inclusion kind {kind!r}")


def _sector_inclusion_2(kind: str, ring: Ring) -> DgFunctor:
    """n = 2 sector inclusions into the localized x/y presentation.

    Phi sends z to the generator naming 1 + yx (cluster to cluster); Psi is
    given on the unlocalized circle algebra, z to 1 + xy, whose
    invertibility witness is constructed separately (one_plus_xy_inverse).
    """
    target = sector_category_2(ring)
    if kind == "Phi":
        source = build(ModelId("C", (1,)), ring)
        gm = {"z": NcPoly.gen(ring, target.gen("w"))}
        rec_src = localization_records(source)[0]
        rec_tgt = [r for r in localization_records(target)
                   if r.inverted == "w"][0]
        for n1, n2 in zip(rec_src.names(), rec_tgt.names()):
            gm[n1] = NcPoly.gen(ring, target.gen(n2))
        functor = DgFunctor(source, target, {"L": "L1"}, gm)
        validate_functor(functor)
        return functor
    source = new_semifree(ring, ("L",), (Generator("z", "L", "L", 0, 0),),
                          {"z": NcPoly.zero(ring, "L", "L")},
                          ({"op": "build", "model": "C:1", "localized": False},))
    x = NcPoly.gen(ring, target.gen("x"))
    y = NcPoly.gen(ring, target.gen("y"))
    functor = DgFunctor(source, target, {"L": "L2"},
                        {"z": NcPoly.identity(ring, "L2") + compose(x, y)})
    validate_functor(functor)
    return functor


def sector_category_2(ring: Ring) -> SemifreeDgCat:
    """The localized n = 2 plumbing-sector presentation: x, y free of degree
    zero, with 1 + yx named as the generator w and inverted."""
    d12 = build_d12(2, ring)
    x = NcPoly.gen(ring, d12.gen("x"))
    y = NcPoly.gen(ring, d12.gen("y"))
    named = name_as_generator(d12, NcPoly.identity(ring, "L1") + compose(y, x),
                              "w")
    return localize(named, ["w"])


# ---------------------------------------------------------------------------
# invertibility witnesses
# ---------------------------------------------------------------------------

def product_inverse(cat, names, obj: str | None = None):
    """Two-sided homotopy inverse of a product of localized generators.

    For the written-order product P = g_k o ... o g_1 (names listed left to
    right) with every g_i localized, returns (inv, hat, check) with
    d(hat) = 1 - inv o P and d(check) = 1 - P o inv, assembled from the
    localization clusters.
    """
    ring = cat.ring
    names = list(names)
    if not names:
        if obj is None:
            raise ValueError("empty product needs an object")
        ident = NcPoly.identity(ring, obj)
        return ident, NcPoly.zero(ring, obj, obj), NcPoly.zero(ring, obj, obj)
    records = {r.inverted: r for r in localization_records(cat)}
    # fold from the right end of the written product
    g = cat.gen(names[-1])
    rec = records[g.name]
    inv = NcPoly.gen(ring, cat.gen(rec.prime))
    hat = NcPoly.gen(ring, cat.gen(rec.hat))
    check = NcPoly.gen(ring, cat.gen(rec.check))
    prod = NcPoly.gen(ring, g)
    for name in reversed(names[:-1]):
        g = cat.gen(name)
        rec = records[g.name]
        g_poly = NcPoly.gen(ring, g)
        g_prime = NcPoly.gen(ring, cat.gen(rec.prime))
        g_hat = NcPoly.gen(ring, cat.gen(rec.hat))
        g_check = NcPoly.gen(ring, cat.gen(rec.check))
        # P' = g o P: inv' = inv o g', hat' = hat + inv g_hat P,
        # check' = g_check + g check g'
        hat = hat + compose(compose(inv, g_hat), prod)
        check = g_check + compose(compose(g_poly, check), g_prime)
        inv = compose(inv, g_prime)
        prod = compose(g_poly, prod)
    return inv, hat, check


def sphere_last_loop_inverse(cat) -> dict:
    """Witness that a_m is invertible from the others in the n = 2 sphere.

    dh exhibits a_m (r) = 1 + dh for r = a_{m-1}...a_1, so -h is the
    right homotopy; the left one chains the recorded cluster homotopies.
    Verified by differentiating before returning.
    """
    ring = cat.ring
    names = sorted((g.name for g in cat.generators
                    if g.name.startswith("a") and g.name[1:].isdigit()),
                   key=lambda s: int(s[1:]))
    m = len(names)
    last = NcPoly.gen(ring, cat.gen(f"a{m}"))
    rest = [f"a{i}" for i in range(m - 1, 0, -1)]
    r_poly = compose_all([NcPoly.gen(ring, cat.gen(nm)) for nm in rest],
                         ring, "L")
    r_inv, _, r_check = product_inverse(cat, rest, "L")
    h = NcPoly.gen(ring, cat.gen("h"))
    one = NcPoly.identity(ring, "L")
    sigma_right = -h
    sigma_left = (r_check - compose(compose(r_poly, h), r_inv)
                  - compose(compose(r_poly, last), r_check))
    res_r = cat.normalize(cat.d(sigma_right) - (one - compose(last, r_poly)))
    res_l = cat.normalize(cat.d(sigma_left) - (one - compose(r_poly, last)))
    if not res_r.is_zero() or not res_l.is_zero():
        raise ValueError("sphere inverse witness failed")
    return {"inverse": r_poly, "right_htpy": sigma_right,
            "left_htpy": sigma_left}


# ---------------------------------------------------------------------------
# surface relation form
# ---------------------------------------------------------------------------

def surface_relation_form(g: int, m: int, ring: Ring):
    """The non-semifree display of the surface model: gamma_j = h = 0,
    delta_j the group commutator, and prod a_i = prod [alpha_j, beta_j] as
    a rewrite rule.

    Returns (relational category, witness functor) where the functor maps
    the semifree surface core into the relation form (gamma, h to zero,
    delta_j to the commutator) and has been validated modulo the rules.
    """
    gens = []
    rank = 0
    inverses = {}
    for j in range(1, g + 1):
        for base in (f"alpha{j}", f"beta{j}"):
            fwd = Generator(base, "L", "L", 0, rank)
            bwd = Generator(base + "'", "L", "L", 0, rank + 1)
            gens += [fwd, bwd]
            inverses[base] = (fwd, bwd)
            rank += 2
    a_gens = []
    for i in range(1, m + 1):
        a = Generator(f"a{i}", "L", "L", 0, rank)
        a_gens.append(a)
        gens.append(a)
        rank += 1
    table = {gen.name: NcPoly.zero(ring, "L", "L") for gen in gens}
    rules = []
    one = NcPoly.identity(ring, "L")
    for fwd, bwd in inverses.values():
        rules.append(((fwd, bwd), one))
        rules.append(((bwd, fwd), one))
    # prod a_i (read right to left) -> prod of commutators
    commutators = {}
    for j in range(1, g + 1):
        alpha, alpha_i = inverses[f"alpha{j}"]
        beta, beta_i = inverses[f"beta{j}"]
        commutators[j] = compose_all(
            [NcPoly.gen(ring, t) for t in (alpha_i, beta_i, alpha, beta)],
            ring, "L")
    rhs = compose_all([commutators[j] for j in range(g, 0, -1)], ring, "L")
    lhs = tuple(a_gens[::-1])
    weights = {a.name: 4 * g + 1 for a in a_gens}
    rules.append((lhs, rhs))
    entry = {"op": "surface_relation_form", "g": g, "m": m}
    cat = new_semifree(ring, ("L",), gens, table, (entry,), rules, weights)

    core = build(ModelId("M", (g, m)), ring, {"localize": False})
    gm = {}
    for j in range(1, g + 1):
        gm[f"alpha{j}"] = NcPoly.gen(ring, cat.gen(f"alpha{j}"))
        gm[f"beta{j}"] = NcPoly.gen(ring, cat.gen(f"beta{j}"))
        gm[f"delta{j}"] = commutators[j]
        gm[f"gamma{j}"] = NcPoly.zero(ring, "L", "L")
    for i in range(1, m + 1):
        gm[f"a{i}"] = NcPoly.gen(ring, cat.gen(f"a{i}"))
    gm["h"] = NcPoly.zero(ring, "L", "L")
    witness = DgFunctor(core, cat, {"L": "L"}, gm)
    validate_functor(witness)
    return cat, witness


# ---------------------------------------------------------------------------
# eliminating a generator a rule names
# ---------------------------------------------------------------------------

def eliminate_generator(cat, name: str):
    """Remove a generator that a rewrite rule identifies with a word.

    Requires a rule w -> u*name with u a unit; the generator is replaced by
    u^{-1} w everywhere and the defining rule is dropped.  The one rebuild
    (the other rules need not be confluent without the defining one)
    re-checks ordinal and d^2 conditions, so an unsound elimination raises.
    """
    if not cat.rules:
        raise ValueError("eliminate_generator works on relational categories")
    ring = cat.ring
    defining = None
    for idx, (lhs, rhs) in enumerate(cat.rules):
        items = list(rhs.terms.items())
        if len(items) != 1:
            continue
        word, coeff = items[0]
        if (not isinstance(word, str) and len(word) == 1
                and word[0].name == name and ring.is_unit(coeff)):
            defining = (idx, lhs, coeff)
            break
    if defining is None:
        raise ValueError(f"no rule identifies {name!r} with a word")
    idx, lhs, coeff = defining
    replacement = NcPoly(ring, lhs[-1].source, lhs[0].target,
                         {lhs: ring.inv(coeff)})
    entry = {"op": "eliminate", "gen": name,
             "word": [g.name for g in lhs],
             "before": len(cat.generators), "after": len(cat.generators) - 1}
    return _substitute(cat, cat.rules[:idx] + cat.rules[idx + 1:],
                       {name: replacement}, entry)


# ---------------------------------------------------------------------------
# the grading class sigma
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradingClass:
    tree: tuple            # spanning-forest arrow ids
    loops: tuple           # per basis loop: ((arrow id, +1 | -1), ...)
    coordinates: tuple     # signed gauge sums around each loop

    def same_class(self, other: "GradingClass") -> bool:
        return self.loops == other.loops and self.coordinates == other.coordinates


def _tree_path(tree, start, goal):
    """Undirected path start -> goal in the forest as (arrow, forward) steps."""
    adjacency = {}
    for a in tree:
        adjacency.setdefault(a.src, []).append((a, True))
        adjacency.setdefault(a.tgt, []).append((a, False))
    stack = [(start, [])]
    seen = {start}
    while stack:
        node, path = stack.pop()
        if node == goal:
            return path
        for a, forward in adjacency.get(node, []):
            nxt = a.tgt if forward else a.src
            if nxt in seen:
                continue
            seen.add(nxt)
            stack.append((nxt, path + [(a, forward)]))
    raise ValueError("vertices lie in different components")


def sigma(data: PlumbingData) -> GradingClass:
    """Coordinates of the gauge in the loop basis of a deterministic
    spanning forest; traversal against an arrow negates its gauge."""
    tree, rest = _spanning_forest(data)
    loops = []
    coords = []
    for a in rest:
        steps = [(a, True)] + _tree_path(tree, a.tgt, a.src)
        loops.append(tuple((s.id, 1 if fwd else -1) for s, fwd in steps))
        coords.append(sum(s.d if fwd else -s.d for s, fwd in steps))
    return GradingClass(tuple(t.id for t in tree), tuple(loops), tuple(coords))


def regauge(data: PlumbingData, delta: dict) -> PlumbingData:
    """Shift the gauge by a vertex potential; sigma is invariant under this."""
    arrows = tuple(
        Arrow(a.id, a.src, a.tgt, a.sign,
              a.d + delta.get(a.tgt, 0) - delta.get(a.src, 0))
        for a in data.arrows)
    return PlumbingData(data.n, data.vertices, arrows, data.ring)
