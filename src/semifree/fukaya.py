"""Builders for the named model categories and their inclusion functors.

Each builder emits the exact presentation from its defining statement;
simplified forms are reached only through the reduction moves.  Categories
that the theory localizes (the circle, punctured spheres and surfaces in
dimension two) come localized, with the clusters recorded in provenance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Generator, NcPoly, Ring, compose, compose_all
from .dgcat import DgFunctor, SemifreeDgCat, new_semifree, validate_functor
from .constructions import localization_records, localize, name_as_generator
from .rewrite import new_relational

# twisted is imported where a D12, B01 or D01 model, a shift or a cone is
# built, so the other models do not compile it.


@dataclass(frozen=True)
class ModelId:
    tag: str
    params: tuple = ()

    LEGAL = {"A1": 0, "A2": 0, "C": 1, "S": (2, 3), "M": 2,
             "D12": 1, "B01": 1, "D01": 1}

    def __post_init__(self):
        if self.tag not in self.LEGAL:
            raise ValueError(f"unknown model tag {self.tag!r}")
        arity = self.LEGAL[self.tag]
        if isinstance(arity, tuple):
            if len(self.params) not in arity:
                raise ValueError(f"{self.tag} takes {arity} parameters")
        elif len(self.params) != arity:
            raise ValueError(f"{self.tag} takes {arity} parameter(s)")
        if self.tag == "C" and self.params[0] < 1:
            raise ValueError("C needs n >= 1")
        if self.tag == "S":
            n = self.params[0]
            m_plus = self.params[1]
            m_minus = self.params[2] if len(self.params) == 3 else 0
            if n < 2 or m_plus < 0 or m_minus < 0 or m_plus + m_minus < 1:
                raise ValueError("S needs n >= 2 and m_+ + m_- >= 1")
        if self.tag == "M" and (self.params[0] < 1 or self.params[1] < 1):
            raise ValueError("M needs g >= 1 and m >= 1")

    @staticmethod
    def parse(text: str) -> "ModelId":
        if ":" in text:
            tag, rest = text.split(":", 1)
            params = tuple(int(p) for p in rest.split(","))
        else:
            tag, params = text, ()
        return ModelId(tag, params)

    def render(self) -> str:
        if not self.params:
            return self.tag
        return self.tag + ":" + ",".join(str(p) for p in self.params)


def build(model: ModelId, ring: Ring, options: dict | None = None):
    """The presentation for a model id; localized where the theory localizes."""
    options = options or {}
    tag, params = model.tag, model.params
    if tag == "A1":
        return new_semifree(ring, ("K",), (), {},
                            ({"op": "build", "model": "A1"},))
    if tag == "A2":
        f = Generator("f", "K0", "K1", 0, 0)
        return new_semifree(ring, ("K0", "K1"), (f,),
                            {"f": NcPoly.zero(ring, "K0", "K1")},
                            ({"op": "build", "model": "A2"},))
    if tag == "C":
        return build_sphere_cotangent(params[0], ring)
    if tag == "S":
        n, m_plus = params[0], params[1]
        m_minus = params[2] if len(params) == 3 else 0
        return build_punctured_sphere(n, m_plus, m_minus, ring, options)
    if tag == "M":
        return build_punctured_surface(params[0], params[1], ring, options)
    if tag == "D12":
        from .twisted import build_d12
        return build_d12(params[0], ring)
    if tag == "B01":
        from .twisted import build_b01
        return build_b01(params[0], ring)
    if tag == "D01":
        from .twisted import build_d01
        return build_d01(params[0], ring)
    raise ValueError(f"unknown model {tag!r}")


def build_sphere_cotangent(n: int, ring: Ring):
    """One object with a closed loop z of degree 1 - n; localized when n = 1."""
    z = Generator("z", "L", "L", 1 - n, 0)
    cat = new_semifree(ring, ("L",), (z,), {"z": NcPoly.zero(ring, "L", "L")},
                       ({"op": "build", "model": f"C:{n}"},))
    if n == 1:
        cat = localize(cat, ["z"])
    return cat


def build_punctured_sphere(n: int, m_plus: int, m_minus: int, ring: Ring,
                           options: dict):
    """Loops a_i, b_i and the bounding generator h.

    dh is sum a_i - sum b_i for n >= 3 and the right-to-left product
    prod a_i - prod b_i for n = 2, in which case every a_i and b_i of
    degree zero is localized afterwards.
    """
    m = m_plus + m_minus
    gradings = options.get("gradings")
    if gradings is not None:
        if n != 2 or m_minus != 0:
            raise ValueError("nonstandard sphere gradings apply to the "
                             "n = 2 one-sign case only")
        if len(gradings) != m or sum(gradings) != 0:
            raise ValueError(f"gradings must be {m} integers summing to 0")
    background = sorted(options.get("background", ()))
    if background:
        if n != 3:
            raise ValueError("nonstandard background classes apply to n = 3 only")
        if any(i < 1 or i >= m for i in background):
            raise ValueError("background flips index a_1 .. a_{m-1}")
    gens = []
    table = {}
    for i in range(1, m_plus + 1):
        deg = gradings[i - 1] if gradings else 2 - n
        gens.append(Generator(f"a{i}", "L", "L", deg, i - 1))
    for i in range(1, m_minus + 1):
        gens.append(Generator(f"b{i}", "L", "L", 2 - n, m_plus + i - 1))
    two = ring.normalize(2)
    for g in gens:
        table[g.name] = NcPoly.zero(ring, "L", "L")
    if background:
        for i in background:
            table[f"a{i}"] = NcPoly.identity(ring, "L").scale(two)
        table[f"a{m}"] = NcPoly.identity(ring, "L").scale(
            ring.mul(ring.normalize(-2), ring.normalize(len(background))))
    h = Generator("h", "L", "L", 1 - n, m)
    gens.append(h)
    a_polys = [NcPoly.gen(ring, g) for g in gens[:m_plus]]
    b_polys = [NcPoly.gen(ring, g) for g in gens[m_plus:m]]
    if n == 2:
        dh = (compose_all(reversed(a_polys), ring, "L")
              - compose_all(reversed(b_polys), ring, "L"))
    else:
        dh = NcPoly.zero(ring, "L", "L")
        for p in a_polys:
            dh = dh + p
        for p in b_polys:
            dh = dh - p
    table["h"] = dh
    entry = {"op": "build", "model": f"S:{n},{m_plus},{m_minus}"}
    if gradings:
        entry["gradings"] = list(gradings)
    if background:
        entry["background"] = background
    cat = new_semifree(ring, ("L",), gens, table, (entry,))
    if n == 2 and options.get("localize", True):
        invertible = [g.name for g in gens[:m] if g.degree == 0]
        cat = localize(cat, invertible)
    return cat


def build_punctured_surface(g: int, m: int, ring: Ring, options: dict):
    """Genus-g surface with m punctures: dgamma_j = alpha_j beta_j -
    beta_j alpha_j delta_j and dh = prod a_i - prod delta_j; the loops
    alpha_j, beta_j, a_i are localized."""
    gradings = options.get("gradings")
    if gradings is not None:
        p_list, q_list, r_list = (list(gradings.get("p", [0] * g)),
                                  list(gradings.get("q", [0] * g)),
                                  list(gradings.get("r", [0] * m)))
        if len(p_list) != g or len(q_list) != g or len(r_list) != m:
            raise ValueError("gradings need g p's, g q's, and m r's")
        if sum(r_list) != 0:
            raise ValueError("puncture gradings must sum to 0")
    else:
        p_list, q_list, r_list = [0] * g, [0] * g, [0] * m
    gens = []
    rank = 0
    for j in range(1, g + 1):
        gens.append(Generator(f"alpha{j}", "L", "L", p_list[j - 1], rank))
        gens.append(Generator(f"beta{j}", "L", "L", q_list[j - 1], rank + 1))
        gens.append(Generator(f"delta{j}", "L", "L", 0, rank + 2))
        rank += 3
    for i in range(1, m + 1):
        gens.append(Generator(f"a{i}", "L", "L", r_list[i - 1], rank))
        rank += 1
    gammas = []
    for j in range(1, g + 1):
        gammas.append(Generator(
            f"gamma{j}", "L", "L", p_list[j - 1] + q_list[j - 1] - 1, rank))
        rank += 1
    gens += gammas
    h = Generator("h", "L", "L", -1, rank)
    gens.append(h)
    table = {gen.name: NcPoly.zero(ring, "L", "L") for gen in gens}
    by_name = {gen.name: gen for gen in gens}
    for j in range(1, g + 1):
        alpha = NcPoly.gen(ring, by_name[f"alpha{j}"])
        beta = NcPoly.gen(ring, by_name[f"beta{j}"])
        delta = NcPoly.gen(ring, by_name[f"delta{j}"])
        table[f"gamma{j}"] = (compose(alpha, beta)
                              - compose(compose(beta, alpha), delta))
    a_prod = compose_all(
        [NcPoly.gen(ring, by_name[f"a{i}"]) for i in range(m, 0, -1)],
        ring, "L")
    delta_prod = compose_all(
        [NcPoly.gen(ring, by_name[f"delta{j}"]) for j in range(g, 0, -1)],
        ring, "L")
    table["h"] = a_prod - delta_prod
    entry = {"op": "build", "model": f"M:{g},{m}"}
    if gradings is not None:
        entry["gradings"] = {"p": p_list, "q": q_list, "r": r_list}
    cat = new_semifree(ring, ("L",), gens, table, (entry,))
    if not options.get("localize", True):
        return cat
    invertible = [name for j in range(1, g + 1)
                  for name in (f"alpha{j}", f"beta{j}")
                  if by_name[name].degree == 0]
    invertible += [f"a{i}" for i in range(1, m + 1)
                   if by_name[f"a{i}"].degree == 0]
    return localize(cat, invertible)


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
        from .twisted import build_d12
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
        from .twisted import shift_presentation
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
        from .twisted import cone_extend, cone_object
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
    from .twisted import build_d12
    d12 = build_d12(2, ring)
    x = NcPoly.gen(ring, d12.gen("x"))
    y = NcPoly.gen(ring, d12.gen("y"))
    named = name_as_generator(d12, NcPoly.identity(ring, "L1") + compose(y, x),
                              "w")
    return localize(named, ["w"])


# ---------------------------------------------------------------------------
# invertibility witnesses
# ---------------------------------------------------------------------------

def one_plus_xy_inverse(cat, x_name: str, y_name: str, u_name: str) -> dict:
    """Explicit two-sided homotopy inverse of 1 + xy when u names 1 + yx.

    Requires the cluster of u and the naming homotopy u_htpy; returns the
    inverse v = 1 - x u' y, homotopies for both sides, and the transported
    cluster image for the bar generator.  Everything is verified by
    differentiating in cat before returning.
    """
    ring = cat.ring
    x = NcPoly.gen(ring, cat.gen(x_name))
    y = NcPoly.gen(ring, cat.gen(y_name))
    rec = [r for r in localization_records(cat) if r.inverted == u_name][0]
    u = NcPoly.gen(ring, cat.gen(u_name))
    k = NcPoly.gen(ring, cat.gen(u_name + "_htpy"))
    prime = NcPoly.gen(ring, cat.gen(rec.prime))
    hat = NcPoly.gen(ring, cat.gen(rec.hat))
    check = NcPoly.gen(ring, cat.gen(rec.check))
    obj = x.target
    p = cat.gen(x_name).degree
    sign = 1 if (p + 1) % 2 == 0 else -1
    one = NcPoly.identity(ring, obj)
    a = one + compose(x, y)
    v = one - compose(compose(x, prime), y)
    left_htpy = compose(compose(x, hat + compose(prime, k)), y).scale(sign)
    right_htpy = compose(compose(x, check + compose(k, prime)), y).scale(sign)
    bar_poly = NcPoly.gen(ring, cat.gen(rec.bar))
    bar_image = compose(compose(
        x, -bar_poly + compose(check, k) + compose(k, hat)
        + compose(compose(k, prime), k)), y)
    checks = {
        "left": cat.normalize(cat.d(left_htpy) - (one - compose(v, a))),
        "right": cat.normalize(cat.d(right_htpy) - (one - compose(a, v))),
        "bar": cat.normalize(cat.d(bar_image)
                             - (compose(a, left_htpy)
                                - compose(right_htpy, a))),
    }
    for label, residual in checks.items():
        if not residual.is_zero():
            raise ValueError(f"witness identity {label} failed: "
                             f"{residual!r}")
    return {"inverse": v, "left_htpy": left_htpy, "right_htpy": right_htpy,
            "bar_image": bar_image, "one_plus_xy": a}


def sphere_last_loop_inverse(cat) -> dict:
    """Witness that a_m is invertible from the others in the n = 2 sphere.

    dh exhibits a_m (r) = 1 + dh for r = a_{m-1}...a_1, so -h is the
    right homotopy; the left one chains the recorded cluster homotopies.
    Verified by differentiating before returning.
    """
    from .constructions import product_inverse
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
    cat = new_relational(ring, ("L",), gens, table, rules, weights, (entry,))

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
