"""Builders for the named model categories, and the invertibility witness
of 1 + xy that the plumbing pipeline uses.

Each builder emits the exact presentation from its defining statement;
simplified forms are reached only through the reduction moves.  Categories
that the theory localizes (the circle, punctured spheres and surfaces in
dimension two) come localized, with the clusters recorded in provenance.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Generator, NcPoly, Ring, compose, compose_all
from .dgcat import _EXPECTED, InputError, new_semifree
from .constructions import localization_records, localize

# twisted is imported where a D12, B01 or D01 model is built, so the other
# models do not compile it.


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
        if ":" not in text:
            return ModelId(text)
        tag, rest = text.split(":", 1)
        try:
            params = tuple(int(p) for p in rest.split(","))
        except ValueError:
            raise ValueError(f"{tag} parameters must be integers, got "
                             f"{rest!r}") from None
        return ModelId(tag, params)


# the options each model family takes, as a schema: a value's type, a
# one-entry list for a list of such values, or an object's keys
OPTIONS = {"S": {"gradings": [int], "background": [int], "localize": bool},
           "M": {"gradings": {"p": [int], "q": [int], "r": [int]},
                 "localize": bool}}


def _check_option(value, schema, where: str):
    """An InputError at where, a path within the options, or below it,
    where value does not fit schema; a boolean is not an integer."""
    kind = schema if isinstance(schema, type) else type(schema)
    if type(value) is not kind:
        raise InputError(where, f"expected {_EXPECTED[kind]}, got {value!r}")
    if kind is list:
        for i, entry in enumerate(value):
            _check_option(entry, schema[0], f"{where}[{i}]")
    elif kind is dict:
        for key, entry in value.items():
            if key not in schema:
                raise InputError(where, f"unknown key {key!r}, expected "
                                 + (" or ".join(map(repr, schema)) or "none"))
            _check_option(entry, schema[key],
                          key if where == "document" else f"{where}.{key}")


def build(model: ModelId, ring: Ring, options: dict | None = None):
    """The presentation for a model id; localized where the theory localizes.
    options must fit the schema of the model's family in OPTIONS, and hold
    values the model can take; otherwise an InputError names the option's
    path within options."""
    options = {} if options is None else options
    tag, params = model.tag, model.params
    _check_option(options, OPTIONS.get(tag, {}), "document")
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
            raise InputError("gradings", "nonstandard sphere gradings apply "
                                         "to the n = 2 one-sign case only")
        if len(gradings) != m or sum(gradings) != 0:
            raise InputError("gradings", f"expected {m} integers summing to "
                                         f"0, got {gradings}")
    background = sorted(options.get("background", ()))
    if background:
        if n != 3:
            raise InputError("background", "nonstandard background classes "
                                           "apply to n = 3 only")
        if any(i < 1 or i >= m for i in background):
            raise InputError("background", f"expected indices of a_1 .. "
                                           f"a_{m - 1}, got "
                                           f"{options['background']}")
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
            raise InputError("gradings", f"expected {g} p's, {g} q's and "
                                         f"{m} r's")
        if sum(r_list) != 0:
            raise InputError("gradings.r", f"expected integers summing to "
                                           f"0, got {r_list}")
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
