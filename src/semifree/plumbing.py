"""Plumbing data, the wrapped-category pipeline, the Ginzburg
construction, and the equivalence witnesses.

A plumbing datum is a finite quiver with a manifold label per vertex, a sign
per arrow, and an integer gauge per arrow.  build_wrapped emits the explicit
presentation: loop generators per vertex, x_e / y_e per arrow, and h_v with
the dimension-dependent differential; in dimension two the arrow loops
1 + y_e x_e are named and localized and surface loops are inverted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    CompositionError,
    Generator,
    NcPoly,
    Ring,
    UnionFind,
    compose,
    compose_all,
    parse_poly,
    render_poly,
)
from .dgcat import (
    _PARSE_ERRORS,
    DSquaredNonzero,
    DegreeError,
    DgFunctor,
    InputError,
    OrdinalViolation,
    SemifreeDgCat,
    UnknownName,
    _field,
    _first_repeat,
    _known,
    new_semifree,
    push_poly,
    validate_functor,
)
from .constructions import (
    QUAD_SUFFIXES,
    localization_cluster,
    localization_records,
)
from .fukaya import one_plus_xy_inverse


@dataclass(frozen=True)
class Arrow:
    id: str
    src: str
    tgt: str
    sign: int = 1
    d: int = 0

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"arrow {self.id}: sign must be +1 or -1")


@dataclass(frozen=True)
class VertexSpec:
    kind: str  # sphere | surface | disk | custom
    genus: int = 0
    generators: tuple = ()       # custom: ((name, degree), ...)
    differentials: tuple = ()    # custom: ((name, rendered poly), ...)
    eta: str = "0"               # custom: rendered closed element

    def __post_init__(self):
        if self.kind not in ("sphere", "surface", "disk", "custom"):
            raise ValueError(f"unknown manifold kind {self.kind!r}")


SPHERE = VertexSpec("sphere")
DISK = VertexSpec("disk")


def surface(genus: int) -> VertexSpec:
    return VertexSpec("surface", genus)


def custom(generators, differentials, eta) -> VertexSpec:
    return VertexSpec("custom", 0, tuple(tuple(g) for g in generators),
                      tuple(tuple(x) for x in differentials), eta)


@dataclass(frozen=True)
class PlumbingData:
    n: int
    vertices: tuple  # ((vid, VertexSpec), ...)
    arrows: tuple    # (Arrow, ...)
    ring: Ring

    def __post_init__(self):
        """The dimension, distinct vertex and arrow ids, arrows between
        known vertices, and each vertex's manifold label.

        An error carries part, the path of the part of the plumbing
        document that breaks the check (see _part)."""
        if self.n < 2:
            raise _part(ValueError("plumbing dimension n must be >= 2"), "n")
        vids = [v for v, _ in self.vertices]
        if len(set(vids)) != len(vids):
            raise _part(ValueError("duplicate vertex ids"),
                        "vertices", _first_repeat(vids), "id")
        aids = [a.id for a in self.arrows]
        if len(set(aids)) != len(aids):
            raise _part(ValueError("duplicate arrow ids"),
                        "arrows", _first_repeat(aids), "id")
        known = set(vids)
        for i, a in enumerate(self.arrows):
            if a.src not in known or a.tgt not in known:
                end = "src" if a.src not in known else "tgt"
                raise _part(ValueError(f"arrow {a.id} references unknown "
                                       f"vertex {getattr(a, end)!r}"),
                            "arrows", i, end)
        for i, (vid, spec) in enumerate(self.vertices):
            if spec.kind == "surface" and spec.genus < 0:
                raise _part(ValueError("surface genus must be >= 0"),
                            "vertices", i, "manifold", "genus")
            if spec.kind == "surface" and spec.genus > 0 and self.n != 2:
                raise _part(ValueError(
                    f"vertex {vid}: surface labels need n = 2"),
                    "vertices", i, "manifold", "genus")
            if spec.kind == "custom":
                try:
                    _custom_category(spec, self.ring, self.n)  # validates
                except _DATA_ERRORS as err:
                    raise _part(err, "vertices", i, "manifold",
                                *getattr(err, "part", ()))

    def spec(self, vid: str) -> VertexSpec:
        return dict(self.vertices)[vid]

    def arrow(self, aid: str) -> Arrow:
        for a in self.arrows:
            if a.id == aid:
                return a
        raise UnknownName(f"no arrow {aid!r}")


def _part(err: Exception, *path) -> Exception:
    """err, tagged with the path of the part of a plumbing document whose
    check it breaks, as keys and list indices, such as ("arrows", 0,
    "tgt").  plumbing_from_json spells it as a JSON path."""
    err.part = path
    return err


# what PlumbingData's checks raise: a custom vertex builds its category
_DATA_ERRORS = (ValueError, CompositionError, DegreeError, OrdinalViolation,
                DSquaredNonzero)


def _custom_category(spec: VertexSpec, ring: Ring, n: int):
    """Validate and build the one-object loop algebra of a custom vertex.

    An error is tagged with the part of the manifold that breaks it: a
    generator, a differential, or eta."""
    gens = tuple(Generator(name, "pt", "pt", int(deg), i)
                 for i, (name, deg) in enumerate(spec.generators))
    gm = {g.name: g for g in gens}
    diffs = dict(spec.differentials)
    table = {}
    for g in gens:
        try:
            table[g.name] = parse_poly(diffs.get(g.name, "0"), ring, "pt",
                                       "pt", gm.get)
        except _PARSE_ERRORS as err:
            raise _part(err, "differentials", g.name)
    try:
        cat = new_semifree(ring, ("pt",), gens, table)
    except DSquaredNonzero as err:
        raise _part(err, "differentials", err.gen_name)
    except _DATA_ERRORS as err:  # the class's checks, at a generator
        i, in_d = err.part
        raise (_part(err, "differentials", gens[i].name) if in_d else
               _part(err, "generators", i))
    try:
        eta = parse_poly(spec.eta, ring, "pt", "pt", gm.get)
    except _PARSE_ERRORS as err:
        raise _part(err, "eta")
    deg = eta.degree()
    if deg is not None and deg != 2 - n:
        raise _part(ValueError(f"custom eta has degree {deg}, expected "
                               f"{2 - n}"), "eta")
    if not cat.d(eta).is_zero():
        raise _part(ValueError("custom eta is not closed"), "eta")
    return cat, eta


def _spanning_forest(data: PlumbingData):
    """A deterministic spanning forest of the quiver, as (tree arrows, the
    other arrows), both in arrow id order."""
    components = UnionFind(vid for vid, _ in data.vertices)
    tree = []
    rest = []
    for a in sorted(data.arrows, key=lambda a: a.id):
        if components.union(a.src, a.tgt):
            tree.append(a)
        else:
            rest.append(a)
    return tree, rest


# ---------------------------------------------------------------------------
# the wrapped-category pipeline
# ---------------------------------------------------------------------------

def _default_tokens(data: PlumbingData, vid: str):
    left = [("eta",)]
    for a in data.arrows:
        if a.tgt == vid and a.sign == -1:
            left.append(("in", a.id))
    for a in data.arrows:
        if a.src == vid:
            left.append(("out", a.id))
    right = [("in", a.id) for a in data.arrows
             if a.tgt == vid and a.sign == 1]
    return left, right


def _check_tokens(data, vid, left, right):
    want = sorted(map(tuple, _default_tokens(data, vid)[0][1:]
                      + _default_tokens(data, vid)[1]))
    have = sorted(t for t in map(tuple, left + right) if t != ("eta",))
    if have != want or sum(1 for t in left + right if tuple(t) == ("eta",)) != 1:
        raise ValueError(f"vertex {vid}: reordered factors do not match the "
                         f"arrow ends")


def build_wrapped(data: PlumbingData, placement: dict | None = None):
    """The presentation of the wrapped category of a plumbing.

    n >= 3: dh_v = eta_v + sum_out (-1)^(n d_e) y_e x_e
    + sum_in (-1)^(n(n-1)/2) sgn(e) x_e y_e.  n = 2: dh_v is the two-product
    formula; each 1 + y_e x_e is then named u_e and localized, and surface
    loops alpha/beta are localized.  placement optionally reorders the n = 2
    factor lists per vertex (d^2 = 0 and generator counts are re-checked).
    """
    n, ring = data.n, data.ring
    objects = tuple(f"L_{vid}" for vid, _ in data.vertices)
    gens = []
    table = {}
    rank = 0
    eta = {}

    def add(name, src, tgt, degree, diff=None):
        nonlocal rank
        g = Generator(name, src, tgt, degree, rank)
        rank += 1
        gens.append(g)
        table[name] = diff if diff is not None else NcPoly.zero(ring, src, tgt)
        return g

    surface_loops = []
    for vid, spec in data.vertices:
        obj = f"L_{vid}"
        if spec.kind == "sphere" or (spec.kind == "surface" and spec.genus == 0):
            eta[vid] = (NcPoly.identity(ring, obj) if n == 2
                        else NcPoly.zero(ring, obj, obj))
        elif spec.kind == "disk":
            m_v = add(f"m_{vid}", obj, obj, 2 - n)
            eta[vid] = NcPoly.gen(ring, m_v)
        elif spec.kind == "surface":
            deltas = []
            for j in range(1, spec.genus + 1):
                alpha = add(f"alpha{j}_{vid}", obj, obj, 0)
                beta = add(f"beta{j}_{vid}", obj, obj, 0)
                delta = add(f"delta{j}_{vid}", obj, obj, 0)
                add(f"gamma{j}_{vid}", obj, obj, -1,
                    compose(NcPoly.gen(ring, alpha), NcPoly.gen(ring, beta))
                    - compose(compose(NcPoly.gen(ring, beta),
                                      NcPoly.gen(ring, alpha)),
                              NcPoly.gen(ring, delta)))
                deltas.append(NcPoly.gen(ring, delta))
                surface_loops += [alpha.name, beta.name]
            eta[vid] = compose_all(reversed(deltas), ring, obj)
        else:  # custom
            loop_cat, loop_eta = _custom_category(spec, ring, n)
            renamed = {}
            for g in loop_cat.generators:
                renamed[g.name] = add(f"{g.name}_{vid}", obj, obj, g.degree)
            images = {name: NcPoly.gen(ring, g) for name, g in renamed.items()}
            for g in loop_cat.generators:
                table[renamed[g.name].name] = push_poly(
                    loop_cat.differentials[g.name], {"pt": obj}, images, ring)
            eta[vid] = push_poly(loop_eta, {"pt": obj}, images, ring)

    xs, ys = {}, {}
    for a in data.arrows:
        xs[a.id] = add(f"x_{a.id}", f"L_{a.src}", f"L_{a.tgt}", a.d)
        ys[a.id] = add(f"y_{a.id}", f"L_{a.tgt}", f"L_{a.src}", 2 - n - a.d)

    def in_factor(aid):
        return (NcPoly.identity(ring, ys[aid].source)
                + compose(NcPoly.gen(ring, xs[aid]), NcPoly.gen(ring, ys[aid])))

    def out_factor(aid):
        return (NcPoly.identity(ring, xs[aid].source)
                + compose(NcPoly.gen(ring, ys[aid]), NcPoly.gen(ring, xs[aid])))

    half = (n * (n - 1)) // 2
    for vid, spec in data.vertices:
        obj = f"L_{vid}"
        if n >= 3:
            dh = eta[vid]
            for a in data.arrows:
                if a.src == vid:
                    sign = -1 if (n * a.d) % 2 else 1
                    dh = dh + compose(NcPoly.gen(ring, ys[a.id]),
                                      NcPoly.gen(ring, xs[a.id])).scale(sign)
                if a.tgt == vid:
                    sign = a.sign * (-1 if half % 2 else 1)
                    dh = dh + compose(NcPoly.gen(ring, xs[a.id]),
                                      NcPoly.gen(ring, ys[a.id])).scale(sign)
        else:
            if placement and vid in placement:
                left = [tuple(t) for t in placement[vid]["left"]]
                right = [tuple(t) for t in placement[vid]["right"]]
                _check_tokens(data, vid, left, right)
            else:
                left, right = _default_tokens(data, vid)

            def factor(token):
                if token[0] == "eta":
                    return eta[vid]
                if token[0] == "in":
                    return in_factor(token[1])
                return out_factor(token[1])

            dh = (compose_all([factor(t) for t in left], ring, obj)
                  - compose_all([factor(t) for t in right], ring, obj))
        add(f"h_{vid}", obj, obj, 1 - n, dh)

    provenance = [{"op": "plumb", "n": n,
                   "vertices": [[vid, spec.kind, spec.genus]
                                for vid, spec in data.vertices],
                   "arrows": [[a.id, a.src, a.tgt, a.sign, a.d]
                              for a in data.arrows]}]
    if placement:
        provenance[0]["placement"] = {
            vid: {"left": [list(t) for t in placement[vid]["left"]],
                  "right": [list(t) for t in placement[vid]["right"]]}
            for vid in sorted(placement)}

    if n == 2:
        clusters = []
        to_invert = []
        for a in data.arrows:
            u = add(f"u_{a.id}", f"L_{a.src}", f"L_{a.src}", 0)
            add(f"u_{a.id}_htpy", f"L_{a.src}", f"L_{a.src}", -1,
                NcPoly.gen(ring, u) - out_factor(a.id))
            provenance.append({"op": "name_generator", "name": u.name,
                               "expr": render_poly(out_factor(a.id))})
            to_invert.append(u.name)
        to_invert += surface_loops
        for name in to_invert:
            g = next(gg for gg in gens if gg.name == name)
            quad = [name + suffix for suffix in QUAD_SUFFIXES]
            for ng, dg in localization_cluster(ring, g, rank, quad):
                gens.append(ng)
                table[ng.name] = dg
            rank += 4
            clusters.append([name, *quad])
        provenance.append({"op": "localize", "inverted": to_invert,
                           "clusters": clusters})

    return new_semifree(ring, objects, gens, table, tuple(provenance))


# ---------------------------------------------------------------------------
# Ginzburg categories
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GradedArrow:
    id: str
    src: str
    tgt: str
    q: int = 0


@dataclass(frozen=True)
class GradedQuiver:
    vertices: tuple
    arrows: tuple  # GradedArrow

    def __post_init__(self):
        vids = set(self.vertices)
        for a in self.arrows:
            if a.src not in vids or a.tgt not in vids:
                raise ValueError(f"arrow {a.id} references unknown vertices")


def build_ginzburg(gq: GradedQuiver, n: int, ring: Ring) -> SemifreeDgCat:
    """Doubled arrows e, e_star and loops t_v with
    dt_v = sum_out e_star e - sum_in (-1)^(|e||e_star|) e e_star."""
    gens = []
    table = {}
    rank = 0
    es, stars = {}, {}
    for a in gq.arrows:
        es[a.id] = Generator(a.id, a.src, a.tgt, a.q, rank)
        stars[a.id] = Generator(f"{a.id}_star", a.tgt, a.src, 2 - n - a.q,
                                rank + 1)
        rank += 2
        gens += [es[a.id], stars[a.id]]
        table[a.id] = NcPoly.zero(ring, a.src, a.tgt)
        table[f"{a.id}_star"] = NcPoly.zero(ring, a.tgt, a.src)
    for v in gq.vertices:
        dt = NcPoly.zero(ring, v, v)
        for a in gq.arrows:
            if a.src == v:
                dt = dt + compose(NcPoly.gen(ring, stars[a.id]),
                                  NcPoly.gen(ring, es[a.id]))
            if a.tgt == v:
                koszul = (a.q * (2 - n - a.q)) % 2
                sign = 1 if koszul else -1
                dt = dt + compose(NcPoly.gen(ring, es[a.id]),
                                  NcPoly.gen(ring, stars[a.id])).scale(sign)
        gens.append(Generator(f"t_{v}", v, v, 1 - n, rank))
        table[f"t_{v}"] = dt
        rank += 1
    entry = {"op": "ginzburg", "n": n,
             "arrows": [[a.id, a.src, a.tgt, a.q] for a in gq.arrows]}
    return new_semifree(ring, tuple(gq.vertices), gens, table, (entry,))


def ginzburg_witness(gq: GradedQuiver, n: int, ring: Ring):
    """Sphere plumbing data whose wrapped presentation is the Ginzburg
    category on the nose, with the unit relabeling and an exact report."""
    if n < 3:
        raise ValueError("the Ginzburg comparison needs n >= 3")
    half = (n * (n - 1)) // 2
    arrows = tuple(
        Arrow(a.id, a.src, a.tgt,
              -(1 if (a.q + half) % 2 == 0 else -1), a.q)
        for a in gq.arrows)
    data = PlumbingData(n, tuple((v, SPHERE) for v in gq.vertices), arrows,
                        ring)
    wrapped = build_wrapped(data)
    ginz = build_ginzburg(gq, n, ring)
    object_map = {v: f"L_{v}" for v in gq.vertices}
    gen_map = {}
    renaming = {}
    for a in gq.arrows:
        gen_map[a.id] = NcPoly.gen(ring, wrapped.gen(f"x_{a.id}"))
        unit = 1 if (n * a.q) % 2 == 0 else -1
        gen_map[f"{a.id}_star"] = NcPoly.gen(ring, wrapped.gen(f"y_{a.id}"),
                                             unit)
        renaming[a.id] = (f"x_{a.id}", 1)
        renaming[f"{a.id}_star"] = (f"y_{a.id}", unit)
    for v in gq.vertices:
        gen_map[f"t_{v}"] = NcPoly.gen(ring, wrapped.gen(f"h_{v}"))
        renaming[f"t_{v}"] = (f"h_{v}", 1)
    functor = DgFunctor(ginz, wrapped, object_map, gen_map)
    validate_functor(functor)
    from .analysis import presentation_equal
    report = presentation_equal(ginz, wrapped, object_map, renaming)
    return data, functor, report


# ---------------------------------------------------------------------------
# equivalence witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlipWitness:
    data: PlumbingData
    flipped: PlumbingData
    forward: DgFunctor
    backward: DgFunctor
    certificates: tuple


def _flip_arrow(a: Arrow, n: int) -> Arrow:
    sign = a.sign if n % 2 == 0 else -a.sign
    return Arrow(a.id, a.tgt, a.src, sign, 2 - n - a.d)


def _swap_tokens(tokens, aid):
    out = []
    for t in tokens:
        if t == ("out", aid):
            out.append(("in", aid))
        elif t == ("in", aid):
            out.append(("out", aid))
        else:
            out.append(t)
    return out


def edge_flip_witness(data: PlumbingData, arrow_id: str) -> FlipWitness:
    """Reverse one arrow, with sgn' = (-1)^n sgn and d' = 2 - n - d, and the
    explicit functors both ways between the wrapped presentations."""
    u = data.arrow(arrow_id)
    n = data.n
    flipped_arrows = tuple(_flip_arrow(a, n) if a.id == arrow_id else a
                           for a in data.arrows)
    flipped = PlumbingData(n, data.vertices, flipped_arrows, data.ring)
    if n >= 3:
        w1 = build_wrapped(data)
        w2 = build_wrapped(flipped)
        fwd = _flip_functor(data, w1, w2, u, n)
        bwd = _flip_functor(flipped, w2, w1, flipped.arrow(arrow_id), n)
    else:
        place1 = {vid: dict(zip(("left", "right"), _default_tokens(data, vid)))
                  for vid, _ in data.vertices}
        place2 = {vid: {"left": _swap_tokens(place1[vid]["left"], arrow_id),
                        "right": _swap_tokens(place1[vid]["right"], arrow_id)}
                  for vid, _ in data.vertices}
        w1 = build_wrapped(data, place1)
        w2 = build_wrapped(flipped, place2)
        fwd = _flip_functor_2(data, w1, w2, u)
        bwd = _flip_functor_2(flipped, w2, w1, flipped.arrow(arrow_id))
    certs = (validate_functor(fwd), validate_functor(bwd))
    return FlipWitness(data, flipped, fwd, bwd, certs)


def _flip_functor(data, w1, w2, u: Arrow, n: int) -> DgFunctor:
    ring = w1.ring
    gen_map = {}
    for g in w1.generators:
        gen_map[g.name] = NcPoly.gen(ring, w2.gen(g.name))
    exponent = (n + n * u.d + (n * (n - 1)) // 2) % 2
    unit = u.sign * (-1 if exponent else 1)
    gen_map[f"x_{u.id}"] = NcPoly.gen(ring, w2.gen(f"y_{u.id}"))
    gen_map[f"y_{u.id}"] = NcPoly.gen(ring, w2.gen(f"x_{u.id}"), unit)
    return DgFunctor(w1, w2, {o: o for o in w1.objects}, gen_map)


def _flip_functor_2(data, w1, w2, u: Arrow) -> DgFunctor:
    """n = 2 flip: x_u and y_u swap plainly; the u-localization cluster is
    transported through the explicit inverse of 1 + x_u y_u."""
    ring = w1.ring
    gen_map = {}
    for g in w1.generators:
        gen_map[g.name] = NcPoly.gen(ring, w2.gen(g.name))
    gen_map[f"x_{u.id}"] = NcPoly.gen(ring, w2.gen(f"y_{u.id}"))
    gen_map[f"y_{u.id}"] = NcPoly.gen(ring, w2.gen(f"x_{u.id}"))
    wit = one_plus_xy_inverse(w2, f"x_{u.id}", f"y_{u.id}", f"u_{u.id}")
    uname = f"u_{u.id}"
    gen_map[uname] = wit["one_plus_xy"]
    gen_map[uname + "_htpy"] = NcPoly.zero(ring, wit["one_plus_xy"].source,
                                           wit["one_plus_xy"].target)
    rec = [r for r in localization_records(w1) if r.inverted == uname][0]
    gen_map[rec.prime] = wit["inverse"]
    gen_map[rec.hat] = wit["left_htpy"]
    gen_map[rec.check] = wit["right_htpy"]
    gen_map[rec.bar] = wit["bar_image"]
    return DgFunctor(w1, w2, {o: o for o in w1.objects}, gen_map)


@dataclass(frozen=True)
class GaugeWitness:
    data: PlumbingData
    regauged: PlumbingData
    functor: DgFunctor
    certificate: dict
    vertex_signs: dict


def sign_gauge_witness(data: PlumbingData, flip_set) -> GaugeWitness:
    """Flip signs on the arrows with exactly one endpoint in flip_set and
    solve for compensating unit rescalings of the generators (n >= 3).

    The solver tries the indicator of flip_set or of its complement on each
    component; vertices whose loop element eta is nonzero must keep sign +1,
    and an unsatisfiable component is reported with the blocking constraint.
    """
    if data.n == 2:
        raise ValueError("the n = 2 sign-change functor is not monomial; "
                         "only n >= 3 witnesses are constructed")
    flip_set = set(flip_set)
    arrows = tuple(
        Arrow(a.id, a.src, a.tgt,
              -a.sign if (a.src in flip_set) != (a.tgt in flip_set) else a.sign,
              a.d)
        for a in data.arrows)
    regauged = PlumbingData(data.n, data.vertices, arrows, data.ring)
    # connected components of the underlying graph
    components = UnionFind(vid for vid, _ in data.vertices)
    for a in data.arrows:
        components.union(a.src, a.tgt)
    eta_vertices = {vid for vid, spec in data.vertices
                    if spec.kind not in ("sphere",)
                    and not (spec.kind == "surface" and spec.genus == 0)}
    members = {}
    for vid, _ in data.vertices:
        members.setdefault(components.find(vid), []).append(vid)
    chi = {}
    for root, vids in sorted(members.items()):
        for candidate in (set(vids) & flip_set,
                          set(vids) - flip_set):
            if not (candidate & eta_vertices):
                for vid in vids:
                    chi[vid] = -1 if vid in candidate else 1
                break
        else:
            blocking = sorted((set(vids) & flip_set) & eta_vertices)
            raise ValueError(
                "no sign assignment: vertices with nontrivial loop algebra "
                f"cannot be rescaled ({', '.join(blocking)} and the "
                "complement both conflict)")
    w1 = build_wrapped(data)
    w2 = build_wrapped(regauged)
    ring = data.ring
    gen_map = {}
    for g in w1.generators:
        gen_map[g.name] = NcPoly.gen(ring, w2.gen(g.name))
    for a in data.arrows:
        gen_map[f"y_{a.id}"] = NcPoly.gen(ring, w2.gen(f"y_{a.id}"),
                                          chi[a.src])
    for vid, _ in data.vertices:
        gen_map[f"h_{vid}"] = NcPoly.gen(ring, w2.gen(f"h_{vid}"), chi[vid])
    functor = DgFunctor(w1, w2, {o: o for o in w1.objects}, gen_map)
    cert = validate_functor(functor)
    return GaugeWitness(data, regauged, functor, cert, chi)


# ---------------------------------------------------------------------------
# canonical form of plumbing data
# ---------------------------------------------------------------------------

def normalize(data: PlumbingData) -> PlumbingData:
    """Canonical representative under the orientation and sign moves:
    arrows point from the smaller vertex id (flipping sign and gauge per the
    parity rules) and signs are gauged to +1 on a spanning forest."""
    n = data.n
    arrows = []
    for a in sorted(data.arrows, key=lambda a: a.id):
        if a.src > a.tgt:
            arrows.append(_flip_arrow(a, n))
        else:
            arrows.append(a)
    interim = PlumbingData(n, data.vertices, tuple(arrows), data.ring)
    tree, _ = _spanning_forest(interim)
    chi = {vid: 1 for vid, _ in data.vertices}
    adjacency = {}
    for a in tree:
        adjacency.setdefault(a.src, []).append((a.tgt, a.sign))
        adjacency.setdefault(a.tgt, []).append((a.src, a.sign))
    seen = set()
    for vid, _ in data.vertices:
        if vid in seen:
            continue
        stack = [vid]
        seen.add(vid)
        while stack:
            node = stack.pop()
            for nxt, sign in adjacency.get(node, []):
                if nxt in seen:
                    continue
                seen.add(nxt)
                chi[nxt] = chi[node] * sign
                stack.append(nxt)
    gauged = tuple(Arrow(a.id, a.src, a.tgt,
                         a.sign * chi[a.src] * chi[a.tgt], a.d)
                   for a in interim.arrows)
    return PlumbingData(n, data.vertices, gauged, data.ring)


# ---------------------------------------------------------------------------
# JSON wire formats and random data
# ---------------------------------------------------------------------------

def plumbing_from_json(doc: dict, ring: Ring | None = None,
                       n: int | None = None) -> PlumbingData:
    """Plumbing data from its JSON document; ring and n, when given,
    override the document's "coefficients" and "n".  A document that breaks
    the schema is an InputError at the JSON path that breaks it."""
    if not isinstance(doc, dict):
        raise InputError("document", f"expected an object, got "
                                     f"{type(doc).__name__}")
    if ring is None:
        coefficients = doc.get("coefficients", "Z")
        if not isinstance(coefficients, str):
            raise InputError("coefficients",
                             f"expected a string, got {coefficients!r}")
        try:
            ring = Ring.parse(coefficients)
        except ValueError as err:
            raise InputError("coefficients", str(err)) from None
    vertices = []
    for i, v in enumerate(_field(doc, "vertices", list, "")):
        where = f"vertices[{i}]"
        if not isinstance(v, dict):
            raise InputError(where, f"expected an object, got {v!r}")
        vid = _field(v, "id", str, where)
        m = v.get("manifold", {"type": "sphere"})
        if not isinstance(m, dict):
            raise InputError(f"{where}.manifold",
                             f"expected an object, got {m!r}")
        where += ".manifold"
        kind = _field(m, "type", str, where)
        if kind == "sphere":
            spec = SPHERE
        elif kind == "disk":
            spec = DISK
        elif kind == "surface":
            spec = surface(_field(m, "genus", int, where)
                           if "genus" in m else 0)
        elif kind == "custom":
            gens = []
            for j, g in enumerate(_field(m, "generators", list, where)):
                at = f"{where}.generators[{j}]"
                if not isinstance(g, dict):
                    raise InputError(at, f"expected an object, got {g!r}")
                gens.append((_field(g, "name", str, at),
                             _field(g, "deg", int, at)))
            diffs = m.get("differentials", {})
            if not isinstance(diffs, dict) or not all(
                    isinstance(x, str) for x in diffs.values()):
                raise InputError(f"{where}.differentials", f"expected an "
                                 f"object of polynomial strings, got {diffs!r}")
            eta = m.get("eta", "0")
            if not isinstance(eta, str):
                raise InputError(f"{where}.eta", f"expected a polynomial "
                                 f"string, got {eta!r}")
            spec = custom(gens, list(diffs.items()), eta)
        else:
            raise InputError(f"{where}.type", f"unknown manifold type "
                                              f"{kind!r}")
        vertices.append((vid, spec))
    arrows = []
    for i, a in enumerate(_field(doc, "arrows", list, "")):
        where = f"arrows[{i}]"
        if not isinstance(a, dict):
            raise InputError(where, f"expected an object, got {a!r}")
        ends = [_field(a, key, str, where) for key in ("id", "src", "tgt")]
        sign = a.get("sign", 1)
        if type(sign) is not int or sign not in (1, -1):
            raise InputError(f"{where}.sign", f"expected 1 or -1, got {sign!r}")
        gauge = a.get("d", 0)
        if type(gauge) is not int:
            raise InputError(f"{where}.d",
                             f"expected an integer, got {gauge!r}")
        arrows.append(Arrow(*ends, sign, gauge))
    if n is None:
        n = _field(doc, "n", int, "")
    try:
        return PlumbingData(n, tuple(vertices), tuple(arrows), ring)
    except _DATA_ERRORS as err:  # a check of the data, at its part
        path = "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                       for p in getattr(err, "part", ()))
        raise InputError(path[1:] or "document", str(err)) from err


def plumbing_to_json(data: PlumbingData) -> dict:
    vertices = []
    for vid, spec in data.vertices:
        if spec.kind == "custom":
            manifold = {"type": "custom",
                        "generators": [{"name": n_, "deg": d_}
                                       for n_, d_ in spec.generators],
                        "differentials": dict(spec.differentials),
                        "eta": spec.eta}
        elif spec.kind == "surface":
            manifold = {"type": "surface", "genus": spec.genus}
        else:
            manifold = {"type": spec.kind}
        vertices.append({"id": vid, "manifold": manifold})
    return {
        "n": data.n,
        "coefficients": data.ring.render(),
        "vertices": vertices,
        "arrows": [{"id": a.id, "src": a.src, "tgt": a.tgt,
                    "sign": a.sign, "d": a.d} for a in data.arrows],
    }


def placement_from_json(doc, data: PlumbingData) -> dict:
    """The placement document of build_wrapped for data, vertex id ->
    {"left": tokens, "right": tokens} with each token a list of strings such
    as ["in", "e1"], checked: a fault, or a vertex that data lacks, is an
    InputError at its JSON path."""
    if not isinstance(doc, dict):
        raise InputError("document", f"expected an object of vertex ids, "
                                     f"got {type(doc).__name__}")
    vertices = dict(data.vertices)
    for vid, v in doc.items():
        _known((vid,), vertices, "vertex", vid)
        if not isinstance(v, dict):
            raise InputError(vid, f"expected an object, got {v!r}")
        for side in ("left", "right"):
            for i, t in enumerate(_field(v, side, list, vid)):
                if not isinstance(t, list) or not all(
                        isinstance(x, str) for x in t):
                    raise InputError(f"{vid}.{side}[{i}]", f"expected a list "
                                     f"of strings, got {t!r}")
    return doc


def quiver_from_json(doc: dict) -> GradedQuiver:
    """The graded quiver of a document: "vertices" (ids, or objects with an
    "id") and "arrows" with "id", "src", "tgt" and an integer "q" (default
    0).  A document that breaks the schema is an InputError at the JSON
    path that breaks it."""
    if type(doc) is not dict:
        raise InputError("document", f"expected an object, got "
                                     f"{type(doc).__name__}")
    vertices = []
    for i, v in enumerate(_field(doc, "vertices", list, "")):
        if type(v) is not str:  # JSON gives exact types
            if type(v) is not dict:
                raise InputError(f"vertices[{i}]", f"expected a string or "
                                                   f"an object, got {v!r}")
            v = _field(v, "id", str, f"vertices[{i}]")
        if v in vertices:
            raise InputError(f"vertices[{i}]", f"duplicate vertex id {v!r}")
        vertices.append(v)
    known = set(vertices)
    arrows, ids = [], set()
    for i, a in enumerate(_field(doc, "arrows", list, "")):
        if type(a) is not dict:
            raise InputError(f"arrows[{i}]", f"expected an object, got {a!r}")
        for key in ("id", "src", "tgt"):
            if type(a.get(key)) is not str:
                _field(a, key, str, f"arrows[{i}]")
        if a["id"] in ids:
            raise InputError(f"arrows[{i}].id",
                             f"duplicate arrow id {a['id']!r}")
        ids.add(a["id"])
        for key in ("src", "tgt"):
            if a[key] not in known:
                raise InputError(f"arrows[{i}].{key}",
                                 f"unknown vertex {a[key]!r}")
        q = a.get("q", 0)
        if type(q) is not int:
            raise InputError(f"arrows[{i}].q",
                             f"expected an integer, got {q!r}")
        arrows.append(GradedArrow(a["id"], a["src"], a["tgt"], q))
    return GradedQuiver(tuple(vertices), tuple(arrows))


@dataclass
class RandomPlumbingConfig:
    max_vertices: int = 5
    max_arrows: int = 8
    dims: tuple = (2, 3, 4, 5, 6)
    gauge: tuple = (-2, 2)
    surfaces: bool = True
    disks: bool = True
    customs: bool = True
    max_genus: int = 2


def random_plumbing(rng, config: RandomPlumbingConfig, ring: Ring,
                    n: int | None = None) -> PlumbingData:
    n = n if n is not None else rng.choice(config.dims)
    n_vertices = rng.randint(1, config.max_vertices)
    vids = [f"v{i}" for i in range(n_vertices)]
    vertices = []
    for vid in vids:
        kinds = ["sphere"]
        if config.disks:
            kinds.append("disk")
        if config.surfaces and n == 2:
            kinds.append("surface")
        if config.customs:
            kinds.append("custom")
        kind = rng.choice(kinds)
        if kind == "surface":
            vertices.append((vid, surface(rng.randint(0, config.max_genus))))
        elif kind == "disk":
            vertices.append((vid, DISK))
        elif kind == "custom":
            vertices.append((vid, custom(
                [("w", 2 - n)], [("w", "0")],
                "w" if rng.random() < 0.7 else "0")))
        else:
            vertices.append((vid, SPHERE))
    arrows = []
    for i in range(rng.randint(0, config.max_arrows)):
        arrows.append(Arrow(f"e{i}", rng.choice(vids), rng.choice(vids),
                            rng.choice((1, -1)),
                            rng.randint(config.gauge[0], config.gauge[1])))
    return PlumbingData(n, tuple(vertices), tuple(arrows), ring)
