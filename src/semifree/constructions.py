"""Localization, colimits, homotopy colimits, and tensor products.

Localization adjoins the explicit four-generator cluster per inverted
morphism.  The homotopy colimit of a span adjoins localized comparison
generators t_X and homotopy generators t_f whose differential carries a
twisted-derivation correction term; construction aborts unless the result
passes the d^2 = 0 audit, which pins the sign convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Generator, NcPoly, compose, render_poly
from .dgcat import (
    DgFunctor,
    SemifreeDgCat,
    keep_generators,
    new_semifree,
    push_poly,
    validate_functor,
)

QUAD_SUFFIXES = ("'", "_hat", "_check", "_bar")


@dataclass(frozen=True)
class LocalizationRecord:
    inverted: str
    prime: str
    hat: str
    check: str
    bar: str

    def names(self):
        return (self.prime, self.hat, self.check, self.bar)


@dataclass(frozen=True)
class PushoutSpan:
    a: object
    c: object
    b: object
    alpha: DgFunctor  # c -> a
    beta: DgFunctor   # c -> b

    def __post_init__(self):
        if self.alpha.source is not self.c or self.alpha.target is not self.a:
            raise ValueError("alpha must map c -> a")
        if self.beta.source is not self.c or self.beta.target is not self.b:
            raise ValueError("beta must map c -> b")


# ---------------------------------------------------------------------------
# dg localization
# ---------------------------------------------------------------------------

def localization_cluster(ring, g: Generator, rank: int, names) -> list:
    """(generator, d) of g', g_hat, g_check, g_bar, named names and ranked
    from rank, which invert the closed degree-0 g: d g' = 0,
    d g_hat = 1 - g'g, d g_check = 1 - gg', d g_bar = g g_hat - g_check g."""
    prime = Generator(names[0], g.target, g.source, 0, rank)
    hat = Generator(names[1], g.source, g.source, -1, rank + 1)
    check = Generator(names[2], g.target, g.target, -1, rank + 2)
    bar = Generator(names[3], g.source, g.target, -2, rank + 3)
    g_poly = NcPoly.gen(ring, g)
    prime_poly = NcPoly.gen(ring, prime)
    return [
        (prime, NcPoly.zero(ring, g.target, g.source)),
        (hat, NcPoly.identity(ring, g.source) - compose(prime_poly, g_poly)),
        (check, NcPoly.identity(ring, g.target) - compose(g_poly, prime_poly)),
        (bar, compose(g_poly, NcPoly.gen(ring, hat))
         - compose(NcPoly.gen(ring, check), g_poly)),
    ]


def localize(cat: SemifreeDgCat, names) -> SemifreeDgCat:
    """Invert closed degree-0 generators; adds g', g_hat, g_check, g_bar each."""
    names = list(names)
    ring = cat.ring
    gens = list(cat.generators)
    table = dict(cat.differentials)
    taken = {g.name for g in gens}
    rank = cat.next_rank()
    records = []
    for name in names:
        g = cat.gen(name)
        if g.degree != 0:
            raise ValueError(f"{name} has degree {g.degree}, cannot invert")
        if not cat.normalize(cat.differentials[name]).is_zero():
            raise ValueError(f"{name} is not closed, cannot invert")
        quad = [_fresh(name + suffix, taken) for suffix in QUAD_SUFFIXES]
        for ng, dg in localization_cluster(ring, g, rank, quad):
            gens.append(ng)
            table[ng.name] = dg
        rank += 4
        records.append(LocalizationRecord(name, *quad))
    entry = {
        "op": "localize",
        "inverted": names,
        "clusters": [[r.inverted, *r.names()] for r in records],
    }
    return new_semifree(ring, cat.objects, gens, table,
                        cat.provenance + (entry,), cat.rules, cat.weights)


def localization_records(cat) -> list:
    """Localization clusters recorded in provenance, in construction order."""
    out = []
    for entry in cat.provenance:
        if isinstance(entry, dict) and entry.get("op") in ("localize", "hocolim"):
            for cluster in entry.get("clusters", []):
                out.append(LocalizationRecord(*cluster))
    return out


def name_as_generator(cat: SemifreeDgCat, expr: NcPoly, name: str) -> SemifreeDgCat:
    """Adjoin a closed degree-0 generator u with a homotopy k, dk = u - expr.

    This keeps every localization a generator localization: to invert a
    composite expression, name it first and then localize the name.
    """
    if expr.degree() not in (0, None):
        raise ValueError("only degree-0 expressions can be named for inversion")
    if not cat.normalize(cat.d(expr)).is_zero():
        raise ValueError("expression is not closed")
    taken = {g.name for g in cat.generators}
    if name in taken or name + "_htpy" in taken:
        raise ValueError(f"name {name!r} already used")
    rank = cat.next_rank()
    u = Generator(name, expr.source, expr.target, 0, rank)
    k = Generator(name + "_htpy", expr.source, expr.target, -1, rank + 1)
    ring = cat.ring
    table = dict(cat.differentials)
    table[u.name] = NcPoly.zero(ring, expr.source, expr.target)
    table[k.name] = NcPoly.gen(ring, u) - expr
    entry = {"op": "name_generator", "name": name, "expr": render_poly(expr)}
    return new_semifree(ring, cat.objects, list(cat.generators) + [u, k],
                        table, cat.provenance + (entry,), cat.rules,
                        cat.weights)


# ---------------------------------------------------------------------------
# colimit of a span whose beta leg is a semifree extension
# ---------------------------------------------------------------------------

def is_semifree_extension(f: DgFunctor) -> bool:
    """Inclusion of objects/generators whose complement is freely adjoined."""
    seen_objects = set()
    for obj in f.source.objects:
        img = f.object_map.get(obj)
        if img is None or img in seen_objects:
            return False
        seen_objects.add(img)
    seen = set()
    for g in f.source.generators:
        img = f.generator_map.get(g.name)
        if img is None or len(img.terms) != 1:
            return False
        ((word, coeff),) = img.terms.items()
        if isinstance(word, str) or len(word) != 1 or coeff != f.target.ring.one():
            return False
        letter = word[0]
        if letter.name in seen:
            return False
        seen.add(letter.name)
    return True


def _fresh(name: str, taken: set) -> str:
    while name in taken:
        name += "~"
    taken.add(name)
    return name


def colimit(span: PushoutSpan) -> SemifreeDgCat:
    """Pushout: the base extended by beta's new objects and generators, with
    every occurrence of the image of c rewritten through alpha."""
    a, c, b = span.a, span.c, span.b
    for part in ("a", "c", "b"):
        if getattr(span, part).rules:
            raise ValueError(f"colimit cannot keep the rules of part {part}")
    if not is_semifree_extension(span.beta):
        raise ValueError("beta leg is not a semifree extension")
    validate_functor(span.alpha)
    validate_functor(span.beta)
    ring = a.ring

    beta_objects = {span.beta.object_map[x]: x for x in c.objects}
    beta_gens = {}
    for g in c.generators:
        ((word, _),) = span.beta.generator_map[g.name].terms.items()
        beta_gens[word[0].name] = g.name

    object_map = {}
    taken_objects = set(a.objects)
    for obj in b.objects:
        if obj in beta_objects:
            object_map[obj] = span.alpha.object_map[beta_objects[obj]]
        else:
            object_map[obj] = _fresh(obj, taken_objects)
    objects = list(a.objects) + [object_map[o] for o in b.objects
                                 if o not in beta_objects]

    gens = list(a.generators)
    taken_names = {g.name for g in gens}
    rank = a.next_rank()
    new_gens = []
    gen_images = {}
    for g in b.generators:
        if g.name in beta_gens:
            gen_images[g.name] = span.alpha.generator_map[beta_gens[g.name]]
        else:
            fresh = _fresh(g.name, taken_names)
            ng = Generator(fresh, object_map[g.source], object_map[g.target],
                           g.degree, rank)
            rank += 1
            new_gens.append((g, ng))
            gen_images[g.name] = NcPoly.gen(ring, ng)
    table = dict(a.differentials)
    for g, ng in new_gens:
        table[ng.name] = push_poly(b.differentials[g.name], object_map,
                                   gen_images, ring)
        gens.append(ng)
    entry = {"op": "colimit",
             "identified": sorted((beta_objects[o], object_map[o])
                                  for o in beta_objects)}
    return new_semifree(ring, objects, gens, table, a.provenance + (entry,))


# ---------------------------------------------------------------------------
# homotopy colimit
# ---------------------------------------------------------------------------

def strip_localization(cat):
    """Drop localization clusters (inversion data only) from a category."""
    cluster_names = set()
    for rec in localization_records(cat):
        cluster_names.update(rec.names())
    if not cluster_names:
        return cat, set()
    gens = tuple(g for g in cat.generators if g.name not in cluster_names)
    provenance = tuple(e for e in cat.provenance
                       if not (isinstance(e, dict) and e.get("op") == "localize"))
    return keep_generators(cat, gens, provenance=provenance), cluster_names


def _restrict_leg(leg: DgFunctor, core) -> DgFunctor:
    return DgFunctor(core, leg.target, dict(leg.object_map),
                     {g.name: leg.generator_map[g.name] for g in core.generators},
                     dict(leg.object_shifts))


def hocolim(span: PushoutSpan):
    """Homotopy colimit of a span of semifree dg categories.

    Strictifies to the plain colimit whenever a leg is a semifree extension;
    otherwise runs the t-generator construction with t_X localized on the
    spot.
    """
    cat, _ = _hocolim_full(span)
    return cat


def _hocolim_full(span: PushoutSpan):
    a, c, b = span.a, span.c, span.b
    alpha, beta = span.alpha, span.beta
    for part in ("a", "c", "b"):
        if getattr(span, part).rules:
            raise ValueError(f"hocolim cannot keep the rules of part {part}")
    core, dropped = strip_localization(c)
    if dropped:
        alpha = _restrict_leg(alpha, core)
        beta = _restrict_leg(beta, core)
        c = core
    if is_semifree_extension(beta):
        return colimit(PushoutSpan(a, c, b, alpha, beta)), None
    if is_semifree_extension(alpha):
        return colimit(PushoutSpan(b, c, a, beta, alpha)), None
    validate_functor(alpha)
    validate_functor(beta)
    ring = a.ring

    taken_objects = set(a.objects)
    object_map_a = {o: o for o in a.objects}
    object_map_b = {o: _fresh(o, taken_objects) for o in b.objects}
    objects = list(a.objects) + [object_map_b[o] for o in b.objects]

    taken = {g.name for g in a.generators}
    gens = list(a.generators)
    rank = a.next_rank()
    b_images = {}
    b_renamed = {}
    for g in b.generators:
        ng = Generator(_fresh(g.name, taken), object_map_b[g.source],
                       object_map_b[g.target], g.degree, rank)
        rank += 1
        gens.append(ng)
        b_images[g.name] = NcPoly.gen(ring, ng)
        b_renamed[g.name] = ng
    table = dict(a.differentials)
    for g in b.generators:
        table[b_renamed[g.name].name] = push_poly(
            b.differentials[g.name], object_map_b, b_images, ring)

    def push_alpha(p):
        return push_poly(p, alpha.object_map, alpha.generator_map, ring)

    def push_beta(p):
        raw = push_poly(p, beta.object_map, beta.generator_map, ring)
        return push_poly(raw, object_map_b, b_images, ring)

    # comparison generators t_X, localized on the spot
    t_obj = {}
    for x in c.objects:
        name = _fresh(f"t_{x}", taken)
        src = alpha.object_map[x]
        tgt = object_map_b[beta.object_map[x]]
        t = Generator(name, src, tgt, 0, rank)
        rank += 1
        gens.append(t)
        table[name] = NcPoly.zero(ring, src, tgt)
        t_obj[x] = t
    clusters = []
    for x in c.objects:
        t = t_obj[x]
        quad = [_fresh(t.name + suffix, taken) for suffix in QUAD_SUFFIXES]
        for ng, dg in localization_cluster(ring, t, rank, quad):
            gens.append(ng)
            table[ng.name] = dg
        rank += 4
        clusters.append([t.name, *quad])

    # homotopy generators t_f
    t_gen = {}
    for g in c.generators:
        name = _fresh(f"t_{g.name}", taken)
        src = alpha.object_map[g.source]
        tgt = object_map_b[beta.object_map[g.target]]
        t_gen[g.name] = Generator(name, src, tgt, g.degree - 1, rank)
        rank += 1

    def twisted(p: NcPoly) -> NcPoly:
        """T(p): (beta, alpha)-twisted derivation with T(g) = t_g, T(1) = 0.

        On a word g_k...g_1 this is sum_j (-1)^{e_j} beta(g_k...g_{j+1})
        o t_{g_j} o alpha(g_{j-1}...g_1), e_j the degree of the right
        alpha-block.  The convention is pinned by the global d^2 = 0 audit.
        """
        src = alpha.object_map[p.source]
        tgt = object_map_b[beta.object_map[p.target]]
        out = NcPoly.zero(ring, src, tgt)
        for word, coeff in p.terms.items():
            if isinstance(word, str):
                continue
            right_degree = 0
            for j in range(len(word) - 1, -1, -1):
                piece = NcPoly.gen(ring, t_gen[word[j].name])
                if j < len(word) - 1:
                    right = word[j + 1:]
                    piece = compose(piece, push_alpha(
                        NcPoly(ring, right[-1].source, right[0].target,
                               {right: ring.one()})))
                if j > 0:
                    left = word[:j]
                    piece = compose(push_beta(
                        NcPoly(ring, left[-1].source, left[0].target,
                               {left: ring.one()})), piece)
                sign = -1 if right_degree % 2 else 1
                out.add_in_place(piece, ring.mul(ring.normalize(sign), coeff))
                right_degree += word[j].degree
        return out

    for g in c.generators:
        tf = t_gen[g.name]
        gens.append(tf)
        g_poly = NcPoly.gen(ring, c.gen(g.name))
        main = (compose(push_beta(g_poly), NcPoly.gen(ring, t_obj[g.source]))
                - compose(NcPoly.gen(ring, t_obj[g.target]), push_alpha(g_poly)))
        if g.degree % 2:
            main = -main
        table[tf.name] = main + twisted(c.differentials[g.name])

    entry = {
        "op": "hocolim",
        "t_objects": {x: t_obj[x].name for x in c.objects},
        "t_gens": {g.name: t_gen[g.name].name for g in c.generators},
        "clusters": clusters,
        "identified": sorted((t_obj[x].source, t_obj[x].target)
                             for x in c.objects),
    }
    cat = new_semifree(ring, objects, gens, table, a.provenance + (entry,))
    ports = {
        "t_obj": t_obj,
        "t_gen": t_gen,
        "twisted": twisted,
        "object_map_a": object_map_a,
        "object_map_b": object_map_b,
        "b_renamed": b_renamed,
        "b_images": b_images,
        "core_c": c,
    }
    return cat, ports


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


# ---------------------------------------------------------------------------
# tensor product
# ---------------------------------------------------------------------------

def pair_object(a_obj: str, b_obj: str) -> str:
    return f"({a_obj},{b_obj})"


def tensor(cat_a, cat_b) -> SemifreeDgCat:
    """A x B with interchange relations as rewrite rules.

    Generators are f(x)1_b and 1_a(x)g; a word with a B-letter directly left
    of an A-letter rewrites by the Koszul interchange, so normal forms have
    all A-letters written leftmost.
    """
    if cat_a.ring != cat_b.ring:
        raise ValueError("mixed coefficient rings")
    for part, cat in (("a", cat_a), ("b", cat_b)):
        if cat.rules:
            raise ValueError(f"tensor cannot keep the rules of factor {part}")
    ring = cat_a.ring
    objects = [pair_object(x, y) for x in cat_a.objects for y in cat_b.objects]

    rank = 0
    a_letters = {}  # (a_gen name, b obj) -> Generator
    for f in cat_a.generators:
        for y in cat_b.objects:
            g = Generator(f"{f.name}⊗1_{y}", pair_object(f.source, y),
                          pair_object(f.target, y), f.degree, rank)
            rank += 1
            a_letters[(f.name, y)] = g
    b_letters = {}  # (a obj, b_gen name) -> Generator
    for ggen in cat_b.generators:
        for x in cat_a.objects:
            g = Generator(f"1_{x}⊗{ggen.name}", pair_object(x, ggen.source),
                          pair_object(x, ggen.target), ggen.degree, rank)
            rank += 1
            b_letters[(x, ggen.name)] = g

    gens = [a_letters[(f.name, y)] for f in cat_a.generators
            for y in cat_b.objects]
    gens += [b_letters[(x, g.name)] for g in cat_b.generators
             for x in cat_a.objects]

    table = {}
    a_images = {y: {h.name: NcPoly.gen(ring, a_letters[(h.name, y)])
                    for h in cat_a.generators} for y in cat_b.objects}
    for f in cat_a.generators:
        for y in cat_b.objects:
            omap = {x: pair_object(x, y) for x in cat_a.objects}
            table[a_letters[(f.name, y)].name] = push_poly(
                cat_a.differentials[f.name], omap, a_images[y], ring)
    b_images = {x: {h.name: NcPoly.gen(ring, b_letters[(x, h.name)])
                    for h in cat_b.generators} for x in cat_a.objects}
    for gg in cat_b.generators:
        for x in cat_a.objects:
            omap = {y: pair_object(x, y) for y in cat_b.objects}
            table[b_letters[(x, gg.name)].name] = push_poly(
                cat_b.differentials[gg.name], omap, b_images[x], ring)

    rules = []
    for f in cat_a.generators:
        for gg in cat_b.generators:
            left = b_letters[(f.target, gg.name)]
            right = a_letters[(f.name, gg.source)]
            lhs = (left, right)
            sign = -1 if (f.degree % 2) and (gg.degree % 2) else 1
            a = a_letters[(f.name, gg.target)]
            b = b_letters[(f.source, gg.name)]
            rules.append((lhs, NcPoly(ring, b.source, a.target,
                                      {(a, b): ring.normalize(sign)})))

    entry = {"op": "tensor", "factors": [len(cat_a.objects), len(cat_b.objects)]}
    return new_semifree(ring, objects, gens, table, (entry,), rules)
