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
    BadArgument,
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

def adjoin_clusters(ring, gens: list, table: dict, inverted) -> list:
    """Append to gens and table, for each (g, names) of inverted, the
    generators g', g_hat, g_check, g_bar named names that invert the closed
    degree-0 g: d g' = 0, d g_hat = 1 - g'g, d g_check = 1 - gg',
    d g_bar = g g_hat - g_check g.  gens is kept in rank order, so each
    cluster is ranked after gens[-1].  Returns the provenance clusters
    [g, *names]."""
    clusters = []
    for g, names in inverted:
        rank = gens[-1].rank + 1
        prime = Generator(names[0], g.target, g.source, 0, rank)
        hat = Generator(names[1], g.source, g.source, -1, rank + 1)
        check = Generator(names[2], g.target, g.target, -1, rank + 2)
        bar = Generator(names[3], g.source, g.target, -2, rank + 3)
        g_poly = NcPoly.gen(ring, g)
        prime_poly = NcPoly.gen(ring, prime)
        table[prime.name] = NcPoly.zero(ring, g.target, g.source)
        table[hat.name] = (NcPoly.identity(ring, g.source)
                           - compose(prime_poly, g_poly))
        table[check.name] = (NcPoly.identity(ring, g.target)
                             - compose(g_poly, prime_poly))
        table[bar.name] = (compose(g_poly, NcPoly.gen(ring, hat))
                           - compose(NcPoly.gen(ring, check), g_poly))
        gens += (prime, hat, check, bar)
        clusters.append([g.name, *names])
    return clusters


def localize(cat: SemifreeDgCat, names) -> SemifreeDgCat:
    """Invert closed degree-0 generators; adds g', g_hat, g_check, g_bar each.
    A generator that is not one is a BadArgument "gens"."""
    names = list(names)
    taken = set(cat.gen_map())
    inverted = []
    for name in names:
        g = cat.gen(name)
        if g.degree != 0:
            raise BadArgument("gens", f"{name} has degree {g.degree}, "
                                      f"cannot invert")
        if not cat.normalize(cat.differentials[name]).is_zero():
            raise BadArgument("gens", f"{name} is not closed, cannot invert")
        inverted.append((g, [_fresh(name + suffix, taken)
                             for suffix in QUAD_SUFFIXES]))
    gens, table = list(cat.generators), dict(cat.differentials)
    entry = {"op": "localize", "inverted": names,
             "clusters": adjoin_clusters(cat.ring, gens, table, inverted)}
    return new_semifree(cat.ring, cat.objects, gens, table,
                        cat.provenance + (entry,), cat.rules, cat.weights)


def localization_records(cat) -> list:
    """Localization clusters recorded in provenance, in construction order."""
    out = []
    for entry in cat.provenance:
        if isinstance(entry, dict) and entry.get("op") in ("localize", "hocolim"):
            for cluster in entry["clusters"]:
                out.append(LocalizationRecord(*cluster))
    return out


def name_as_generator(cat: SemifreeDgCat, expr: NcPoly, name: str) -> SemifreeDgCat:
    """Adjoin a closed degree-0 generator u with a homotopy k, dk = u - expr.

    This keeps every localization a generator localization: to invert a
    composite expression, name it first and then localize the name.
    """
    if expr.degree() not in (0, None):
        raise BadArgument("expr", "only degree-0 expressions can be named "
                                  "for inversion")
    if not cat.normalize(cat.d(expr)).is_zero():
        raise BadArgument("expr", "expression is not closed")
    taken = {g.name for g in cat.generators}
    if name in taken or name + "_htpy" in taken:
        raise BadArgument("name", f"name {name!r} already used")
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
        if isinstance(word, str) or len(word) != 1 or coeff != 1:
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


def _glue(a, b, objects_in_a: dict, images_in_a: dict):
    """a's objects, generators and differentials, extended by the objects
    and generators of b that objects_in_a and images_in_a do not already
    send into a: each under a _fresh name, in b's order, ranked after a's
    generators, with its d pushed over.  Returns those three and b's object
    map and generator images into the result."""
    ring = a.ring
    taken = set(a.objects)
    object_map = {o: objects_in_a[o] if o in objects_in_a else _fresh(o, taken)
                  for o in b.objects}
    objects = list(a.objects) + [object_map[o] for o in b.objects
                                 if o not in objects_in_a]
    gens = list(a.generators)
    taken = {g.name for g in gens}
    rank = a.next_rank()
    images = dict(images_in_a)
    glued = []
    for g in b.generators:
        if g.name not in images:
            ng = Generator(_fresh(g.name, taken), object_map[g.source],
                           object_map[g.target], g.degree, rank)
            rank += 1
            glued.append((g, ng))
            images[g.name] = NcPoly.gen(ring, ng)
    table = dict(a.differentials)
    for g, ng in glued:
        gens.append(ng)
        table[ng.name] = push_poly(b.differentials[g.name], object_map,
                                   images, ring)
    return objects, gens, table, object_map, images


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
    alpha, beta = span.alpha, span.beta
    # beta sends each object and generator of c to one of b
    objects_in_a = {beta.object_map[x]: alpha.object_map[x] for x in c.objects}
    images_in_a = {word[0].name: alpha.generator_map[g.name]
                   for g in c.generators
                   for word in beta.generator_map[g.name].terms}
    objects, gens, table, _, _ = _glue(a, b, objects_in_a, images_in_a)
    entry = {"op": "colimit",
             "identified": sorted((x, alpha.object_map[x]) for x in c.objects)}
    return new_semifree(a.ring, objects, gens, table, a.provenance + (entry,))


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
                     {g.name: leg.generator_map[g.name]
                      for g in core.generators})


def hocolim(span: PushoutSpan) -> SemifreeDgCat:
    """Homotopy colimit of a span of semifree dg categories.

    c's localization clusters are dropped first.  The result is the plain
    colimit whenever a leg is a semifree extension.  Otherwise a and b are
    glued side by side (b's objects and generators follow a's, in b's
    order), with a comparison generator t_X per object of c, localized on
    the spot, and a homotopy generator t_f per generator f: X -> Y of c,
    d t_f = (-1)^|f| (beta(f) t_X - t_Y alpha(f)) + T(d f), T the
    twisted_derivation.  The provenance entry names every t.
    """
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
        return colimit(PushoutSpan(a, c, b, alpha, beta))
    if is_semifree_extension(alpha):
        return colimit(PushoutSpan(b, c, a, beta, alpha))
    validate_functor(alpha)
    validate_functor(beta)
    ring = a.ring
    objects, gens, table, b_objects, b_images = _glue(a, b, {}, {})
    alpha_leg = (alpha.object_map, alpha.generator_map)
    beta_leg = ({x: b_objects[beta.object_map[x]] for x in c.objects},
                {g.name: push_poly(beta.generator_map[g.name], b_objects,
                                   b_images, ring) for g in c.generators})
    taken = {g.name for g in gens}

    # comparison generators t_X, localized on the spot
    rank = gens[-1].rank + 1 if gens else 0
    t_obj = {}
    for x in c.objects:
        src, tgt = alpha.object_map[x], beta_leg[0][x]
        t = t_obj[x] = Generator(_fresh(f"t_{x}", taken), src, tgt, 0, rank)
        rank += 1
        gens.append(t)
        table[t.name] = NcPoly.zero(ring, src, tgt)
    clusters = adjoin_clusters(ring, gens, table, [
        (t, [_fresh(t.name + suffix, taken) for suffix in QUAD_SUFFIXES])
        for t in t_obj.values()])

    # homotopy generators t_f
    rank = gens[-1].rank + 1
    t_gen = {}
    for g in c.generators:
        t_gen[g.name] = Generator(_fresh(f"t_{g.name}", taken),
                                  alpha.object_map[g.source],
                                  beta_leg[0][g.target], g.degree - 1, rank)
        rank += 1
    for g in c.generators:
        tf = t_gen[g.name]
        gens.append(tf)
        main = (compose(beta_leg[1][g.name], NcPoly.gen(ring, t_obj[g.source]))
                - compose(NcPoly.gen(ring, t_obj[g.target]),
                          alpha.generator_map[g.name]))
        if g.degree % 2:
            main = -main
        table[tf.name] = main + twisted_derivation(
            c.differentials[g.name], alpha_leg, beta_leg, t_gen, ring)

    entry = {
        "op": "hocolim",
        "t_objects": {x: t_obj[x].name for x in c.objects},
        "t_gens": {g.name: t_gen[g.name].name for g in c.generators},
        "clusters": clusters,
        "identified": sorted((t.source, t.target) for t in t_obj.values()),
    }
    return new_semifree(ring, objects, gens, table, a.provenance + (entry,))


def twisted_derivation(p: NcPoly, alpha_leg, beta_leg, t_gen: dict,
                       ring) -> NcPoly:
    """T(p) for p in c: the (beta, alpha)-twisted derivation with
    T(f) = t_gen[f] and T(1) = 0.  Each leg is an (object map, generator
    images) pair from c into the hocolim.

    On a word g_k...g_1 this is sum_j (-1)^{e_j} beta(g_k...g_{j+1})
    o t_{g_j} o alpha(g_{j-1}...g_1), e_j the degree of the right
    alpha-block.  The convention is pinned by the global d^2 = 0 audit.
    """
    def push(leg, word):
        return push_poly(NcPoly(ring, word[-1].source, word[0].target,
                                {word: 1}), *leg, ring)

    out = NcPoly.zero(ring, alpha_leg[0][p.source], beta_leg[0][p.target])
    for word, coeff in p.terms.items():
        if isinstance(word, str):
            continue
        right_degree = 0
        for j in range(len(word) - 1, -1, -1):
            piece = NcPoly.gen(ring, t_gen[word[j].name])
            if j < len(word) - 1:
                piece = compose(piece, push(alpha_leg, word[j + 1:]))
            if j > 0:
                piece = compose(push(beta_leg, word[:j]), piece)
            sign = -1 if right_degree % 2 else 1
            out.add_in_place(piece, ring.mul(ring.normalize(sign), coeff))
            right_degree += word[j].degree
    return out


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
