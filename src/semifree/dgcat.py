"""Semifree dg categories, dg functors with validation, and hom enumeration.

A category is immutable after construction; new_semifree enforces the degree
check d(g) of degree |g|+1, the ordinal condition (differentials only use
earlier generators), and d^2 = 0, reporting the offending generator and the
residual polynomial on failure.  A category may also carry a terminating
rewrite system (see rewrite.py); morphisms are then taken modulo its rules,
and a semifree category is the case with no rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .algebra import (
    CompositionError,
    Generator,
    NcPoly,
    Ring,
    compose,
    leibniz_d,
    parse_poly,
    render_poly,
    render_word,
)


class DegreeError(Exception):
    pass


class OrdinalViolation(Exception):
    pass


class DSquaredNonzero(Exception):
    def __init__(self, gen_name: str, residual: NcPoly):
        self.gen_name = gen_name
        self.residual = residual
        super().__init__(
            f"d^2 != 0 at {gen_name}: residual {render_poly(residual)}")


class FunctorError(Exception):
    """Per-generator diagnostic for an invalid dg functor."""

    def __init__(self, message: str, residual: NcPoly | None = None):
        self.residual = residual
        super().__init__(message)


@dataclass(frozen=True)
class SemifreeDgCat:
    ring: Ring
    objects: tuple
    generators: tuple  # Generator, ordered by rank
    differentials: dict  # name -> NcPoly
    provenance: tuple = ()
    rules: tuple = ()  # ((Generator, ...), NcPoly) pairs, lhs -> rhs
    weights: dict = field(default_factory=dict)  # name -> reduction weight

    def __post_init__(self):
        if not self.rules:
            return
        from .rewrite import RuleError, RuleIndex, _strictly_smaller
        for lhs, rhs in self.rules:
            if not lhs:
                raise RuleError("empty rule lhs")
            if rhs.source != lhs[-1].source or rhs.target != lhs[0].target:
                raise RuleError(
                    f"rule {render_word(lhs)} -> {render_poly(rhs)} changes boundary")
            for w in rhs.terms:
                if not _strictly_smaller(w, lhs, self.weights):
                    raise RuleError(
                        f"rule {render_word(lhs)} -> {render_poly(rhs)} does not "
                        f"decrease the reduction order at {render_word(w)}")
        # not a field: equality and repr stay those of the fields
        object.__setattr__(self, "_index", RuleIndex(self.rules))

    # -- lookups --
    def gen(self, name: str) -> Generator:
        g = self.gen_map().get(name)
        if g is None:
            raise KeyError(f"no generator named {name!r}")
        return g

    def gen_map(self):
        return {g.name: g for g in self.generators}

    def d(self, p: NcPoly) -> NcPoly:
        return leibniz_d(p, self.differentials)

    def poly(self, text: str, source: str, target: str) -> NcPoly:
        gm = self.gen_map()
        return parse_poly(text, self.ring, source, target, gm.get)

    def next_rank(self) -> int:
        return max((g.rank for g in self.generators), default=-1) + 1

    # -- rewriting --
    def is_reducible(self, word) -> bool:
        return bool(self.rules) and self._index.match(word) is not None

    def normalize(self, p: NcPoly) -> NcPoly:
        return self._index.normalize(p) if self.rules else p

    # -- confluence/diagnostics --
    def critical_pairs(self, max_len: int = 3):
        """Overlap words of bounded length with both one-step reducts normalized."""
        pairs = []
        rules = list(self.rules)
        for a, (l1, r1) in enumerate(rules):
            for b, (l2, r2) in enumerate(rules):
                # overlap: proper suffix of l1 equals prefix of l2
                for k in range(1, min(len(l1), len(l2)) + (1 if a != b else 0)):
                    if l1[-k:] != l2[:k]:
                        continue
                    word = l2[:0] + l1 + l2[k:]
                    if len(word) > max_len:
                        continue
                    if any(word[i].source != word[i + 1].target
                           for i in range(len(word) - 1)):
                        continue
                    left = self._reduce_at(word, 0, a)
                    right = self._reduce_at(word, len(l1) - k, b)
                    pairs.append((word, self.normalize(left),
                                  self.normalize(right)))
                # containment: l2 inside l1 (strict)
                if a != b and len(l2) < len(l1):
                    for i in range(len(l1) - len(l2) + 1):
                        if l1[i:i + len(l2)] == l2:
                            word = l1
                            left = self._reduce_at(word, 0, a)
                            right = self._reduce_at(word, i, b)
                            pairs.append((word, self.normalize(left),
                                          self.normalize(right)))
        return pairs

    def joinable(self, max_len: int = 3) -> bool:
        return all(x == y for _, x, y in self.critical_pairs(max_len))

    def _reduce_at(self, word, i, rule_idx) -> NcPoly:
        from .rewrite import _replace_at
        lhs, rhs = self.rules[rule_idx]
        return _replace_at(self.ring, word, i, lhs, rhs)


def new_semifree(ring: Ring, objects, generators, differentials,
                 provenance=()) -> SemifreeDgCat:
    """Validated construction: degree, ordinal condition, d^2 = 0."""
    cat = unaudited_semifree(ring, objects, generators, differentials,
                             provenance)
    audit_d_squared(cat)
    return cat


def unaudited_semifree(ring: Ring, objects, generators, differentials,
                       provenance=()) -> SemifreeDgCat:
    """Every structural check of new_semifree except the d^2 audit, which a
    category with relations must run modulo its rules."""
    objects = tuple(objects)
    generators = tuple(generators)
    obj_set = set(objects)
    if len(obj_set) != len(objects):
        raise ValueError("duplicate object ids")
    names = [g.name for g in generators]
    if len(set(names)) != len(names):
        raise ValueError("duplicate generator names")
    ranks = [g.rank for g in generators]
    if len(set(ranks)) != len(ranks):
        raise ValueError("duplicate ordinal ranks")
    if sorted(ranks) != ranks:
        raise ValueError("generators must be listed in rank order")
    for g in generators:
        if g.source not in obj_set or g.target not in obj_set:
            raise ValueError(f"generator {g.name} references undeclared objects")
    table = dict(differentials)
    for g in generators:
        if g.name not in table:
            raise ValueError(f"missing differential for {g.name}")
        dg = table[g.name]
        if dg.source != g.source or dg.target != g.target:
            raise CompositionError(
                f"d({g.name}) has boundary {dg.source}->{dg.target}, "
                f"expected {g.source}->{g.target}")
        deg = dg.degree()
        if deg is not None and deg != g.degree + 1:
            raise DegreeError(
                f"d({g.name}) has degree {deg}, expected {g.degree + 1}")
        for word in dg.terms:
            if isinstance(word, str):
                continue
            for letter in word:
                if letter.rank >= g.rank:
                    raise OrdinalViolation(
                        f"d({g.name}) uses {letter.name} of rank {letter.rank} "
                        f">= rank {g.rank}")
    return SemifreeDgCat(ring, objects, generators, table, tuple(provenance))


def audit_d_squared(cat) -> None:
    """Re-runnable d^2 = 0 audit, modulo the category's rules."""
    for g in cat.generators:
        residual = cat.normalize(cat.d(cat.differentials[g.name]))
        if not residual.is_zero():
            raise DSquaredNonzero(g.name, residual)


def push_poly(p: NcPoly, object_map: dict, gen_images: dict, ring: Ring) -> NcPoly:
    """Substitute objects and generators through maps, multiplying out words."""
    out = NcPoly.zero(ring, object_map[p.source], object_map[p.target])
    for word, coeff in p.terms.items():
        if isinstance(word, str):
            piece = NcPoly.identity(ring, object_map[word])
        else:
            piece = None
            for g in word:
                img = gen_images[g.name]
                piece = img if piece is None else compose(piece, img)
        out = out + piece.scale(coeff)
    return out


# ---------------------------------------------------------------------------
# dg functors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DgFunctor:
    """Object map plus generator -> NcPoly map into the target category.

    object_shifts, when present, marks that object X is sent to (image of X)
    shifted by object_shifts[X]; degrees and d-commutation are checked with
    the corresponding Koszul corrections.
    """

    source: object
    target: object
    object_map: dict
    generator_map: dict  # name -> NcPoly in target
    object_shifts: dict = field(default_factory=dict)

    def shift(self, obj: str) -> int:
        return self.object_shifts.get(obj, 0)

    def apply_object(self, obj: str) -> str:
        return self.object_map[obj]

    def apply(self, p: NcPoly) -> NcPoly:
        """Push a source polynomial through the functor (no shift signs)."""
        out = push_poly(p, self.object_map, self.generator_map, self.target.ring)
        return self.target.normalize(out)

    def shift_apply(self, p: NcPoly) -> NcPoly:
        """Pushforward with the Koszul signs a per-object shift introduces.

        A word f_k...f_1 through objects X_0 -> ... -> X_k acquires the sign
        (-1)^(sum_{i>=2} |f_i| (s(X_{i-1}) - s(X_0))).
        """
        ring = self.target.ring
        out = NcPoly.zero(ring, self.object_map[p.source],
                          self.object_map[p.target])
        for word, coeff in p.terms.items():
            if isinstance(word, str):
                piece = NcPoly.identity(ring, self.object_map[word])
                out = out + piece.scale(coeff)
                continue
            s0 = self.shift(word[-1].source)
            exponent = 0
            piece = None
            for idx, g in enumerate(word):
                img = self.generator_map[g.name]
                piece = img if piece is None else compose(piece, img)
                if idx < len(word) - 1:  # letters f_k..f_2 in written order
                    exponent += g.degree * (self.shift(g.source) - s0)
            sign = -1 if exponent % 2 else 1
            out = out + piece.scale(ring.mul(ring.normalize(sign), coeff))
        return self.target.normalize(out)


def validate_functor(f: DgFunctor) -> dict:
    """Certificate iff boundary, degree, and d-commutation hold for all generators."""
    if f.source.ring != f.target.ring:
        raise FunctorError("source and target coefficient rings differ")
    tgt_objects = set(f.target.objects)
    for obj in f.source.objects:
        if f.object_map.get(obj) not in tgt_objects:
            raise FunctorError(f"object {obj} maps outside the target category")
    checked = []
    for g in f.source.generators:
        img = f.generator_map.get(g.name)
        if img is None:
            raise FunctorError(f"no image for generator {g.name}")
        if (img.source != f.object_map[g.source]
                or img.target != f.object_map[g.target]):
            raise FunctorError(
                f"F({g.name}) has boundary {img.source}->{img.target}, expected "
                f"{f.object_map[g.source]}->{f.object_map[g.target]}")
        expected = g.degree + f.shift(g.source) - f.shift(g.target)
        deg = f.target.normalize(img).degree()
        if deg is not None and deg != expected:
            raise DegreeError(
                f"F({g.name}) has degree {deg}, expected {expected}")
        if f.object_shifts:
            lhs = f.shift_apply(f.source.differentials[g.name])
            if (f.shift(g.source) - f.shift(g.target)) % 2:
                lhs = -lhs
        else:
            lhs = f.apply(f.source.differentials[g.name])
        rhs = f.target.normalize(f.target.d(img))
        residual = f.target.normalize(lhs - rhs)
        if not residual.is_zero():
            raise FunctorError(
                f"F(d{g.name}) - d(F({g.name})) = {render_poly(residual)}",
                residual)
        checked.append(g.name)
    return {"generators_checked": checked, "valid": True}


def identity_functor(cat) -> DgFunctor:
    gm = {g.name: NcPoly.gen(cat.ring, g) for g in cat.generators}
    return DgFunctor(cat, cat, {o: o for o in cat.objects}, gm)


def compose_functors(f: DgFunctor, g: DgFunctor) -> DgFunctor:
    """f o g; generator images expand through g then f."""
    if g.target is not f.source and g.target != f.source:
        raise FunctorError("compose_functors: middle categories differ")
    object_map = {o: f.object_map[g.object_map[o]] for o in g.source.objects}
    gen_map = {name: f.apply(img) for name, img in g.generator_map.items()}
    shifts = {}
    for o in g.source.objects:
        s = g.shift(o) + f.shift(g.object_map[o])
        if s:
            shifts[o] = s
    return DgFunctor(g.source, f.target, object_map, gen_map, shifts)


def restrict_to_objects(cat: SemifreeDgCat, objects) -> SemifreeDgCat:
    """Subcategory on the generators whose boundaries stay in `objects`."""
    keep = set(objects)
    gens = tuple(g for g in cat.generators
                 if g.source in keep and g.target in keep)
    ok = {g.name for g in gens}
    for g in gens:
        for word in cat.differentials[g.name].terms:
            if isinstance(word, str):
                continue
            for letter in word:
                if letter.name not in ok:
                    raise ValueError(
                        f"d({g.name}) escapes the object set via {letter.name}")
    table = {g.name: cat.differentials[g.name] for g in gens}
    return SemifreeDgCat(cat.ring, tuple(sorted(keep)), gens, table,
                         cat.provenance + ({"op": "restrict", "objects": sorted(keep)},))


def restrict_functor(f: DgFunctor, objects) -> DgFunctor:
    sub = restrict_to_objects(f.source, objects)
    return DgFunctor(sub, f.target,
                     {o: f.object_map[o] for o in sub.objects},
                     {g.name: f.generator_map[g.name] for g in sub.generators},
                     {o: s for o, s in f.object_shifts.items() if o in set(objects)})


# ---------------------------------------------------------------------------
# hom-space enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomBasisSlice:
    source: str
    target: str
    window: tuple
    length_bound: int
    words_by_degree: dict  # degree -> list of word keys, deterministic order


def _reach_table(generators, target: str, length_bound: int) -> list:
    """reach[r][x] = (min, max) degree of a path of at most r letters x->target.

    Objects with no such path have no entry.  The interval may contain degrees
    no path has, which only makes pruning by it weaker, never wrong.
    """
    reach = [{target: (0, 0)}]
    for _ in range(length_bound):
        prev = reach[-1]
        cur = dict(prev)
        for g in generators:
            rest = prev.get(g.target)
            if rest is None:
                continue
            low, high = rest[0] + g.degree, rest[1] + g.degree
            seen = cur.get(g.source)
            if seen is not None:
                low, high = min(low, seen[0]), max(high, seen[1])
            cur[g.source] = (low, high)
        reach.append(cur)
    return reach


def hom_slice(cat, source: str, target: str, window, length_bound: int) -> HomBasisSlice:
    """All composable words source->target with degree in window, length <= bound.

    With rewrite rules only rule-irreducible words are listed.  A partial
    word is grown only while some extension of it within the bound can still
    end at target with degree in the window, so the result is the same as
    growing every word and filtering at the end.
    """
    lo, hi = window
    for role, obj in (("source", source), ("target", target)):
        if obj not in cat.objects:
            known = ", ".join(map(str, cat.objects))
            raise ValueError(f"hom {role} {obj!r} is not an object of the "
                             f"category (objects: {known})")
    if lo > hi:
        raise ValueError(f"hom window {lo}:{hi} is empty (lo > hi)")
    if length_bound < 0:
        raise ValueError(f"hom length bound {length_bound} is negative")
    reducible = cat.is_reducible if cat.rules else None
    out_of = {}
    for g in cat.generators:
        out_of.setdefault(g.source, []).append(g)
    reach = _reach_table(cat.generators, target, length_bound)
    by_degree = {}
    if lo <= 0 <= hi and source == target:
        by_degree.setdefault(0, []).append(source)
    # grow words by extending on the left, starting from the source object
    paths = [((), source, 0)]  # (written-order word so far, left end, degree)
    for length in range(1, length_bound + 1):
        ahead = reach[length_bound - length]
        grown = []
        for word, tip, deg in paths:
            for g in out_of.get(tip, ()):
                rest = ahead.get(g.target)
                new_deg = deg + g.degree
                if (rest is None or new_deg + rest[0] > hi
                        or new_deg + rest[1] < lo):
                    continue
                new_word = (g,) + word
                if reducible is not None and reducible(new_word):
                    continue
                grown.append((new_word, g.target, new_deg))
                if g.target == target and lo <= new_deg <= hi:
                    by_degree.setdefault(new_deg, []).append(new_word)
        paths = grown
    for deg in by_degree:
        by_degree[deg].sort(key=lambda w: (0, ()) if isinstance(w, str)
                            else (len(w), tuple(g.rank for g in w)))
    return HomBasisSlice(source, target, (lo, hi), length_bound, by_degree)


# ---------------------------------------------------------------------------
# JSON presentation schema
# ---------------------------------------------------------------------------

def to_json(cat) -> dict:
    data = {
        "coefficients": cat.ring.render(),
        "objects": list(cat.objects),
        "generators": [
            {
                "name": g.name,
                "src": g.source,
                "tgt": g.target,
                "deg": g.degree,
                "rank": g.rank,
                "d": render_poly(cat.differentials[g.name]),
            }
            for g in cat.generators
        ],
        "provenance": list(cat.provenance),
    }
    if cat.rules:
        data["rules"] = [
            {"lhs": [g.name for g in lhs], "rhs": render_poly(rhs)}
            for lhs, rhs in cat.rules
        ]
        if cat.weights:
            data["weights"] = dict(sorted(cat.weights.items()))
    return data


def from_json(data: dict):
    ring = Ring.parse(data["coefficients"])
    objects = tuple(data["objects"])
    gens = tuple(Generator(g["name"], g["src"], g["tgt"], g["deg"], g["rank"])
                 for g in data["generators"])
    gm = {g.name: g for g in gens}
    table = {}
    for spec, g in zip(data["generators"], gens):
        table[g.name] = parse_poly(spec["d"], ring, g.source, g.target, gm.get)
    cat = unaudited_semifree(ring, objects, gens, table,
                             data.get("provenance", ()))
    if data.get("rules"):
        rules = []
        for r in data["rules"]:
            lhs = tuple(gm[name] for name in r["lhs"])
            src, tgt = lhs[-1].source, lhs[0].target
            rules.append((lhs, parse_poly(r["rhs"], ring, src, tgt, gm.get)))
        cat = replace(cat, rules=tuple(rules),
                      weights=dict(data.get("weights", {})))
    audit_d_squared(cat)
    return cat
