"""Semifree dg categories, dg functors with validation, and hom enumeration.

A category is immutable and checks its own structure however it is built
(new_semifree, from_json, dataclasses.replace or the class itself): among
others the degree check d(g) of degree |g|+1, that each term of d(g)
composes along g's boundary, and the ordinal condition (differentials only
use earlier generators).  A category may also carry a terminating,
confluent rewrite system (see rewrite.py); morphisms are then taken modulo
its rules, and a semifree category is the case with no rules.  new_semifree,
the one audited constructor, adds d^2 = 0 modulo the rules, reporting the
offending generator and the residual polynomial on failure, and then, with
rules, their compatibility with d (rewrite.audit_rules).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter

from .algebra import (
    CompositionError,
    Generator,
    NcPoly,
    Ring,
    _checked,
    _concat,
    accumulate,
    leibniz_d,
    parse_poly,
    render_poly,
    render_word,
)


class DegreeError(ValueError):
    pass


class OrdinalViolation(ValueError):
    pass


class DSquaredNonzero(ValueError):
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


class UnknownName(ValueError):
    """A generator or arrow name that the category or plumbing lacks."""


class BadArgument(ValueError):
    """A construction, reduction move or hom computation refuses one of its
    arguments: the text says why, and argument names it as a reduction
    script step does (its key, such as "unit"), or else by its parameter
    (such as "window"); None for the category itself.  replay and the CLI
    report it as an InputError at that step's key or option."""

    def __init__(self, argument: str | None, message: str):
        self.argument = argument
        super().__init__(message)


def _part(err: Exception, *path) -> Exception:
    """err, tagged with the part of a document whose check it breaks, as
    keys and list indices, such as ("generators", 3, "d"); the loaders
    report it at _json_path(err)."""
    err.part = path
    return err


def _json_path(err: Exception) -> str:
    """The JSON path of err's part, such as generators[3].d, or "document"
    for an error with no part."""
    path = "".join(f"[{p}]" if isinstance(p, int) else f".{p}"
                   for p in getattr(err, "part", ()))
    return path[1:] or "document"


def _first_repeat(values) -> int:
    """The first index whose value came before; values repeat one."""
    seen = set()
    for i, value in enumerate(values):
        if value in seen:
            return i
        seen.add(value)


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
        """Distinct objects, names and ranks, ranks in order; for each
        generator, declared objects and a d over the category's ring, along
        its boundary, of its degree + 1, in earlier generators; weights of
        generators, integers >= 0, kept only with rules; the rules.

        A structural error carries part, the part of the presentation that
        breaks the check (see _part)."""
        ring, generators = self.ring, self.generators
        obj_set = set(self.objects)
        if len(obj_set) != len(self.objects):
            raise _part(ValueError("duplicate object ids"), "objects")
        gen_map = {g.name: g for g in generators}
        if len(gen_map) != len(generators):
            i = _first_repeat(g.name for g in generators)
            raise _part(ValueError("duplicate generator names"),
                        "generators", i)
        # ranks code words (hom_slice, _d_table, the rule index)
        by_rank = {g.rank: g for g in generators}
        if len(by_rank) != len(generators):
            i = _first_repeat(g.rank for g in generators)
            raise _part(ValueError("duplicate ordinal ranks"), "generators", i)
        if list(by_rank) != sorted(by_rank):
            i = next(i for i in range(1, len(generators))
                     if generators[i].rank < generators[i - 1].rank)
            raise _part(ValueError("generators must be listed in rank order"),
                        "generators", i)
        for i, g in enumerate(generators):
            if g.source not in obj_set or g.target not in obj_set:
                raise _part(ValueError(f"generator {g.name} references "
                                       f"undeclared objects"), "generators", i)
        try:
            for i, g in enumerate(generators):
                dg = self.differentials.get(g.name)
                if dg is None:
                    raise ValueError(f"missing differential for {g.name}")
                if dg.ring is not ring and dg.ring != ring:
                    raise ValueError("mixed coefficient rings")
                if dg.source != g.source or dg.target != g.target:
                    raise CompositionError(
                        f"d({g.name}) has boundary {dg.source}->{dg.target}, "
                        f"expected {g.source}->{g.target}")
                deg = dg.degree()
                if deg is not None and deg != g.degree + 1:
                    raise DegreeError(f"d({g.name}) has degree {deg}, "
                                      f"expected {g.degree + 1}")
                for word in dg.terms:
                    if isinstance(word, str):  # the identity of word
                        if not word == g.source == g.target:
                            raise CompositionError(
                                f"d({g.name}) has the term "
                                f"{render_word(word)}, but {g.name} runs "
                                f"{g.source}->{g.target}")
                        continue
                    end = g.target  # where the next letter must end, or None
                    for letter in word:
                        known = gen_map.get(letter.name)
                        if known is not letter and known != letter:
                            raise ValueError(
                                f"d({g.name}) uses {letter.name}, which is "
                                f"not a generator of the category")
                        if letter.rank >= g.rank:
                            raise OrdinalViolation(
                                f"d({g.name}) uses {letter.name} of rank "
                                f"{letter.rank} >= rank {g.rank}")
                        end = letter.source if letter.target == end else None
                    if end != g.source or not word:
                        raise CompositionError(
                            f"d({g.name}) has the term {render_word(word)}, "
                            f"which does not compose along "
                            f"{g.source}->{g.target}")
        except ValueError as err:
            raise _part(err, "generators", i, "d")
        for name, weight in self.weights.items():
            if name not in gen_map:
                raise _part(ValueError(f"unknown generator {name!r}"),
                            "weights")
            if type(weight) is not int or weight < 0:
                raise _part(ValueError(f"expected an integer >= 0, got "
                                       f"{weight!r}"), "weights", name)
        # not fields: equality and repr stay those of the fields
        object.__setattr__(self, "_gen_map", gen_map)
        if not self.rules:
            object.__setattr__(self, "weights", {})
            return
        from .rewrite import RuleError, RuleIndex
        # the index codes words by rank and decodes them through by_rank,
        # so every rule letter must be one of the generators
        weight_of = self.weights.get
        index = RuleIndex(letters=by_rank)
        try:  # a rule's check error names the rule
            for i, (lhs, rhs) in enumerate(self.rules):
                if not lhs:
                    raise RuleError("empty rule lhs")
                if rhs.ring is not ring and rhs.ring != ring:
                    raise ValueError("mixed coefficient rings")
                source, target = rhs.source, rhs.target
                if source != lhs[-1].source or target != lhs[0].target:
                    raise RuleError(f"rule {render_word(lhs)} -> "
                                    f"{render_poly(rhs)} changes boundary")
                # one walk per word, lhs first, gives its rank code, degree
                # and weight, whether it composes along source->target, and
                # the first letter that is not a generator of the category
                walks, composes, foreign = [], True, None
                for w in (lhs, *rhs.terms):
                    # an identity's word is ()
                    word = () if isinstance(w, str) else w
                    end = target if word else w if w == target else None
                    degree = weight = 0
                    for letter in word:
                        known = gen_map.get(letter.name)
                        if known is not letter and known != letter:
                            foreign = foreign or letter
                        end = letter.source if letter.target == end else None
                        degree += letter.degree
                        weight += weight_of(letter.name, 1)
                    composes &= end == source
                    walks.append((tuple(map(_rank, word)), degree, weight))
                # rewriting splices coded rhs words in place of the lhs, and
                # d terms in place of letters, with no check of the spliced
                # words
                if not composes:
                    try:
                        for w in (lhs, *rhs.terms):
                            _checked(w, source, target)  # raises its error
                    except CompositionError as err:
                        raise RuleError(str(err)) from None
                if foreign is not None:
                    raise RuleError(
                        f"rule {render_word(lhs)} -> {render_poly(rhs)} uses "
                        f"{foreign.name}, which is not a generator of the "
                        f"category")
                ranks, degree, weight = walks[0]
                terms = []
                for (w, c), (w_ranks, w_degree, w_weight) in zip(
                        rhs.terms.items(), walks[1:]):
                    # w < lhs in the reduction order, stably under
                    # multiplication: an identity is below every lhs of
                    # weight >= 0, and equal weight but different length is
                    # not stable under embedding
                    below = (w_weight < weight if w_weight != weight
                             else not w_ranks or len(w_ranks) == len(ranks)
                             and w_ranks < ranks)
                    if w_degree != degree:
                        raise RuleError(
                            f"rule {render_word(lhs)} -> {render_poly(rhs)} "
                            f"changes degree: lhs has degree {degree}, rhs "
                            f"term {render_word(w)} has degree {w_degree}")
                    if not below:
                        raise RuleError(
                            f"rule {render_word(lhs)} -> {render_poly(rhs)} "
                            f"does not decrease the reduction order at "
                            f"{render_word(w)}")
                    terms.append((w_ranks, c))
                index.add(ranks, terms, rhs.ring)
        except ValueError as err:
            raise _part(err, "rules", i)
        try:
            index.check_confluent(ring)
        except ValueError as err:
            raise _part(err, "rules")
        object.__setattr__(self, "_index", index)

    # -- lookups --
    def gen(self, name: str) -> Generator:
        g = self.gen_map().get(name)
        if g is None:
            raise UnknownName(f"no generator named {name!r}")
        return g

    def gen_map(self) -> dict:
        """name -> Generator, built once per category; do not modify it."""
        return self._gen_map

    def d(self, p: NcPoly) -> NcPoly:
        return leibniz_d(p, self.differentials)

    def poly(self, text: str, source: str, target: str) -> NcPoly:
        gm = self.gen_map()
        return parse_poly(text, self.ring, source, target, gm.get)

    def next_rank(self) -> int:
        return max((g.rank for g in self.generators), default=-1) + 1

    # -- rewriting --
    def is_reducible(self, word) -> bool:
        return bool(self.rules) and self._index.match(_code(word)) is not None

    def normalize(self, p: NcPoly) -> NcPoly:
        return self._index.normalize(p) if self.rules else p


def new_semifree(ring: Ring, objects, generators, differentials,
                 provenance=(), rules=(), weights=None) -> SemifreeDgCat:
    """The class's structural checks, then d^2 = 0 modulo the rules, then
    the rules' compatibility with d."""
    cat = SemifreeDgCat(ring, tuple(objects), tuple(generators),
                        dict(differentials), tuple(provenance), tuple(rules),
                        dict(weights or {}))
    audit_d_squared(cat)
    if cat.rules:
        from .rewrite import audit_rules
        audit_rules(cat)
    return cat


def audit_d_squared(cat) -> None:
    """Re-runnable d^2 = 0 audit, modulo the category's rules; a failure
    is tagged with the generator's d (see _part)."""
    for i, g in enumerate(cat.generators):
        residual = cat.normalize(cat.d(cat.differentials[g.name]))
        if not residual.is_zero():
            raise _part(DSquaredNonzero(g.name, residual),
                        "generators", i, "d")


def push_poly(p: NcPoly, object_map: dict, gen_images: dict, ring: Ring) -> NcPoly:
    """Substitute objects and generators through maps, multiplying out words.

    A word's image is the product of its letters' images, with compose's
    ring and boundary checks between neighbours and add_in_place's against
    the result.  A single-term image is spliced into every partial word;
    only a longer one is multiplied out through accumulate, as compose does.
    """
    out = NcPoly.zero(ring, object_map[p.source], object_map[p.target])
    mul = ring.mul
    for word, coeff in p.terms.items():
        if isinstance(word, str):
            out.add_in_place(NcPoly.identity(ring, object_map[word]), coeff)
            continue
        first = left = gen_images[word[0].name]
        partial = first.terms.items()
        for g in word[1:]:
            img = gen_images[g.name]
            if img.ring is not first.ring and img.ring != first.ring:
                raise ValueError("mixed coefficient rings")
            if img.target != left.source:
                raise CompositionError(
                    f"cannot compose: left factor starts at {left.source}, "
                    f"right factor ends at {img.target}")
            if len(img.terms) == 1:
                [(w, c)] = img.terms.items()
                partial = [(_concat(pw, w), mul(pc, c)) for pw, pc in partial]
            else:
                partial = accumulate(ring, {}, (
                    (_concat(pw, w), mul(pc, c)) for pw, pc in partial
                    for w, c in img.terms.items())).items()
            left = img
        if first.ring is not ring and first.ring != ring:
            raise ValueError("mixed coefficient rings")
        if left.source != out.source or first.target != out.target:
            raise CompositionError(
                f"boundary mismatch: {out.source}->{out.target} vs "
                f"{left.source}->{first.target}")
        coeff = ring.normalize(coeff)
        if coeff:
            accumulate(ring, out.terms,
                       ((w, mul(coeff, c)) for w, c in partial))
    return out


# ---------------------------------------------------------------------------
# dg functors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DgFunctor:
    """Object map plus generator -> NcPoly map into the target category."""

    source: object
    target: object
    object_map: dict
    generator_map: dict  # name -> NcPoly in target

    def apply(self, p: NcPoly) -> NcPoly:
        """Push a source polynomial through the functor."""
        out = push_poly(p, self.object_map, self.generator_map, self.target.ring)
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
        deg = f.target.normalize(img).degree()
        if deg is not None and deg != g.degree:
            raise DegreeError(
                f"F({g.name}) has degree {deg}, expected {g.degree}")
        lhs = f.apply(f.source.differentials[g.name])
        rhs = f.target.normalize(f.target.d(img))
        residual = f.target.normalize(lhs - rhs)
        if not residual.is_zero():
            raise FunctorError(
                f"F(d{g.name}) - d(F({g.name})) = {render_poly(residual)}",
                residual)
        checked.append(g.name)
    return {"generators_checked": checked, "valid": True}


def keep_generators(cat: SemifreeDgCat, gens, **changes) -> SemifreeDgCat:
    """cat cut down to gens: their differentials, and the rules (with their
    weights) whose lhs letters all survive.

    The result is built by dataclasses.replace with changes, so the class
    rejects a kept differential or rule rhs that uses a dropped generator.
    """
    names = {g.name for g in gens}
    rules = tuple((lhs, rhs) for lhs, rhs in cat.rules
                  if all(g.name in names for g in lhs))
    weights = {n: w for n, w in cat.weights.items() if n in names}
    return replace(cat, generators=tuple(gens),
                   differentials={g.name: cat.differentials[g.name]
                                  for g in gens},
                   rules=rules, weights=weights, **changes)


# ---------------------------------------------------------------------------
# hom-space enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HomBasisSlice:
    source: str
    target: str
    window: tuple
    length_bound: int
    words_by_degree: dict  # degree -> rank-coded words, by length, ranks


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

    A word is coded as the tuple of its generators' ranks in written order
    (the class keeps ranks distinct), and the identity of source as ().
    Each degree's words are listed by length, then by rank tuple.  With
    rewrite rules only rule-irreducible words are listed.  A partial word
    is grown only while some extension of it within the bound can still
    end at target with degree in the window, so the result is the same as
    growing every word and filtering at the end.

    Words grow on the left, one length at a time, generator by generator
    in rank order.  Each length's words are kept in one list per left end
    object and degree, in rank-tuple order, so (g.rank,) + word comes out
    in order without a sort, and the window test runs once per list.
    """
    lo, hi = window
    for role, obj in (("source", source), ("target", target)):
        if obj not in cat.objects:
            known = ", ".join(map(str, cat.objects))
            raise BadArgument(role, f"hom {role} {obj!r} is not an object "
                                    f"of the category (objects: {known})")
    if lo > hi:
        raise BadArgument("window", f"hom window {lo}:{hi} is empty (lo > hi)")
    if length_bound < 0:
        raise BadArgument("bound",
                          f"hom length bound {length_bound} is negative")
    # Every grown word is irreducible, so a rule lhs can occur in (r,)+word
    # only as a prefix: r starts the lhs and word[:k] is the rest of it.
    # tails[r] lists (k, the rests of length k of the lhs that start at r).
    tails = {}
    for lhs in cat._index.first if cat.rules else ():
        tails.setdefault(lhs[0], {}).setdefault(len(lhs) - 1,
                                                set()).add(lhs[1:])
    tails = {r: sorted(rests.items()) for r, rests in tails.items()}
    reach = _reach_table(cat.generators, target, length_bound)
    by_degree = {}
    if lo <= 0 <= hi and source == target:
        by_degree[0] = [()]
    # left end object -> degree -> written-order words, in rank-tuple order
    paths = {source: {0: [()]}}
    for length in range(1, length_bound + 1):
        ahead = reach[length_bound - length]
        grow = length < length_bound  # nothing extends the longest words
        grown = {}
        for g in cat.generators:
            live = paths.get(g.source)
            rest = ahead.get(g.target)
            if not live or rest is None:
                continue
            r, g_deg = g.rank, g.degree
            # deg + g_deg + rest[0] <= hi and deg + g_deg + rest[1] >= lo:
            # some extension can still land in the window
            top, bottom = hi - rest[0] - g_deg, lo - rest[1] - g_deg
            rests = tails.get(r, ())
            for deg, words in live.items():
                if not bottom <= deg <= top:
                    continue
                for k, ws in rests:  # one pass per lhs length
                    words = [w for w in words if w[:k] not in ws]
                if not words:  # the rules rewrite them all
                    continue
                words = [(r,) + w for w in words]
                deg += g_deg
                if grow:
                    grown.setdefault(g.target, {}).setdefault(
                        deg, []).extend(words)
                if g.target == target and lo <= deg <= hi:
                    # lengths come in order, so each degree's list stays
                    # ordered by length, then ranks
                    by_degree.setdefault(deg, []).extend(words)
        paths = grown
    return HomBasisSlice(source, target, (lo, hi), length_bound, by_degree)


# The hom complex is assembled, and rules are applied, on the coded words
# of hom_slice: a word is the tuple of its generators' ranks, and an
# identity is ().

_rank = attrgetter("rank")


def _code(word) -> tuple:
    return () if isinstance(word, str) else tuple(map(_rank, word))


def _d_table(cat) -> dict:
    """rank -> (degree parity, +d terms, -d terms) of each generator: the
    parity is 1 for an odd degree and 0 for an even one, the +d terms are
    the (coded word, value) pairs of d(generator), and the -d terms the
    same words with negated values.  Splicing d into a word by the graded
    Leibniz rule takes the -d terms of a letter after an odd number of odd
    letters, so the parity is all of the degree it needs.

    The class checks that every d term composes along its generator's
    boundary.  Put in place of its generator in a composable word, such a
    term gives a composable word with the same boundary, so the spliced
    words of analysis._d_columns and rewrite.audit_rules need no check
    of their own.
    """
    ring = cat.ring
    table = {}
    for g in cat.generators:
        terms = [(_code(w), c)
                 for w, c in cat.differentials[g.name].terms.items()]
        table[g.rank] = (g.degree % 2, terms,
                         [(t, ring.neg(c)) for t, c in terms])
    return table


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


class InputError(ValueError):
    """A document breaks a rule of its schema: message says which, and path
    is the JSON path of the part that breaks it ("document" for the whole
    document).  Its text is "path: message"."""

    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
        super().__init__(f"{path}: {message}")

    def within(self, where: str) -> "InputError":
        """The same error in a document that sits at the JSON path where."""
        path = where if self.path == "document" else f"{where}.{self.path}"
        return InputError(path, self.message)


_GENERATOR_FIELDS = {"name": str, "src": str, "tgt": str, "deg": int,
                     "rank": int, "d": str}
_EXPECTED = {str: "a string", int: "an integer", list: "a list",
             dict: "an object", bool: "true or false",
             (str, dict): "a string or an object"}
_REQUIRED = object()  # the default of a field that must be given


def _known(names, known, what: str, where: str):
    """names, when each is a string in known; otherwise an InputError at
    where, the JSON path or option that gave them, such as "no arrow 'e9'"
    for what "arrow", or at where[i] for an entry that is not a string."""
    for i, name in enumerate(names):
        if not isinstance(name, str):
            raise InputError(f"{where}[{i}]", f"expected a string, got {name!r}")
        if name not in known:
            raise InputError(where, f"no {what} {name!r}")
    return names


def _field(obj: dict, key: str, kind, where: str, default=_REQUIRED):
    """obj[key], where obj sits at the JSON path where ("" for the
    document), or default when obj lacks key and a default is given.

    A missing key without a default, or a value not of kind (a type, or a
    tuple of types; a bool is not an integer), is an InputError at that
    path.
    """
    if key not in obj:
        if default is _REQUIRED:
            raise InputError(where or "document", f"missing {key!r}")
        return default
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise InputError(f"{where}.{key}" if where else key,
                         f"expected {_EXPECTED[kind]}, got {value!r}")
    return value


def _entries(obj: dict, key: str, kind, where: str, default=_REQUIRED):
    """_field(obj, key, list, where, default), each of whose entries is of
    kind: one that is not is an InputError at key[i]."""
    values = _field(obj, key, list, where, default)
    for i, value in enumerate(values):
        if not isinstance(value, kind) or isinstance(value, bool):
            path = f"{where}.{key}" if where else key
            raise InputError(f"{path}[{i}]", f"expected {_EXPECTED[kind]}, "
                                             f"got {value!r}")
    return values


def from_json(data: dict):
    if not isinstance(data, dict):
        raise InputError("document", f"expected an object, got "
                                     f"{type(data).__name__}")
    coefficients = _field(data, "coefficients", str, "")
    try:
        ring = Ring.parse(coefficients)
    except ValueError as err:
        raise InputError("coefficients", str(err)) from None
    objects = tuple(_entries(data, "objects", str, ""))
    specs = _entries(data, "generators", dict, "")
    for i, spec in enumerate(specs):
        for key, kind in _GENERATOR_FIELDS.items():
            if type(spec.get(key)) is not kind:  # JSON gives exact types
                _field(spec, key, kind, f"generators[{i}]")
    gens = tuple(Generator(g["name"], g["src"], g["tgt"], g["deg"], g["rank"])
                 for g in specs)
    gm = {g.name: g for g in gens}
    table = {}
    try:
        for i, (spec, g) in enumerate(zip(specs, gens)):
            table[g.name] = parse_poly(spec["d"], ring, g.source, g.target,
                                       gm.get)
    except ValueError as err:
        raise InputError(f"generators[{i}].d", str(err)) from None
    provenance = _field(data, "provenance", list, "", [])
    # the entries localization_records and strictify_t read; a later move
    # may have removed the generators they name
    for i, entry in enumerate(provenance):
        if isinstance(entry, dict) and entry.get("op") in ("localize",
                                                           "hocolim"):
            at = f"provenance[{i}]"
            for j, cluster in enumerate(_entries(entry, "clusters", list, at)):
                if len(cluster) != 5 or not all(isinstance(name, str)
                                                for name in cluster):
                    raise InputError(f"{at}.clusters[{j}]", f"expected 5 "
                                     f"generator names, got {cluster!r}")
            if entry["op"] == "hocolim":
                for key in ("t_objects", "t_gens"):
                    names = _field(entry, key, dict, at)
                    for name in names:
                        _field(names, name, str, f"{at}.{key}")
    weights = _field(data, "weights", dict, "", {})
    rules = []
    for i, r in enumerate(_entries(data, "rules", dict, "", [])):
        at = f"rules[{i}]"
        lhs = tuple(map(gm.get, _known(_field(r, "lhs", list, at), gm,
                                       "generator", f"{at}.lhs")))
        text = _field(r, "rhs", str, at)
        # an empty lhs has no boundary; the class raises RuleError
        try:
            rhs = (parse_poly(text, ring, lhs[-1].source, lhs[0].target,
                              gm.get) if lhs else None)
        except ValueError as err:
            raise InputError(f"{at}.rhs", str(err)) from None
        rules.append((lhs, rhs))
    try:
        cat = SemifreeDgCat(ring, objects, gens, table, tuple(provenance),
                            tuple(rules), dict(weights))
        audit_d_squared(cat)
    except ValueError as err:  # a check or the audit, at its part
        raise InputError(_json_path(err), str(err)) from err
    return cat
