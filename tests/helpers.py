"""Helpers shared by the test modules, including small constructions that
only tests use."""

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path

from hypothesis import strategies as st

from semifree.algebra import (
    CompositionError,
    NcPoly,
    _checked,
    accumulate,
    render_poly,
    render_word,
    word_names,
)
from semifree.analysis import change_coefficients, truncated_cohomology
from semifree.constructions import (
    PushoutSpan,
    hocolim,
    localization_records,
    twisted_derivation,
)
from semifree.dgcat import (
    DgFunctor,
    FunctorError,
    SemifreeDgCat,
    keep_generators,
    push_poly,
    validate_functor,
)
from semifree.plumbing import GradedArrow, GradedQuiver
from semifree.reduce import _partner, strictify_t
from semifree.rewrite import RuleError, RuleIndex

DATA = Path(__file__).resolve().parent / "data"


def identity_functor(cat) -> DgFunctor:
    gm = {g.name: NcPoly.gen(cat.ring, g) for g in cat.generators}
    return DgFunctor(cat, cat, {o: o for o in cat.objects}, gm)


def compose_functors(f: DgFunctor, g: DgFunctor) -> DgFunctor:
    """f o g; generator images expand through g then f."""
    if g.target is not f.source and g.target != f.source:
        raise FunctorError("compose_functors: middle categories differ")
    object_map = {o: f.object_map[g.object_map[o]] for o in g.source.objects}
    gen_map = {name: f.apply(img) for name, img in g.generator_map.items()}
    return DgFunctor(g.source, f.target, object_map, gen_map)


def key_view(p: NcPoly) -> dict:
    """p's terms keyed by generator-name sequences, for equality across
    categories."""
    return {word_names(w): c for w, c in p.terms.items()}


def restrict_to_objects(cat: SemifreeDgCat, objects) -> SemifreeDgCat:
    """Subcategory on the generators whose boundaries stay in `objects`."""
    keep = set(objects)
    gens = tuple(g for g in cat.generators
                 if g.source in keep and g.target in keep)
    return keep_generators(cat, gens, objects=tuple(sorted(keep)),
                           provenance=cat.provenance + (
                               {"op": "restrict", "objects": sorted(keep)},))


def restrict_functor(f: DgFunctor, objects) -> DgFunctor:
    sub = restrict_to_objects(f.source, objects)
    return DgFunctor(sub, f.target,
                     {o: f.object_map[o] for o in sub.objects},
                     {g.name: f.generator_map[g.name] for g in sub.generators})


# ---------------------------------------------------------------------------
# induced functor between the homotopy colimits of a commuting ladder
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanLadder:
    top: PushoutSpan
    bottom: PushoutSpan
    f_a: DgFunctor
    f_c: DgFunctor
    f_b: DgFunctor


def _functors_agree(f: DgFunctor, g: DgFunctor) -> bool:
    if f.source.objects != g.source.objects:
        return False
    for obj in f.source.objects:
        if f.object_map[obj] != g.object_map[obj]:
            return False
    for gen in f.source.generators:
        lhs = f.target.normalize(f.generator_map[gen.name])
        rhs = g.target.normalize(g.generator_map[gen.name])
        if (key_view(lhs) != key_view(rhs) or lhs.source != rhs.source
                or lhs.target != rhs.target):
            return False
    return True


def _glued_parts(span: PushoutSpan, h):
    """What h = hocolim(span) glued in, read back from h: b's object map and
    generator images, beta's leg through them and the hocolim provenance
    entry.  b's objects and generators follow a's in h, in b's order."""
    entry = h.provenance[-1]
    if entry.get("op") != "hocolim":
        raise ValueError("hocolim_functor needs both spans in general position "
                         "(no semifree-extension leg)")
    ring = h.ring
    b_objects = dict(zip(span.b.objects, h.objects[len(span.a.objects):]))
    b_images = {g.name: NcPoly.gen(ring, ng) for g, ng in zip(
        span.b.generators, h.generators[len(span.a.generators):])}
    beta_leg = ({x: b_objects[span.beta.object_map[x]]
                 for x in entry["t_objects"]},
                {name: push_poly(span.beta.generator_map[name], b_objects,
                                 b_images, ring) for name in entry["t_gens"]})
    return b_objects, b_images, beta_leg, entry


def hocolim_functor(ladder: SpanLadder):
    """Induced functor between homotopy colimits of a commuting ladder.

    Restriction to the outer categories is the given vertical pair; t_X goes
    to t_{F(X)} and t_f to the twisted derivation applied to F(f).
    """
    top, bottom = ladder.top, ladder.bottom
    if not _functors_agree(compose_functors(ladder.f_a, top.alpha),
                           compose_functors(bottom.alpha, ladder.f_c)):
        raise ValueError("ladder does not commute on the alpha legs")
    if not _functors_agree(compose_functors(ladder.f_b, top.beta),
                           compose_functors(bottom.beta, ladder.f_c)):
        raise ValueError("ladder does not commute on the beta legs")
    h1, h2 = hocolim(top), hocolim(bottom)
    b_objects1, _, _, entry1 = _glued_parts(top, h1)
    b_objects2, b_images2, beta_leg2, entry2 = _glued_parts(bottom, h2)
    ring = h2.ring

    object_map = {obj: ladder.f_a.object_map[obj] for obj in top.a.objects}
    for obj in top.b.objects:
        object_map[b_objects1[obj]] = b_objects2[ladder.f_b.object_map[obj]]

    gen_map = {g.name: ladder.f_a.generator_map[g.name]
               for g in top.a.generators}
    for g, ng in zip(top.b.generators,
                     h1.generators[len(top.a.generators):]):
        gen_map[ng.name] = push_poly(ladder.f_b.generator_map[g.name],
                                     b_objects2, b_images2, ring)
    records2 = {r.inverted: r for r in localization_records(h2)}
    records1 = {r.inverted: r for r in localization_records(h1)}
    for x, t1 in entry1["t_objects"].items():
        t2 = entry2["t_objects"][ladder.f_c.object_map[x]]
        gen_map[t1] = NcPoly.gen(ring, h2.gen(t2))
        for n1, n2 in zip(records1[t1].names(), records2[t2].names()):
            gen_map[n1] = NcPoly.gen(ring, h2.gen(n2))
    alpha_leg2 = (bottom.alpha.object_map, bottom.alpha.generator_map)
    t_gen2 = {name: h2.gen(t) for name, t in entry2["t_gens"].items()}
    for name, t1 in entry1["t_gens"].items():
        gen_map[t1] = twisted_derivation(ladder.f_c.generator_map[name],
                                         alpha_leg2, beta_leg2, t_gen2, ring)

    functor = DgFunctor(h1, h2, object_map, gen_map)
    validate_functor(functor)
    return functor


@dataclass(frozen=True)
class ReductionStep:
    kind: str
    params: dict
    before: int
    after: int


def steps_from_provenance(cat):
    """ReductionStep records for the reduction entries in the provenance."""
    kinds = {"change_basis": "BasisChange", "cancel_pair": "CancelPair",
             "set_generator": "SetToConstant", "strictify": "IdentifyObjects"}
    out = []
    for e in cat.provenance:
        if isinstance(e, dict) and e.get("op") in kinds:
            params = {k: v for k, v in e.items()
                      if k not in ("op", "before", "after")}
            out.append(ReductionStep(kinds[e["op"]], params,
                                     e.get("before", -1), e.get("after", -1)))
    return out


def strictify_map(cat):
    """strictify_t(cat), with the object map and the generator images it
    substituted, read back from the provenance of cat and of the result."""
    strict = strictify_t(cat)
    entry = [e for e in cat.provenance
             if isinstance(e, dict) and e.get("op") == "hocolim"][-1]
    step = strict.provenance[-1]
    rep = {o: step["merged"].get(o, o) for o in cat.objects}
    t_names = set(entry["t_objects"].values())
    clusters = {c[0]: c[1:] for c in entry["clusters"]}
    units = t_names | {clusters[t][0] for t in t_names}
    zeros = {name for t in t_names for name in clusters[t][1:]}
    ring, survivors = cat.ring, strict.gen_map()
    images = {}
    for g in cat.generators:
        if g.name in units:
            images[g.name] = NcPoly.identity(ring, rep[g.source])
        elif g.name in zeros:
            images[g.name] = NcPoly.zero(ring, rep[g.source], rep[g.target])
        else:
            name = step["renamed"].get(g.name, g.name)
            images[g.name] = NcPoly.gen(ring, survivors[name])
    return strict, rep, images


def cancellable_pairs(cat):
    """Deterministic list of (a, b) currently eligible for cancel_pair."""
    out = []
    used = set()
    for a in cat.generators:
        b = _partner(cat.differentials[a.name], cat.ring)
        if b is not None and a.name not in used and b.name not in used:
            out.append((a.name, b.name))
            used.update((a.name, b.name))
    return out


def random_graded_quiver(rng, max_vertices=5, max_arrows=8, q_range=(-3, 3)):
    n_vertices = rng.randint(1, max_vertices)
    vids = tuple(f"v{i}" for i in range(n_vertices))
    arrows = tuple(
        GradedArrow(f"e{i}", rng.choice(vids), rng.choice(vids),
                    rng.randint(q_range[0], q_range[1]))
        for i in range(rng.randint(0, max_arrows)))
    return GradedQuiver(vids, arrows)


@dataclass(frozen=True)
class EndomorphismAlgebra:
    idempotents: tuple   # (object, idempotent name)
    generators: tuple    # (name, src idempotent, tgt idempotent, degree, d)
    relations: tuple     # rendered orthogonality relations


def total_endomorphism_algebra(cat) -> EndomorphismAlgebra:
    """Endomorphism algebra of the sum of all objects: the generators tagged
    by source/target idempotents, plus the orthogonality relations."""
    idempotents = tuple((obj, f"e_{obj}") for obj in cat.objects)
    gens = tuple(
        (g.name, f"e_{g.source}", f"e_{g.target}", g.degree,
         render_poly(cat.differentials[g.name]))
        for g in cat.generators)
    relations = []
    for obj, e in idempotents:
        for obj2, e2 in idempotents:
            if obj == obj2:
                relations.append(f"{e}*{e} = {e}")
            else:
                relations.append(f"{e}*{e2} = 0")
    for name, src, tgt, _, _ in gens:
        relations.append(f"{tgt}*{name} = {name} = {name}*{src}")
    return EndomorphismAlgebra(idempotents, gens, tuple(relations))


# ---------------------------------------------------------------------------
# oracle: values into a ring, as analysis._converter mapped them through the
# former Ring.normalize before Ring.normalize became the one map
# ---------------------------------------------------------------------------

def converted(ring, value):
    """value in ring: a Fraction into Zmod through its denominator's
    inverse, any other value as the former Ring.normalize took it."""
    if ring.kind == "Zmod" and isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
        if gcd(den, ring.modulus) != 1:
            raise ValueError(f"denominator {den} not invertible mod "
                             f"{ring.modulus}")
        return num * pow(den, -1, ring.modulus) % ring.modulus
    if isinstance(value, float):
        raise TypeError("floating-point coefficients are not allowed")
    if ring.kind == "Z":
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(f"{value} is not an integer")
            value = value.numerator
        return int(value)
    if ring.kind == "Q":
        if isinstance(value, int):
            return int(value)
        value = Fraction(value)
        return value.numerator if value.denominator == 1 else value
    return int(value) % ring.modulus


# ---------------------------------------------------------------------------
# oracle: rewriting on words of Generators, as semifree.rewrite did before
# it worked on rank-coded words
# ---------------------------------------------------------------------------

class GeneratorRuleIndex:
    """Rule left-hand sides keyed by their tuple of Generators, which
    compare by value.  A duplicate lhs keeps its first rule index."""

    def __init__(self, rules):
        self.rules = tuple(rules)
        self.first = {}
        for idx, (lhs, _) in enumerate(self.rules):
            self.first.setdefault(tuple(lhs), idx)
        self.lengths = sorted({len(lhs) for lhs, _ in self.rules})


def generator_match(index: GeneratorRuleIndex, word):
    """First (position, rule index) whose lhs occurs in word, or None."""
    if isinstance(word, str):
        return None
    n = len(word)
    for i in range(n):
        best = None
        for k in index.lengths:
            if i + k > n:
                break
            idx = index.first.get(word[i:i + k])
            if idx is not None and (best is None or idx < best):
                best = idx
        if best is not None:
            return i, best
    return None


def generator_normalize(index: GeneratorRuleIndex, p: NcPoly) -> NcPoly:
    """Every word of p rewritten to normal form: each rhs term of the
    matched rule is spliced into the word in place of the lhs (an identity
    term joins the two sides), and the zero products are dropped."""
    ring = p.ring
    normal = []
    pending = list(p.terms.items())
    while pending:
        word, coeff = pending.pop()
        hit = generator_match(index, word)
        if hit is None:
            normal.append((word, coeff))
            continue
        i, idx = hit
        lhs, rhs = index.rules[idx]
        if rhs.ring is not ring and rhs.ring != ring:
            raise ValueError("mixed coefficient rings")
        left = word[:i]
        right = word[i + len(lhs):]
        for w, c in rhs.terms.items():
            c = ring.mul(coeff, c)
            if c != 0:
                pending.append(((left + right or w) if isinstance(w, str)
                                else left + w + right, c))
    return NcPoly(ring, p.source, p.target, accumulate(ring, {}, normal))


def rule_index_by_passes(ring, generators, rules, weights) -> RuleIndex:
    """The RuleIndex of rules, or the first error, by the class's rule
    check as it ran before it walked each word once: every word composes,
    then every letter is a generator (by value), then each rhs term keeps
    the degree and lies below the lhs in the reduction order."""
    code = {g: g.rank for g in generators}
    index = RuleIndex(letters={g.rank: g for g in generators})
    for lhs, rhs in rules:
        if not lhs:
            raise RuleError("empty rule lhs")
        if rhs.ring is not ring and rhs.ring != ring:
            raise ValueError("mixed coefficient rings")
        if rhs.source != lhs[-1].source or rhs.target != lhs[0].target:
            raise RuleError(
                f"rule {render_word(lhs)} -> {render_poly(rhs)} changes boundary")
        try:
            _checked(lhs, lhs[-1].source, lhs[0].target)
            for w in rhs.terms:
                _checked(w, rhs.source, rhs.target)
        except CompositionError as err:
            raise RuleError(str(err)) from None
        try:
            ranks = tuple(map(code.__getitem__, lhs))
            terms = [(() if isinstance(w, str)
                      else tuple(map(code.__getitem__, w)), c)
                     for w, c in rhs.terms.items()]
        except KeyError as err:
            raise RuleError(
                f"rule {render_word(lhs)} -> {render_poly(rhs)} uses "
                f"{err.args[0].name}, which is not a generator of the "
                f"category") from None
        degree = sum(g.degree for g in lhs)
        weight = (sum(weights.get(g.name, 1) for g in lhs) if weights
                  else len(lhs))
        for w, (w_ranks, _) in zip(rhs.terms, terms):
            letters = w if w_ranks else ()  # an identity has none
            w_degree = sum(g.degree for g in letters)
            w_weight = (sum(weights.get(g.name, 1) for g in letters)
                        if weights else len(w_ranks))
            below = (w_weight < weight if w_weight != weight
                     else not w_ranks or len(w_ranks) == len(ranks)
                     and w_ranks < ranks)
            if w_degree != degree:
                raise RuleError(
                    f"rule {render_word(lhs)} -> {render_poly(rhs)} changes "
                    f"degree: lhs has degree {degree}, rhs term "
                    f"{render_word(w)} has degree {w_degree}")
            if not below:
                raise RuleError(
                    f"rule {render_word(lhs)} -> {render_poly(rhs)} does not "
                    f"decrease the reduction order at {render_word(w)}")
        index.add(ranks, terms, rhs.ring)
    return index


# ---------------------------------------------------------------------------
# oracle: confluence by following every reduction path
# ---------------------------------------------------------------------------

def every_normal_form(ring, rules, words) -> dict:
    """word -> the set of rendered normal forms that rules give it, for each
    of words (nonempty tuples of Generators).

    A word is rewritten by any rule at any place its lhs occurs, and each
    term of the result along any path of its own; every choice is followed,
    so terminating rules are confluent on these words iff each set has one
    element."""
    memo = {}

    def forms(word):  # frozensets of (word, value) items, () the identity
        if word not in memo:
            found = set()
            for lhs, rhs in rules:
                n = len(lhs)
                for i in range(len(word) - n + 1):
                    if word[i:i + n] != lhs:
                        continue
                    sums = {frozenset()}
                    for w, c in rhs.terms.items():
                        spliced = (word[:i] + (() if isinstance(w, str) else w)
                                   + word[i + n:])
                        sums = {_plus(ring, p, q, c) for p in sums
                                for q in forms(spliced)}
                    found |= sums
            memo[word] = found or {frozenset({(word, 1)})}
        return memo[word]

    out = {}
    for word in words:
        source, target = word[-1].source, word[0].target
        out[word] = {render_poly(NcPoly(ring, source, target,
                                        {w or source: c for w, c in form}))
                     for form in forms(tuple(word))}
    return out


def _plus(ring, p: frozenset, q: frozenset, c) -> frozenset:
    """p + c*q on (word, value) items."""
    return frozenset(accumulate(ring, dict(p), (
        (w, ring.mul(c, v)) for w, v in q)).items())


def composable_words(generators, length: int) -> list:
    """Every composable word of 1 to length letters over generators."""
    words = [(g,) for g in generators]
    for n in range(1, length):
        words += [w + (g,) for w in words if len(w) == n
                  for g in generators if g.target == w[-1].source]
    return words


def assert_confluent_by_search(cat, length: int) -> None:
    """Every composable word of at most length letters has one normal form
    along every reduction path of cat's rules, and it is cat.normalize's."""
    forms = every_normal_form(cat.ring, cat.rules,
                              composable_words(cat.generators, length))
    for word, found in forms.items():
        mine = render_poly(cat.normalize(NcPoly(
            cat.ring, word[-1].source, word[0].target, {word: 1})))
        assert found == {mine}, (render_word(word), found, mine)


def assert_rejection_by_search(ring, generators, rules, message: str) -> None:
    """message is a confluence RuleError's, and the word it names has both
    normal forms it names among those of every reduction path."""
    prefix = "rules are not confluent at "
    assert message.startswith(prefix), message
    word, _, forms = message[len(prefix):].partition(": ")
    left, right = forms.split(" vs ")
    by_name = {g.name: g for g in generators}
    word = tuple(by_name[name] for name in word.split("*"))
    found = every_normal_form(ring, rules, [word])[word]
    assert left != right and {left, right} <= found, (message, found)


def copy_based_cohomology(cat, source, target, window, bound, field):
    """The rank table of cat's hom over field, computed on the copy of cat
    that change_coefficients builds over field (which audits d^2 = 0 and
    the rules over field), as hom did before it mapped the coded tables."""
    return truncated_cohomology(change_coefficients(cat, field), source,
                                target, window, bound, field)


def decoded(cat, slice_) -> dict:
    """degree -> the slice's words as Generator tuples, in the slice's order,
    with the identity () as the source object's name."""
    by_rank = {g.rank: g for g in cat.generators}
    return {deg: [tuple(by_rank[r] for r in w) if w else slice_.source
                  for w in words]
            for deg, words in slice_.words_by_degree.items()}


def _with(name, change):
    doc = json.loads((DATA / name).read_text())
    change(doc)
    return doc


def _c3_with(change):
    return _with("c3.json", change)


def _a2_with(change):
    return _with("a2_n3.json", change)


# test id -> (malformed document, the ValueError message from_json gives);
# most are c3.json with one part changed
MALFORMED_DOCUMENTS = {
    "deg-string": (_c3_with(lambda d: d["generators"][0].update(deg="x")),
                   "generators[0].deg: expected an integer, got 'x'"),
    "deg-bool": (_c3_with(lambda d: d["generators"][0].update(deg=True)),
                 "generators[0].deg: expected an integer, got True"),
    "rank-string": (_c3_with(lambda d: d["generators"][0].update(rank="0")),
                    "generators[0].rank: expected an integer, got '0'"),
    "name-not-a-string": (
        _c3_with(lambda d: d["generators"][0].update(name=5)),
        "generators[0].name: expected a string, got 5"),
    "missing-d": (_c3_with(lambda d: d["generators"][0].pop("d")),
                  "generators[0]: missing 'd'"),
    "generator-not-an-object": (
        _c3_with(lambda d: d.update(generators=[5])),
        "generators[0]: expected an object, got 5"),
    "generators-not-a-list": (_c3_with(lambda d: d.update(generators=5)),
                              "generators: expected a list, got 5"),
    "missing-coefficients": ({"foo": 1}, "document: missing 'coefficients'"),
    "missing-generators": (_c3_with(lambda d: d.pop("generators")),
                           "document: missing 'generators'"),
    "objects-not-a-list": (_c3_with(lambda d: d.update(objects="L")),
                           "objects: expected a list, got 'L'"),
    "object-not-a-string": (_c3_with(lambda d: d.update(objects=[["L"]])),
                            "objects[0]: expected a string, got ['L']"),
    "coefficients-not-a-string": (
        _c3_with(lambda d: d.update(coefficients=7)),
        "coefficients: expected a string, got 7"),
    "document-not-an-object": ([1, 2],
                               "document: expected an object, got list"),
    "provenance-not-a-list": (_c3_with(lambda d: d.update(provenance=5)),
                              "provenance: expected a list, got 5"),
    "modulus-not-an-integer": (
        _c3_with(lambda d: d.update(coefficients="Zmod:x")),
        "coefficients: unknown ring 'Zmod:x': the modulus is not an integer"),
    "modulus-not-plain-digits": (
        _c3_with(lambda d: d.update(coefficients="Zmod:1_0007")),
        "coefficients: unknown ring 'Zmod:1_0007': write the modulus in "
        "plain digits, as Zmod:10007"),
    "weights-not-an-object": (_c3_with(lambda d: d.update(weights=5)),
                              "weights: expected an object, got 5"),
    "weights-a-list": (_c3_with(lambda d: d.update(weights=[1])),
                       "weights: expected an object, got [1]"),
    "weight-of-unknown-generator": (
        _c3_with(lambda d: d.update(weights={"x": "y"})),
        "weights: unknown generator 'x'"),
    "weight-not-an-integer": (
        _c3_with(lambda d: d.update(weights={"z": "y"})),
        "weights.z: expected an integer >= 0, got 'y'"),
    # the weights are the class's check, made whether or not there are rules
    "weight-negative": (_c3_with(lambda d: d.update(weights={"z": -1})),
                        "weights.z: expected an integer >= 0, got -1"),
    "weight-bool": (_c3_with(lambda d: d.update(weights={"z": True})),
                    "weights.z: expected an integer >= 0, got True"),
    # parse errors once carried no path
    "d-unknown-generator": (
        _c3_with(lambda d: d["generators"][0].update(d="q")),
        "generators[0].d: unknown generator 'q'"),
    "d-identity-off-its-object": (
        _c3_with(lambda d: d["generators"][0].update(d="1_{M}*z")),
        "generators[0].d: 1_{M} in term '1_{M}*z' stands at object L"),
    "rule-rhs-unknown-generator": (
        _c3_with(lambda d: d.update(rules=[{"lhs": ["z", "z", "z"],
                                            "rhs": "q"}])),
        "rules[0].rhs: unknown generator 'q'"),
    # Fraction("1/0") once escaped as a ZeroDivisionError
    "d-zero-denominator": (
        _c3_with(lambda d: (d.update(coefficients="Q"),
                            d["generators"][0].update(d="1/0*z"))),
        "generators[0].d: zero denominator in '1/0'"),
    "rule-rhs-zero-denominator": (
        _c3_with(lambda d: d.update(coefficients="Q",
                                    rules=[{"lhs": ["z", "z", "z"],
                                            "rhs": "2/0*z*z*z"}])),
        "rules[0].rhs: zero denominator in '2/0'"),
    # the category's structural checks once carried no path
    "duplicate-object": (
        _with("d12_n3.json", lambda d: d["objects"].append("L1")),
        "objects: duplicate object ids"),
    "duplicate-generator-name": (
        _with("d12_n3.json", lambda d: d["generators"][1].update(name="x")),
        "generators[1]: duplicate generator names"),
    "duplicate-rank": (
        _with("d12_n3.json", lambda d: d["generators"][1].update(rank=0)),
        "generators[1]: duplicate ordinal ranks"),
    "ranks-out-of-order": (
        _with("d12_n3.json", lambda d: d["generators"][0].update(rank=5)),
        "generators[1]: generators must be listed in rank order"),
    "undeclared-object": (
        _with("d12_n3.json", lambda d: d["generators"][1].update(tgt="M")),
        "generators[1]: generator y references undeclared objects"),
    "d-of-the-wrong-degree": (
        _with("m11.json", lambda d: d["generators"][4].update(deg=5)),
        "generators[4].d: d(gamma1) has degree 0, expected 6"),
    # the check errors are ValueErrors at the d they break: parsing's
    # CompositionError, the class's DegreeError (above) and OrdinalViolation
    "d-does-not-compose": (
        _with("d12_n3.json", lambda d: d["generators"][1].update(d="x*x")),
        "generators[1].d: non-composable factors x o x: x starts at L1 but "
        "x ends at L2"),
    "d-uses-a-later-generator": (
        _c3_with(lambda d: (d["generators"][0].update(d="w"),
                            d["generators"].append({
                                "name": "w", "src": "L", "tgt": "L",
                                "deg": -1, "rank": 1, "d": "0"}))),
        "generators[0].d: d(z) uses w of rank 1 >= rank 0"),
    "d-inhomogeneous": (
        _with("m11.json", lambda d: d["generators"][2].update(deg=2 ** 70)),
        "generators[4].d: inhomogeneous polynomial with degrees "
        "[0, 1180591620717411303424]"),
}


# a rule whose lhs b*a does not compose: a, b and c all run X -> Y; with
# the class's RuleError text, which from_json gives at rules[0]
NON_COMPOSABLE_RULE = (
    {"coefficients": "Z", "objects": ["X", "Y"],
     "generators": [{"name": name, "src": "X", "tgt": "Y", "deg": 0,
                     "rank": rank, "d": "0"}
                    for rank, name in enumerate("abc")],
     "rules": [{"lhs": ["b", "a"], "rhs": "0"}]},
    "non-composable factors b o a: b starts at X but a ends at Y")


# y*y -> x*y: y*y*y reduces to x*y*y -> x*x*y, and to y*x*y, which is
# irreducible; unchecked, hom --window=0:0 --bound 3 counted 11 words where
# the quotient has 10 of at most 3 letters; with the class's RuleError
# text, which from_json gives at rules
NOT_CONFLUENT = (
    {"coefficients": "Z", "objects": ["L"],
     "generators": [{"name": name, "src": "L", "tgt": "L", "deg": 0,
                     "rank": rank, "d": "0"}
                    for rank, name in enumerate("xy")],
     "rules": [{"lhs": ["y", "y"], "rhs": "x*y"}]},
    "rules are not confluent at y*y*y: x*x*y vs y*x*y")


# test id -> (malformed plumbing document, the ValueError message
# plumbing_from_json gives); all but one are a2_n3.json with one part changed
MALFORMED_PLUMBINGS = {
    "gauge-float": (_a2_with(lambda d: d["arrows"][0].update(d=2.5)),
                    "arrows[0].d: expected an integer, got 2.5"),
    "gauge-bool": (_a2_with(lambda d: d["arrows"][0].update(d=True)),
                   "arrows[0].d: expected an integer, got True"),
    "sign-string": (_a2_with(lambda d: d["arrows"][0].update(sign="1")),
                    "arrows[0].sign: expected 1 or -1, got '1'"),
    "sign-two": (_a2_with(lambda d: d["arrows"][0].update(sign=2)),
                 "arrows[0].sign: expected 1 or -1, got 2"),
    "sign-bool": (_a2_with(lambda d: d["arrows"][0].update(sign=True)),
                  "arrows[0].sign: expected 1 or -1, got True"),
    "missing-vertices": (_a2_with(lambda d: d.pop("vertices")),
                         "document: missing 'vertices'"),
    "missing-arrows": (_a2_with(lambda d: d.pop("arrows")),
                       "document: missing 'arrows'"),
    "arrow-not-an-object": (_a2_with(lambda d: d.update(arrows=[5])),
                            "arrows[0]: expected an object, got 5"),
    "arrow-without-src": (_a2_with(lambda d: d["arrows"][0].pop("src")),
                          "arrows[0]: missing 'src'"),
    "vertex-id-not-a-string": (
        _a2_with(lambda d: d["vertices"][0].update(id=1)),
        "vertices[0].id: expected a string, got 1"),
    "unknown-manifold": (
        _a2_with(lambda d: d["vertices"][0]["manifold"].update(type="torus")),
        "vertices[0].manifold.type: unknown manifold type 'torus'"),
    "genus-float": (
        _a2_with(lambda d: d["vertices"][0].update(
            manifold={"type": "surface", "genus": 1.5})),
        "vertices[0].manifold.genus: expected an integer, got 1.5"),
    "custom-without-generators": (
        _a2_with(lambda d: d["vertices"][0].update(
            manifold={"type": "custom"})),
        "vertices[0].manifold: missing 'generators'"),
    "coefficients-not-a-string": (
        _a2_with(lambda d: d.update(coefficients=7)),
        "coefficients: expected a string, got 7"),
    "document-not-an-object": ([1, 2],
                               "document: expected an object, got list"),
    # the checks of PlumbingData and of a custom vertex, at their paths
    "n-one": (_a2_with(lambda d: d.update(n=1)),
              "n: plumbing dimension n must be >= 2"),
    "duplicate-vertex-ids": (
        _a2_with(lambda d: d["vertices"][1].update(id="v")),
        "vertices[1].id: duplicate vertex ids"),
    "duplicate-arrow-ids": (
        _a2_with(lambda d: d["arrows"].append(dict(d["arrows"][0]))),
        "arrows[1].id: duplicate arrow ids"),
    "arrow-to-unknown-vertex": (
        _a2_with(lambda d: d["arrows"][0].update(tgt="v9")),
        "arrows[0].tgt: arrow e references unknown vertex 'v9'"),
    "genus-negative": (
        _a2_with(lambda d: d["vertices"][0].update(
            manifold={"type": "surface", "genus": -1})),
        "vertices[0].manifold.genus: surface genus must be >= 0"),
    "surface-label-in-n3": (
        _a2_with(lambda d: d["vertices"][1].update(
            manifold={"type": "surface", "genus": 1})),
        "vertices[1].manifold.genus: vertex w: surface labels need n = 2"),
    "custom-eta-unknown-generator": (
        _a2_with(lambda d: d["vertices"][0].update(manifold={
            "type": "custom", "generators": [{"name": "c", "deg": -1}],
            "eta": "q"})),
        "vertices[0].manifold.eta: unknown generator 'q'"),
    "custom-eta-degree": (
        _a2_with(lambda d: d["vertices"][0].update(manifold={
            "type": "custom", "generators": [{"name": "c", "deg": -1}],
            "eta": "c*c"})),
        "vertices[0].manifold.eta: custom eta has degree -2, expected -1"),
    "custom-duplicate-generator": (
        _a2_with(lambda d: d["vertices"][0].update(manifold={
            "type": "custom", "generators": [{"name": "c", "deg": -1},
                                             {"name": "c", "deg": 0}],
            "eta": "c"})),
        "vertices[0].manifold.generators[1]: duplicate generator names"),
    "custom-d-degree": (
        _a2_with(lambda d: d["vertices"][0].update(manifold={
            "type": "custom", "generators": [{"name": "c", "deg": -1}],
            "differentials": {"c": "c"}, "eta": "c"})),
        "vertices[0].manifold.differentials.c: d(c) has degree -1, "
        "expected 0"),
    "custom-d-squared": (
        _a2_with(lambda d: d["vertices"][0].update(manifold={
            "type": "custom",
            "generators": [{"name": "a", "deg": 0}, {"name": "b", "deg": -1},
                           {"name": "c", "deg": -3}],
            "differentials": {"b": "a", "c": "b*b"}, "eta": "0"})),
        "vertices[0].manifold.differentials.c: d^2 != 0 at c: residual "
        "a*b - b*a"),
    "custom-d-of-unknown-generator": (
        _a2_with(lambda d: d["vertices"][0].update(manifold={
            "type": "custom", "generators": [{"name": "c", "deg": -1}],
            "differentials": {"zz": "c*c*c"}, "eta": "c"})),
        "vertices[0].manifold.differentials.zz: unknown generator 'zz'"),
}


def _quiver_with(change):
    return _with("loop_quiver.json", change)


# test id -> (malformed quiver document, the ValueError message
# quiver_from_json gives); all but one are loop_quiver.json with one part
# changed
MALFORMED_QUIVERS = {
    "missing-vertices": (_quiver_with(lambda d: d.pop("vertices")),
                         "document: missing 'vertices'"),
    "missing-arrows": (_quiver_with(lambda d: d.pop("arrows")),
                       "document: missing 'arrows'"),
    "q-float": (_quiver_with(lambda d: d["arrows"][0].update(q=1.5)),
                "arrows[0].q: expected an integer, got 1.5"),
    "q-bool": (_quiver_with(lambda d: d["arrows"][0].update(q=True)),
               "arrows[0].q: expected an integer, got True"),
    "q-string": (_quiver_with(lambda d: d["arrows"][0].update(q="1")),
                 "arrows[0].q: expected an integer, got '1'"),
    "arrow-not-an-object": (_quiver_with(lambda d: d.update(arrows=[5])),
                            "arrows[0]: expected an object, got 5"),
    "arrow-without-id": (_quiver_with(lambda d: d["arrows"][0].pop("id")),
                         "arrows[0]: missing 'id'"),
    "src-not-a-string": (_quiver_with(lambda d: d["arrows"][0].update(src=1)),
                         "arrows[0].src: expected a string, got 1"),
    "unknown-tgt-vertex": (
        _quiver_with(lambda d: d["arrows"][1].update(tgt="x")),
        "arrows[1].tgt: unknown vertex 'x'"),
    "vertices-not-a-list": (_quiver_with(lambda d: d.update(vertices="vw")),
                            "vertices: expected a list, got 'vw'"),
    "vertex-not-a-string": (
        _quiver_with(lambda d: d["vertices"].__setitem__(0, 5)),
        "vertices[0]: expected a string or an object, got 5"),
    "vertex-object-without-id": (
        _quiver_with(lambda d: d["vertices"].__setitem__(0, {"name": "v"})),
        "vertices[0]: missing 'id'"),
    # ginzburg once failed on these with "boundary mismatch: v->v vs w->w"
    # and "duplicate object ids"
    "duplicate-arrow-ids": (
        _quiver_with(lambda d: d["arrows"][1].update(id="e1")),
        "arrows[1].id: duplicate arrow id 'e1'"),
    "duplicate-vertex-ids": (
        _quiver_with(lambda d: d["vertices"].append("v")),
        "vertices[2]: duplicate vertex id 'v'"),
    "document-not-an-object": ([1, 2],
                               "document: expected an object, got list"),
}


# ---------------------------------------------------------------------------
# loader fuzzing: documents with one or two parts changed
# ---------------------------------------------------------------------------

def _documents(kind):
    """The JSON objects in tests/data that kind(document) accepts."""
    docs = (json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(DATA.glob("**/*.json")))
    return [doc for doc in docs if isinstance(doc, dict) and kind(doc)]


PRESENTATIONS = _documents(lambda d: "generators" in d and "coefficients" in d)
# the tests/data plumbings, and one with a custom vertex whose generator u
# has a nonzero d
PLUMBINGS = _documents(lambda d: "vertices" in d and "n" in d) + [{
    "n": 3, "coefficients": "Z",
    "vertices": [{"id": "v", "manifold": {"type": "sphere"}},
                 {"id": "w", "manifold": {
                     "type": "custom",
                     "generators": [{"name": "c", "deg": -1},
                                    {"name": "u", "deg": -3}],
                     "differentials": {"c": "0", "u": "c*c"},
                     "eta": "c"}}],
    "arrows": [{"id": "e", "src": "v", "tgt": "w", "sign": -1, "d": 1}]}]
QUIVERS = _documents(lambda d: "vertices" in d and "n" not in d)
_DROP = object()  # a mutation that deletes the part


def _parts(node, path=()):
    """The JSON path of every part below node."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _parts(value, path + (key,))


@st.composite
def mutated_documents(draw, documents, names):
    """One of documents with one or two parts replaced, by a value of
    another type, a huge integer, one of names(document), a product or a
    list of them, or a polynomial text, or deleted."""
    doc = json.loads(json.dumps(draw(st.sampled_from(documents))))
    names = names(doc)
    values = st.one_of(
        st.integers(-3, 6),
        st.sampled_from([2 ** 70, -2 ** 70, True, None, 1.5, "", [], {},
                         "0", "1_{L}", "1/0*z", "Q", "Zmod:4", _DROP]),
        st.sampled_from(names),
        st.lists(st.sampled_from(names), min_size=1, max_size=3).map(
            "*".join),
        st.lists(st.sampled_from(names), max_size=3))
    for _ in range(draw(st.integers(1, 2))):
        parts = list(_parts(doc))
        if not parts:  # the first change emptied a list document
            break
        *path, key = draw(st.sampled_from(parts))
        parent = doc
        for step in path:
            parent = parent[step]
        value = draw(values)
        if value is _DROP:
            del parent[key]
        else:
            parent[key] = value
    return doc


def resolves(doc, path: str) -> bool:
    """Whether the JSON path path ("document", or steps such as [0].gens[1])
    names a part of doc."""
    if path == "document":
        return True
    node = doc
    for index, key in re.findall(r"\[(\d+)\]|\.?([^.\[]+)", path):
        if index:
            if not isinstance(node, list) or int(index) >= len(node):
                return False
            node = node[int(index)]
        elif isinstance(node, dict) and key in node:
            node = node[key]
        else:
            return False
    return True
