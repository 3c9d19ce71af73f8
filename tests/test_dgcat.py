"""Category construction checks, functor validation, hom enumeration."""

import itertools
import json
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semifree.algebra import (
    CompositionError,
    Generator,
    INTEGERS,
    NcPoly,
    RATIONALS,
    Ring,
    compose,
    integers_mod,
    render_poly,
    word_names,
)
from semifree.cli import _dump
from semifree.constructions import tensor
from semifree.dgcat import (
    DegreeError,
    DgFunctor,
    DSquaredNonzero,
    InputError,
    OrdinalViolation,
    SemifreeDgCat,
    audit_d_squared,
    from_json,
    hom_slice,
    new_semifree,
    push_poly,
    to_json,
    validate_functor,
)
from semifree.fukaya import ModelId, build
from semifree.rewrite import RuleError
from semifree.twisted import build_d01, build_d12
from helpers import (
    MALFORMED_DOCUMENTS,
    PRESENTATIONS,
    assert_rejection_by_search,
    compose_functors,
    decoded,
    identity_functor,
    mutated_documents,
    restrict_functor,
    restrict_to_objects,
    rule_index_by_passes,
)
from paper_models import build_e12, cone_extend, surface_relation_form

ring = INTEGERS
DATA = Path(__file__).resolve().parent / "data"


def test_sphere_category_valid():
    # one object, one closed loop of degree 1 - n
    for n in range(1, 7):
        cat = build(ModelId.parse(f"C:{n}"), ring)
        z = cat.gen("z")
        assert z.degree == 1 - n
        assert cat.differentials["z"].is_zero()


def test_d_squared_detected():
    a = Generator("a", "L", "L", 0, 0)
    b = Generator("b", "L", "L", -1, 1)
    g = Generator("g", "L", "L", -2, 2)
    with pytest.raises(DSquaredNonzero) as err:
        new_semifree(ring, ("L",), (a, b, g), {
            "a": NcPoly.zero(ring, "L", "L"),
            "b": NcPoly.gen(ring, a),
            "g": NcPoly.gen(ring, b),
        })
    assert err.value.gen_name == "g"
    assert render_poly(err.value.residual) == "a"


def test_mutual_pair_rejected():
    # dg = h, dh = g cannot satisfy the degree and ordinal preconditions
    h = Generator("h", "L", "L", 0, 0)
    g = Generator("g", "L", "L", -1, 1)
    with pytest.raises((OrdinalViolation, DSquaredNonzero, DegreeError)):
        new_semifree(ring, ("L",), (h, g), {
            "h": NcPoly.gen(ring, g),
            "g": NcPoly.gen(ring, h),
        })


def test_ordinal_condition_enforced():
    b = Generator("b", "L", "L", -1, 0)
    c = Generator("c", "L", "L", 0, 1)
    with pytest.raises(OrdinalViolation):
        new_semifree(ring, ("L",), (b, c), {
            "b": NcPoly.from_terms(ring, "L", "L", [((c,), 1)]),
            "c": NcPoly.zero(ring, "L", "L"),
        })


def test_degree_check():
    a = Generator("a", "L", "L", 0, 0)
    b = Generator("b", "L", "L", 5, 1)
    with pytest.raises(DegreeError):
        new_semifree(ring, ("L",), (a, b), {
            "a": NcPoly.zero(ring, "L", "L"),
            "b": NcPoly.gen(ring, a),
        })


def test_new_semifree_audits_rules_against_d():
    # d^2 = 0 holds, but the rule k -> h does not commute with d:
    # d(k) - d(h) = -a
    a = Generator("a", "L", "L", 0, 0)
    h = Generator("h", "L", "L", -1, 1)
    k = Generator("k", "L", "L", -1, 2)
    table = {"a": NcPoly.zero(ring, "L", "L"), "h": NcPoly.gen(ring, a),
             "k": NcPoly.zero(ring, "L", "L")}
    new_semifree(ring, ("L",), (a, h, k), table)
    with pytest.raises(DSquaredNonzero) as err:
        new_semifree(ring, ("L",), (a, h, k), table,
                     rules=[((k,), NcPoly.gen(ring, h))])
    assert err.value.gen_name == "k"
    assert render_poly(err.value.residual) == "-a"


def test_d_term_must_compose_along_the_boundary():
    # d(h) = x*y with x, y: A -> B does not compose; an identity term fits
    # only an endomorphism of its object
    x = Generator("x", "A", "B", 0, 0)
    y = Generator("y", "A", "B", 0, 1)
    h = Generator("h", "A", "B", -1, 2)
    e = Generator("e", "A", "A", -1, 2)
    zero = {g.name: NcPoly.zero(ring, "A", "B") for g in (x, y)}
    cases = [
        (h, NcPoly(ring, "A", "B", {(x, y): 1}),
         "d(h) has the term x*y, which does not compose along A->B"),
        (h, NcPoly(ring, "A", "B", {(x,): 1, "A": 1}),
         "d(h) has the term 1_{A}, but h runs A->B"),
        (e, NcPoly(ring, "A", "A", {"B": 1}),
         "d(e) has the term 1_{B}, but e runs A->A"),
        (e, NcPoly(ring, "A", "A", {(x,): 1}),
         "d(e) has the term x, which does not compose along A->A"),
    ]
    for g, dg, message in cases:
        with pytest.raises(CompositionError) as err:
            new_semifree(ring, ("A", "B"), (x, y, g), zero | {g.name: dg})
        assert str(err.value) == message


def test_s2m_category_valid():
    cat = build(ModelId.parse("S:2,3,0"), ring, {"localize": False})
    assert render_poly(cat.differentials["h"]) == "-1_{L} + a3*a2*a1"
    audit_d_squared(cat)


# ---------------------------------------------------------------------------
# functor validation
# ---------------------------------------------------------------------------

def test_phi_validates():
    for n in (3, 4, 5):
        c = build(ModelId.parse(f"C:{n-1}"), ring)
        d12 = build_d12(n, ring)
        yx = compose(NcPoly.gen(ring, d12.gen("y")),
                     NcPoly.gen(ring, d12.gen("x")))
        f = DgFunctor(c, d12, {"L": "L1"}, {"z": yx})
        assert validate_functor(f)["valid"]


def test_wrong_degree_image_rejected():
    n = 4
    c = build(ModelId.parse(f"C:{n-1}"), ring)
    d12 = build_d12(n, ring)
    f = DgFunctor(c, d12, {"L": "L1"},
                  {"z": compose(NcPoly.gen(ring, d12.gen("y")),
                                NcPoly.gen(ring, d12.gen("x")))})
    bad = DgFunctor(c, d12, {"L": "L2"},
                    {"z": NcPoly.zero(ring, "L2", "L2")})
    assert validate_functor(bad)["valid"]  # typed zero passes any degree
    with pytest.raises(DegreeError):
        validate_functor(DgFunctor(
            c, build_d12(2, ring), {"L": "L1"},
            {"z": compose(NcPoly.gen(ring, build_d12(2, ring).gen("y")),
                          NcPoly.gen(ring, build_d12(2, ring).gen("x")))}))


def test_composition_of_valid_functors_is_valid():
    n = 3
    c = build(ModelId.parse(f"C:{n-1}"), ring)
    d12 = build_d12(n, ring)
    yx = compose(NcPoly.gen(ring, d12.gen("y")), NcPoly.gen(ring, d12.gen("x")))
    f = DgFunctor(c, d12, {"L": "L1"}, {"z": yx})
    composite = compose_functors(f, identity_functor(c))
    assert validate_functor(composite)["valid"]
    assert composite.generator_map["z"] == yx


def test_composite_through_the_generator_change():
    # z -> yx in the free presentation, then the generator change into the
    # cone extension: the composite image normalizes to the loop alpha1
    from paper_models import generator_change_d12
    n = 3
    c = build(ModelId.parse(f"C:{n-1}"), ring)
    d12, change, _ = generator_change_d12(n, ring)
    yx = compose(NcPoly.gen(ring, d12.gen("y")), NcPoly.gen(ring, d12.gen("x")))
    phi = DgFunctor(c, d12, {"L": "L1"}, {"z": yx})
    composite = compose_functors(change, phi)
    assert validate_functor(composite)["valid"]
    assert render_poly(composite.generator_map["z"]) == "alpha1"


def test_restriction_of_valid_functor_is_valid():
    s = build(ModelId.parse("S:3,2,0"), ring)
    f = identity_functor(s)
    sub = restrict_functor(f, ["L"])
    assert validate_functor(sub)["valid"]


# ---------------------------------------------------------------------------
# hom slices
# ---------------------------------------------------------------------------

def brute_force_slice(cat, source, target, window, bound):
    """Independent oracle: enumerate all letter sequences and filter.

    Returns degree -> words in hom_slice's order, which here falls out of
    itertools.product over rank-ordered letters, length by length.  Words a
    category's rules can rewrite are dropped.
    """
    reducible = cat.is_reducible
    found = {}
    if window[0] <= 0 <= window[1] and source == target:
        found[0] = [source]
    for length in range(1, bound + 1):
        for combo in itertools.product(cat.generators, repeat=length):
            ok = all(combo[i + 1].target == combo[i].source
                     for i in range(length - 1))
            if not ok or combo[-1].source != source or combo[0].target != target:
                continue
            deg = sum(g.degree for g in combo)
            if window[0] <= deg <= window[1] and not reducible(combo):
                found.setdefault(deg, []).append(combo)
    return found


def brute_force_words(cat, source, target, window, bound):
    found = brute_force_slice(cat, source, target, window, bound)
    return sorted(word_names(w) for words in found.values() for w in words)


def test_hom_slice_d12_matches_brute_force():
    d12 = build_d12(3, ring)
    slice_ = hom_slice(d12, "L1", "L1", (-3, 0), 8)
    got = sorted(word_names(w) for words in decoded(d12, slice_).values()
                 for w in words)
    assert got == brute_force_words(d12, "L1", "L1", (-3, 0), 8)
    # the classes 1, yx, (yx)^2, (yx)^3 at degrees 0, -1, -2, -3
    sizes = {deg: len(ws) for deg, ws in slice_.words_by_degree.items()}
    assert sizes == {0: 1, -1: 1, -2: 1, -3: 1}


def test_hom_slice_empty_when_disconnected():
    cat = new_semifree(ring, ("A", "B"), (), {})
    slice_ = hom_slice(cat, "A", "B", (-5, 5), 6)
    assert slice_.words_by_degree == {}


def test_hom_slice_s31_degree_minus_one():
    s = build(ModelId.parse("S:3,1,0"), ring)
    slice_ = hom_slice(s, "L", "L", (-1, -1), 3)
    names = sorted(word_names(w) for w in decoded(s, slice_)[-1])
    assert names == brute_force_words(s, "L", "L", (-1, -1), 3)
    assert names == [("a1",)]


@settings(max_examples=20)
@given(st.integers(1, 4), st.integers(1, 6))
def test_hom_slice_monotone(extra, bound):
    s = build(ModelId.parse("S:3,2,0"), ring)
    small = decoded(s, hom_slice(s, "L", "L", (-2, 0), bound))
    large = decoded(s, hom_slice(s, "L", "L", (-2 - extra, extra),
                                 bound + extra))
    for deg, words in small.items():
        got = {word_names(w) for w in large.get(deg, [])}
        assert {word_names(w) for w in words} <= got


def push_by_compose(p, object_map, gen_images, ring):
    """push_poly as it was before single-term images were spliced: every
    word multiplied out by compose; kept as its oracle."""
    out = NcPoly.zero(ring, object_map[p.source], object_map[p.target])
    for word, coeff in p.terms.items():
        if isinstance(word, str):
            piece = NcPoly.identity(ring, object_map[word])
        else:
            piece = None
            for g in word:
                img = gen_images[g.name]
                piece = img if piece is None else compose(piece, img)
        out.add_in_place(piece, coeff)
    return out


@st.composite
def random_poly(draw, ring, gens, source, target):
    """A sum of up to four words source -> target in gens, some of them
    identities, with small coefficients (zero products in Zmod:6)."""
    out_of = {}
    for g in gens:
        out_of.setdefault(g.source, []).append(g)
    items = []
    for _ in range(draw(st.integers(0, 4))):
        word, tip = (), source
        for _ in range(draw(st.integers(0, 3))):
            if tip not in out_of:
                break
            g = draw(st.sampled_from(out_of[tip]))
            word, tip = (g,) + word, g.target
        if tip == target:
            items.append((word or source, draw(st.integers(-3, 3))))
    return NcPoly.from_terms(ring, source, target, items)


@st.composite
def push_problems(draw):
    """A polynomial over letters f_i on objects A, B, and images of the
    letters over letters t_j on X, Y.  An image's boundary follows the
    object map unless composable is False; then it is random."""
    ring = draw(st.sampled_from([INTEGERS, RATIONALS, integers_mod(6)]))
    ends = st.sampled_from(("A", "B"))
    letters = [Generator(f"f{i}", draw(ends), draw(ends), 0, i)
               for i in range(draw(st.integers(1, 4)))]
    ends = st.sampled_from(("X", "Y"))
    targets = [Generator(f"t{j}", draw(ends), draw(ends), 0, j)
               for j in range(3)]
    object_map = {"A": draw(ends), "B": draw(ends)}
    composable = draw(st.booleans())
    images = {}
    for f in letters:
        source, target = ((object_map[f.source], object_map[f.target])
                          if composable else (draw(ends), draw(ends)))
        images[f.name] = draw(random_poly(ring, targets, source, target))
    ends = st.sampled_from(("A", "B"))
    p = draw(random_poly(ring, letters, draw(ends), draw(ends)))
    return p, object_map, images, ring


@settings(max_examples=400, deadline=None)
@given(push_problems())
def test_push_poly_matches_compose_oracle(problem):
    # the same polynomial, or the same error, as composing every image
    try:
        want = push_by_compose(*problem)
    except CompositionError as err:
        with pytest.raises(CompositionError) as got:
            push_poly(*problem)
        assert str(got.value) == str(err)
        return
    got = push_poly(*problem)
    assert (got.ring, got.source, got.target) == \
        (want.ring, want.source, want.target)
    assert got.terms == want.terms


def test_push_poly_drops_zero_products_and_rejects_gaps():
    z6 = integers_mod(6)
    f = Generator("f", "A", "A", 0, 0)
    g = Generator("g", "A", "A", 0, 1)
    t = Generator("t", "X", "X", 0, 0)
    p = NcPoly.from_terms(z6, "A", "A", [((g, f), 1), ((f,), 1)])
    images = {"f": NcPoly.gen(z6, t, 2), "g": NcPoly.gen(z6, t, 3)}
    assert push_poly(p, {"A": "X"}, images, z6).terms == {(t,): 2}
    u = Generator("u", "Y", "X", 0, 1)
    images["f"] = NcPoly.gen(z6, u, 2)  # ends at X but starts at Y
    with pytest.raises(CompositionError):
        push_poly(p, {"A": "X"}, images, z6)


@st.composite
def small_hom_problems(draw):
    """A d = 0 category on 1-3 objects, a source/target pair, window, bound."""
    objects = ("A", "B", "C")[:draw(st.integers(1, 3))]
    edges = draw(st.lists(st.tuples(st.sampled_from(objects),
                                    st.sampled_from(objects),
                                    st.integers(-2, 2)), max_size=5))
    gens = tuple(Generator(f"g{i}", src, tgt, deg, i)
                 for i, (src, tgt, deg) in enumerate(edges))
    cat = new_semifree(ring, objects, gens,
                       {g.name: NcPoly.zero(ring, g.source, g.target)
                        for g in gens})
    lo = draw(st.integers(-6, 6))
    window = (lo, lo + draw(st.integers(0, 6)))
    return (cat, draw(st.sampled_from(objects)), draw(st.sampled_from(objects)),
            window, draw(st.integers(0, 6)))


@settings(max_examples=200, deadline=None)
@given(small_hom_problems())
def test_hom_slice_pruning_matches_unpruned(problem):
    # degrees of both signs, zero-degree loops and unreachable targets: the
    # pruned growth must list exactly the words, in the order, of the oracle
    cat, source, target, window, bound = problem
    got = decoded(cat, hom_slice(cat, source, target, window, bound))
    assert got == brute_force_slice(cat, source, target, window, bound)


@pytest.mark.parametrize("window,bound", [((-4, 0), 4), ((-2, 3), 5),
                                          ((-6, -1), 6)])
def test_hom_slice_relational_matches_unpruned(window, bound):
    a2 = build(ModelId("A2"), ring)
    t = tensor(a2, build(ModelId.parse("C:3"), ring))
    for source in t.objects:
        for target in t.objects:
            got = decoded(t, hom_slice(t, source, target, window, bound))
            assert got == brute_force_slice(t, source, target, window, bound)


@st.composite
def small_relational_hom_problems(draw):
    """small_hom_problems with up to three rules w -> 0, each w a
    composable word of 1-3 generators.  With d = 0 both audits pass, and
    rules to zero are always confluent."""
    cat, source, target, window, bound = draw(small_hom_problems())
    rules = []
    for _ in range(draw(st.integers(0, 3)) if cat.generators else 0):
        word = (draw(st.sampled_from(cat.generators)),)
        for _ in range(draw(st.integers(0, 2))):
            after = [g for g in cat.generators if g.source == word[0].target]
            if not after:
                break
            word = (draw(st.sampled_from(after)),) + word
        rules.append((word, NcPoly.zero(ring, word[-1].source,
                                        word[0].target)))
    cat = new_semifree(ring, cat.objects, cat.generators, cat.differentials,
                       rules=rules)
    return cat, window, bound


def _two_lhs_lengths_at_one_letter():
    """a*b -> 0 and a*c*c -> 0 on closed loops a, b, c of degree 0."""
    a, b, c = gens = [Generator(name, "L", "L", 0, rank)
                      for rank, name in enumerate("abc")]
    zero = NcPoly.zero(ring, "L", "L")
    cat = new_semifree(ring, ("L",), gens, {g.name: zero for g in gens},
                       rules=[((a, b), zero), ((a, c, c), zero)])
    return cat, (0, 0), 3


@settings(max_examples=200, deadline=None)
@given(small_relational_hom_problems())
@example(_two_lhs_lengths_at_one_letter())
def test_hom_slice_with_rules_matches_unpruned(problem):
    # rule tails of length 0, 1 and 2, and paths that end at several
    # objects: the words that no rule rewrites, in the oracle's order
    cat, window, bound = problem
    for source in cat.objects:
        for target in cat.objects:
            got = decoded(cat, hom_slice(cat, source, target, window, bound))
            assert got == brute_force_slice(cat, source, target, window,
                                            bound)


@pytest.mark.parametrize("args,named", [
    (("Q", "L", (-3, 0), 4), "source 'Q'"),
    (("L", "Q", (-3, 0), 4), "target 'Q'"),
    (("L", "L", (0, -3), 4), "window 0:-3"),
    (("L", "L", (-3, 0), -1), "bound -1"),
])
def test_hom_slice_rejects_bad_arguments(args, named):
    s = build(ModelId.parse("S:3,2,0"), ring)
    with pytest.raises(ValueError, match=named):
        hom_slice(s, *args)


@pytest.mark.parametrize("spec,window,bound", [
    ("S:3,2,1", (-4, 0), 6), ("M:1,1 x S:2,1,1", (-3, 0), 3)])
def test_hom_slice_lists_words_by_length_then_ranks(spec, window, bound):
    parts = [build(ModelId.parse(s), ring) for s in spec.split(" x ")]
    cat = parts[0] if len(parts) == 1 else tensor(*parts)
    source = cat.objects[0]
    words = hom_slice(cat, source, source, window, bound).words_by_degree
    assert words[0][0] == ()  # the identity
    assert sum(map(len, words.values())) > 100
    for ws in words.values():
        assert all(isinstance(r, int) for w in ws for r in w)
        keys = [(len(w), w) for w in ws]
        assert keys == sorted(set(keys))


def test_hom_slice_rejects_shared_ranks():
    # ranks code the words, so two generators with one rank would list
    # distinct words as one; such a category is refused before hom_slice
    # can see it
    a = Generator("a", "X", "X", 0, 0)
    b = Generator("b", "X", "X", 0, 0)
    with pytest.raises(ValueError, match="^duplicate ordinal ranks$"):
        cat = SemifreeDgCat(ring, ("X",), (a, b), {
            "a": NcPoly.zero(ring, "X", "X"),
            "b": NcPoly.zero(ring, "X", "X")})
        hom_slice(cat, "X", "X", (0, 0), 1)


def test_shared_ranks_are_rejected_however_a_category_is_built():
    # ranks code the words, so two generators with one rank would list
    # distinct words as one
    a = Generator("a", "X", "X", 0, 0)
    b = Generator("b", "X", "X", 0, 0)
    table = {g.name: NcPoly.zero(ring, "X", "X") for g in (a, b)}
    one = new_semifree(ring, ("X",), (a,), table)
    for construct in (lambda: SemifreeDgCat(ring, ("X",), (a, b), table),
                      lambda: replace(one, generators=(a, b)),
                      lambda: new_semifree(ring, ("X",), (a, b), table)):
        with pytest.raises(ValueError, match="^duplicate ordinal ranks$"):
            construct()


def test_replace_reruns_the_structural_checks():
    # a on X, b: X -> Y with d(b) = e*a, e: X -> Y
    a = Generator("a", "X", "X", 0, 0)
    e = Generator("e", "X", "Y", 1, 1)
    b = Generator("b", "X", "Y", 0, 2)
    db = compose(NcPoly.gen(ring, e), NcPoly.gen(ring, a))
    cat = new_semifree(ring, ("X", "Y"), (a, e, b), {
        "a": NcPoly.zero(ring, "X", "X"), "e": NcPoly.zero(ring, "X", "Y"),
        "b": db})
    for changes, error, message in [
        ({"generators": (e, b)}, ValueError,
         "d(b) uses a, which is not a generator of the category"),
        ({"generators": (a, b, e)}, ValueError,
         "generators must be listed in rank order"),
        ({"objects": ("X",)}, ValueError,
         "generator e references undeclared objects"),
        ({"differentials": {"a": NcPoly.zero(ring, "X", "X"),
                            "b": db}}, ValueError,
         "missing differential for e"),
        ({"ring": RATIONALS}, ValueError, "mixed coefficient rings"),
        ({"generators": (a, e, b._replace(degree=1))}, DegreeError,
         "d(b) has degree 1, expected 2"),
    ]:
        with pytest.raises(error) as err:
            replace(cat, **changes)
        assert str(err.value) == message


@pytest.mark.parametrize("weights,part,message", [
    ({"b": -1}, ("weights", "b"), "expected an integer >= 0, got -1"),
    ({"b": 1.5}, ("weights", "b"), "expected an integer >= 0, got 1.5"),
    ({"b": True}, ("weights", "b"), "expected an integer >= 0, got True"),
    ({"zz": 3}, ("weights",), "unknown generator 'zz'"),
])
@pytest.mark.parametrize("with_rules", [True, False])
def test_the_class_refuses_bad_weights(weights, part, message, with_rules):
    # these were accepted, and from_json then refused the category's own
    # document; with b of weight -1, a rule b -> b*b decreased the order,
    # and normalizing b never ended.  Weights are checked with or without
    # rules
    a, b = (Generator(name, "X", "X", 0, rank)
            for rank, name in enumerate("ab"))
    table = {g.name: NcPoly.zero(ring, "X", "X") for g in (a, b)}
    rules = [((b,), NcPoly.gen(ring, a))] if with_rules else []
    with pytest.raises(ValueError) as err:
        new_semifree(ring, ("X",), (a, b), table, rules=rules,
                     weights=weights)
    assert str(err.value) == message and err.value.part == part


def test_weights_are_kept_only_with_rules():
    a, b = (Generator(name, "X", "X", 0, rank)
            for rank, name in enumerate("ab"))
    table = {g.name: NcPoly.zero(ring, "X", "X") for g in (a, b)}
    assert SemifreeDgCat(ring, ("X",), (a, b), table,
                         weights={"b": 2}).weights == {}
    rules = (((b,), NcPoly.gen(ring, a)),)
    assert SemifreeDgCat(ring, ("X",), (a, b), table, rules=rules,
                         weights={"b": 2}).weights == {"b": 2}


def test_rule_rhs_over_another_ring_is_rejected_when_built():
    a = Generator("a", "X", "X", 0, 0)
    b = Generator("b", "X", "X", 0, 1)
    table = {g.name: NcPoly.zero(ring, "X", "X") for g in (a, b)}
    rule = ((b,), NcPoly.gen(RATIONALS, a))
    with pytest.raises(ValueError, match="^mixed coefficient rings$"):
        SemifreeDgCat(ring, ("X",), (a, b), table, rules=(rule,))


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

# categories with rewrite rules over a ring, by test id: the fourth is the
# relations workload's tensor (29 generators, 198 rules); BUILDERS, the
# rest, cover the other relational builders: surface relation forms (with
# weights), the first E12 form, a cone on A2 and a tensor with 330 rules
RELATIONAL = {
    "tensor(A2,C:3)": lambda r: tensor(build(ModelId("A2"), r),
                                       build(ModelId.parse("C:3"), r)),
    "cone(D01:3,g)": lambda r: cone_extend(build_d01(3, r), "g"),
    "e12_n3.json": lambda r: from_json(
        json.loads((DATA / "e12_n3.json").read_text())),
    "tensor(M:1,1,S:2,1,1)": lambda r: tensor(
        build(ModelId.parse("M:1,1"), r), build(ModelId.parse("S:2,1,1"), r)),
    "surface_relation_form(1,1)": lambda r: surface_relation_form(1, 1, r)[0],
    "surface_relation_form(2,1)": lambda r: surface_relation_form(2, 1, r)[0],
    "build_e12(3,first_form)": lambda r: build_e12(3, r, first_form=True),
    "cone(A2,f)": lambda r: cone_extend(build(ModelId("A2"), r), "f"),
    "tensor(M:2,1,S:2,1,1)": lambda r: tensor(
        build(ModelId.parse("M:2,1"), r), build(ModelId.parse("S:2,1,1"), r)),
}
BUILDERS = list(RELATIONAL)[4:]


@pytest.mark.parametrize("spec", [
    "C:1", "S:3,2,1", "S:2,2,0", "M:1,1", "D12:4", "B01:3", "A1", "A2",
    "D01:3", *RELATIONAL,
    *(f"{spec} over {coefficients}"
      for spec in ["M:1,1", "D12:4", "cone(D01:3,g)", "tensor(M:1,1,S:2,1,1)",
                   *BUILDERS]
      for coefficients in ["Q", "Zmod:1000000007"])])
def test_presentation_roundtrip(spec):
    spec, _, coefficients = spec.partition(" over ")
    r = Ring.parse(coefficients or "Z")
    if spec in RELATIONAL:
        cat = RELATIONAL[spec](r)
        assert cat.rules
    else:
        cat = build(ModelId.parse(spec), r)
    doc = to_json(cat)
    # the bytes the CLI writes come back byte-identical
    text = _dump(doc)
    back = from_json(json.loads(text))
    assert _dump(to_json(back)) == text
    assert to_json(back) == doc
    assert back == cat
    # "rules" (and "weights") are written only when there are rules
    assert ("rules" in doc) == bool(cat.rules)
    if not cat.rules:
        assert "weights" not in doc
        empty = from_json(dict(doc, rules=[]))
        assert empty.rules == ()
        assert to_json(empty) == doc


# objects X twice, a target Y that is not an object, ranks out of order
FOUND_DOC = {
    "coefficients": "Z",
    "objects": ["X", "X"],
    "generators": [
        {"name": "a", "src": "X", "tgt": "Y", "deg": 0, "rank": 5, "d": "0"},
        {"name": "b", "src": "X", "tgt": "X", "deg": 0, "rank": 1, "d": "0"},
    ],
    "rules": [],
}


def test_from_json_checks_structure_with_rules_key():
    with pytest.raises(ValueError, match="duplicate object ids"):
        from_json(FOUND_DOC)


def test_from_json_audits_d_squared_modulo_rules():
    # d(c) = b, d(b) = a, so d^2(c) = a: nonzero unless a rule kills a
    doc = {
        "coefficients": "Z",
        "objects": ["L"],
        "generators": [
            {"name": "a", "src": "L", "tgt": "L", "deg": 0, "rank": 0,
             "d": "0"},
            {"name": "b", "src": "L", "tgt": "L", "deg": -1, "rank": 1,
             "d": "a"},
            {"name": "c", "src": "L", "tgt": "L", "deg": -2, "rank": 2,
             "d": "b"},
        ],
        "rules": [{"lhs": ["b", "b"], "rhs": "0"}],
    }
    with pytest.raises(InputError) as err:
        from_json(doc)
    assert str(err.value) == "generators[2].d: d^2 != 0 at c: residual a"
    doc["rules"].append({"lhs": ["a"], "rhs": "0"})
    cat = from_json(doc)  # the rule a -> 0 kills the residual
    assert cat.normalize(cat.d(cat.differentials["c"])).is_zero()


def test_from_json_rejects_rule_with_unknown_generator():
    doc = to_json(tensor(build(ModelId.parse("A2"), ring),
                         build(ModelId.parse("C:3"), ring)))
    doc["rules"].append({"lhs": [doc["rules"][0]["lhs"][0], "q"], "rhs": "0"})
    index = len(doc["rules"]) - 1
    with pytest.raises(ValueError,
                       match=rf"rules\[{index}\]\.lhs: no generator 'q'"):
        from_json(doc)


def test_from_json_rejects_empty_rule_lhs():
    doc = to_json(tensor(build(ModelId.parse("A2"), ring),
                         build(ModelId.parse("C:3"), ring)))
    doc["rules"].append({"lhs": [], "rhs": "0"})
    index = len(doc["rules"]) - 1
    with pytest.raises(InputError, match=rf"^rules\[{index}\]: empty rule "
                                         rf"lhs$"):
        from_json(doc)


def test_rule_must_preserve_degree():
    # z has degree -2, so z*z (degree -4) -> z (degree -2) changes degree
    doc = json.loads((DATA / "c3.json").read_text())
    doc["rules"] = [{"lhs": ["z", "z"], "rhs": "z"}]
    with pytest.raises(InputError, match=r"^rules\[0\]: rule z\*z -> z "
                                         r"changes degree: lhs has degree "
                                         r"-4, rhs term z has degree -2$"):
        from_json(doc)
    doc["rules"] = [{"lhs": ["z", "z", "z"], "rhs": "0"}]
    assert from_json(doc).rules  # a zero rhs has no degree to disagree


# letters of random rule sets: a, b and f on X, c: X -> Y and e: Y -> X;
# z is not a generator, and a' has a's name and rank but another degree
RULE_LETTERS = {
    "a": Generator("a", "X", "X", 0, 0),
    "b": Generator("b", "X", "X", 1, 1),
    "c": Generator("c", "X", "Y", 0, 2),
    "e": Generator("e", "Y", "X", 0, 3),
    "f": Generator("f", "X", "X", 1, 4),
    "z": Generator("z", "X", "X", 0, 5),
    "a'": Generator("a", "X", "X", 1, 0),
}
RULE_GENS = tuple(RULE_LETTERS[name] for name in "abcef")
_RULE_LETTER = st.sampled_from([*"abcef" * 3, "z", "a'"])
# (lhs, rhs terms with [] for the identity, rhs boundary or None for the
# lhs's, a flaw put in on purpose: an empty lhs or a rhs over Q)
_RULE = st.tuples(st.lists(_RULE_LETTER, min_size=1, max_size=3),
                  st.lists(st.tuples(st.lists(_RULE_LETTER, max_size=3),
                                     st.integers(-2, 2)), max_size=2),
                  st.sampled_from([None] * 4 + [("X", "X"), ("X", "Y")]),
                  st.sampled_from([None] * 10 + ["empty lhs", "Q"]))


def _rule_from(lhs_names, rhs_terms, ends, flaw):
    lhs = () if flaw == "empty lhs" else tuple(RULE_LETTERS[name]
                                               for name in lhs_names)
    source, target = ends or ((lhs[-1].source, lhs[0].target) if lhs
                              else ("X", "X"))
    terms = {tuple(RULE_LETTERS[name] for name in names) or source: c
             for names, c in rhs_terms if c}
    return lhs, NcPoly(RATIONALS if flaw == "Q" else ring, source, target,
                       terms)


@settings(max_examples=400, deadline=None)
@given(st.lists(_RULE, min_size=1, max_size=4),
       st.one_of(st.just({}), st.dictionaries(st.sampled_from("abcef"),
                                              st.integers(0, 3))))
@example([(["b", "a"], [(["a", "b"], 1)], None, None),
          (["a", "a"], [([], 2)], None, None),
          (["c", "e"], [([], 1), (["f"], -1)], None, None)], {})
@example([(["b", "a"], [(["a", "b"], 1)], None, None),
          (["a", "a"], [([], 2)], None, None)], {"a": 0})
@example([(["f"], [(["a", "b"], 1)], None, None)], {"f": 3})
@example([(["a", "a"], [(["a"], 1)], None, None)], {"a": 0})
@example([(["z", "a'"], [(["b"], 1)], None, None)], {})
# accepted by the passes, not confluent at f*f*f
@example([(["f", "f"], [(["b", "f"], 1)], None, None)], {})
def test_rule_check_matches_the_passes_it_replaced(specs, weights):
    # the same RuleIndex, or the same first error, as the check that ran
    # composability, membership and order as separate passes
    rules = [_rule_from(*spec) for spec in specs]
    table = {g.name: NcPoly.zero(ring, g.source, g.target) for g in RULE_GENS}

    def outcome(check):
        try:
            index = check()
        except Exception as err:
            return type(err), str(err)
        return index.rules, index.first, index.lengths
    got = outcome(lambda: SemifreeDgCat(
        ring, ("X", "Y"), RULE_GENS, table, rules=tuple(rules),
        weights=weights)._index)
    want = outcome(lambda: rule_index_by_passes(ring, RULE_GENS, rules,
                                                weights))
    if got[0] is RuleError and isinstance(want[0], list):
        # the passes accept the rules; past them, the class checks confluence
        assert_rejection_by_search(ring, RULE_GENS, rules, got[1])
    else:
        assert got == want


@pytest.mark.parametrize("rules,message", [
    ("abc", r"rules: expected a list, got 'abc'"),
    ([5], r"rules\[0\]: expected an object, got 5"),
    ([{"lhs": ["z", "z", "z"]}], r"rules\[0\]: missing 'rhs'"),
    ([{"rhs": "0"}], r"rules\[0\]: missing 'lhs'"),
    ([{"lhs": "zzz", "rhs": "0"}],
     r"rules\[0\]\.lhs: expected a list, got 'zzz'"),
], ids=["rules-not-a-list", "rule-not-an-object", "missing-rhs",
        "missing-lhs", "string-lhs"])
def test_from_json_rejects_malformed_rule_shape(rules, message):
    doc = json.loads((DATA / "c3.json").read_text())
    doc["rules"] = rules
    with pytest.raises(ValueError, match=message):
        from_json(doc)


@pytest.mark.parametrize("case", MALFORMED_DOCUMENTS)
def test_from_json_rejects_malformed_document(case):
    doc, message = MALFORMED_DOCUMENTS[case]
    with pytest.raises(ValueError) as err:
        from_json(doc)
    assert str(err.value) == message


@settings(max_examples=500, deadline=None)
@given(mutated_documents(PRESENTATIONS, lambda doc: [
    g["name"] for g in doc["generators"]] + doc["objects"]))
def test_from_json_raises_only_documented_errors(doc):
    # structural errors once escaped as bare ValueError or DegreeError
    try:
        from_json(doc)
    except InputError:
        pass


def test_restriction_keeps_rewrite_rules():
    # restricting to every object is the identity on hom spaces
    cat = tensor(build(ModelId.parse("A2"), ring),
                 build(ModelId.parse("C:3"), ring))
    sub = restrict_to_objects(cat, cat.objects)
    assert sub.rules == cat.rules and sub.rules
    window = ((-6, 2), 3)
    assert hom_slice(sub, "(K0,L)", "(K1,L)", *window).words_by_degree == \
        hom_slice(cat, "(K0,L)", "(K1,L)", *window).words_by_degree
    assert sum(len(ws) for ws in hom_slice(
        sub, "(K0,L)", "(K1,L)", *window).words_by_degree.values()) == 3
    # one object: the rules whose letters all stay on it survive
    one = restrict_to_objects(cat, ["(K0,L)"])
    names = {g.name for g in one.generators}
    assert one.rules == tuple(r for r in cat.rules
                              if all(g.name in names for g in r[0]))


def test_restriction_rejects_rule_through_dropped_generator():
    # a -> c*b on X, where b and c pass through Y
    a = Generator("a", "X", "X", 0, 0)
    b = Generator("b", "X", "Y", 0, 1)
    c = Generator("c", "Y", "X", 0, 2)
    zero = {g.name: NcPoly.zero(ring, g.source, g.target) for g in (a, b, c)}
    rhs = compose(NcPoly.gen(ring, c), NcPoly.gen(ring, b))
    cat = new_semifree(ring, ("X", "Y"), (a, b, c), zero,
                       rules=[((a,), rhs)], weights={"a": 3})
    with pytest.raises(RuleError) as err:
        restrict_to_objects(cat, ["X"])
    assert str(err.value) == ("rule a -> c*b uses c, which is not a "
                              "generator of the category")


def test_restriction_rejects_d_through_dropped_generator():
    # d(h) = c*b on X, where b and c pass through Y
    b = Generator("b", "X", "Y", 0, 0)
    c = Generator("c", "Y", "X", 0, 1)
    h = Generator("h", "X", "X", -1, 2)
    table = {g.name: NcPoly.zero(ring, g.source, g.target) for g in (b, c)}
    table["h"] = compose(NcPoly.gen(ring, c), NcPoly.gen(ring, b))
    cat = new_semifree(ring, ("X", "Y"), (b, c, h), table)
    with pytest.raises(ValueError) as err:
        restrict_to_objects(cat, ["X"])
    assert str(err.value) == ("d(h) uses c, which is not a generator of the "
                              "category")


def test_audit_runs_over_collection():
    for spec in ("C:2", "S:3,2,0", "M:1,1", "D12:3"):
        audit_d_squared(build(ModelId.parse(spec), ring))
