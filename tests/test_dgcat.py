"""Category construction checks, functor validation, hom enumeration."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifree.algebra import (
    Generator,
    INTEGERS,
    NcPoly,
    compose,
    render_poly,
    word_names,
)
from semifree.constructions import tensor
from semifree.dgcat import (
    DegreeError,
    DgFunctor,
    DSquaredNonzero,
    OrdinalViolation,
    audit_d_squared,
    compose_functors,
    from_json,
    hom_slice,
    identity_functor,
    new_semifree,
    restrict_functor,
    to_json,
    validate_functor,
)
from semifree.fukaya import ModelId, build
from semifree.twisted import build_d12

ring = INTEGERS


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
    from semifree.twisted import generator_change_d12
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
    relational category can rewrite are dropped.
    """
    reducible = getattr(cat, "is_reducible", lambda word: False)
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
    got = sorted(word_names(w) for deg in slice_.words_by_degree
                 for w in slice_.words_by_degree[deg])
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
    names = sorted(word_names(w) for w in slice_.words_by_degree[-1])
    assert names == brute_force_words(s, "L", "L", (-1, -1), 3)
    assert names == [("a1",)]


@settings(max_examples=20)
@given(st.integers(1, 4), st.integers(1, 6))
def test_hom_slice_monotone(extra, bound):
    s = build(ModelId.parse("S:3,2,0"), ring)
    small = hom_slice(s, "L", "L", (-2, 0), bound)
    large = hom_slice(s, "L", "L", (-2 - extra, extra), bound + extra)
    for deg, words in small.words_by_degree.items():
        got = {word_names(w) for w in large.words_by_degree.get(deg, [])}
        assert {word_names(w) for w in words} <= got


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
    got = hom_slice(cat, source, target, window, bound).words_by_degree
    assert got == brute_force_slice(cat, source, target, window, bound)


@pytest.mark.parametrize("window,bound", [((-4, 0), 4), ((-2, 3), 5),
                                          ((-6, -1), 6)])
def test_hom_slice_relational_matches_unpruned(window, bound):
    a2 = build(ModelId("A2"), ring)
    t = tensor(a2, build(ModelId.parse("C:3"), ring))
    for source in t.objects:
        for target in t.objects:
            got = hom_slice(t, source, target, window, bound).words_by_degree
            assert got == brute_force_slice(t, source, target, window, bound)


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


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["C:1", "S:3,2,1", "S:2,2,0", "M:1,1",
                                  "D12:4", "B01:3"])
def test_presentation_roundtrip(spec):
    cat = build(ModelId.parse(spec), ring)
    doc = to_json(cat)
    back = from_json(doc)
    assert to_json(back) == doc


def test_audit_runs_over_collection():
    for spec in ("C:2", "S:3,2,0", "M:1,1", "D12:3"):
        audit_d_squared(build(ModelId.parse(spec), ring))
