"""Shifts and one-step cones with Koszul bookkeeping."""

import pytest

from semifree.algebra import Generator, INTEGERS, NcPoly, compose, render_poly
from semifree.dgcat import new_semifree
from semifree.fukaya import ModelId, build, inclusion_functor
from semifree.twisted import (
    build_d01,
    build_d12,
    cone_extend,
    cone_object,
    generator_change_d12,
    shift_presentation,
)
from helpers import assert_confluent_by_search, key_view

ring = INTEGERS


# ---------------------------------------------------------------------------
# shifts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,m1,m2", [(3, 1, 0), (3, 2, 0), (4, 1, 0),
                                     (4, 1, 2), (5, -1, 3)])
def test_shift_degrees_and_sign(n, m1, m2):
    d12 = build_d12(n, ring)
    shifted, comparison = shift_presentation(d12, {"L1": m1, "L2": m2})
    assert shifted.gen("x").degree == m1 - m2
    assert shifted.gen("y").degree == 2 - n - (m1 - m2)
    yx = compose(NcPoly.gen(ring, d12.gen("y")), NcPoly.gen(ring, d12.gen("x")))
    image = comparison.tilde(yx)
    sign = (-1) ** (n * (m1 - m2))
    ((word, coeff),) = image.terms.items()
    assert coeff == sign
    assert tuple(g.name for g in word) == ("y", "x")


def test_shift_zero_is_identity():
    d12 = build_d12(3, ring)
    shifted, comparison = shift_presentation(d12, {})
    assert shifted.objects == d12.objects
    assert [g.degree for g in shifted.generators] == \
        [g.degree for g in d12.generators]


def test_shift_n2_no_extra_sign():
    # n = 2: n(m1 - m2) is even, so z maps to 1 + yx with no sign
    f = inclusion_functor("Phi_shifted", ring, n=4, m1=3, m2=1)
    img = f.generator_map["z"]
    ((word, coeff),) = img.terms.items()
    assert coeff == (-1) ** (4 * 2)
    assert coeff == 1


def test_shifted_phi_example():
    f = inclusion_functor("Phi_shifted", ring, n=3, m1=1, m2=0)
    assert render_poly(f.generator_map["z"]) == "-y*x"
    g = inclusion_functor("Psi_shifted", ring, n=3, m1=1, m2=0)
    assert render_poly(g.generator_map["z"]) == "x*y"


def test_shift_composes_additively():
    # shifting by 1 twice gives the same presentation as shifting by 2;
    # the comparison maps differ per word only by the Koszul sign of the
    # canonical identification of the double shift with the total shift
    from semifree.analysis import presentation_equal
    d01 = build_d01(3, ring)
    once, c1 = shift_presentation(d01, {"L0": 1})
    twice, c2 = shift_presentation(once, {"L0[1]": 1})
    direct, c3 = shift_presentation(d01, {"L0": 2})
    rep = presentation_equal(direct, twice,
                             {"L0[2]": "L0[1][1]", "L1": "L1"},
                             {g.name: g.name for g in direct.generators})
    assert rep["equal"], rep["mismatches"]
    yx_like = compose(NcPoly.gen(ring, d01.gen("alpha1")),
                      NcPoly.gen(ring, d01.gen("g")))
    via_two = c2.tilde(c1.tilde(yx_like))
    via_one = c3.tilde(yx_like)
    assert {w: abs(c) for w, c in key_view(via_two).items()} == \
        {w: abs(c) for w, c in key_view(via_one).items()}


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4])
def test_cone_differentials_and_rules(n):
    d01 = build_d01(n, ring)
    coned = cone_extend(d01, "g")
    assert render_poly(coned.differentials["i0"]) == "i1*g"
    assert coned.differentials["i1"].is_zero()
    assert coned.differentials["p0"].is_zero()
    assert render_poly(coned.differentials["p1"]) == "-g*p0"
    degrees = {name: coned.gen(name).degree
               for name in ("i0", "i1", "p0", "p1")}
    assert degrees == {"i0": -1, "i1": 0, "p0": 1, "p1": 0}
    assert_confluent_by_search(coned, 3)


def test_cone_identity_rewrites_to_zero_differential():
    # d(1_{L2}) = 0 after rewriting d(i0 p0 + i1 p1)
    coned = cone_extend(build_d01(3, ring), "g")
    i0 = NcPoly.gen(ring, coned.gen("i0"))
    i1 = NcPoly.gen(ring, coned.gen("i1"))
    p0 = NcPoly.gen(ring, coned.gen("p0"))
    p1 = NcPoly.gen(ring, coned.gen("p1"))
    one = compose(i0, p0) + compose(i1, p1)
    assert coned.normalize(one) == NcPoly.identity(ring, cone_object("g"))
    assert coned.normalize(coned.d(one)).is_zero()


def test_cone_of_zero_morphism():
    a2 = build(ModelId("A2"), ring)
    coned = cone_extend(a2, NcPoly.zero(ring, "K0", "K1"), "Z")
    assert coned.differentials["i0"].is_zero()
    assert coned.differentials["p1"].is_zero()
    assert_confluent_by_search(coned, 3)


def test_second_cone_takes_fresh_names():
    # a name already taken gets "~" appended until it is free
    a2 = build(ModelId("A2"), ring)
    twice = cone_extend(cone_extend(a2, "f"), "f", "C2")
    assert [g.name for g in twice.generators[-4:]] == \
        ["i1~", "i0~", "p0~", "p1~"]
    assert_confluent_by_search(twice, 3)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_alpha2_is_closed(n):
    coned = cone_extend(build_d01(n, ring), "g")
    i1 = NcPoly.gen(ring, coned.gen("i1"))
    p0 = NcPoly.gen(ring, coned.gen("p0"))
    p1 = NcPoly.gen(ring, coned.gen("p1"))
    alpha1 = NcPoly.gen(ring, coned.gen("alpha1"))
    h = NcPoly.gen(ring, coned.gen("h"))
    alpha2 = (compose(compose(i1, alpha1), p1)
              + compose(compose(i1, h), p0).scale((-1) ** n))
    assert coned.normalize(coned.d(alpha2)).is_zero()


def test_cone_rejects_wrong_input():
    d01 = build_d01(3, ring)
    with pytest.raises(ValueError):
        cone_extend(d01, "alpha1")  # degree 2 - n, not 0
    c = new_semifree(ring, ("X",),
                     (Generator("p", "X", "X", -1, 0),
                      Generator("q", "X", "X", 0, 1)),
                     {"p": NcPoly.zero(ring, "X", "X"),
                      "q": NcPoly.zero(ring, "X", "X")})
    bad = new_semifree(ring, ("X",),
                       (Generator("p", "X", "X", -1, 0),
                        Generator("q", "X", "X", 0, 1)),
                       {"p": NcPoly.gen(ring, Generator("q", "X", "X", 0, 1))
                        if False else NcPoly.zero(ring, "X", "X"),
                        "q": NcPoly.zero(ring, "X", "X")})
    # non-closed degree-0 morphism
    e = new_semifree(ring, ("X",),
                     (Generator("r", "X", "X", 1, 0),
                      Generator("s", "X", "X", 0, 1)),
                     {"r": NcPoly.zero(ring, "X", "X"),
                      "s": NcPoly.gen(ring, Generator("r", "X", "X", 1, 0))})
    with pytest.raises(ValueError):
        cone_extend(e, "s")


# ---------------------------------------------------------------------------
# the generator change into the cone extension
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generator_change_images(n):
    d12, functor, images = generator_change_d12(n, ring)
    assert render_poly(images["yx"]) == "alpha1"
    i1 = "i1*alpha1*p1"
    sign = "+" if n % 2 == 0 else "-"
    assert render_poly(images["xy"]) == f"{i1} {sign} i1*h*p0"
    assert render_poly(functor.generator_map["x"]) == "i1"


def test_generator_change_boundary():
    _, functor, _ = generator_change_d12(3, ring)
    img = functor.generator_map["x"]
    assert img.source == "L1" and img.target == cone_object("g")


def test_generator_change_n2_alpha_prime_correspondence():
    # F(1 + yx) corresponds to 1 + alpha1' (the Thm 4.6 bookkeeping)
    d12, functor, images = generator_change_d12(2, ring)
    one = NcPoly.identity(ring, "L1")
    x = NcPoly.gen(ring, d12.gen("x"))
    y = NcPoly.gen(ring, d12.gen("y"))
    target_one = NcPoly.identity(ring, "L1")
    image = functor.target.normalize(functor.apply(one + compose(y, x)))
    alpha1 = NcPoly.gen(ring, functor.target.gen("alpha1"))
    assert image == target_one + alpha1
