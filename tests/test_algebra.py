"""Ring arithmetic, word composition, and the graded Leibniz rule."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
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
    leibniz_d,
    parse_poly,
    render_poly,
)

RINGS = [INTEGERS, RATIONALS, integers_mod(7), integers_mod(10007)]


def two_object_setup(ring, n):
    x = Generator("x", "L1", "L2", 0, 0)
    y = Generator("y", "L2", "L1", 2 - n, 1)
    return x, y


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def value_roundtrip(ring, value):
    v = ring.normalize(value)
    return ring.parse_value(ring.render_value(v)), v


@pytest.mark.parametrize("ring", RINGS)
def test_coefficient_roundtrip_simple(ring):
    back, v = value_roundtrip(ring, 5)
    assert back == v


@given(st.integers(-10**12, 10**12))
def test_coefficient_roundtrip_integers(value):
    back, v = value_roundtrip(INTEGERS, value)
    assert back == v == value


@given(st.fractions())
def test_coefficient_roundtrip_rationals(value):
    back, v = value_roundtrip(RATIONALS, value)
    assert back == v == value


@given(st.integers())
def test_zmod_reduced_representatives(value):
    v = integers_mod(7).normalize(value)
    assert 0 <= v < 7 and (v - value) % 7 == 0


def test_rational_units_and_inverse():
    c = RATIONALS.normalize(Fraction(3, 2))
    assert RATIONALS.is_unit(c)
    assert RATIONALS.mul(c, RATIONALS.inv(c)) == 1
    assert not INTEGERS.is_unit(2)
    assert integers_mod(7).inv(3) == 5


def test_no_floats_accepted():
    for ring in RINGS:
        with pytest.raises(TypeError):
            ring.normalize(1.5)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------

def test_compose_yx_degree():
    # x: L1 -> L2 and y: L2 -> L1 give the word yx of degree 2 - n
    n = 4
    x, y = two_object_setup(INTEGERS, n)
    p = compose(NcPoly.gen(INTEGERS, y), NcPoly.gen(INTEGERS, x))
    assert p.degree() == 2 - n
    assert render_poly(p) == "y*x"
    assert p.source == "L1" and p.target == "L1"


def test_identity_is_unit_for_composition():
    x, _ = two_object_setup(INTEGERS, 3)
    p = NcPoly.gen(INTEGERS, x)
    assert compose(p, NcPoly.identity(INTEGERS, "L1")) == p
    assert compose(NcPoly.identity(INTEGERS, "L2"), p) == p


def test_compose_associative():
    ring = INTEGERS
    a1 = Generator("a1", "A", "B", 0, 0)
    a2 = Generator("a2", "B", "C", 1, 1)
    a3 = Generator("a3", "C", "D", -1, 2)
    p1, p2, p3 = (NcPoly.gen(ring, g) for g in (a1, a2, a3))
    assert compose(p3, compose(p2, p1)) == compose(compose(p3, p2), p1)


def test_compose_boundary_mismatch():
    x, _ = two_object_setup(INTEGERS, 3)
    with pytest.raises(CompositionError):
        compose(NcPoly.gen(INTEGERS, x), NcPoly.gen(INTEGERS, x))


def test_typed_zero_keeps_boundary():
    z = NcPoly.zero(INTEGERS, "A", "B")
    assert z.is_zero() and z.source == "A" and z.target == "B"
    with pytest.raises(CompositionError):
        z + NcPoly.zero(INTEGERS, "B", "A")


# ---------------------------------------------------------------------------
# the Leibniz differential
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,m", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 2)])
def test_leibniz_worked_identity(n, m):
    # d((yx)^m a) = -(-1)^{nm} (yx)^m b with da = -b, dx = dy = 0
    ring = INTEGERS
    x, y = two_object_setup(ring, n)
    b = Generator("b", "L2", "L1", 1, 2)
    a = Generator("a", "L2", "L1", 0, 3)
    table = {
        "x": NcPoly.zero(ring, "L1", "L2"),
        "y": NcPoly.zero(ring, "L2", "L1"),
        "a": -NcPoly.gen(ring, b),
        "b": NcPoly.zero(ring, "L2", "L1"),
    }
    yx = compose(NcPoly.gen(ring, y), NcPoly.gen(ring, x))
    word = NcPoly.gen(ring, a)
    expected = NcPoly.gen(ring, b)
    for _ in range(m):
        word = compose(yx, word)
        expected = compose(yx, expected)
    expected = expected.scale(-((-1) ** (n * m)))
    assert leibniz_d(word, table) == expected


def test_leibniz_identity_is_closed():
    assert leibniz_d(NcPoly.identity(INTEGERS, "L"), {}).is_zero()


def test_leibniz_closed_factors():
    # gamma with d(gamma) = alpha beta - beta alpha delta, all factors closed
    ring = INTEGERS
    alpha = Generator("alpha", "L", "L", 0, 0)
    beta = Generator("beta", "L", "L", 0, 1)
    delta = Generator("delta", "L", "L", 0, 2)
    table = {g.name: NcPoly.zero(ring, "L", "L")
             for g in (alpha, beta, delta)}
    a, b, d = (NcPoly.gen(ring, g) for g in (alpha, beta, delta))
    dgamma = compose(a, b) - compose(compose(b, a), d)
    assert leibniz_d(dgamma, table).is_zero()


@settings(max_examples=60)
@given(st.data())
def test_leibniz_is_a_graded_derivation(data):
    # d(p q) = dp q + (-1)^{|p|} p dq on homogeneous loop polynomials
    ring = INTEGERS
    u = Generator("u", "L", "L", 1, 0)
    v = Generator("v", "L", "L", 2, 1)
    w = Generator("w", "L", "L", 3, 2)
    table = {
        "u": NcPoly.zero(ring, "L", "L"),
        "v": compose(NcPoly.gen(ring, u), NcPoly.gen(ring, u)),
        "w": compose(NcPoly.gen(ring, v), NcPoly.gen(ring, u))
             - compose(NcPoly.gen(ring, u), NcPoly.gen(ring, v)),
    }
    gens = [u, v, w]

    def random_word(min_len):
        length = data.draw(st.integers(min_len, 3))
        letters = tuple(data.draw(st.sampled_from(gens))
                        for _ in range(length))
        coeff = data.draw(st.integers(-3, 3).filter(bool))
        return NcPoly.from_terms(ring, "L", "L", [(letters, coeff)])

    p = random_word(1)
    q = random_word(1)
    if p.degree() is None or q.degree() is None:
        return
    lhs = leibniz_d(compose(p, q), table)
    sign = -1 if p.degree() % 2 else 1
    rhs = (compose(leibniz_d(p, table), q)
           + compose(p, leibniz_d(q, table)).scale(sign))
    assert lhs == rhs


def test_leibniz_missing_entry():
    g = Generator("g", "L", "L", 0, 0)
    with pytest.raises(Exception):
        leibniz_d(NcPoly.gen(INTEGERS, g), {})


# ---------------------------------------------------------------------------
# canonical form, rendering, parsing
# ---------------------------------------------------------------------------

def test_canonical_order_and_idempotence():
    ring = INTEGERS
    a = Generator("a", "L", "L", 0, 0)
    b = Generator("b", "L", "L", 0, 1)
    p = NcPoly.from_terms(ring, "L", "L", [
        ((b, a), 2), (("L"), 1), ((a,), 3), ((b, a), -2), ((a, b), 1),
    ])
    words = [w for w, _ in p.sorted_terms()]
    assert words == ["L", (a,), (a, b)]
    q = NcPoly.from_terms(ring, "L", "L", list(p.terms.items()))
    assert p == q


@pytest.mark.parametrize("ring", RINGS)
def test_render_parse_roundtrip(ring):
    a = Generator("a", "L", "L", 0, 0)
    b = Generator("b", "L", "L", -1, 1)
    lookup = {"a": a, "b": b}.get
    p = NcPoly.from_terms(ring, "L", "L", [
        (("L"), ring.normalize(2)), ((a,), ring.one()),
        ((b, a), ring.neg(ring.normalize(3))),
    ])
    text = render_poly(p)
    assert parse_poly(text, ring, "L", "L", lookup) == p


def test_render_zero_and_signs():
    ring = INTEGERS
    a = Generator("a", "L", "L", 0, 0)
    assert render_poly(NcPoly.zero(ring, "L", "L")) == "0"
    p = -NcPoly.gen(ring, a) + NcPoly.identity(ring, "L")
    assert render_poly(p) == "1_{L} - a"


@given(st.fractions(), st.fractions())
def test_rational_arithmetic_exact(x, y):
    cx, cy = RATIONALS.normalize(x), RATIONALS.normalize(y)
    assert RATIONALS.add(cx, cy) == x + y
    assert RATIONALS.mul(cx, cy) == x * y


def test_ring_parse_roundtrip():
    for ring in RINGS:
        assert Ring.parse(ring.render()) == ring
