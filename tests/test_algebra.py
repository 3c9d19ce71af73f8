"""Ring arithmetic, word composition, and the graded Leibniz rule."""

import functools
import time
from fractions import Fraction

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
    _MR_LIMIT,
    _checked,
    _is_prime,
    _concat,
    _is_number,
    _split_terms,
    accumulate,
    compose,
    integers_mod,
    leibniz_d,
    parse_poly,
    render_poly,
)
from semifree.fukaya import ModelId, build

RINGS = [INTEGERS, RATIONALS, integers_mod(7), integers_mod(10007)]


def two_object_setup(ring, n):
    x = Generator("x", "L1", "L2", 0, 0)
    y = Generator("y", "L2", "L1", 2 - n, 1)
    return x, y


# ---------------------------------------------------------------------------
# coefficients
# ---------------------------------------------------------------------------

def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_is_prime_agrees_with_trial_division_below_200000():
    assert [n for n in range(200_000) if _is_prime(n)] == \
        [n for n in range(200_000) if trial_division_is_prime(n)]


@pytest.mark.parametrize("n,prime", [
    # strong pseudoprimes to the bases 2..11, 2..13, 2..17 and 2..23
    (3215031751, False), (2152302898747, False), (3474749660383, False),
    (341550071728321, False),
    # the benchmark's primes, 10007, 2**61 - 1 and 2**32 + 1 = 641 * 6700417
    (1000000007, True), (1000000009, True), (998244353, True),
    (1000000021, True), (1000000033, True), (1000000087, True),
    (1000000093, True), (1000000097, True), (10007, True),
    (2**61 - 1, True), (2**32 + 1, False),
    # above the twelve-base bound, decided by trial division
    (43 * (10**24 + 7), False),
])
def test_is_prime_on_pseudoprimes_and_large_primes(n, prime):
    assert _is_prime(n) is prime
    assert integers_mod(n).is_field() is prime


def test_is_field_refuses_an_undecidable_modulus():
    # 2**89 - 1 is prime; trial division once ran on it without end
    p = 2**89 - 1
    assert p > _MR_LIMIT
    started = time.perf_counter()
    with pytest.raises(ValueError) as err:
        integers_mod(p).is_field()
    assert time.perf_counter() - started < 1
    assert str(err.value).startswith(f"cannot decide whether {p} is prime")
    assert f"{_MR_LIMIT:,}" in str(err.value)


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


def test_integral_rationals_are_ints():
    two = RATIONALS.normalize(Fraction(4, 2))
    assert type(two) is int and two == 2
    half = RATIONALS.normalize(Fraction(1, 2))
    assert type(half) is Fraction and half == Fraction(1, 2)
    assert type(RATIONALS.inv(-1)) is int and RATIONALS.inv(-1) == -1
    assert RATIONALS.inv(Fraction(1, 3)) == 3
    assert type(RATIONALS.inv(Fraction(1, 3))) is int
    assert type(RATIONALS.parse_value("6/3")) is int
    assert type(RATIONALS.parse_value("3/4")) is Fraction
    assert type(RATIONALS.zero()) is int and type(RATIONALS.one()) is int
    # an int renders as the Fraction of the same value did
    assert RATIONALS.render_value(two) == str(Fraction(2))


@pytest.mark.parametrize("text", ["1/0", " -3/0 ", "0/0"])
def test_zero_denominator_is_a_value_error(text):
    with pytest.raises(ValueError, match=r"zero denominator in '-?\d/0'"):
        RATIONALS.parse_value(text)


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


def oracle_leibniz_d(p, table) -> dict:
    """The former leibniz_d: one checked piece per spliced letter, summed
    by copying the running total; dict arithmetic written out here so the
    oracle shares no code with the accumulator it checks."""
    ring = p.ring

    def add_into(terms, items):
        for w, c in items:
            s = ring.add(terms.get(w, ring.zero()), c)
            if ring.is_zero(s):
                terms.pop(w, None)
            else:
                terms[w] = s
        return terms

    out = {}
    for word, coeff in p.terms.items():
        if isinstance(word, str):
            continue
        left_degree = 0
        for j, g in enumerate(word):
            dg = table[g.name]
            if dg.terms:
                scale = ring.mul(ring.normalize(-1 if left_degree % 2 else 1),
                                 coeff)
                piece = {}
                for w, c in dg.terms.items():
                    if isinstance(w, str):
                        whole = word[:j] + word[j + 1:] or w
                    else:
                        whole = word[:j] + w + word[j + 1:]
                    add_into(piece, [(whole, ring.normalize(ring.mul(scale, c)))])
                out = add_into(dict(out), piece.items())
            left_degree += g.degree
    return out


@functools.cache
def built_model(spec: str, ring_text: str):
    return build(ModelId.parse(spec), Ring.parse(ring_text))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_leibniz_matches_piecewise_oracle(data):
    # term for term and in insertion order, on random words of built models
    cat = built_model(data.draw(st.sampled_from(
                          ["M:1,1", "C:1", "S:2,1,1", "B01:3", "D01:3"])),
                      data.draw(st.sampled_from(["Z", "Q", "Zmod:7"])))
    ring = cat.ring
    out_of = {}
    for g in cat.generators:
        out_of.setdefault(g.source, []).append(g)
    start = data.draw(st.sampled_from(cat.objects))
    words = []
    for _ in range(data.draw(st.integers(1, 4))):
        word, tip = (), start
        for _ in range(data.draw(st.integers(0, 5))):
            if tip not in out_of:
                break
            g = data.draw(st.sampled_from(out_of[tip]))
            word, tip = (g,) + word, g.target
        words.append(word or start)
    end = words[0] if isinstance(words[0], str) else words[0][0].target
    items = [(w, data.draw(st.integers(-5, 5)))
             for w in words
             if (w if isinstance(w, str) else w[0].target) == end]
    p = NcPoly.from_terms(ring, start, end, items)
    got = leibniz_d(p, cat.differentials)
    assert (got.ring, got.source, got.target) == (ring, start, end)
    assert list(got.terms.items()) == \
        list(oracle_leibniz_d(p, cat.differentials).items())


def test_leibniz_checks_spliced_words_and_rings():
    ring = INTEGERS
    x, y = two_object_setup(ring, 3)
    # d(x) lands L2 -> L1, so splicing it into y*x breaks composability
    bad = {"x": NcPoly.gen(ring, y), "y": NcPoly.zero(ring, "L2", "L1")}
    with pytest.raises(CompositionError):
        leibniz_d(compose(NcPoly.gen(ring, y), NcPoly.gen(ring, x)), bad)
    mixed = {"x": NcPoly.zero(ring, "L1", "L2"),
             "y": NcPoly.gen(RATIONALS, y)}
    with pytest.raises(ValueError, match="mixed coefficient rings"):
        leibniz_d(NcPoly.gen(ring, y), mixed)


def test_add_in_place_checks_each_piece():
    ring = INTEGERS
    x, y = two_object_setup(ring, 3)
    out = NcPoly.zero(ring, "L1", "L2")
    out.add_in_place(NcPoly.gen(ring, x), 3)
    out.add_in_place(NcPoly.gen(ring, x), -3)
    assert out.terms == {}
    out.add_in_place(NcPoly.gen(ring, x), 2)
    assert out == NcPoly.gen(ring, x, 2)
    with pytest.raises(CompositionError):
        out.add_in_place(NcPoly.gen(ring, y))
    with pytest.raises(ValueError, match="mixed coefficient rings"):
        out.add_in_place(NcPoly.gen(RATIONALS, x))


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


def from_terms_by_pipeline(ring, source, target, items) -> NcPoly:
    """NcPoly.from_terms as it was before its one loop: each word through
    _checked and each value through ring.normalize, summed by accumulate;
    kept as its oracle."""
    return NcPoly(ring, source, target, accumulate(ring, {}, (
        (_checked(w, source, target), ring.normalize(v)) for w, v in items)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(["x", "y", "yx", "xy", "xx", "yxy", "", "L1", "L2"]),
    st.sampled_from([0, 1, -1, 3, 7, Fraction(1, 2), 1.5])), max_size=5),
       st.sampled_from([INTEGERS, RATIONALS, integers_mod(7)]),
       st.sampled_from([("L1", "L1"), ("L1", "L2"), ("L2", "L1")]))
def test_from_terms_matches_the_pipeline_it_replaced(items, ring, ends):
    # the same terms in the same order, or the same first error; x: L1 ->
    # L2 and y: L2 -> L1, so "xx" does not compose and "" is the empty word
    x, y = two_object_setup(ring, 3)
    letters = {"x": x, "y": y}
    items = [(w if w.startswith("L") else tuple(letters[c] for c in w), v)
             for w, v in items]

    def outcome(how):
        try:
            p = how(ring, *ends, items)
        except (ValueError, TypeError, CompositionError) as err:
            return type(err), str(err)
        return list(p.terms.items())
    assert outcome(NcPoly.from_terms) == outcome(from_terms_by_pipeline)


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


def split_terms_by_char(text: str):
    """The character loop _split_terms replaced, kept as its oracle."""
    terms = []
    sign = 1
    depth = 0
    buf = []
    for ch in text:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        if depth == 0 and ch in "+-" and buf and buf[-1] == " ":
            terms.append((sign, "".join(buf).strip()))
            sign = 1 if ch == "+" else -1
            buf = []
            continue
        buf.append(ch)
    terms.append((sign, "".join(buf).strip()))
    out = []
    for s, t in terms:
        if t.startswith("-"):
            s, t = -s, t[1:].strip()
        if t:
            out.append((s, t))
    return out


TERM_PIECES = st.sampled_from(
    ["x", "y*x", "2*x", "1_{X}", "1_{L_v}", " + ", " - ", "+", "-", " ", "  ",
     "{", "}", "{a + b}", "{{a} - b}", "1_{X + Y}", "\t", "3/4*"])


@settings(max_examples=500, deadline=None)
@given(st.lists(TERM_PIECES, max_size=12).map("".join)
       | st.text(alphabet=" +-{}x*1_\t", max_size=30))
def test_split_terms_matches_character_loop(text):
    # identities 1_{X}, unbalanced braces and nested braces included
    assert _split_terms(text) == split_terms_by_char(text)


def parse_poly_by_factors(text, ring, source, target, lookup):
    """parse_poly as it was before a term's word was built from its letters
    at once: every token tested as an identity, then as a number, and the
    factors folded by _concat; kept as its oracle.  An identity factor must
    sit on the object next to it: when it is read, the source of the
    nearest generator on its left, or else the first identity's object;
    after the term is read, the first identity left of every generator
    must sit on the first generator's target."""
    text = text.strip()
    if text in ("", "0"):
        return NcPoly.zero(ring, source, target)
    items = []
    for sign, chunk in split_terms_by_char(text):
        coeff = ring.one()
        factors = []
        for tok in chunk.split("*"):
            tok = tok.strip()
            if not tok:
                raise ValueError(f"bad term {chunk!r}")
            if tok.startswith("1_{") and tok.endswith("}"):
                left = [f[0] for f in factors if isinstance(f, tuple)]
                units = [f for f in factors if isinstance(f, str)]
                at = (left[-1].source if left else
                      units[0] if units else tok[3:-1])
                if tok[3:-1] != at:
                    raise ValueError(f"{tok} in term {chunk!r} stands at "
                                     f"object {at}")
                factors.append(tok[3:-1])
            elif _is_number(tok):
                coeff = ring.mul(coeff, ring.parse_value(tok))
            else:
                g = lookup(tok)
                if g is None:
                    raise ValueError(f"unknown generator {tok!r}")
                factors.append((g,))
        gens = [f[0] for f in factors if isinstance(f, tuple)]
        if gens and isinstance(factors[0], str) and \
                factors[0] != gens[0].target:
            raise ValueError(f"1_{{{factors[0]}}} in term {chunk!r} stands "
                             f"at object {gens[0].target}")
        if not factors:
            raise ValueError(f"term {chunk!r} has no word part")
        if sign < 0:
            coeff = ring.neg(coeff)
        word = None
        for f in factors:
            word = f if word is None else _concat(word, f)
        items.append((word, coeff))
    return NcPoly.from_terms(ring, source, target, items)


# a, b on L; "2" is a generator name that parses as a number; m: L -> M
# and n: M -> L place identities on two objects
PARSE_LETTERS = {name: Generator(name, "L", "L", 0, i)
                 for i, name in enumerate(["a", "b", "2", "b2"])}
PARSE_LETTERS["m"] = Generator("m", "L", "M", 0, 4)
PARSE_LETTERS["n"] = Generator("n", "M", "L", 0, 5)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(
    ["a", "b", "b2", "2", "-3", "+1", "3/4", "1_{L}", "1_{M}", "q", "", " ",
     "*", " + ", " - ", "-", "1_{", "}", "0", "m", "n"]), max_size=10)
       .map("".join),
       st.sampled_from([INTEGERS, RATIONALS, integers_mod(7)]),
       st.sampled_from([("L", "L"), ("L", "M"), ("M", "L")]))
@example("1_{M}*a", INTEGERS, ("L", "L"))
@example("b*1_{L} - 2*1_{L}*1_{M}", INTEGERS, ("L", "L"))
@example("1_{L}*1_{L}*a*1_{L}", RATIONALS, ("L", "L"))
@example("1_{M}*m*1_{L}*a - 1_{L}*m", INTEGERS, ("L", "M"))
@example("n*1_{L}", INTEGERS, ("M", "L"))
@example("-a", INTEGERS, ("L", "L"))
@example("- a", INTEGERS, ("L", "L"))
@example("-2*1_{L}", integers_mod(7), ("L", "L"))
@example("a\t+ b", INTEGERS, ("L", "L"))
@example("1_{L}", RATIONALS, ("L", "L"))
def test_parse_poly_matches_factor_folding(text, ring, ends):
    # the same polynomial, or the same error, as the factor-by-factor parse
    def parse(how):
        try:
            return how(text, ring, *ends, PARSE_LETTERS.get)
        except (ValueError, ZeroDivisionError, CompositionError) as err:
            return type(err), str(err)
    assert parse(parse_poly) == parse(parse_poly_by_factors)


# a: L -> L and b: L -> M
ENDS = {"a": Generator("a", "L", "L", 0, 0), "b": Generator("b", "L", "M", 0, 1)}


@pytest.mark.parametrize("text,source,target,want", [
    ("1_{L}*a", "L", "L", "a"),
    ("a*1_{L}", "L", "L", "a"),
    ("1_{L}", "L", "L", "1_{L}"),
    ("1_{M}*b*1_{L}", "L", "M", "b"),
    ("2*1_{L}*1_{L}", "L", "L", "2*1_{L}"),
])
def test_identity_factor_on_its_object_is_a_unit(text, source, target, want):
    p = parse_poly(text, INTEGERS, source, target, ENDS.get)
    assert render_poly(p) == want


@pytest.mark.parametrize("text,source,target,message", [
    # the first once loaded silently as a
    ("1_{M}*a", "L", "L", "1_{M} in term '1_{M}*a' stands at object L"),
    ("a*1_{M}", "L", "L", "1_{M} in term 'a*1_{M}' stands at object L"),
    ("1_{L}*b", "L", "M", "1_{L} in term '1_{L}*b' stands at object M"),
    ("b*1_{M}", "L", "M", "1_{M} in term 'b*1_{M}' stands at object L"),
    ("1_{L}*1_{M}", "L", "L", "1_{M} in term '1_{L}*1_{M}' stands at "
                              "object L"),
])
def test_identity_factor_off_its_object_is_an_error(text, source, target,
                                                    message):
    with pytest.raises(ValueError) as err:
        parse_poly(text, INTEGERS, source, target, ENDS.get)
    assert str(err.value) == message


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
