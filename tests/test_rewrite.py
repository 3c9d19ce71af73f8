"""Rule matching, normalization and relational construction checks."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semifree.algebra import (
    INTEGERS,
    RATIONALS,
    Generator,
    NcPoly,
    compose,
    integers_mod,
    leibniz_d,
    render_poly,
    render_word,
    word_degree,
)
from semifree.constructions import tensor
from semifree.dgcat import (
    DSquaredNonzero,
    SemifreeDgCat,
    from_json,
    new_semifree,
)
from semifree.fukaya import ModelId, build
from semifree.rewrite import (
    RuleError,
    RuleIndex,
    match_rule,
    new_relational,
    normalize_poly,
)
from helpers import (
    NON_COMPOSABLE_RULE,
    GeneratorRuleIndex,
    generator_match,
    generator_normalize,
)

ring = INTEGERS


# ---------------------------------------------------------------------------
# oracles: the compose-based rewrite step, rule audit and order check that
# normalize_poly, new_relational and SemifreeDgCat replaced.  They match and
# normalize on words of Generators, through the copies in helpers.py of the
# rewriting that preceded rank-coded words.
# ---------------------------------------------------------------------------

def coded(word) -> tuple:
    return () if isinstance(word, str) else tuple(g.rank for g in word)


def _replace_at(ring, word, i, lhs, rhs) -> NcPoly:
    out = rhs
    if i + len(lhs) < len(word):
        right = NcPoly(ring, word[-1].source, word[i + len(lhs)].target,
                       {word[i + len(lhs):]: ring.one()})
        out = compose(out, right)
    if i > 0:
        left = NcPoly(ring, word[i - 1].source, word[0].target,
                      {word[:i]: ring.one()})
        out = compose(left, out)
    return out


def compose_normalize(rules, p):
    index = GeneratorRuleIndex(rules)
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
        for w, c in _replace_at(ring, word, i, lhs, rhs).terms.items():
            pending.append((w, ring.mul(coeff, c)))
    out = NcPoly.zero(ring, p.source, p.target)
    for word, coeff in normal:
        out.add_in_place(NcPoly(ring, p.source, p.target, {word: coeff}))
    return out


def compose_relational(ring, objects, generators, differentials, rules,
                       weights=None):
    cat = SemifreeDgCat(ring, tuple(objects), tuple(generators),
                        dict(differentials), (), tuple(rules),
                        dict(weights or {}))
    index = GeneratorRuleIndex(cat.rules)
    for g in cat.generators:
        residual = generator_normalize(
            index, leibniz_d(cat.differentials[g.name], cat.differentials))
        if not residual.is_zero():
            raise DSquaredNonzero(g.name, residual)
    for lhs, rhs in cat.rules:
        word_poly = NcPoly(ring, lhs[-1].source, lhs[0].target,
                           {lhs: ring.one()})
        residual = generator_normalize(index, cat.d(word_poly) - cat.d(rhs))
        if not residual.is_zero():
            raise DSquaredNonzero(render_word(lhs), residual)
    return cat


def _word_weight(word, weights) -> int:
    if isinstance(word, str):
        return 0
    return sum(weights.get(g.name, 1) for g in word)


def _strictly_smaller(rhs_word, lhs, weights) -> bool:
    wr = _word_weight(rhs_word, weights)
    wl = _word_weight(lhs, weights)
    if wr < wl:
        return True
    if wr > wl:
        return False
    if isinstance(rhs_word, str):
        return True
    if len(rhs_word) != len(lhs):
        return False
    return tuple(g.rank for g in rhs_word) < tuple(g.rank for g in lhs)


def check_rules_by_pairs(rules, weights):
    """The rule checks with _strictly_smaller run once per rhs term."""
    for lhs, rhs in rules:
        if not lhs:
            raise RuleError("empty rule lhs")
        if rhs.source != lhs[-1].source or rhs.target != lhs[0].target:
            raise RuleError(f"rule {render_word(lhs)} -> {render_poly(rhs)} "
                            f"changes boundary")
        lhs_degree = word_degree(lhs)
        for w in rhs.terms:
            if word_degree(w) != lhs_degree:
                raise RuleError(
                    f"rule {render_word(lhs)} -> {render_poly(rhs)} changes "
                    f"degree: lhs has degree {lhs_degree}, rhs term "
                    f"{render_word(w)} has degree {word_degree(w)}")
            if not _strictly_smaller(w, lhs, weights):
                raise RuleError(
                    f"rule {render_word(lhs)} -> {render_poly(rhs)} does not "
                    f"decrease the reduction order at {render_word(w)}")


def outcome(build_it):
    """("ok", result) or (exception type, its text), and for a d^2 failure
    also the generator or rule lhs it names."""
    try:
        return "ok", build_it()
    except DSquaredNonzero as err:
        # the text renders the residual, sorted
        return DSquaredNonzero, str(err), err.gen_name
    except (RuleError, ValueError) as err:
        return type(err), str(err)


# ---------------------------------------------------------------------------
# oracle: the nested scan over every rule at every position
# ---------------------------------------------------------------------------

def scan_match(rules, word):
    if isinstance(word, str):
        return None
    n = len(word)
    for i in range(n):
        for idx, (lhs, _) in enumerate(rules):
            k = len(lhs)
            if i + k <= n and all(word[i + j].name == lhs[j].name
                                  for j in range(k)):
                return i, idx
    return None


def scan_normalize(rules, p):
    ring = p.ring
    out = NcPoly.zero(ring, p.source, p.target)
    pending = list(p.terms.items())
    while pending:
        word, coeff = pending.pop()
        hit = scan_match(rules, word)
        if hit is None:
            out = out + NcPoly(ring, p.source, p.target, {word: coeff})
            continue
        i, idx = hit
        lhs, rhs = rules[idx]
        for w, c in _replace_at(ring, word, i, lhs, rhs).terms.items():
            pending.append((w, ring.mul(coeff, c)))
    return out


# A three-letter alphabet on one object makes duplicate, nested and
# overlapping left-hand sides common.
LETTERS = tuple(Generator(name, "X", "X", 0, rank)
                for rank, name in enumerate("abc"))
letter_words = st.lists(st.sampled_from(LETTERS), max_size=8).map(tuple)
ZERO = NcPoly.zero(ring, "X", "X")
rule_lists = st.lists(
    st.lists(st.sampled_from(LETTERS), min_size=1, max_size=3)
    .map(lambda lhs: (tuple(lhs), ZERO)),
    max_size=8)


A, B, C = LETTERS
# at position 0 the length-2 rule 0 and the length-1 rule 1 both match;
# rule 2 repeats rule 0's lhs
OVERLAPPING = [((A, B), ZERO), ((A,), ZERO), ((A, B), ZERO), ((C,), ZERO)]


@settings(max_examples=300)
@given(rule_lists, st.one_of(letter_words, st.just("X")))
@example(OVERLAPPING, (C, A, B))
@example(OVERLAPPING, (B, A, B))
@example(OVERLAPPING, (B, B))
@example(OVERLAPPING, ())
def test_match_rule_equals_nested_scan(rules, word):
    assert match_rule(RuleIndex(rules), coded(word)) == \
        scan_match(rules, word)


@st.composite
def tensor_polys(draw, cat):
    """A polynomial of composable words of length 1-6 with one boundary."""
    by_target = {}
    for g in cat.generators:
        by_target.setdefault(g.target, []).append(g)
    words = []
    for _ in range(draw(st.integers(1, 4))):
        word = [draw(st.sampled_from(cat.generators))]
        for _ in range(draw(st.integers(0, 5))):
            following = by_target.get(word[-1].source)
            if not following:
                break
            word.append(draw(st.sampled_from(following)))
        words.append(tuple(word))
    source, target = words[0][-1].source, words[0][0].target
    terms = {}
    for word in words:
        if word[-1].source == source and word[0].target == target:
            terms[word] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    return NcPoly(ring, source, target, terms)


A2_C3 = tensor(build(ModelId("A2"), ring), build(ModelId.parse("C:3"), ring))
# 29 generators, 198 interchange rules, odd letters on both sides
M11_S211 = tensor(build(ModelId.parse("M:1,1"), ring),
                  build(ModelId.parse("S:2,1,1"), ring))


def check_normalize_poly(cat, p):
    got = normalize_poly(RuleIndex(cat.rules), p)
    want = scan_normalize(cat.rules, p)
    # same terms in the same insertion order
    assert list(got.terms.items()) == list(want.terms.items())
    assert (got.source, got.target) == (want.source, want.target)
    assert cat.normalize(p).terms == want.terms


@settings(max_examples=200)
@given(tensor_polys(A2_C3))
def test_normalize_poly_equals_scan_normalization_a2_c3(p):
    check_normalize_poly(A2_C3, p)


@settings(max_examples=100)
@given(tensor_polys(M11_S211))
def test_normalize_poly_equals_scan_normalization_m11_s211(p):
    check_normalize_poly(M11_S211, p)


# ---------------------------------------------------------------------------
# new_relational runs new_semifree's structural checks
# ---------------------------------------------------------------------------

def relational(ring, objects, generators, differentials):
    return new_relational(ring, objects, generators, differentials, rules=())


@pytest.mark.parametrize("construct", [new_semifree, relational])
def test_missing_differential_raises_value_error(construct):
    a = Generator("a", "X", "X", 0, 0)
    with pytest.raises(ValueError, match="missing differential for a"):
        construct(ring, ("X",), (a,), {})


@pytest.mark.parametrize("construct", [new_semifree, relational])
def test_duplicate_objects_raise_value_error(construct):
    with pytest.raises(ValueError, match="duplicate object ids"):
        construct(ring, ("X", "X"), (), {})


# ---------------------------------------------------------------------------
# spliced rewriting against the compose-based oracles
# ---------------------------------------------------------------------------

RINGS = {"Z": INTEGERS, "Q": RATIONALS, "Zmod:6": integers_mod(6)}
COEFFS = {"Z": [-3, -2, -1, 1, 2, 3], "Q": [-2, 1, 3, "1/2", "-2/3"],
          "Zmod:6": [1, 2, 3, 4, 5]}


def _coeff(ring_text, c):
    return RINGS[ring_text].parse_value(str(c))


@st.composite
def shortening_problems(draw):
    """A ring, rules over LETTERS whose rhs words are shorter than their lhs
    (so normalization ends; a rhs term may be the identity 1_X), and a
    polynomial X -> X to normalize."""
    ring_text = draw(st.sampled_from(sorted(RINGS)))
    ring = RINGS[ring_text]
    coeffs = st.sampled_from(COEFFS[ring_text])

    def terms(max_len, count):
        out = []
        for _ in range(count):
            n = draw(st.integers(0, max_len))
            word = tuple(draw(st.sampled_from(LETTERS)) for _ in range(n))
            out.append((word or "X", _coeff(ring_text, draw(coeffs))))
        return out

    rules = []
    for _ in range(draw(st.integers(1, 5))):
        lhs = tuple(draw(st.lists(st.sampled_from(LETTERS), min_size=1,
                                  max_size=3)))
        rhs = NcPoly.from_terms(ring, "X", "X",
                                terms(len(lhs) - 1, draw(st.integers(0, 3))))
        rules.append((lhs, rhs))
    p = NcPoly.from_terms(ring, "X", "X", terms(6, draw(st.integers(1, 5))))
    return rules, p


@settings(max_examples=300, deadline=None)
@given(shortening_problems())
def test_spliced_normalize_equals_compose_rewrites(problem):
    rules, p = problem
    got = normalize_poly(RuleIndex(rules), p)
    want = compose_normalize(rules, p)
    # the same terms in the same insertion order
    assert list(got.terms.items()) == list(want.terms.items())
    assert (got.ring, got.source, got.target) == \
        (want.ring, want.source, want.target)


@pytest.mark.parametrize("ring_text", sorted(RINGS))
@pytest.mark.parametrize("word", [(A, A), (A, A, B), (B, A, A, C), (B, A, A)],
                         ids=["whole", "start", "middle", "end"])
def test_identity_rhs_term_spliced_at_every_position(ring_text, word):
    # a*a -> c + 2*1_X, as in the spliced_reducible category; over Zmod:6
    # the coefficient 3 times 2 is a zero product
    ring = RINGS[ring_text]
    rhs = NcPoly.from_terms(ring, "X", "X", [((C,), 1), ("X", 2)])
    rules = [((A, A), rhs)]
    p = NcPoly.from_terms(ring, "X", "X", [(word, 3), ((C, B), 1)])
    got = normalize_poly(RuleIndex(rules), p)
    assert list(got.terms.items()) == \
        list(compose_normalize(rules, p).terms.items())
    rest = word[:word.index(A)] + word[word.index(A) + 2:]
    assert got.terms.get(rest or "X", 0) == \
        ring.mul(ring.normalize(3), ring.normalize(2))


def test_rewrite_with_rhs_over_another_ring_is_an_error():
    rules = [((A, B), NcPoly.gen(RATIONALS, C))]
    p = NcPoly(ring, "X", "X", {(C, A, B, C): 1})
    with pytest.raises(ValueError, match="mixed coefficient rings"):
        normalize_poly(RuleIndex(rules), p)
    with pytest.raises(ValueError, match="mixed coefficient rings"):
        compose_normalize(rules, p)


def test_words_over_equal_generator_copies_match():
    copies = tuple(Generator(*g) for g in (B, A, B, C))
    assert copies[1] == A and copies[1] is not A
    index = RuleIndex([((A, B), NcPoly.gen(ring, C))])
    assert match_rule(index, coded(copies)) == (1, 0)
    p = NcPoly(ring, "X", "X", {copies: 2})
    assert normalize_poly(index, p).terms == {(B, C, C): 2}


# One object, two closed letters of degree 0 and two of degree -1 whose
# differentials are drawn, so d^2 = 0 always holds and only the rules can
# break compatibility with d.
P0 = Generator("p", "X", "X", 0, 0)
Q0 = Generator("q", "X", "X", 0, 1)
E1 = Generator("e", "X", "X", -1, 2)
F1 = Generator("f", "X", "X", -1, 3)
DG_LETTERS = (P0, Q0, E1, F1)
DG_WORDS = ["X"] + [w for n in (1, 2, 3)
                    for w in itertools.product(DG_LETTERS, repeat=n)]


@st.composite
def rule_problems(draw):
    ring_text = draw(st.sampled_from(sorted(RINGS)))
    ring = RINGS[ring_text]
    coeffs = st.sampled_from(COEFFS[ring_text])

    def poly(words):
        chosen = draw(st.lists(st.sampled_from(words), max_size=3)
                      if words else st.just([]))
        return NcPoly.from_terms(ring, "X", "X", [
            (w, _coeff(ring_text, draw(coeffs))) for w in chosen])

    # words of degree 0 and length at most 2: over p, q and the identity
    closed = [w for w in DG_WORDS if word_degree(w) == 0 and len(w) <= 2]
    table = {"p": NcPoly.zero(ring, "X", "X"),
             "q": NcPoly.zero(ring, "X", "X"),
             "e": poly(closed), "f": poly(closed)}
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = tuple(draw(st.lists(st.sampled_from(DG_LETTERS), min_size=2,
                                  max_size=3)))
        smaller = [w for w in DG_WORDS if word_degree(w) == word_degree(lhs)
                   and _strictly_smaller(w, lhs, {})]
        rules.append((lhs, poly(smaller)))
    return ring, table, rules


def _rhs(ring, *terms):
    return NcPoly.from_terms(ring, "X", "X", terms)


@settings(max_examples=300, deadline=None)
@given(rule_problems())
@example((INTEGERS, {"p": _rhs(ring), "q": _rhs(ring),
                     "e": _rhs(ring, ((Q0,), 1)), "f": _rhs(ring)},
          [((E1, P0), _rhs(ring, ((P0, E1), 1)))]))
def test_fused_rule_audit_equals_normalized_difference(problem):
    ring, table, rules = problem
    got = outcome(lambda: new_relational(ring, ("X",), DG_LETTERS, table,
                                         rules))
    want = outcome(lambda: compose_relational(ring, ("X",), DG_LETTERS,
                                              table, rules))
    assert got == want


def test_rule_breaking_compatibility_names_lhs_and_residual():
    # d(e*p) = q*p but d(p*e) = p*q, and no rule relates them
    table = {"p": _rhs(ring), "q": _rhs(ring), "e": _rhs(ring, ((Q0,), 1)),
             "f": _rhs(ring)}
    rules = [((E1, P0), _rhs(ring, ((P0, E1), 1)))]
    with pytest.raises(DSquaredNonzero) as err:
        new_relational(ring, ("X",), DG_LETTERS, table, rules)
    assert err.value.gen_name == "e*p"
    assert render_poly(err.value.residual) == "-p*q + q*p"


weight_maps = st.one_of(st.just({}), st.dictionaries(
    st.sampled_from([g.name for g in DG_LETTERS]), st.integers(0, 3)))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(
           st.lists(st.sampled_from(DG_LETTERS), min_size=1,
                    max_size=3).map(tuple),
           st.lists(st.sampled_from(DG_WORDS), max_size=3)), min_size=1,
           max_size=3),
       weight_maps)
# an identity rhs term is below an lhs whose letters all weigh 0
@example([((P0, Q0), ["X"])], {"p": 0, "q": 0})
@example([((P0,), ["X"]), ((E1,), [(P0, E1)])], {"p": 0})
def test_hoisted_order_checks_equal_pairwise_checks(specs, weights):
    rules = [(lhs, NcPoly.from_terms(ring, "X", "X", [(w, 1) for w in rhs]))
             for lhs, rhs in specs]
    base = SemifreeDgCat(ring, ("X",), DG_LETTERS,
                         {g.name: _rhs(ring) for g in DG_LETTERS})
    got = outcome(lambda: replace(base, rules=tuple(rules), weights=weights))
    want = outcome(lambda: check_rules_by_pairs(rules, weights))
    assert got[0] == "ok" if want[0] == "ok" else got == want


# ---------------------------------------------------------------------------
# rule words must compose: the rewriting and the rule/d check splice coded
# words without checking them
# ---------------------------------------------------------------------------

def test_non_composable_rule_lhs_is_rejected():
    doc, message = NON_COMPOSABLE_RULE
    with pytest.raises(RuleError) as err:
        from_json(doc)
    assert str(err.value) == message
    a, b, c = (Generator(name, "X", "Y", 0, rank)
               for rank, name in enumerate("abc"))
    table = {g.name: NcPoly.zero(ring, "X", "Y") for g in (a, b, c)}
    with pytest.raises(RuleError) as err:
        new_relational(ring, ("X", "Y"), (a, b, c), table,
                       [((b, a), NcPoly.zero(ring, "X", "Y"))])
    assert str(err.value) == message
    # the same words as an rhs term: c, of weight 3, -> b*a, of weight 2
    with pytest.raises(RuleError) as err:
        new_relational(ring, ("X", "Y"), (a, b, c), table,
                       [((c,), NcPoly(ring, "X", "Y", {(b, a): 1}))],
                       weights={"c": 3})
    assert str(err.value) == message


@pytest.mark.parametrize("rank", [7, 1], ids=["new-rank", "shared-rank"])
def test_rule_letter_outside_the_category_is_rejected(rank):
    # rules are coded by rank, so f (a letter no generator is, with a rank
    # of its own or b's) must not be matched, decoded or differentiated
    # as a generator
    a = Generator("a", "X", "X", 0, 0)
    b = Generator("b", "X", "X", 0, 1)
    f = Generator("f", "X", "X", 0, rank)
    table = {g.name: NcPoly.zero(ring, "X", "X") for g in (a, b)}
    for rule in [((f, a), ZERO), ((a, b), NcPoly.gen(ring, f))]:
        with pytest.raises(RuleError) as err:
            new_relational(ring, ("X",), (a, b), table, [rule])
        assert str(err.value).endswith(
            "uses f, which is not a generator of the category")


# Two objects: closed letters of degree 0 (p on X, q on Y, s: X -> Y,
# t: Y -> X) and letters of degree -1 whose differentials are drawn among
# the closed words (e: X -> Y, f: Y -> X, h: X -> X), so d^2 = 0 always
# holds and only the rules can break compatibility with d.
TWO_LETTERS = tuple(Generator(*spec, rank) for rank, spec in enumerate([
    ("p", "X", "X", 0), ("q", "Y", "Y", 0), ("s", "X", "Y", 0),
    ("t", "Y", "X", 0), ("e", "X", "Y", -1), ("f", "Y", "X", -1),
    ("h", "X", "X", -1)]))
TWO_WORDS = ["X", "Y"] + [
    w for n in (1, 2, 3) for w in itertools.product(TWO_LETTERS, repeat=n)
    if all(w[i + 1].target == w[i].source for i in range(n - 1))]


def _ends(word):
    return (word, word) if isinstance(word, str) else \
        (word[-1].source, word[0].target)


@st.composite
def two_object_rule_problems(draw):
    ring_text = draw(st.sampled_from(sorted(RINGS)))
    ring = RINGS[ring_text]
    coeffs = st.sampled_from(COEFFS[ring_text])

    def poly(words, source, target):
        chosen = draw(st.lists(st.sampled_from(words), max_size=3)
                      if words else st.just([]))
        return NcPoly.from_terms(ring, source, target, [
            (w, _coeff(ring_text, draw(coeffs))) for w in chosen])

    def closed(source, target):
        return [w for w in TWO_WORDS if word_degree(w) == 0 and len(w) <= 2
                and _ends(w) == (source, target)]

    table = {g.name: (poly(closed(g.source, g.target), g.source, g.target)
                      if g.degree else NcPoly.zero(ring, g.source, g.target))
             for g in TWO_LETTERS}
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = draw(st.sampled_from([w for w in TWO_WORDS
                                    if not isinstance(w, str) and len(w) > 1]))
        smaller = [w for w in TWO_WORDS if _ends(w) == _ends(lhs)
                   and word_degree(w) == word_degree(lhs)
                   and _strictly_smaller(w, lhs, {})]
        rules.append((lhs, poly(smaller, *_ends(lhs))))
    return ring, table, rules


@settings(max_examples=300, deadline=None)
@given(two_object_rule_problems())
def test_two_object_rule_audit_equals_normalized_difference(problem):
    # the outcome, with the residual's text on a failure, is the oracle's
    ring, table, rules = problem
    got = outcome(lambda: new_relational(ring, ("X", "Y"), TWO_LETTERS,
                                         table, rules))
    want = outcome(lambda: compose_relational(ring, ("X", "Y"), TWO_LETTERS,
                                              table, rules))
    assert got == want
