"""Rule matching, normalization and relational construction checks."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semifree.algebra import INTEGERS, Generator, NcPoly
from semifree.constructions import tensor
from semifree.dgcat import new_semifree
from semifree.fukaya import ModelId, build
from semifree.rewrite import (
    RuleIndex,
    _replace_at,
    match_rule,
    new_relational,
    normalize_poly,
)

ring = INTEGERS


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
rule_lists = st.lists(
    st.lists(st.sampled_from(LETTERS), min_size=1, max_size=3)
    .map(lambda lhs: (tuple(lhs), None)),
    max_size=8)


A, B, C = LETTERS
# at position 0 the length-2 rule 0 and the length-1 rule 1 both match;
# rule 2 repeats rule 0's lhs
OVERLAPPING = [((A, B), None), ((A,), None), ((A, B), None), ((C,), None)]


@settings(max_examples=300)
@given(rule_lists, st.one_of(letter_words, st.just("X")))
@example(OVERLAPPING, (C, A, B))
@example(OVERLAPPING, (B, A, B))
@example(OVERLAPPING, (B, B))
@example(OVERLAPPING, ())
def test_match_rule_equals_nested_scan(rules, word):
    assert match_rule(RuleIndex(rules), word) == scan_match(rules, word)


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
