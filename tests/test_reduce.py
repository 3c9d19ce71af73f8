"""Basis change, cancellation, substitution, strictification."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semifree.algebra import (
    Generator,
    INTEGERS,
    NcPoly,
    RATIONALS,
    compose,
    integers_mod,
    render_poly,
)
from semifree.constructions import tensor
from semifree.dgcat import audit_d_squared, new_semifree, to_json
from semifree.fukaya import ModelId, build
from semifree.reduce import (
    cancel_pair,
    change_basis,
    greedy_simplify,
    replay,
    set_generator,
    strictify_t,
)
from semifree.plumbing import (
    RandomPlumbingConfig,
    build_wrapped,
    random_plumbing,
)
from semifree.twisted import build_d12
from semifree.analysis import presentation_equal
from semifree.rewrite import RuleError
from helpers import cancellable_pairs, steps_from_provenance
from paper_models import build_e12, eliminate_generator, surface_relation_form

ring = INTEGERS


# ---------------------------------------------------------------------------
# change_basis
# ---------------------------------------------------------------------------

def test_change_basis_sign_flip():
    s = build(ModelId.parse("S:3,2,0"), ring)
    out = change_basis(s, "a1", -1)
    assert render_poly(out.differentials["h"]) == "-a1 + a2"
    audit_d_squared(out)


def test_change_basis_generator_change_proof():
    # y := (-1)^n c + alpha1 a inside the first cone-side form
    for n in (3, 4):
        e12 = build_e12(n, ring, first_form=True)
        alpha1 = NcPoly.gen(ring, e12.gen("alpha1"))
        a = NcPoly.gen(ring, e12.gen("a"))
        out = change_basis(e12, "c", (-1) ** n, compose(alpha1, a), "y")
        assert out.differentials["y"].is_zero()
        # the rule c x -> 0 becomes y x -> alpha1
        rules = {tuple(g.name for g in lhs): render_poly(rhs)
                 for lhs, rhs in out.rules}
        assert rules[("y", "x")] == "alpha1"
        # eliminating alpha1 = yx lands on the second form
        final = eliminate_generator(out, "alpha1")
        canon = build_e12(n, ring)
        rep = presentation_equal(canon, final,
                                 {"L1": "L1", "L2": "L2"},
                                 {g.name: g.name for g in canon.generators})
        assert rep["equal"], rep["mismatches"]


def test_eliminate_generator_drops_a_rule_the_others_join_through():
    # x*y -> n, a -> x*y and a -> n are confluent, but without the first
    # rule a has the normal forms x*y and n; eliminating n = x*y makes
    # both rules on a the one rule a -> x*y
    x, y, n, a = (Generator(name, "L", "L", 0, rank)
                  for rank, name in enumerate(["x", "y", "n", "a"]))
    xy = compose(NcPoly.gen(ring, x), NcPoly.gen(ring, y))
    cat = new_semifree(ring, ("L",), (x, y, n, a),
                       {g.name: NcPoly.zero(ring, "L", "L")
                        for g in (x, y, n, a)},
                       rules=[((x, y), NcPoly.gen(ring, n)), ((a,), xy),
                              ((a,), NcPoly.gen(ring, n))],
                       weights={"a": 3})
    out = eliminate_generator(cat, "n")
    assert [g.name for g in out.generators] == ["x", "y", "a"]
    assert out.rules == (((a,), xy),)


def _closed_loops(names):
    """Degree-0 generators on one object L, ranked in the order given."""
    return [Generator(name, "L", "L", 0, rank)
            for rank, name in enumerate(names)]


def _word(*gens):
    out = NcPoly.gen(ring, gens[0])
    for g in gens[1:]:
        out = compose(out, NcPoly.gen(ring, g))
    return out


def test_eliminate_generator_substitutes_into_rules_that_use_it():
    # n*z -> 0 uses n = x*y: it becomes x*y*z -> 0, which a -> x*y*z and
    # a -> 0 need to stay confluent
    x, y, z, n, a = gens = _closed_loops("xyzna")
    zero = NcPoly.zero(ring, "L", "L")
    cat = new_semifree(ring, ("L",), gens, {g.name: zero for g in gens},
                       rules=[((x, y), _word(n)), ((n, z), zero),
                              ((a,), _word(x, y, z)), ((a,), zero)],
                       weights={"a": 4})
    out = eliminate_generator(cat, "n")
    assert [g.name for g in out.generators] == ["x", "y", "z", "a"]
    assert out.rules == (((x, y, z), zero), ((a,), _word(x, y, z)),
                         ((a,), zero))
    assert out.normalize(_word(x, y, z)).is_zero()
    assert "dropped_rules" not in out.provenance[-1]


def test_eliminate_generator_orients_a_substituted_rule_again():
    # n*z -> z*n with n = x*y gives the relation x*y*z = z*x*y, whose
    # larger side is now z*x*y
    x, y, z, n = gens = _closed_loops("xyzn")
    cat = new_semifree(ring, ("L",), gens,
                       {g.name: NcPoly.zero(ring, "L", "L") for g in gens},
                       rules=[((x, y), _word(n)), ((n, z), _word(z, n))])
    out = eliminate_generator(cat, "n")
    assert out.rules == (((z, x, y), _word(x, y, z)),)


def test_cancel_pair_drops_and_records_rules_whose_lhs_goes_to_zero():
    # d(a) = b: a and b both go to zero, and so do the left sides of
    # a*x -> 0 and b*x -> 0
    x = Generator("x", "L", "L", 0, 0)
    b = Generator("b", "L", "L", 0, 1)
    a = Generator("a", "L", "L", -1, 2)
    zero = NcPoly.zero(ring, "L", "L")
    cat = new_semifree(ring, ("L",), (x, b, a),
                       {"x": zero, "b": zero, "a": _word(b)},
                       rules=[((b, x), zero), ((a, x), zero)])
    out = cancel_pair(cat, "a", "b")
    assert [g.name for g in out.generators] == ["x"]
    assert out.rules == ()
    assert out.provenance[-1]["dropped_rules"] == [["b", "x"], ["a", "x"]]


def test_cancel_pair_keeps_a_rule_whose_rhs_is_left_when_its_lhs_goes():
    # d(a) = b: b*x -> y becomes the relation y = 0
    x, y = _closed_loops("xy")
    b = Generator("b", "L", "L", 0, 2)
    a = Generator("a", "L", "L", -1, 3)
    zero = NcPoly.zero(ring, "L", "L")
    cat = new_semifree(ring, ("L",), (x, y, b, a),
                       {"x": zero, "y": zero, "b": zero, "a": _word(b)},
                       rules=[((b, x), _word(y))])
    out = cancel_pair(cat, "a", "b")
    assert out.rules == (((y,), zero),)
    assert "dropped_rules" not in out.provenance[-1]


def test_cancel_pair_keeps_one_copy_of_rules_a_substitution_makes_equal():
    # a1⊗1_L goes to delta1⊗1_L, so each interchange rule through it
    # becomes one that the tensor already has
    cat = tensor(build(ModelId.parse("M:1,1"), ring),
                 build(ModelId.parse("C:1"), ring))
    out = cancel_pair(cat, "h⊗1_L", "a1⊗1_L")
    assert len(set(out.rules)) == len(out.rules)
    assert len(out.rules) < len(cat.rules)


def test_change_basis_rejects_higher_rank_summand():
    cat = new_semifree(ring, ("L",),
                       (Generator("p", "L", "L", -2, 0),
                        Generator("q", "L", "L", -2, 1)),
                       {"p": NcPoly.zero(ring, "L", "L"),
                        "q": NcPoly.zero(ring, "L", "L")})
    with pytest.raises(ValueError):
        change_basis(cat, "p", 1, NcPoly.gen(ring, cat.gen("q")))


def test_change_basis_rejects_non_unit():
    s = build(ModelId.parse("S:3,2,0"), ring)
    with pytest.raises(ValueError):
        change_basis(s, "a1", 2)


def test_change_basis_invertible():
    s = build(ModelId.parse("S:3,3,0"), ring)
    lower = NcPoly.gen(ring, s.gen("a1"))
    once = change_basis(s, "a2", -1, lower)
    back = change_basis(once, "a2", -1, lower.scale(1))
    rep = presentation_equal(s, back, {"L": "L"},
                             {g.name: g.name for g in s.generators})
    assert rep["equal"]


# ---------------------------------------------------------------------------
# cancel_pair
# ---------------------------------------------------------------------------

def test_cancel_pair_e12_to_d12():
    for n in (3, 4):
        e12 = build_e12(n, ring)
        out = cancel_pair(e12, "a", "b")
        d12 = build_d12(n, ring)
        rep = presentation_equal(d12, out, {"L1": "L1", "L2": "L2"},
                                 {"x": "x", "y": "y"})
        assert rep["equal"]
        assert len(out.generators) == len(e12.generators) - 2


def test_cancel_pair_substitutes_elsewhere():
    # surface-style cancellation: dh = a2 a1 - b, with b used in dgamma
    a1 = Generator("a1", "L", "L", 0, 0)
    a2 = Generator("a2", "L", "L", 0, 1)
    b = Generator("b", "L", "L", 0, 2)
    h = Generator("h", "L", "L", -1, 3)
    gamma = Generator("gamma", "L", "L", -1, 4)
    cat = new_semifree(ring, ("L",), (a1, a2, b, h, gamma), {
        "a1": NcPoly.zero(ring, "L", "L"),
        "a2": NcPoly.zero(ring, "L", "L"),
        "b": NcPoly.zero(ring, "L", "L"),
        "h": compose(NcPoly.gen(ring, a2), NcPoly.gen(ring, a1))
             - NcPoly.gen(ring, b),
        "gamma": NcPoly.gen(ring, a1) - NcPoly.gen(ring, b),
    })
    out = cancel_pair(cat, "h", "b")
    audit_d_squared(out)
    assert render_poly(out.differentials["gamma"]) == "a1 - a2*a1"
    steps = steps_from_provenance(out)
    assert steps[-1].kind == "CancelPair"
    assert steps[-1].before - steps[-1].after == 2


def test_cancel_pair_needs_unit_linear_term():
    s = build(ModelId.parse("S:3,2,0"), ring)
    with pytest.raises(ValueError):
        cancel_pair(s, "h", "h")
    two = new_semifree(ring, ("L",),
                       (Generator("b", "L", "L", 0, 0),
                        Generator("a", "L", "L", -1, 1)),
                       {"b": NcPoly.zero(ring, "L", "L"),
                        "a": NcPoly.gen(ring, Generator("b", "L", "L", 0, 0),
                                        2)})
    with pytest.raises(ValueError):
        cancel_pair(two, "a", "b")


# ---------------------------------------------------------------------------
# set_generator
# ---------------------------------------------------------------------------

def test_set_generator_zero_plain_deletion():
    s = build(ModelId.parse("S:3,2,0"), ring)
    out = set_generator(change_basis(s, "a2", 1), "a2", "zero")
    assert "a2" not in {g.name for g in out.generators}
    assert render_poly(out.differentials["h"]) == "a1"


def test_set_generator_identity():
    c = new_semifree(ring, ("L",), (Generator("z", "L", "L", 0, 0),),
                     {"z": NcPoly.zero(ring, "L", "L")})
    out = set_generator(c, "z", "identity")
    assert not out.generators


def test_set_generator_checks_d_compatibility():
    s = build(ModelId.parse("S:3,2,0"), ring)
    with pytest.raises(ValueError):
        set_generator(s, "h", "zero")  # dh = a1 + a2 does not map to 0


@pytest.mark.parametrize("gen", ["a1", "a2"])
def test_a_refused_move_names_itself_and_the_rule_it_turned(gen):
    # setting a1 or a2 to zero turns a2*a1 -> [alpha1, beta1] into
    # [alpha1, beta1] -> 0, which overlaps alpha1*alpha1' -> 1; the refusal
    # once named the word but neither the move nor the rule
    relations, _ = surface_relation_form(1, 2, RATIONALS)
    with pytest.raises(RuleError) as err:
        set_generator(relations, gen, "zero")
    assert str(err.value) == (
        f"set_generator of {gen}: rules are not confluent at "
        "alpha1*alpha1'*beta1'*alpha1*beta1: beta1'*alpha1*beta1 vs 0; "
        "it turned a2*a1 -> alpha1'*beta1'*alpha1*beta1 into "
        "alpha1'*beta1'*alpha1*beta1 -> 0")


# ---------------------------------------------------------------------------
# greedy pass and replay
# ---------------------------------------------------------------------------

def test_greedy_simplify_cancels_acyclic_pair():
    a = Generator("a", "L", "L", -1, 0)
    b = Generator("b", "L", "L", 0, 1)
    c = Generator("c", "L", "L", -1, 2)
    cat = new_semifree(ring, ("L",), (a, b, c), {
        "a": NcPoly.zero(ring, "L", "L"),
        "b": NcPoly.zero(ring, "L", "L"),
        "c": NcPoly.gen(ring, b),
    })
    assert cancellable_pairs(cat) == [("c", "b")]
    out, steps = greedy_simplify(cat)
    assert [g.name for g in out.generators] == ["a"]
    assert steps == [{"op": "cancel_pair", "a": "c", "b": "b"}]


def cancellable_pairs_by_sorting(cat):
    """cancellable_pairs as it was before a generator's one possible partner
    was found directly: every differential's terms sorted and each
    single-letter unit term tested in turn; kept as its oracle."""
    ring = cat.ring
    out = []
    used = set()
    for a in cat.generators:
        da = cat.differentials[a.name]
        for word, coeff in da.sorted_terms():
            if isinstance(word, str) or len(word) != 1:
                continue
            b = word[0]
            if not ring.is_unit(coeff) or a.name in used or b.name in used:
                continue
            rest_ok = all(
                isinstance(w, str) or all(letter.rank < b.rank for letter in w)
                for w in da.terms if w != word)
            if rest_ok:
                out.append((a.name, b.name))
                used.update((a.name, b.name))
                break
    return out


def assert_greedy_takes_the_steps_of_the_sorting_loop(cat):
    got, steps = greedy_simplify(cat)
    want = []
    while True:
        pairs = cancellable_pairs_by_sorting(cat)
        assert cancellable_pairs(cat) == pairs
        if not pairs:
            break
        a, b = pairs[0]
        cat = cancel_pair(cat, a, b)
        want.append({"op": "cancel_pair", "a": a, "b": b})
    assert steps == want
    assert to_json(got) == to_json(cat)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32),
       st.sampled_from([INTEGERS, RATIONALS, integers_mod(6)]))
def test_greedy_simplify_on_random_plumbings(seed, ring):
    config = RandomPlumbingConfig(max_vertices=3, max_arrows=4)
    assert_greedy_takes_the_steps_of_the_sorting_loop(
        build_wrapped(random_plumbing(random.Random(seed), config, ring)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_greedy_simplify_on_two_layer_categories(data):
    # closed x_i, then a_j with d(a_j) a combination of the x_i: several
    # single-letter terms per differential, non-unit coefficients, and
    # differentials that gain a partner when an earlier cancellation
    # substitutes into them
    ring = data.draw(st.sampled_from([INTEGERS, integers_mod(6)]))
    xs = [Generator(f"x{i}", "L", "L", 0, i)
          for i in range(data.draw(st.integers(1, 5)))]
    gens = list(xs)
    table = {x.name: NcPoly.zero(ring, "L", "L") for x in xs}
    for j in range(data.draw(st.integers(1, 5))):
        a = Generator(f"a{j}", "L", "L", -1, len(gens))
        table[a.name] = NcPoly.from_terms(ring, "L", "L", [
            ((x,), data.draw(st.sampled_from([-2, -1, 1, 2])))
            for x in xs if data.draw(st.booleans())])
        gens.append(a)
    assert_greedy_takes_the_steps_of_the_sorting_loop(
        new_semifree(ring, ("L",), gens, table))


def test_greedy_simplify_returns_to_a_differential_that_gains_a_partner():
    # d(a1) = x1 + 2*x2 has no partner until cancelling (a2, x2) sends x2
    # to -x0; then x1 is its partner
    x0, x1, x2 = (Generator(f"x{i}", "L", "L", 0, i) for i in range(3))
    a1 = Generator("a1", "L", "L", -1, 3)
    a2 = Generator("a2", "L", "L", -1, 4)
    zero = NcPoly.zero(ring, "L", "L")
    cat = new_semifree(ring, ("L",), (x0, x1, x2, a1, a2), {
        "x0": zero, "x1": zero, "x2": zero,
        "a1": NcPoly.from_terms(ring, "L", "L", [((x1,), 1), ((x2,), 2)]),
        "a2": NcPoly.from_terms(ring, "L", "L", [((x0,), 1), ((x2,), 1)])})
    out, steps = greedy_simplify(cat)
    assert steps == [{"op": "cancel_pair", "a": "a2", "b": "x2"},
                     {"op": "cancel_pair", "a": "a1", "b": "x1"}]
    assert [g.name for g in out.generators] == ["x0"]


def test_replay_script_roundtrip():
    s = build(ModelId.parse("S:3,2,0"), ring)
    script = [
        {"op": "change_basis", "gen": "a1", "unit": "-1", "lower": "0"},
        {"op": "change_basis", "gen": "a1", "unit": "-1", "lower": "0"},
    ]
    out = replay(s, script)
    rep = presentation_equal(s, out, {"L": "L"},
                             {g.name: g.name for g in s.generators})
    assert rep["equal"]


# ---------------------------------------------------------------------------
# strictify
# ---------------------------------------------------------------------------

def test_strictify_requires_hocolim_provenance():
    s = build(ModelId.parse("S:3,2,0"), ring)
    with pytest.raises(ValueError):
        strictify_t(s)


def test_strictify_single_pair():
    # one t on an isolated pair of objects merges them and nothing else
    from semifree.constructions import PushoutSpan, hocolim
    from semifree.dgcat import DgFunctor
    a = new_semifree(ring, ("A",), (Generator("p", "A", "A", 1, 0),),
                     {"p": NcPoly.zero(ring, "A", "A")})
    b = new_semifree(ring, ("B",), (Generator("q", "B", "B", 1, 0),),
                     {"q": NcPoly.zero(ring, "B", "B")})
    c = new_semifree(ring, ("X",), (Generator("r", "X", "X", 1, 0),),
                     {"r": NcPoly.zero(ring, "X", "X")})
    alpha = DgFunctor(c, a, {"X": "A"}, {"r": NcPoly.gen(ring, a.gen("p"), -1)})
    beta = DgFunctor(c, b, {"X": "B"}, {"r": NcPoly.gen(ring, b.gen("q"), -1)})
    h = hocolim(PushoutSpan(a, c, b, alpha, beta))
    strict = strictify_t(h)
    audit_d_squared(strict)
    assert len(strict.objects) == 1
    names = {g.name for g in strict.generators}
    assert "t_X" not in names and "t_X'" not in names
    assert "r" in names  # t_r renamed
