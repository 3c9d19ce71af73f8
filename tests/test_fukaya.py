"""Model builders, inclusion functors, and invertibility witnesses."""

import pytest

from semifree.algebra import INTEGERS, NcPoly, compose, render_poly
from semifree.dgcat import audit_d_squared, validate_functor
from semifree.constructions import localization_records
from semifree.fukaya import ModelId, build, one_plus_xy_inverse
from paper_models import (
    inclusion_functor,
    sector_category_2,
    sphere_last_loop_inverse,
    surface_relation_form,
)

ring = INTEGERS


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def test_model_parameter_ranges():
    with pytest.raises(ValueError):
        ModelId.parse("C:0")
    with pytest.raises(ValueError):
        ModelId.parse("S:1,2")
    with pytest.raises(ValueError):
        ModelId.parse("M:0,1")
    with pytest.raises(ValueError):
        ModelId.parse("S:3,0,0")
    with pytest.raises(ValueError):
        ModelId.parse("Q:1")


def test_sphere_n1_is_localized_circle():
    c1 = build(ModelId.parse("C:1"), ring)
    assert [r.inverted for r in localization_records(c1)] == ["z"]
    prov = [e["op"] for e in c1.provenance if isinstance(e, dict)]
    assert prov == ["build", "localize"]


@pytest.mark.parametrize("n,m", [(3, 1), (3, 4), (4, 2), (5, 3)])
def test_punctured_sphere_high_dim(n, m):
    s = build(ModelId.parse(f"S:{n},{m},0"), ring)
    assert render_poly(s.differentials["h"]) == \
        " + ".join(f"a{i}" for i in range(1, m + 1))
    assert s.gen("h").degree == 1 - n
    assert all(s.gen(f"a{i}").degree == 2 - n for i in range(1, m + 1))


def test_punctured_sphere_two_signs():
    s = build(ModelId.parse("S:4,2,2"), ring)
    assert render_poly(s.differentials["h"]) == "a1 + a2 - b1 - b2"
    s20 = build(ModelId.parse("S:4,2,0"), ring)
    # S(n,m,0) agrees with the one-sign form generator-for-generator
    assert {g.name: g.degree for g in s20.generators} == \
        {"a1": -2, "a2": -2, "h": -3}


def test_punctured_sphere_n2_products_and_localization():
    s = build(ModelId.parse("S:2,2,1"), ring)
    assert render_poly(s.differentials["h"]) == "-b1 + a2*a1"
    assert [r.inverted for r in localization_records(s)] == ["a1", "a2", "b1"]


def test_sphere_gradings_option():
    s = build(ModelId.parse("S:2,3,0"), ring,
              {"gradings": [1, -1, 0], "localize": False})
    assert [s.gen(f"a{i}").degree for i in (1, 2, 3)] == [1, -1, 0]
    audit_d_squared(s)
    with pytest.raises(ValueError):
        build(ModelId.parse("S:2,3,0"), ring, {"gradings": [1, -1, 1]})
    with pytest.raises(ValueError):
        build(ModelId.parse("S:3,3,0"), ring, {"gradings": [1, -1, 0]})


def test_background_class_option_n3_only():
    s = build(ModelId.parse("S:3,3,0"), ring, {"background": [1]})
    assert render_poly(s.differentials["a1"]) == "2*1_{L}"
    assert render_poly(s.differentials["a3"]) == "-2*1_{L}"
    audit_d_squared(s)
    with pytest.raises(ValueError):
        build(ModelId.parse("S:4,3,0"), ring, {"background": [1]})


@pytest.mark.parametrize("g,m", [(1, 1), (2, 1), (1, 2), (3, 3)])
def test_surface_presentation(g, m):
    cat = build(ModelId.parse(f"M:{g},{m}"), ring)
    for j in range(1, g + 1):
        assert render_poly(cat.differentials[f"gamma{j}"]) == \
            f"alpha{j}*beta{j} - beta{j}*alpha{j}*delta{j}"
    a_word = tuple(cat.gen(f"a{i}") for i in range(m, 0, -1))
    d_word = tuple(cat.gen(f"delta{j}") for j in range(g, 0, -1))
    expected = NcPoly.from_terms(ring, "L", "L",
                                 [(a_word, 1), (d_word, -1)])
    assert cat.differentials["h"] == expected
    inverted = {r.inverted for r in localization_records(cat)}
    expected = {f"alpha{j}" for j in range(1, g + 1)}
    expected |= {f"beta{j}" for j in range(1, g + 1)}
    expected |= {f"a{i}" for i in range(1, m + 1)}
    assert inverted == expected  # delta_j not inverted


def test_surface_gradings_remark():
    cat = build(ModelId.parse("M:2,2"), ring,
                {"gradings": {"p": [1, 0], "q": [2, -1], "r": [3, -3]},
                 "localize": False})
    assert cat.gen("gamma1").degree == 1 + 2 - 1
    assert cat.gen("gamma2").degree == 0 - 1 - 1
    assert cat.gen("delta1").degree == 0
    audit_d_squared(cat)


# ---------------------------------------------------------------------------
# inclusion functors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,mp,mm,i", [(3, 2, 1, 1), (4, 1, 1, 1), (5, 3, 0, 2)])
def test_sphere_inclusions(n, mp, mm, i):
    f = inclusion_functor("F", ring, n=n, m_plus=mp, m_minus=mm, i=i)
    assert render_poly(f.generator_map["z"]) == f"a{i}"
    if mm:
        g = inclusion_functor("G", ring, n=n, m_plus=mp, m_minus=mm, i=1)
        assert render_poly(g.generator_map["z"]) == "b1"


def test_sphere_inclusion_n2_maps_cluster():
    f = inclusion_functor("F", ring, n=2, m_plus=2, m_minus=0, i=2)
    assert render_poly(f.generator_map["z"]) == "a2"
    assert render_poly(f.generator_map["z'"]) == "a2'"
    assert render_poly(f.generator_map["z_bar"]) == "a2_bar"


def test_surface_inclusion():
    f = inclusion_functor("surface", ring, g=1, m=2, i=1)
    assert render_poly(f.generator_map["z"]) == "a1"


def test_index_out_of_range():
    with pytest.raises(ValueError):
        inclusion_functor("F", ring, n=3, m_plus=2, m_minus=0, i=3)
    with pytest.raises(ValueError):
        inclusion_functor("G", ring, n=3, m_plus=2, m_minus=0, i=1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_sector_inclusions(n):
    phi = inclusion_functor("Phi", ring, n=n)
    psi = inclusion_functor("Psi", ring, n=n)
    assert render_poly(phi.generator_map["z"]) == "y*x"
    assert render_poly(psi.generator_map["z"]) == "x*y"


def test_sector_inclusions_n2():
    phi = inclusion_functor("Phi", ring, n=2)
    assert render_poly(phi.generator_map["z"]) == "w"
    psi = inclusion_functor("Psi", ring, n=2)
    assert render_poly(psi.generator_map["z"]) == "1_{L2} + x*y"


def test_shifted_sector_inclusion_n2_no_sign():
    psi = inclusion_functor("Psi_shifted", ring, n=2, m1=1, m2=0)
    assert render_poly(psi.generator_map["z"]) == "1_{L2} + x*y"
    assert psi.target.gen("x").degree == 1
    assert psi.target.gen("y").degree == -1


def test_disk_edge_functors():
    j0 = inclusion_functor("j0", ring)
    j1 = inclusion_functor("j1", ring)
    j2 = inclusion_functor("j2", ring)
    assert j0.object_map == {"K": "K0"}
    assert j1.object_map == {"K": "K1"}
    assert j2.object_map == {"K": "Cone(f)"}


# ---------------------------------------------------------------------------
# invertibility witnesses
# ---------------------------------------------------------------------------

def test_one_plus_xy_witness_verifies():
    sec = sector_category_2(ring)
    wit = one_plus_xy_inverse(sec, "x", "y", "w")
    assert render_poly(wit["inverse"]) == "1_{L2} - x*w'*y"
    # the returned homotopies are re-checked inside, but assert one identity
    one = NcPoly.identity(ring, "L2")
    lhs = sec.d(wit["left_htpy"])
    assert lhs == one - compose(wit["inverse"], wit["one_plus_xy"])


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_last_loop_invertibility_witness(m):
    s = build(ModelId.parse(f"S:2,{m},0"), ring)
    wit = sphere_last_loop_inverse(s)
    last = NcPoly.gen(ring, s.gen(f"a{m}"))
    one = NcPoly.identity(ring, "L")
    assert s.d(wit["right_htpy"]) == one - compose(last, wit["inverse"])
    assert s.d(wit["left_htpy"]) == one - compose(wit["inverse"], last)


# ---------------------------------------------------------------------------
# surface relation form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("g,m", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_relation_form(g, m):
    rel, witness = surface_relation_form(g, m, ring)
    assert validate_functor(witness)["valid"]
    lhs, rhs = rel.rules[-1]
    assert [gen.name for gen in lhs] == [f"a{i}" for i in range(m, 0, -1)]
    expected = "*".join(
        f"alpha{j}'*beta{j}'*alpha{j}*beta{j}" for j in range(g, 0, -1))
    assert render_poly(rhs) == expected
    # exact rewriting: the product of a's reduces to the commutator product
    a_word = tuple(rel.gen(f"a{i}") for i in range(m, 0, -1))
    prod = NcPoly(ring, "L", "L", {a_word: 1})
    assert rel.normalize(prod) == rel.normalize(rhs)


def test_relation_form_functor_kills_gamma_h():
    _, witness = surface_relation_form(1, 1, ring)
    assert witness.generator_map["gamma1"].is_zero()
    assert witness.generator_map["h"].is_zero()
    assert render_poly(witness.generator_map["delta1"]) == \
        "alpha1'*beta1'*alpha1*beta1"
