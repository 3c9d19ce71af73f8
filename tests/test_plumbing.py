"""Plumbing data model, grading map, pipeline, and equivalence witnesses."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MALFORMED_PLUMBINGS,
    MALFORMED_QUIVERS,
    PLUMBINGS,
    QUIVERS,
    compose_functors,
    mutated_documents,
    random_graded_quiver,
    resolves,
    total_endomorphism_algebra,
)
from semifree.algebra import INTEGERS, render_poly
from semifree.dgcat import InputError, UnknownName, audit_d_squared
from semifree.plumbing import (
    Arrow,
    DISK,
    GradedArrow,
    GradedQuiver,
    PlumbingData,
    RandomPlumbingConfig,
    SPHERE,
    _default_tokens,
    build_ginzburg,
    build_wrapped,
    custom,
    edge_flip_witness,
    ginzburg_witness,
    normalize,
    placement_from_json,
    plumbing_from_json,
    plumbing_to_json,
    quiver_from_json,
    random_plumbing,
    sign_gauge_witness,
    surface,
)
from paper_models import regauge, sigma

ring = INTEGERS


def a2_data(n, sign=1, d=0, specs=(SPHERE, SPHERE)):
    return PlumbingData(n, (("v", specs[0]), ("w", specs[1])),
                        (Arrow("e", "v", "w", sign, d),), ring)


# ---------------------------------------------------------------------------
# sigma
# ---------------------------------------------------------------------------

def test_sigma_tree_is_zero():
    data = PlumbingData(3, (("v", SPHERE), ("w", SPHERE), ("u", SPHERE)),
                        (Arrow("e1", "v", "w", 1, 4),
                         Arrow("e2", "w", "u", -1, -3)), ring)
    assert sigma(data).coordinates == ()


def test_sigma_self_loop():
    data = PlumbingData(3, (("v", SPHERE),), (Arrow("e", "v", "v", 1, 7),),
                        ring)
    assert sigma(data).coordinates == (7,)


def test_sigma_two_cycle_both_forward():
    data = PlumbingData(3, (("v", SPHERE), ("w", SPHERE)),
                        (Arrow("e1", "v", "w", 1, 2),
                         Arrow("e2", "w", "v", 1, 3)), ring)
    assert sigma(data).coordinates == (5,)


def test_sigma_antiparallel_pair():
    data = PlumbingData(3, (("v", SPHERE), ("w", SPHERE)),
                        (Arrow("e1", "v", "w", 1, 2),
                         Arrow("e2", "v", "w", 1, 3)), ring)
    # loop traverses e2 forward and e1 against its direction
    assert sigma(data).coordinates == (3 - 2,)


def test_sigma_betti_number():
    data = PlumbingData(3, (("v", SPHERE), ("w", SPHERE)),
                        (Arrow("e1", "v", "w", 1, 0),
                         Arrow("e2", "v", "w", 1, 0),
                         Arrow("e3", "v", "v", 1, 0)), ring)
    assert len(sigma(data).coordinates) == 3 - 2 + 1


@pytest.mark.parametrize("seed", range(5))
def test_sigma_gauge_transport_invariant(seed):
    rng = random.Random(seed)
    cfg = RandomPlumbingConfig(customs=False, surfaces=False)
    data = random_plumbing(rng, cfg, ring, n=3)
    delta = {vid: rng.randint(-4, 4) for vid, _ in data.vertices}
    assert sigma(data).same_class(sigma(regauge(data, delta)))


# ---------------------------------------------------------------------------
# build_wrapped
# ---------------------------------------------------------------------------

def test_a2_sphere_n3():
    w = build_wrapped(a2_data(3))
    assert render_poly(w.differentials["h_v"]) == "y_e*x_e"
    assert render_poly(w.differentials["h_w"]) == "-x_e*y_e"
    assert w.gen("x_e").degree == 0 and w.gen("y_e").degree == -1
    assert w.gen("h_v").degree == -2


def test_a2_genus_zero_surfaces_n2():
    w = build_wrapped(a2_data(2, specs=(surface(0), surface(0))))
    assert render_poly(w.differentials["h_v"]) == "y_e*x_e"
    assert render_poly(w.differentials["h_w"]) == "-x_e*y_e"
    inverted = [e for e in w.provenance
                if isinstance(e, dict) and e.get("op") == "localize"]
    assert inverted[0]["inverted"] == ["u_e"]
    assert render_poly(w.differentials["u_e_htpy"]) == "-1_{L_v} + u_e - y_e*x_e"


def test_self_loop_n3_negative_sign():
    data = PlumbingData(3, (("v", SPHERE),), (Arrow("e", "v", "v", -1, 1),),
                        ring)
    w = build_wrapped(data)
    assert render_poly(w.differentials["h_v"]) == "x_e*y_e - y_e*x_e"


def test_gauge_shifts_degrees():
    w = build_wrapped(a2_data(5, d=2))
    assert w.gen("x_e").degree == 2
    assert w.gen("y_e").degree == 2 - 5 - 2


def test_disk_vertices_lemma():
    data = PlumbingData(3, (("v", DISK), ("w", DISK)),
                        (Arrow("e", "v", "w", 1, 0),), ring)
    w = build_wrapped(data)
    assert render_poly(w.differentials["h_v"]) == "m_v + y_e*x_e"
    assert render_poly(w.differentials["h_w"]) == "m_w - x_e*y_e"
    assert w.gen("m_v").degree == -1


def test_surface_vertex_n2():
    data = PlumbingData(2, (("v", surface(1)), ("w", SPHERE)),
                        (Arrow("e", "v", "w", -1, 0),), ring)
    w = build_wrapped(data)
    assert render_poly(w.differentials["gamma1_v"]) == \
        "alpha1_v*beta1_v - beta1_v*alpha1_v*delta1_v"
    assert render_poly(w.differentials["h_v"]) == "-1_{L_v} + delta1_v + delta1_v*y_e*x_e"
    inverted = [e for e in w.provenance
                if isinstance(e, dict) and e.get("op") == "localize"][0]
    assert inverted["inverted"] == ["u_e", "alpha1_v", "beta1_v"]


def test_surface_needs_dimension_two():
    with pytest.raises(ValueError):
        PlumbingData(3, (("v", surface(1)),), (), ring)


def test_custom_vertex_eta():
    spec = custom([("w", -1)], [("w", "0")], "w")
    data = PlumbingData(3, (("v", spec), ("u", SPHERE)),
                        (Arrow("e", "v", "u", 1, 0),), ring)
    cat = build_wrapped(data)
    assert render_poly(cat.differentials["h_v"]) == "w_v + y_e*x_e"


def test_custom_eta_must_be_closed_and_graded():
    with pytest.raises(ValueError):
        PlumbingData(3, (("v", custom([("w", -2)], [("w", "0")], "w")),),
                     (), ring)
    with pytest.raises(ValueError):
        PlumbingData(3, (("v", custom([("s", 0), ("r", -1)],
                                      [("s", "0"), ("r", "s")], "r")),),
                     (), ring)


def test_reorder_placement_audited():
    data = a2_data(2, sign=-1)
    place = {
        "v": {"left": [("out", "e"), ("eta",)], "right": []},
        "w": {"left": [("eta",), ("in", "e")], "right": []},
    }
    w = build_wrapped(data, place)
    audit_d_squared(w)
    with pytest.raises(ValueError):
        build_wrapped(data, {"v": {"left": [("eta",)], "right": []},
                             "w": place["w"]})


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_random_plumbings_pass_d_squared(n):
    rng = random.Random(100 + n)
    cfg = RandomPlumbingConfig()
    for _ in range(10):
        data = random_plumbing(rng, cfg, ring, n=n)
        audit_d_squared(build_wrapped(data))


# ---------------------------------------------------------------------------
# Ginzburg categories
# ---------------------------------------------------------------------------

def test_ginzburg_a2():
    gq = GradedQuiver(("v", "w"), (GradedArrow("e", "v", "w", 0),))
    cat = build_ginzburg(gq, 3, ring)
    assert render_poly(cat.differentials["t_v"]) == "e_star*e"
    assert render_poly(cat.differentials["t_w"]) == "-e*e_star"
    assert cat.gen("t_v").degree == -2
    assert cat.gen("e_star").degree == -1


def test_ginzburg_no_arrows():
    gq = GradedQuiver(("v",), ())
    cat = build_ginzburg(gq, 3, ring)
    assert cat.differentials["t_v"].is_zero()


def test_ginzburg_self_loop_q1_n3():
    gq = GradedQuiver(("v",), (GradedArrow("e", "v", "v", 1),))
    cat = build_ginzburg(gq, 3, ring)
    # |e||e*| = 1 * (-2) even, so both terms appear with the stated signs
    assert render_poly(cat.differentials["t_v"]) == "-e*e_star + e_star*e"


def test_ginzburg_witness_a2():
    gq = GradedQuiver(("v", "w"), (GradedArrow("e", "v", "w", 0),))
    data, functor, report = ginzburg_witness(gq, 3, ring)
    assert report["equal"]
    assert data.arrows[0].sign == -(-1) ** (0 + 3)
    assert render_poly(functor.generator_map["e_star"]) == "y_e"


def test_ginzburg_witness_tree_sign_irrelevant():
    gq = GradedQuiver(("a", "b", "c"),
                      (GradedArrow("e1", "a", "b", 1),
                       GradedArrow("e2", "b", "c", -2)))
    for n in (3, 4):
        _, _, report = ginzburg_witness(gq, n, ring)
        assert report["equal"]


def test_ginzburg_witness_odd_q_flips_relabel():
    gq = GradedQuiver(("v", "w"), (GradedArrow("e", "v", "w", 1),))
    _, functor, report = ginzburg_witness(gq, 3, ring)
    assert report["equal"]
    assert render_poly(functor.generator_map["e_star"]) == "-y_e"
    _, functor4, _ = ginzburg_witness(gq, 4, ring)
    assert render_poly(functor4.generator_map["e_star"]) == "y_e"


@pytest.mark.parametrize("seed", range(6))
def test_ginzburg_witness_random(seed):
    rng = random.Random(seed)
    gq = random_graded_quiver(rng)
    for n in (3, 4, 5):
        _, _, report = ginzburg_witness(gq, n, ring)
        assert report["equal"], report["mismatches"]


# ---------------------------------------------------------------------------
# flip and gauge witnesses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,sign,d", [(3, 1, 0), (3, -1, 2), (4, 1, -1),
                                      (5, -1, 1), (2, 1, 0), (2, -1, 1)])
def test_edge_flip_witness(n, sign, d):
    witness = edge_flip_witness(a2_data(n, sign, d), "e")
    u = witness.flipped.arrow("e")
    assert u.src == "w" and u.tgt == "v"
    assert u.sign == ((-1) ** n) * sign
    assert u.d == 2 - n - d
    assert witness.certificates[0]["valid"]
    assert witness.certificates[1]["valid"]


def test_edge_flip_example_signs():
    # n=3, d=0, sgn=+1: y_u goes to (-1)^(3+0+3) x_u = x_u
    witness = edge_flip_witness(a2_data(3, 1, 0), "e")
    assert render_poly(witness.forward.generator_map["y_e"]) == "x_e"
    assert render_poly(witness.forward.generator_map["x_e"]) == "y_e"
    # n even keeps the sign of the flipped arrow
    witness4 = edge_flip_witness(a2_data(4, -1, 0), "e")
    assert witness4.flipped.arrow("e").sign == -1


def test_edge_flip_composes_to_renaming_n3():
    witness = edge_flip_witness(a2_data(3, -1, 1), "e")
    around = compose_functors(witness.backward, witness.forward)
    for g in around.source.generators:
        img = around.generator_map[g.name]
        ((word, coeff),) = img.terms.items()
        assert tuple(x.name for x in word) == (g.name,)
        assert coeff in (1, -1)


@pytest.mark.parametrize("seed", range(8))
def test_edge_flip_random(seed):
    rng = random.Random(300 + seed)
    cfg = RandomPlumbingConfig(customs=True, surfaces=True)
    n = rng.choice((2, 3, 4, 5))
    data = random_plumbing(rng, cfg, ring, n=n)
    if not data.arrows:
        return
    arrow = rng.choice(data.arrows).id
    witness = edge_flip_witness(data, arrow)
    assert witness.certificates[0]["valid"]
    assert witness.certificates[1]["valid"]


def test_gauge_witness_identity_sets():
    data = a2_data(3)
    for flip_set in ((), ("v", "w")):
        witness = sign_gauge_witness(data, flip_set)
        assert witness.regauged.arrows[0].sign == 1
        assert witness.certificate["valid"]


def test_gauge_witness_a2():
    witness = sign_gauge_witness(a2_data(4), {"w"})
    assert witness.regauged.arrows[0].sign == -1
    assert witness.certificate["valid"]


def test_gauge_witness_eta_constraint_reported():
    spec = custom([("w", -1)], [("w", "0")], "w")
    data = PlumbingData(3, (("v", spec), ("u", spec)),
                        (Arrow("e", "v", "u", 1, 0),), ring)
    # both chi classes rescale some eta-vertex: must report, not guess
    with pytest.raises(ValueError):
        sign_gauge_witness(data, {"v"})


def test_gauge_witness_rejects_n2():
    with pytest.raises(ValueError):
        sign_gauge_witness(a2_data(2), {"w"})


@pytest.mark.parametrize("seed", range(8))
def test_gauge_witness_random_spheres(seed):
    rng = random.Random(500 + seed)
    cfg = RandomPlumbingConfig(customs=False, surfaces=False, disks=False)
    data = random_plumbing(rng, cfg, ring, n=rng.choice((3, 4, 5, 6)))
    flip_set = [vid for vid, _ in data.vertices if rng.random() < 0.5]
    witness = sign_gauge_witness(data, flip_set)
    assert witness.certificate["valid"]


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_reorients_and_gauges():
    data = PlumbingData(3, (("a", SPHERE), ("b", SPHERE)),
                        (Arrow("e", "b", "a", 1, 1),), ring)
    out = normalize(data)
    e = out.arrow("e")
    assert (e.src, e.tgt) == ("a", "b")
    assert e.sign == 1  # tree edge gauged to +1 (reversal made it -1 first)
    assert e.d == 2 - 3 - 1


def test_normalize_idempotent_and_move_invariant():
    rng = random.Random(42)
    cfg = RandomPlumbingConfig(customs=False)
    for _ in range(20):
        data = random_plumbing(rng, cfg, ring, n=rng.choice((2, 3, 4)))
        norm = normalize(data)
        assert normalize(norm) == norm
        non_loops = [a for a in data.arrows if a.src != a.tgt]
        if non_loops:
            # self-loop flips legitimately move the gauge to 2 - n - d
            flipped = edge_flip_witness(data, rng.choice(non_loops).id).flipped
            assert normalize(flipped) == norm
        flip_set = {vid for vid, _ in data.vertices if rng.random() < 0.5}
        arrows = tuple(
            Arrow(a.id, a.src, a.tgt,
                  -a.sign if (a.src in flip_set) != (a.tgt in flip_set)
                  else a.sign, a.d)
            for a in data.arrows)
        assert normalize(PlumbingData(data.n, data.vertices, arrows,
                                      ring)) == norm


def test_normalize_keeps_loop_sign_classes_distinct():
    plus = PlumbingData(4, (("v", SPHERE),), (Arrow("e", "v", "v", 1, 0),),
                        ring)
    minus = PlumbingData(4, (("v", SPHERE),), (Arrow("e", "v", "v", -1, 0),),
                         ring)
    assert normalize(plus).arrow("e").sign == 1
    assert normalize(minus).arrow("e").sign == -1


# ---------------------------------------------------------------------------
# total endomorphism algebra and wire formats
# ---------------------------------------------------------------------------

def test_total_endomorphism_single_object():
    from semifree.fukaya import ModelId, build
    cat = build(ModelId.parse("S:3,2,0"), ring)
    alg = total_endomorphism_algebra(cat)
    assert alg.idempotents == (("L", "e_L"),)
    assert [g[0] for g in alg.generators] == ["a1", "a2", "h"]


def test_total_endomorphism_surface_plumbing():
    data = a2_data(2, specs=(surface(1), surface(0)))
    alg = total_endomorphism_algebra(build_wrapped(data))
    assert ("e_L_v*e_L_v = e_L_v") in alg.relations
    assert ("e_L_v*e_L_w = 0") in alg.relations
    by_name = {g[0]: g for g in alg.generators}
    # the multiplicative preprojective relation shape in the differentials
    assert by_name["h_v"][4] == "-1_{L_v} + delta1_v + delta1_v*y_e*x_e"
    assert by_name["h_w"][4] == "-x_e*y_e"


def test_plumbing_json_roundtrip():
    data = PlumbingData(
        2,
        (("v", surface(2)), ("w", DISK),
         ("u", custom([("w", 0)], [("w", "0")], "w"))),
        (Arrow("e1", "v", "w", -1, 3), Arrow("e2", "u", "u", 1, 0)), ring)
    doc = plumbing_to_json(data)
    assert plumbing_to_json(plumbing_from_json(doc)) == doc


def test_unknown_names_are_value_errors():
    # both lookups once raised KeyError, which the CLI printed quoted
    data = a2_data(3)
    with pytest.raises(UnknownName, match="^no arrow 'zz'$"):
        data.arrow("zz")
    with pytest.raises(UnknownName, match="^no generator named 'zz'$"):
        build_wrapped(data).gen("zz")
    assert issubclass(UnknownName, ValueError)
    assert not issubclass(UnknownName, KeyError)


@pytest.mark.parametrize("n", ["3", 3.0, True])
def test_plumbing_dimension_must_be_an_integer(n):
    # "3" and 3.0 were once coerced to 3, and True read as n = 1
    doc = plumbing_to_json(a2_data(3))
    doc["n"] = n
    with pytest.raises(ValueError) as err:
        plumbing_from_json(doc)
    assert str(err.value) == f"n: expected an integer, got {n!r}"


@pytest.mark.parametrize("case", sorted(MALFORMED_PLUMBINGS))
def test_plumbing_from_json_rejects_malformed_document(case):
    # a float or bool gauge and a string sign were once coerced, and a
    # document without "vertices" raised a bare KeyError
    doc, message = MALFORMED_PLUMBINGS[case]
    with pytest.raises(InputError) as err:
        plumbing_from_json(doc)
    assert str(err.value) == message


@pytest.mark.parametrize("case", sorted(MALFORMED_QUIVERS))
def test_quiver_from_json_rejects_malformed_document(case):
    # a quiver without "vertices" once raised a bare KeyError, and a float,
    # bool or string "q" was coerced by int()
    doc, message = MALFORMED_QUIVERS[case]
    with pytest.raises(InputError) as err:
        quiver_from_json(doc)
    assert str(err.value) == message


def _plumbing_names(doc):
    """The vertex, arrow and custom generator ids and the manifold types."""
    names = ["sphere", "disk", "surface", "custom"]
    for v in doc["vertices"]:
        names.append(v["id"])
        names += [g["name"] for g in v["manifold"].get("generators", ())]
    return names + [a["id"] for a in doc["arrows"]]


@settings(max_examples=500, deadline=None)
@given(mutated_documents(PLUMBINGS, _plumbing_names))
def test_plumbing_from_json_raises_only_input_errors(doc):
    # the checks of PlumbingData and of a custom vertex once escaped as a
    # bare ValueError with no path, such as "plumbing dimension n must be
    # >= 2"
    try:
        plumbing_from_json(doc)
    except InputError:
        pass


@settings(max_examples=500, deadline=None)
@given(mutated_documents(QUIVERS, lambda doc: doc["vertices"] + [
    a["id"] for a in doc["arrows"]]))
def test_quiver_from_json_raises_only_input_errors(doc):
    try:
        quiver_from_json(doc)
    except InputError:
        pass


def _placements():
    """(plumbing data, placement document): each tests/data plumbing at
    n = 2 with its default placement and with each left list reversed, and
    at n = 3, where no placement is taken."""
    cases = []
    for doc in PLUMBINGS:
        for n in (2, 3):
            try:
                data = plumbing_from_json(doc, n=n)
            except InputError:  # a surface at n = 3, or an eta of degree -1
                continue
            place = {vid: {side: [list(t) for t in tokens] for side, tokens
                           in zip(("left", "right"),
                                  _default_tokens(data, vid))}
                     for vid, _ in data.vertices}
            turned = {vid: {**p, "left": p["left"][::-1]}
                      for vid, p in place.items()}
            cases += [(data, place), (data, turned)]
    return cases


def _placement_names(doc):
    """The vertex and arrow ids and the token words of a placement."""
    names = {"eta", "in", "out", "left", "right", *doc}
    for p in doc.values():
        for token in p["left"] + p["right"]:
            names.update(token)
    return sorted(names)


@settings(max_examples=500, deadline=None)
@given(st.one_of(*(mutated_documents([place], _placement_names).map(
    lambda doc, data=data: (data, doc)) for data, place in _placements())))
def test_placement_from_json_raises_only_input_errors_at_their_paths(case):
    # tokens that did not match the arrow ends once left build_wrapped as a
    # ValueError with no path
    data, doc = case
    try:
        build_wrapped(data, placement_from_json(doc, data))
    except InputError as err:
        assert resolves(doc, err.path), (err.path, doc)


@pytest.mark.parametrize("vertices,arrows,part,message", [
    (("v", "v"), (), ("vertices", 1), "duplicate vertex id 'v'"),
    (("v", "w"), (("e", "v", "w"), ("e", "w", "v")), ("arrows", 1, "id"),
     "duplicate arrow id 'e'"),
    (("v",), (("e", "x", "v"),), ("arrows", 0, "src"), "unknown vertex 'x'"),
    (("v",), (("e", "v", "x"),), ("arrows", 0, "tgt"), "unknown vertex 'x'"),
], ids=["duplicate-vertex", "duplicate-arrow", "unknown-src", "unknown-tgt"])
def test_graded_quiver_checks_itself(vertices, arrows, part, message):
    # the class checked only the arrow ends: a quiver with a repeated
    # vertex was built, and build_ginzburg failed on it with "duplicate
    # object ids"
    with pytest.raises(ValueError) as err:
        GradedQuiver(vertices, tuple(GradedArrow(*a) for a in arrows))
    assert str(err.value) == message and err.value.part == part


def test_quiver_from_json_reads_vertex_objects():
    doc = {"vertices": [{"id": "v"}, "w"],
           "arrows": [{"id": "e", "src": "v", "tgt": "w"}]}
    assert quiver_from_json(doc) == GradedQuiver(
        ("v", "w"), (GradedArrow("e", "v", "w", 0),))
