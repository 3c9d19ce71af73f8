"""Localization, colimits, homotopy colimits, tensor products."""

import pytest

from semifree.algebra import (
    Generator,
    INTEGERS,
    NcPoly,
    compose,
    render_poly,
)
from semifree.dgcat import (
    DgFunctor,
    audit_d_squared,
    new_semifree,
    validate_functor,
)
from semifree.constructions import (
    PushoutSpan,
    colimit,
    hocolim,
    is_semifree_extension,
    localization_records,
    localize,
    name_as_generator,
    strip_localization,
    tensor,
)
from semifree.fukaya import ModelId, build
from semifree.reduce import strictify_t
from semifree.analysis import presentation_equal
from semifree.rewrite import audit_rules
from helpers import (
    SpanLadder,
    assert_confluent_by_search,
    hocolim_functor,
    identity_functor,
    strictify_map,
)
from paper_models import (
    build_e12,
    cone_extend,
    product_inverse,
    shift_presentation,
)

ring = INTEGERS


def sphere_span(m, i_map=None):
    """The span A1 <- S_{2,m} -> A1 with every loop sent to the identity."""
    a1 = build(ModelId("A1"), ring)
    s2m = build(ModelId.parse(f"S:2,{m},0"), ring)
    one = NcPoly.identity(ring, "K")
    zero = NcPoly.zero(ring, "K", "K")
    gm = {}
    for g in s2m.generators:
        if g.name == "h" or g.name.endswith(("_hat", "_check", "_bar")):
            gm[g.name] = zero
        else:
            gm[g.name] = one
    alpha = DgFunctor(s2m, a1, {"L": "K"}, gm)
    beta = DgFunctor(s2m, a1, {"L": "K"}, dict(gm))
    return PushoutSpan(a1, s2m, a1, alpha, beta)


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------

def test_localize_c1_quadruple():
    c1 = build(ModelId.parse("C:1"), ring)  # already localized
    names = [(g.name, g.degree) for g in c1.generators]
    assert names == [("z", 0), ("z'", 0), ("z_hat", -1), ("z_check", -1),
                     ("z_bar", -2)]
    assert render_poly(c1.differentials["z_hat"]) == "1_{L} - z'*z"
    assert render_poly(c1.differentials["z_check"]) == "1_{L} - z*z'"
    assert render_poly(c1.differentials["z_bar"]) == "z*z_hat - z_check*z"


def test_localize_identity_named_generator():
    # localizing a generator homotopic to the identity: d(g_hat) = 1 - g'
    cat = new_semifree(ring, ("X",), (Generator("g", "X", "X", 0, 0),),
                       {"g": NcPoly.zero(ring, "X", "X")})
    named = name_as_generator(cat, NcPoly.identity(ring, "X"), "u")
    loc = localize(named, ["u"])
    audit_d_squared(loc)
    assert render_poly(loc.differentials["u_htpy"]) == "-1_{X} + u"


def test_localize_rejects_wrong_degree_or_nonclosed():
    s = build(ModelId.parse("S:3,1,0"), ring)
    with pytest.raises(ValueError):
        localize(s, ["a1"])  # degree -1
    bad = new_semifree(
        ring, ("X",),
        (Generator("c", "X", "X", -1, 0), Generator("g", "X", "X", 0, 1)),
        {"c": NcPoly.zero(ring, "X", "X"),
         "g": NcPoly.zero(ring, "X", "X")})
    # make g non-closed via a fresh category
    g = Generator("g", "X", "X", 0, 1)
    c = Generator("c", "X", "X", 1, 0)
    cat = new_semifree(ring, ("X",), (c, g),
                       {"c": NcPoly.zero(ring, "X", "X"),
                        "g": NcPoly.gen(ring, c)})
    with pytest.raises(ValueError):
        localize(cat, ["g"])


def test_localize_tests_closedness_modulo_the_rules():
    # d(g) = y*x is zero modulo the rule y*x -> 0, but not modulo x*y -> 0
    x = Generator("x", "L", "L", 0, 0)
    y = Generator("y", "L", "L", 1, 1)
    g = Generator("g", "L", "L", 0, 2)
    zero = NcPoly.zero(ring, "L", "L")
    table = {"x": zero, "y": zero,
             "g": compose(NcPoly.gen(ring, y), NcPoly.gen(ring, x))}
    cat = new_semifree(ring, ("L",), (x, y, g), table, rules=[((y, x), zero)])
    loc = localize(cat, ["g"])
    audit_d_squared(loc)
    audit_rules(loc)
    assert loc.rules == cat.rules and len(loc.generators) == 7
    other = new_semifree(ring, ("L",), (x, y, g), table,
                         rules=[((x, y), zero)])
    with pytest.raises(ValueError, match="^g is not closed, cannot invert$"):
        localize(other, ["g"])


def test_name_composite_then_localize():
    d12 = build(ModelId.parse("D12:2"), ring)
    expr = NcPoly.identity(ring, "L1") + compose(
        NcPoly.gen(ring, d12.gen("y")), NcPoly.gen(ring, d12.gen("x")))
    named = name_as_generator(d12, expr, "w")
    loc = localize(named, ["w"])
    audit_d_squared(loc)
    assert render_poly(loc.differentials["w_htpy"]) == "-1_{L1} + w - y*x"
    recs = localization_records(loc)
    assert [r.inverted for r in recs] == ["w"]


def test_name_as_generator_keeps_the_rules():
    # d(a*x) = -b*x is zero only modulo the rule b*x -> 0 of E12:3, and the
    # category named from it keeps both rules
    e12 = build_e12(3, ring)
    expr = compose(NcPoly.gen(ring, e12.gen("a")),
                   NcPoly.gen(ring, e12.gen("x")))
    named = name_as_generator(e12, expr, "u")
    assert named.rules == e12.rules
    assert render_poly(named.differentials["u_htpy"]) == "u - a*x"
    loc = localize(named, ["u"])
    assert loc.rules == e12.rules and len(loc.generators) == 10


# ---------------------------------------------------------------------------
# colimit
# ---------------------------------------------------------------------------

def test_colimit_sets_alpha0_to_zero():
    for n in (3, 4):
        a1 = build(ModelId("A1"), ring)
        c = build(ModelId.parse(f"C:{n-1}"), ring)
        b01 = build(ModelId.parse(f"B01:{n}"), ring)
        alpha = DgFunctor(c, a1, {"L": "K"}, {"z": NcPoly.zero(ring, "K", "K")})
        beta = DgFunctor(c, b01, {"L": "L0"},
                         {"z": NcPoly.gen(ring, b01.gen("alpha0"))})
        assert is_semifree_extension(beta)
        out = colimit(PushoutSpan(a1, c, b01, alpha, beta))
        assert render_poly(out.differentials["h"]) == "alpha1*g"


def test_colimit_sets_alpha0_to_identity():
    a1 = build(ModelId("A1"), ring)
    c = new_semifree(ring, ("L",), (Generator("z", "L", "L", 0, 0),),
                     {"z": NcPoly.zero(ring, "L", "L")})
    b01 = build(ModelId.parse("B01:2"), ring)
    alpha = DgFunctor(c, a1, {"L": "K"}, {"z": NcPoly.identity(ring, "K")})
    beta = DgFunctor(c, b01, {"L": "L0"},
                     {"z": NcPoly.gen(ring, b01.gen("alpha0"))})
    out = colimit(PushoutSpan(a1, c, b01, alpha, beta))
    assert render_poly(out.differentials["h"]) == "-g + alpha1*g"


def test_colimit_empty_c_is_disjoint_union():
    a = build(ModelId.parse("C:2"), ring)
    b = build(ModelId.parse("D12:3"), ring)
    empty = new_semifree(ring, (), (), {})
    alpha = DgFunctor(empty, a, {}, {})
    beta = DgFunctor(empty, b, {}, {})
    out = colimit(PushoutSpan(a, empty, b, alpha, beta))
    assert set(out.objects) == {"L", "L1", "L2"}
    assert len(out.generators) == 3


def test_colimit_object_reordering_is_renaming():
    # reordering c's objects gives the same category up to renaming
    a = build(ModelId("A2"), ring)
    c2 = new_semifree(ring, ("P", "Q"), (), {})
    b = new_semifree(ring, ("P", "Q", "R"),
                     (Generator("s", "P", "R", 0, 0),),
                     {"s": NcPoly.zero(ring, "P", "R")})
    beta = DgFunctor(c2, b, {"P": "P", "Q": "Q"}, {})
    alpha1 = DgFunctor(c2, a, {"P": "K0", "Q": "K1"}, {})
    out1 = colimit(PushoutSpan(a, c2, b, alpha1, beta))
    c2r = new_semifree(ring, ("Q", "P"), (), {})
    beta2 = DgFunctor(c2r, b, {"P": "P", "Q": "Q"}, {})
    alpha2 = DgFunctor(c2r, a, {"P": "K0", "Q": "K1"}, {})
    out2 = colimit(PushoutSpan(a, c2r, b, alpha2, beta2))
    rep = presentation_equal(out1, out2, {o: o for o in out1.objects},
                             {g.name: g.name for g in out1.generators})
    assert rep["equal"]


# ---------------------------------------------------------------------------
# hocolim
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3])
def test_hocolim_sphere_span(m):
    h = hocolim(sphere_span(m))
    audit_d_squared(h)
    t_names = [f"t_a{i}" for i in range(1, m + 1)]
    assert render_poly(h.differentials["t_h"]) == " + ".join(t_names)
    for name in t_names:
        assert h.gen(name).degree == -1
    assert h.gen("t_h").degree == -2
    assert h.gen("t_L").degree == 0


def test_hocolim_extension_leg_becomes_colimit():
    # beta = identity functor: the hocolim strictifies to A on the nose
    a = build(ModelId.parse("S:3,2,0"), ring)
    ident = identity_functor(a)
    out = hocolim(PushoutSpan(a, a, a, ident, ident))
    rep = presentation_equal(a, out, {"L": "L"},
                             {g.name: g.name for g in a.generators})
    assert rep["equal"]


def test_hocolim_equals_colimit_for_extension_spans():
    # both legs semifree extensions: hocolim strictifies to the colimit
    a = build(ModelId.parse("B01:3"), ring)
    c = build(ModelId.parse("C:2"), ring)
    b = build(ModelId.parse("D01:3"), ring)
    alpha = DgFunctor(c, a, {"L": "L1"},
                      {"z": NcPoly.gen(ring, a.gen("alpha1"))})
    beta = DgFunctor(c, b, {"L": "L1"},
                     {"z": NcPoly.gen(ring, b.gen("alpha1"))})
    assert is_semifree_extension(alpha) and is_semifree_extension(beta)
    via_hocolim = hocolim(PushoutSpan(a, c, b, alpha, beta))
    via_colimit = colimit(PushoutSpan(a, c, b, alpha, beta))
    rep = presentation_equal(via_colimit, via_hocolim,
                             {o: o for o in via_colimit.objects},
                             {g.name: g.name
                              for g in via_colimit.generators})
    assert rep["equal"]


def test_hocolim_drops_inversion_data():
    # hocolim over a localized C equals hocolim over its core
    span_loc = sphere_span(2)
    core, dropped = strip_localization(span_loc.c)
    assert dropped
    alpha = DgFunctor(core, span_loc.a, {"L": "K"},
                      {g.name: span_loc.alpha.generator_map[g.name]
                       for g in core.generators})
    beta = DgFunctor(core, span_loc.b, {"L": "K"},
                     {g.name: span_loc.beta.generator_map[g.name]
                      for g in core.generators})
    h1 = hocolim(span_loc)
    h2 = hocolim(PushoutSpan(span_loc.a, core, span_loc.b, alpha, beta))
    rep = presentation_equal(h1, h2, {o: o for o in h1.objects},
                             {g.name: g.name for g in h1.generators})
    assert rep["equal"]


@pytest.mark.parametrize("m", [1, 2])
def test_strictified_hocolim_equals_punctured_sphere(m):
    strict = strictify_t(hocolim(sphere_span(m)))
    s3m = build(ModelId.parse(f"S:3,{m},0"), ring)
    rep = presentation_equal(s3m, strict, {"L": strict.objects[0]},
                             {g.name: g.name for g in s3m.generators})
    assert rep["equal"], rep["mismatches"]


def test_hocolim_odd_degree_correction_term():
    # letters of odd degree exercise the twisted-derivation signs; the
    # binding oracle is that construction passes d^2 = 0 (it aborts if not)
    def loop_cat(w_name, f_name, obj):
        w = Generator(w_name, obj, obj, 3, 0)
        f = Generator(f_name, obj, obj, 5, 1)
        return new_semifree(ring, (obj,), (w, f), {
            w_name: NcPoly.zero(ring, obj, obj),
            f_name: compose(NcPoly.gen(ring, w), NcPoly.gen(ring, w)),
        })

    c = loop_cat("w", "f", "L")
    a = loop_cat("wa", "fa", "A")
    b = loop_cat("wb", "fb", "B")
    # unit rescaling keeps the legs valid but not semifree extensions
    alpha = DgFunctor(c, a, {"L": "A"},
                      {"w": NcPoly.gen(ring, a.gen("wa"), -1),
                       "f": NcPoly.gen(ring, a.gen("fa"))})
    beta = DgFunctor(c, b, {"L": "B"},
                     {"w": NcPoly.gen(ring, b.gen("wb"), -1),
                      "f": NcPoly.gen(ring, b.gen("fb"))})
    validate_functor(alpha)
    validate_functor(beta)
    assert not is_semifree_extension(beta)
    h = hocolim(PushoutSpan(a, c, b, alpha, beta))
    audit_d_squared(h)
    # dt_f = -(beta(f) t - t alpha(f)) + T(ww); T(ww) picks up the Koszul
    # sign of the right alpha-block and the -1 rescaling of w on both legs
    assert render_poly(h.differentials["t_f"]) == \
        "-wb*t_w - fb*t_L + t_L*fa + t_w*wa"


def test_left_block_sign_convention_fails_d_squared():
    # the rejected alternative: signing T by the degree of the left
    # beta-block breaks d^2 = 0 on odd-degree products, so the engine signs
    # by the right alpha-block (test_hocolim_odd_degree_correction_term)
    w = Generator("w", "L", "L", 3, 0)
    f = Generator("f", "L", "L", 5, 1)
    c = new_semifree(ring, ("L",), (w, f), {
        "w": NcPoly.zero(ring, "L", "L"),
        "f": compose(NcPoly.gen(ring, w), NcPoly.gen(ring, w)),
    })
    h = hocolim(PushoutSpan(c, c, c, identity_functor(c),
                            identity_functor(c)))
    # an extension leg collapses this to a colimit; force the general shape
    alpha = DgFunctor(c, c, {"L": "L"},
                      {"w": NcPoly.gen(ring, w, -1),
                       "f": NcPoly.gen(ring, f)})
    h = hocolim(PushoutSpan(c, c, c, alpha, alpha))
    table = dict(h.differentials)
    t_w = NcPoly.gen(ring, h.gen("t_w"))
    w_a = NcPoly.gen(ring, h.gen("w"))
    w_b = NcPoly.gen(ring, h.gen("w~"))
    f_a = NcPoly.gen(ring, h.gen("f"))
    f_b = NcPoly.gen(ring, h.gen("f~"))
    t_l = NcPoly.gen(ring, h.gen("t_L"))
    # T_left(ww) = t_w alpha(w) + (-1)^{|w|} beta(w) t_w
    bad = (-(compose(f_b, t_l) - compose(t_l, f_a))
           + compose(t_w, -w_a) - compose(-w_b, t_w))
    table["t_f"] = bad
    from semifree.algebra import leibniz_d
    assert not leibniz_d(bad, table).is_zero()
    assert leibniz_d(h.differentials["t_f"], table).is_zero()


# ---------------------------------------------------------------------------
# induced functors between hocolims
# ---------------------------------------------------------------------------

def circle_to_sphere_ladder(m, i):
    a1 = build(ModelId("A1"), ring)
    c1 = new_semifree(ring, ("L",), (Generator("z", "L", "L", 0, 0),),
                      {"z": NcPoly.zero(ring, "L", "L")})
    one = NcPoly.identity(ring, "K")
    top = PushoutSpan(a1, c1, a1,
                      DgFunctor(c1, a1, {"L": "K"}, {"z": one}),
                      DgFunctor(c1, a1, {"L": "K"}, {"z": one}))
    bottom = sphere_span(m)
    f_c = DgFunctor(c1, bottom.c, {"L": "L"},
                    {"z": NcPoly.gen(ring, bottom.c.gen(f"a{i}"))})
    validate_functor(f_c)
    return SpanLadder(top, bottom, identity_functor(a1), f_c,
                      identity_functor(a1))


@pytest.mark.parametrize("m,i", [(2, 1), (3, 2)])
def test_punctured_sphere_ladder(m, i):
    h = hocolim_functor(circle_to_sphere_ladder(m, i))
    assert render_poly(h.generator_map["t_z"]) == f"t_a{i}"
    assert render_poly(h.generator_map["t_L"]) == "t_L"


def test_identity_ladder_gives_identity():
    span = sphere_span(2)
    ladder = SpanLadder(span, span, identity_functor(span.a),
                        identity_functor(span.c), identity_functor(span.b))
    h = hocolim_functor(ladder)
    for g in h.source.generators:
        assert render_poly(h.generator_map[g.name]) == g.name


def test_strictify_commutes_with_induced_functor():
    # strictifying either before or after transporting generators agrees
    ladder = circle_to_sphere_ladder(3, 2)
    h = hocolim_functor(ladder)
    strict_src, _, images_src = strictify_map(h.source)
    strict_tgt, obj_tgt, images_tgt = strictify_map(h.target)
    from semifree.dgcat import push_poly
    # route 1: source generator -> H -> strictified target
    # route 2: source generator -> strictified source name -> expected image
    z_img = push_poly(h.generator_map["t_z"],
                      {o: obj_tgt[o] for o in h.target.objects},
                      {g.name: images_tgt[g.name] for g in h.target.generators},
                      ring)
    assert render_poly(z_img) == "a2"
    assert "z" in {g.name for g in strict_src.generators}


def test_noncommuting_ladder_rejected():
    ladder = circle_to_sphere_ladder(2, 1)
    bad_fc = DgFunctor(ladder.f_c.source, ladder.bottom.c, {"L": "L"},
                       {"z": NcPoly.gen(ring, ladder.bottom.c.gen("h"))
                        if False else
                        NcPoly.zero(ring, "L", "L")})
    bad = SpanLadder(ladder.top, ladder.bottom, ladder.f_a, bad_fc, ladder.f_b)
    with pytest.raises(ValueError):
        hocolim_functor(bad)


def test_surface_gluing_identifies_delta_with_b():
    # gluing the one-holed torus piece to the punctured sphere along the
    # circle identifies b_1 with delta_1 and lands on the surface core
    h_cat = new_semifree(ring, ("L",), (
        Generator("alpha1", "L", "L", 0, 0),
        Generator("beta1", "L", "L", 0, 1),
        Generator("delta1", "L", "L", 0, 2),
        Generator("gamma1", "L", "L", -1, 3),
    ), {
        "alpha1": NcPoly.zero(ring, "L", "L"),
        "beta1": NcPoly.zero(ring, "L", "L"),
        "delta1": NcPoly.zero(ring, "L", "L"),
        "gamma1": compose(NcPoly.gen(ring, Generator("alpha1", "L", "L", 0, 0)),
                          NcPoly.gen(ring, Generator("beta1", "L", "L", 0, 1)))
        - compose(compose(NcPoly.gen(ring, Generator("beta1", "L", "L", 0, 1)),
                          NcPoly.gen(ring, Generator("alpha1", "L", "L", 0, 0))),
                  NcPoly.gen(ring, Generator("delta1", "L", "L", 0, 2))),
    })
    sphere = build(ModelId.parse("S:2,1,1"), ring, {"localize": False})
    circle = new_semifree(ring, ("X",), (Generator("z", "X", "X", 0, 0),),
                          {"z": NcPoly.zero(ring, "X", "X")})
    alpha = DgFunctor(circle, h_cat, {"X": "L"},
                      {"z": NcPoly.gen(ring, h_cat.gen("delta1"))})
    beta = DgFunctor(circle, sphere, {"X": "L"},
                     {"z": NcPoly.gen(ring, sphere.gen("b1"))})
    glued = hocolim(PushoutSpan(h_cat, circle, sphere, alpha, beta))
    surface_core = build(ModelId.parse("M:1,1"), ring, {"localize": False})
    rep = presentation_equal(surface_core, glued, {"L": "L"},
                             {g.name: g.name
                              for g in surface_core.generators})
    assert rep["equal"], rep["mismatches"]


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def test_tensor_a2_with_sphere():
    # the interchange relation (1 (x) z)(f (x) 1) = (f (x) 1)(1 (x) z)
    n = 4
    a2 = build(ModelId("A2"), ring)
    c = build(ModelId.parse(f"C:{n-1}"), ring)
    t = tensor(a2, c)
    audit_d_squared(t)
    assert set(t.objects) == {"(K0,L)", "(K1,L)"}
    (lhs, rhs), = [r for r in t.rules]
    assert [g.name for g in lhs] == ["1_K1⊗z", "f⊗1_L"]
    assert render_poly(rhs) == "f⊗1_L*1_K0⊗z"
    assert_confluent_by_search(t, 3)


def test_tensor_with_point_is_isomorphic_copy():
    a1 = build(ModelId("A1"), ring)
    s = build(ModelId.parse("S:3,2,0"), ring)
    t = tensor(a1, s)
    renaming = {g.name: f"1_K⊗{g.name}" for g in s.generators}
    rep = presentation_equal(s, t, {"L": "(K,L)"}, renaming)
    assert rep["equal"]


def test_tensor_odd_odd_anticommutes():
    u = new_semifree(ring, ("U",), (Generator("p", "U", "U", 1, 0),),
                     {"p": NcPoly.zero(ring, "U", "U")})
    v = new_semifree(ring, ("V",), (Generator("q", "V", "V", 3, 0),),
                     {"q": NcPoly.zero(ring, "V", "V")})
    t = tensor(u, v)
    (lhs, rhs), = list(t.rules)
    coeff, = rhs.terms.values()
    assert coeff == -1
    assert_confluent_by_search(t, 3)


def test_product_inverse_chain():
    s = build(ModelId.parse("S:2,3,0"), ring)
    names = ["a2", "a1"]
    inv, hat, check = product_inverse(s, names, "L")
    prod = compose(NcPoly.gen(ring, s.gen("a2")), NcPoly.gen(ring, s.gen("a1")))
    one = NcPoly.identity(ring, "L")
    assert s.d(hat) == one - compose(inv, prod)
    assert s.d(check) == one - compose(prod, inv)


# ---------------------------------------------------------------------------
# constructions that cannot carry rules refuse them
# ---------------------------------------------------------------------------

def test_colimit_and_hocolim_refuse_a_part_with_rules():
    # E12:3 <- A1 -> A2, beta a semifree extension: the colimit would keep
    # E12's generators and differentials but not its two rules
    e12 = build_e12(3, ring)
    a1 = build(ModelId("A1"), ring)
    a2 = build(ModelId("A2"), ring)
    alpha = DgFunctor(a1, e12, {"K": "L1"}, {})
    beta = DgFunctor(a1, a2, {"K": "K0"}, {})
    for construct, name in ((colimit, "colimit"), (hocolim, "hocolim")):
        with pytest.raises(ValueError, match=f"^{name} cannot keep the "
                                             "rules of part a$"):
            construct(PushoutSpan(e12, a1, a2, alpha, beta))
    back = DgFunctor(a1, e12, {"K": "L2"}, {})
    with pytest.raises(ValueError, match="^hocolim cannot keep the rules of "
                                         "part b$"):
        hocolim(PushoutSpan(a2, a1, e12, beta, back))


def test_shift_tensor_and_strictify_refuse_rules():
    e12 = build_e12(3, ring)
    with pytest.raises(ValueError, match="^shift_presentation cannot keep a "
                                         "category's rules$"):
        shift_presentation(e12, {"L1": 1})
    with pytest.raises(ValueError, match="^tensor cannot keep the rules of "
                                         "factor b$"):
        tensor(build(ModelId("A2"), ring), e12)
    # a cone adds rules after a hocolim
    h = hocolim(sphere_span(2))
    coned = cone_extend(h, NcPoly.gen(ring, h.gen("t_L")))
    with pytest.raises(ValueError, match="^strictify_t cannot keep a "
                                         "category's rules$"):
        strictify_t(coned)
