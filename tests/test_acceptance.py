"""The acceptance gate: one test per criterion, each printing a PASS/FAIL
line (run with -s to see them on success).  Tolerances are exact equality
throughout; the stated runtime budgets are asserted."""

import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

from semifree.algebra import (
    Generator,
    INTEGERS,
    NcPoly,
    RATIONALS,
    compose,
    integers_mod,
    render_poly,
)
from semifree.analysis import presentation_equal, truncated_cohomology
from semifree.constructions import PushoutSpan, colimit, hocolim
from semifree.dgcat import DgFunctor, audit_d_squared, new_semifree, \
    validate_functor
from semifree.fukaya import ModelId, build, one_plus_xy_inverse
from semifree.plumbing import (
    RandomPlumbingConfig,
    edge_flip_witness,
    ginzburg_witness,
    random_plumbing,
    sign_gauge_witness,
)
from semifree.reduce import change_basis, strictify_t
from semifree.twisted import build_d12
from semifree.cli import main as cli_main
from helpers import assert_confluent_by_search, random_graded_quiver
from paper_models import (
    build_e12,
    cone_extend,
    generator_change_d12,
    inclusion_functor,
    regauge,
    sector_category_2,
    sigma,
    surface_relation_form,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
RINGS = (INTEGERS, RATIONALS, integers_mod(10007))


@contextmanager
def criterion(label):
    started = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"FAIL {label}")
        raise
    print(f"PASS {label}  [{time.perf_counter() - started:.2f}s]")


def test_criterion_1_d_squared_audit():
    with criterion("criterion 1: d^2 = 0 audit over builders and 1000 "
                   "random plumbings, three rings, < 60 s"):
        started = time.perf_counter()
        for ring in RINGS:
            for n in range(1, 7):
                audit_d_squared(build(ModelId.parse(f"C:{n}"), ring))
            audit_d_squared(build(ModelId("A1"), ring))
            audit_d_squared(build(ModelId("A2"), ring))
            for n in range(2, 6):
                for m_plus in range(0, 5):
                    for m_minus in range(0, 5 - m_plus):
                        if m_plus + m_minus < 1 or m_plus + m_minus > 4:
                            continue
                        audit_d_squared(build(
                            ModelId("S", (n, m_plus, m_minus)), ring))
            for g in range(1, 4):
                for m in range(1, 4):
                    audit_d_squared(build(ModelId("M", (g, m)), ring))
            for n in range(2, 7):
                audit_d_squared(build(ModelId("D12", (n,)), ring))
        from semifree.plumbing import PlumbingData, build_wrapped
        rng = random.Random(20240601)
        cfg = RandomPlumbingConfig(max_vertices=5, max_arrows=8)
        for _ in range(1000):
            data = random_plumbing(rng, cfg, INTEGERS)
            for ring in RINGS:
                over = PlumbingData(data.n, data.vertices, data.arrows, ring)
                audit_d_squared(build_wrapped(over))
        elapsed = time.perf_counter() - started
        assert elapsed < 60, f"audit took {elapsed:.1f}s"


def test_criterion_2_localization_golden(tmp_path):
    with criterion("criterion 2: localization quadruple byte-exact golden"):
        out = tmp_path / "c1.json"
        assert cli_main(["build", "--model", "C:1", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "localize_c1.json").read_bytes()
        doc = json.loads(out.read_text())
        gens = {g["name"]: g for g in doc["generators"]}
        assert [gens[k]["deg"] for k in ("z'", "z_hat", "z_check", "z_bar")] \
            == [0, -1, -1, -2]
        assert gens["z_hat"]["d"] == "1_{L} - z'*z"
        assert gens["z_check"]["d"] == "1_{L} - z*z'"
        assert gens["z_bar"]["d"] == "z*z_hat - z_check*z"


def _sphere_span(m, ring):
    a1 = build(ModelId("A1"), ring)
    s2m = build(ModelId.parse(f"S:2,{m},0"), ring)
    one = NcPoly.identity(ring, "K")
    zero = NcPoly.zero(ring, "K", "K")
    gm = {g.name: zero if g.name == "h"
          or g.name.endswith(("_hat", "_check", "_bar")) else one
          for g in s2m.generators}
    return PushoutSpan(a1, s2m, a1,
                       DgFunctor(s2m, a1, {"L": "K"}, gm),
                       DgFunctor(s2m, a1, {"L": "K"}, dict(gm)))


def test_criterion_3_hocolim_oracle():
    with criterion("criterion 3: hocolim of the punctured-circle span gives "
                   "the punctured 3-sphere exactly, m in {1,2,3}"):
        ring = INTEGERS
        for m in (1, 2, 3):
            h = hocolim(_sphere_span(m, ring))
            expected = NcPoly.zero(ring, "K", "K~")
            for i in range(1, m + 1):
                expected = expected + NcPoly.gen(ring, h.gen(f"t_a{i}"))
            assert h.differentials["t_h"] == expected  # dt_h = sum t_{a_i}
            strict = strictify_t(h)
            s3m = build(ModelId.parse(f"S:3,{m},0"), ring)
            rep = presentation_equal(
                s3m, strict, {"L": strict.objects[0]},
                {g.name: g.name for g in s3m.generators})
            assert rep["equal"], rep["mismatches"]


def test_criterion_4_sector_pipeline():
    with criterion("criterion 4: plumbing-sector pipeline replay, "
                   "n in {3,4,5} and the n = 2 localization variant"):
        ring = INTEGERS
        for n in (3, 4, 5):
            a1 = build(ModelId("A1"), ring)
            cn1 = build(ModelId.parse(f"C:{n-1}"), ring)
            b01 = build(ModelId.parse(f"B01:{n}"), ring)
            assert {g.name: g.degree for g in b01.generators} == \
                {"alpha0": 2 - n, "alpha1": 2 - n, "g": 0, "h": 1 - n}
            alpha = DgFunctor(cn1, a1, {"L": "K"},
                              {"z": NcPoly.zero(ring, "K", "K")})
            beta = DgFunctor(cn1, b01, {"L": "L0"},
                             {"z": NcPoly.gen(ring, b01.gen("alpha0"))})
            d01 = colimit(PushoutSpan(a1, cn1, b01, alpha, beta))
            assert render_poly(d01.differentials["h"]) == "alpha1*g"
            canon = build(ModelId.parse(f"D01:{n}"), ring)
            rep = presentation_equal(canon, d01, {"L0": "K", "L1": "L1"},
                                     {g.name: g.name
                                      for g in canon.generators})
            assert rep["equal"]
            coned = cone_extend(canon, "g")
            assert render_poly(coned.differentials["i0"]) == "i1*g"
            assert render_poly(coned.differentials["p1"]) == "-g*p0"
            d12, functor, images = generator_change_d12(n, ring)
            assert {g.name: g.degree for g in d12.generators} == \
                {"x": 0, "y": 2 - n}
            assert render_poly(images["yx"]) == "alpha1"
            phi = inclusion_functor("Phi", ring, n=n)
            psi = inclusion_functor("Psi", ring, n=n)
            assert render_poly(phi.generator_map["z"]) == "y*x"
            assert render_poly(psi.generator_map["z"]) == "x*y"

        # n = 2: alpha0 goes to the identity, then localize at 1 + yx and
        # witness that 1 + xy is invertible there
        a1 = build(ModelId("A1"), ring)
        c1core = new_semifree(ring, ("L",), (Generator("z", "L", "L", 0, 0),),
                              {"z": NcPoly.zero(ring, "L", "L")})
        b01 = build(ModelId.parse("B01:2"), ring)
        alpha = DgFunctor(c1core, a1, {"L": "K"},
                          {"z": NcPoly.identity(ring, "K")})
        beta = DgFunctor(c1core, b01, {"L": "L0"},
                         {"z": NcPoly.gen(ring, b01.gen("alpha0"))})
        d201 = colimit(PushoutSpan(a1, c1core, b01, alpha, beta))
        assert render_poly(d201.differentials["h"]) == "-g + alpha1*g"
        primed = change_basis(d201, "alpha1", 1, -NcPoly.identity(ring, "L1"),
                              "alpha1'")
        assert render_poly(primed.differentials["h"]) == "alpha1'*g"
        d12, functor, images = generator_change_d12(2, ring)
        one1 = NcPoly.identity(ring, "L1")
        x = NcPoly.gen(ring, d12.gen("x"))
        y = NcPoly.gen(ring, d12.gen("y"))
        image = functor.target.normalize(functor.apply(one1 + compose(y, x)))
        assert image == NcPoly.identity(ring, "L1") \
            + NcPoly.gen(ring, functor.target.gen("alpha1"))
        sector = sector_category_2(ring)
        witness = one_plus_xy_inverse(sector, "x", "y", "w")
        one2 = NcPoly.identity(ring, "L2")
        assert sector.d(witness["left_htpy"]) == \
            one2 - compose(witness["inverse"], witness["one_plus_xy"])
        assert sector.d(witness["right_htpy"]) == \
            one2 - compose(witness["one_plus_xy"], witness["inverse"])


def test_criterion_5_ginzburg_equality():
    with criterion("criterion 5: Ginzburg presentation equality on 50 random "
                   "graded quivers, n in {3,4,5}, < 10 s"):
        started = time.perf_counter()
        rng = random.Random(606)
        ring = INTEGERS
        for _ in range(50):
            gq = random_graded_quiver(rng, max_vertices=5, max_arrows=8,
                                      q_range=(-3, 3))
            for n in (3, 4, 5):
                _, _, report = ginzburg_witness(gq, n, ring)
                assert report["equal"], report["mismatches"]
        elapsed = time.perf_counter() - started
        assert elapsed < 10, f"took {elapsed:.1f}s"


def test_criterion_6_equivalence_witnesses():
    with criterion("criterion 6: 100 edge flips (both directions), 100 sign "
                   "gauges, 100 gauge transports"):
        ring = INTEGERS
        rng = random.Random(707)
        cfg = RandomPlumbingConfig(max_vertices=4, max_arrows=6)
        flips = 0
        while flips < 100:
            n = (2, 3, 4, 5)[flips % 4]
            data = random_plumbing(rng, cfg, ring, n=n)
            if not data.arrows:
                continue
            u = rng.choice(data.arrows)
            witness = edge_flip_witness(data, u.id)
            flipped = witness.flipped.arrow(u.id)
            assert flipped.sign == ((-1) ** n) * u.sign
            assert flipped.d == 2 - n - u.d
            assert witness.certificates[0]["valid"]
            assert witness.certificates[1]["valid"]
            flips += 1
        sphere_cfg = RandomPlumbingConfig(max_vertices=4, max_arrows=6,
                                          surfaces=False, customs=False,
                                          disks=False)
        for i in range(100):
            data = random_plumbing(rng, sphere_cfg, ring,
                                   n=(3, 4, 5, 6)[i % 4])
            flip_set = [vid for vid, _ in data.vertices
                        if rng.random() < 0.5]
            witness = sign_gauge_witness(data, flip_set)
            assert witness.certificate["valid"]
        for _ in range(100):
            data = random_plumbing(rng, cfg, ring, n=3)
            delta = {vid: rng.randint(-5, 5) for vid, _ in data.vertices}
            assert sigma(data).same_class(sigma(regauge(data, delta)))


def test_criterion_7_truncated_cohomology():
    with criterion("criterion 7: truncated ranks of the sector categories, "
                   "rational and mod-10007 agreement, < 10 s"):
        started = time.perf_counter()
        ring = INTEGERS
        d12 = build_d12(3, ring)
        table = truncated_cohomology(d12, "L1", "L1", (-3, 0), 8, RATIONALS)
        assert table.ranks == {0: 1, -1: 1, -2: 1, -3: 1}
        e12 = build_e12(3, ring)
        te = truncated_cohomology(e12, "L2", "L1", (-3, 1), 8, RATIONALS)
        td = truncated_cohomology(d12, "L2", "L1", (-3, 1), 8, RATIONALS)
        assert te.ranks == td.ranks
        p = integers_mod(10007)
        for cat, src, tgt in ((d12, "L1", "L1"), (d12, "L2", "L1"),
                              (e12, "L2", "L1")):
            tq = truncated_cohomology(cat, src, tgt, (-3, 1), 8, RATIONALS)
            tp = truncated_cohomology(cat, src, tgt, (-3, 1), 8, p)
            assert tq.ranks == tp.ranks
        elapsed = time.perf_counter() - started
        assert elapsed < 10, f"took {elapsed:.1f}s"


def test_criterion_8_surface_presentations():
    with criterion("criterion 8: surface presentations for g, m <= 3 and "
                   "the commutator relation form by exact rewriting"):
        ring = INTEGERS
        for g in (1, 2, 3):
            for m in (1, 2, 3):
                cat = build(ModelId("M", (g, m)), ring)
                for j in range(1, g + 1):
                    assert render_poly(cat.differentials[f"gamma{j}"]) == \
                        f"alpha{j}*beta{j} - beta{j}*alpha{j}*delta{j}"
                a_word = tuple(cat.gen(f"a{i}") for i in range(m, 0, -1))
                d_word = tuple(cat.gen(f"delta{j}") for j in range(g, 0, -1))
                assert cat.differentials["h"] == NcPoly.from_terms(
                    ring, "L", "L", [(a_word, 1), (d_word, -1)])
        for g in (1, 2):
            for m in (1, 2):
                rel, witness = surface_relation_form(g, m, ring)
                assert validate_functor(witness)["valid"]
                a_word = tuple(rel.gen(f"a{i}") for i in range(m, 0, -1))
                prod = NcPoly(ring, "L", "L", {a_word: 1})
                commutators = rel.rules[-1][1]
                assert rel.normalize(prod) == rel.normalize(commutators)


def test_criterion_9_cone_calculus():
    with criterion("criterion 9: cone differentials, critical pairs, and "
                   "closedness of the transported loop"):
        ring = INTEGERS
        for n in (2, 3, 4):
            d01 = build(ModelId.parse(f"D01:{n}"), ring)
            coned = cone_extend(d01, "g")
            assert render_poly(coned.differentials["i0"]) == "i1*g"
            assert render_poly(coned.differentials["p1"]) == "-g*p0"
            assert_confluent_by_search(coned, 3)
            i1 = NcPoly.gen(ring, coned.gen("i1"))
            p0 = NcPoly.gen(ring, coned.gen("p0"))
            p1 = NcPoly.gen(ring, coned.gen("p1"))
            alpha1 = NcPoly.gen(ring, coned.gen("alpha1"))
            h = NcPoly.gen(ring, coned.gen("h"))
            alpha2 = (compose(compose(i1, alpha1), p1)
                      + compose(compose(i1, h), p0).scale((-1) ** n))
            assert coned.normalize(coned.d(alpha2)).is_zero()
