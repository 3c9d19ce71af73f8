"""Golden-file coverage for every subcommand, plus determinism and verify."""

import importlib
import inspect
import json
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    MALFORMED_DOCUMENTS,
    MALFORMED_PLUMBINGS,
    MALFORMED_QUIVERS,
    NON_COMPOSABLE_RULE,
    NOT_CONFLUENT,
    _c3_with,
    mutated_documents,
    resolves,
)
from semifree.algebra import _MR_LIMIT
from semifree.cli import _dump, load_functor, load_span, main, make_parser
from semifree.dgcat import DSquaredNonzero, FunctorError, InputError, from_json
from semifree.reduce import replay
from semifree.rewrite import RuleError

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = [
    ("localize_c1.json", ["build", "--model", "C:1"]),
    ("localize_s22.txt", ["localize", str(DATA / "s22_core.json"),
                          "--gens", "a1,a2", "--emit", "text"]),
    ("build_s321.txt", ["build", "--model", "S:3,2,1", "--emit", "text"]),
    ("build_m11.txt", ["build", "--model", "M:1,1", "--emit", "text"]),
    ("plumb_a2_n3.txt", ["plumb", str(DATA / "a2_n3.json"), "--emit", "text"]),
    ("plumb_a2_n3.json", ["plumb", str(DATA / "a2_n3.json")]),
    ("plumb_surface_n2.txt", ["plumb", str(DATA / "surface_plumbing_n2.json"),
                              "--emit", "text"]),
    ("ginzburg_n3.txt", ["ginzburg", str(DATA / "loop_quiver.json"),
                         "--n", "3", "--emit", "text"]),
    ("ginzburg_witness.json", ["ginzburg", str(DATA / "loop_quiver.json"),
                               "--n", "3", "--witness"]),
    ("hocolim_sphere_m2.txt", ["hocolim", str(DATA / "sphere_span_m2.json"),
                               "--strictify", "--emit", "text"]),
    ("simplify_e12.txt", ["simplify", str(DATA / "e12_n3.json"),
                          "--script", str(DATA / "cancel_script.json"),
                          "--emit", "text"]),
    ("simplify_e12_basis.txt", ["simplify", str(DATA / "e12_n3.json"),
                                "--script", str(DATA / "basis_script.json"),
                                "--emit", "text"]),
    ("hom_d12.md", ["hom", str(DATA / "d12_n3.json"), "--src", "L1",
                    "--tgt", "L1", "--window=-3:0", "--bound", "8",
                    "--emit", "md"]),
    ("hom_d12.json", ["hom", str(DATA / "d12_n3.json"), "--src", "L1",
                      "--tgt", "L1", "--window=-3:0", "--bound", "8"]),
    ("tensor_a2_c3.txt", ["tensor", str(DATA / "a2.json"),
                          str(DATA / "c3.json"), "--emit", "text"]),
    ("hom_a2_c1.json", ["hom", str(DATA / "a2_c1.json"), "--src", "(K0,L)",
                        "--tgt", "(K1,L)", "--window=-2:0", "--bound", "4",
                        "--field", "Zmod:10007"]),
    ("hom_a2_c1_q.json", ["hom", str(DATA / "a2_c1.json"), "--src", "(K0,L)",
                          "--tgt", "(K1,L)", "--window=-2:0", "--bound", "4",
                          "--field", "Q"]),
    ("hom_m11.json", ["hom", str(DATA / "m11.json"), "--src", "L",
                      "--tgt", "L", "--window=-6:0", "--bound", "3",
                      "--field", "Zmod:10007"]),
    ("normalize_messy.json", ["normalize", str(DATA / "messy_data.json")]),
    ("equiv_flip.json", ["equiv", "flip", str(DATA / "messy_data.json"),
                         "--arrow", "e1"]),
    ("equiv_gauge.json", ["equiv", "gauge", str(DATA / "messy_data.json"),
                          "--flip-set", "a,b"]),
]


@pytest.mark.parametrize("golden,argv", CASES, ids=[c[0] for c in CASES])
def test_golden(golden, argv, tmp_path):
    out = tmp_path / golden
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


def test_byte_identical_across_runs(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    argv = ["plumb", str(DATA / "surface_plumbing_n2.json")]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_localization_golden_matches_proposition():
    doc = json.loads((GOLDEN / "localize_c1.json").read_text())
    gens = {g["name"]: g for g in doc["generators"]}
    assert [gens[n]["deg"] for n in ("z'", "z_hat", "z_check", "z_bar")] == \
        [0, -1, -1, -2]
    assert gens["z_hat"]["d"] == "1_{L} - z'*z"
    assert gens["z_check"]["d"] == "1_{L} - z*z'"
    assert gens["z_bar"]["d"] == "z*z_hat - z_check*z"


def test_plumb_a2_differentials():
    text = (GOLDEN / "plumb_a2_n3.txt").read_text()
    assert "d h_v = y_e*x_e" in text
    assert "d h_w = -x_e*y_e" in text


def test_verify_corpus_golden(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(["verify", "tests/data/corpus"]) == 0
    assert capsys.readouterr().out == \
        (GOLDEN / "verify_corpus.txt").read_text()


def test_verify_corpus_ok(tmp_path):
    corpus = tmp_path / "out"
    corpus.mkdir()
    for i, model in enumerate(["C:2", "S:3,2,0", "S:2,2,0", "M:1,1",
                               "D12:4", "B01:3"]):
        assert main(["build", "--model", model,
                     "--out", str(corpus / f"{i}.json")]) == 0
    assert main(["plumb", str(DATA / "a2_n3.json"),
                 "--out", str(corpus / "plumb.json")]) == 0
    assert main(["verify", str(corpus)]) == 0


def test_localize_keeps_the_rules_of_a_tensor(tmp_path, capsys):
    # M:1,1 x S:2,1,1 has 29 generators and 198 interchange rules
    for model, name in (("M:1,1", "m"), ("S:2,1,1", "s")):
        assert main(["build", "--model", model,
                     "--out", str(tmp_path / f"{name}.json")]) == 0
    t, local = tmp_path / "t.json", tmp_path / "local.json"
    assert main(["tensor", str(tmp_path / "m.json"), str(tmp_path / "s.json"),
                 "--out", str(t)]) == 0
    assert main(["localize", str(t), "--gens", "a1⊗1_L",
                 "--out", str(local)]) == 0
    doc = json.loads(local.read_text(encoding="utf-8"))
    assert len(doc["generators"]) == 33
    assert doc["rules"] == json.loads(t.read_text(encoding="utf-8"))["rules"]
    assert len(doc["rules"]) == 198
    assert main(["verify", str(local)]) == 0
    assert capsys.readouterr().out == f"ok {local}\n"


@pytest.mark.parametrize("document,gens,message", [
    ("c3.json", "z", "--gens: z has degree -2, cannot invert"),
    ("e12_n3.json", "x,a", "--gens: a is not closed, cannot invert"),
], ids=["wrong-degree", "not-closed"])
def test_localize_names_the_option_of_a_generator_it_cannot_invert(
        document, gens, message, tmp_path, capsys):
    out = tmp_path / "local.json"
    assert main(["localize", str(DATA / document), "--gens", gens,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_hocolim_refuses_a_part_with_rules(tmp_path, capsys):
    # E12:3 <- A1 -> A2: the colimit would drop E12's two rules
    for model, name in (("A1", "c"), ("A2", "b")):
        assert main(["build", "--model", model,
                     "--out", str(tmp_path / f"{name}.json")]) == 0
    span = {key: json.loads((tmp_path / f"{key}.json").read_text())
            for key in ("c", "b")}
    span["a"] = json.loads((DATA / "e12_n3.json").read_text())
    span["alpha"] = {"objects": {"K": "L1"}, "generators": {}}
    span["beta"] = {"objects": {"K": "K0"}, "generators": {}}
    path = tmp_path / "span.json"
    path.write_text(json.dumps(span))
    assert main(["hocolim", str(path), "--out", str(tmp_path / "h.json")]) == 1
    assert capsys.readouterr().err == (
        "error: hocolim cannot keep the rules of part a\n")


def test_verify_fails_on_broken_presentation(tmp_path, capsys):
    doc = json.loads((GOLDEN / "localize_c1.json").read_text())
    doc["generators"][2]["d"] = "1_{L} + z'*z"  # flip one sign
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(doc))
    assert main(["verify", str(broken)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_rejects_malformed_document_with_rules_key(tmp_path, capsys):
    # objects X twice, a target Y that is not an object, ranks out of order
    doc = {
        "coefficients": "Z",
        "objects": ["X", "X"],
        "generators": [
            {"name": "a", "src": "X", "tgt": "Y", "deg": 0, "rank": 5,
             "d": "0"},
            {"name": "b", "src": "X", "tgt": "X", "deg": 0, "rank": 1,
             "d": "0"},
        ],
        "rules": [],
    }
    path = tmp_path / "found.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == \
        f"FAIL {path}: objects: duplicate object ids\n"


def _c3_rules(rules, degree=-2):
    """c3.json with these rules and z of this degree."""
    def change(doc):
        doc["rules"] = rules
        doc["generators"][0]["deg"] = degree
    return _c3_with(change)


@pytest.mark.parametrize("doc,message", [
    (_c3_rules([{"lhs": ["z", "q"], "rhs": "0"}]),
     "rules[0].lhs: no generator 'q'"),
    (_c3_rules([{"lhs": [], "rhs": "0"}]), "rules[0]: empty rule lhs"),
    (_c3_rules("abc"), "rules: expected a list, got 'abc'"),
    (_c3_rules([5]), "rules[0]: expected an object, got 5"),
    (_c3_rules([{"lhs": ["z", "z", "z"]}]), "rules[0]: missing 'rhs'"),
    (_c3_rules([{"lhs": "zz", "rhs": "0"}]),
     "rules[0].lhs: expected a list, got 'zz'"),
    (_c3_rules([{"lhs": ["z", "z"], "rhs": "z"}]),
     "rules[0]: rule z*z -> z changes degree: lhs has degree -4, rhs term "
     "z has degree -2"),
    (_c3_rules([{"lhs": ["z"], "rhs": "z*z"}], degree=0),
     "rules[0]: rule z -> z*z does not decrease the reduction order at "
     "z*z"),
], ids=["unknown-generator", "empty-lhs", "rules-not-a-list",
        "rule-not-an-object", "missing-rhs", "string-lhs", "degree-change",
        "order"])
def test_verify_rejects_malformed_rules(doc, message, tmp_path, capsys):
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == f"FAIL {path}: {message}\n"


def test_verify_rejects_a_rule_lhs_that_does_not_compose(tmp_path, capsys):
    doc, message = NON_COMPOSABLE_RULE
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == f"FAIL {path}: rules[0]: {message}\n"


def test_verify_and_hom_reject_rules_that_are_not_confluent(tmp_path,
                                                            capsys):
    # unchecked, verify printed ok and hom rank 11 with exact: true, where
    # the quotient has 10 words of at most 3 letters in degree 0
    doc, message = NOT_CONFLUENT
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == f"FAIL {path}: rules: {message}\n"
    assert main(["hom", str(path), "--src", "L", "--tgt", "L",
                 "--window=0:0", "--bound", "3"]) == 1
    assert capsys.readouterr().err == f"error: rules: {message}\n"


def _part(generators, objects=("L",), rules=()):
    """A presentation on objects with (name, deg, d) generators of rank
    order, all on the first object."""
    return {"coefficients": "Z", "objects": list(objects),
            "generators": [{"name": name, "src": objects[0],
                            "tgt": objects[0], "deg": deg, "rank": rank,
                            "d": d}
                           for rank, (name, deg, d) in enumerate(generators)],
            "rules": list(rules)}


def _functor_with_source(source):
    return {"type": "functor", "source": source, "target": _part([]),
            "objects": {"L": "L"}, "generators": {}}


_SPAN = json.loads((DATA / "sphere_span_m2.json").read_text())


@pytest.mark.parametrize("command,doc,out,err", [
    ("verify", _functor_with_source(_part([("x", 0, "0"), ("h", -1, "x"),
                                           ("k", -2, "h")])),
     "source.generators[2].d: d^2 != 0 at k: residual x", None),
    ("hocolim", {**_SPAN, "a": _part([], objects=("L", "L"))}, None,
     "a.objects: duplicate object ids"),
    ("verify", _functor_with_source(NOT_CONFLUENT[0]),
     f"source.rules: {NOT_CONFLUENT[1]}", None),
], ids=["functor-source-d-squared", "hocolim-part-duplicate-object",
        "functor-source-not-confluent"])
def test_an_error_in_a_part_names_the_part(command, doc, out, err, tmp_path,
                                           capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path), *(["--out", str(tmp_path / "o.json")]
                                       if command == "hocolim" else [])]) == 1
    got = capsys.readouterr()
    assert (got.out, got.err) == ((f"FAIL {path}: {out}\n", "") if out
                                  else ("", f"error: {err}\n"))


@pytest.mark.parametrize("case", MALFORMED_DOCUMENTS)
def test_verify_rejects_malformed_document(case, tmp_path, capsys):
    doc, message = MALFORMED_DOCUMENTS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == f"FAIL {path}: {message}\n"


def test_parser_is_reused_without_leaking_values(capsys):
    # one parser serves every call; each parse starts from the defaults
    assert make_parser() is make_parser()
    fresh = make_parser.__wrapped__
    c3 = str(DATA / "c3.json")
    hom = ["hom", c3, "--src", "L", "--tgt", "L", "--window=-3:0"]
    runs = [
        hom + ["--bound", "2", "--emit", "md", "--field", "Zmod:7"],
        ["build", "--model", "A2", "--coeff", "Q", "--emit", "text"],
        hom,
        ["plumb", str(DATA / "a2_n3.json"), "--emit", "text"],
        ["build", "--model", "A2"],
        hom + ["--bound", "3"],
        hom,
    ]
    for argv in runs:
        assert vars(make_parser().parse_args(argv)) == \
            vars(fresh().parse_args(argv))
        assert main(argv) == 0
        out = capsys.readouterr().out
        if argv[0] == "hom" and "md" not in argv:
            table = json.loads(out)  # JSON again after the --emit md run
            bound = 3 if "--bound" in argv else 8
            assert (table["bound"], table["field"]) == (bound, "Q")
        elif argv[:3] == ["build", "--model", "A2"]:
            assert out.startswith("coefficients: Q") if "text" in argv \
                else json.loads(out)["coefficients"] == "Z"
        elif "md" in argv:
            assert out.startswith("| degree |")


def test_verify_functor_files(tmp_path, capsys):
    from semifree.algebra import INTEGERS
    from semifree.dgcat import to_json
    from semifree.fukaya import ModelId, build
    from semifree.twisted import build_d12
    c = build(ModelId.parse("C:2"), INTEGERS)
    d12 = build_d12(3, INTEGERS)
    doc = {
        "type": "functor",
        "source": to_json(c),
        "target": to_json(d12),
        "objects": {"L": "L1"},
        "generators": {"z": "y*x"},
    }
    path = tmp_path / "phi.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 0
    doc["generators"]["z"] = "x*y"  # wrong boundary
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    doc["objects"] = {}  # once a bare KeyError 'L'
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"FAIL {path}: objects: missing 'L'\n")


@pytest.mark.parametrize("doc,message", [
    ({"type": "functor"}, "document: missing 'source'"),
    ({"type": "functor", "source": 5}, "source: expected an object, got 5"),
], ids=["missing-source", "source-not-an-object"])
def test_verify_rejects_malformed_functor(doc, message, tmp_path, capsys):
    # a missing source was once reported as the bare KeyError "'source'"
    path = tmp_path / "functor.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == f"FAIL {path}: {message}\n"


@pytest.mark.parametrize("part", ["source", "target"])
def test_verify_names_the_nested_presentation(part, tmp_path, capsys):
    # an error inside "source" was once reported as generators[0].deg: ...,
    # which names the wrong document
    from semifree.algebra import INTEGERS
    from semifree.dgcat import to_json
    from semifree.fukaya import ModelId, build
    c = to_json(build(ModelId.parse("C:2"), INTEGERS))
    doc = {"type": "functor", "source": c, "target": json.loads(
        json.dumps(c)), "objects": {"L": "L"}, "generators": {"z": "z"}}
    path = tmp_path / "functor.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 0
    doc[part]["generators"][0]["deg"] = "x"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"FAIL {path}: {part}.generators[0].deg: expected an integer, "
        f"got 'x'\n")
    doc[part] = {}
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"FAIL {path}: {part}: missing 'coefficients'\n")


@pytest.mark.parametrize("case", sorted(MALFORMED_PLUMBINGS))
def test_plumb_rejects_malformed_document(case, tmp_path, capsys):
    doc, message = MALFORMED_PLUMBINGS[case]
    path = tmp_path / "plumbing.json"
    path.write_text(json.dumps(doc))
    assert main(["plumb", str(path), "--out", str(tmp_path / "w.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("case", sorted(MALFORMED_QUIVERS))
def test_ginzburg_rejects_malformed_quiver(case, tmp_path, capsys):
    doc, message = MALFORMED_QUIVERS[case]
    path = tmp_path / "quiver.json"
    path.write_text(json.dumps(doc))
    for witness in ([], ["--witness"]):
        assert main(["ginzburg", str(path), "--n", "3", *witness,
                     "--out", str(tmp_path / "g.json")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("part", ["source", "target"])
def test_verify_names_the_parse_error_in_a_nested_presentation(
        part, tmp_path, capsys):
    from semifree.algebra import INTEGERS
    from semifree.dgcat import to_json
    from semifree.fukaya import ModelId, build
    c = to_json(build(ModelId.parse("C:2"), INTEGERS))
    doc = {"type": "functor", "source": c, "target": json.loads(
        json.dumps(c)), "objects": {"L": "L"}, "generators": {"z": "z"}}
    doc[part]["generators"][0]["d"] = "q"
    path = tmp_path / "functor.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == (
        f"FAIL {path}: {part}.generators[0].d: unknown generator 'q'\n")


def test_hom_over_an_undecidable_modulus_fails_fast(tmp_path, capsys):
    # 2**89 - 1 is prime and above the bound below which primality is
    # proved; trial division once ran on it without end
    started = time.perf_counter()
    assert main(["hom", str(DATA / "c3.json"), "--src", "L", "--tgt", "L",
                 "--window=-3:0", "--field", f"Zmod:{2**89 - 1}",
                 "--out", str(tmp_path / "table.json")]) == 1
    assert time.perf_counter() - started < 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: --field: cannot decide whether {2**89 - 1} is prime")
    assert f"{_MR_LIMIT:,}" in err


def test_functor_ranks_over_an_undecidable_modulus_names_the_field(
        tmp_path, capsys):
    from semifree.algebra import INTEGERS
    from semifree.dgcat import to_json
    from semifree.fukaya import ModelId, build
    c = to_json(build(ModelId.parse("C:2"), INTEGERS))
    path = tmp_path / "id.json"
    path.write_text(json.dumps({
        "type": "functor", "source": c, "target": c,
        "objects": {"L": "L"}, "generators": {"z": "z"}}))
    out = tmp_path / "cert.json"
    assert main(["functor", str(path), "--ranks", "--field",
                 f"Zmod:{2**89 - 1}", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: --field: cannot decide whether {2**89 - 1} is prime")
    assert not out.exists()


# two custom vertices whose loop element eta = w is nonzero, so neither v
# nor its complement u may change sign
_ETA_SPEC = {"type": "custom", "generators": [{"name": "w", "deg": -1}],
             "differentials": {"w": "0"}, "eta": "w"}
_ETA_PLUMBING = {"n": 3, "coefficients": "Z",
                 "vertices": [{"id": "v", "manifold": _ETA_SPEC},
                              {"id": "u", "manifold": _ETA_SPEC}],
                 "arrows": [{"id": "e", "src": "v", "tgt": "u", "sign": 1,
                             "d": 0}]}


@pytest.mark.parametrize("document,message", [
    (DATA / "surface_plumbing_n2.json",
     "n: the n = 2 sign-change functor is not monomial; only n >= 3 "
     "witnesses are constructed"),
    (_ETA_PLUMBING,
     "--flip-set: no sign assignment: vertices with nontrivial loop algebra "
     "cannot be rescaled (v and the complement both conflict)"),
], ids=["n2", "blocked-flip-set"])
def test_equiv_gauge_refusals_name_their_path_or_option(
        document, message, tmp_path, capsys):
    # both once printed the bare text, with no path or option
    if isinstance(document, dict):
        path = tmp_path / "plumbing.json"
        path.write_text(json.dumps(document))
        document = path
    out = tmp_path / "out.json"
    assert main(["equiv", "gauge", str(document), "--flip-set", "v",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _relational_doc(ring, generators, rules):
    """A one-object document: generators are (name, deg, d) in rank order,
    rules are (lhs names, rhs text)."""
    return {"coefficients": ring, "objects": ["L"],
            "generators": [{"name": name, "src": "L", "tgt": "L", "deg": deg,
                            "rank": rank, "d": d}
                           for rank, (name, deg, d) in enumerate(generators)],
            "rules": [{"lhs": lhs, "rhs": rhs} for lhs, rhs in rules]}


@pytest.mark.parametrize("ring,field,d_h", [
    ("Q", "Q", "a"),
    ("Z", "Zmod:7", "a"),
    ("Z", "Zmod:7", "7*a"),  # the residual -7*a vanishes mod 7, not over Z
])
def test_hom_rejects_a_rule_that_contradicts_d(ring, field, d_h, tmp_path,
                                               capsys):
    # d(k) = 0 but d(h) != 0, so the rule k -> h does not commute with d.
    # verify loads the document, which audits d^2 = 0 but not the rules;
    # hom audits the rules it normalizes with, over the document's ring
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_relational_doc(
        ring, [("a", 0, "0"), ("h", -1, d_h), ("k", -1, "0")],
        [(["k"], "h")])))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == f"ok {path}\n"
    out = tmp_path / "table.json"
    assert main(["hom", str(path), "--src", "L", "--tgt", "L",
                 "--window=-1:0", "--bound", "2", "--field", field,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: d^2 != 0 at k")
    assert not out.exists()


@pytest.mark.parametrize("field", ["Q", "Zmod:5"])
@pytest.mark.parametrize("ring,generators,rules,at", [
    # d(d g) = 2*a*a vanishes mod 2, not over Q or mod 5
    ("Zmod:2", [("a", 0, "0"), ("f", -1, "a"), ("g", -2, "f*a + a*f")], [],
     "g"),
    # d(k) - 2*d(h) = -3*a vanishes mod 3, not over Q or mod 5
    ("Zmod:3", [("a", 0, "0"), ("h", -1, "2*a"), ("k", -1, "a")],
     [(["k"], "2*h")], "k"),
], ids=["d-squared", "rule"])
def test_hom_audits_a_zmod_document_over_the_field(ring, generators, rules,
                                                   at, field, tmp_path,
                                                   capsys):
    # residues mod m read in another field make no ring map, so what holds
    # over Zmod:m is audited again over the field
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_relational_doc(ring, generators, rules)))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == f"ok {path}\n"
    args = ["hom", str(path), "--src", "L", "--tgt", "L", "--window=-2:0",
            "--bound", "2", "--field"]
    assert main(args + [field]) == 1
    assert capsys.readouterr().err.startswith(f"error: d^2 != 0 at {at}")
    assert main(args + [ring]) == 0


@pytest.mark.parametrize("d_h,rules,den", [
    ("1/7*a", [], 7),
    ("a", [(["a", "a"], "1/14*a")], 14),
    ("1/7*a", [(["a", "a"], "1/14*a")], 7),  # the d terms are mapped first
], ids=["d-term", "rule-rhs", "both"])
def test_hom_names_a_denominator_not_invertible_mod_p(d_h, rules, den,
                                                     tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(
        _relational_doc("Q", [("a", 0, "0"), ("h", -1, d_h)], rules)))
    assert main(["hom", str(path), "--src", "L", "--tgt", "L",
                 "--window=-1:0", "--bound", "2", "--field", "Zmod:7",
                 "--out", str(tmp_path / "table.json")]) == 1
    assert capsys.readouterr().err == \
        f"error: --field: denominator {den} not invertible mod 7\n"


def test_functor_ranks_names_a_denominator_not_invertible_mod_p(tmp_path,
                                                                capsys):
    # functor --ranks maps each side's fractions into --field as hom does
    part = _relational_doc("Q", [("a", 0, "0"), ("h", -1, "1/2*a")], [])
    path = tmp_path / "functor.json"
    path.write_text(json.dumps({
        "type": "functor", "source": part, "target": part,
        "objects": {"L": "L"}, "generators": {"a": "a", "h": "h"}}))
    assert main(["functor", str(path), "--ranks", "--window=-1:0",
                 "--bound", "2", "--field", "Zmod:2",
                 "--out", str(tmp_path / "c.json")]) == 1
    assert capsys.readouterr().err == \
        "error: --field: denominator 2 not invertible mod 2\n"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(st.text(), inner)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_dump_matches_json_dumps(value):
    # non-ASCII and control characters, empty containers, bools, None,
    # tuples and nested lists
    for doc in (value, [value, {"k": value}]):
        assert _dump(doc) == json.dumps(doc, indent=2,
                                        ensure_ascii=False) + "\n"


@pytest.mark.parametrize("doc", [1.5, [0, float("nan")], {1: "a"},
                                 {"a": {2: None}}, {"a": object()}])
def test_dump_refuses_what_the_program_never_emits(doc):
    with pytest.raises(TypeError):
        _dump(doc)


def test_cli_runs_as_module():
    proc = subprocess.run(
        [sys.executable, "-m", "semifree", "build", "--model", "A2"],
        capture_output=True, text=True, cwd=ROOT,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"})
    assert proc.returncode == 0
    assert '"objects"' in proc.stdout


def test_error_reported_to_stderr(capsys, tmp_path):
    bad = tmp_path / "missing.json"
    assert main(["plumb", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_ginzburg_witness_exit_code():
    assert main(["ginzburg", str(DATA / "loop_quiver.json"), "--n", "4",
                 "--witness", "--out", "/dev/null"]) == 0


@pytest.mark.parametrize("flags,named", [
    (["--src", "Q", "--tgt", "L", "--window=-3:0"], "source 'Q'"),
    (["--src", "L", "--tgt", "L", "--window=0:-3"], "window 0:-3"),
    (["--src", "L", "--tgt", "L", "--window=-3:0", "--bound", "-2"],
     "bound -2"),
    (["--src", "L", "--tgt", "L", "--window=1"],
     "--window: expected LO:HI with integers, got '1'"),
    (["--src", "L", "--tgt", "L", "--window=a:b"],
     "--window: expected LO:HI with integers, got 'a:b'"),
], ids=["unknown-object", "empty-window", "negative-bound", "window-no-colon",
        "window-not-integers"])
def test_hom_rejects_bad_arguments(flags, named, capsys, tmp_path):
    # each of these used to print a table marked exact and exit 0
    out = tmp_path / "table.json"
    assert main(["hom", str(DATA / "c3.json"), *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()


_HOM = ["hom", str(DATA / "c3.json"), "--src", "L", "--tgt", "L"]
_RANKS = ["functor", "FUNCTOR", "--ranks"]


@pytest.mark.parametrize("argv,message", [
    (["hom", str(DATA / "c3.json"), "--src", "Q", "--tgt", "L",
      "--window=-3:0"],
     "--src: hom source 'Q' is not an object of the category (objects: L)"),
    (["hom", str(DATA / "c3.json"), "--src", "L", "--tgt", "Q",
      "--window=-3:0"],
     "--tgt: hom target 'Q' is not an object of the category (objects: L)"),
    ([*_HOM, "--window=0:-1"], "--window: hom window 0:-1 is empty (lo > hi)"),
    ([*_HOM, "--window=-3:0", "--bound", "-1"],
     "--bound: hom length bound -1 is negative"),
    ([*_HOM, "--window=-3:0", "--field", "Z"], "--field: Z is not a field"),
    ([*_HOM, "--window=-3:0", "--field", "Zmod:x"],
     "--field: unknown ring 'Zmod:x': the modulus is not an integer"),
    ([*_HOM, "--window=-3:0", "--field", "Zmod:07"],
     "--field: unknown ring 'Zmod:07': write the modulus in plain digits, "
     "as Zmod:7"),
    ([*_RANKS, "--window=0:-1"],
     "--window: hom window 0:-1 is empty (lo > hi)"),
    ([*_RANKS, "--bound", "-1"], "--bound: hom length bound -1 is negative"),
    ([*_RANKS, "--field", "Zmod:4"], "--field: Zmod:4 is not a field"),
    ([*_RANKS, "--field", "Zmod:x"],
     "--field: unknown ring 'Zmod:x': the modulus is not an integer"),
    (["build", "--model", "A2", "--coeff", "Q2"],
     "--coeff: unknown ring 'Q2'"),
    (["ginzburg", str(DATA / "loop_quiver.json"), "--n", "3", "--coeff", "R"],
     "--coeff: unknown ring 'R'"),
    (["ginzburg", str(DATA / "loop_quiver.json"), "--n", "2", "--witness"],
     "--n: the Ginzburg comparison needs n >= 3"),
    (["plumb", str(DATA / "a2_n3.json"), "--n", "1"],
     "--n: plumbing dimension n must be >= 2"),
    (["plumb", str(DATA / "a2_n3.json"), "--coeff", "Zmod:"],
     "--coeff: unknown ring 'Zmod:': the modulus is not an integer"),
    (["build", "--model", "A2", "--coeff", "Zmod:+7"],
     "--coeff: unknown ring 'Zmod:+7': write the modulus in plain digits, "
     "as Zmod:7"),
    (["equiv", "gauge", str(DATA / "a2_n3.json"), "--flip-set", "v",
      "--coeff", "W"], "--coeff: unknown ring 'W'"),
], ids=["hom-src", "hom-tgt", "hom-window", "hom-bound", "hom-field",
        "hom-field-not-a-ring", "hom-field-not-plain-digits", "ranks-window",
        "ranks-bound", "ranks-field", "ranks-field-not-a-ring", "build-coeff",
        "ginzburg-coeff", "ginzburg-witness-n", "plumb-n", "plumb-coeff",
        "build-coeff-not-plain-digits", "equiv-coeff"])
def test_a_refused_option_names_itself(argv, message, tmp_path, capsys):
    # each of these once printed its text with no option, and plumb --n
    # named the document's field n
    from semifree.algebra import INTEGERS
    from semifree.dgcat import to_json
    from semifree.fukaya import ModelId, build
    c = to_json(build(ModelId.parse("C:2"), INTEGERS))
    functor = tmp_path / "id.json"
    functor.write_text(json.dumps({
        "type": "functor", "source": c, "target": c,
        "objects": {"L": "L"}, "generators": {"z": "z"}}))
    argv = [str(functor) if a == "FUNCTOR" else a for a in argv]
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("window", ["1", "a:b", "-3:1:2"])
def test_functor_ranks_names_a_malformed_window(window, tmp_path, capsys):
    from semifree.algebra import INTEGERS
    from semifree.dgcat import to_json
    from semifree.fukaya import ModelId, build
    c = to_json(build(ModelId.parse("C:2"), INTEGERS))
    path = tmp_path / "id.json"
    path.write_text(json.dumps({
        "type": "functor", "source": c, "target": c,
        "objects": {"L": "L"}, "generators": {"z": "z"}}))
    out = tmp_path / "cert.json"
    assert main(["functor", str(path), "--out", str(out)]) == 0
    assert main(["functor", str(path), "--ranks", f"--window={window}",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: --window: expected LO:HI with integers, got {window!r}\n")


@pytest.mark.parametrize("script,message", [
    ([{"a": "a", "b": "b"}], "[0]: missing 'op'"),
    ({"op": "greedy"}, "document: expected a list of steps, got dict"),
    ([{"op": "greedy"}, {"op": "cancel_pair", "b": "b"}], "[1]: missing 'a'"),
    (["greedy"], "[0]: expected an object, got 'greedy'"),
    ([{"op": "localize", "gens": "a"}],
     "[0].gens: expected a list, got 'a'"),
    ([{"op": "rename"}], "[0].op: unknown reduction step 'rename'"),
    ([{"op": "cancel_pair", "a": "zz", "b": "b"}],
     "[0].a: no generator named 'zz'"),
    ([{"op": "set_generator", "gen": "zz", "value": "zero"}],
     "[0].gen: no generator named 'zz'"),
    ([{"op": "localize", "gens": ["x", "qq"]}],
     "[0].gens: no generator named 'qq'"),
    ([{"op": "localize", "gens": [{"a": 1}]}],
     "[0].gens[0]: expected a string, got {'a': 1}"),
    ([{"op": "change_basis", "gen": "a", "unit": 1}],
     "[0].unit: expected a string, got 1"),
    ([{"op": "change_basis", "gen": "a", "lower": 0}],
     "[0].lower: expected a string, got 0"),
    ([{"op": "change_basis", "gen": "a", "renamed": 5}],
     "[0].renamed: expected a string, got 5"),
    ([{"op": "change_basis", "gen": "a", "lower": "q"}],
     "[0].lower: unknown generator 'q'"),
    ([{"op": "name_generator", "expr": "q", "src": "L2", "tgt": "L1",
       "name": "w"}], "[0].expr: unknown generator 'q'"),
    ([{"op": "set_generator", "gen": "y", "value": "one"}],
     "[0].value: value must be 'zero' or 'identity'"),
    ([{"op": "change_basis", "gen": "a", "renamed": "b"}],
     "[0].renamed: name 'b' already used"),
    ([{"op": "name_generator", "expr": "0", "src": "L1", "tgt": "L1",
       "name": "b"}], "[0].name: name 'b' already used"),
    ([{"op": "name_generator", "expr": "0", "src": "Q", "tgt": "L1",
       "name": "w"}], "[0].src: no object 'Q'"),
    ([{"op": "name_generator", "expr": "0", "src": "L1", "tgt": "Q",
       "name": "w"}], "[0].tgt: no object 'Q'"),
    ([{"op": "localize", "gens": ["y"]}],
     "[0].gens: y has degree -1, cannot invert"),
    ([{"op": "localize", "gens": ["x", "a"]}],
     "[0].gens: a is not closed, cannot invert"),
    ([{"op": "change_basis", "gen": "a", "unit": "2"}],
     "[0].unit: 2 is not a unit in Z"),
    ([{"op": "cancel_pair", "a": "a", "b": "y"}],
     "[0].b: y is not the partner of a: d(a) = -b"),
    ([{"op": "set_generator", "gen": "a", "value": "zero"}],
     "[0].gen: setting a = zero breaks d-compatibility: d(a) maps to -b"),
    ([{"op": "strictify"}],
     "[0]: strictify_t cannot keep a category's rules"),
    ([{"op": "name_generator", "expr": "a", "src": "L2", "tgt": "L1",
       "name": "w"}], "[0].expr: expression is not closed"),
], ids=["no-op", "object", "no-argument", "step-not-object",
        "argument-type", "unknown-op", "unknown-generator",
        "unknown-set-generator", "unknown-localize-generator",
        "localize-generator-not-a-string",
        "unit-not-a-string", "lower-not-a-string", "renamed-not-a-string",
        "lower-does-not-parse", "expr-does-not-parse", "set-to-unknown-value",
        "renamed-to-a-used-name", "named-a-used-name",
        "named-from-unknown-object", "named-to-unknown-object",
        "localize-wrong-degree", "localize-not-closed", "unit-not-a-unit",
        "cancel-not-a-partner", "set-not-closed", "strictify-with-rules",
        "named-not-closed"])
def test_simplify_names_a_malformed_script(script, message, tmp_path,
                                           capsys):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    assert main(["simplify", str(DATA / "e12_n3.json"), "--script", str(path),
                 "--out", str(tmp_path / "s.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def _d12_with_provenance(entries):
    doc = json.loads((DATA / "d12_n3.json").read_text())
    doc["provenance"] = entries
    return doc


_T_CLUSTER = ["t_L1", "t_L1'", "t_L1_hat", "t_L1_check", "t_L1_bar"]


@pytest.mark.parametrize("command,doc,message", [
    ("simplify", _d12_with_provenance([{"op": "hocolim"}]),
     "provenance[0]: missing 'clusters'"),
    ("simplify", _d12_with_provenance([{
        "op": "hocolim", "clusters": [_T_CLUSTER], "t_objects": {"L1": 5},
        "t_gens": {}}]), "provenance[0].t_objects.L1: expected a string, "
                         "got 5"),
    ("simplify", _d12_with_provenance([{
        "op": "hocolim", "clusters": [_T_CLUSTER],
        "t_objects": {"L1": "t_L1"}, "t_gens": {}}]),
     "[0]: the hocolim provenance names t_L1, which the category lacks"),
    ("simplify", _d12_with_provenance([{
        "op": "hocolim", "clusters": [], "t_objects": {"L1": "x"},
        "t_gens": {}}]), "[0]: the hocolim provenance gives x no cluster"),
    ("hocolim", {**_SPAN, "c": {**_SPAN["c"], "provenance": [
        {"op": "localize", "clusters": [["x"]]}]}},
     "c.provenance[0].clusters[0]: expected 5 generator names, got ['x']"),
], ids=["no-clusters", "t-object-not-a-string", "t-generator-missing",
        "no-t-cluster", "short-cluster"])
def test_read_provenance_is_checked(command, doc, message, tmp_path, capsys):
    # strictify_t reads the last hocolim entry, and localization_records
    # every cluster; each once let out a raw KeyError ('t_objects', or a
    # missing name) or TypeError (a cluster of one name)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    script = tmp_path / "script.json"
    script.write_text(json.dumps([{"op": "strictify"}]))
    argv = ([command, str(path), "--script", str(script)]
            if command == "simplify" else [command, str(path)])
    assert main(argv + ["--out", str(tmp_path / "o.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


_N2 = "surface_plumbing_n2.json"


@pytest.mark.parametrize("plumbing,placement,message", [
    (_N2, {"v": {"right": []}}, "v: missing 'left'"),
    (_N2, {"v": {"left": [["eta"]]}}, "v: missing 'right'"),
    (_N2, [], "document: expected an object of vertex ids, got list"),
    (_N2, {"v": []}, "v: expected an object, got []"),
    (_N2, {"v": {"left": "eta", "right": []}},
     "v.left: expected a list, got 'eta'"),
    (_N2, {"v": {"left": [["eta"]], "right": ["in"]}},
     "v.right[0]: expected a list of strings, got 'in'"),
    (_N2, {"v": {"left": [["eta", 1]], "right": []}},
     "v.left[0]: expected a list of strings, got ['eta', 1]"),
    (_N2, {"zz": {"left": [["eta"]], "right": []}}, "zz: no vertex 'zz'"),
    # v's factor for its out-arrow e is missing
    (_N2, {"v": {"left": [["eta"]], "right": []}},
     "v: reordered factors do not match the arrow ends"),
    # n = 3 products have no order to place
    ("a2_n3.json", {"v": {"left": [["eta"]], "right": []}},
     "document: a placement reorders the n = 2 products, but the plumbing "
     "has n = 3"),
], ids=["no-left", "no-right", "list", "vertex-not-object", "side-not-list",
        "token-not-list", "token-not-strings", "unknown-vertex",
        "tokens-not-the-arrow-ends", "n-3"])
def test_plumb_names_a_malformed_placement(plumbing, placement, message,
                                           tmp_path, capsys):
    # tokens that did not match the arrow ends were once reported with no
    # path, and at n >= 3 a placement was ignored but written into the
    # provenance
    path = tmp_path / "placement.json"
    path.write_text(json.dumps(placement))
    assert main(["plumb", str(DATA / plumbing), "--reorder", str(path),
                 "--out", str(tmp_path / "w.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv,message", [
    (["localize", str(DATA / "c1.json"), "--gens", "qq"],
     "--gens: no generator named 'qq'"),
    (["equiv", "flip", str(DATA / "surface_plumbing_n2.json"),
      "--arrow", "zz"], "--arrow: no arrow 'zz'"),
    (["equiv", "flip", str(DATA / "surface_plumbing_n2.json")],
     "--arrow: required by equiv flip"),
    (["equiv", "gauge", str(DATA / "a2_n3.json"), "--flip-set", "v,qq"],
     "--flip-set: no vertex 'qq'"),
    (["equiv", "gauge", str(DATA / "a2_n3.json")],
     "--flip-set: required by equiv gauge"),
], ids=["localize-unknown-generator", "flip-unknown-arrow", "flip-no-arrow",
        "gauge-unknown-vertex", "gauge-no-flip-set"])
def test_options_name_an_unknown_name(argv, message, tmp_path, capsys):
    # the unknown names once reached the user as a quoted KeyError, and an
    # unknown --flip-set vertex was accepted and recorded in the output
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()



@pytest.mark.parametrize("argv,message", [
    (["--model", "S:x"], "--model: S parameters must be integers, got 'x'"),
    (["--model", "Q"], "--model: unknown model tag 'Q'"),
    (["--model", "S:2,2", "--options", "[1]"],
     "--options: expected an object, got [1]"),
    (["--model", "S:2,2", "--options", "{"],
     "--options: not JSON: Expecting property name enclosed in double "
     "quotes: line 1 column 2 (char 1)"),
    (["--model", "S:2,2", "--options", '{"gradings": [1.5, -1.5]}'],
     "--options.gradings[0]: expected an integer, got 1.5"),
    (["--model", "S:2,2", "--options", '{"gradings": [true, -1]}'],
     "--options.gradings[0]: expected an integer, got True"),
    (["--model", "S:3,2", "--options", '{"background": "1"}'],
     "--options.background: expected a list, got '1'"),
    (["--model", "M:1,1", "--options", '{"gradings": {"r": [0.5]}}'],
     "--options.gradings.r[0]: expected an integer, got 0.5"),
    (["--model", "M:1,1", "--options", '{"gradings": [0]}'],
     "--options.gradings: expected an object, got [0]"),
    (["--model", "M:1,1", "--options", '{"gradings": {"s": [0]}}'],
     "--options.gradings: unknown key 's', expected 'p' or 'q' or 'r'"),
    (["--model", "S:2,2", "--options", '{"localize": 0}'],
     "--options.localize: expected true or false, got 0"),
    (["--model", "S:2,2", "--options", '{"gradings": [], "zz": 1}'],
     "--options: unknown key 'zz', expected 'gradings' or 'background' or "
     "'localize'"),
    (["--model", "A2", "--options", '{"localize": false}'],
     "--options: unknown key 'localize', expected none"),
    (["--model", "S:2,3", "--options", '{"gradings": [1, 1, 1]}'],
     "--options.gradings: expected 3 integers summing to 0, got [1, 1, 1]"),
    (["--model", "S:3,3", "--options", '{"background": [1, 3]}'],
     "--options.background: expected indices of a_1 .. a_2, got [1, 3]"),
    (["--model", "S:3,3", "--options", '{"gradings": [1, -1, 0]}'],
     "--options.gradings: nonstandard sphere gradings apply to the n = 2 "
     "one-sign case only"),
    (["--model", "S:2,3", "--options", '{"background": [1]}'],
     "--options.background: nonstandard background classes apply to n = 3 "
     "only"),
    (["--model", "M:1,2", "--options", '{"gradings": {"r": [0]}}'],
     "--options.gradings: expected 1 p's, 1 q's and 2 r's"),
    (["--model", "M:1,2", "--options", '{"gradings": {"r": [1, 1]}}'],
     "--options.gradings.r: expected integers summing to 0, got [1, 1]"),
], ids=["model-parameter-not-integer", "unknown-model", "options-list",
        "options-not-json", "grading-float", "grading-bool",
        "background-not-list", "surface-grading-float",
        "surface-gradings-list", "surface-grading-unknown-key",
        "localize-not-bool", "unknown-key",
        "model-takes-no-options", "gradings-not-summing-to-zero",
        "background-out-of-range", "gradings-off-n-2", "background-off-n-3",
        "surface-gradings-miscounted", "surface-gradings-not-summing-to-zero"])
def test_build_names_a_malformed_model_or_option(argv, message, tmp_path,
                                                 capsys):
    # these once printed a raw Python error, or, for a float grading, built
    # generators of degree 1.5 and failed only when writing them
    out = tmp_path / "cat.json"
    assert main(["build", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _functor_document(model, images):
    from semifree.algebra import INTEGERS
    from semifree.dgcat import to_json
    from semifree.fukaya import ModelId, build
    cat = to_json(build(ModelId.parse(model), INTEGERS))
    return {"type": "functor", "source": cat, "target": cat,
            "objects": {o: o for o in cat["objects"]}, "generators": images}


@pytest.mark.parametrize("doc,message", [
    (_functor_document("C:2", {"z": "zz"}),
     "generators.z: unknown generator 'zz'"),
    (_functor_document("A2", {"f": "f*f"}),
     "generators.f: non-composable factors f o f: f starts at K0 but f "
     "ends at K1"),
    (_functor_document("C:2", {"z": 5}),
     "generators.z: expected a string, got 5"),
    (_functor_document("C:2", {"zz": "z"}),
     "generators: no generator named 'zz'"),
    ({**_functor_document("C:2", {}), "objects": {"L": 5}},
     "objects.L: expected a string, got 5"),
], ids=["unknown-generator", "not-composable", "image-not-a-string",
        "image-of-unknown-generator", "object-not-a-string"])
def test_functor_and_verify_name_a_malformed_image(doc, message, tmp_path,
                                                   capsys):
    # an image that did not parse was once reported with no path, and the
    # two type checks raised a bare ValueError
    path = tmp_path / "functor.json"
    path.write_text(json.dumps(doc))
    assert main(["functor", str(path), "--out", str(tmp_path / "c.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == f"FAIL {path}: {message}\n"


@pytest.mark.parametrize("leg,key,value,message", [
    ("alpha", "generators", {"a1": "zz"},
     "alpha.generators.a1: unknown generator 'zz'"),
    ("beta", "generators", {"a1": "1_{L}"},
     "beta.generators.a1: word ('1', 'L') has boundary L->L, expected K->K"),
    ("beta", "objects", {"L": ["K"]},
     "beta.objects.L: expected a string, got ['K']"),
], ids=["alpha-unknown-generator", "beta-boundary",
        "beta-object-not-a-string"])
def test_hocolim_names_a_malformed_leg(leg, key, value, message, tmp_path,
                                       capsys):
    path = tmp_path / "span.json"
    path.write_text(json.dumps({**_SPAN, leg: {**_SPAN[leg], key: value}}))
    out = tmp_path / "h.json"
    assert main(["hocolim", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def _part_names(doc):
    """The objects and generator names of every presentation in doc."""
    names = []
    for part in doc.values():
        if isinstance(part, dict) and "generators" in part and \
                isinstance(part["generators"], list):
            names += part["objects"] + [g["name"] for g in part["generators"]]
    return names


FUNCTOR_DOCUMENTS = [_functor_document("C:2", {"z": "z*z"}),
                     _functor_document("A2", {"f": "2*f"}),
                     _functor_document("S:2,2", {"a1": "a2", "a2": "a1"})]


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    mutated_documents(FUNCTOR_DOCUMENTS, _part_names).map(
        lambda doc: (load_functor, doc)),
    mutated_documents([_SPAN], _part_names).map(lambda doc: (load_span, doc))))
def test_functor_and_span_loaders_raise_only_documented_errors(case):
    # an image that did not parse once left as a bare ValueError with no path
    load, doc = case
    try:
        load(doc)
    except InputError:
        pass


_E12 = from_json(json.loads((DATA / "e12_n3.json").read_text()))
# every reduction step, in a script that runs on e12_n3.json
SCRIPTS = [json.loads((DATA / name).read_text())
           for name in ("cancel_script.json", "basis_script.json")] + [[
    {"op": "change_basis", "gen": "a", "unit": "-1", "lower": "0",
     "renamed": "a2"},
    {"op": "set_generator", "gen": "y", "value": "zero"},
    {"op": "name_generator", "expr": "x", "src": "L1", "tgt": "L2",
     "name": "u"},
    {"op": "localize", "gens": ["u"]},
    {"op": "greedy"}]]
STEP_WORDS = ["change_basis", "cancel_pair", "set_generator", "strictify",
              "localize", "name_generator", "greedy", "zero", "identity",
              "L1", "L2", "x", "a", "b", "y", "u", "a2", "-1", "2"]


@settings(max_examples=500, deadline=None)
@given(mutated_documents(SCRIPTS, lambda doc: STEP_WORDS))
def test_replay_raises_only_documented_errors_at_their_paths(script):
    # simplify --script runs replay on the loaded category; a move that
    # refused an argument once left as a bare ValueError with no path
    try:
        replay(_E12, script)
    except InputError as err:
        assert resolves(script, err.path), (err.path, script)
    except (DSquaredNonzero, FunctorError, RuleError):
        pass


# A fresh interpreter runs main on each argv of the JSON list sys.argv[2]
# in the directory sys.argv[1], and prints the exit codes and the semifree
# modules it loaded.  PYTHONDONTWRITEBYTECODE keeps it from writing
# bytecode, as in a cold start of the benchmark.
COLD_RUN = """
import json, os, sys
from semifree.cli import main
os.chdir(sys.argv[1])
codes = [main(argv) for argv in json.loads(sys.argv[2])]
print()
print(json.dumps([codes, [m for m in sys.modules
                          if m.startswith("semifree.")]]))
"""
LAZY_MODULES = {"semifree.plumbing", "semifree.reduce", "semifree.twisted"}


def cold_run(tmp_path, argvs):
    """The exit codes of main on each argv, run one after another in a
    fresh interpreter, and the semifree modules loaded by then."""
    proc = subprocess.run(
        [sys.executable, "-c", COLD_RUN, str(tmp_path), json.dumps(argvs)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin",
             "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout.splitlines()[-1])
    return codes, set(modules)


def test_model_verify_hom_and_tensor_load_no_pipeline_module(tmp_path):
    # plumbing, reduce and twisted are imported by the subcommands that use
    # them; these never do
    builds = [["build", "--model", model, "--out", f"{name}.json"]
              for model, name in (("M:1,1", "m"), ("S:2,1,1", "s"),
                                  ("C:1", "c"), ("A1", "a1"), ("A2", "a2"))]
    codes, modules = cold_run(tmp_path, builds + [
        ["verify", "m.json", "s.json"],
        ["hom", "m.json", "--src", "L", "--tgt", "L", "--window=-2:0",
         "--bound", "2", "--out", "h.json"],
        ["tensor", "a2.json", "s.json", "--out", "t.json"],
    ])
    assert codes == [0] * 8
    assert "semifree.cli" in modules and not modules & LAZY_MODULES


@pytest.mark.parametrize("argv,loads", [
    (["plumb", str(DATA / "a2_n3.json")], "plumbing"),
    (["simplify", str(DATA / "e12_n3.json"), "--greedy"], "reduce"),
    (["ginzburg", str(DATA / "loop_quiver.json"), "--n", "3", "--witness"],
     "plumbing"),
    (["equiv", "flip", str(DATA / "a2_n3.json"), "--arrow", "e"], "plumbing"),
    (["normalize", str(DATA / "messy_data.json")], "plumbing"),
    (["hocolim", str(DATA / "sphere_span_m2.json"), "--strictify"], "reduce"),
    (["build", "--model", "D12:3"], "twisted"),
], ids=["plumb", "simplify", "ginzburg", "equiv", "normalize", "hocolim",
        "build-d12"])
def test_subcommand_imports_what_it_uses_in_a_fresh_interpreter(
        argv, loads, tmp_path):
    # a broken import inside a subcommand, or an import cycle, fails here
    # even when other tests have loaded the module already
    codes, modules = cold_run(tmp_path, [argv + ["--out", "out"]])
    assert codes == [0]
    assert f"semifree.{loads}" in modules


def test_every_name_the_tracer_wraps_exists():
    # perfbench/tracing.py wraps functions by name (LISTED); a deleted or
    # renamed one would only fail a traced benchmark run
    listed = runpy.run_path(str(ROOT / "perfbench" / "tracing.py"))["LISTED"]
    for layer, names in listed.items():
        if names == "public":
            continue
        module = importlib.import_module(f"semifree.{layer}")
        for qual in names:
            owner = module
            for part in qual.split("."):
                owner = inspect.getattr_static(owner, part)  # AttributeError
