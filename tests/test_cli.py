"""Golden-file coverage for every subcommand, plus determinism and verify."""

import json
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
)
from semifree.algebra import _MR_LIMIT
from semifree.cli import _dump, main, make_parser

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
        f"FAIL {path}: duplicate object ids\n"


@pytest.mark.parametrize("rules,message", [
    ([{"lhs": ["z", "q"], "rhs": "0"}],
     "rules[0]: lhs names unknown generator 'q'"),
    ([{"lhs": [], "rhs": "0"}], "empty rule lhs"),
    ("abc", "rules: expected a list of rules, got 'abc'"),
    ([5], 'rules[0]: expected an object with "lhs" and "rhs", got 5'),
    ([{"lhs": ["z", "z", "z"]}], "rules[0]: missing 'rhs'"),
    ([{"lhs": "zz", "rhs": "0"}],
     "rules[0]: lhs must be a list of generator names, got 'zz'"),
    ([{"lhs": ["z", "z"], "rhs": "z"}],
     "rule z*z -> z changes degree: lhs has degree -4, rhs term z has "
     "degree -2"),
], ids=["unknown-generator", "empty-lhs", "rules-not-a-list",
        "rule-not-an-object", "missing-rhs", "string-lhs", "degree-change"])
def test_verify_rejects_malformed_rules(rules, message, tmp_path, capsys):
    doc = json.loads((DATA / "c3.json").read_text())
    doc["rules"] = rules
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == f"FAIL {path}: {message}\n"


def test_verify_rejects_a_rule_lhs_that_does_not_compose(tmp_path, capsys):
    doc, message = NON_COMPOSABLE_RULE
    path = tmp_path / "rules.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == f"FAIL {path}: {message}\n"


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
        f"FAIL {path}: objects.L: expected a target object name, got None\n")


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
    assert err.startswith(f"error: cannot decide whether {2**89 - 1} is prime")
    assert f"{_MR_LIMIT:,}" in err


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
        f"error: denominator {den} not invertible mod 7\n"


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
], ids=["no-op", "object", "no-argument", "step-not-object",
        "argument-type", "unknown-op", "unknown-generator",
        "unknown-set-generator", "unknown-localize-generator",
        "unit-not-a-string", "lower-not-a-string", "renamed-not-a-string",
        "lower-does-not-parse", "expr-does-not-parse"])
def test_simplify_names_a_malformed_script(script, message, tmp_path,
                                           capsys):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    assert main(["simplify", str(DATA / "e12_n3.json"), "--script", str(path),
                 "--out", str(tmp_path / "s.json")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("placement,message", [
    ({"v": {"right": []}}, "v: missing 'left'"),
    ({"v": {"left": [["eta"]]}}, "v: missing 'right'"),
    ([], "document: expected an object of vertex ids, got list"),
    ({"v": []}, "v: expected an object, got []"),
    ({"v": {"left": "eta", "right": []}}, "v.left: expected a list, got 'eta'"),
    ({"v": {"left": [["eta"]], "right": ["in"]}},
     "v.right[0]: expected a list of strings, got 'in'"),
    ({"v": {"left": [["eta", 1]], "right": []}},
     "v.left[0]: expected a list of strings, got ['eta', 1]"),
    ({"zz": {"left": [["eta"]], "right": []}}, "zz: no vertex 'zz'"),
], ids=["no-left", "no-right", "list", "vertex-not-object", "side-not-list",
        "token-not-list", "token-not-strings", "unknown-vertex"])
def test_plumb_names_a_malformed_placement(placement, message, tmp_path,
                                           capsys):
    path = tmp_path / "placement.json"
    path.write_text(json.dumps(placement))
    assert main(["plumb", str(DATA / "surface_plumbing_n2.json"),
                 "--reorder", str(path),
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
