"""Golden-file coverage for every subcommand, plus determinism and verify."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from semifree.cli import main

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


def test_verify_functor_files(tmp_path):
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
], ids=["unknown-object", "empty-window", "negative-bound"])
def test_hom_rejects_bad_arguments(flags, named, capsys, tmp_path):
    # each of these used to print a table marked exact and exit 0
    out = tmp_path / "table.json"
    assert main(["hom", str(DATA / "c3.json"), *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert not out.exists()
