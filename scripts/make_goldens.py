#!/usr/bin/env python3
"""Regenerate the golden outputs for the CLI tests.

Run from the repository root after an intentional output-format change,
then review the diff before committing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from semifree.cli import main  # noqa: E402

GOLDEN = ROOT / "tests" / "golden"
DATA = ROOT / "tests" / "data"

CASES = {
    "localize_c1.json": ["build", "--model", "C:1"],
    "localize_s22.txt": ["localize", str(DATA / "s22_core.json"),
                         "--gens", "a1,a2", "--emit", "text"],
    "build_s321.txt": ["build", "--model", "S:3,2,1", "--emit", "text"],
    "build_m11.txt": ["build", "--model", "M:1,1", "--emit", "text"],
    "plumb_a2_n3.txt": ["plumb", str(DATA / "a2_n3.json"), "--emit", "text"],
    "plumb_a2_n3.json": ["plumb", str(DATA / "a2_n3.json")],
    "plumb_surface_n2.txt": ["plumb", str(DATA / "surface_plumbing_n2.json"),
                             "--emit", "text"],
    "ginzburg_n3.txt": ["ginzburg", str(DATA / "loop_quiver.json"),
                        "--n", "3", "--emit", "text"],
    "ginzburg_witness.json": ["ginzburg", str(DATA / "loop_quiver.json"),
                              "--n", "3", "--witness"],
    "hocolim_sphere_m2.txt": ["hocolim", str(DATA / "sphere_span_m2.json"),
                              "--strictify", "--emit", "text"],
    "simplify_e12.txt": ["simplify", str(DATA / "e12_n3.json"),
                         "--script", str(DATA / "cancel_script.json"),
                         "--emit", "text"],
    # change_basis on a relational category: the rules through a are
    # turned, each in its place
    "simplify_e12_basis.txt": ["simplify", str(DATA / "e12_n3.json"),
                               "--script", str(DATA / "basis_script.json"),
                               "--emit", "text"],
    "hom_d12.md": ["hom", "-", "--src", "L1", "--tgt", "L1",
                   "--window=-3:0", "--bound", "8", "--emit", "md"],
    "hom_d12.json": ["hom", "-", "--src", "L1", "--tgt", "L1",
                     "--window=-3:0", "--bound", "8"],
    "tensor_a2_c3.txt": ["tensor", "-", "-", "--emit", "text"],
    # relational hom whose rows leave the basis, so each row's outside
    # terms are normalized under the tensor's interchange rules
    "hom_a2_c1.json": ["hom", "-", "--src", "(K0,L)", "--tgt", "(K1,L)",
                       "--window=-2:0", "--bound", "4",
                       "--field", "Zmod:10007"],
    # the same over Q: every degree loses terms, so the rows past the first
    # loss come from the trimmed d tables
    "hom_a2_c1_q.json": ["hom", "-", "--src", "(K0,L)", "--tgt", "(K1,L)",
                         "--window=-2:0", "--bound", "4", "--field", "Q"],
    # rule-free hom that loses terms past the bound: rows assembled from
    # the trimmed d tables, ranks by modular elimination
    "hom_m11.json": ["hom", "-", "--src", "L", "--tgt", "L",
                     "--window=-6:0", "--bound", "3", "--field", "Zmod:10007"],
    "normalize_messy.json": ["normalize", str(DATA / "messy_data.json")],
    "equiv_flip.json": ["equiv", "flip", str(DATA / "messy_data.json"),
                        "--arrow", "e1"],
    "equiv_gauge.json": ["equiv", "gauge", str(DATA / "messy_data.json"),
                         "--flip-set", "a,b"],
}


def prepare():
    """Materialize the intermediate presentation files some cases need."""
    d12_path = DATA / "d12_n3.json"
    main(["build", "--model", "D12:3", "--out", str(d12_path)])
    a2_path = DATA / "a2.json"
    main(["build", "--model", "A2", "--out", str(a2_path)])
    c3_path = DATA / "c3.json"
    main(["build", "--model", "C:3", "--out", str(c3_path)])
    c1_path = DATA / "c1.json"
    main(["build", "--model", "C:1", "--out", str(c1_path)])
    a2_c1_path = DATA / "a2_c1.json"
    main(["tensor", str(a2_path), str(c1_path), "--out", str(a2_c1_path)])
    m11_path = DATA / "m11.json"
    main(["build", "--model", "M:1,1", "--out", str(m11_path)])
    CASES["hom_d12.md"][1] = str(d12_path)
    CASES["hom_d12.json"][1] = str(d12_path)
    CASES["tensor_a2_c3.txt"][1] = str(a2_path)
    CASES["tensor_a2_c3.txt"][2] = str(c3_path)
    CASES["hom_a2_c1.json"][1] = str(a2_c1_path)
    CASES["hom_a2_c1_q.json"][1] = str(a2_c1_path)
    CASES["hom_m11.json"][1] = str(m11_path)


def run():
    prepare()
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        out = GOLDEN / name
        code = main(argv + ["--out", str(out)])
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")
        print(f"wrote {out}")


if __name__ == "__main__":
    run()
