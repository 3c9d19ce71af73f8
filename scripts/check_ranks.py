#!/usr/bin/env python3
"""Check that Q and Zmod:10007 give the same truncated hom tables.

For each case the presentation is built (and tensored) through the CLI, and
`hom` is run over both fields.  The `ranks`, `exact` and `basis` tables of
the two outputs must be equal.  Exits 1 and names the differing tables
otherwise.  Run from anywhere: python3 scripts/check_ranks.py
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from semifree.cli import main  # noqa: E402

FIELDS = ("Q", "Zmod:10007")
TABLES = ("ranks", "exact", "basis")

# (name, models tensored in order, hom object, window, bound)
CASES = (
    ("M:2,2", ["M:2,2"], "L", "-6:0", 3),
    ("M:1,1", ["M:1,1"], "L", "-6:0", 3),
    ("M:1,1 x S:2,1,1", ["M:1,1", "S:2,1,1"], "(L,L)", "-2:0", 2),
    ("M:1,1 x S:2,1,1", ["M:1,1", "S:2,1,1"], "(L,L)", "-2:0", 3),
    ("M:2,1 x S:2,1,1", ["M:2,1", "S:2,1,1"], "(L,L)", "-2:0", 2),
    ("S:3,2,1", ["S:3,2,1"], "L", "-4:0", 9),
)


def run(argv):
    if main(argv) != 0:
        raise SystemExit(f"failed: semifree {' '.join(argv)}")


def tables(models, obj, window, bound, out: Path) -> dict:
    """field -> the hom JSON of the (tensored) models over that field."""
    paths = []
    for i, model in enumerate(models):
        paths.append(out / f"part{i}.json")
        run(["build", "--model", model, "--out", str(paths[-1])])
    if len(paths) > 1:
        run(["tensor", *map(str, paths), "--out", str(out / "cat.json")])
        paths.append(out / "cat.json")
    result = {}
    for field in FIELDS:
        path = out / "hom.json"
        run(["hom", str(paths[-1]), "--src", obj, "--tgt", obj,
             f"--window={window}", "--bound", str(bound), "--field", field,
             "--out", str(path)])
        result[field] = json.loads(path.read_text(encoding="utf-8"))
    return result


def main_check() -> int:
    failed = 0
    for name, models, obj, window, bound in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            q, p = tables(models, obj, window, bound, Path(tmp)).values()
        differ = [t for t in TABLES if q[t] != p[t]]
        if differ:
            failed += 1
            for t in differ:
                print(f"{name} bound {bound}: {t} differ: "
                      f"{FIELDS[0]} {q[t]}, {FIELDS[1]} {p[t]}")
        else:
            print(f"{name} bound {bound}: {', '.join(TABLES)} agree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main_check())
