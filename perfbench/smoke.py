"""Smoke test of the benchmark: every workload once, at minimal size.

    python3 perfbench/smoke.py

Checks BENCHMARK.json's shape, then runs ``run.py --smoke`` (one worker, one
job, the first few plumbing items) on every workload, untraced and traced,
and checks the result line and the report: metric names, units and sample
counts, and that every output check passed.  It makes no timing assertion.
Layers that no workload calls are listed as unmeasured.  Exit code 0 means
every check passed.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_spec(spec) -> list:
    errors = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        errors.append(f"BENCHMARK.json keys: {sorted(spec)}")
    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("need 2 to 8 workloads")
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200:
            errors.append(f"workload entry {w}")
    for kind, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                       ("per_layer", {"name", "unit", "better"})):
        for m in spec[kind]:
            names.append(m["name"])
            if set(m) != keys or not UNIT.fullmatch(m["unit"]) \
                    or m["better"] not in ("lower", "higher"):
                errors.append(f"{kind} entry {m}")
            if kind == "end_to_end" and not 0 < m["bound"] <= 0.25:
                errors.append(f"bound of {m['name']}")
    errors += [f"bad or repeated name {n!r}" for n in names
               if not NAME.fullmatch(n) or names.count(n) > 1]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if bounds.get("setup_s") != max(bounds.values()):
        errors.append("setup_s needs the largest bound")
    return errors


def run(workload: str, trace: int, spec) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    errors = []
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-2000:]}"], None
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result, report = json.loads(result_line), json.loads(report_line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        errors.append(f"checks failed: {report['notes']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if [m["name"] for m in wanted] != list(result["metrics"]):
        errors.append("metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        full = report["metrics"].get(m["name"], {})
        if set(got) != {"value", "unit"} or got["unit"] != m["unit"] \
                or full.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: {got} {full}")
        elif not isinstance(got["value"], (int, float)):
            errors.append(f"{m['name']}: value {got['value']!r}")
        elif not (isinstance(full.get("samples"), int)
                  and full["samples"] >= 1):
            errors.append(f"{m['name']}: sample count {full.get('samples')}")
    return errors, report


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = [f"BENCHMARK.json: {e}" for e in check_spec(spec)]
    unmeasured = None
    for w in spec["workloads"]:
        for trace in (0, 1):
            errors, report = run(w["name"], trace, spec)
            failures += [f"{w['name']} trace {trace}: {e}" for e in errors]
            print(f"{'ok' if not errors else 'FAIL'} {w['name']} "
                  f"trace {trace}")
            if trace and report:
                layers = set(report["unmeasured_layers"])
                unmeasured = layers if unmeasured is None \
                    else unmeasured & layers
    print(f"unmeasured layers (no calls on any workload): "
          f"{sorted(unmeasured or ())}")
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
