"""Compare two sets of benchmark reports, metric by metric.

    python3 perfbench/compare.py --before A1.json A2.json ... --after B1.json ...

Each file is a report that run.py writes to ``.perfbench_out/`` (or the
report line it prints).  Files are grouped by workload and trace mode.  For
each metric the table gives both medians, the change as a share of the
``before`` median, and each side's spread (distance between the quartiles
as a share of the median).  A metric with a bound in BENCHMARK.json is
marked ``worse`` when the change is worse than its bound, and
``unresolved`` when either spread is wider than the bound, unless every
``after`` run reads better than every ``before`` run.  Exit code 1
when any metric is marked ``worse``.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(paths):
    groups = {}
    for path in paths:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
        key = (report["workload"], report["trace"])
        for name, m in report["metrics"].items():
            groups.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return groups


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", nargs="+", required=True)
    parser.add_argument("--after", nargs="+", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rules = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    before, after = load(args.before), load(args.after)
    worse = False
    for key in sorted(before.keys() & after.keys()):
        print(f"== {key[0]} (trace {key[1]})")
        for name, a in before[key].items():
            b = after[key].get(name)
            if not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma if ma else 0.0
            rule = rules.get(name, {})
            verdict = ""
            if "bound" in rule:
                sign = 1 if rule["better"] == "lower" else -1
                all_better = (max(b) < min(a) if sign > 0
                              else min(b) > max(a))
                if max(spread(a), spread(b)) > rule["bound"] and not all_better:
                    verdict = "unresolved"
                elif sign * change > rule["bound"]:
                    verdict, worse = "worse", True
            print(f"{name:44s} {ma:12.6g} {mb:12.6g} {change:+8.1%} "
                  f"spread {spread(a):.3f}/{spread(b):.3f} n={len(a)}/{len(b)}"
                  f" {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
