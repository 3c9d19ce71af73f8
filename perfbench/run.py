"""semifree benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload cohomology --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it starts fresh worker interpreters one after another
(each sets up, then runs jobs for its share of ``--seconds``) and reports the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` one worker runs
half its time untraced and half with every layer's functions wrapped, and
reports the per-layer metrics.  Every output of every job is checked.  The
last line printed is the result; the line before it is the full report,
which is also written to ``.perfbench_out/``.  The exit code is nonzero when
any check fails.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# Fresh interpreters per timed run.  Each job worker is followed by one that
# only sets up and exits, so set-up time has twice as many samples.
WORKERS = 4

# The layers each workload was chosen to load, whose share of the traced
# job time is reported, and the functions that must be called there.
DOMINANT = {
    "cohomology": ("analysis", "algebra"),
    "hom_enum": ("dgcat.hom_slice",),
    "relations": ("rewrite",),
    "plumbing_sweep": ("reduce", "dgcat", "plumbing", "cli"),
}
REQUIRED_CALLS = {
    "cohomology": ("analysis.exact_rank",),
    "hom_enum": ("dgcat.hom_slice",),
    "relations": ("rewrite.match_rule",),
    "plumbing_sweep": ("reduce.greedy_simplify", "plumbing.build_wrapped"),
}


def run_worker(args, budget: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--budget", repr(budget), "--trace", str(args.trace),
           "--spawned", repr(time.monotonic())]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    git = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text(encoding="utf-8").strip()
        git = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.exists():
                git = target.read_text(encoding="utf-8").strip()
    return {"python": platform.python_version(), "git": git,
            "nproc": os.cpu_count(), "cpu": cpu, "seed": seed}


def end_to_end(workers, setups) -> tuple:
    jobs = [s for w in workers for s in w["scaled_job_s"]]
    items = [s * 1e3 for w in workers for s in w["scaled_item_s"]]
    raw = [s for w in workers for s in w["job_s"]]
    metrics = {
        "job_s": (statistics.median(jobs), "s", len(jobs)),
        "item_p50_ms": (percentile(items, 50), "ms", len(items)),
        "item_p95_ms": (percentile(items, 95), "ms", len(items)),
        "peak_rss_mb": (statistics.median(w["peak_rss_mb"] for w in workers),
                        "MB", len(workers)),
        "setup_s": (statistics.median(w["scaled_setup_s"] for w in setups),
                    "s", len(setups)),
    }
    return metrics, {"job_s_samples": jobs,
                     "raw_job_s_samples": raw,
                     "raw_setup_s_samples": [w["setup_s"] for w in setups],
                     "probe_s": [p for w in workers for p in w["probe_s"]]}


def per_layer(workload: str, worker: dict) -> tuple:
    layers = worker["layers"]
    plain = statistics.median(worker["scaled_job_s"])
    traced = statistics.median(worker["scaled_traced_job_s"])
    # per-layer self times are unscaled means over the traced jobs
    dominant = (sum(layers[f"{name}.self_s"] for name in DOMINANT[workload])
                / statistics.mean(worker["traced_job_s"]))
    n = len(worker["traced_job_s"])
    metrics = {name: (value, _unit(name), n) for name, value in layers.items()}
    metrics.update({
        "trace.job_s": (traced, "s", n),
        "trace.plain_job_s": (plain, "s", len(worker["job_s"])),
        "trace.overhead": (traced / plain - 1, "ratio", n),
        "trace.dominant_share": (dominant, "ratio", n),
    })
    missing = [name for name in REQUIRED_CALLS[workload]
               if layers[f"{name}.calls"] == 0]
    module_self = {name: layers[f"{name}.self_s"] for name in LAYERS}
    extra = {"dominant_layers": list(DOMINANT[workload]),
             "top_layer": max(module_self, key=module_self.get),
             "unmeasured_layers": worker["unmeasured"],
             "required_calls_missing": missing,
             "rebound": worker["rebound"]}
    return metrics, extra


def _unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one worker, one job, minimal inputs")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    count = 1 if args.trace or args.smoke else WORKERS
    workers, setups = [], []
    for _ in range(count):
        workers.append(run_worker(args, args.seconds / count))
        setups.append(workers[-1])
        if count > 1:
            setups.append(run_worker(args, 0.0))
    if args.trace:
        metrics, extra = per_layer(args.workload, workers[0])
    else:
        metrics, extra = end_to_end(workers, setups)
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    missing_metrics = [m["name"] for m in wanted if m["name"] not in metrics]
    correct = (failed == 0 and not missing_metrics
               and not extra.get("required_calls_missing"))

    report = {
        "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke,
        "environment": environment(args.seed),
        "variant": workers[0]["variant"], "inputs": workers[0]["sizes"],
        "outputs": workers[0]["outputs"],
        "correct": correct, "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "notes": [n for w in workers for n in w["notes"]][:20],
        "missing_metrics": missing_metrics,
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in metrics.items()},
        **extra,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / (f"result-{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
