"""One fresh interpreter of a benchmark run: set up, run jobs, check outputs.

Started by run.py, one worker at a time.  Set-up is everything from the
interpreter's start to the first job: importing ``semifree.cli``, making the
inputs from the seed and writing the input files.  The worker prints one
JSON line with its measurements.  ``--record`` instead writes the reference
digests of every input variant to reference.json.
"""

import time

# CLOCK_MONOTONIC is one clock for every process on Linux, so the parent's
# spawn time and the worker's ready time can be subtracted.
STARTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from probe import PROBE_REF_S, probe  # noqa: E402
from semifree import cli  # noqa: E402

REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"

# Longest stretch of calls between two probes.
PROBE_EVERY_S = 0.5


def write_inputs(job, workdir: Path):
    workdir.mkdir(parents=True)
    for name, doc in job.inputs.items():
        (workdir / name).write_text(json.dumps(doc, indent=1) + "\n",
                                    encoding="utf-8")


def run_call(call):
    """Run one CLI call in process; return (exit code, output bytes, error)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(call.argv))
        except SystemExit as err:  # argparse rejects the arguments
            code = err.code if isinstance(err.code, int) else 2
        except Exception as err:  # noqa: BLE001 - counted as a failure
            code, stderr = 1, io.StringIO(f"{type(err).__name__}: {err}")
    if call.out is None:
        data = stdout.getvalue().encode("utf-8")
    else:
        path = Path(call.out)
        data = path.read_bytes() if path.exists() else b""
    return code, data, stderr.getvalue()


def run_job(job):
    """Run every item once, timing each call.  The probe runs at the start,
    at the end, and between calls once PROBE_EVERY_S of calls have run; each
    call's time is also scaled by the mean of the probes just before and
    after it.  Returns per-item seconds, per-item scaled seconds, probe
    seconds and per-item outcomes (exit code, output bytes, error)."""
    item_s, scaled_s, results = [], [], []
    probes, pending = [probe()], []  # pending: (item index, call seconds)

    def flush():
        probes.append(probe())
        factor = PROBE_REF_S / ((probes[-2] + probes[-1]) / 2)
        for i, dt in pending:
            scaled_s[i] += dt * factor
        pending.clear()

    for i, item in enumerate(job.items):
        item_s.append(0.0)
        scaled_s.append(0.0)
        outcome = []
        for call in item.calls:
            t0 = time.perf_counter()
            outcome.append(run_call(call))
            dt = time.perf_counter() - t0
            item_s[i] += dt
            pending.append((i, dt))
            if sum(d for _, d in pending) >= PROBE_EVERY_S:
                flush()
        results.append(outcome)
    if pending:
        flush()
    return item_s, scaled_s, probes, results


def item_digest(item, outcome):
    """SHA-256 over the SHA-256 of each call's output, in call order."""
    h = hashlib.sha256()
    for call, (_, data, _) in zip(item.calls, outcome):
        name = call.out or "stdout:" + " ".join(call.argv)
        h.update(f"{name}\0{hashlib.sha256(data).hexdigest()}\n".encode())
    return h.hexdigest()


def output_sizes(job) -> dict:
    """Generator and rule counts, and hom basis sizes per degree, of the
    outputs of the job just run; summed per subcommand when a job has many
    items."""
    sizes = {}
    for item in job.items:
        for call in item.calls:
            if call.out is None or not Path(call.out).exists():
                continue
            doc = json.loads(Path(call.out).read_text(encoding="utf-8"))
            entry = sizes.setdefault(
                call.out if len(job.items) == 1 else call.argv[0], {})
            if "generators" in doc:
                for key, n in (("generators", len(doc["generators"])),
                               ("rules", len(doc.get("rules", ())))):
                    entry[key] = entry.get(key, 0) + n
            if "basis" in doc:
                entry["basis"] = doc["basis"]
    return sizes


def rank_tables_agree(a: str, b: str) -> bool:
    ta = json.loads(Path(a).read_text(encoding="utf-8"))
    tb = json.loads(Path(b).read_text(encoding="utf-8"))
    ta.pop("field")
    tb.pop("field")
    return ta == tb


def check_job(job, results, reference):
    """Failed calls of one job and a note for each failed item.  An item
    fails on a nonzero exit, an exception, an output digest that differs from
    the reference, or Q and Zmod:p rank tables that disagree."""
    failed, notes = 0, []
    bad_ranks = {f for pair in job.rank_pairs if not rank_tables_agree(*pair)
                 for f in pair}
    for item, outcome in zip(job.items, results):
        digest = item_digest(item, outcome)
        problems = [f"exit {code} from {' '.join(call.argv)}: {err.strip()}"
                    for call, (code, _, err) in zip(item.calls, outcome)
                    if code != 0]
        if reference is not None and reference.get(item.name) != digest:
            problems.append(f"output digest {digest} differs from reference")
        if any(call.out in bad_ranks for call in item.calls):
            problems.append("Q and Zmod:p rank tables differ")
        if problems:
            failed += len(item.calls)
            notes.append({"item": item.name, "problems": problems})
    for item in job.items:
        for call in item.calls:
            if call.out:
                Path(call.out).unlink(missing_ok=True)
    return failed, notes


def measure(job, reference, budget, smoke, tracer=None):
    """Jobs until the budget is spent (at least one), each timed and checked.
    ``scaled`` holds job and item times scaled to the probe's reference
    speed.  With a tracer, spans are kept for the first job only."""
    jobs, items, scaled, scaled_items, probes = [], [], [], [], []
    failed, notes = 0, []
    deadline = time.perf_counter() + budget
    while True:
        if tracer is not None:
            tracer.current_job = len(jobs)
        item_s, scaled_s, probe_s, results = run_job(job)
        if tracer is not None:
            tracer.keep_spans = False
        if not jobs:
            outputs = output_sizes(job)
        probes += probe_s
        jobs.append(sum(item_s))
        items += item_s
        scaled.append(sum(scaled_s))
        scaled_items += scaled_s
        f, n = check_job(job, results, reference)
        failed, notes = failed + f, notes + n
        if smoke or time.perf_counter() + statistics.median(jobs) > deadline:
            break
    return {"job_s": jobs, "item_s": items, "scaled_job_s": scaled,
            "scaled_item_s": scaled_items, "probe_s": probes,
            "failed": failed,
            "attempted": len(jobs) * sum(len(i.calls) for i in job.items),
            "notes": notes[:20], "outputs": outputs}


def traced(job, reference, budget, smoke, spans_path):
    """Half the budget untraced, then the rest traced, for the overhead."""
    from tracing import Tracer
    plain = measure(job, reference, budget / 2, smoke)
    tracer = Tracer()
    tracer.install()
    run = measure(job, reference, budget / 2, smoke, tracer)
    tracer.write_spans(spans_path)
    metrics, unmeasured = tracer.metrics(len(run["job_s"]))
    return {"job_s": plain["job_s"], "traced_job_s": run["job_s"],
            "failed": plain["failed"] + run["failed"],
            "attempted": plain["attempted"] + run["attempted"],
            "scaled_job_s": plain["scaled_job_s"],
            "scaled_traced_job_s": run["scaled_job_s"],
            "notes": (plain["notes"] + run["notes"])[:20],
            "outputs": plain["outputs"], "layers": metrics,
            "unmeasured": unmeasured, "rebound": tracer.rebound}


def record():
    """Digests of every item of every variant, from the current program."""
    reference = {}
    for name, make in workloads.WORKLOADS.items():
        reference[name] = {}
        for v in range(len(workloads.PRIMES)):
            job = make(v)
            workdir = OUT_DIR / f"record-{os.getpid()}"
            write_inputs(job, workdir)
            os.chdir(workdir)
            _, _, _, results = run_job(job)
            failed, notes = check_job(job, results, None)
            if failed:
                sys.exit(f"{name} variant {v} fails: {notes}")
            reference[name][str(v)] = {
                item.name: item_digest(item, outcome)
                for item, outcome in zip(job.items, results)}
            os.chdir(ROOT)
            shutil.rmtree(workdir)
            print(f"recorded {name} variant {v}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True)
                         + "\n", encoding="utf-8")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned", type=float, default=None)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if args.record:
        record()
        return 0
    v = workloads.variant(args.seed)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    reference = reference[args.workload][str(v)]
    job = workloads.WORKLOADS[args.workload](v, args.smoke)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    write_inputs(job, workdir)
    os.chdir(workdir)
    setup_s = time.monotonic() - (args.spawned or STARTED)
    setup_probe = probe()
    try:
        if args.budget == 0:  # set-up time only
            result = {"failed": 0, "attempted": 0, "notes": [],
                      "outputs": {}}
        elif args.trace:
            spans = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
            result = traced(job, reference, args.budget, args.smoke, spans)
        else:
            result = measure(job, reference, args.budget, args.smoke)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir)
    result.update(
        setup_s=setup_s, scaled_setup_s=setup_s * PROBE_REF_S / setup_probe,
        variant=v, sizes=job.sizes,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
