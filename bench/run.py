"""Benchmark of the burgersfb solver: end-to-end timings and a per-layer trace.

Run from the repository root:

    python3 bench/run.py                                   # all three workloads
    python3 bench/run.py --workload figure-n16 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload study-n64 --trace 1    # per-layer trace

Each repetition runs the whole workload in a fresh child interpreter, one
at a time, with BLAS limited to one thread; repetitions continue until
``--seconds`` have passed (at least three).  Untraced runs report medians
of the end-to-end metrics; traced runs alternate an untraced and a traced
child and report per-layer medians.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
record of each run, with provenance and every repetition, is written under
bench/.runs/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RUNS_DIR = os.path.join(BENCH_DIR, ".runs")
CHILD = os.path.join(BENCH_DIR, "child.py")

sys.path.insert(0, BENCH_DIR)
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3
BLAS_THREADS = 1
DEADLINE_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER_UNITS = {"sparse.lu_nnz": "count", "harness.csv_bytes": "bytes"}


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def layer_unit(name):
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def run_child(workload, seed, trace, tiny, rep, deadline):
    out = os.path.join(RUNS_DIR, workload, f"rep{rep}")
    result_path = out + ".json"
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace), "--out", out, "--result", result_path]
    if tiny:
        cmd.append("--tiny")
    t0 = now()
    try:
        proc = subprocess.run(
            cmd + ["--t0", repr(t0)], cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=max(deadline - t0, 1.0),
        )
    except subprocess.TimeoutExpired:
        return {"trace": trace, "crash": "timed out"}
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
        return {"trace": trace, "crash": tail[0]}
    with open(result_path, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    result["trace"] = trace
    return result


def count_failures(workload, reps):
    """Failed ops per repetition; a digest that differs from the first
    repetition's (same seed, same inputs) fails that op too."""
    ops = WORKLOADS[workload].ops
    first = next((r["digests"] for r in reps if "crash" not in r), {})
    failures = []
    for i, r in enumerate(reps):
        if "crash" in r:
            failures += [(i, op, r["crash"]) for op in ops]
            continue
        for op in ops:
            why = r["ops"].get(op, "missing")
            if not why and r["digests"].get(op) != first.get(op):
                why = "outputs differ from the first repetition"
            if why:
                failures.append((i, op, why))
    return failures


def end_to_end(reps):
    good = [r for r in reps if "crash" not in r and r["trace"] == 0 and r["wall_s"] is not None]
    if not good:
        return None
    values = {
        "setup_s": [r["setup_s"] for r in good],
        "wall_s": [r["wall_s"] for r in good],
        "steps_per_s": [r["steps"] / r["run_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    return {name: (statistics.median(values[name]), unit) for name, unit in END_TO_END}


def per_layer(reps):
    traced = [r for r in reps if "crash" not in r and r["trace"] == 1 and r["layers"]]
    plain = [r["wall_s"] for r in reps if "crash" not in r and r["trace"] == 0 and r["wall_s"]]
    if not traced or not plain:
        return None
    metrics = {
        name: (statistics.median(r["layers"][name] for r in traced), layer_unit(name))
        for name in traced[0]["layers"]
    }
    traced_wall = statistics.median(r["wall_s"] for r in traced if r["wall_s"])
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(plain), "s")
    return metrics


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, "r", encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), "r", encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest():
    h = hashlib.sha256()
    package = os.path.join(SRC, "burgersfb")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


def cache_sizes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, entry, key), "r", encoding="ascii") as handle:
                    fields[key] = handle.read().strip()
            sizes[f"L{fields['level']}{fields['type'][0].lower()}"] = fields["size"]
    except OSError:
        pass
    return sizes


def provenance(args, workload, reps):
    good = [r for r in reps if "crash" not in r]
    return {
        "workload": workload,
        "seed": args.seed,
        "w0": good[0]["inputs"].get("w0") if good else None,
        "trace": args.trace,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "runs": len(reps),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "versions": good[0]["versions"] if good else None,
        "machine": platform.machine(),
        "cache": cache_sizes(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def run_workload(args, workload):
    shutil.rmtree(os.path.join(RUNS_DIR, workload), ignore_errors=True)
    os.makedirs(os.path.join(RUNS_DIR, workload))
    start = now()
    deadline = start + DEADLINE_S
    min_reps = 1 if args.tiny else MIN_REPS
    kinds = (0, 1) if args.trace else (0,)
    reps = []
    longest = 0.0
    while True:
        began = now()
        for trace in kinds:
            reps.append(run_child(workload, args.seed, trace, args.tiny, len(reps), deadline))
        longest = max(longest, now() - began)
        measured = sum(1 for r in reps if r["trace"] == args.trace)
        if now() - start >= args.seconds and measured >= min_reps:
            break
        if now() + 2 * longest > deadline:  # leave time to finish inside 180 s
            break
    failures = count_failures(workload, reps)
    metrics = per_layer(reps) if args.trace else end_to_end(reps)
    record = {
        "provenance": provenance(args, workload, reps),
        "attempted": len(WORKLOADS[workload].ops) * len(reps),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
        "absent": sorted({a for r in reps if "crash" not in r for a in r["absent"]}),
        "repetitions": reps,
    }
    path = os.path.join(RUNS_DIR, f"result-{workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def report(workload, record):
    prov = record["provenance"]
    print(f"{workload}: seed {prov['seed']}, {prov['runs']} runs, trace {prov['trace']}")
    for name, (value, unit) in (record["metrics"] or {}).items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'ops_attempted':40s} {record['attempted']}")
    print(f"  {'ops_failed':40s} {record['failed']}")
    for rep, op, why in record["failures"]:
        print(f"  failed: run {rep} {op}: {why}")
    if record["absent"]:
        print(f"  absent from the program: {', '.join(record['absent'])}")
    print("  provenance " + json.dumps(prov, sort_keys=True))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all",) + tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size (n=4, five steps); skips the seed-0 reference check")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "burgersfb", "__init__.py")):
        print(f"no burgersfb sources under {SRC}", file=sys.stderr)
        return 2
    warm = subprocess.run([sys.executable, "-c", "import burgersfb, sympy"], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True, timeout=120)
    if warm.returncode != 0:
        print("cannot import burgersfb:\n" + warm.stderr, file=sys.stderr)
        return 2

    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    records = {name: run_workload(args, name) for name in names}
    if any(r["metrics"] is None for r in records.values()):
        for name, r in records.items():
            report(name, r)
        print("no repetition completed; no result", file=sys.stderr)
        return 1
    metrics = {}
    for name, r in records.items():
        report(name, r)
        prefix = "" if len(names) == 1 else name + "."
        for metric, (value, unit) in r["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit}
    failed = sum(r["failed"] for r in records.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
