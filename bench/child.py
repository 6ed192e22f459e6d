"""One benchmark repetition, run in a fresh interpreter by ``run.py``.

Usage (normally started by run.py, not by hand):

    python child.py --workload NAME --seed N --trace 0|1 --t0 T --out DIR --result FILE [--tiny]

``--t0`` is the CLOCK_MONOTONIC reading the parent took just before
starting this process, so ``setup_s`` and ``wall_s`` include interpreter
start-up and ``import burgersfb``.  The result is written as JSON to
``--result``; correctness checks run after the wall-clock mark.
"""

import argparse
import functools
import json
import os
import resource
import time


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class RunClock:
    """Times every call of ``evolution.run`` and totals the steps it made."""

    def __init__(self):
        self.first_start = None
        self.seconds = 0.0
        self.steps = 0
        self.newton_iters = 0
        self._active = False

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if self._active:
                return fn(*args, **kwargs)
            start = now()
            if self.first_start is None:
                self.first_start = start
            self._active = True
            try:
                record = fn(*args, **kwargs)
            finally:
                self._active = False
            self.seconds += now() - start
            self.steps += record.times.shape[0] - 1
            self.newton_iters += int(record.newton_iters[1:].sum())
            return record

        return timed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    import burgersfb as bf
    import tracer
    from workloads import WORKLOADS, Outcome, check, load_reference

    workload = WORKLOADS[args.workload]
    clock = RunClock()
    undo = tracer.rebind(bf.evolution.run, clock.wrap(bf.evolution.run), bf.evolution, "run")
    trace = None
    absent = []
    if args.trace:
        trace = tracer.Tracer()
        undo_trace, absent = tracer.install(trace)
        undo += undo_trace

    os.makedirs(args.out, exist_ok=True)
    outcome = Outcome(workload.ops)
    error = None
    try:
        workload.execute(bf, workload.tiny if args.tiny else workload.full, args.seed, args.out, outcome)
        outcome.wall_end = now()
    except Exception as exc:  # the op fails; the child still reports
        error = f"{type(exc).__name__}: {exc}"
        outcome.abort(error)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024.0

    csv_bytes = sum(os.path.getsize(p) for p in {path for _, path in outcome.csv_paths})
    layers = None
    if trace is not None:
        steady_iters = outcome.steady[3] if outcome.steady else 0
        layers = tracer.layer_metrics(trace, clock.steps, clock.newton_iters, steady_iters, csv_bytes)
    tracer.restore(undo)

    reference = None
    if args.seed == 0 and not args.tiny:
        reference = load_reference().get(args.workload, {})
    check(bf, outcome, reference)

    import numpy, scipy, sympy

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": outcome.inputs,
        "error": error,
        "setup_s": None if clock.first_start is None else clock.first_start - args.t0,
        "wall_s": None if outcome.wall_end is None else outcome.wall_end - args.t0,
        "run_s": clock.seconds,
        "steps": clock.steps,
        "newton_iters": clock.newton_iters,
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "ops": outcome.status,
        "digests": outcome.digests,
        "observed": outcome.observed,
        "layers": layers,
        "absent": absent,
        "burgersfb_file": bf.__file__,
        "versions": {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "sympy": sympy.__version__,
        },
    }
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    if trace is not None:
        with open(os.path.join(args.out, "spans.json"), "w", encoding="utf-8") as handle:
            json.dump(tracer.span_records(trace.spans), handle)


if __name__ == "__main__":
    main()
