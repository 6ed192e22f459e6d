"""Smoke tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py -q

The tracer tests use a fake clock; the smoke tests run every workload at
the tiny size (n = 4, five steps) through run.py, traced and untraced.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402
from workloads import WORKLOADS, w0_expression  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]+")


class FakeClock:
    """Advances by a fixed tick on every reading."""

    def __init__(self, tick=1.0):
        self.t = 0.0
        self.tick = tick

    def __call__(self):
        self.t += self.tick
        return self.t


def test_self_time_on_nested_call_tree():
    t = tracer.Tracer(clock=FakeClock())
    leaf = t.wrap("assembly.leaf", lambda: None)
    middle = t.wrap("sparse.middle", lambda: (leaf(), leaf()))
    root = t.wrap("evolution.run", lambda: (middle(), leaf()))
    root()
    # Clock readings: run 1..10, middle 2..7 (leaves 3..4, 5..6), leaf 8..9.
    spans = t.spans
    assert [s[tracer.NAME] for s in spans] == [
        "evolution.run", "sparse.middle", "assembly.leaf", "assembly.leaf", "assembly.leaf"
    ]
    assert [s[tracer.PARENT] for s in spans] == [-1, 0, 1, 1, 0]
    assert tracer.self_times(spans) == [9 - 5 - 1, 5 - 2, 1, 1, 1]
    assert tracer.self_time(spans, {"assembly.leaf"}) == 3
    assert tracer.inclusive(spans, {"sparse.middle", "assembly.leaf"}) == 5 + 1
    assert tracer.count(spans, {"assembly.leaf"}, under="sparse.middle") == 2
    assert tracer.count(spans, {"assembly.leaf"}, under="evolution.run") == 3


def test_span_closes_when_the_call_raises():
    t = tracer.Tracer(clock=FakeClock())

    def fail():
        raise ValueError("boom")

    outer = t.wrap("outer", lambda: t.wrap("inner", fail)())
    with pytest.raises(ValueError):
        outer()
    assert all(s[tracer.END] is not None for s in t.spans)
    assert tracer.self_times(t.spans) == [2, 1]
    outer_again = t.wrap("again", lambda: None)
    outer_again()
    assert t.spans[-1][tracer.PARENT] == -1


def test_absent_targets_are_reported_not_fatal():
    module = types.ModuleType("burgersfb_fake_target")
    module.present = lambda: 7
    sys.modules[module.__name__] = module
    try:
        t = tracer.Tracer()
        undo, absent = tracer.install(t, (
            (module.__name__, "present", "fake.present"),
            (module.__name__, "deleted_helper", "fake.deleted"),
            ("no_such_module_anywhere", "f", "fake.f"),
            (module.__name__, "Missing.method", "fake.method"),
        ))
        assert module.present() == 7
        assert [s[tracer.NAME] for s in t.spans] == ["fake.present"]
        assert absent == [
            f"{module.__name__}.deleted_helper",
            "no_such_module_anywhere.f",
            f"{module.__name__}.Missing.method",
        ]
        tracer.restore(undo)
        module.present()
        assert len(t.spans) == 1
    finally:
        del sys.modules[module.__name__]


def test_w0_expression_is_seeded():
    base = "sin(pi*x1)*sin(pi*x2)"
    assert w0_expression(base, 0) == base
    assert w0_expression(base, 5) == w0_expression(base, 5)
    assert w0_expression(base, 5) != w0_expression(base, 6)
    assert w0_expression(base, 5).startswith(base + " ")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_emits_valid_names(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= len(WORKLOADS[workload].ops)
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: metric["unit"] for name, metric in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(metric["unit"]), metric["unit"]
        assert isinstance(metric["value"], (int, float))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns(".runs"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "figure-n16", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
