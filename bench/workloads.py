"""The three benchmark workloads and the checks on their outputs.

Each workload drives the burgersfb library the way the harness and the CLI
do, writes the CSVs a user would get, and leaves its numbers in an
``Outcome`` for the checks.  Library functions are looked up on their
modules at call time, so a tracer installed beforehand sees every call.

An op is one trajectory, one study level or one steady solve.  It fails if
it raises or if one of its checks fails; an op that never finished because
an earlier one raised counts as failed too.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

NU = 0.1
C0 = 1.0
K = 5e-4
MEAN = -0.1
U_INF = "-0.2*x1"
EXAMPLE1_W0 = "sin(pi*x1)*sin(pi*x2) + 0.2*x1"
EXAMPLE2_W0 = "sin(pi*x1)*sin(pi*x2)"
RIGHT_SIDE = ((1.0, 0.0), (1.0, 1.0))
SERIES_HEADER = "time,l2,h1semi,lyapunov,control_l2,newton_iters"

# Seed-0 values must match the recorded ones to this tolerance.  A chord or
# Shamanskii Newton moves final states by about 1e-10; scaling the cubic
# feedback term by 0.5 % already moves a final H1 norm by 3.5e-6 relative.
REF_RTOL = 1e-6
REF_ATOL = 1e-9
STEADY_TOL = 1e-10

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def w0_expression(base: str, seed: int) -> str:
    """Initial deviation for ``seed``: the published one for seed 0, else a
    small smooth seeded perturbation of it that vanishes on x1 = 0 and 1."""
    if seed == 0:
        return base
    rng = random.Random(seed)
    amplitude = rng.uniform(0.02, 0.08)
    sign = "+" if rng.random() < 0.5 else "-"
    p = rng.randint(1, 3)
    q = rng.randint(0, 3)
    return f"{base} {sign} {amplitude:.6f}*sin({p}*pi*x1)*cos({q}*pi*x2)"


class Outcome:
    """What one child observed: op status, digests and values to check."""

    def __init__(self, ops):
        self.status = {op: None for op in ops}  # None: not finished
        self.digests = {}
        self.observed = {}
        self.csv_paths = []
        self.records = {}
        self.steady = None
        self.wall_end = None
        self.inputs = {}

    def done(self, op):
        if self.status[op] is None:
            self.status[op] = ""

    def fail(self, op, why):
        if not self.status[op]:
            self.status[op] = why

    def abort(self, why):
        for op, status in self.status.items():
            if status is None:
                self.status[op] = f"not completed: {why}"

    def failures(self):
        return {op: why for op, why in self.status.items() if why}


def _digest(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _file_bytes(path) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _decay_pair(bf, outcome, w0, mesh, u_steady, t_end, nonlinear, out_dir):
    """Controlled and uncontrolled trajectories, then their series CSVs."""
    for op, controlled in (("controlled", True), ("uncontrolled", False)):
        cfg = bf.evolution.EvolutionConfig(
            nu=NU,
            k=K,
            t_end=t_end,
            control=bf.control.ControlParams(nu=NU, c0=C0) if controlled else None,
            nonlinear=nonlinear,
        )
        outcome.records[op] = (bf.evolution.run(w0, cfg, mesh, u_steady), controlled)
        outcome.done(op)
    for op in ("controlled", "uncontrolled"):
        path = os.path.join(out_dir, f"{op}.csv")
        outcome.records[op][0].to_csv(path)
        outcome.csv_paths.append((op, path))


def run_figure(bf, size, seed, out_dir, outcome):
    """Example 1 decay-figure pair: controlled and uncontrolled Newton runs."""
    w0_expr = w0_expression(EXAMPLE1_W0, seed)
    outcome.inputs["w0"] = w0_expr
    u_inf = bf.steady.analytic_from_expression(U_INF)
    w0_fn = bf.steady.analytic_from_expression(w0_expr)
    mesh = bf.mesh.tag_boundary(bf.mesh.build_unit_square_mesh(size["n"]), None)
    u_steady = bf.assembly.interpolate(u_inf.value, mesh)
    w0 = bf.assembly.interpolate(w0_fn.value, mesh)
    _decay_pair(bf, outcome, w0, mesh, u_steady, size["t_end"], "newton", out_dir)


def run_study(bf, size, seed, out_dir, outcome):
    """Example 1 convergence study against a nested reference level."""
    w0_expr = w0_expression(EXAMPLE1_W0, seed)
    outcome.inputs["w0"] = w0_expr
    problem = bf.harness.ProblemConfig(
        nu=NU,
        c0=C0,
        steady=bf.steady.SteadySpec(
            nu=NU, mean_value=MEAN, u_steady=bf.steady.analytic_from_expression(U_INF)
        ),
        w0=bf.steady.analytic_from_expression(w0_expr),
    )
    levels = tuple(size["levels"])
    study = bf.harness.Study(
        bf.harness.StudyConfig(
            problem=problem,
            levels=levels,
            reference_level=size["reference"],
            k=K,
            t_eval=size["t_eval"],
        )
    )
    roles = ("coarse", "fine", "reference")
    for role, n in zip(roles, levels + (size["reference"],)):
        op = f"trajectory:{role}"
        outcome.records[op] = (study.record(n), True)
        outcome.done(op)
    table = study.rate_table()
    state_path = os.path.join(out_dir, "rates_state.csv")
    control_path = os.path.join(out_dir, "rates_control.csv")
    table.write_state_csv(state_path)
    table.write_control_csv(control_path)
    for i, role in enumerate(roles[: len(levels)]):
        op = f"errors:{role}"
        outcome.observed[op] = {
            "l2_error": float(table.l2_errors[i]),
            "h1_error": float(table.h1_errors[i]),
            "control_error": float(table.control_errors[i]),
        }
        outcome.csv_paths += [(op, state_path), (op, control_path)]
        outcome.done(op)


def run_mixed(bf, size, seed, out_dir, outcome):
    """Example 2 layout, discrete steady field, Picard time stepping."""
    w0_expr = w0_expression(EXAMPLE2_W0, seed)
    outcome.inputs["w0"] = w0_expr
    u_inf = bf.steady.analytic_from_expression(U_INF)
    w0_fn = bf.steady.analytic_from_expression(w0_expr)
    mesh = bf.mesh.tag_boundary(bf.mesh.build_unit_square_mesh(size["n"]), RIGHT_SIDE)
    spec = bf.steady.manufactured_solve_spec(u_inf, NU, MEAN)
    u_steady, history = bf.steady.solve_steady(mesh, spec, full_output=True)
    outcome.steady = (mesh, spec, u_steady, len(history) - 1)
    outcome.done("steady")
    w0 = bf.assembly.interpolate(w0_fn.value, mesh)
    _decay_pair(bf, outcome, w0, mesh, u_steady, size["t_end"], "picard", out_dir)


@dataclass(frozen=True)
class Workload:
    """Sizes and ops of one workload; bench/README.md says why it exists."""

    name: str
    ops: tuple
    full: dict
    tiny: dict
    execute: Callable


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="figure-n16",
            ops=("controlled", "uncontrolled"),
            full={"n": 16, "t_end": 0.1},
            tiny={"n": 4, "t_end": 0.0025},
            execute=run_figure,
        ),
        Workload(
            name="study-n64",
            ops=(
                "trajectory:coarse",
                "trajectory:fine",
                "trajectory:reference",
                "errors:coarse",
                "errors:fine",
            ),
            full={"levels": (16, 32), "reference": 64, "t_eval": 0.02},
            tiny={"levels": (4, 8), "reference": 16, "t_eval": 0.0025},
            execute=run_study,
        ),
        Workload(
            name="mixed-picard-n32",
            ops=("steady", "controlled", "uncontrolled"),
            full={"n": 32, "t_end": 0.1},
            tiny={"n": 4, "t_end": 0.0025},
            execute=run_mixed,
        ),
    )
}


def _check_series_csv(outcome, op, path, record):
    lines = _file_bytes(path).decode("ascii").splitlines()
    if not lines or lines[0] != SERIES_HEADER:
        outcome.fail(op, f"{os.path.basename(path)}: unexpected header")
    elif len(lines) != record.times.shape[0] + 1:
        outcome.fail(op, f"{os.path.basename(path)}: {len(lines) - 1} rows")
    elif float(lines[-1].split(",")[1]) != float(record.l2[-1]):
        outcome.fail(op, f"{os.path.basename(path)}: last row disagrees with the record")


def check(bf, outcome, reference=None):
    """Run every correctness check; failures land on their op.

    ``reference`` holds the recorded seed-0 values of this workload at full
    size, or is None when there is nothing to compare against.
    """
    for op, (record, controlled) in outcome.records.items():
        values = record.final_state.values
        arrays = (record.l2, record.h1_semi, record.lyapunov, record.control_l2, values)
        if not all(np.all(np.isfinite(a)) for a in arrays):
            outcome.fail(op, "non-finite state or norm")
            continue
        if controlled:
            energy = record.lyapunov
            rise = np.diff(energy)
            if np.any(rise > 1e-14 * energy[0]):
                i = int(np.argmax(rise))
                outcome.fail(op, f"controlled energy rose at step {i + 1} by {rise[i]:.3e}")
        observed = {"l2": float(record.l2[-1]), "h1": float(record.h1_semi[-1])}
        if controlled:
            observed["control_l2"] = float(record.control_l2[-1])
        outcome.observed.setdefault(op, {}).update(observed)
        outcome.digests[op] = _digest(values.tobytes())

    for op, path in outcome.csv_paths:
        if op in outcome.records:
            _check_series_csv(outcome, op, path, outcome.records[op][0])
        outcome.digests[op] = _digest(outcome.digests.get(op, "").encode(), _file_bytes(path))

    errors = [(op, v) for op, v in outcome.observed.items() if op.startswith("errors:")]
    for (_, coarse), (op, fine) in zip(errors, errors[1:]):
        for key, value in fine.items():
            if not value < coarse[key]:
                outcome.fail(op, f"{key} did not decrease as h halved")

    if outcome.steady is not None:
        mesh, spec, u_steady, iterations = outcome.steady
        residual = bf.steady.steady_residual(
            mesh, u_steady, spec.forcing, NU, neumann_flux=spec.neumann_flux
        )
        weights = np.asarray(bf.assembly.assemble_mass(mesh).sum(axis=1)).ravel()
        mean_gap = abs(float(weights @ u_steady.values) - MEAN)
        if not residual <= STEADY_TOL or not mean_gap <= STEADY_TOL:
            outcome.fail("steady", f"residual {residual:.3e}, mean gap {mean_gap:.3e}")
        outcome.observed["steady"] = {"l2": bf.assembly.l2_norm(u_steady)}
        outcome.digests["steady"] = _digest(u_steady.values.tobytes())

    if reference is not None:
        _compare_reference(outcome, reference)


def load_reference():
    with open(REFERENCE_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _compare_reference(outcome, reference):
    for op, values in outcome.observed.items():
        expected = reference.get(op, {})
        for key, value in values.items():
            if key not in expected:
                outcome.fail(op, f"no reference value for {op} {key}")
                continue
            ref = expected[key]
            if not abs(value - ref) <= REF_RTOL * abs(ref) + REF_ATOL:
                outcome.fail(op, f"{key} = {value!r}, reference {ref!r}")
