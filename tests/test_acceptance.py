"""Acceptance gate: one test per published claim, one [PASS]/[FAIL] line each.

The first three criteria share a single full-size Example 1 run (mesh
levels 1/4..1/32 against a 1/64 reference plus the decay figure run), and
criterion 4 runs the full-size Example 2, so this module takes a few
minutes of wall time.  Everything else is small and fast.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from burgersfb.assembly import (
    _EDGE_WEIGHTS,
    Discretization,
    FeField,
    boundary_quadrature,
    convection_form,
    interpolate,
    l2_norm,
)
from burgersfb.cli import main
from burgersfb.control import ControlParams
from burgersfb.evolution import (
    EvolutionConfig,
    _Trajectory,
    TrajectoryRecord,
    fit_decay_rate,
    run,
)
from burgersfb.harness import run_example1, run_example2
from burgersfb.mesh import build_unit_square_mesh, tag_boundary
from burgersfb.steady import (
    analytic_from_expression,
    manufactured_solve_spec,
    solve_steady,
)
from oracles import (
    assemble_convection_by_gradient,
    assemble_convection_by_transport,
    scipy_csc,
    trace_values,
)

NU = 0.1
C0 = 1.0
ALPHA = 0.0125

# Published errors at t=1 for h = 1/4, 1/8, 1/16, 1/32 (state table and
# control table); computed errors must land within a factor of two, the
# slack covering the choice of reference discretization.
TABLE_L2 = np.array([0.0214813, 0.0059996, 0.00157007, 0.00041675])
TABLE_H1 = np.array([0.153906, 0.0777889, 0.0383679, 0.0185611])
TABLE_CONTROL = np.array([0.13599, 0.0412476, 0.0115142, 0.00309629])


@pytest.fixture
def announce(capfd):
    def emit(criterion, label, ok, detail=""):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {criterion} {label}"
        if detail:
            line += f" | {detail}"
        with capfd.disabled():
            print("\n" + line, flush=True)
        assert ok, line

    return emit


@pytest.fixture(scope="module")
def example1(tmp_path_factory):
    out = tmp_path_factory.mktemp("example1")
    start = time.monotonic()
    result = run_example1(str(out))
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def example2(tmp_path_factory):
    out = tmp_path_factory.mktemp("example2")
    return run_example2(str(out))


def within_factor_two(computed, published) -> bool:
    computed = np.asarray(computed)
    published = np.asarray(published)
    return bool(np.all(computed <= 2.0 * published) and np.all(computed >= 0.5 * published))


def test_criterion_1_state_convergence(example1, announce):
    result, elapsed = example1
    table = result.table
    fine_l2 = table.l2_rates[-2:]
    fine_h1 = table.h1_rates[-2:]
    ok = (
        np.all(fine_l2 >= 1.8)
        and np.all(fine_h1 >= 0.95)
        and within_factor_two(table.l2_errors, TABLE_L2)
        and within_factor_two(table.h1_errors, TABLE_H1)
        and elapsed <= 1800.0
    )
    detail = (
        f"L2 rates {np.round(table.l2_rates, 3).tolist()}, "
        f"H1 rates {np.round(table.h1_rates, 3).tolist()}, "
        f"errors within 2x of published, {elapsed:.0f}s"
    )
    announce(1, "state convergence", ok, detail)


def test_criterion_2_control_convergence(example1, announce):
    result, _ = example1
    table = result.table
    ok = np.all(table.control_rates >= 1.5) and within_factor_two(
        table.control_errors, TABLE_CONTROL
    )
    announce(
        2,
        "control convergence",
        ok,
        f"rates {np.round(table.control_rates, 3).tolist()}",
    )


def test_criterion_3_exponential_decay(example1, announce):
    result, _ = example1
    ctl, unc = result.controlled, result.uncontrolled
    envelope = ctl.l2[0] * np.exp(-ALPHA * ctl.times) * 1.05
    below_envelope = bool(np.all(ctl.l2 <= envelope))
    v_drops = bool(np.all(np.diff(ctl.lyapunov)[1:] <= 0.0))
    ratio = unc.l2[-1] / ctl.l2[-1]
    ok = below_envelope and v_drops and ratio >= 5.0
    detail = (
        f"max l2/envelope {np.max(ctl.l2 / envelope):.3f}, "
        f"uncontrolled/controlled at t=5: {ratio:.0f}"
    )
    announce(3, "exponential decay", ok, detail)


def test_criterion_4_partial_boundary(example2, announce):
    ctl = example2.controlled
    pinned = np.abs(ctl.final_state.mesh.vertices[:, 0] - 1.0) < 1e-12
    final_zero = bool(np.all(ctl.final_state.values[pinned] == 0.0))

    # Walk a short trajectory in one-step runs: the pinned side must stay at
    # zero after every single solve, not just at the end.
    mesh = tag_boundary(build_unit_square_mesh(8), ((1.0, 0.0), (1.0, 1.0)))
    cfg = EvolutionConfig(
        nu=NU, k=0.01, t_end=0.01, control=ControlParams(nu=NU, c0=C0)
    )
    u_steady = interpolate(lambda x, y: -0.2 * x, mesh)
    w = interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), mesh)
    side = np.abs(mesh.vertices[:, 0] - 1.0) < 1e-12
    stepwise_zero = True
    for _ in range(5):
        w = run(w, cfg, mesh, u_steady).final_state
        stepwise_zero = stepwise_zero and bool(np.all(w.values[side] == 0.0))

    ok = (
        ctl.l2[-1] < 1e-2
        and ctl.control_l2[-1] < 1e-2
        and final_zero
        and stepwise_zero
    )
    detail = f"l2(5)={ctl.l2[-1]:.2e}, control(5)={ctl.control_l2[-1]:.2e}"
    announce(4, "partial-boundary stabilization", ok, detail)


def test_criterion_5_steady_recovery(announce):
    shear = analytic_from_expression("-0.2*x1")
    spec = manufactured_solve_spec(shear, NU, -0.1)
    errors = []
    for n in (4, 8, 16, 32):
        mesh = build_unit_square_mesh(n)
        solved = solve_steady(mesh, spec)
        exact = interpolate(shear.value, mesh)
        errors.append(l2_norm(FeField(mesh, solved.values - exact.values)))
    errors = np.asarray(errors)
    # A linear state is reproduced to solver tolerance on every mesh, so
    # each halving pair may meet the rate either directly or by both
    # errors sitting on the 1e-9 recovery floor.
    pair_ok = [
        np.log2(errors[i] / errors[i + 1]) >= 1.9
        or (errors[i] <= 1e-9 and errors[i + 1] <= 1e-9)
        for i in range(3)
    ]

    odd_ok = []
    for n, expr, mean in ((3, "-0.2*x1", -0.1), (5, "0.3*x2 - 0.1", 0.05)):
        state = analytic_from_expression(expr)
        mesh = build_unit_square_mesh(n)
        solved = solve_steady(mesh, manufactured_solve_spec(state, NU, mean))
        gap = l2_norm(FeField(mesh, solved.values - interpolate(state.value, mesh).values))
        odd_ok.append(gap <= 1e-9)

    ok = all(pair_ok) and all(odd_ok)
    announce(5, "steady-state recovery", ok, f"max gap {np.max(errors):.2e}")


def fd_jacobian_gap(residual, jacobian, point, rng, eps=1e-7):
    d = rng.standard_normal(point.shape[0])
    fd = (residual(point + eps * d) - residual(point - eps * d)) / (2.0 * eps)
    jd = jacobian(point) @ d
    return float(np.linalg.norm(fd - jd) / np.linalg.norm(jd))


def test_criterion_6_structural_properties(announce, tmp_path):
    start = time.monotonic()
    rng = np.random.default_rng(42)
    mesh = build_unit_square_mesh(8)
    bq = boundary_quadrature(mesh)
    n_sum = bq.normals.sum(axis=1)

    def boundary_integral(values_at_quadrature):
        return float(np.sum((values_at_quadrature @ _EDGE_WEIGHTS) * bq.lengths * n_sum))

    # Divergence identity on 100 random fields.
    divergence_ok = True
    for _ in range(100):
        w = FeField(mesh, rng.standard_normal(mesh.num_vertices))
        volume = convection_form(w, w, w)
        boundary = boundary_integral(trace_values(w) ** 3) / 3.0
        divergence_ok = divergence_ok and abs(volume - boundary) <= 1e-12

    # Product rule on 100 random triples.
    product_ok = True
    for _ in range(100):
        v, w, z = (
            FeField(mesh, rng.standard_normal(mesh.num_vertices)) for _ in range(3)
        )
        lhs = convection_form(v, w, z) + convection_form(v, z, w)
        grad_term = float(
            z.values @ (assemble_convection_by_gradient(v) @ w.values)
        )
        rhs = boundary_integral(trace_values(v) * trace_values(w) * trace_values(z))
        product_ok = product_ok and abs(lhs - (rhs - grad_term)) <= 1e-12

    def pattern_stiffness(mesh):
        disc = Discretization(mesh)
        return scipy_csc(disc.matrix(disc.stiffness))

    kernel_ok = all(
        np.max(np.abs(pattern_stiffness(build_unit_square_mesh(n)) @ np.ones((n + 1) ** 2)))
        <= 1e-13
        for n in (4, 8, 16)
    )

    # Steady Newton Jacobian against central differences.
    small = build_unit_square_mesh(4)
    stiffness = pattern_stiffness(small)

    def steady_residual_at(values):
        field = FeField(small, values)
        return NU * (stiffness @ values) + assemble_convection_by_transport(field) @ values

    def steady_jacobian_at(values):
        field = FeField(small, values)
        return (
            NU * stiffness
            + assemble_convection_by_transport(field)
            + assemble_convection_by_gradient(field)
        )

    point = 0.1 * rng.standard_normal(small.num_vertices)
    steady_gap = fd_jacobian_gap(steady_residual_at, steady_jacobian_at, point, rng)

    # Implicit-step Newton Jacobian, feedback terms included, from the time
    # loop's own residual and Jacobian kernels.
    cfg = EvolutionConfig(nu=NU, k=0.01, t_end=0.1, control=ControlParams(nu=NU, c0=C0))
    trajectory = _Trajectory(small, interpolate(lambda x, y: -0.2 * x, small), cfg)
    w_prev = 0.1 * rng.standard_normal(small.num_vertices)
    trajectory.record(0, w_prev, 0)

    def step_residual_at(values):
        return trajectory.residual(values)[0]

    def step_jacobian_at(values):
        return trajectory.disc.matrix(trajectory.jacobian(*trajectory.residual(values)[1]))

    step_gap = fd_jacobian_gap(step_residual_at, step_jacobian_at, w_prev, rng)
    jacobians_ok = steady_gap <= 1e-6 and step_gap <= 1e-6

    zero = FeField(small, np.zeros(small.num_vertices))
    record = run(zero, cfg, small, interpolate(lambda x, y: -0.2 * x, small))
    equilibrium_ok = bool(
        np.all(record.l2 == 0.0)
        and np.all(record.h1_semi == 0.0)
        and np.all(record.control_l2 == 0.0)
    )

    # Byte-identical CSVs across repeated runs of every writer.
    deterministic = True
    tiny = dict(levels=(2, 4), reference=8, k=0.01, t_eval=0.05, figure_n=4, t_end=0.1)
    dirs = [tmp_path / f"repeat{i}" for i in range(2)]
    for out in dirs:
        run_example1(str(out / "ex1"), **tiny)
        run_example2(str(out / "ex2"), n=4, k=0.01, t_end=0.1)
        config = {
            "domain": {"n": 4},
            "physics": {"nu": NU},
            "steady": {"u_inf": "-0.2*x1", "mean": -0.1},
            "output": {"dir": str(out / "steady")},
        }
        config_path = out / "steady.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()):
            main(["steady", "--config", str(config_path)])
    names = [
        "ex1/example1_controlled.csv",
        "ex1/example1_uncontrolled.csv",
        "ex1/example1_control.csv",
        "ex1/rates_state.csv",
        "ex1/rates_control.csv",
        "ex2/example2_controlled.csv",
        "ex2/example2_uncontrolled.csv",
        "ex2/example2_control.csv",
        "steady/steady.csv",
    ]
    for name in names:
        first = (dirs[0] / name).read_bytes()
        second = (dirs[1] / name).read_bytes()
        deterministic = deterministic and first == second

    elapsed = time.monotonic() - start
    ok = (
        divergence_ok
        and product_ok
        and kernel_ok
        and jacobians_ok
        and equilibrium_ok
        and deterministic
        and elapsed <= 120.0
    )
    detail = (
        f"jacobian gaps {steady_gap:.1e}/{step_gap:.1e}, {elapsed:.0f}s"
    )
    announce(6, "structural properties", ok, detail)


def test_criterion_7_decay_fit_oracle(announce):
    times = 0.01 * np.arange(301)
    l2 = np.exp(-2.0 * times)
    mesh = build_unit_square_mesh(1)
    record = TrajectoryRecord(
        times=times,
        l2=l2,
        h1_semi=l2.copy(),
        lyapunov=0.5 * l2**2,
        control_l2=np.zeros(times.shape[0]),
        newton_iters=np.zeros(times.shape[0], dtype=int),
        final_state=FeField(mesh, np.zeros(mesh.num_vertices)),
    )
    gap = abs(fit_decay_rate(record, window=(0.0, 3.0)) - 2.0)
    announce(7, "decay-fit oracle", gap <= 1e-10, f"fit gap {gap:.1e}")
