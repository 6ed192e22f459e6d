import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from burgersfb.assembly import (
    Discretization,
    FeField,
    assemble_mass,
    interpolate,
    l2_norm,
)
from burgersfb import evolution
from burgersfb.control import ACTIVE_TAGS, ControlParams
from burgersfb.evolution import (
    EvolutionConfig,
    TrajectoryRecord,
    decay_rate_bound,
    fit_decay_rate,
    lyapunov_decay_coefficient,
    run,
    write_csv,
)
from burgersfb.mesh import ConfigError, build_unit_square_mesh, tag_boundary
from burgersfb.sparse import NonconvergenceError, SingularMatrixError
from oracles import (
    apply_dirichlet,
    assemble_boundary_mass,
    assemble_convection_by_gradient,
    assemble_convection_by_transport,
    assemble_mass_by_element,
    assemble_stiffness_by_element,
    boundary_cubic_jacobian,
    boundary_cubic_residual,
    control_boundary_l2,
    solve_general,
    trace_values,
)

NU = 0.1
C0 = 1.0
RIGHT_SIDE = ((1.0, 0.0), (1.0, 1.0))


def config(k=0.01, t_end=0.1, **kwargs):
    kwargs.setdefault("control", ControlParams(nu=NU, c0=C0))
    return EvolutionConfig(nu=NU, k=k, t_end=t_end, **kwargs)


def steady_shear(mesh):
    return interpolate(lambda x, y: -0.2 * x, mesh)


def feedback_matrix(u_steady, control):
    """Boundary mass matrix weighted by the linear feedback coefficient."""
    coeff = control.c0 + control.nu + 2.0 * np.abs(trace_values(u_steady, ACTIVE_TAGS))
    return assemble_boundary_mass(u_steady.mesh, coeff, ACTIVE_TAGS)


# the start of step n + 1 combines w_n, w_(n-1), ... with the row for the states known
EXTRAPOLATION_ROWS = ((1,), (2, -1), (3, -3, 1), (4, -6, 4, -1))


def extrapolated_start(states):
    """The polynomial extrapolation through ``states`` (newest first, at most four)."""
    return sum(c * s for c, s in zip(EXTRAPOLATION_ROWS[len(states) - 1], states))


def one_step(w, cfg, mesh, u_steady):
    """The state after one step of ``run()`` from ``w``, on fresh operators."""
    return run(w, cfg, mesh, u_steady).final_state


def spy_on_kernels(patch):
    """Record ``(w_prev, start, new state)`` of every step the trajectory takes."""
    calls = []
    for name in ("newton", "picard"):
        def spy(self, start, _step=getattr(evolution._Trajectory, name)):
            w_prev = self.w.copy()
            result = _step(self, start)
            calls.append((w_prev, start.copy(), result[0].copy()))
            return result

        patch.setattr(evolution._Trajectory, name, spy)
    return calls


def initial_bump(mesh):
    return interpolate(
        lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y) + 0.2 * x, mesh
    )


def synthetic_record(rate=2.0, n=200, k=0.01):
    mesh = build_unit_square_mesh(1)
    times = k * np.arange(n + 1)
    l2 = np.exp(-rate * times)
    return TrajectoryRecord(
        times=times,
        l2=l2,
        h1_semi=l2.copy(),
        lyapunov=0.5 * l2**2,
        control_l2=np.zeros(n + 1),
        newton_iters=np.zeros(n + 1, dtype=int),
        final_state=FeField(mesh, np.zeros(mesh.num_vertices)),
    )


def test_config_validation():
    with pytest.raises(ValueError):
        EvolutionConfig(nu=NU, k=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        EvolutionConfig(nu=NU, k=1.5, t_end=3.0)  # step must stay below 1
    with pytest.raises(ValueError):
        EvolutionConfig(nu=NU, k=0.5, t_end=0.25)
    with pytest.raises(ConfigError, match="t_end must be a positive whole number of steps"):
        EvolutionConfig(nu=NU, k=0.03, t_end=0.1)
    with pytest.raises(ConfigError) as caught:
        EvolutionConfig(nu=0.0, k=0.1, t_end=1.0)
    assert (caught.value.field, caught.value.value) == ("nu", 0.0)
    with pytest.raises(ValueError):
        EvolutionConfig(nu=NU, k=0.1, t_end=1.0, nonlinear="broken")
    with pytest.raises(ValueError):
        EvolutionConfig(nu=NU, k=0.1, t_end=1.0, nonlinear="Chord")
    assert EvolutionConfig(nu=NU, k=0.1, t_end=1.0).nonlinear == "chord"
    for solver in ("chord", "newton", "picard"):
        EvolutionConfig(nu=NU, k=0.1, t_end=1.0, nonlinear=solver)
    with pytest.raises(ValueError):
        EvolutionConfig(nu=NU, k=0.1, t_end=1.0, control=ControlParams(nu=0.2, c0=1.0))


def test_equilibrium_is_invariant():
    mesh = build_unit_square_mesh(4)
    record = run(
        FeField(mesh, np.zeros(mesh.num_vertices)),
        config(),
        mesh,
        steady_shear(mesh),
    )
    assert np.all(record.l2 == 0.0)
    assert np.all(record.h1_semi == 0.0)
    assert np.all(record.lyapunov == 0.0)
    assert np.all(record.control_l2 == 0.0)


def test_step_satisfies_weak_residual():
    # the converged step must zero the backward Euler residual assembled
    # here from public pieces only
    mesh = build_unit_square_mesh(4)
    u_steady = steady_shear(mesh)
    cfg = config(k=0.01, t_end=0.01)
    w_prev = initial_bump(mesh)
    w = one_step(w_prev, cfg, mesh, u_steady)

    mass = assemble_mass(mesh)
    disc = Discretization(mesh)
    stiffness = disc.matrix(disc.stiffness)
    linear = feedback_matrix(u_steady, cfg.control)
    residual = (
        (mass @ (w.values - w_prev.values)) / cfg.k
        + NU * (stiffness @ w.values)
        + assemble_convection_by_transport(u_steady) @ w.values
        + assemble_convection_by_gradient(u_steady) @ w.values
        + assemble_convection_by_transport(w) @ w.values
        + linear @ w.values
        + (2.0 / (9.0 * C0)) * boundary_cubic_residual(w, ACTIVE_TAGS)
    )
    assert np.linalg.norm(residual) <= 1e-9


def test_step_first_order_increment():
    mesh = build_unit_square_mesh(4)
    u_steady = steady_shear(mesh)
    w0 = initial_bump(mesh)
    increments = []
    for k in (0.002, 0.001):
        w1 = one_step(w0, config(k=k, t_end=k), mesh, u_steady)
        increments.append(l2_norm(FeField(mesh, w1.values - w0.values)))
    ratio = increments[0] / increments[1]
    assert 1.8 <= ratio <= 2.2


def test_newton_nonconvergence_reports_history(monkeypatch):
    monkeypatch.setattr(evolution, "_NEWTON_TOL", 1e-300)
    monkeypatch.setattr(evolution, "_NEWTON_MAX", 2)
    mesh = build_unit_square_mesh(2)
    cfg = config(k=0.01, t_end=0.01)
    with pytest.raises(NonconvergenceError) as info:
        run(initial_bump(mesh), cfg, mesh, steady_shear(mesh))
    assert len(info.value.residual_history) >= 1


@pytest.mark.parametrize("nonlinear", ["chord", "newton", "picard"])
def test_step_ignores_pinned_values_of_previous_state(nonlinear):
    # a run from a state equals the run from that state with its
    # Dirichlet values cleared, for every solver
    mesh = tag_boundary(build_unit_square_mesh(4), RIGHT_SIDE)
    u_steady = steady_shear(mesh)
    cfg = config(k=0.01, t_end=0.01, nonlinear=nonlinear)
    raw = initial_bump(mesh)
    cleared = raw.values.copy()
    cleared[Discretization(mesh).dirichlet] = 0.0
    assert np.any(cleared != raw.values)
    steps = [one_step(w, cfg, mesh, u_steady).values for w in (raw, FeField(mesh, cleared))]
    assert np.array_equal(steps[0], steps[1])


def reference_step(w_prev, cfg, mesh, u_steady, start=None):
    """One backward Euler step built only from the element assemblers.

    Newton starts from ``start`` (``w_prev`` when omitted)."""
    dofs = Discretization(mesh).dirichlet
    mass = assemble_mass_by_element(mesh)
    constant = (
        cfg.nu * assemble_stiffness_by_element(mesh)
        + assemble_convection_by_transport(u_steady)
        + assemble_convection_by_gradient(u_steady)
    )
    scale, tags = 0.0, None
    if cfg.control is not None:
        constant = constant + feedback_matrix(u_steady, cfg.control)
        scale, tags = 2.0 / (9.0 * cfg.control.c0), ACTIVE_TAGS
    w = (w_prev if start is None else start).copy()
    w[dofs] = 0.0
    if cfg.nonlinear == "picard":
        field = FeField(mesh, w)
        system = mass / cfg.k + constant + assemble_convection_by_transport(field)
        if scale:
            cubic = scale * trace_values(field, tags) ** 2
            system = system + assemble_boundary_mass(mesh, cubic, tags)
        rhs = (mass @ w) / cfg.k
        rhs[dofs] = 0.0
        return solve_general(apply_dirichlet(system, dofs), rhs), 1
    for iteration in range(evolution._NEWTON_MAX + 1):
        field = FeField(mesh, w)
        transport = assemble_convection_by_transport(field)
        residual = (mass @ (w - w_prev)) / cfg.k + constant @ w + transport @ w
        jacobian = mass / cfg.k + constant + transport
        jacobian = jacobian + assemble_convection_by_gradient(field)
        if scale:
            residual += scale * boundary_cubic_residual(field, tags)
            jacobian = jacobian + scale * boundary_cubic_jacobian(field, tags)
        residual[dofs] = w[dofs]
        if np.linalg.norm(residual) <= evolution._NEWTON_TOL:
            return w, iteration
        w = w + solve_general(apply_dirichlet(jacobian, dofs), -residual)
    raise AssertionError("reference Newton did not converge")


@pytest.mark.parametrize("nonlinear", ["newton", "picard"])
@pytest.mark.parametrize(
    "controlled, pinned", [(True, False), (False, False), (True, True), (False, True)]
)
def test_steps_match_element_assembly_reference(nonlinear, controlled, pinned):
    mesh = build_unit_square_mesh(4)
    if pinned:
        mesh = tag_boundary(mesh, RIGHT_SIDE)
    u_steady = steady_shear(mesh)
    control = ControlParams(nu=NU, c0=C0) if controlled else None
    cfg = config(k=0.01, t_end=0.06, nonlinear=nonlinear, control=control)
    w0 = initial_bump(mesh)
    record = run(w0, cfg, mesh, u_steady)
    # run() starts from w0 with the Dirichlet values cleared
    start = w0.values.copy()
    start[Discretization(mesh).dirichlet] = 0.0
    w, states = start, []
    for n in range(1, 7):
        # run() starts Newton from the extrapolation through the last four states
        states = [w] + states[:3]
        first = None if nonlinear == "picard" else extrapolated_start(states)
        w, count = reference_step(w, cfg, mesh, u_steady, first)
        assert record.newton_iters[n] == count
    assert np.max(np.abs(record.final_state.values - w)) <= 1e-12
    if controlled:
        expected = control_boundary_l2(record.final_state, u_steady, control)
        assert record.control_l2[-1] == pytest.approx(expected, rel=1e-14, abs=0.0)
        expected = control_boundary_l2(FeField(mesh, start), u_steady, control)
        assert record.control_l2[0] == pytest.approx(expected, rel=1e-14, abs=0.0)


def reference_residual(w, w_prev, cfg, mesh, u_steady):
    """Backward Euler step residual from the element assemblers."""
    field = FeField(mesh, w)
    residual = (
        (assemble_mass_by_element(mesh) @ (w - w_prev)) / cfg.k
        + cfg.nu * (assemble_stiffness_by_element(mesh) @ w)
        + assemble_convection_by_transport(u_steady) @ w
        + assemble_convection_by_gradient(u_steady) @ w
        + assemble_convection_by_transport(field) @ w
    )
    if cfg.control is not None:
        residual += feedback_matrix(u_steady, cfg.control) @ w
        residual += (2.0 / (9.0 * cfg.control.c0)) * boundary_cubic_residual(field, ACTIVE_TAGS)
    dofs = Discretization(mesh).dirichlet
    residual[dofs] = w[dofs]
    return residual


@settings(derandomize=True, deadline=None, max_examples=50)
@given(
    n=st.integers(2, 6),
    k=st.floats(1e-3, 5e-2),
    amplitude=st.floats(0.1, 2.0),
    pinned=st.booleans(),
    controlled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_chord_matches_full_newton(jittered_mesh, n, k, amplitude, pinned, controlled, seed):
    mesh = jittered_mesh(n, pinned, np.random.default_rng(seed))
    u_steady = steady_shear(mesh)
    w0 = FeField(mesh, amplitude * initial_bump(mesh).values)
    control = ControlParams(nu=NU, c0=C0) if controlled else None
    states, factorizations = {}, {}
    for solver in ("chord", "newton"):
        cfg = config(k=k, t_end=5 * k, nonlinear=solver, control=control)
        with pytest.MonkeyPatch.context() as patch:
            calls = spy_on_kernels(patch)
            record = run(w0, cfg, mesh, u_steady)
        assert len(calls) == 5
        if solver == "chord":
            for w_prev, _, w in calls:
                residual = reference_residual(w, w_prev, cfg, mesh, u_steady)
                # the loop's own residual is <= _NEWTON_TOL; the element
                # assembly differs from it by rounding only
                assert np.linalg.norm(residual) <= evolution._NEWTON_TOL + 1e-13
        states[solver] = record.final_state.values
        factorizations[solver] = record.factorizations
    assert np.max(np.abs(states["chord"] - states["newton"])) <= 1e-8
    assert 1 <= factorizations["chord"] <= factorizations["newton"]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n=st.integers(1, 6),
    k=st.floats(1e-3, 5e-2),
    pinned=st.booleans(),
    controlled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_eliminated_step_jacobian_matches_finite_differences(
    jittered_mesh, n, k, pinned, controlled, seed
):
    # the matrix a Newton step factors, against central differences of its residual
    rng = np.random.default_rng(seed)
    mesh = jittered_mesh(n, pinned, rng)
    control = ControlParams(nu=NU, c0=C0) if controlled else None
    cfg = config(k=k, t_end=k, control=control)
    trajectory = evolution._Trajectory(mesh, steady_shear(mesh), cfg)
    dofs = trajectory.disc.dirichlet
    w_prev, point, direction = rng.standard_normal((3, mesh.num_vertices))
    trajectory.record(0, w_prev, 0)
    # Newton iterates and corrections vanish at the pinned vertices, which is
    # why elimination may clear the pinned columns
    point[dofs] = direction[dofs] = 0.0

    def residual_at(w):
        return trajectory.residual(w)[0]

    jacobian = trajectory.jacobian(*trajectory.residual(point)[1])
    eps = 1e-7
    fd = (residual_at(point + eps * direction) - residual_at(point - eps * direction)) / (2 * eps)
    jd = trajectory.disc.matrix(jacobian) @ direction
    # criterion 6's bound
    assert np.linalg.norm(fd - jd) <= 1e-6 * np.linalg.norm(jd)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n=st.integers(2, 6),
    k=st.floats(1e-3, 5e-2),
    amplitude=st.floats(0.01, 0.5),
    pinned=st.booleans(),
    controlled=st.booleans(),
    solver=st.sampled_from(["chord", "newton"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_extrapolated_run_matches_chained_steps(
    jittered_mesh, n, k, amplitude, pinned, controlled, solver, seed
):
    # run() starts Newton from the extrapolation through the last four states;
    # a one-step run has no history and starts from w_n.  Both converge to the same step.
    mesh = jittered_mesh(n, pinned, np.random.default_rng(seed))
    u_steady = steady_shear(mesh)
    control = ControlParams(nu=NU, c0=C0) if controlled else None
    cfg = config(k=k, t_end=6 * k, nonlinear=solver, control=control)
    w0 = FeField(mesh, amplitude * initial_bump(mesh).values)
    record = run(w0, cfg, mesh, u_steady)
    w = w0
    for _ in range(6):
        w = one_step(w, replace(cfg, t_end=k), mesh, u_steady)
    assert np.max(np.abs(record.final_state.values - w.values)) <= 1e-8
    assert np.all(record.final_state.values[Discretization(mesh).dirichlet] == 0.0)
    if controlled:
        # the paper's Lyapunov claim at the discrete level: V_n <= V_{n-1}
        assert np.all(np.diff(record.lyapunov) <= 0.0)


@pytest.mark.parametrize("solver", ["chord", "newton"])
def test_jacobian_data_built_only_on_refactor(monkeypatch, solver):
    # the residual is matrix-free: Jacobian data is built once per
    # factorization, and no sparse matrix is built per iteration
    calls = {"jacobian": [], "matrix": []}
    for name in calls:
        def counted(self, *args, _name=name, _original=getattr(Discretization, name), **kw):
            calls[_name].append(args)
            return _original(self, *args, **kw)

        monkeypatch.setattr(Discretization, name, counted)
    mesh = build_unit_square_mesh(4)
    u_steady = steady_shear(mesh)
    record = run(initial_bump(mesh), config(nonlinear=solver), mesh, u_steady)
    # the trajectory's linearization at the steady state comes first
    steady_vp = Discretization(mesh).gather(u_steady.values)[0]
    assert np.array_equal(calls["jacobian"][0][0], steady_vp)
    assert len(calls["jacobian"]) - 1 == record.factorizations
    # mass, stiffness and step matrix, then one Jacobian per factorization
    assert len(calls["matrix"]) == 3 + record.factorizations
    if solver == "chord":
        assert len(calls["matrix"]) < record.newton_iters.sum()


def test_run_counts_factorizations():
    mesh = build_unit_square_mesh(4)
    u_steady = steady_shear(mesh)
    w0 = initial_bump(mesh)
    counts = {}
    steps = 10
    for solver in ("chord", "newton", "picard"):
        record = run(w0, config(k=0.01, t_end=0.1, nonlinear=solver), mesh, u_steady)
        counts[solver] = record.factorizations
        if solver == "newton":
            assert record.factorizations == record.newton_iters.sum()
        if solver != "picard":
            # one solve per Newton iteration
            assert record.solves == record.newton_iters.sum()
    # Picard refines on a held factorization and refactors only when that fails
    assert 1 <= counts["picard"] < steps <= record.solves
    assert 1 <= counts["chord"] < steps


@pytest.mark.parametrize("nonlinear", ["chord", "newton", "picard"])
def test_run_starts_each_step_from_the_extrapolated_trajectory(monkeypatch, nonlinear):
    mesh = tag_boundary(build_unit_square_mesh(4), RIGHT_SIDE)
    u_steady = steady_shear(mesh)
    cfg = config(k=0.01, t_end=0.06, nonlinear=nonlinear)
    calls = spy_on_kernels(monkeypatch)
    record = run(initial_bump(mesh), cfg, mesh, u_steady)
    assert len(calls) == 6
    states = [calls[0][0]] + [new for _, _, new in calls]
    scale = np.max(np.abs(states[0]))
    for n, (w_prev, start, _) in enumerate(calls):
        assert np.array_equal(w_prev, states[n])
        # w_0, 2 w_1 - w_0, 3 w_2 - 3 w_1 + w_0, then the four-point row
        expected = extrapolated_start(states[n::-1][:4])
        assert np.max(np.abs(start - expected)) <= 1e-14 * scale
    assert np.array_equal(record.final_state.values, states[-1])


@pytest.mark.parametrize("nonlinear", ["chord", "newton"])
def test_run_from_rest_needs_no_iteration(nonlinear):
    mesh = tag_boundary(build_unit_square_mesh(4), RIGHT_SIDE)
    w0 = FeField(mesh, np.zeros(mesh.num_vertices))
    record = run(w0, config(nonlinear=nonlinear), mesh, steady_shear(mesh))
    # zero is a steady state, so every extrapolated start already satisfies the step
    assert np.all(record.newton_iters == 0)
    assert record.solves == 0 and record.factorizations == 0
    stream = io.StringIO()
    record.to_csv(stream)
    rows = stream.getvalue().splitlines()[1:]
    assert len(rows) == 11 and all(row.rsplit(",", 1)[1] == "0" for row in rows)


def test_run_nonconvergence_names_step_and_time():
    mesh = build_unit_square_mesh(4)
    cfg = config(k=0.5, t_end=1.0)
    w0 = interpolate(lambda x, y: 1e3 * x, mesh)
    with pytest.raises(NonconvergenceError) as info:
        run(w0, cfg, mesh, steady_shear(mesh))
    assert info.value.step == 1
    assert info.value.time == 0.5
    assert "step 1 (t = 0.5)" in str(info.value)
    assert len(info.value.residual_history) == evolution._NEWTON_MAX + 1
    # the error keeps what the run computed: step 0's row and state, and the failed
    # step's factorizations and solves
    record = info.value.record
    assert record.times.tolist() == [0.0] and record.newton_iters.tolist() == [0]
    assert record.final_state.mesh is mesh
    assert np.array_equal(record.final_state.values, w0.values)
    assert record.l2[0] == np.sqrt(w0.values @ (assemble_mass(mesh) @ w0.values))
    assert record.factorizations >= 1 and record.solves == evolution._NEWTON_MAX


@pytest.mark.parametrize("nonlinear", ["chord", "picard"])
def test_run_singular_solve_names_step_and_time(monkeypatch, nonlinear):
    # a step matrix factored as zero fails in dgbtrf, and run() names the step and
    # its time as it does for a nonconvergence
    factor = Discretization.factor
    monkeypatch.setattr(Discretization, "factor", lambda self, data: factor(self, 0.0 * data))
    mesh = build_unit_square_mesh(4)
    cfg = config(k=0.25, t_end=1.0, nonlinear=nonlinear)
    with pytest.raises(SingularMatrixError, match="factorization failed") as info:
        run(initial_bump(mesh), cfg, mesh, steady_shear(mesh))
    assert (info.value.step, info.value.time) == (1, 0.25)
    assert str(info.value).startswith("step 1 (t = 0.25): ")
    assert info.value.record.times.tolist() == [0.0]


@pytest.mark.parametrize("nonlinear", ["newton", "picard"])
def test_run_names_the_step_and_time_of_a_non_finite_diagnostic(monkeypatch, nonlinear):
    # the third step's state overflows the energy: run() adds the step and its time to
    # the record's message, as it does for a failed solve
    method = getattr(evolution._Trajectory, nonlinear)
    steps = []

    def overflowing(self, start):
        steps.append(start)
        w, *rest = method(self, start)
        return (1e200 * w if len(steps) == 3 else w, *rest)

    monkeypatch.setattr(evolution._Trajectory, nonlinear, overflowing)
    mesh = build_unit_square_mesh(4)
    cfg = config(k=0.01, t_end=0.1, control=None, nonlinear=nonlinear)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as info:
        run(initial_bump(mesh), cfg, mesh, steady_shear(mesh))
    assert (info.value.step, info.value.time) == (3, 3 * cfg.k)
    assert str(info.value) == "step 3 (t = 0.03): l2 is not finite"
    # the record stops at the last good step, not at the overflowed one
    clean = run(initial_bump(mesh), replace(cfg, t_end=2 * cfg.k), mesh, steady_shear(mesh))
    record = info.value.record
    for name in ("times", "l2", "h1_semi", "lyapunov", "control_l2", "newton_iters"):
        assert np.array_equal(getattr(record, name), getattr(clean, name)), name
    assert np.array_equal(record.final_state.values, clean.final_state.values)


def test_run_error_at_step_zero_keeps_an_empty_record():
    mesh = build_unit_square_mesh(4)
    cfg = config(k=0.5, t_end=1.0, control=ControlParams(nu=NU, c0=1e308))
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError) as info:
        run(initial_bump(mesh), cfg, mesh, steady_shear(mesh))
    assert info.value.step == 0
    assert info.value.record.times.size == 0 and info.value.record.final_state is None


@pytest.mark.parametrize("pinned", [False, True])
def test_picard_refactors_when_the_held_factor_is_far(pinned):
    # a held factor of the mass matrix, far from mass / k: the step spends its
    # refinement solves, then factors its own matrix and solves as a first step does
    mesh = build_unit_square_mesh(4)
    if pinned:
        mesh = tag_boundary(mesh, RIGHT_SIDE)
    u_steady = steady_shear(mesh)
    cfg = config(k=0.01, t_end=0.01, nonlinear="picard")
    w0 = initial_bump(mesh)
    expected = one_step(w0, cfg, mesh, u_steady)
    trajectory = evolution._Trajectory(mesh, u_steady, cfg)
    disc = trajectory.disc
    distant = disc.mass.copy()
    disc.eliminate(distant)
    held = trajectory.factor = disc.factor(distant)
    w = w0.values.copy()
    w[disc.dirichlet] = 0.0
    trajectory.record(0, w, 0)
    w1 = trajectory.picard(w)[0]
    result = trajectory.result
    assert (result.factorizations, result.solves) == (1, evolution._PICARD_SOLVES + 1)
    assert trajectory.factor is not held
    assert np.array_equal(w1, expected.values)
    # the next step refines on the new factor
    trajectory.record(1, w1, 1)
    trajectory.picard(w1)
    assert result.factorizations == 1 and result.solves > evolution._PICARD_SOLVES + 1


def test_picard_close_to_newton():
    mesh = build_unit_square_mesh(4)
    u_steady = steady_shear(mesh)
    w0 = initial_bump(mesh)
    gaps = {}
    for k in (0.002, 0.001):
        states = {}
        for scheme in ("newton", "picard"):
            cfg = config(k=k, t_end=10 * k, nonlinear=scheme)
            record = run(w0, cfg, mesh, u_steady)
            states[scheme] = record.final_state.values
        gaps[k] = np.linalg.norm(states["newton"] - states["picard"])
    # O(k) agreement: the gap halves with the step, up to slack
    assert gaps[0.001] <= 0.75 * gaps[0.002]
    assert gaps[0.002] <= 1.0e-2


def test_controlled_run_decays_monotonically():
    mesh = build_unit_square_mesh(8)
    record = run(initial_bump(mesh), config(t_end=0.5), mesh, steady_shear(mesh))
    assert np.all(np.diff(record.l2[1:]) < 0.0)
    assert np.all(np.diff(record.lyapunov) <= 1e-12)
    assert np.all(record.newton_iters[1:] >= 1)
    assert np.allclose(np.diff(record.times), 0.01, atol=1e-15)


def test_uncontrolled_run_keeps_zero_control_norms():
    mesh = build_unit_square_mesh(4)
    cfg = config(control=None)
    record = run(initial_bump(mesh), cfg, mesh, steady_shear(mesh))
    assert np.all(record.control_l2 == 0.0)


def test_dirichlet_rows_stay_zero(monkeypatch):
    mesh = tag_boundary(build_unit_square_mesh(4), RIGHT_SIDE)
    cfg = config(k=0.01, t_end=0.05)
    w0 = interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), mesh)
    on_right = np.isclose(mesh.vertices[:, 0], 1.0)
    assert np.any(w0.values[on_right] != 0.0)
    calls = spy_on_kernels(monkeypatch)
    run(w0, cfg, mesh, steady_shear(mesh))
    # every step of the run, not just its end
    assert len(calls) == 5
    for _, _, w in calls:
        assert np.all(w[on_right] == 0.0)


def test_run_input_validation():
    mesh = build_unit_square_mesh(2)
    other = build_unit_square_mesh(2)
    w0 = FeField(other, np.zeros(other.num_vertices))
    with pytest.raises(ValueError, match="initial state"):
        run(w0, config(), mesh, steady_shear(mesh))
    with pytest.raises(ValueError, match="steady field"):
        run(FeField(mesh, np.zeros(mesh.num_vertices)), config(), mesh, steady_shear(other))


def test_lyapunov_values(unit4):
    # the record's energy 0.5 * integral of w^2, read at the initial state
    def lyapunov(w):
        record = run(w, config(k=0.01, t_end=0.01), unit4, steady_shear(unit4))
        return record.lyapunov[0]

    zero = FeField(unit4, np.zeros(unit4.num_vertices))
    assert lyapunov(zero) == 0.0
    one = FeField(unit4, np.ones(unit4.num_vertices))
    assert lyapunov(one) == pytest.approx(0.5, abs=1e-13)
    tripled = FeField(unit4, 3.0 * one.values)
    assert lyapunov(tripled) == pytest.approx(9.0 * lyapunov(one), abs=1e-12)


def test_csv_roundtrip_and_determinism():
    record = synthetic_record(n=5)
    first, second = io.StringIO(), io.StringIO()
    record.to_csv(first)
    record.to_csv(second)
    assert first.getvalue() == second.getvalue()
    lines = first.getvalue().splitlines()
    assert lines[0] == "time,l2,h1semi,lyapunov,control_l2,newton_iters"
    assert len(lines) == 7
    assert lines[1].split(",")[0] == "0"


def test_csv_writer_bytes_and_path_forms(tmp_path):
    # a float to 17 significant digits, an int as itself, None as an empty cell,
    # ASCII lines ending in "\n"; a str path and an os.PathLike write the same bytes
    columns = (np.array([0.1, 2.5]), np.array([3, 0]), [None, 1e-20])
    expected = b"a,b,c\n0.10000000000000001,3,\n2.5,0,9.9999999999999995e-21\n"
    write_csv(str(tmp_path / "str.csv"), "a,b,c", columns)
    write_csv(tmp_path / "path.csv", "a,b,c", columns)
    assert (tmp_path / "str.csv").read_bytes() == expected
    assert (tmp_path / "path.csv").read_bytes() == expected
    record = synthetic_record(n=5)
    stream = io.StringIO()
    record.to_csv(stream)
    record.to_csv(tmp_path / "record.csv")
    assert (tmp_path / "record.csv").read_bytes() == stream.getvalue().encode("ascii")
    with pytest.raises(ValueError):
        write_csv(io.StringIO(), "a,b", (np.zeros(2), np.zeros(3)))


def test_predicted_decay_constants():
    assert decay_rate_bound(NU, C0, 2.0) == pytest.approx(0.0125, abs=1e-15)
    assert lyapunov_decay_coefficient(NU, C0, 2.0) == pytest.approx(0.0875, abs=1e-15)


def test_fit_decay_rate_synthetic():
    rate = fit_decay_rate(synthetic_record(rate=2.0), window=(0.0, 2.0))
    assert type(rate) is float
    assert rate == pytest.approx(2.0, abs=1e-10)


def test_fit_decay_rate_constant_series():
    record = synthetic_record(rate=0.0)
    assert fit_decay_rate(record, window=(0.0, 2.0)) == pytest.approx(0.0, abs=1e-12)


def test_fit_decay_rate_window_validation():
    record = synthetic_record(n=20)
    with pytest.raises(ValueError):
        fit_decay_rate(record, window=(0.0, 0.05))  # fewer than 10 samples
    with pytest.raises(ValueError):
        fit_decay_rate(record, window=(1.0, 0.0))

    bad = synthetic_record(n=20)
    bad.l2[5] = 0.0
    with pytest.raises(ValueError):
        fit_decay_rate(bad, window=(0.0, 0.2))
