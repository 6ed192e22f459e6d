"""Convergence-study plumbing and the packaged experiment drivers.

The studies here run on deliberately tiny meshes and horizons; the
full-size experiment checks live in the acceptance suite.
"""

from dataclasses import replace

import numpy as np
import pytest

from burgersfb.assembly import (
    NonNestedMeshError,
    elliptic_projection,
    h1_seminorm,
    interpolate,
    l2_norm,
)
from burgersfb.control import ControlParams
from burgersfb.evolution import EvolutionConfig
from burgersfb.harness import (
    ProblemConfig,
    RateTable,
    Study,
    StudyConfig,
    compute_rates,
    example1_problem,
    example2_problem,
    run_example1,
    run_example2,
)
from burgersfb.mesh import ConfigError
from burgersfb.steady import SteadySpec, analytic_from_expression


def test_compute_rates_published_state_row():
    # First L2 error pair of the reference rate table.
    rates = compute_rates([0.0214813, 0.0059996], [0.25, 0.125])
    assert rates.shape == (1,)
    assert abs(rates[0] - 1.8401) < 5e-4


def test_compute_rates_published_control_row():
    rates = compute_rates([0.13599, 0.0412476], [0.25, 0.125])
    assert abs(rates[0] - 1.7211) < 5e-4


def test_compute_rates_exact_quartering():
    rates = compute_rates([1.0, 0.25, 0.0625], [0.4, 0.2, 0.1])
    assert np.array_equal(rates, [2.0, 2.0])


def test_compute_rates_rejects_bad_input():
    with pytest.raises(ValueError):
        compute_rates([1.0], [0.5])
    with pytest.raises(ValueError):
        compute_rates([1.0, 0.5], [0.5])
    with pytest.raises(ValueError):
        compute_rates([1.0, 0.0], [0.5, 0.25])
    with pytest.raises(ValueError):
        compute_rates([1.0, 0.5], [0.5, 0.3])


def test_problem_config_validation():
    steady = SteadySpec(nu=0.1, u_steady=analytic_from_expression("-0.2*x1"))
    w0 = analytic_from_expression("x1")
    nan = float("nan")
    for nu, c0 in ((0.0, 1.0), (0.1, -1.0), (nan, 1.0), (0.1, nan)):
        with pytest.raises(ConfigError, match="must be positive"):
            ProblemConfig(nu=nu, c0=c0, steady=steady, w0=w0)
    with pytest.raises(ConfigError, match="coefficient_source must be one of"):
        ProblemConfig(nu=0.1, c0=1.0, steady=steady, w0=w0, coefficient_source="discrte")
    with pytest.raises(ConfigError, match="initial_projection must be one of"):
        ProblemConfig(nu=0.1, c0=1.0, steady=steady, w0=w0, initial_projection="l2")
    forcing_only = SteadySpec(nu=0.1, forcing=lambda x, y: 0.04 * x)
    with pytest.raises(ValueError, match="closed-form steady state"):
        ProblemConfig(nu=0.1, c0=1.0, steady=forcing_only, w0=w0)
    ProblemConfig(nu=0.1, c0=1.0, steady=forcing_only, w0=w0, coefficient_source="discrete")
    # the steady state must be the equilibrium of the same dynamics
    with pytest.raises(ValueError, match="steady viscosity"):
        ProblemConfig(nu=0.2, c0=1.0, steady=forcing_only, w0=w0, coefficient_source="discrete")


_U = analytic_from_expression("-0.2*x1")
_NON_FINITE = {
    "ControlParams.nu": lambda v: ControlParams(nu=v, c0=1.0),
    "ControlParams.c0": lambda v: ControlParams(nu=0.1, c0=v),
    "EvolutionConfig.nu": lambda v: EvolutionConfig(nu=v, k=0.01, t_end=0.02),
    "EvolutionConfig.t_end": lambda v: EvolutionConfig(nu=0.1, k=0.01, t_end=v),
    "SteadySpec.nu": lambda v: SteadySpec(nu=v, u_steady=_U),
    "SteadySpec.mean_value": lambda v: SteadySpec(nu=0.1, mean_value=v, u_steady=_U),
    "ProblemConfig.nu": lambda v: ProblemConfig(nu=v, c0=1.0, steady=SteadySpec(0.1, u_steady=_U),
                                                w0=_U),
    "ProblemConfig.c0": lambda v: ProblemConfig(nu=0.1, c0=v, steady=SteadySpec(0.1, u_steady=_U),
                                                w0=_U),
    "StudyConfig.t_eval": lambda v: StudyConfig(example1_problem(), (2, 4), 8, 0.01, v),
}


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("where", sorted(_NON_FINITE))
def test_non_finite_parameters_fail_by_name(where, value):
    # a ConfigError naming the field, before any run could fail on it unnamed
    with pytest.raises(ConfigError) as caught:
        _NON_FINITE[where](value)
    assert caught.value.field == where.split(".")[1]


def test_study_config_validation():
    problem = example1_problem()
    good = dict(problem=problem, levels=(2, 4), reference_level=8, k=0.01, t_eval=0.05)
    StudyConfig(**good)
    with pytest.raises(ValueError):
        StudyConfig(**{**good, "levels": (4, 2)})
    with pytest.raises(ValueError):
        StudyConfig(**{**good, "levels": (2, 2, 4)})
    with pytest.raises(ValueError):
        StudyConfig(**{**good, "reference_level": 4})
    with pytest.raises(ValueError):
        StudyConfig(**{**good, "k": 0.0})
    with pytest.raises(ValueError):
        StudyConfig(**{**good, "t_eval": 0.055})
    # the step and the nesting are checked when the config is built, as run() and
    # Study.mesh would otherwise find them only later
    with pytest.raises(ConfigError) as caught:
        StudyConfig(**{**good, "k": 1.5})
    assert caught.value.field == "k"
    # and so is what rate_table needs: two or more levels, each twice the one before
    for levels in ((2, 3), (3, 4), (2,), (2, 8)):
        with pytest.raises(ConfigError) as caught:
            StudyConfig(**{**good, "levels": levels, "reference_level": 16})
        assert caught.value.field == "levels"


@pytest.fixture(scope="module")
def small_study():
    config = StudyConfig(
        problem=example1_problem(),
        levels=(2, 4),
        reference_level=8,
        k=0.01,
        t_eval=0.05,
    )
    return Study(config)


def test_reference_level_error_is_zero(small_study):
    l2, h1 = small_study.state_errors(8)
    assert l2 == 0.0
    assert h1 == 0.0


def test_errors_decrease_under_refinement(small_study):
    l2_coarse, h1_coarse = small_study.state_errors(2)
    l2_fine, h1_fine = small_study.state_errors(4)
    assert 0.0 < l2_fine < l2_coarse
    assert 0.0 < h1_fine < h1_coarse
    ctl_coarse = small_study.control_errors(2)
    ctl_fine = small_study.control_errors(4)
    assert 0.0 < ctl_fine < ctl_coarse


def test_rate_table_matches_member_errors(small_study):
    table = small_study.rate_table()
    assert np.array_equal(table.hs, [0.5, 0.25])
    l2_2, h1_2 = small_study.state_errors(2)
    l2_4, h1_4 = small_study.state_errors(4)
    assert np.array_equal(table.l2_errors, [l2_2, l2_4])
    assert np.array_equal(table.h1_errors, [h1_2, h1_4])
    assert np.array_equal(table.l2_rates, compute_rates(table.l2_errors, table.hs))
    assert table.control_rates.shape == (1,)


def test_trajectories_are_cached(small_study):
    assert small_study.record(4) is small_study.record(4)


def test_unknown_level_is_rejected(small_study):
    with pytest.raises(NonNestedMeshError):
        small_study.mesh(5)


def test_unreachable_level_is_rejected():
    # 3 is not 2 times a power of 2: StudyConfig rejects it before any mesh is built
    with pytest.raises(ConfigError, match="levels must each be 2 times a power of 2"):
        StudyConfig(
            problem=example1_problem(),
            levels=(2, 3),
            reference_level=8,
            k=0.01,
            t_eval=0.05,
        )


def test_fresh_study_agrees_with_cached_one(small_study):
    fresh = Study(small_study.config)
    l2, h1 = fresh.state_errors(4)
    l2_cached, h1_cached = small_study.state_errors(4)
    assert abs(l2 - l2_cached) <= 1e-14
    assert abs(h1 - h1_cached) <= 1e-13
    assert abs(fresh.control_errors(4) - small_study.control_errors(4)) <= 1e-13


def shear_study(**problem):
    """Example 1 study at levels 4 and 8 against 1/16, with ``problem`` overrides."""
    config = StudyConfig(
        problem=replace(example1_problem(), **problem),
        levels=(4, 8),
        reference_level=16,
        k=0.01,
        t_eval=0.1,
    )
    return Study(config)


def test_discrete_coefficients_reproduce_analytic_errors():
    # the linear shear lies in the P1 space, so the discrete steady solve
    # recovers it to solver tolerance (not bit for bit: it did run) and the
    # errors stay put
    analytic = shear_study()
    discrete = shear_study(coefficient_source="discrete")
    for n in (4, 8, 16):
        gap = discrete.steady_field(n).values - analytic.steady_field(n).values
        assert 0.0 < np.max(np.abs(gap)) <= 1e-9
    for n in (4, 8):
        assert np.allclose(discrete.state_errors(n), analytic.state_errors(n), rtol=0.0, atol=1e-9)
        assert abs(discrete.control_errors(n) - analytic.control_errors(n)) <= 1e-9


def test_elliptic_initial_projection():
    study = shear_study(initial_projection="elliptic")
    w0 = example1_problem().w0
    for n in (4, 8):
        mesh = study.mesh(n)
        projected = elliptic_projection(mesh, w0.value, w0.dx, w0.dy)
        record = study.record(n)
        assert record.l2[0] == pytest.approx(l2_norm(projected), rel=1e-12)
        assert record.h1_semi[0] == pytest.approx(h1_seminorm(projected), rel=1e-12)
        # distinguishable from the default interpolant
        assert abs(record.l2[0] - l2_norm(interpolate(w0.value, mesh))) > 1e-6
    l2_coarse, _ = study.state_errors(4)
    l2_fine, _ = study.state_errors(8)
    assert 0.0 < l2_fine < 0.5 * l2_coarse


SAMPLE_TABLE = RateTable(
    hs=np.array([0.5, 0.25]),
    l2_errors=np.array([0.04, 0.01]),
    l2_rates=np.array([2.0]),
    h1_errors=np.array([0.4, 0.2]),
    h1_rates=np.array([1.0]),
    control_errors=np.array([0.08, 0.02]),
    control_rates=np.array([2.0]),
)


def test_state_csv_layout(tmp_path):
    SAMPLE_TABLE.write_state_csv(tmp_path / "rates_state.csv")
    lines = (tmp_path / "rates_state.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "h,error_l2,rate_l2,error_h1,rate_h1"
    assert len(lines) == 3
    # No rate on the coarsest row.
    assert lines[1].split(",")[2] == ""
    assert lines[2].split(",")[2] == "2"


def test_control_csv_layout(tmp_path):
    SAMPLE_TABLE.write_control_csv(tmp_path / "rates_control.csv")
    lines = (tmp_path / "rates_control.csv").read_text(encoding="ascii").splitlines()
    assert lines[0] == "h,error_control,rate_control"
    assert len(lines) == 3
    assert lines[1].split(",")[2] == ""


def test_csv_writes_are_deterministic(tmp_path):
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    SAMPLE_TABLE.write_state_csv(first)
    SAMPLE_TABLE.write_state_csv(second)
    assert first.read_bytes() == second.read_bytes()


def test_example2_problem_pins_right_side():
    problem = example2_problem()
    assert problem.dirichlet_region == ((1.0, 0.0), (1.0, 1.0))
    assert example1_problem().dirichlet_region is None


def test_run_example1_small(tmp_path):
    result = run_example1(
        str(tmp_path),
        levels=(2, 4),
        reference=8,
        k=0.01,
        t_eval=0.05,
        figure_n=4,
        t_end=0.1,
    )
    for key in ("controlled", "uncontrolled", "control_norm", "rates_state", "rates_control"):
        assert key in result.paths
    headers = {
        "controlled": "time,l2,h1semi,lyapunov,control_l2,newton_iters",
        "uncontrolled": "time,l2,h1semi,lyapunov,control_l2,newton_iters",
        "control_norm": "time,control_l2",
        "rates_state": "h,error_l2,rate_l2,error_h1,rate_h1",
        "rates_control": "h,error_control,rate_control",
    }
    for key, header in headers.items():
        with open(result.paths[key], "r", encoding="ascii") as handle:
            assert handle.readline().rstrip("\n") == header
    assert result.controlled.l2[-1] < result.uncontrolled.l2[-1]
    assert result.table.l2_errors.shape == (2,)


def test_run_example2_small(tmp_path):
    result = run_example2(str(tmp_path), n=4, k=0.01, t_end=0.1)
    for key in ("controlled", "uncontrolled", "control_norm"):
        assert key in result.paths
    assert result.controlled.l2[-1] < result.controlled.l2[0]
    # Pinned side stays at zero.
    pinned = np.abs(result.controlled.final_state.mesh.vertices[:, 0] - 1.0) < 1e-12
    assert np.all(result.controlled.final_state.values[pinned] == 0.0)
