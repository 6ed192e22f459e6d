"""Convergence studies and the two reference experiments.

A study runs the controlled dynamics on a family of nested meshes plus one
finer reference mesh, compares states (and feedback traces) at a fixed
evaluation time after exact prolongation onto the reference mesh, and
tabulates errors with log2 convergence rates.  The two experiment drivers
reproduce the published data layout: trajectory series for the decay
figures and rate tables for the error tables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .assembly import (
    ACTIVE_TAGS,
    FeField,
    NonNestedMeshError,
    boundary_quadrature,
    elliptic_projection,
    h1_seminorm,
    interpolate,
    l2_norm,
    prolong,
)
from .control import ControlParams, _Feedback
from .evolution import EvolutionConfig, TrajectoryRecord, _check_steps, run, write_csv
from .mesh import ConfigError, Mesh, _normalize_region, _one_of, build_unit_square_mesh
from .mesh import refine_uniform, tag_boundary
from .steady import AnalyticFunction, SteadySpec, analytic_from_expression, solve_steady

__all__ = [
    "ExampleResult",
    "ProblemConfig",
    "RateTable",
    "Study",
    "StudyConfig",
    "compute_rates",
    "run_example1",
    "run_example2",
]

_SOURCES = ("analytic", "discrete")
_PROJECTIONS = ("interpolate", "elliptic")


@dataclass(frozen=True)
class ProblemConfig:
    """Physical data of one stabilization problem.

    ``w0`` is the closed-form initial deviation.  ``dirichlet_region``
    selects boundary segments pinned to zero (None for pure flux control).
    ``coefficient_source`` (``"analytic"`` or ``"discrete"``) decides
    whether the steady coefficients come from the closed form or from a
    discrete steady solve, and ``"analytic"`` needs the closed-form state
    ``steady.u_steady``; ``initial_projection`` (``"interpolate"`` or
    ``"elliptic"``) decides how ``w0`` enters the finite element space.
    """

    nu: float
    c0: float
    steady: SteadySpec
    w0: AnalyticFunction
    dirichlet_region: object = None
    coefficient_source: str = "analytic"
    initial_projection: str = "interpolate"

    def __post_init__(self):
        if not 0.0 < self.nu < np.inf:
            raise ConfigError("nu", "must be positive", self.nu)
        if not 0.0 < self.c0 < np.inf:
            raise ConfigError("c0", "must be positive", self.c0)
        if abs(self.steady.nu - self.nu) > 1e-14:
            raise ValueError("steady viscosity disagrees with the dynamics")
        _one_of("coefficient_source", self.coefficient_source, _SOURCES)
        if self.coefficient_source == "analytic" and self.steady.u_steady is None:
            raise ValueError("analytic coefficients need a closed-form steady state")
        _one_of("initial_projection", self.initial_projection, _PROJECTIONS)
        _normalize_region(self.dirichlet_region)

    def steady_field(self, mesh: Mesh) -> FeField:
        """The steady state on ``mesh``, by ``coefficient_source``."""
        if self.coefficient_source == "analytic":
            return interpolate(self.steady.u_steady.value, mesh)
        return solve_steady(mesh, self.steady)

    def initial_field(self, mesh: Mesh) -> FeField:
        """``w0`` on ``mesh``, by ``initial_projection``."""
        if self.initial_projection == "elliptic":
            return elliptic_projection(mesh, self.w0.value, self.w0.dx, self.w0.dy)
        return interpolate(self.w0.value, mesh)

    def dynamics(self, k: float, t_end: float) -> EvolutionConfig:
        """The controlled dynamics with step ``k`` up to ``t_end``."""
        control = ControlParams(nu=self.nu, c0=self.c0)
        return EvolutionConfig(nu=self.nu, k=k, t_end=t_end, control=control)


@dataclass(frozen=True)
class StudyConfig:
    """Mesh levels, reference level, and time sampling of one study; uniform
    refinement reaches every level and the reference from the coarsest, and each
    level halves the mesh size of the one before, as the rate table needs."""

    problem: ProblemConfig
    levels: tuple
    reference_level: int
    k: float
    t_eval: float

    def __post_init__(self):
        levels = tuple(int(n) for n in self.levels)
        object.__setattr__(self, "levels", levels)
        reference = self.reference_level
        if not (levels and levels[0] >= 1 and list(levels) == sorted(set(levels))
                and levels[-1] < reference):
            raise ConfigError("levels", f"must increase strictly within [1, {reference})", levels)
        nested = {levels[0] << j for j in range(int(reference).bit_length())}
        power = f"{levels[0]} times a power of 2"
        if not nested.issuperset(levels):
            raise ConfigError("levels", f"must each be {power}", levels)
        if reference not in nested:
            raise ConfigError("reference_level", f"must be {power}", reference)
        if len(levels) < 2 or any(b != 2 * a for a, b in zip(levels, levels[1:])):
            raise ConfigError("levels", "must be two or more, each twice the one before", levels)
        _check_steps("t_eval", self.t_eval, self.k)


def compute_rates(errors, hs) -> np.ndarray:
    """log2 error ratios between consecutive halved mesh sizes."""
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.shape != hs.shape or errors.size < 2:
        raise ValueError("need matching error/h sequences of length at least 2")
    if np.any(errors <= 0.0):
        raise ValueError("error sequence must be strictly positive")
    if np.max(np.abs(hs[1:] / hs[:-1] - 0.5)) > 1e-12:
        raise ValueError("mesh sizes must halve between rows")
    return np.log2(errors[:-1] / errors[1:])


class Study:
    """Caches meshes, steady fields, and level solutions of one study.

    The reference mesh is reached from the coarsest level by repeated
    uniform refinement, so every level mesh is an ancestor of the reference
    and prolongation is exact.
    """

    def __init__(self, config: StudyConfig):
        self.config = config
        self._dynamics = config.problem.dynamics(config.k, config.t_eval)
        self._meshes: dict = {}
        self._steady: dict = {}
        self._records: dict = {}

    def mesh(self, n: int) -> Mesh:
        if not self._meshes:
            cfg = self.config
            level = cfg.levels[0]
            mesh = build_unit_square_mesh(level)
            self._meshes[level] = tag_boundary(mesh, cfg.problem.dirichlet_region)
            while level < cfg.reference_level:
                self._meshes[2 * level] = refine_uniform(self._meshes[level])
                level *= 2
        if n not in self._meshes:
            raise NonNestedMeshError(f"level {n} is not part of this study's nested family")
        return self._meshes[n]

    def steady_field(self, n: int) -> FeField:
        if n not in self._steady:
            self._steady[n] = self.config.problem.steady_field(self.mesh(n))
        return self._steady[n]

    def record(self, n: int) -> TrajectoryRecord:
        if n not in self._records:
            mesh = self.mesh(n)
            w0 = self.config.problem.initial_field(mesh)
            self._records[n] = run(w0, self._dynamics, mesh, self.steady_field(n))
        return self._records[n]

    def state_errors(self, n: int):
        """L2 and H1-seminorm errors against the reference at t_eval."""
        ref = self.config.reference_level
        coarse = prolong(self.record(n).final_state, self.mesh(ref))
        diff = FeField(coarse.mesh, coarse.values - self.record(ref).final_state.values)
        return l2_norm(diff), h1_seminorm(diff)

    def control_errors(self, n: int) -> float:
        """Boundary L2 error of the feedback trace against the reference."""
        ref = self.config.reference_level
        bq = boundary_quadrature(self.mesh(ref), ACTIVE_TAGS)
        feedback = _Feedback(bq, self.steady_field(ref), self._dynamics.control)
        coarse = prolong(self.record(n).final_state, self.mesh(ref))
        level = feedback.flux(bq.trace(coarse.values))
        reference = feedback.flux(bq.trace(self.record(ref).final_state.values))
        return bq.l2(level - reference)

    def rate_table(self) -> "RateTable":
        levels = self.config.levels
        hs = np.array([1.0 / n for n in levels])
        l2, h1 = np.array([self.state_errors(n) for n in levels]).T
        control = np.array([self.control_errors(n) for n in levels])
        return RateTable(
            hs, l2, compute_rates(l2, hs), h1, compute_rates(h1, hs),
            control, compute_rates(control, hs),
        )


@dataclass(frozen=True)
class RateTable:
    """Errors and log2 rates per mesh level, states and feedback traces."""

    hs: np.ndarray
    l2_errors: np.ndarray
    l2_rates: np.ndarray
    h1_errors: np.ndarray
    h1_rates: np.ndarray
    control_errors: np.ndarray
    control_rates: np.ndarray

    def write_state_csv(self, path) -> None:
        """``h``, then each norm's errors and rates; the first row has no rates."""
        columns = (self.hs, self.l2_errors, [None, *self.l2_rates],
                   self.h1_errors, [None, *self.h1_rates])
        write_csv(path, "h,error_l2,rate_l2,error_h1,rate_h1", columns)

    def write_control_csv(self, path) -> None:
        columns = self.hs, self.control_errors, [None, *self.control_rates]
        write_csv(path, "h,error_control,rate_control", columns)

    def write(self, output_dir: str) -> dict:
        """``rates_state.csv`` and ``rates_control.csv`` in ``output_dir``, by key."""
        keys = ("rates_state", "rates_control")
        paths = {key: os.path.join(output_dir, key + ".csv") for key in keys}
        self.write_state_csv(paths["rates_state"])
        self.write_control_csv(paths["rates_control"])
        return paths


def _write_series(output_dir: str, prefix: str, controlled, uncontrolled) -> dict:
    """The decay pair's series and the controlled feedback norm as ``<prefix>_*.csv``."""
    names = {"controlled": "controlled", "uncontrolled": "uncontrolled", "control_norm": "control"}
    paths = {key: os.path.join(output_dir, f"{prefix}_{name}.csv") for key, name in names.items()}
    controlled.to_csv(paths["controlled"])
    uncontrolled.to_csv(paths["uncontrolled"])
    write_csv(paths["control_norm"], "time,control_l2", (controlled.times, controlled.control_l2))
    return paths


def _shear_steady() -> SteadySpec:
    return SteadySpec(nu=0.1, mean_value=-0.1, u_steady=analytic_from_expression("-0.2*x1"))


def example1_problem() -> ProblemConfig:
    """Stabilization around the linear shear steady state on the unit square."""
    return ProblemConfig(
        nu=0.1,
        c0=1.0,
        steady=_shear_steady(),
        w0=analytic_from_expression("sin(pi*x1)*sin(pi*x2) + 0.2*x1"),
    )


def example2_problem() -> ProblemConfig:
    """Mixed boundary variant: Dirichlet on the right side, control elsewhere."""
    return ProblemConfig(
        nu=0.1,
        c0=1.0,
        steady=_shear_steady(),
        w0=analytic_from_expression("sin(pi*x1)*sin(pi*x2)"),
        dirichlet_region=((1.0, 0.0), (1.0, 1.0)),
    )


@dataclass(eq=False)
class ExampleResult:
    """Trajectories, CSV paths and, for Example 1, the rate table of one run."""

    controlled: TrajectoryRecord
    uncontrolled: TrajectoryRecord
    paths: dict
    table: Optional[RateTable] = None


def _figure_runs(problem: ProblemConfig, n: int, k: float, t_end: float):
    mesh = tag_boundary(build_unit_square_mesh(n), problem.dirichlet_region)
    u_steady = problem.steady_field(mesh)
    w0 = problem.initial_field(mesh)
    cfg = problem.dynamics(k, t_end)
    controlled = run(w0, cfg, mesh, u_steady)
    uncontrolled = run(w0, replace(cfg, control=None), mesh, u_steady)
    return controlled, uncontrolled


def run_example1(
    output_dir: str,
    levels=(4, 8, 16, 32),
    reference: int = 64,
    k: float = 0.0005,
    t_eval: float = 1.0,
    figure_n: int = 16,
    t_end: float = 5.0,
) -> ExampleResult:
    """Decay curves and convergence tables for the flux-controlled square.

    Emits the controlled and uncontrolled trajectory series, the feedback
    norm series, and the state/control rate tables as CSV files in
    ``output_dir``.
    """
    os.makedirs(output_dir, exist_ok=True)
    problem = example1_problem()
    controlled, uncontrolled = _figure_runs(problem, figure_n, k, t_end)
    table = Study(StudyConfig(problem, tuple(levels), reference, k, t_eval)).rate_table()
    paths = _write_series(output_dir, "example1", controlled, uncontrolled)
    paths.update(table.write(output_dir))
    return ExampleResult(controlled, uncontrolled, paths, table)


def run_example2(
    output_dir: str,
    n: int = 16,
    k: float = 0.0005,
    t_end: float = 5.0,
) -> ExampleResult:
    """Decay curves for the mixed Dirichlet / flux-control variant."""
    os.makedirs(output_dir, exist_ok=True)
    problem = example2_problem()
    controlled, uncontrolled = _figure_runs(problem, n, k, t_end)
    paths = _write_series(output_dir, "example2", controlled, uncontrolled)
    return ExampleResult(controlled=controlled, uncontrolled=uncontrolled, paths=paths)
