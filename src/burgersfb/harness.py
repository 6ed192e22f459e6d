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
    FeField,
    NonNestedMeshError,
    elliptic_projection,
    h1_seminorm,
    interpolate,
    l2_norm,
    prolong,
)
from .control import ControlParams, _active_flux, _active_quadrature, _boundary_l2
from .evolution import EvolutionConfig, TrajectoryRecord, _g, _write_csv, run
from .mesh import Mesh, build_unit_square_mesh, refine_uniform, tag_boundary
from .steady import AnalyticFunction, SteadySpec, analytic_from_expression, manufactured_solve_spec, solve_steady

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
        if self.nu <= 0.0:
            raise ValueError(f"viscosity must be positive, got {self.nu}")
        if self.c0 <= 0.0:
            raise ValueError(f"control gain must be positive, got {self.c0}")
        if abs(self.steady.nu - self.nu) > 1e-14:
            raise ValueError("steady viscosity disagrees with the dynamics")
        if self.coefficient_source not in ("analytic", "discrete"):
            raise ValueError(f"unknown coefficient source {self.coefficient_source!r}")
        if self.coefficient_source == "analytic" and self.steady.u_steady is None:
            raise ValueError("analytic coefficients need a closed-form steady state")
        if self.initial_projection not in ("interpolate", "elliptic"):
            raise ValueError(f"unknown initial projection {self.initial_projection!r}")


@dataclass(frozen=True)
class StudyConfig:
    """Mesh levels, reference level, and time sampling of one study."""

    problem: ProblemConfig
    levels: tuple
    reference_level: int
    k: float
    t_eval: float

    def __post_init__(self):
        levels = tuple(int(n) for n in self.levels)
        object.__setattr__(self, "levels", levels)
        if len(levels) < 1 or any(n < 1 for n in levels):
            raise ValueError(f"invalid level list {levels}")
        if list(levels) != sorted(set(levels)):
            raise ValueError("levels must be strictly increasing")
        if self.reference_level <= max(levels):
            raise ValueError("reference level must be finer than every level")
        if self.k <= 0.0 or self.t_eval < self.k:
            raise ValueError("need a positive step covering t_eval")
        steps = round(self.t_eval / self.k)
        if abs(steps * self.k - self.t_eval) > 1e-9 * max(self.t_eval, 1.0):
            raise ValueError("t_eval must be an integer multiple of k")


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


def _steady_field(mesh: Mesh, problem: ProblemConfig) -> FeField:
    spec = problem.steady
    if problem.coefficient_source == "analytic":
        return interpolate(spec.u_steady.value, mesh)
    if spec.u_steady is not None:
        spec = manufactured_solve_spec(spec.u_steady, spec.nu, spec.mean_value)
    return solve_steady(mesh, spec)


def _initial_field(mesh: Mesh, problem: ProblemConfig) -> FeField:
    if problem.initial_projection == "elliptic":
        return elliptic_projection(
            mesh, problem.w0.value, problem.w0.dx, problem.w0.dy
        )
    return interpolate(problem.w0.value, mesh)


def _evolution(problem: ProblemConfig, k: float, t_end: float) -> EvolutionConfig:
    """The problem's controlled dynamics with step ``k`` up to ``t_end``."""
    control = ControlParams(nu=problem.nu, c0=problem.c0)
    return EvolutionConfig(nu=problem.nu, k=k, t_end=t_end, control=control)


class Study:
    """Caches meshes, steady fields, and level solutions of one study.

    The reference mesh is reached from the coarsest level by repeated
    uniform refinement, so every level mesh is an ancestor of the reference
    and prolongation is exact.
    """

    def __init__(self, config: StudyConfig):
        self.config = config
        self._dynamics = _evolution(config.problem, config.k, config.t_eval)
        self._meshes: dict = {}
        self._steady: dict = {}
        self._records: dict = {}

    def mesh(self, n: int) -> Mesh:
        if not self._meshes:
            cfg = self.config
            targets = set(cfg.levels) | {cfg.reference_level}
            level = min(cfg.levels)
            mesh = tag_boundary(
                build_unit_square_mesh(level), self.config.problem.dirichlet_region
            )
            self._meshes[level] = mesh
            while level < cfg.reference_level:
                mesh = refine_uniform(mesh)
                level *= 2
                if level in targets:
                    self._meshes[level] = mesh
            missing = targets - set(self._meshes)
            if missing:
                raise NonNestedMeshError(
                    f"levels {sorted(missing)} are not reachable from "
                    f"{min(cfg.levels)} by uniform refinement"
                )
        if n not in self._meshes:
            raise NonNestedMeshError(
                f"level {n} is not part of this study's nested family"
            )
        return self._meshes[n]

    def steady_field(self, n: int) -> FeField:
        if n not in self._steady:
            self._steady[n] = _steady_field(self.mesh(n), self.config.problem)
        return self._steady[n]

    def record(self, n: int) -> TrajectoryRecord:
        if n not in self._records:
            mesh = self.mesh(n)
            w0 = _initial_field(mesh, self.config.problem)
            self._records[n] = run(w0, self._dynamics, mesh, self.steady_field(n))
        return self._records[n]

    def state(self, n: int) -> FeField:
        return self.record(n).final_state

    def state_errors(self, n: int):
        """L2 and H1-seminorm errors against the reference at t_eval."""
        cfg = self.config
        ref_mesh = self.mesh(cfg.reference_level)
        coarse = prolong(self.state(n), ref_mesh)
        diff = FeField(ref_mesh, coarse.values - self.state(cfg.reference_level).values)
        return l2_norm(diff), h1_seminorm(diff)

    def control_errors(self, n: int) -> float:
        """Boundary L2 error of the feedback trace against the reference."""
        cfg = self.config
        params = self._dynamics.control
        ref_mesh = self.mesh(cfg.reference_level)
        ref_steady = self.steady_field(cfg.reference_level)
        coarse = prolong(self.state(n), ref_mesh)
        bq = _active_quadrature(ref_mesh)
        level = _active_flux(bq, coarse, ref_steady, params)
        reference = _active_flux(bq, self.state(cfg.reference_level), ref_steady, params)
        return _boundary_l2(bq, level - reference)

    def rate_table(self) -> "RateTable":
        cfg = self.config
        hs = np.array([1.0 / n for n in cfg.levels])
        l2_errors = np.zeros(len(cfg.levels))
        h1_errors = np.zeros(len(cfg.levels))
        ctl_errors = np.zeros(len(cfg.levels))
        for i, n in enumerate(cfg.levels):
            l2_errors[i], h1_errors[i] = self.state_errors(n)
            ctl_errors[i] = self.control_errors(n)
        return RateTable(
            hs=hs,
            l2_errors=l2_errors,
            l2_rates=compute_rates(l2_errors, hs),
            h1_errors=h1_errors,
            h1_rates=compute_rates(h1_errors, hs),
            control_errors=ctl_errors,
            control_rates=compute_rates(ctl_errors, hs),
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

    def _rows(self, *columns):
        """``h``, then each (errors, rates) pair; the first row has no rates."""
        for i, h in enumerate(self.hs):
            row = [_g(h)]
            for errors, rates in columns:
                row += [_g(errors[i]), "" if i == 0 else _g(rates[i - 1])]
            yield row

    def write_state_csv(self, stream) -> None:
        columns = (self.l2_errors, self.l2_rates), (self.h1_errors, self.h1_rates)
        _write_csv(stream, "h,error_l2,rate_l2,error_h1,rate_h1", self._rows(*columns))

    def write_control_csv(self, stream) -> None:
        columns = (self.control_errors, self.control_rates)
        _write_csv(stream, "h,error_control,rate_control", self._rows(columns))


def _write_rates(table: RateTable, output_dir: str) -> dict:
    """``rates_state.csv`` and ``rates_control.csv`` in ``output_dir``, by key."""
    keys = ("rates_state", "rates_control")
    paths = {key: os.path.join(output_dir, key + ".csv") for key in keys}
    table.write_state_csv(paths["rates_state"])
    table.write_control_csv(paths["rates_control"])
    return paths


def _write_series(output_dir: str, prefix: str, controlled, uncontrolled) -> dict:
    """The decay pair's series and the controlled feedback norm as ``<prefix>_*.csv``."""
    names = {"controlled": "controlled", "uncontrolled": "uncontrolled", "control_norm": "control"}
    paths = {key: os.path.join(output_dir, f"{prefix}_{name}.csv") for key, name in names.items()}
    controlled.to_csv(paths["controlled"])
    uncontrolled.to_csv(paths["uncontrolled"])
    rows = zip(map(_g, controlled.times), map(_g, controlled.control_l2))
    _write_csv(paths["control_norm"], "time,control_l2", rows)
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
    u_steady = _steady_field(mesh, problem)
    w0 = _initial_field(mesh, problem)
    cfg = _evolution(problem, k, t_end)
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
    study = Study(
        StudyConfig(
            problem=problem,
            levels=tuple(levels),
            reference_level=reference,
            k=k,
            t_eval=t_eval,
        )
    )
    table = study.rate_table()
    paths = _write_series(output_dir, "example1", controlled, uncontrolled)
    paths.update(_write_rates(table, output_dir))
    return ExampleResult(
        controlled=controlled, uncontrolled=uncontrolled, paths=paths, table=table
    )


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
