"""Implicit time stepping of the deviation dynamics with boundary feedback.

Backward Euler in time.  Each step solves the fully implicit nonlinear
system by Newton's method, or by a lagged Picard linearization that
freezes the transported coefficient and the cubic boundary weight at the
previous state, costing one linear system per step.

:func:`run` builds one ``_Trajectory``, which owns the constant matrices,
the one LU factorization its steps share with its counters, the recorded
series, and the last state with its inertia and edge traces.  Each step
starts from the polynomial through the last four states (``_START``,
fewer at first); on a smoothly decaying trajectory it is O(k^4) off, and
a Newton step may need no iteration (Hairer & Wanner, *Solving ODEs II*,
§IV.8, extrapolated starting values).

Newton comes in two forms that share one loop and one stopping test,
``||residual|| <= _NEWTON_TOL`` within ``_NEWTON_MAX`` iterations.
``"chord"`` (the default) keeps one LU factorization of the Jacobian
across iterations and time steps, and refactors at the current iterate
only when an iteration contracts the residual by less than
``_CHORD_CONTRACTION``; with ``M/k`` dominating the Jacobian, one factor
usually serves a whole trajectory (Kelley, *Solving Nonlinear Equations
with Newton's Method*, SIAM 2003, chord method).
``"newton"`` refactors on every iteration and is the reference.
Picard linearizes at the last state and refines from the start on the
held factorization (usually two solves); a step that ``_PICARD_SOLVES``
refinement solves do not certify factors its own matrix, which later
steps then share.

A ``TrajectoryRecord`` holds only what the run computed; the guaranteed
decay rate depends on the problem data alone (:func:`decay_rate_bound`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .assembly import Discretization, FeField
from .control import ControlParams, _boundary_l2, _Feedback
from .mesh import ConfigError, Mesh, _one_of
from .sparse import NonconvergenceError, SingularMatrixError

__all__ = [
    "EvolutionConfig",
    "TrajectoryRecord",
    "decay_rate_bound",
    "fit_decay_rate",
    "lyapunov_decay_coefficient",
    "run",
    "write_csv",
]

_CSV_HEADER = "time,l2,h1semi,lyapunov,control_l2,newton_iters"
_MIN_FIT_SAMPLES = 10
_NEWTON_TOL = 1e-10
_NEWTON_MAX = 20
# chord Newton refactors when ||r_i|| > _CHORD_CONTRACTION * ||r_{i-1}||
_CHORD_CONTRACTION = 0.1
# refinement solves a Picard step may take on the held factorization before it refactors
_PICARD_SOLVES = 4
_SOLVERS = ("chord", "newton", "picard")
# row j - 1 weights w_n, w_(n-1), ... in the start of step n + 1 once j states are known
_START = ((1.0,), (2.0, -1.0), (3.0, -3.0, 1.0), (4.0, -6.0, 4.0, -1.0))


def _check_steps(field: str, time: float, k: float) -> None:
    """Raise ``ConfigError`` unless the step ``k`` lies in (0, 1) and ``time`` is a
    positive whole number of steps ``k``, to 1e-9 relative."""
    if not 0.0 < k < 1.0:
        raise ConfigError("k", "must lie in (0, 1)", k)
    if not k <= time or abs(round(time / k) * k - time) > 1e-9 * max(time, 1.0):
        raise ConfigError(field, f"must be a positive whole number of steps of {k}", time)


@dataclass(frozen=True)
class EvolutionConfig:
    """Time discretization and nonlinear solver choices.

    ``control=None`` integrates the uncontrolled dynamics (natural zero-flux
    boundary).  ``nonlinear`` is ``"chord"`` (Newton on one reused
    factorization), ``"newton"`` (refactor every iteration) or ``"picard"``.
    """

    nu: float
    k: float
    t_end: float
    control: Optional[ControlParams] = None
    nonlinear: str = "chord"

    def __post_init__(self):
        if self.nu <= 0.0:
            raise ConfigError("nu", "must be positive", self.nu)
        _check_steps("t_end", self.t_end, self.k)
        _one_of("nonlinear", self.nonlinear, _SOLVERS)
        if self.control is not None and abs(self.control.nu - self.nu) > 1e-14:
            raise ValueError("control viscosity disagrees with the dynamics")


class _Trajectory:
    """One trajectory of ``run()``: its operators, held factor and the record it writes.

    ``step_matrix`` is ``mass / k`` plus the linear part of the step, and
    ``feedback`` the ``_Feedback`` law on the active edges (``None`` when
    uncontrolled).  ``factor`` is the one LU factorization the steps share,
    of a Newton Jacobian or, for Picard, of an earlier step matrix (``None``
    until a step factors).  ``result`` is the ``TrajectoryRecord`` that
    ``run()`` returns: the steps write its series and count its
    factorizations and linear solves.  ``w`` is the last recorded state,
    ``inertia`` its mass product over ``k`` and ``traces`` its edge traces
    (``None`` when uncontrolled).
    """

    def __init__(self, mesh: Mesh, u_steady: FeField, cfg: EvolutionConfig):
        if u_steady.mesh is not mesh:
            raise ValueError("steady field does not live on the given mesh")
        controlled = cfg.control is not None
        self.cfg = cfg
        self.disc = disc = Discretization(mesh)
        self.feedback = feedback = _Feedback(disc.bq, u_steady, cfg.control) if controlled else None
        vp, g, _ = disc.gather(u_steady.values)
        linear = feedback.linear if controlled else None
        constant = cfg.nu * disc.stiffness + disc.jacobian(vp, g, linear)
        self.mass = disc.matrix(disc.mass)
        self.stiffness = disc.matrix(disc.stiffness)
        self.step_matrix = disc.matrix(1.0 / cfg.k * disc.mass + constant)
        self.cubic_scale = feedback.cubic if controlled else 0.0
        self.factor = None
        size = round(cfg.t_end / cfg.k) + 1
        self.result = TrajectoryRecord(*np.zeros((5, size)), np.zeros(size, dtype=int),
                                       final_state=None)

    def record(self, i, w, iterations, traces=None):
        """Record ``w`` as the state of step ``i``, reached in ``iterations``; ``traces``
        are its edge traces when the step computed them.  A non-finite diagnostic raises
        ``FloatingPointError`` naming its column."""
        mw = self.mass @ w
        energy = w @ mw
        result = self.result
        result.times[i] = i * self.cfg.k
        result.l2[i] = np.sqrt(max(energy, 0.0))
        result.h1_semi[i] = np.sqrt(max(w @ (self.stiffness @ w), 0.0))
        result.lyapunov[i] = 0.5 * float(energy)
        if self.feedback is not None:
            if traces is None:
                traces = self.disc.traces(w)
            result.control_l2[i] = _boundary_l2(self.feedback.bq, self.feedback.flux(traces))
        result.newton_iters[i] = iterations
        row = result.l2[i], result.h1_semi[i], result.lyapunov[i], result.control_l2[i]
        # three square roots and half a float: finite entries never sum to inf
        if not math.isfinite(sum(row)):
            column = _CSV_HEADER.split(",")[1 + [math.isfinite(v) for v in row].index(False)]
            raise FloatingPointError(f"{column} is not finite")
        self.w, self.inertia, self.traces = w, (1.0 / self.cfg.k) * mw, traces

    def residual(self, w):
        """The step residual at ``w`` (pinned rows hold ``w``), and ``w`` gathered."""
        load, gathered = self.disc.residual(w, self.cubic_scale)
        residual = self.step_matrix @ w - self.inertia + load
        dofs = self.disc.dirichlet
        if dofs.size:
            residual[dofs] = w[dofs]
        return residual, gathered

    def jacobian(self, vp, g, tr):
        """Eliminated data of the step Jacobian at an iterate, from its gather by ``residual``."""
        gq = None if tr is None else 3.0 * self.cubic_scale * tr**2
        data = self.step_matrix.data + self.disc.jacobian(vp, g, gq)
        self.disc.eliminate(data)
        return data

    def refactor(self, data):
        """Replace the held factorization by one of the eliminated matrix ``data``."""
        self.factor = None  # never hold two factorizations at once
        self.factor = self.disc.factor(data)
        self.result.factorizations += 1

    def newton(self, start):
        """Newton from ``start`` to the next state: ``(w, iterations, edge traces)``."""
        refresh_always = self.cfg.nonlinear == "newton"
        w = start
        history = []
        for iteration in range(_NEWTON_MAX + 1):
            residual, (vp, g, tr) = self.residual(w)
            res_norm = float(np.linalg.norm(residual))
            history.append(res_norm)
            if res_norm <= _NEWTON_TOL:
                return w, iteration, tr
            if iteration == _NEWTON_MAX:
                break
            stalled = iteration and res_norm > _CHORD_CONTRACTION * history[-2]
            if refresh_always or self.factor is None or stalled:
                self.refactor(self.jacobian(vp, g, tr))
            self.result.solves += 1
            w = w + self.factor.solve(-residual)
        raise NonconvergenceError(
            f"implicit step Newton stalled after {_NEWTON_MAX} iterations "
            f"(residual {history[-1]:.3e})",
            history,
        )

    def picard(self, start):
        """The Picard step linearized at the recorded state, refined from ``start``."""
        disc = self.disc
        gq = self.cubic_scale * self.traces**2 if self.cubic_scale else None
        system = self.step_matrix.data + disc.transport(self.w, gq)
        rhs = self.inertia.copy()
        disc.eliminate(system)
        rhs[disc.dirichlet] = 0.0
        w = None
        if self.factor is not None:
            w, solves = self.factor.refine(disc.matrix(system), rhs, start, _PICARD_SOLVES)
            self.result.solves += solves
        if w is None:
            self.refactor(system)
            self.result.solves += 1
            w = self.factor.solve(rhs)
        return w, 1, None


@dataclass(eq=False)
class TrajectoryRecord:
    """Per-step diagnostics of one trajectory, including the initial state.

    Holds only what the run computed: the six CSV series, the last state,
    ``factorizations``, the number of LU factorizations the run made, and
    ``solves``, the number of linear solves; for Newton that is
    ``newton_iters.sum()``, for Picard the refinement and direct solves.
    """

    times: np.ndarray
    l2: np.ndarray
    h1_semi: np.ndarray
    lyapunov: np.ndarray
    control_l2: np.ndarray
    newton_iters: np.ndarray
    final_state: "FeField"
    factorizations: int = 0
    solves: int = 0

    def to_csv(self, stream) -> None:
        """Write rows in a reproducible fixed format (17 significant digits)."""
        write_csv(stream, _CSV_HEADER, [getattr(self, f.name) for f in fields(self)[:6]])


def write_csv(stream, header: str, columns) -> None:
    """Write ``header`` and one row per entry of the equally long ``columns`` to a path or
    stream; a number is written to 17 significant digits (an integer as itself) and
    ``None`` as an empty cell."""
    if isinstance(stream, (str, bytes, os.PathLike)):
        with open(stream, "w", encoding="ascii", newline="\n") as handle:
            write_csv(handle, header, columns)
        return
    cells = []
    for column in columns:
        values = column.tolist() if isinstance(column, np.ndarray) else column
        cells.append(["" if x is None else f"{x:.17g}" for x in values])
    stream.write(header + "\n")
    stream.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))


def run(w0: FeField, cfg: EvolutionConfig, mesh: Mesh, u_steady: FeField) -> TrajectoryRecord:
    """Integrate from ``w0`` to ``t_end`` and record diagnostics per step.

    Dirichlet vertices are held exactly at zero throughout.  A failed step's
    ``NonconvergenceError`` or ``SingularMatrixError``, and the ``FloatingPointError``
    of a non-finite diagnostic, names its ``step`` and ``time`` and keeps the ``record``
    of the steps before it, ending in the last good state (``None`` if step 0 failed).
    """
    if w0.mesh is not mesh:
        raise ValueError("initial state does not live on the given mesh")
    trajectory = _Trajectory(mesh, u_steady, cfg)
    w = w0.values.copy()
    w[trajectory.disc.dirichlet] = 0.0
    advance = trajectory.picard if cfg.nonlinear == "picard" else trajectory.newton
    states = []  # the last four states, newest first
    n = 0
    try:
        trajectory.record(0, w, 0)
        for n in range(1, trajectory.result.times.size):
            states = [trajectory.w] + states[:3]
            start = np.zeros(w.size)  # from +0.0, so it rounds as Python's sum() of the terms
            for c, s in zip(_START[len(states) - 1], states):
                start += c * s
            trajectory.record(n, *advance(start))
    except (NonconvergenceError, SingularMatrixError, FloatingPointError) as exc:
        exc.args = (f"step {n} (t = {n * cfg.k:.6g}): {exc}",)
        exc.step, exc.time = n, n * cfg.k
        result, last = trajectory.result, FeField(mesh, trajectory.w) if n else None
        series = {f.name: getattr(result, f.name)[:n] for f in fields(result)[:6]}
        exc.record = replace(result, **series, final_state=last)
        raise
    trajectory.result.final_state = FeField(mesh, trajectory.w)
    return trajectory.result


def decay_rate_bound(nu: float, c0: float, friedrichs: float) -> float:
    """Guaranteed exponential decay rate of the controlled deviation norm."""
    return min(nu / 2.0, c0 + 7.0 * nu / 4.0) / (2.0 * friedrichs)


def lyapunov_decay_coefficient(nu: float, c0: float, friedrichs: float) -> float:
    """Coefficient in ``dV/dt <= -C V`` for the controlled energy."""
    return 2.0 * min(7.0 * nu / 8.0, c0 / 2.0 + 7.0 * nu / 8.0) / friedrichs


def fit_decay_rate(record: TrajectoryRecord, window: tuple) -> float:
    """Least-squares exponential decay rate of the recorded L2 norms.

    Fits ``log ||w||`` against time over ``window = (t0, t1)`` and returns
    the negated slope.  Requires at least ``_MIN_FIT_SAMPLES`` (10) samples
    in the window and strictly positive norms there.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not t1 > t0:
        raise ValueError(f"empty fit window ({t0}, {t1})")
    eps = 1e-12 * max(1.0, abs(t1))
    mask = (record.times >= t0 - eps) & (record.times <= t1 + eps)
    if int(mask.sum()) < _MIN_FIT_SAMPLES:
        raise ValueError(
            f"fit window contains {int(mask.sum())} samples; "
            f"need at least {_MIN_FIT_SAMPLES}"
        )
    values = record.l2[mask]
    if np.any(values <= 0.0):
        raise ValueError("fit window contains nonpositive norms")
    slope = np.polyfit(record.times[mask], np.log(values), 1)[0]
    return -float(slope)
