"""Steady states of the forced Burgers equation and their diagnostics.

The steady problem is pure Neumann, so its solution is fixed only up to the
choice of mean; the solver pins the mass-weighted mean through a bordered
Newton iteration.  Manufactured states are supported two ways: closed-form
states are interpolated directly, and closed-form forcing (optionally with
the matching boundary flux) is solved for.  The module also estimates the
continuity constant of the convection form by random sampling and reports
the smallness quantities the stabilization analysis relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .assembly import (
    Discretization,
    FeField,
    boundary_load,
    convection_form,
    discrete_laplacian,
    h1_seminorm,
    integrate,
    interpolate,
    l2_norm,
    load_vector,
)
from .mesh import Mesh
from .sparse import NonconvergenceError, solve_bordered

__all__ = [
    "AnalyticFunction",
    "SmallnessReport",
    "SteadySpec",
    "analytic_from_expression",
    "estimate_convection_constant",
    "manufacture_forcing",
    "manufactured_solve_spec",
    "normal_flux",
    "smallness_report",
    "solve_steady",
    "steady_residual",
]

_STEADY_TOL = 1e-10
_STEADY_MAX_ITER = 50


@dataclass(frozen=True)
class AnalyticFunction:
    """Closed-form function of (x1, x2) with first derivatives and Laplacian."""

    value: Callable
    dx: Callable
    dy: Callable
    laplacian: Callable


def analytic_from_expression(expr: str) -> AnalyticFunction:
    """Parse an expression in x1, x2 and differentiate it symbolically.

    Accepts the usual scientific vocabulary (sin, cos, exp, pi, ...).  The
    returned callables are numpy-vectorized.  Malformed text, and an
    expression with an imaginary part, raise ``ValueError``.
    """
    import sympy

    x1, x2 = sympy.symbols("x1 x2")
    try:
        parsed = sympy.sympify(expr, locals={"x1": x1, "x2": x2})
    except (sympy.SympifyError, TypeError, AttributeError) as exc:
        raise ValueError(f"cannot parse expression {expr!r}: {exc}") from None
    if not isinstance(parsed, sympy.Expr) or parsed.has(sympy.zoo, sympy.oo, -sympy.oo, sympy.nan):
        raise ValueError(f"expression {expr!r} is not a scalar expression with finite constants")
    extra = parsed.free_symbols - {x1, x2}
    if extra:
        raise ValueError(f"expression uses unknown symbols {sorted(map(str, extra))}")
    if parsed.has(sympy.I):
        raise ValueError(f"expression {expr!r} is not real")

    def lamb(e):
        fn = sympy.lambdify((x1, x2), e, modules="numpy")

        def wrapped(x, y, _fn=fn):
            return np.asarray(_fn(x, y), dtype=float) * np.ones_like(
                np.asarray(x, dtype=float)
            )

        return wrapped

    return AnalyticFunction(
        value=lamb(parsed),
        dx=lamb(sympy.diff(parsed, x1)),
        dy=lamb(sympy.diff(parsed, x2)),
        laplacian=lamb(sympy.diff(parsed, x1, 2) + sympy.diff(parsed, x2, 2)),
    )


def manufacture_forcing(u: AnalyticFunction, nu: float) -> Callable:
    """Forcing whose steady state is ``u``.

    Returns the callable ``-nu lap(u) + u (du/dx1 + du/dx2)``.
    """

    def forcing(x, y):
        return -nu * u.laplacian(x, y) + u.value(x, y) * (u.dx(x, y) + u.dy(x, y))

    return forcing


def normal_flux(u: AnalyticFunction) -> Callable:
    """Normal derivative of ``u`` as a flux callable ``(x, y, nx, ny)``."""

    def flux(x, y, nx, ny):
        return u.dx(x, y) * nx + u.dy(x, y) * ny

    return flux


@dataclass(frozen=True)
class SteadySpec:
    """Steady-state problem description.

    Exactly one of ``u_steady`` (closed-form state, interpolated directly)
    and ``forcing`` (closed-form forcing, solved for) must be given.  In the
    solve mode, ``neumann_flux`` prescribes the normal derivative of the
    target state; leave it ``None`` for a state with zero flux.  The
    constant test function is owned by the mean constraint, so any
    compatibility defect in the data (e.g. quadrature error on a
    transcendental forcing) lands in the constraint multiplier instead of
    blocking convergence.
    """

    nu: float
    mean_value: float = 0.0
    u_steady: AnalyticFunction | None = None
    forcing: Callable | None = None
    neumann_flux: Callable | None = None

    def __post_init__(self):
        if self.nu <= 0.0:
            raise ValueError(f"viscosity must be positive, got {self.nu}")
        if (self.u_steady is None) == (self.forcing is None):
            raise ValueError("specify exactly one of u_steady and forcing")


def manufactured_solve_spec(u: AnalyticFunction, nu: float, mean_value: float) -> SteadySpec:
    """Solve-mode spec whose exact solution is the manufactured state ``u``."""
    return SteadySpec(
        nu=nu,
        mean_value=mean_value,
        forcing=manufacture_forcing(u, nu),
        neumann_flux=normal_flux(u),
    )


def _steady_load(mesh: Mesh, spec: SteadySpec) -> np.ndarray:
    load = load_vector(mesh, spec.forcing)
    if spec.neumann_flux is not None:
        load = load + spec.nu * boundary_load(mesh, spec.neumann_flux)
    return load


def _steady_system(mesh: Mesh, spec: SteadySpec):
    """``(disc, residual, constraint)`` on one fixed pattern: ``residual(u)`` is
    ``(nu K u + T(u) u - load, disc.gather(u))``, ``constraint`` the mass row sums."""
    disc = Discretization(mesh)
    viscous = disc.matrix(spec.nu * disc.stiffness)
    load = _steady_load(mesh, spec)

    def residual(u: np.ndarray):
        convection, gathered = disc.residual(u)
        return viscous @ u + convection - load, gathered

    return disc, residual, np.bincount(disc.indices, disc.mass, mesh.num_vertices)


def _quotient_norm(residual: np.ndarray, unit_constraint: np.ndarray) -> float:
    # The weak problem is posed over mean-zero test functions; the constant
    # direction (the constraint row) carries the pinned mean, so the residual
    # that must vanish is the part orthogonal to it.
    projected = residual - (unit_constraint @ residual) * unit_constraint
    return float(np.linalg.norm(projected))


def solve_steady(mesh: Mesh, spec: SteadySpec, full_output: bool = False):
    """Solve the steady problem with the mean pinned to ``spec.mean_value``.

    Newton's method from zero on the discrete residual, augmented by the
    mass-weighted mean constraint through a bordered solve.  A full step
    that increases the residual norm is halved up to 8 times.  Convergence
    requires the residual norm at or below ``_STEADY_TOL`` (1e-10) and the
    mean constraint met to 1e-10.  Residual norms are measured with the
    constant test direction projected out: that component is the constraint
    multiplier's, and for general forcing it carries an irreducible
    quadrature defect.

    With ``full_output=True`` returns ``(field, residual_history)``.

    Raises
    ------
    NonconvergenceError
        After ``_STEADY_MAX_ITER`` (50) iterations, or when damping cannot
        find a decreasing step.  The error carries the residual-norm history.
    """
    if spec.u_steady is not None:
        field = interpolate(spec.u_steady.value, mesh)
        return (field, [0.0]) if full_output else field

    disc, residual_at, constraint = _steady_system(mesh, spec)
    unit_constraint = constraint / np.linalg.norm(constraint)
    u = np.zeros(mesh.num_vertices)
    residual, gathered = residual_at(u)
    res_norm = _quotient_norm(residual, unit_constraint)
    history = [res_norm]
    for iteration in range(_STEADY_MAX_ITER + 1):
        mean_gap = spec.mean_value - float(constraint @ u)
        if res_norm <= _STEADY_TOL and abs(mean_gap) <= 1e-10:
            field = FeField(mesh, u)
            return (field, history) if full_output else field
        if iteration == _STEADY_MAX_ITER:
            break
        jac = disc.matrix(spec.nu * disc.stiffness + disc.jacobian(*gathered[:2]))
        delta, _ = solve_bordered(jac, constraint, -residual, mean_gap)
        step = 1.0
        for _halving in range(9):
            candidate = u + step * delta
            cand_residual, cand_gathered = residual_at(candidate)
            cand_norm = _quotient_norm(cand_residual, unit_constraint)
            if cand_norm < res_norm or cand_norm <= _STEADY_TOL:
                break
            step *= 0.5
        else:
            raise NonconvergenceError(
                "steady Newton step increased the residual through 8 halvings",
                history,
            )
        u, residual, gathered, res_norm = candidate, cand_residual, cand_gathered, cand_norm
        history.append(res_norm)
    raise NonconvergenceError(
        f"steady Newton did not converge in {_STEADY_MAX_ITER} iterations "
        f"(residual {res_norm:.3e})",
        history,
    )


def steady_residual(mesh: Mesh, u: FeField, forcing, nu: float,
                    neumann_flux=None) -> float:
    """Norm of the discrete steady residual at ``u``.

    Measured over mean-zero test functions: the component along the
    constant direction is removed first, matching the convergence test of
    :func:`solve_steady`.
    """
    if u.mesh is not mesh:
        raise ValueError("field does not live on the given mesh")
    spec = SteadySpec(nu=nu, forcing=forcing, neumann_flux=neumann_flux)
    _, residual, constraint = _steady_system(mesh, spec)
    return _quotient_norm(residual(u.values)[0], constraint / np.linalg.norm(constraint))


def estimate_convection_constant(disc: Discretization, samples: int = 64, seed: int = 0) -> float:
    """Sampled lower bound on the continuity constant of the convection form.

    Draws ``samples`` random triples of zero-mean nodal fields on the mesh of
    ``disc`` and maximizes ``|c(v; w, z)| / (|v|_1 |w|_1 |z|_1)`` over them,
    where ``|.|_1`` is the H1 seminorm.  One rng stream is used, so for a
    fixed seed the estimate is nondecreasing in ``samples``.  Triples
    containing a numerically constant field are skipped.
    """
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    mesh = disc.mesh
    stiffness = disc.matrix(disc.stiffness)
    weights = np.bincount(disc.indices, disc.mass, mesh.num_vertices)
    volume = float(weights.sum())
    best = 0.0
    valid = 0
    for _ in range(samples):
        triple = []
        seminorms = []
        for _field in range(3):
            v = rng.standard_normal(mesh.num_vertices)
            v -= (weights @ v) / volume
            triple.append(v)
            seminorms.append(float(np.sqrt(max(v @ (stiffness @ v), 0.0))))
        if min(seminorms) < 1e-14:
            continue
        valid += 1
        value = convection_form(
            FeField(mesh, triple[0]), FeField(mesh, triple[1]), FeField(mesh, triple[2])
        )
        best = max(best, abs(value) / (seminorms[0] * seminorms[1] * seminorms[2]))
    if valid == 0:
        raise ValueError("all sampled triples were degenerate")
    return best


@dataclass(frozen=True)
class SmallnessReport:
    """Quantities behind the smallness hypothesis on the steady state.

    ``satisfied`` compares the H1 seminorm of the steady state against
    ``nu / (4 N)`` with N the sampled convection constant; the looser
    ``3 nu / (4 N)`` threshold is reported alongside.  ``forcing_l2`` is the
    L2 norm of the forcing, the computable proxy for its negative-norm
    smallness.  ``laplacian_norm`` is the L2 norm of the zero-flux discrete
    Laplacian of the steady state.
    """

    grad_norm: float
    convection_constant: float
    smallness_bound: float
    smallness_bound_loose: float
    satisfied: bool
    laplacian_norm: float
    forcing_l2: float


def smallness_report(
    mesh: Mesh,
    u_steady: FeField,
    forcing,
    nu: float,
) -> SmallnessReport:
    """Evaluate the smallness quantities for a computed steady state.

    ``forcing`` is a callable of (x1, x2), or ``None`` for zero forcing.
    """
    if u_steady.mesh is not mesh:
        raise ValueError("field does not live on the given mesh")
    if nu <= 0.0:
        raise ValueError(f"viscosity must be positive, got {nu}")
    grad_norm = h1_seminorm(u_steady)
    disc = Discretization(mesh)
    constant = estimate_convection_constant(disc)
    bound = nu / (4.0 * constant)
    loose = 3.0 * nu / (4.0 * constant)
    forcing_l2 = 0.0
    if forcing is not None:
        squared = integrate(mesh, lambda x, y: np.asarray(forcing(x, y), dtype=float) ** 2)
        forcing_l2 = float(np.sqrt(max(squared, 0.0)))
    laplacian = discrete_laplacian(disc, u_steady)
    return SmallnessReport(
        grad_norm=grad_norm,
        convection_constant=constant,
        smallness_bound=bound,
        smallness_bound_loose=loose,
        satisfied=bool(grad_norm <= bound),
        laplacian_norm=l2_norm(laplacian),
        forcing_l2=forcing_l2,
    )
