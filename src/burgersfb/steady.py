"""Steady states of the forced Burgers equation and their diagnostics.

The steady problem is pure Neumann, so its solution is fixed only up to the
choice of mean; the solver pins the mass-weighted mean through a bordered
Newton iteration, whose bordered solve (:func:`_bordered_solve`, block
elimination on the band LU) lives here beside it.  Closed-form data is text in x1 and x2, which
:func:`analytic_from_expression` parses and differentiates symbolically.
Every steady state is solved for: closed-form forcing with zero flux
directly, and a closed-form state as the manufactured problem (forcing and
flux) that :class:`SteadySpec` derives from it.  The module also estimates the
continuity constant of the convection form by random sampling and reports
the smallness quantities the stabilization analysis relies on.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass, field
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
    l2_norm,
    load_vector,
)
from .mesh import ConfigError, Mesh
from .sparse import NonconvergenceError, SingularMatrixError

__all__ = [
    "AnalyticFunction",
    "SmallnessReport",
    "SteadySpec",
    "analytic_from_expression",
    "estimate_convection_constant",
    "manufactured_solve_spec",
    "smallness_report",
    "solve_steady",
    "steady_residual",
]

_STEADY_TOL = 1e-10
_STEADY_MAX_ITER = 50
# the sampled triples of estimate_convection_constant and the seed of their rng stream
_CONVECTION_SAMPLES, _CONVECTION_SEED = 64, 0


@dataclass(frozen=True)
class AnalyticFunction:
    """Closed-form function of (x1, x2) with first derivatives and Laplacian."""

    value: Callable
    dx: Callable
    dy: Callable
    laplacian: Callable


# An expression node is ("const", value), ("x", name) for a variable, or (op, *operands)
# with op a key of _RULES: its numpy function and its derivative in the operands a, b
# and their derivatives da, db.  _node folds variable-free operations to constants.
_RULES = {
    "+": (operator.add, "da + db"),
    "-": (operator.sub, "da - db"),
    "*": (operator.mul, "da*b + a*db"),
    "/": (operator.truediv, "da/b - a*db/b**2"),
    "**": (operator.pow, "b*a**(b - 1)*da + a**b*log(a)*db"),
    "sin": (np.sin, "cos(a)*da"),
    "cos": (np.cos, "-sin(a)*da"),
    "tan": (np.tan, "(1 + tan(a)**2)*da"),
    "exp": (np.exp, "exp(a)*da"),
    "log": (np.log, "da/a"),
    "sqrt": (np.sqrt, "0.5/sqrt(a)*da"),
    "sinh": (np.sinh, "cosh(a)*da"),
    "cosh": (np.cosh, "sinh(a)*da"),
    "tanh": (np.tanh, "(1 - tanh(a)**2)*da"),
    "asin": (np.arcsin, "da/sqrt(1 - a**2)"),
    "acos": (np.arccos, "-da/sqrt(1 - a**2)"),
    "atan": (np.arctan, "da/(1 + a**2)"),
}
_SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/", ast.Pow: "**"}
_FUNCTIONS = _RULES.keys() - _SYMBOLS.values()
_NOT_FINITE = "is not a scalar expression with finite constants"
# pi and E; sympy's infinities and nan are rejected as not finite, its I as not real
_CONSTANTS = {"pi": np.pi, "E": np.e, "oo": np.inf, "zoo": np.inf, "nan": np.inf, "I": 1j}
_ZERO, _ONE = ("const", 0.0), ("const", 1.0)


def _const(value) -> tuple:
    """A constant node; a NaN or complex value is not real, an infinite one not finite."""
    value = complex(value)
    if value.imag or np.isnan(value.real):
        raise ValueError("is not real")
    if np.isinf(value.real):
        raise ValueError(_NOT_FINITE)
    return ("const", np.float64(value.real))


def _node(op: str, *args) -> tuple:
    """``op`` of ``args``: folded to a constant if every operand is one, and with the
    identities of 0 and 1 applied."""
    if all(arg[0] == "const" for arg in args):
        with np.errstate(all="ignore"):
            return _const(_RULES[op][0](*(arg[1] for arg in args)))
    if len(args) == 2:
        a, b = args
        if b == _ZERO and op in ("+", "-") or b == _ONE and op in ("*", "/", "**"):
            return a
        if a == _ZERO and op == "+" or a == _ONE and op == "*":
            return b
        if _ZERO in (a, b) and op == "*" or a == _ZERO and op == "/":
            return _ZERO
        if b == _ZERO and op == "**":
            return _ONE
    return (op, *args)


def _build(node: ast.AST, variables) -> tuple:
    """The expression node of a parsed ``ast`` node; ``SyntaxError`` outside the grammar."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex):
        return _const(node.value)
    if isinstance(node, ast.Name) and node.id in variables:
        return ("x", node.id)
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        return _const(_CONSTANTS[node.id])
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        operand = _build(node.operand, variables)
        return operand if isinstance(node.op, ast.UAdd) else _node("*", ("const", -1.0), operand)
    if isinstance(node, ast.BinOp) and type(node.op) in _SYMBOLS:
        left, right = _build(node.left, variables), _build(node.right, variables)
        return _node(_SYMBOLS[type(node.op)], left, right)
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) in _FUNCTIONS:
        if len(node.args) != 1 or node.keywords or isinstance(node.args[0], ast.Starred):
            raise SyntaxError(f"{node.func.id} takes one argument")
        return _node(node.func.id, _build(node.args[0], variables))
    if isinstance(node, (ast.Constant, ast.Compare, ast.BoolOp, ast.Tuple, ast.List, ast.Set,
                         ast.Dict, ast.UnaryOp)):
        raise ValueError(_NOT_FINITE)
    raise SyntaxError(f"{ast.unparse(node)!r} is not a sum, product, quotient, power or call")


def _parse(text: str, variables=("x1", "x2")) -> tuple:
    tree = ast.parse(text.replace("^", "**"), mode="eval")
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unknown = names - set(variables) - _CONSTANTS.keys() - _FUNCTIONS
    if unknown:
        raise ValueError(f"uses unknown symbols {sorted(unknown)}")
    return _build(tree.body, variables)


_DERIVATIVES = {op: _parse(rule, ("a", "b", "da", "db")) for op, (_, rule) in _RULES.items()}


def _substitute(node: tuple, variables: dict) -> tuple:
    if node[0] == "const":
        return node
    if node[0] == "x":
        return variables[node[1]]
    return _node(node[0], *(_substitute(arg, variables) for arg in node[1:]))


def _derivative(node: tuple, variable: str) -> tuple:
    """The derivative of ``node`` in ``variable``, by the rules of ``_RULES``."""
    if node[0] in ("const", "x"):
        return _ONE if node == ("x", variable) else _ZERO
    operands = dict(zip(("a", "b"), node[1:]))
    operands.update({"d" + name: _derivative(arg, variable) for name, arg in operands.items()})
    return _substitute(_DERIVATIVES[node[0]], operands)


def _evaluate(node: tuple, point: dict):
    if node[0] in ("const", "x"):
        return node[1] if node[0] == "const" else point[node[1]]
    return _RULES[node[0]][0](*(_evaluate(arg, point) for arg in node[1:]))


def _callable(node: tuple) -> Callable:
    def wrapped(x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return np.asarray(_evaluate(node, {"x1": x, "x2": y}), dtype=float) * np.ones_like(x)

    return wrapped


def analytic_from_expression(expr: str) -> AnalyticFunction:
    """Parse an expression in x1, x2 and differentiate it symbolically.

    The grammar: numbers, ``x1``, ``x2``, ``pi``, ``E``, unary ``+``/``-``,
    ``+ - * / **`` (``^`` means ``**``) and one-argument calls to the
    functions of ``_RULES``.  Variable-free subexpressions are folded to
    constants once.  The returned callables are numpy-vectorized.
    Malformed text, a name outside the grammar, a non-finite constant and
    an expression with an imaginary part raise ``ValueError``.
    """
    if not isinstance(expr, str):
        raise ValueError(f"expression {expr!r} {_NOT_FINITE}")
    try:
        value = _parse(expr)
        dx, dy = _derivative(value, "x1"), _derivative(value, "x2")
        laplacian = _node("+", _derivative(dx, "x1"), _derivative(dy, "x2"))
    except (SyntaxError, RecursionError) as exc:
        raise ValueError(f"cannot parse expression {expr!r}: {exc}") from None
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"expression {expr!r} {exc}") from None
    return AnalyticFunction(*map(_callable, (value, dx, dy, laplacian)))


@dataclass(frozen=True)
class SteadySpec:
    """Steady-state problem description.

    Exactly one of ``u_steady`` (closed-form state) and ``forcing``
    (closed-form forcing) must be given.  A ``u_steady`` spec derives the
    manufactured problem whose exact solution it is: ``forcing`` becomes
    ``-nu lap(u) + u (du/dx1 + du/dx2)`` and ``neumann_flux`` the normal
    derivative ``du/dn``, a callable ``(x, y, nx, ny)``; a ``forcing`` spec
    has zero flux (``neumann_flux`` is ``None``).  The
    constant test function is owned by the mean constraint, so any
    compatibility defect in the data (e.g. quadrature error on a
    transcendental forcing) lands in the constraint multiplier instead of
    blocking convergence.
    """

    nu: float
    mean_value: float = 0.0
    u_steady: AnalyticFunction | None = None
    forcing: Callable | None = None
    neumann_flux: Callable | None = field(default=None, init=False)

    def __post_init__(self):
        if not 0.0 < self.nu < np.inf:
            raise ConfigError("nu", "must be positive", self.nu)
        if not -np.inf < self.mean_value < np.inf:
            raise ConfigError("mean_value", "must be finite", self.mean_value)
        if (self.u_steady is None) == (self.forcing is None):
            raise ValueError("specify exactly one of u_steady and forcing")
        u, nu = self.u_steady, self.nu
        if u is not None:

            def forcing(x, y):
                return -nu * u.laplacian(x, y) + u.value(x, y) * (u.dx(x, y) + u.dy(x, y))

            def flux(x, y, nx, ny):
                return u.dx(x, y) * nx + u.dy(x, y) * ny

            object.__setattr__(self, "forcing", forcing)
            object.__setattr__(self, "neumann_flux", flux)


def manufactured_solve_spec(u: AnalyticFunction, nu: float, mean_value: float) -> SteadySpec:
    """The spec whose exact solution is the manufactured state ``u``."""
    return SteadySpec(nu, mean_value, u_steady=u)


def _steady_system(mesh: Mesh, spec: SteadySpec, neumann_flux):
    """``(disc, residual, constraint)`` on one fixed pattern: ``residual(u)`` is
    ``(nu K u + T(u) u - load, disc.gather(u))``, ``constraint`` the mass row sums;
    the load is ``spec.forcing``'s plus ``nu`` times that of ``neumann_flux``, if any."""
    disc = Discretization(mesh)
    viscous = disc.matrix(spec.nu * disc.stiffness)
    load = load_vector(mesh, spec.forcing)
    if neumann_flux is not None:
        load = load + spec.nu * boundary_load(mesh, neumann_flux)

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


def _bordered_solve(disc, data, constraint, rhs, value: float):
    """``(x, mu)`` with ``J x + mu c = rhs`` and ``c . x = value``, ``J`` the CSC ``data``
    on the pattern of the :class:`Discretization` ``disc`` and ``c`` the ``constraint``
    row.

    Block elimination (Govaerts, SIAM 2000, ch. 3; Chan, SIAM J. Numer. Anal. 21, 1984)
    on the band LU of ``J + alpha e_i e_i^T``, ``i`` the largest entry of ``c`` and
    ``alpha = |J_ii|``, which deflates J's near-null constant mode: certified solves of
    ``rhs``, ``e_i`` and ``c`` give ``x = a + alpha x_i b - mu d``, with ``(x_i, mu)``
    from a 2 x 2 system, whose singularity raises :class:`SingularMatrixError`.  One
    refinement step on the bordered residual (Govaerts & Pryce, BIT 30, 1990) bounds
    the error by the bordered matrix's condition, not the deflated one's.
    """
    i = int(np.argmax(constraint))
    slot = disc.indptr[i] + np.searchsorted(disc.indices[disc.indptr[i] : disc.indptr[i + 1]], i)
    alpha = abs(data[slot])
    pinned = data.copy()
    pinned[slot] += alpha
    factor = disc.factor(pinned)
    b, d = factor.solve(np.eye(1, rhs.size, i)[0]), factor.solve(constraint)
    system = [[1.0 - alpha * b[i], d[i]], [alpha * (constraint @ b), -(constraint @ d)]]

    def eliminate(r, gap):
        a = factor.solve(r)
        try:
            x_i, mu = np.linalg.solve(system, [a[i], gap - constraint @ a])
        except np.linalg.LinAlgError as exc:
            raise SingularMatrixError(f"bordered system is singular: {exc}") from exc
        return a + alpha * x_i * b - mu * d, mu

    x, mu = eliminate(rhs, value)
    dx, dmu = eliminate(rhs - disc.matrix(data) @ x - mu * constraint, value - constraint @ x)
    return x + dx, float(mu + dmu)


def solve_steady(mesh: Mesh, spec: SteadySpec, full_output: bool = False):
    """Solve the steady problem with the mean pinned to ``spec.mean_value``.

    A ``u_steady`` spec is solved as the manufactured problem it derives.
    Newton's method from zero on the discrete residual, augmented by the
    mass-weighted mean constraint through a bordered solve on the band LU
    (:func:`_bordered_solve`).  A full step
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
    SingularMatrixError
        When a Newton step's factor, solves or 2 x 2 system fail.
    """
    disc, residual_at, constraint = _steady_system(mesh, spec, spec.neumann_flux)
    unit_constraint = constraint / np.linalg.norm(constraint)
    u = np.zeros(mesh.num_vertices)
    residual, gathered = residual_at(u)
    res_norm = _quotient_norm(residual, unit_constraint)
    history = [res_norm]
    for iteration in range(_STEADY_MAX_ITER + 1):
        mean_gap = spec.mean_value - float(constraint @ u)
        if res_norm <= _STEADY_TOL and abs(mean_gap) <= 1e-10:
            solution = FeField(mesh, u)
            return (solution, history) if full_output else solution
        if iteration == _STEADY_MAX_ITER:
            break
        jac = spec.nu * disc.stiffness + disc.jacobian(*gathered[:2])
        delta, _ = _bordered_solve(disc, jac, constraint, -residual, mean_gap)
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
                "steady Newton step increased the residual through 8 halvings", history)
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
    spec = SteadySpec(nu=nu, forcing=forcing)
    _, residual, constraint = _steady_system(mesh, spec, neumann_flux)
    return _quotient_norm(residual(u.values)[0], constraint / np.linalg.norm(constraint))


def estimate_convection_constant(disc: Discretization) -> float:
    """Sampled lower bound on the continuity constant of the convection form.

    Draws ``_CONVECTION_SAMPLES`` (64) random triples of zero-mean nodal fields
    on the mesh of ``disc``, from one rng stream seeded ``_CONVECTION_SEED`` (0),
    and maximizes ``|c(v; w, z)| / (|v|_1 |w|_1 |z|_1)`` over them, where
    ``|.|_1`` is the H1 seminorm.  Triples containing a numerically constant
    field are skipped.
    """
    rng = np.random.default_rng(_CONVECTION_SEED)
    mesh = disc.mesh
    stiffness = disc.matrix(disc.stiffness)
    weights = np.bincount(disc.indices, disc.mass, mesh.num_vertices)
    volume = float(weights.sum())
    best, valid = 0.0, 0
    for _ in range(_CONVECTION_SAMPLES):
        triple, seminorms = [], []
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
    ``bound = nu / (4 N)`` with N the sampled convection constant; the looser
    ``bound_loose = 3 nu / (4 N)`` is reported alongside.  ``forcing_l2`` is the
    L2 norm of the forcing, the computable proxy for its negative-norm
    smallness.  ``laplacian_norm`` is the L2 norm of the zero-flux discrete
    Laplacian of the steady state.
    """

    grad_norm: float
    convection_constant: float
    bound: float
    bound_loose: float
    satisfied: bool
    laplacian_norm: float
    forcing_l2: float


def smallness_report(u_steady: FeField, spec: SteadySpec) -> SmallnessReport:
    """Evaluate the smallness quantities for a computed steady state ``u_steady``
    of ``spec``, on the field's mesh, with the spec's forcing and viscosity."""
    mesh = u_steady.mesh
    grad_norm = h1_seminorm(u_steady)
    disc = Discretization(mesh)
    constant = estimate_convection_constant(disc)
    bound = spec.nu / (4.0 * constant)
    loose = 3.0 * spec.nu / (4.0 * constant)
    squared = integrate(mesh, lambda x, y: np.asarray(spec.forcing(x, y), dtype=float) ** 2)
    forcing_l2 = float(np.sqrt(max(squared, 0.0)))
    laplacian = discrete_laplacian(disc, u_steady)
    return SmallnessReport(
        grad_norm=grad_norm,
        convection_constant=constant,
        bound=bound,
        bound_loose=loose,
        satisfied=bool(grad_norm <= bound),
        laplacian_norm=l2_norm(laplacian),
        forcing_l2=forcing_l2,
    )
