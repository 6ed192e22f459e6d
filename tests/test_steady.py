import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from burgersfb import assembly, steady
from burgersfb.assembly import Discretization, FeField, interpolate, l2_norm
from burgersfb.mesh import ConfigError, build_unit_square_mesh
from burgersfb.sparse import NonconvergenceError
from burgersfb.steady import (
    AnalyticFunction,
    SteadySpec,
    analytic_from_expression,
    estimate_convection_constant,
    manufactured_solve_spec,
    smallness_report,
    solve_steady,
    steady_residual,
)
from oracles import analytic_from_expression_by_sympy, assemble_mass_by_element, steady_residual_and_gap

NU = 0.1


def shear():
    return analytic_from_expression("-0.2*x1")


def test_analytic_expression_derivatives():
    u = analytic_from_expression("sin(pi*x1)*sin(pi*x2) + 0.2*x1")
    x, y = 0.3, 0.7
    assert u.value(x, y) == pytest.approx(
        np.sin(np.pi * x) * np.sin(np.pi * y) + 0.2 * x, abs=1e-14
    )
    assert u.dx(x, y) == pytest.approx(
        np.pi * np.cos(np.pi * x) * np.sin(np.pi * y) + 0.2, abs=1e-12
    )
    assert u.laplacian(x, y) == pytest.approx(
        -2.0 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y), abs=1e-11
    )


def test_analytic_expression_rejects_unknown_symbols():
    with pytest.raises(ValueError):
        analytic_from_expression("x1 + t")
    # a sympy function outside the grammar is an unknown name too
    with pytest.raises(ValueError, match="unknown symbols"):
        analytic_from_expression("Abs(x1)")


def _shift(bound):
    """An integer above ``bound``: ``shift + v`` is at least 1 wherever ``|v| <= bound``."""
    return int(np.ceil(bound)) + 1


def _guarded(children):
    """One operation on expressions ``(text, bound)``, each with ``|value| <= bound`` on the
    unit square, that keeps every call and power inside its domain there."""
    def call(name, bound, argument=lambda text, b: text):
        return children.map(lambda c: (f"{name}({argument(*c)})", bound(c[1])))

    def binary(op, bound):
        return st.tuples(children, children).map(
            lambda ab: (f"({ab[0][0]}) {op} ({ab[1][0]})", bound(ab[0][1], ab[1][1])))

    shifted = lambda text, b: f"{_shift(b)} + ({text})"
    scaled = lambda text, b: f"({text})/{_shift(b)}"
    small = children.filter(lambda c: c[1] <= 3.0)
    exponents = st.sampled_from([("2", 2.0), ("3", 3.0), ("0.5", 0.5), ("-1", 1.0), ("1.5", 1.5)])
    return st.one_of(
        binary("+", lambda a, b: a + b),
        binary("-", lambda a, b: a + b),
        binary("*", lambda a, b: a * b),
        st.tuples(children, children).map(
            lambda ab: (f"({ab[0][0]})/({shifted(*ab[1])})", ab[0][1])),
        st.tuples(children, exponents | small, st.sampled_from(["**", "^"])).map(
            lambda t: (f"({shifted(*t[0])}){t[2]}({t[1][0]})", (2 * _shift(t[0][1])) ** t[1][1])),
        *(call(name, lambda b: 1.0) for name in ("sin", "cos", "tanh")),
        call("atan", lambda b: np.pi / 2),
        call("tan", lambda b: np.tan(1.0), scaled),
        call("asin", lambda b: np.pi / 2, scaled),
        call("acos", lambda b: np.pi, scaled),
        call("log", lambda b: np.log(2 * _shift(b)), shifted),
        call("sqrt", lambda b: np.sqrt(2 * _shift(b)), shifted),
        *(small.map(lambda c, name=name, f=f: (f"{name}({c[0]})", f(c[1])))
          for name, f in (("exp", np.exp), ("sinh", np.sinh), ("cosh", np.cosh))),
    )


_LEAVES = st.one_of(
    st.sampled_from([("x1", 1.0), ("x2", 1.0), ("pi", np.pi), ("E", np.e)]),
    st.integers(-12, 12).map(lambda k: (repr(k / 4), abs(k / 4))),
)
_EXPRESSIONS = st.recursive(_LEAVES, _guarded, max_leaves=6).filter(lambda e: e[1] <= 100.0)


@settings(max_examples=150, deadline=None)
@given(_EXPRESSIONS)
# "^" is "**", with its precedence over unary minus and the other operators
@example(("x1^3 - log(2+x2)", 0.0))
@example(("-x2^2/2^-1 + (1 + x1)^0.5^2", 0.0))
def test_parser_matches_sympy_on_random_expressions(expression):
    text, _ = expression
    u, reference = analytic_from_expression(text), analytic_from_expression_by_sympy(text)
    x, y = np.meshgrid(np.linspace(0.0, 1.0, 4), np.linspace(0.0, 1.0, 3))
    for name in ("value", "dx", "dy", "laplacian"):
        got, want = getattr(u, name)(x, y), getattr(reference, name)(x, y)
        assert got.shape == x.shape
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want))), (name, text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("sin(", "cannot parse"),
        ("sin(x1, x2)", "cannot parse"),
        ([1, 2], "not a scalar expression"),
        ("x1 == 1", "not a scalar expression"),
        ("True", "not a scalar expression"),
        ("1/0", "finite constants"),
        ("zoo*x1", "finite constants"),
        ("x1 - oo", "finite constants"),
        ("nan*x2", "finite constants"),
        ("I*x1", "not real"),
        ("sqrt(-2)*x2", "not real"),
        ("log(-1)*x1", "not real"),
    ],
)
def test_analytic_expression_rejects_malformed_text(text, message):
    with pytest.raises(ValueError, match=message):
        analytic_from_expression(text)


def test_manufacture_forcing_cases():
    # a closed-form state's spec derives the forcing whose steady state it is
    f = SteadySpec(NU, u_steady=shear()).forcing
    for x, y in ((0.0, 0.0), (0.5, 0.25), (1.0, 1.0)):
        assert f(x, y) == pytest.approx(0.04 * x, abs=1e-14)

    const = analytic_from_expression("3.0")
    f0 = SteadySpec(NU, u_steady=const).forcing
    assert f0(0.3, 0.9) == pytest.approx(0.0, abs=1e-15)

    plane = analytic_from_expression("x1 + x2")
    f2 = SteadySpec(NU, u_steady=plane).forcing
    assert f2(0.25, 0.5) == pytest.approx(2.0 * 0.75, abs=1e-14)


def test_normal_flux_of_linear_state():
    g = SteadySpec(NU, u_steady=shear()).neumann_flux
    assert g(1.0, 0.5, 1.0, 0.0) == pytest.approx(-0.2, abs=1e-15)
    assert g(0.5, 0.0, 0.0, -1.0) == pytest.approx(0.0, abs=1e-15)
    # a forcing spec has zero flux
    assert SteadySpec(NU, forcing=lambda x, y: 0.0).neumann_flux is None


def test_steady_spec_mode_validation():
    with pytest.raises(ValueError):
        SteadySpec(nu=NU, u_steady=shear(), forcing=lambda x, y: 0.0)
    with pytest.raises(ValueError):
        SteadySpec(nu=NU)
    for nu in (-1.0, float("nan")):
        with pytest.raises(ConfigError) as caught:
            SteadySpec(nu=nu, u_steady=shear())
        assert caught.value.field == "nu"


def test_closed_form_state_is_solved_as_its_manufactured_problem(unit4):
    # a closed-form state is solved for, never interpolated: its solution meets the
    # residual of the forcing and flux its spec derives, and manufactured_solve_spec
    # builds the same spec
    for expr, mean in (("-0.2*x1", -0.1), ("0.1*sin(pi*x1)*cos(pi*x2)", 0.05)):
        u = analytic_from_expression(expr)
        spec = SteadySpec(nu=NU, mean_value=mean, u_steady=u)
        field, history = solve_steady(unit4, spec, full_output=True)
        want, want_history = solve_steady(
            unit4, manufactured_solve_spec(u, NU, mean), full_output=True
        )
        assert np.array_equal(field.values, want.values)
        assert history == want_history and len(history) > 1
        assert steady_residual(unit4, field, spec.forcing, NU, spec.neumann_flux) <= 1e-10
        assert not np.array_equal(field.values, interpolate(u.value, unit4).values)


def test_solve_recovers_zero():
    mesh = build_unit_square_mesh(4)
    spec = SteadySpec(nu=NU, mean_value=0.0, forcing=lambda x, y: 0.0)
    field = solve_steady(mesh, spec)
    assert np.max(np.abs(field.values)) <= 1e-12


def test_solve_recovers_linear_states():
    # linear steady states lie in the P1 space: recovery to solver tolerance
    mesh = build_unit_square_mesh(4)
    for expr, mean in (("-0.2*x1", -0.1), ("x1 + x2", 1.0)):
        u = analytic_from_expression(expr)
        field = solve_steady(mesh, manufactured_solve_spec(u, NU, mean))
        exact = interpolate(u.value, mesh)
        assert l2_norm(FeField(mesh, field.values - exact.values)) <= 1e-9


def test_solve_newton_quadratic_convergence():
    mesh = build_unit_square_mesh(8)
    spec = manufactured_solve_spec(analytic_from_expression("x1 + x2"), NU, 1.0)
    _, history = solve_steady(mesh, spec, full_output=True)
    assert history[-1] <= 1e-10
    # once inside the basin, each residual is ~ the square of the previous
    for prev, cur in zip(history, history[1:]):
        if 1e-8 <= prev <= 1e-3:
            assert cur <= 100.0 * prev**2


def test_solve_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(steady, "_STEADY_TOL", 1e-300)
    monkeypatch.setattr(steady, "_STEADY_MAX_ITER", 2)
    mesh = build_unit_square_mesh(2)
    spec = SteadySpec(nu=NU, mean_value=-0.1, forcing=lambda x, y: 0.04 * x)
    with pytest.raises(NonconvergenceError) as info:
        solve_steady(mesh, spec)
    assert len(info.value.residual_history) >= 1


def test_steady_residual_values(unit4):
    zero = FeField(unit4, np.zeros(unit4.num_vertices))
    assert steady_residual(unit4, zero, lambda x, y: 0.0, NU) == 0.0

    spec = manufactured_solve_spec(shear(), NU, -0.1)
    field = solve_steady(unit4, spec)
    got = steady_residual(
        unit4, field, spec.forcing, NU, neumann_flux=spec.neumann_flux
    )
    assert got <= 1e-10

    # a field on another mesh and a viscosity that is not positive are refused
    with pytest.raises(ValueError, match="given mesh"):
        steady_residual(build_unit_square_mesh(4), zero, lambda x, y: 0.0, NU)
    for nu in (0.0, float("nan")):
        with pytest.raises(ConfigError, match="must be positive"):
            steady_residual(unit4, zero, lambda x, y: 0.0, nu)


def test_steady_solve_runs_on_one_fixed_pattern(monkeypatch, mixed8):
    built = []

    class Counted(assembly.Discretization):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    # Discretization assembles every matrix in the package, so this counts them all
    monkeypatch.setattr(assembly, "Discretization", Counted)
    monkeypatch.setattr(steady, "Discretization", Counted)
    spec = manufactured_solve_spec(shear(), NU, -0.1)
    field = solve_steady(mixed8, spec)
    assert len(built) == 1
    built.clear()
    assert steady_residual(mixed8, field, spec.forcing, NU, spec.neumann_flux) <= 1e-10
    assert len(built) == 1


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    n=st.integers(1, 6),
    pinned=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    a=st.floats(-0.5, 0.5),
    b=st.floats(-0.5, 0.5),
    c=st.floats(-0.5, 0.5),
)
def test_steady_solve_meets_element_assembled_residual(jittered_mesh, n, pinned, seed, a, b, c):
    # For a + b < 0 the smallness condition can fail and the solve may land on
    # another discrete solution, so only the residual and the mean are checked.
    mesh = jittered_mesh(n, pinned, np.random.default_rng(seed))
    state = AnalyticFunction(
        value=lambda x, y: a * x + b * y + c,
        dx=lambda x, y: a,
        dy=lambda x, y: b,
        laplacian=lambda x, y: 0.0,
    )
    weights = np.asarray(assemble_mass_by_element(mesh).sum(axis=1)).ravel()
    mean = float(weights @ interpolate(state.value, mesh).values)
    spec = manufactured_solve_spec(state, NU, mean)
    residual, gap = steady_residual_and_gap(solve_steady(mesh, spec), spec)
    assert residual <= 1e-10 + 1e-13
    assert abs(gap) <= 1e-10


def test_steady_residual_decreases_under_refinement():
    # interpolant of a curved state is only consistent up to O(h) residuals
    u = analytic_from_expression("0.05*cos(pi*x1)*cos(pi*x2)")
    f = SteadySpec(NU, u_steady=u).forcing
    values = []
    for n in (4, 8, 16):
        mesh = build_unit_square_mesh(n)
        values.append(steady_residual(mesh, interpolate(u.value, mesh), f, NU))
    assert values[1] <= values[0] and values[2] <= values[1]


def test_solve_curved_state_second_order():
    # cos*cos state has zero boundary flux, so the plain solve applies;
    # interpolant distance shrinks at second order
    u = analytic_from_expression("0.05*cos(pi*x1)*cos(pi*x2)")
    f = SteadySpec(NU, u_steady=u).forcing
    errors = []
    for n in (4, 8, 16):
        mesh = build_unit_square_mesh(n)
        spec = SteadySpec(nu=NU, mean_value=0.0, forcing=f)
        field = solve_steady(mesh, spec)
        exact = interpolate(u.value, mesh)
        errors.append(l2_norm(FeField(mesh, field.values - exact.values)))
    rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(rates >= 1.7)


def test_estimate_convection_constant_properties(unit4):
    disc = Discretization(unit4)
    first = estimate_convection_constant(disc)
    again = estimate_convection_constant(disc)
    assert first == again  # deterministic: one fixed seed
    assert first > 0.0


def test_smallness_report_cases(unit4):
    zero = FeField(unit4, np.zeros(unit4.num_vertices))
    report = smallness_report(zero, SteadySpec(NU, forcing=lambda x, y: 0.0))
    assert report.grad_norm == 0.0
    assert report.forcing_l2 == 0.0
    assert report.satisfied

    u = interpolate(lambda x, y: -0.2 * x, unit4)
    spec = SteadySpec(NU, u_steady=shear())
    report = smallness_report(u, spec)
    assert report.grad_norm == pytest.approx(0.2, abs=1e-12)
    assert report.bound_loose == pytest.approx(3.0 * report.bound, abs=1e-12)
    assert report.forcing_l2 > 0.0

    # the spec the report reads its viscosity from checks it
    with pytest.raises(ConfigError) as caught:
        smallness_report(u, SteadySpec(0.0, u_steady=shear()))
    assert (caught.value.field, caught.value.requirement) == ("nu", "must be positive")

    doubled = smallness_report(FeField(unit4, 2.0 * u.values), spec)
    assert doubled.grad_norm == pytest.approx(2.0 * report.grad_norm, abs=1e-12)
