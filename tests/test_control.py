import numpy as np
import pytest

from burgersfb.assembly import (
    _EDGE_POINTS,
    _EDGE_WEIGHTS,
    FeField,
    boundary_quadrature,
    interpolate,
)
from burgersfb.control import (
    ACTIVE_TAGS,
    ControlParams,
    NoActiveBoundaryError,
    _Feedback,
)
from burgersfb.evolution import EvolutionConfig, run
from burgersfb.mesh import BoundaryTag, ConfigError, build_unit_square_mesh, tag_boundary
from oracles import (
    assemble_boundary_mass,
    boundary_cubic_jacobian,
    boundary_cubic_residual,
    control_boundary_l2,
    control_trace,
    trace_values,
)

NU = 0.1
C0 = 1.0


def params():
    return ControlParams(nu=NU, c0=C0)


def constant_field(mesh, value):
    return FeField(mesh, np.full(mesh.num_vertices, value))


def weak_terms(u_steady, p, w):
    """Feedback boundary terms of the weak form, from the public assemblers.

    Returns the boundary mass matrix weighted by ``c0 + nu + 2 |u_steady|``,
    the cubic load ``(2 / (9 c0)) integral of w^3 phi_i`` and its Jacobian,
    all on the active tags.
    """
    coeff = p.c0 + p.nu + 2.0 * np.abs(trace_values(u_steady, ACTIVE_TAGS))
    scale = 2.0 / (9.0 * p.c0)
    return (
        assemble_boundary_mass(w.mesh, coeff, ACTIVE_TAGS),
        scale * boundary_cubic_residual(w, ACTIVE_TAGS),
        scale * boundary_cubic_jacobian(w, ACTIVE_TAGS),
    )


def test_params_validation():
    nan = float("nan")
    for field, nu, c0 in (("nu", 0.0, 1.0), ("c0", 0.1, -1.0), ("nu", nan, 1.0), ("c0", 0.1, nan)):
        with pytest.raises(ConfigError) as caught:
            ControlParams(nu=nu, c0=c0)
        assert caught.value.field == field


@pytest.mark.parametrize("mesh_name", ["unit4", "mixed8"])
def test_feedback_flux_and_norm_match_the_law_written_out(mesh_name, request, rng):
    # _Feedback against the law written out from the traces in tests/oracles.py
    mesh = request.getfixturevalue(mesh_name)
    bq = boundary_quadrature(mesh, ACTIVE_TAGS)
    active = np.isin(mesh.boundary_tags, ACTIVE_TAGS)
    for _ in range(5):
        u_steady = FeField(mesh, rng.standard_normal(mesh.num_vertices))
        w = FeField(mesh, 2.0 * rng.standard_normal(mesh.num_vertices))
        p = ControlParams(nu=rng.uniform(0.05, 1.0), c0=rng.uniform(0.1, 5.0))
        flux = _Feedback(bq, u_steady, p).flux(trace_values(w, ACTIVE_TAGS))
        expected = control_trace(w, u_steady, p)
        assert np.allclose(flux, expected[active], rtol=1e-14, atol=0.0)
        assert bq.l2(flux) == pytest.approx(
            control_boundary_l2(w, u_steady, p), rel=1e-14, abs=0.0
        )


def test_trace_vanishes_at_equilibrium(unit4):
    w = constant_field(unit4, 0.0)
    u_steady = interpolate(lambda x, y: -0.2 * x, unit4)
    assert np.all(control_trace(w, u_steady, params()) == 0.0)


def test_trace_spot_values(unit4):
    # grid values from the law: -(1/nu)((c0+nu+2|u|)w + (2/(9 c0)) w^3)
    u_steady = constant_field(unit4, -0.2)
    w = constant_field(unit4, 0.5)
    trace = control_trace(w, u_steady, params())
    active = np.isin(unit4.boundary_tags, ACTIVE_TAGS)
    assert np.allclose(trace[active], -70.0 / 9.0, atol=1e-12)

    w1 = constant_field(unit4, 1.0)
    zero_steady = constant_field(unit4, 0.0)
    trace = control_trace(w1, zero_steady, params())
    assert np.allclose(trace[active], -119.0 / 9.0, atol=1e-12)


def test_trace_is_odd_in_w(unit4, rng):
    u_steady = interpolate(lambda x, y: -0.2 * x, unit4)
    w = FeField(unit4, rng.standard_normal(unit4.num_vertices))
    minus = FeField(unit4, -w.values)
    forward = control_trace(w, u_steady, params())
    backward = control_trace(minus, u_steady, params())
    assert np.allclose(forward + backward, 0.0, atol=1e-13)


def test_trace_zero_on_inactive_edges(mixed8):
    w = constant_field(mixed8, 1.0)
    u_steady = constant_field(mixed8, 0.0)
    trace = control_trace(w, u_steady, params())
    inactive = mixed8.boundary_tags == BoundaryTag.DIRICHLET_ZERO
    assert np.all(trace[inactive] == 0.0)
    assert np.all(trace[~inactive] != 0.0)


def test_no_active_boundary_raises(unit4):
    all_sides = [
        ((0.0, 0.0), (1.0, 0.0)),
        ((1.0, 0.0), (1.0, 1.0)),
        ((0.0, 1.0), (1.0, 1.0)),
        ((0.0, 0.0), (0.0, 1.0)),
    ]
    all_dirichlet = tag_boundary(unit4, all_sides)
    w = constant_field(all_dirichlet, 1.0)
    with pytest.raises(NoActiveBoundaryError):
        _Feedback(boundary_quadrature(all_dirichlet, ACTIVE_TAGS), w, params())
    cfg = EvolutionConfig(nu=NU, k=0.01, t_end=0.01, control=params())
    with pytest.raises(NoActiveBoundaryError):
        run(w, cfg, all_dirichlet, w)


def test_weak_terms_linear_sum(unit4):
    u_steady = constant_field(unit4, 0.0)
    w = constant_field(unit4, 0.0)
    linear, cubic_vec, cubic_jac = weak_terms(u_steady, params(), w)
    # coefficient c0 + nu + 0 over perimeter 4
    assert linear.sum() == pytest.approx(4.4, abs=1e-12)
    assert np.all(cubic_vec == 0.0)
    assert cubic_jac.nnz == 0 or np.max(np.abs(cubic_jac.data)) == 0.0


def test_weak_terms_partial_boundary_locality(mixed8):
    u_steady = constant_field(mixed8, 0.0)
    w = constant_field(mixed8, 1.0)
    linear, cubic_vec, _ = weak_terms(u_steady, params(), w)
    on_dirichlet = np.isclose(mixed8.vertices[:, 0], 1.0)
    coo = linear.tocoo()
    # matrix rows/cols live away from the Dirichlet side except its corners
    corners = np.isclose(mixed8.vertices[:, 1], 0.0) | np.isclose(
        mixed8.vertices[:, 1], 1.0
    )
    allowed = ~on_dirichlet | corners
    assert np.all(allowed[coo.row]) and np.all(allowed[coo.col])
    # cubic load follows the same support
    assert np.all(cubic_vec[on_dirichlet & ~corners] == 0.0)


def test_weak_terms_match_trace_quadrature(unit4, rng):
    # assembled boundary terms = quadrature sums of -nu * trace * basis
    u_steady = interpolate(lambda x, y: -0.2 * x, unit4)
    w = FeField(unit4, rng.standard_normal(unit4.num_vertices))
    linear, cubic_vec, _ = weak_terms(u_steady, params(), w)
    assembled = linear @ w.values + cubic_vec

    trace = control_trace(w, u_steady, params())
    bq = boundary_quadrature(unit4, ACTIVE_TAGS)
    active = np.isin(unit4.boundary_tags, ACTIVE_TAGS)
    expected = np.zeros(unit4.num_vertices)
    contrib = (-NU) * trace[active] * _EDGE_WEIGHTS[None, :] * bq.lengths[:, None]
    for e, (v0, v1) in enumerate(bq.edges):
        expected[v0] += contrib[e] @ (1.0 - _EDGE_POINTS)
        expected[v1] += contrib[e] @ _EDGE_POINTS
    scale = max(1.0, np.max(np.abs(expected)))
    assert np.max(np.abs(assembled - expected)) <= 1e-13 * scale


def test_boundary_power_is_dissipative(unit4, rng):
    u_steady = interpolate(lambda x, y: -0.2 * x, unit4)
    for _ in range(10):
        w = FeField(unit4, rng.standard_normal(unit4.num_vertices))
        linear, cubic_vec, _ = weak_terms(u_steady, params(), w)
        power = w.values @ (linear @ w.values) + w.values @ cubic_vec
        assert power >= 0.0

    # power vanishes only for fields that vanish on the active boundary
    interior_bump = np.zeros(unit4.num_vertices)
    interior = ~np.isclose(unit4.vertices, 0.0).any(axis=1)
    interior &= ~np.isclose(unit4.vertices, 1.0).any(axis=1)
    interior_bump[interior] = 1.0
    w0 = FeField(unit4, interior_bump)
    linear, cubic_vec, _ = weak_terms(u_steady, params(), w0)
    assert w0.values @ (linear @ w0.values) + w0.values @ cubic_vec == pytest.approx(
        0.0, abs=1e-14
    )


def test_control_norm_values(unit4):
    zero = constant_field(unit4, 0.0)
    u_steady = constant_field(unit4, 0.0)
    assert control_boundary_l2(zero, u_steady, params()) == 0.0

    one = constant_field(unit4, 1.0)
    assert control_boundary_l2(one, u_steady, params()) == pytest.approx(
        (119.0 / 9.0) * 2.0, abs=1e-12
    )

    # halving w: linear part scales by 1/2, cubic by 1/8
    half = constant_field(unit4, 0.5)
    full_norm = control_boundary_l2(one, u_steady, params())
    half_norm = control_boundary_l2(half, u_steady, params())
    assert full_norm / 8.0 <= half_norm <= full_norm / 2.0
