import numpy as np
import pytest
import scipy.sparse as sp

from burgersfb.assembly import assemble_mass, assemble_stiffness, interpolate
from burgersfb.mesh import build_unit_square_mesh
from burgersfb.sparse import (
    Factorization,
    SingularMatrixError,
    solve_bordered,
    solve_general,
)


def test_solve_general_mass_matrix_rhs(unit4):
    mass = assemble_mass(unit4)
    ones = np.ones(unit4.num_vertices)
    b = mass @ ones
    x = solve_general(mass, b)
    assert np.linalg.norm(mass @ x - b) <= 1e-12 * np.linalg.norm(b)
    assert np.allclose(x, ones, atol=1e-9)


def test_solve_general_identity_and_permutation():
    eye = sp.identity(3, format="csr")
    b = np.array([5.0, 6.0, 7.0])
    assert np.array_equal(solve_general(eye, b), b)

    swap = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.array_equal(solve_general(swap, np.array([3.0, 4.0])), [4.0, 3.0])


def test_solve_general_recovers_known_solution(rng):
    n = 50
    dense = np.eye(n) * 4.0
    for _ in range(4 * n):
        i, j = rng.integers(0, n, size=2)
        dense[i, j] += rng.uniform(-1.0, 1.0)
    a = sp.csr_matrix(dense)
    x_star = rng.standard_normal(n)
    x = solve_general(a, a @ x_star)
    assert np.linalg.norm(x - x_star) <= 1e-9 * np.linalg.norm(x_star)


def test_solve_general_singular_raises():
    singular = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        solve_general(singular, np.array([1.0, 0.0]))


def random_system(rng, n=50):
    dense = np.eye(n) * 4.0
    for _ in range(4 * n):
        i, j = rng.integers(0, n, size=2)
        dense[i, j] += rng.uniform(-1.0, 1.0)
    return sp.csc_matrix(dense)


def test_solve_general_is_one_factorization_solve(rng):
    a = random_system(rng)
    b = rng.standard_normal(a.shape[0])
    assert np.array_equal(solve_general(a, b), Factorization(a).solve(b))


def test_factorization_serves_several_right_hand_sides(rng):
    a = random_system(rng)
    factor = Factorization(a)
    assert factor.norm_inf == pytest.approx(np.max(np.abs(a.toarray()).sum(axis=1)), rel=1e-14)
    for _ in range(4):
        x_star = rng.standard_normal(a.shape[0])
        x = factor.solve(a @ x_star)
        assert np.linalg.norm(x - x_star) <= 1e-9 * np.linalg.norm(x_star)
    with pytest.raises(ValueError):
        factor.solve(np.ones(a.shape[0] + 1))


def test_factorization_certificate_raises(rng):
    with pytest.raises(SingularMatrixError):
        Factorization(sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])))
    # the certificate is checked against the held matrix: a factor that no
    # longer matches it (here, data changed in place) cannot certify a solve
    a = random_system(rng)
    factor = Factorization(a)
    b = rng.standard_normal(a.shape[0])
    factor.solve(b)
    a.data *= 1.001
    with pytest.raises(SingularMatrixError, match="certificate") as info:
        factor.solve(b)
    assert info.value.residual > 0.0


def test_bordered_pure_constraint():
    x, mu = solve_bordered(sp.csr_matrix((1, 1)), np.array([1.0]), np.array([0.0]), 5.0)
    assert x[0] == pytest.approx(5.0, abs=1e-12)
    assert mu == pytest.approx(0.0, abs=1e-12)


def test_bordered_stiffness_zero_rhs():
    mesh = build_unit_square_mesh(2)
    stiffness = assemble_stiffness(mesh)
    mass = assemble_mass(mesh)
    row = np.asarray(mass.sum(axis=1)).ravel()
    x, _ = solve_bordered(stiffness, row, np.zeros(mesh.num_vertices), 0.0)
    assert np.linalg.norm(x) <= 1e-12


def test_bordered_poisson_with_zero_mean():
    mesh = build_unit_square_mesh(4)
    stiffness = assemble_stiffness(mesh)
    mass = assemble_mass(mesh)
    row = np.asarray(mass.sum(axis=1)).ravel()
    f = interpolate(lambda x, y: np.cos(np.pi * x), mesh).values
    f -= (row @ f) / row.sum()  # zero mass-weighted mean
    b = mass @ f
    x, mu = solve_bordered(stiffness, row, b, 0.0)
    # K x + mu c = b exactly; the multiplier should vanish for zero-mean data
    assert np.linalg.norm(stiffness @ x + mu * row - b) <= 1e-10
    assert abs(mu) <= 1e-10
    assert abs(row @ x) <= 1e-10


def test_bordered_rejects_zero_constraint():
    with pytest.raises(ValueError):
        solve_bordered(sp.identity(2, format="csr"), np.zeros(2), np.zeros(2), 0.0)
