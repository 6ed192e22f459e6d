import ctypes
import gc
import itertools
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgbtrf, dgbtrs

import burgersfb
from burgersfb import sparse
from burgersfb.assembly import Discretization, FeField, interpolate
from burgersfb.control import ControlParams
from burgersfb.evolution import EvolutionConfig, _Trajectory, run
from burgersfb.mesh import build_unit_square_mesh, refine_uniform, tag_boundary
from burgersfb.sparse import Factorization, SingularMatrixError
from burgersfb.steady import (
    _bordered_solve,
    analytic_from_expression,
    manufactured_solve_spec,
    solve_steady,
)
from oracles import (
    SuperLU,
    assemble_mass_by_element,
    assemble_stiffness_by_element,
    full_band,
    scipy_csc,
    solve_bordered,
    solve_general,
)

# the full-band references call scipy's own OpenBLAS: on one thread, as the package's band
# factor runs, since with two the first width-66 factor in a process sometimes waits ~1 s
_scipy_set_threads = ctypes.CDLL(scipy.linalg._flapack.__file__).scipy_openblas_set_num_threads
_scipy_set_threads.argtypes, _scipy_set_threads.restype = [ctypes.c_int], None
_scipy_set_threads(1)


def test_solve_general_mass_matrix_rhs(unit4):
    mass = assemble_mass_by_element(unit4)
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
    assert np.array_equal(solve_general(a, b), SuperLU(a).solve(b))


def test_factorization_serves_several_right_hand_sides(rng):
    a = random_system(rng)
    factor = Factorization(a, full_band(a))
    assert sparse._norm_inf(a) == pytest.approx(np.max(np.abs(a.toarray()).sum(axis=1)),
                                                rel=1e-14)
    for _ in range(4):
        x_star = rng.standard_normal(a.shape[0])
        x = factor.solve(a @ x_star)
        assert np.linalg.norm(x - x_star) <= 1e-9 * np.linalg.norm(x_star)
    # one right-hand side per call: a 2-D or 0-d b is rejected before any solve
    for b in (np.ones(a.shape[0] + 1), np.ones((a.shape[0], 3)), np.ones((a.shape[0], 1)),
              np.ones(())):
        with pytest.raises(ValueError, match="does not match"):
            factor.solve(b)


def test_certificate_sums_the_matrix_norm_only_when_needed(rng, monkeypatch):
    # an accurate solve leaves a residual far below 1e-10 ||b||, which certifies it alone;
    # the factor caches no norm, since no run reaches the fallback that sums one
    a = random_system(rng)
    factor = Factorization(a, full_band(a))
    norm_inf, summed = sparse._norm_inf, []
    monkeypatch.setattr(sparse, "_norm_inf", lambda m: summed.append(m) or norm_inf(m))
    factor.solve(a @ rng.standard_normal(a.shape[0]))
    assert summed == [] and not hasattr(factor, "norm_inf")


def test_norm_inf_sums_rows_in_either_format():
    # row sums 6, 2, 3.5 and column sums 1.5, 7, 3: a column sum would read 7
    dense = np.array([[1.0, -5.0, 0.0], [0.0, 2.0, 0.0], [0.5, 0.0, -3.0]])
    a = sp.csc_matrix(dense)
    assert sparse._norm_inf(a) == abs(a).toarray().sum(axis=1).max() == 6.0


def test_factorization_certificate_raises(rng):
    singular = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(SingularMatrixError):
        Factorization(singular, full_band(singular))
    # the certificate is checked against the held matrix: a factor that no
    # longer matches it (here, data changed in place) cannot certify a solve
    a = random_system(rng)
    factor = Factorization(a, full_band(a))
    b = rng.standard_normal(a.shape[0])
    factor.solve(b)
    a.data *= 1.001
    with pytest.raises(SingularMatrixError, match="certificate") as info:
        factor.solve(b)
    assert info.value.residual > 0.0
    # a NaN entry makes the residual NaN from a finite solution; it fails the bound too
    a.data[0] = np.nan
    with pytest.raises(SingularMatrixError, match="exceeds certificate bound"):
        factor.solve(b)


def test_band_certificate_rejects_non_finite_solutions(unit4):
    disc = Discretization(unit4)
    n = unit4.num_vertices
    with pytest.raises(SingularMatrixError, match="non-finite"):
        disc.factor(disc.mass).solve(np.full(n, np.nan))
    # a unit diagonal but for 1e-300 at the vertex the band solve ends on:
    # that entry of the solution overflows to inf, and no other is touched
    diagonal = np.ones(n)
    diagonal[disc.order[0]] = 1e-300
    on_diagonal = disc.indices == np.repeat(np.arange(n), np.diff(disc.indptr))
    factor = disc.factor(np.where(on_diagonal, diagonal[disc.indices], 0.0))
    x = factor._solve(np.full(n, 1e10))
    assert np.isinf(x[disc.order[0]]) and np.sum(np.isfinite(x)) == n - 1
    with pytest.raises(SingularMatrixError, match="non-finite"):
        factor.solve(np.full(n, 1e10))


def test_certificate_bound_weighs_solution_and_right_hand_side(rng, monkeypatch):
    # scaled by 1e-4, the solution is about 1e4 times the right-hand side, so
    # the bound 1e-10 (||a|| ||x|| + ||b||) is far from 1e-10 (||a|| ||b|| + ||x||)
    a = 1e-4 * random_system(rng)
    factor = Factorization(a, full_band(a))
    b = rng.standard_normal(a.shape[0])
    x = factor.solve(b)
    bound = 1e-10 * (sparse._norm_inf(a) * np.max(np.abs(x)) + np.max(np.abs(b)))
    # a @ shift has unit entries, so x + t bound shift misses b by about t bound
    shift = solve_general(a, np.ones(a.shape[0]))
    solve = factor._solve
    for t in (0.5, 2.0):
        monkeypatch.setattr(factor, "_solve", lambda rhs, t=t: solve(rhs) + t * bound * shift)
        if t < 1.0:
            factor.solve(b)
            continue
        with pytest.raises(SingularMatrixError, match="exceeds certificate bound") as info:
            factor.solve(b)
        assert info.value.residual == pytest.approx(t * bound, rel=1e-3)


def test_bordered_pure_constraint():
    x, mu = solve_bordered(sp.csr_matrix((1, 1)), np.array([1.0]), np.array([0.0]), 5.0)
    assert x[0] == pytest.approx(5.0, abs=1e-12)
    assert mu == pytest.approx(0.0, abs=1e-12)


def bordered_solvers(mesh):
    """The SuperLU reference and the package's band solve of the steady Newton, each
    taking the CSR stiffness matrix of ``mesh`` (exactly singular: the pure Neumann
    problem) as its core."""
    disc = Discretization(mesh)
    return solve_bordered, lambda core, *rest: _bordered_solve(disc, disc.stiffness, *rest)


def test_bordered_stiffness_zero_rhs():
    mesh = build_unit_square_mesh(2)
    stiffness = assemble_stiffness_by_element(mesh)
    mass = assemble_mass_by_element(mesh)
    row = np.asarray(mass.sum(axis=1)).ravel()
    for solve in bordered_solvers(mesh):
        x, _ = solve(stiffness, row, np.zeros(mesh.num_vertices), 0.0)
        assert np.linalg.norm(x) <= 1e-12


def test_bordered_poisson_with_zero_mean():
    mesh = build_unit_square_mesh(4)
    stiffness = assemble_stiffness_by_element(mesh)
    mass = assemble_mass_by_element(mesh)
    row = np.asarray(mass.sum(axis=1)).ravel()
    f = interpolate(lambda x, y: np.cos(np.pi * x), mesh).values
    f = f - (row @ f) / row.sum()  # zero mass-weighted mean
    b = mass @ f
    for solve in bordered_solvers(mesh):
        x, mu = solve(stiffness, row, b, 0.0)
        # K x + mu c = b exactly; the multiplier should vanish for zero-mean data
        assert np.linalg.norm(stiffness @ x + mu * row - b) <= 1e-10
        assert abs(mu) <= 1e-10
        assert abs(row @ x) <= 1e-10


def test_bordered_rejects_zero_constraint():
    with pytest.raises(ValueError):
        solve_bordered(sp.identity(2, format="csr"), np.zeros(2), np.zeros(2), 0.0)


def newton_matrix(disc, nu, u):
    """Data of the steady Newton matrix ``nu K + T'(u)`` at the state ``u``, and the
    mean-constraint row: the mass row sums."""
    jac = nu * disc.stiffness + disc.jacobian(*disc.gather(u)[:2])
    return jac, np.bincount(disc.indices, disc.mass, disc.mesh.num_vertices)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    n=st.integers(1, 6),
    pinned=st.booleans(),
    nu=st.floats(0.05, 0.5),
    slope=st.tuples(*[st.floats(-0.5, 0.5)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
# here the deflated matrix's condition is 2.4e6, the bordered one's 160: without
# its refinement step the band solve misses SuperLU's by 5.8e-12
@example(n=6, pinned=False, nu=0.05, slope=(0.5, -0.5, 0.5), seed=1)
def test_bordered_solve_matches_superlu(n, pinned, nu, slope, seed):
    # a linear field and nodal noise, as a steady Newton meets them; the band solve
    # of the deflated matrix against the (n + 1)-square SuperLU solve
    rng = np.random.default_rng(seed)
    mesh = build_unit_square_mesh(n)
    if pinned:
        mesh = tag_boundary(mesh, ((1.0, 0.0), (1.0, 1.0)))
    disc = Discretization(mesh)
    u = mesh.vertices @ slope[:2] + slope[2] + 0.1 * nu * rng.standard_normal(mesh.num_vertices)
    jac, constraint = newton_matrix(disc, nu, u)
    rhs, value = rng.standard_normal(mesh.num_vertices), rng.standard_normal()
    x, mu = _bordered_solve(disc, jac, constraint, rhs, value)
    expected, expected_mu = solve_bordered(scipy_csc(disc.matrix(jac)), constraint, rhs, value)
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))
    # mu c balances what of rhs J x cannot: roundoff in mu is relative to that scale
    scale = np.max(np.abs(rhs)) / np.max(constraint)
    assert abs(mu - expected_mu) <= 1e-12 * abs(expected_mu) + 1e-14 * scale


def test_bordered_solve_pins_the_largest_constraint_entry(monkeypatch, jittered_mesh):
    # i is the largest mass row sum, unique on a jittered mesh, and alpha = |J_ii| is
    # added on the pattern's diagonal; the Newton matrix is negated for a negative J_ii
    mesh = jittered_mesh(8, True, np.random.default_rng(5))
    disc = Discretization(mesh)
    jac, constraint = newton_matrix(disc, 0.1, interpolate(lambda x, y: 0.5 - x * y, mesh).values)
    jac = -jac
    factored = []
    factor = Discretization.factor
    monkeypatch.setattr(Discretization, "factor", lambda self, data: factored.append(data.copy())
                        or factor(self, data))
    _bordered_solve(disc, jac, constraint, np.ones(mesh.num_vertices), 0.0)
    i = int(np.argmax(constraint))
    diagonal = scipy_csc(disc.matrix(jac)).diagonal()
    assert diagonal[i] < 0.0 and constraint[i] > np.max(np.delete(constraint, i))
    assert len(factored) == 1
    added = scipy_csc(disc.matrix(factored[0] - jac)).toarray()
    expected = np.zeros_like(added)
    expected[i, i] = -diagonal[i]
    assert np.array_equal(added, expected)


def test_bordered_solve_raises_on_a_singular_two_by_two():
    # J = diag(1, 1, -1, -1) on the four vertices and c = (1, 1, 1, 1): i = 0, and the
    # bordered matrix is singular, as c . J^-1 c = 0; the 2 x 2 system is exactly so
    disc = Discretization(build_unit_square_mesh(1))
    on_diagonal = disc.indices == np.repeat(np.arange(4), np.diff(disc.indptr))
    data = np.where(on_diagonal, np.array([1.0, 1.0, -1.0, -1.0])[disc.indices], 0.0)
    with pytest.raises(SingularMatrixError, match="singular"):
        _bordered_solve(disc, data, np.ones(4), np.ones(4), 0.0)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n=st.integers(1, 6),
    pinned=st.booleans(),
    k=st.floats(1e-3, 5e-2),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_factor_matches_superlu(jittered_mesh, n, pinned, k, seed):
    rng = np.random.default_rng(seed)
    mesh = jittered_mesh(n, pinned, rng)
    disc = Discretization(mesh)
    u, w = rng.standard_normal((2, mesh.num_vertices))
    feedback = rng.uniform(0.0, 2.0, disc.bq.points.shape[:2])
    vp, g, _ = disc.gather(u)
    step = disc.mass / k + 0.1 * disc.stiffness + disc.jacobian(vp, g, feedback)
    vp, g, _ = disc.gather(w)
    jacobian = step + disc.jacobian(vp, g, feedback**2)
    for data in (step, jacobian):
        disc.eliminate(data)
        b = rng.standard_normal(mesh.num_vertices)
        expected = solve_general(scipy_csc(disc.matrix(data)), b)
        x = disc.factor(data).solve(b)
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_band_factor_rejects_a_zero_column(unit4):
    disc = Discretization(unit4)
    data = disc.mass.copy()
    data[disc.indptr[7] : disc.indptr[8]] = 0.0
    with pytest.raises(SingularMatrixError, match="factorization failed"):
        disc.factor(data)


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_band_is_one_grid_row_wide(n):
    # a renumbering that widened the band would grow every factor's memory
    mesh = build_unit_square_mesh(n)
    for level in range(3):
        assert Discretization(mesh).bandwidth == n * 2**level + 2
        mesh = refine_uniform(mesh)


def step_matrices(disc, rng, k):
    """Eliminated data of a band step matrix ``mass / k + ...`` and of a random O(k)
    perturbation of it, as consecutive Picard steps make them."""
    u, w = rng.standard_normal((2, disc.mesh.num_vertices))
    feedback = rng.uniform(0.0, 2.0, disc.bq.points.shape[:2])
    vp, g, _ = disc.gather(u)
    held = disc.mass / k + 0.1 * disc.stiffness + disc.jacobian(vp, g, feedback)
    near = held + disc.transport(k * w, k * feedback**2)
    for data in (held, near):
        disc.eliminate(data)
    return held, near


def full_band_solve(disc, data, b):
    """``(x, lu, piv)``: ``dgbtrs`` on the whole ``3 width + 1``-row band of ``disc.factor``."""
    n, width = disc.mesh.num_vertices, disc.bandwidth
    ab = np.zeros((3 * width + 1) * n)
    ab[disc.band_slots] = data
    lu, piv, info = dgbtrf(ab.reshape(3 * width + 1, n, order="F"), width, width)
    assert info == 0
    x = np.empty_like(b)
    x[disc.order] = dgbtrs(lu, width, width, b[disc.order], piv)[0]
    return x, lu, piv


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n=st.integers(1, 6),
    pinned=st.booleans(),
    pivoting=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_solve_is_bit_equal_to_the_full_band(jittered_mesh, n, pinned, pivoting, seed):
    rng = np.random.default_rng(seed)
    mesh = jittered_mesh(n, pinned, rng)
    disc = Discretization(mesh)
    if pivoting:
        # random entries over a diagonal shrunk by 1e-3: dgbtrf interchanges rows
        on_diagonal = disc.indices == np.repeat(np.arange(mesh.num_vertices), np.diff(disc.indptr))
        data = rng.standard_normal(disc.indices.size) * np.where(on_diagonal, 1e-3, 1.0)
    else:
        data, _ = step_matrices(disc, rng, 1e-3)
    b = rng.standard_normal(mesh.num_vertices)
    expected, _, piv = full_band_solve(disc, data, b)
    assert np.array_equal(piv, np.arange(mesh.num_vertices)) != pivoting
    assert disc.factor(data)._solve(b).tobytes() == expected.tobytes()


def spy_on_the_solve(monkeypatch):
    """Record the ``(uplo, diag, k)`` of each ``dtbsv`` and the ``(kl, ku)`` of each
    ``dgbtrs`` call that factors made after this returns."""
    # LAPACK takes its integers by reference: ctypes.byref of a c_int64
    calls = []
    dtbsv, dgbtrs = sparse._dtbsv, sparse._dgbtrs

    def sweep(uplo, trans, diag, n, k, *args):
        calls.append(("dtbsv", uplo.decode(), diag.decode(), k._obj.value))
        return dtbsv(uplo, trans, diag, n, k, *args)

    def full(trans, n, kl, ku, *args):
        calls.append(("dgbtrs", kl._obj.value, ku._obj.value))
        return dgbtrs(trans, n, kl, ku, *args)

    monkeypatch.setattr(sparse, "_dtbsv", sweep)
    monkeypatch.setattr(sparse, "_dgbtrs", full)
    return calls


def assert_solves_by_two_band_sweeps(monkeypatch, mesh):
    # a unit-square step matrix makes no row interchange, so U's width fill rows stay
    # zero and dgbtrs's forward loop is a unit-lower band solve: the solve is one dtbsv
    # on L and one on U's width superdiagonals, bit-equal to dgbtrs on the full band
    disc = Discretization(mesh)
    held, _ = step_matrices(disc, np.random.default_rng(3), 5e-4)
    b = np.random.default_rng(4).standard_normal(disc.mesh.num_vertices)
    expected, lu, piv = full_band_solve(disc, held, b)
    assert np.array_equal(piv, np.arange(mesh.num_vertices))
    assert not np.any(lu[: disc.bandwidth])
    calls = spy_on_the_solve(monkeypatch)
    assert disc.factor(held).solve(b).tobytes() == expected.tobytes()
    width = disc.bandwidth
    assert calls == [("dtbsv", "L", "U", width), ("dtbsv", "U", "N", width)]


def test_step_matrix_solves_on_the_band_without_fill_rows(monkeypatch):
    assert_solves_by_two_band_sweeps(monkeypatch, build_unit_square_mesh(8))


@pytest.mark.parametrize("refinements", [0, 2])
def test_blocked_factor_of_a_width_66_step_matrix_solves_by_two_band_sweeps(monkeypatch,
                                                                           refinements):
    # past width 64 dgbtrf factors by blocks: a study level at n = 64, and the reference
    # mesh refined twice from n = 16
    mesh = build_unit_square_mesh(64 >> refinements)
    for _ in range(refinements):
        mesh = refine_uniform(mesh)
    assert Discretization(mesh).bandwidth == 66
    assert_solves_by_two_band_sweeps(monkeypatch, mesh)


def test_a_factor_with_interchanges_solves_by_dgbtrs_on_the_full_band(monkeypatch):
    # random entries over a diagonal shrunk by 1e-3 make dgbtrf interchange rows
    disc = Discretization(build_unit_square_mesh(4))
    rng = np.random.default_rng(5)
    on_diagonal = disc.indices == np.repeat(np.arange(disc.mesh.num_vertices), np.diff(disc.indptr))
    data = rng.standard_normal(disc.indices.size) * np.where(on_diagonal, 1e-3, 1.0)
    b = rng.standard_normal(disc.mesh.num_vertices)
    expected, _, piv = full_band_solve(disc, data, b)
    assert not np.array_equal(piv, np.arange(disc.mesh.num_vertices))
    calls = spy_on_the_solve(monkeypatch)
    assert disc.factor(data)._solve(b).tobytes() == expected.tobytes()
    assert calls == [("dgbtrs", disc.bandwidth, disc.bandwidth)]


def test_the_steady_newton_solves_by_dgbtrs_and_the_time_loop_by_band_sweeps(monkeypatch,
                                                                             mixed8):
    # on the Example 2 layout the bordered factors of the steady Newton interchange rows
    # and its step matrices do not, so a run of that layout takes both branches of the
    # band LU: dgbtrs in the steady solve, two dtbsv sweeps in every step's solve
    calls = spy_on_the_solve(monkeypatch)
    spec = manufactured_solve_spec(analytic_from_expression("-0.2*x1"), 0.1, -0.1)
    u_steady = solve_steady(mixed8, spec)
    assert any(call[0] == "dgbtrs" for call in calls)
    w0 = interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), mixed8)
    for control, nonlinear in ((ControlParams(nu=0.1, c0=1.0), "chord"), (None, "picard")):
        calls.clear()
        cfg = EvolutionConfig(nu=0.1, k=0.01, t_end=0.1, control=control, nonlinear=nonlinear)
        run(w0, cfg, mixed8, u_steady)
        assert calls and all(call[0] == "dtbsv" for call in calls), nonlinear


def test_a_band_factor_is_freed_without_the_cyclic_collector(unit4):
    # a solve that referred to itself would keep its band in a reference cycle until the
    # cyclic collector ran: a Newton run that factors every iteration grew by megabytes
    disc = Discretization(unit4)
    solve = disc.factor(disc.mass)._solve
    freed = weakref.ref(solve)
    gc.disable()
    try:
        del solve
        assert freed() is None
    finally:
        gc.enable()


def assert_certified(a, x, b):
    norm = np.max(np.abs(scipy_csc(a).toarray()).sum(axis=1))
    residual = np.max(np.abs(a @ x - b))
    assert residual <= 1e-10 * (norm * np.max(np.abs(x)) + np.max(np.abs(b)))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n=st.integers(1, 6),
    pinned=st.booleans(),
    k=st.floats(1e-4, 1e-2),
    seed=st.integers(0, 2**32 - 1),
)
def test_refine_on_a_held_factor_matches_superlu(jittered_mesh, n, pinned, k, seed):
    rng = np.random.default_rng(seed)
    mesh = jittered_mesh(n, pinned, rng)
    disc = Discretization(mesh)
    held, near = step_matrices(disc, rng, k)
    a = disc.matrix(near)
    b = rng.standard_normal(mesh.num_vertices)
    b[disc.dirichlet] = 0.0
    expected = solve_general(scipy_csc(a), b)
    # a guess off by O(k^2); the four-point start of a Picard step is O(k^4) off
    guess = expected + k * k * rng.standard_normal(mesh.num_vertices)
    guess[disc.dirichlet] = 0.0
    x, solves = disc.factor(held).refine(a, b, guess, 4)
    assert 2 <= solves <= 4
    assert_certified(a, x, b)
    # the stop rule predicts the next correction at 1e-12 ||x||; the ratio of two
    # corrections predicts the next one only roughly, so allow ten times that
    assert np.max(np.abs(x - expected)) <= 1e-11 * np.max(np.abs(expected))
    # the factor of the matrix itself stops after the zero second correction or sooner
    x, solves = disc.factor(near).refine(a, b, guess, 4)
    assert solves <= 2
    assert_certified(a, x, b)


@pytest.mark.parametrize("pinned", [False, True])
def test_refine_on_a_distant_factor_returns_nothing_uncertified(jittered_mesh, pinned):
    # the mass matrix is far from mass / k: refinement on its factor diverges,
    # and the caller gets None, never an uncertified solution, within the limit
    rng = np.random.default_rng(7)
    mesh = jittered_mesh(4, pinned, rng)
    disc = Discretization(mesh)
    _, near = step_matrices(disc, rng, 1e-3)
    distant = disc.mass.copy()
    disc.eliminate(distant)
    a = disc.matrix(near)
    b = rng.standard_normal(mesh.num_vertices)
    x, solves = disc.factor(distant).refine(a, b, np.zeros_like(b), 4)
    assert x is None and solves == 4
    # the fallback the Picard step takes: factor the matrix itself
    assert_certified(a, disc.factor(near).solve(b), b)


def test_refine_checks_the_bound_against_the_given_matrix(rng, monkeypatch):
    # as in the solve test: scaled by 1e-4, ||a|| ||x|| dominates ||b|| in the bound
    a = 1e-4 * random_system(rng)
    factor = Factorization(a, full_band(a))
    b = rng.standard_normal(a.shape[0])
    x = factor.solve(b)
    bound = 1e-10 * (sparse._norm_inf(a) * np.max(np.abs(x)) + np.max(np.abs(b)))
    assert 0.5 * bound > 1e-10 * np.max(np.abs(b))
    shift = solve_general(a, np.ones(a.shape[0]))
    # zero corrections stop at once, so refine certifies the guess itself
    monkeypatch.setattr(factor, "_solve", np.zeros_like)
    for t in (0.5, 2.0):
        guess, solves = factor.refine(a, b, x + t * bound * shift, 4)
        assert solves == 1
        assert (guess is None) == (t > 1.0)
    # corrections that shrink fast enough stop the iteration, but they do not solve
    # the given matrix: the certificate turns the result down
    corrections = iter([np.ones_like(b), np.full_like(b, 1e-8)])
    monkeypatch.setattr(factor, "_solve", lambda r: next(corrections))
    assert factor.refine(a, b, x, 4) == (None, 2)


def test_refine_rejects_non_finite_solutions_and_other_shapes(unit4, rng):
    disc = Discretization(unit4)
    held, near = step_matrices(disc, rng, 1e-2)
    b = np.full(unit4.num_vertices, np.nan)
    with pytest.raises(SingularMatrixError, match="non-finite"):
        disc.factor(held).refine(disc.matrix(near), b, np.zeros_like(b), 4)
    smaller = Discretization(build_unit_square_mesh(3))
    with pytest.raises(ValueError, match="does not match"):
        disc.factor(held).refine(smaller.matrix(smaller.mass), b[:16], b[:16], 4)


def run_fresh(script):
    """Run ``script`` in a fresh interpreter that imports this package; returns its stdout."""
    src = os.path.dirname(os.path.dirname(burgersfb.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_a_band_factor_runs_on_one_openblas_thread_and_restores_the_count(monkeypatch):
    # with OpenBLAS's two threads, a fresh process's first factor at n >= 64 sometimes
    # waited about 1 s; a spy on dgbtrf reads the count each factor runs with
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    script = (
        "import json\n"
        "from burgersfb import sparse\n"
        "from burgersfb.assembly import Discretization\n"
        "from burgersfb.mesh import build_unit_square_mesh\n"
        "seen, factor = [], sparse._dgbtrf\n"
        "def spy(*args):\n"
        "    seen.append(sparse._get_threads())\n"
        "    factor(*args)\n"
        "sparse._dgbtrf = spy\n"
        "before = sparse._get_threads()\n"
        "disc = Discretization(build_unit_square_mesh(8))\n"
        "disc.factor(disc.mass), disc.factor(disc.stiffness + disc.mass)\n"
        "print(json.dumps([before, seen, sparse._get_threads()]))\n"
    )
    before, seen, after = json.loads(run_fresh(script))
    assert seen == [1, 1]
    assert after == before == min(2, os.cpu_count())


def test_band_lu_is_bit_equal_to_scipys_lapack_and_scipy_still_imports(rng):
    # the factor and solve call numpy's OpenBLAS through ctypes; on random bands, with
    # and without row interchanges, they give scipy's dgbtrf and dgbtrs bit for bit
    for (n, width), pivoting in itertools.product([(4, 1), (16, 3), (64, 5), (81, 11)],
                                                  [False, True]):
        rows = 3 * width + 1
        band = np.zeros((rows, n), order="F")
        band[width:] = rng.standard_normal((2 * width + 1, n))
        # a diagonal shrunk by 1e-3 makes dgbtrf interchange rows, a dominant one none
        if pivoting:
            band[2 * width] *= 1e-3
        else:
            band[2 * width] += 4.0 * width + 4.0
        expected, expected_piv, info = dgbtrf(band, width, width)
        assert info == 0 and np.array_equal(expected_piv, np.arange(n)) != pivoting
        ab, piv, info = band.copy(order="F"), np.empty(n, np.int64), ctypes.c_int64()
        size, kl, ldab = (ctypes.byref(ctypes.c_int64(v)) for v in (n, width, rows))
        sparse._dgbtrf(size, size, kl, kl, ctypes.c_void_p(ab.ctypes.data), ldab,
                       ctypes.c_void_p(piv.ctypes.data), ctypes.byref(info))
        assert info.value == 0
        assert ab.tobytes() == expected.tobytes() and np.array_equal(piv - 1, expected_piv)
        # the package's solve, by band sweeps or by dgbtrs, in a scrambled vertex order
        order = rng.permutation(n)
        solve = sparse._band_lu(band.ravel(order="F"), order, width, np.arange(rows * n))
        b, x = rng.standard_normal(n), np.empty(n)
        x[order] = dgbtrs(expected, width, width, b[order], expected_piv)[0]
        assert solve(b).tobytes() == x.tobytes()
    # the package loads scipy's compiled csc_matvec without scipy or scipy.sparse; a
    # later import of the packages works and holds the very kernel the package calls
    run_fresh(
        "import sys\n"
        "import burgersfb\n"
        "assert not {'scipy', 'scipy.linalg', 'scipy.sparse'} & set(sys.modules)\n"
        "import scipy.linalg, scipy.sparse\n"
        "from burgersfb import sparse\n"
        "assert scipy.sparse._sparsetools.csc_matvec is sparse._csc_matvec\n"
        "assert (scipy.sparse.identity(3, format='csc') @ [1.0, 2.0, 3.0]).tolist() == [1, 2, 3]\n"
        "assert scipy.linalg.lapack.dgbtrf([[2.0]], 0, 0)[0].tolist() == [[2.0]]\n"
    )
    # loaded first, scipy's own module is taken as it is and stays registered
    run_fresh(
        "import sys\n"
        "import scipy.sparse\n"
        "registered = sys.modules['scipy.sparse._sparsetools']\n"
        "import burgersfb\n"
        "assert sys.modules['scipy.sparse._sparsetools'] is registered\n"
        "assert burgersfb.sparse._csc_matvec is registered.csc_matvec\n"
    )


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n=st.sampled_from([4, 16]),
    jittered=st.booleans(),
    pinned=st.booleans(),
    controlled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_products_are_bit_equal_to_scipys(jittered_mesh, n, jittered, pinned, controlled, seed):
    # the matrices the time loop multiplies: mass, stiffness, the step matrix and a
    # Picard system; the package's product is scipy's compiled csc_matvec, as scipy's @ is
    rng = np.random.default_rng(seed)
    mesh = jittered_mesh(n, pinned, rng) if jittered else build_unit_square_mesh(n)
    if pinned and not jittered:
        mesh = tag_boundary(mesh, ((1.0, 0.0), (1.0, 1.0)))
    control = ControlParams(nu=0.1, c0=1.0) if controlled else None
    cfg = EvolutionConfig(nu=0.1, k=1e-3, t_end=1e-3, control=control)
    trajectory = _Trajectory(mesh, FeField(mesh, rng.standard_normal(mesh.num_vertices)), cfg)
    disc, w = trajectory.disc, rng.standard_normal(mesh.num_vertices)
    gq = trajectory.cubic_scale * disc.bq.trace(w) ** 2 if controlled else None
    picard = trajectory.step_matrix.data + disc.transport(w, gq)
    disc.eliminate(picard)
    for matrix in (trajectory.mass, trajectory.stiffness, trajectory.step_matrix,
                   disc.matrix(picard)):
        x = rng.standard_normal(mesh.num_vertices)
        assert np.array_equal(matrix @ x, scipy_csc(matrix) @ x)


def test_products_reject_vectors_of_another_shape(unit4):
    # the compiled kernel checks no length: scipy's @ did, and so does the package's
    disc = Discretization(unit4)
    mass, n = disc.matrix(disc.mass), unit4.num_vertices
    for x in (np.ones(3), np.ones(n + 1), np.ones((n, 1)), np.ones((2, n)), np.ones(())):
        with pytest.raises(ValueError, match="does not match"):
            mass @ x
