import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from burgersfb.assembly import (
    Discretization,
    FeField,
    NonNestedMeshError,
    assemble_mass,
    boundary_load,
    boundary_quadrature,
    convection_form,
    discrete_laplacian,
    elliptic_projection,
    h1_seminorm,
    integrate,
    interpolate,
    l2_norm,
    load_vector,
    prolong,
)
from burgersfb.mesh import (
    BoundaryTag,
    build_unit_square_mesh,
    refine_uniform,
    tag_boundary,
)
from burgersfb import assembly
from burgersfb.control import ACTIVE_TAGS
from burgersfb.steady import analytic_from_expression
from oracles import (
    BincountSums,
    SuperLU,
    apply_dirichlet,
    assemble_boundary_mass,
    assemble_convection_by_gradient,
    assemble_convection_by_transport,
    assemble_mass_by_element,
    assemble_stiffness_by_element,
    boundary_cubic_jacobian,
    boundary_cubic_residual,
    convection_by_quadrature,
    scipy_csc,
    trace_values,
)


def random_field(mesh, rng, scale=1.0):
    return FeField(mesh, scale * rng.standard_normal(mesh.num_vertices))


def is_zero_matrix(a):
    return a.nnz == 0 or np.max(np.abs(a.data)) == 0.0


def triangle_area(p):
    return 0.5 * abs(
        (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
        - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0])
    )


# independent element-by-element oracles, deliberately written as plain
# loops with their own quadrature so they share nothing with the module


def oracle_mass(mesh):
    n = mesh.num_vertices
    out = np.zeros((n, n))
    pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0
    for tri, area in zip(mesh.triangles, mesh.triangle_areas()):
        for a in range(3):
            for b in range(3):
                out[tri[a], tri[b]] += area * pattern[a, b]
    return out


def oracle_stiffness(mesh):
    n = mesh.num_vertices
    out = np.zeros((n, n))
    for tri in mesh.triangles:
        p = mesh.vertices[tri]
        edges = np.array([p[2] - p[1], p[0] - p[2], p[1] - p[0]])
        area = triangle_area(p)
        grads = np.column_stack([-edges[:, 1], edges[:, 0]]) / (2.0 * area)
        for a in range(3):
            for b in range(3):
                out[tri[a], tri[b]] += area * (grads[a] @ grads[b])
    return out


def oracle_trilinear(v, w, z):
    # midpoint rule: degree-2 exact, enough for v * (grad w . 1) * z
    mesh = v.mesh
    total = 0.0
    for tri in mesh.triangles:
        p = mesh.vertices[tri]
        area = triangle_area(p)
        edges = np.array([p[2] - p[1], p[0] - p[2], p[1] - p[0]])
        grads = np.column_stack([-edges[:, 1], edges[:, 0]]) / (2.0 * area)
        slope = sum(w.values[tri[a]] * grads[a].sum() for a in range(3))
        for a in range(3):
            # edge midpoint opposite vertex a has barycentric (0,1/2,1/2) etc.
            lam = np.full(3, 0.5)
            lam[a] = 0.0
            vq = lam @ v.values[tri]
            zq = lam @ z.values[tri]
            total += (area / 3.0) * vq * slope * zq
    return total


def oracle_boundary_cubic_integral(w):
    # closed form of the edge integral of a cubic in the endpoint values
    mesh = w.mesh
    total = 0.0
    for (v0, v1), normal in zip(mesh.boundary_edges, mesh.boundary_normals):
        a, b = w.values[v0], w.values[v1]
        length = np.linalg.norm(mesh.vertices[v1] - mesh.vertices[v0])
        total += length * normal.sum() * (a**3 + a**2 * b + a * b**2 + b**3) / 4.0
    return total


def test_quadrature_rules_are_sane():
    assert np.all(assembly._INTERIOR_WEIGHTS > 0.0)
    assert abs(assembly._INTERIOR_WEIGHTS.sum() - 0.5) <= 1e-15
    assert np.allclose(assembly._INTERIOR_POINTS.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert np.all(assembly._EDGE_WEIGHTS > 0.0)
    assert abs(assembly._EDGE_WEIGHTS.sum() - 1.0) <= 1e-15
    edge_points = assembly._EDGE_POINTS
    assert np.all((edge_points > 0.0) & (edge_points < 1.0))


def test_mass_matrix_against_oracle(unit4):
    mass = assemble_mass(unit4).toarray()
    assert np.max(np.abs(mass - oracle_mass(unit4))) <= 1e-15
    assert abs(mass.sum() - 1.0) <= 1e-12  # partition of unity, area 1
    ones = np.ones(unit4.num_vertices)
    assert abs(ones @ (mass @ ones) - 1.0) <= 1e-12


def pattern_stiffness(mesh):
    """The stiffness matrix on the pattern of ``Discretization(mesh)``."""
    disc = Discretization(mesh)
    return scipy_csc(disc.matrix(disc.stiffness))


def test_stiffness_matrix_against_oracle(unit4):
    stiffness = pattern_stiffness(unit4)
    assert np.max(np.abs(stiffness.toarray() - oracle_stiffness(unit4))) <= 1e-13
    ones = np.ones(unit4.num_vertices)
    assert np.max(np.abs(stiffness @ ones)) <= 1e-13
    x1 = interpolate(lambda x, y: x, unit4)
    assert x1.values @ (stiffness @ x1.values) == pytest.approx(1.0, abs=1e-12)


def test_transport_matrix_basics(unit4, rng):
    zero = FeField(unit4, np.zeros(unit4.num_vertices))
    assert is_zero_matrix(assemble_convection_by_transport(zero))

    one = FeField(unit4, np.ones(unit4.num_vertices))
    x1 = interpolate(lambda x, y: x, unit4)
    ones = np.ones(unit4.num_vertices)
    # 1^T A(1) x1 = integral of (grad x1 . 1) = 1
    assert ones @ (assemble_convection_by_transport(one) @ x1.values) == pytest.approx(
        1.0, abs=1e-13
    )


def test_trilinear_form_against_independent_quadrature(unit4, rng):
    for _ in range(5):
        v, w, z = (random_field(unit4, rng) for _ in range(3))
        got = convection_form(v, w, z)
        want = oracle_trilinear(v, w, z)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


def test_trilinear_form_matches_transport_matrix(unit4, rng):
    v, w, z = (random_field(unit4, rng) for _ in range(3))
    via_matrix = z.values @ (assemble_convection_by_transport(v) @ w.values)
    assert convection_form(v, w, z) == pytest.approx(via_matrix, abs=1e-13)


def test_gradient_matrix_cases(unit4):
    one = FeField(unit4, np.ones(unit4.num_vertices))
    assert is_zero_matrix(assemble_convection_by_gradient(one))

    x1 = interpolate(lambda x, y: x, unit4)
    mass = assemble_mass(unit4).toarray()
    assert np.max(np.abs(assemble_convection_by_gradient(x1).toarray() - mass)) <= 1e-13

    shear = interpolate(lambda x, y: -0.2 * x, unit4)
    got = assemble_convection_by_gradient(shear).toarray()
    assert np.max(np.abs(got + 0.2 * mass)) <= 1e-13


def test_divergence_identity(unit4, rng):
    # B(w; w, w) = (1/3) boundary integral of w^3 (n . 1)
    for _ in range(20):
        w = random_field(unit4, rng)
        lhs = convection_form(w, w, w)
        rhs = oracle_boundary_cubic_integral(w) / 3.0
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_product_rule_identity(unit8, rng):
    mesh = unit8
    bq = boundary_quadrature(mesh)
    for _ in range(10):
        v, w, z = (random_field(mesh, rng) for _ in range(3))
        volume = w.values @ (assemble_convection_by_gradient(v) @ z.values)
        lhs = convection_form(v, w, z) + convection_form(v, z, w) + volume
        traces = [trace_values(f, None) for f in (v, w, z)]
        integrand = traces[0] * traces[1] * traces[2]
        rhs = float(
            np.sum((integrand @ assembly._EDGE_WEIGHTS) * bq.lengths * bq.normals.sum(axis=1))
        )
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_boundary_mass_values(unit4):
    full = assemble_boundary_mass(unit4, 1.0)
    assert full.sum() == pytest.approx(4.0, abs=1e-13)  # perimeter
    # single-edge off-diagonal block entry: length/6
    v0 = 0  # (0, 0)
    v1 = 1  # (0.25, 0)
    assert full[v0, v1] == pytest.approx(0.25 / 6.0, abs=1e-15)


def test_boundary_mass_dirichlet_only_region_is_zero(mixed8):
    only_dirichlet = assemble_boundary_mass(
        mixed8, 1.0, tags=(BoundaryTag.DIRICHLET_ZERO,)
    )
    right = np.isclose(mixed8.vertices[:, 0], 1.0)
    coo = only_dirichlet.tocoo()
    assert np.all(right[coo.row]) and np.all(right[coo.col])

    nothing = assemble_boundary_mass(mixed8, 1.0, tags=())
    assert nothing.nnz == 0


def test_boundary_cubic_residual_values(unit4):
    zero = FeField(unit4, np.zeros(unit4.num_vertices))
    assert np.all(boundary_cubic_residual(zero) == 0.0)

    one = FeField(unit4, np.ones(unit4.num_vertices))
    assert boundary_cubic_residual(one).sum() == pytest.approx(4.0, abs=1e-13)

    # isolate the bottom side by tagging the other three Dirichlet, then
    # the residual of x1 sums to the exact integral of x^3 over [0,1]
    others = [
        ((0.0, 0.0), (0.0, 1.0)),
        ((1.0, 0.0), (1.0, 1.0)),
        ((0.0, 1.0), (1.0, 1.0)),
    ]
    bottom_only = tag_boundary(unit4, others)
    x1 = interpolate(lambda x, y: x, bottom_only)
    vec = boundary_cubic_residual(x1, tags=(BoundaryTag.NEUMANN_CONTROL,))
    assert vec.sum() == pytest.approx(0.25, abs=1e-13)


def test_boundary_cubic_jacobian_cases(unit4, rng):
    zero = FeField(unit4, np.zeros(unit4.num_vertices))
    assert is_zero_matrix(boundary_cubic_jacobian(zero))

    one = FeField(unit4, np.ones(unit4.num_vertices))
    jac = boundary_cubic_jacobian(one)
    mass_b = assemble_boundary_mass(unit4, 1.0)
    assert np.max(np.abs((jac - 3.0 * mass_b).toarray())) <= 1e-13

    # directional finite difference, one-sided
    w = random_field(unit4, rng)
    delta = random_field(unit4, rng)
    eps = 1e-7
    bumped = FeField(unit4, w.values + eps * delta.values)
    fd = (boundary_cubic_residual(bumped) - boundary_cubic_residual(w)) / eps
    jv = boundary_cubic_jacobian(w) @ delta.values
    denom = max(np.linalg.norm(jv), 1e-30)
    assert np.linalg.norm(fd - jv) / denom <= 1e-6


def test_discrete_laplacian_cases(unit4, rng):
    disc = Discretization(unit4)
    const = FeField(unit4, np.full(unit4.num_vertices, 3.5))
    assert np.max(np.abs(discrete_laplacian(disc, const).values)) <= 1e-10

    w = random_field(unit4, rng)
    mass = assemble_mass(unit4)
    d = discrete_laplacian(disc, w).values
    # integral of the zero-flux discrete laplacian vanishes
    assert abs(np.ones_like(d) @ (mass @ d)) <= 1e-10


@pytest.mark.parametrize("refined", [False, True])
def test_one_off_solves_match_superlu(monkeypatch, refined):
    # the mass and projection solves factor by band LU; SuperLU, the tests'
    # factor of solve_general, is the reference
    mesh = build_unit_square_mesh(8)
    mesh = refine_uniform(mesh) if refined else mesh
    f = analytic_from_expression("sin(pi*x1)*cos(2*x2) + x1^2*x2")
    disc = Discretization(mesh)
    w = interpolate(f.value, mesh)

    def solve():
        laplacian = discrete_laplacian(disc, w).values
        return laplacian, elliptic_projection(mesh, f.value, f.dx, f.dy).values

    band = solve()
    monkeypatch.setattr(Discretization, "factor",
                        lambda self, data: SuperLU(scipy_csc(self.matrix(data))))
    for x, expected in zip(band, solve()):
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_norms_values(unit4):
    one = FeField(unit4, np.ones(unit4.num_vertices))
    assert l2_norm(one) == pytest.approx(1.0, abs=1e-13)
    assert h1_seminorm(one) <= 1e-13

    zero = FeField(unit4, np.zeros(unit4.num_vertices))
    assert (l2_norm(zero), h1_seminorm(zero)) == (0.0, 0.0)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(1, 6), pinned=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_norms_assemble_no_matrix(jittered_mesh, n, pinned, seed):
    rng = np.random.default_rng(seed)
    mesh = jittered_mesh(n, pinned, rng)
    w = random_field(mesh, rng)
    references = [
        np.sqrt(w.values @ (matrix(mesh) @ w.values))
        for matrix in (assemble_mass_by_element, assemble_stiffness_by_element)
    ]

    def no_matrix(*args, **kwargs):
        raise AssertionError("a norm built a matrix")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(assembly, "Discretization", no_matrix)
        patch.setattr(sp, "csr_matrix", no_matrix)
        patch.setattr(sp, "csc_matrix", no_matrix)
        norms = [l2_norm(w), h1_seminorm(w)]
    for norm, reference in zip(norms, references):
        assert abs(norm - reference) <= 1e-13 * max(1.0, reference)


def test_norms_converge_for_sine_product():
    # |sin sin|_L2 = 1/2; interpolation error is O(h^2)
    errors = []
    for n in (8, 16):
        mesh = build_unit_square_mesh(n)
        w = interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), mesh)
        errors.append(abs(l2_norm(w) - 0.5))
    assert errors[1] <= errors[0] / 3.0


def test_interpolate_cases(unit4):
    zero = interpolate(lambda x, y: 0.0, unit4)
    assert np.all(zero.values == 0.0)

    shear = interpolate(lambda x, y: -0.2 * x, unit4)
    assert np.array_equal(shear.values, -0.2 * unit4.vertices[:, 0])

    mesh2 = build_unit_square_mesh(2)
    bump = interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y), mesh2)
    center = np.all(np.isclose(mesh2.vertices, 0.5), axis=1)
    assert bump.values[center] == pytest.approx(1.0, abs=1e-15)
    edge = np.isclose(mesh2.vertices[:, 0], 0.0)
    assert np.max(np.abs(bump.values[edge])) <= 1e-15


def test_interpolate_rejects_nonfinite(unit4):
    with pytest.raises(ValueError):
        interpolate(lambda x, y: np.where(x > 0.5, np.inf, 0.0), unit4)


def test_prolong_exactness_and_norm_preservation(rng):
    coarse_mesh = build_unit_square_mesh(3)
    fine_mesh = refine_uniform(coarse_mesh)
    finest_mesh = refine_uniform(fine_mesh)

    const = FeField(coarse_mesh, np.full(coarse_mesh.num_vertices, 2.5))
    assert np.all(prolong(const, fine_mesh).values == 2.5)

    x1 = interpolate(lambda x, y: x, coarse_mesh)
    lifted = prolong(x1, finest_mesh)  # two-level ancestry walk
    assert np.allclose(lifted.values, finest_mesh.vertices[:, 0], atol=1e-15)

    w = random_field(coarse_mesh, rng)
    lifted = prolong(w, fine_mesh)
    assert l2_norm(lifted) == pytest.approx(l2_norm(w), abs=1e-12)
    assert h1_seminorm(lifted) == pytest.approx(h1_seminorm(w), abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    n=st.integers(1, 6),
    refinements=st.integers(1, 2),
    pinned=st.booleans(),
    coefficients=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_prolong_equals_interpolation_on_nested_pairs(
    jittered_mesh, n, refinements, pinned, coefficients, seed
):
    coarse = jittered_mesh(n, pinned, np.random.default_rng(seed))
    fine = coarse
    for _ in range(refinements):
        fine = refine_uniform(fine)
    a, b, c = coefficients
    f = lambda x, y: a * x + b * y + c  # noqa: E731
    coarse_field = interpolate(f, coarse)
    lifted = prolong(coarse_field, fine).values
    gap = np.max(np.abs(lifted - interpolate(f, fine).values))
    assert gap <= 1e-14 * (1.0 + abs(a) + abs(b) + abs(c))
    # refinement keeps the coarse vertices first, under their own indices
    assert np.array_equal(lifted[: coarse.num_vertices], coarse_field.values)


def test_prolong_rejects_unrelated_meshes():
    a = build_unit_square_mesh(2)
    b = build_unit_square_mesh(4)  # same vertices, not a refinement descendant
    w = FeField(a, np.zeros(a.num_vertices))
    with pytest.raises(NonNestedMeshError):
        prolong(w, b)


def test_load_vector_and_integrate(unit4):
    load = load_vector(unit4, lambda x, y: 1.0)
    assert load.sum() == pytest.approx(1.0, abs=1e-13)
    assert integrate(unit4, lambda x, y: x) == pytest.approx(0.5, abs=1e-13)
    # a flux callable may return a scalar too: the load sums to the perimeter
    assert boundary_load(unit4, lambda x, y, nx, ny: 1.0).sum() == pytest.approx(4.0, abs=1e-13)


def test_elliptic_projection_reproduces_linears(unit4):
    proj = elliptic_projection(
        unit4, lambda x, y: 1.0 + 2.0 * x - y, lambda x, y: 2.0, lambda x, y: -1.0
    )
    expected = 1.0 + 2.0 * unit4.vertices[:, 0] - unit4.vertices[:, 1]
    assert np.allclose(proj.values, expected, atol=1e-9)


def test_dirichlet_elimination(mixed8):
    dofs = Discretization(mixed8).dirichlet
    right = np.flatnonzero(np.isclose(mixed8.vertices[:, 0], 1.0))
    assert np.array_equal(np.sort(dofs), right)

    stiffness = pattern_stiffness(mixed8)
    pinned = apply_dirichlet(stiffness, dofs)
    dense = pinned.toarray()
    for d in dofs:
        row = dense[d].copy()
        col = dense[:, d].copy()
        assert row[d] == 1.0 and col[d] == 1.0
        row[d] = col[d] = 0.0
        assert np.all(row == 0.0) and np.all(col == 0.0)


def test_field_shape_validation(unit4):
    with pytest.raises(ValueError):
        FeField(unit4, np.zeros(3))
    with pytest.raises(ValueError):
        FeField(unit4, np.full(unit4.num_vertices, np.nan))


def test_field_values_are_read_only(unit4):
    values = np.zeros(unit4.num_vertices)
    field = FeField(unit4, values)
    with pytest.raises(ValueError):
        field.values[0] = 1.0
    assert values.flags.writeable
    values[0] = 1.0


def assert_relative_close(actual, expected, rtol=1e-13):
    if sp.issparse(actual):
        actual, expected = actual.toarray(), expected.toarray()
    scale = np.max(np.abs(expected))
    assert scale > 0.0
    assert np.max(np.abs(actual - expected)) <= rtol * scale


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_convection_kernels_match_quadrature(jittered_mesh, n, seed):
    rng = np.random.default_rng(seed)
    mesh = jittered_mesh(n, False, rng)
    v, w, z = (random_field(mesh, rng) for _ in range(3))

    def close(got, want):
        # random nodal values make the form O(1) up to cancellation
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    want = convection_by_quadrature(v, w, z)
    close(convection_form(v, w, z), want)
    close(z.values @ (assemble_convection_by_transport(v) @ w.values), want)
    close(z.values @ (assemble_convection_by_gradient(w) @ v.values), want)
    disc = Discretization(mesh)
    close(z.values @ disc.residual(w.values)[0], convection_by_quadrature(w, w, z))


PATTERN_AND_ELEMENT = (
    (assemble_mass, assemble_mass_by_element),
    (pattern_stiffness, assemble_stiffness_by_element),
)


@pytest.mark.parametrize("n, pinned, levels", [(16, False, 0), (32, False, 1), (8, True, 2)])
def test_pattern_matrices_equal_element_assembly_on_the_study_meshes(n, pinned, levels):
    # on uniform meshes and their refinements the element terms at a vertex are
    # equal (mass) or 1/2 and 1 (stiffness), so the order of the sums cannot
    # show: the CSC matrices are identical
    mesh = build_unit_square_mesh(n)
    if pinned:
        mesh = tag_boundary(mesh, ((1.0, 0.0), (1.0, 1.0)))
    for _ in range(levels):
        mesh = refine_uniform(mesh)
    for pattern, element in PATTERN_AND_ELEMENT:
        got, want = pattern(mesh), element(mesh).tocsc()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(1, 6), pinned=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_pattern_assembly_matches_element_assembly(jittered_mesh, n, pinned, seed):
    rng = np.random.default_rng(seed)
    mesh = jittered_mesh(n, pinned, rng)
    w = random_field(mesh, rng)
    # the package's mass and stiffness come from the pattern.  An off-diagonal entry
    # sums at most two element terms, so it equals the element sum bit for bit; a
    # diagonal entry sums up to six positive terms, which COO-to-CSR adds in another
    # order, so the two sums differ by at most five roundings
    for pattern, element in PATTERN_AND_ELEMENT:
        got, want = pattern(mesh).toarray(), element(mesh).toarray()
        diagonal = np.eye(mesh.num_vertices, dtype=bool)
        assert np.array_equal(got[~diagonal], want[~diagonal])
        bound = 5 * np.finfo(float).eps * want[diagonal]
        assert np.all(np.abs(got - want)[diagonal] <= bound)
    disc = Discretization(mesh)
    assert_relative_close(disc.bq.trace(w.values), trace_values(w, ACTIVE_TAGS))
    # the edge load of a normal-dependent flux against the edge blocks (the two
    # edge basis functions sum to one)
    c = rng.standard_normal(3)

    def flux(x, y, nx, ny):
        return np.sin(c[0] * x + y) * nx + c[1] * y * ny + c[2]

    bq = boundary_quadrature(mesh)
    gq = flux(bq.points[..., 0], bq.points[..., 1], bq.normals[:, None, 0], bq.normals[:, None, 1])
    ones = np.ones(mesh.num_vertices)
    assert_relative_close(boundary_load(mesh, flux), assemble_boundary_mass(mesh, gq) @ ones)
    # the trace of a linear field, which is exact
    a, b, c = rng.standard_normal(3)
    linear = a * mesh.vertices[:, 0] + b * mesh.vertices[:, 1] + c
    points = disc.bq.points
    assert_relative_close(
        disc.bq.trace(linear), a * points[..., 0] + b * points[..., 1] + c, rtol=1e-14
    )
    vp, g, _ = disc.gather(w.values)
    data = disc.jacobian(vp, g) + disc.stiffness
    expected = apply_dirichlet(scipy_csc(disc.matrix(data)), disc.dirichlet)
    disc.eliminate(data)
    assert np.array_equal(scipy_csc(disc.matrix(data)).toarray(), expected.toarray())


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    n=st.integers(1, 6),
    pinned=st.booleans(),
    controlled=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_fused_kernels_match_element_assembly(jittered_mesh, n, pinned, controlled, seed):
    # the time loop's residual and Jacobian kernels, as a trajectory sets them up
    rng = np.random.default_rng(seed)
    mesh = jittered_mesh(n, pinned, rng)
    w = random_field(mesh, rng)
    cubic = rng.uniform(0.1, 2.0) if controlled else 0.0
    disc = Discretization(mesh)

    def close(got, want):
        if sp.issparse(want):
            got, want = scipy_csc(disc.matrix(got)).toarray(), want.toarray()
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))

    load, (vp, g, tr) = disc.residual(w.values, cubic)
    transport = assemble_convection_by_transport(w)
    gradient = assemble_convection_by_gradient(w)
    if not controlled:
        assert tr is None
        close(load, transport @ w.values)
        close(disc.jacobian(vp, g), transport + gradient)
        close(disc.transport(w.values), transport)
        return
    assert np.array_equal(tr, disc.bq.trace(w.values))
    close(load, transport @ w.values + cubic * boundary_cubic_residual(w, ACTIVE_TAGS))
    newton = transport + gradient + cubic * boundary_cubic_jacobian(w, ACTIVE_TAGS)
    close(disc.jacobian(vp, g, 3.0 * cubic * tr**2), newton)
    boundary = cubic * trace_values(w, ACTIVE_TAGS) ** 2
    picard = transport + assemble_boundary_mass(mesh, boundary, ACTIVE_TAGS)
    close(disc.transport(w.values, cubic * tr**2), picard)


SIDES = [((0.0, 0.0), (1.0, 0.0)), ((1.0, 0.0), (1.0, 1.0)),
         ((1.0, 1.0), (0.0, 1.0)), ((0.0, 1.0), (0.0, 0.0))]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    n=st.integers(1, 12),
    layout=st.sampled_from(["unit", "refined", "jittered"]),
    # every edge active, the right side pinned, or no active edge at all
    region=st.sampled_from([None, SIDES[1], SIDES]),
    seed=st.integers(0, 2**32 - 1),
)
def test_compiled_sums_are_bit_equal_to_bincount(jittered_mesh, n, layout, region, seed):
    # every sum of local entries is one compiled product that adds each slot's entries
    # from zero in np.bincount's order: a build of scipy's kernels that fused the
    # transport's product and sum into an FMA, or a reordered sum, fails here rather
    # than moving the CSVs
    rng = np.random.default_rng(seed)
    mesh = jittered_mesh(n, False, rng) if layout == "jittered" else build_unit_square_mesh(n)
    if layout == "refined":
        mesh = refine_uniform(mesh)
    disc = Discretization(tag_boundary(mesh, region))
    reference = BincountSums(disc)
    assert (disc.bq.edges.size == 0) == (region is SIDES)

    def same(got, want):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    columns = np.repeat(np.arange(mesh.num_vertices), np.diff(disc.indptr))
    assert np.array_equal(disc.indices, reference.rows)
    assert np.array_equal(columns, reference.columns)
    same(disc.mass, reference.mass)
    same(disc.stiffness, reference.stiffness)
    w = rng.standard_normal(mesh.num_vertices)
    vp, g, tr = disc.gather(w, traced=True)
    gq, cubic = rng.standard_normal(tr.shape), rng.uniform(0.1, 2.0)
    same(disc.jacobian(vp, g), reference.jacobian(vp, g))
    same(disc.jacobian(vp, g, gq), reference.jacobian(vp, g, gq))
    same(disc.residual(w)[0], reference.load(vp, g))
    same(disc.residual(w, cubic)[0], reference.load(vp, g, tr, cubic))
    same(disc.transport(w), reference.jacobian(vp))
    same(disc.transport(w, gq), reference.jacobian(vp, gq=gq))


def test_matrices_share_one_read_only_pattern(unit4):
    disc = Discretization(unit4)
    indices, indptr = disc.indices.copy(), disc.indptr.copy()
    data = disc.stiffness + disc.mass
    matrix = disc.matrix(data)
    assert matrix.data is data
    assert np.shares_memory(matrix.indices, disc.indices)
    assert np.shares_memory(matrix.indptr, disc.indptr)
    with pytest.raises(ValueError):
        matrix.indices[0] = 0
    b = np.ones(unit4.num_vertices)
    # the band LU, SuperLU and their certificates only read the pattern
    for factorization in (disc.factor(data), SuperLU(scipy_csc(matrix))):
        factorization.solve(b)
    assert np.array_equal(disc.indices, indices) and np.array_equal(disc.indptr, indptr)
    reference = sp.csc_matrix((data, indices, indptr), shape=matrix.shape)
    assert (scipy_csc(matrix) != reference).nnz == 0
