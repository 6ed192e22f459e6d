"""Reference code the tests compare the package against; nothing in ``src/`` calls it.

The element-by-element assemblers (mass, stiffness, convection by transport
and by gradient, boundary mass, traces and the cubic boundary terms) build
scipy CSR matrices cell by cell from COO triplets on the package's private
kernels.  :class:`~burgersfb.assembly.Discretization`, the package's one
matrix assembler, is checked against them, and
:func:`steady_residual_and_gap` builds the steady residual from them.
:func:`refined_boundary_by_rescan` finds a refined mesh's boundary from its
children, where ``refine_uniform`` inherits it from the parent.
:func:`analytic_from_expression_by_sympy` parses and differentiates
closed-form data with sympy, the reference for the package's own parser.
:class:`SuperLU` is a :class:`~burgersfb.sparse.Factorization` on SuperLU,
the one place ``scipy.sparse.linalg`` is loaded: :func:`solve_general` and
the bordered steady solve :func:`solve_bordered` are the references for
the package's band LU.  :func:`full_band` lets a small matrix of any
pattern take the package's band LU, and :func:`scipy_csc` turns the package's
own CSC matrices into scipy's for the references.  :class:`BincountSums` sums
the local entries of a :class:`~burgersfb.assembly.Discretization` by
``np.bincount``, the reference its compiled sums must equal bit for bit.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from burgersfb.assembly import (
    _EDGE_WEIGHTS,
    _INTERIOR_POINTS,
    _INTERIOR_WEIGHTS,
    _MASS_PATTERN,
    ACTIVE_TAGS,
    FeField,
    _edge_blocks,
    _edge_load,
    _geometry,
    _slopes,
    _stiffness_blocks,
    _trace,
    boundary_load,
    boundary_quadrature,
    load_vector,
)
from burgersfb.control import ControlParams
from burgersfb.mesh import Mesh, _boundary_edges
from burgersfb.sparse import Factorization, SingularMatrixError
from burgersfb.steady import AnalyticFunction


class SuperLU(Factorization):
    """A :class:`~burgersfb.sparse.Factorization` whose factor is SuperLU's, with the
    package's certificate on every solve and refinement."""

    def __init__(self, a: sp.csc_matrix):
        self.matrix = a
        try:
            lu = spla.splu(a)
        except RuntimeError as exc:
            raise SingularMatrixError(f"factorization failed: {exc}") from exc
        self._solve = lu.solve


def solve_general(a: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """One certified SuperLU solve of ``a`` (any format)."""
    return SuperLU(sp.csc_matrix(a)).solve(b)


def solve_bordered(core: sp.spmatrix, constraint_row, rhs, constraint_value: float):
    """``(x, mu)`` with ``core x + mu c = rhs`` and ``c . x = constraint_value``, as one
    (n + 1)-square SuperLU solve of the matrix bordered by the row ``c``."""
    c = np.asarray(constraint_row, dtype=float)
    n = c.shape[0]
    if core.shape != (n, n) or np.shape(rhs) != (n,):
        raise ValueError("bordered system blocks have inconsistent shapes")
    if not np.any(c):
        raise ValueError("constraint row is identically zero")
    aug = sp.bmat([[sp.csc_matrix(core), sp.csc_matrix(c[:, None])],
                   [sp.csc_matrix(c[None, :]), None]], format="csc")
    y = solve_general(aug, np.append(rhs, constraint_value))
    return y[:n], float(y[n])


def scipy_csc(a) -> sp.csc_matrix:
    """The package's CSC matrix ``a`` (``Discretization.matrix``) as scipy CSC on its arrays."""
    return sp.csc_matrix((a.data, a.indices, a.indptr), shape=a.shape)


def full_band(a: sp.csc_matrix) -> tuple:
    """The ``band`` of a :class:`~burgersfb.sparse.Factorization` of the CSC ``a`` in its
    own order, with half-bandwidth ``n - 1``: every pattern fits."""
    n = a.shape[0]
    width = max(n - 1, 0)
    columns = np.repeat(np.arange(n), np.diff(a.indptr))
    return np.arange(n), width, 2 * width + a.indices - columns + (3 * width + 1) * columns


class BincountSums:
    """The sums of a ``Discretization``'s local entries by ``np.bincount``, which adds each
    slot's entries from zero in place order: the element entries (3, 3, triangles), then
    the active-edge entries (active edges, 2, 2), through slots found by ``np.unique`` and
    ``np.searchsorted``; loads through the corners, then the active-edge endpoints."""

    def __init__(self, disc):
        n, corners, edges = disc.mesh.num_vertices, disc.corners, disc.bq.edges
        keys, slots = np.unique(corners * n + corners[:, None], return_inverse=True)
        edge_slots = np.searchsorted(keys, edges[:, None, :] * n + edges[:, :, None])
        self.disc, self.rows, self.columns = disc, keys % n, keys // n
        self.slots = np.concatenate([slots.ravel(), edge_slots.ravel()])
        self.load_index = np.concatenate([corners.ravel(), edges.ravel()])
        areas, gx, gy = _geometry(disc.mesh)
        self.mass = self.scatter(_MASS_PATTERN[:, :, None] * areas)
        self.stiffness = self.scatter(_stiffness_blocks(areas, gx, gy).transpose(1, 2, 0))

    def scatter(self, blocks: np.ndarray) -> np.ndarray:
        blocks = blocks.ravel()
        return np.bincount(self.slots[: blocks.size], blocks, self.rows.size)

    def jacobian(self, vp, g=None, gq=None) -> np.ndarray:
        """The transport from ``vp``, the gradient term from ``g`` and the boundary mass
        of ``gq``, each unless ``None``; Picard's system takes ``g = None``."""
        blocks = vp[:, None] * self.disc.slopes
        if g is not None:
            blocks += _MASS_PATTERN[:, :, None] * g
        if gq is not None:
            blocks = np.concatenate([blocks.ravel(), _edge_blocks(self.disc.bq, gq).ravel()])
        return self.scatter(blocks)

    def load(self, vp, g, tr=None, cubic_scale=0.0) -> np.ndarray:
        """The residual load from ``vp * g`` and, given traces ``tr``, the cubic edge load."""
        weights = (vp * g).ravel()
        if tr is not None:
            cubic = _edge_load(self.disc.bq, cubic_scale * tr**3).ravel()
            weights = np.concatenate([weights, cubic])
        n = self.disc.mesh.num_vertices
        return np.bincount(self.load_index[: weights.size], weights, n)


def _element_triplets(mesh: Mesh, cells: np.ndarray, blocks: np.ndarray) -> sp.csr_matrix:
    """Sum of the local ``blocks`` (cells, k, k) on the vertex tuples ``cells`` (cells, k)."""
    m, k = cells.shape
    rows = np.broadcast_to(cells[:, :, None], (m, k, k)).ravel()
    cols = np.broadcast_to(cells[:, None, :], (m, k, k)).ravel()
    return sp.csr_matrix((blocks.ravel(), (rows, cols)), shape=(mesh.num_vertices,) * 2)


def assemble_mass_by_element(mesh: Mesh) -> sp.csr_matrix:
    """Mass matrix from the blocks ``area / 12 * [[2, 1, 1], [1, 2, 1], [1, 1, 2]]``."""
    areas, _, _ = _geometry(mesh)
    return _element_triplets(mesh, mesh.triangles, areas[:, None, None] * _MASS_PATTERN)


def assemble_stiffness_by_element(mesh: Mesh) -> sp.csr_matrix:
    """Stiffness matrix from the blocks ``area * grad phi_i . grad phi_j``."""
    return _element_triplets(mesh, mesh.triangles, _stiffness_blocks(*_geometry(mesh)))


def apply_dirichlet(matrix: sp.spmatrix, dofs: np.ndarray) -> sp.csr_matrix:
    """Eliminate rows and columns of constrained dofs, placing unit diagonals."""
    n = matrix.shape[0]
    dofs = np.asarray(dofs, dtype=int)
    if dofs.size == 0:
        return sp.csr_matrix(matrix)
    keep = np.ones(n)
    keep[dofs] = 0.0
    selector = sp.diags(keep)
    pinned = np.zeros(n)
    pinned[dofs] = 1.0
    out = selector @ matrix @ selector + sp.diags(pinned)
    return sp.csr_matrix(out)


def convection_by_quadrature(v: FeField, w: FeField, z: FeField) -> float:
    """``integral of v (dw/dx1 + dw/dx2) z`` by the six-point interior rule.

    The integrand is quadratic per triangle, so the degree-4 rule is exact;
    the package computes the same form on the P1 mass pattern instead.
    """
    areas, gx, gy = _geometry(v.mesh)
    lam = _INTERIOR_POINTS
    tri = v.mesh.triangles
    vq = v.values[tri] @ lam.T
    zq = z.values[tri] @ lam.T
    sw = np.sum(w.values[tri] * (gx + gy), axis=1)
    return float(np.sum(((vq * zq) @ _INTERIOR_WEIGHTS) * sw * (2.0 * areas)))


def assemble_convection_by_transport(v: FeField) -> sp.csr_matrix:
    """Matrix of ``integral of v (d/dx1 + d/dx2) phi_j phi_i``.

    The coefficient ``v`` multiplies the transported basis function, whose
    derivative is constant per element, so each block is that slope times
    the mass-pattern image of ``v``.
    """
    vp = v.values[v.mesh.triangles] @ _MASS_PATTERN
    blocks = vp[:, :, None] * _slopes(*_geometry(v.mesh))[:, None, :]
    return _element_triplets(v.mesh, v.mesh.triangles, blocks)


def assemble_convection_by_gradient(v: FeField) -> sp.csr_matrix:
    """Matrix of ``integral of (d/dx1 + d/dx2) v phi_j phi_i``.

    The directional derivative of ``v`` is constant per element, so each
    block is that constant times the element mass block.
    """
    g = np.sum(_slopes(*_geometry(v.mesh)) * v.values[v.mesh.triangles], axis=1)
    return _element_triplets(v.mesh, v.mesh.triangles, g[:, None, None] * _MASS_PATTERN)


def trace_values(w: FeField, tags=None) -> np.ndarray:
    """Field values at the edge quadrature points, shape (edges, points)."""
    return _trace(w.values, boundary_quadrature(w.mesh, tags))


def assemble_boundary_mass(mesh: Mesh, g, tags=None) -> sp.csr_matrix:
    """Boundary matrix of ``integral over tagged edges of g phi_j phi_i``.

    The coefficient ``g`` is a scalar or values at the quadrature nodes,
    shape (active edges, quadrature points).  Evaluation is pointwise at
    the nodes, so non-smooth coefficients such as absolute values of a
    field's trace are supported without edge splitting.
    """
    bq = boundary_quadrature(mesh, tags)
    gq = np.broadcast_to(np.asarray(g, dtype=float), bq.points.shape[:2])
    return _element_triplets(mesh, bq.edges, _edge_blocks(bq, gq))


def boundary_cubic_residual(w: FeField, tags=None) -> np.ndarray:
    """Vector of ``integral over tagged edges of w^3 phi_i`` (exact)."""
    bq = boundary_quadrature(w.mesh, tags)
    load = _edge_load(bq, _trace(w.values, bq) ** 3)
    return np.bincount(bq.edges.ravel(), load.ravel(), w.mesh.num_vertices)


def boundary_cubic_jacobian(w: FeField, tags=None) -> sp.csr_matrix:
    """Derivative of :func:`boundary_cubic_residual`: entries 3 w^2 phi_j phi_i."""
    return assemble_boundary_mass(w.mesh, 3.0 * trace_values(w, tags) ** 2, tags)


def control_trace(w: FeField, u_steady: FeField, params: ControlParams) -> np.ndarray:
    """Feedback flux ``-(1/nu)((c0 + nu + 2 |u_steady|) w + (2/(9 c0)) w^3)`` at every
    boundary quadrature node, written out from the traces.

    Returns an array of shape (boundary edges, quadrature points); rows of
    inactive edges are zero.
    """
    wq, uq = trace_values(w), trace_values(u_steady)
    flux = -((params.c0 + params.nu + 2.0 * np.abs(uq)) * wq + 2.0 / (9.0 * params.c0) * wq**3)
    return np.where(np.isin(w.mesh.boundary_tags, ACTIVE_TAGS)[:, None], flux / params.nu, 0.0)


def control_boundary_l2(w: FeField, u_steady: FeField, params: ControlParams) -> float:
    """L2 norm of the feedback flux over the active boundary, by the edge quadrature."""
    bq = boundary_quadrature(w.mesh)
    weights = bq.lengths[:, None] * _EDGE_WEIGHTS
    return float(np.sqrt(np.sum(weights * control_trace(w, u_steady, params) ** 2)))


def refined_boundary_by_rescan(fine: Mesh) -> tuple:
    """Boundary ``(edges, normals, tags)`` of a refined mesh, derived from its children.

    An edge of exactly one child triangle is a boundary edge, oriented by
    that child; its tag is that of the parent boundary edge holding the
    parent vertices of both endpoints.
    """
    parent = fine.refinement_parent
    edges, normals = _boundary_edges(fine.vertices, fine.triangles)
    parent_tag = {
        (min(a, b), max(a, b)): int(tag)
        for (a, b), tag in zip(parent.mesh.boundary_edges.tolist(), parent.mesh.boundary_tags)
    }
    tags = []
    for a, b in edges:
        owners = set(parent.vertex_parents[a].tolist()) | set(parent.vertex_parents[b].tolist())
        tags.append(parent_tag[(min(owners), max(owners))])
    return edges, normals, np.array(tags, dtype=int)


def steady_residual_and_gap(field: FeField, spec) -> tuple:
    """Steady residual norm over mean-zero test functions, and the mean gap.

    The residual ``nu K u + T(u) u - load`` is assembled element by element
    (CSR mass, stiffness and transport matrices); the component along the
    normalized mass row sums is projected out.  The gap is
    ``spec.mean_value`` minus the mass-weighted mean of ``field``.
    """
    mesh, u = field.mesh, field.values
    load = load_vector(mesh, spec.forcing)
    if spec.neumann_flux is not None:
        load = load + spec.nu * boundary_load(mesh, spec.neumann_flux)
    residual = (
        spec.nu * (assemble_stiffness_by_element(mesh) @ u)
        + assemble_convection_by_transport(field) @ u
        - load
    )
    weights = np.asarray(assemble_mass_by_element(mesh).sum(axis=1)).ravel()
    unit = weights / np.linalg.norm(weights)
    norm = float(np.linalg.norm(residual - (unit @ residual) * unit))
    return norm, spec.mean_value - float(weights @ u)


def analytic_from_expression_by_sympy(expr: str) -> AnalyticFunction:
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
