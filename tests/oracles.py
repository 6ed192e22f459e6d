"""Reference code the tests compare the package against; nothing in ``src/`` calls it.

The element-by-element assemblers (mass, stiffness, convection by transport
and by gradient, boundary mass, traces and the cubic boundary terms) build
scipy CSR matrices cell by cell from COO triplets on the package's private
kernels.  :class:`~burgersfb.assembly.Discretization`, the package's one
matrix assembler, is checked against them, and
:func:`steady_residual_and_gap` builds the steady residual from them.
:func:`refined_boundary_by_rescan` finds a refined mesh's boundary from its
children, where ``refine_uniform`` inherits it from the parent.
"""

import numpy as np
import scipy.sparse as sp

from burgersfb.assembly import (
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
from burgersfb.control import ControlParams, _active_flux, _active_quadrature, _boundary_l2
from burgersfb.mesh import Mesh, _boundary_edges


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
    """Feedback flux at every boundary quadrature node.

    Returns an array of shape (boundary edges, quadrature points); rows of
    inactive edges are zero.
    """
    bq = _active_quadrature(w.mesh)
    full = np.zeros((w.mesh.num_boundary_edges, bq.points.shape[1]))
    full[np.isin(w.mesh.boundary_tags, ACTIVE_TAGS)] = _active_flux(bq, w, u_steady, params)
    return full


def control_boundary_l2(w: FeField, u_steady: FeField, params: ControlParams) -> float:
    """L2 norm of the feedback flux over the active boundary."""
    bq = _active_quadrature(w.mesh)
    return _boundary_l2(bq, _active_flux(bq, w, u_steady, params))


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
