"""P1 finite element assembly on triangulations.

Convection is exact on the P1 mass pattern, as ``(d/dx1 + d/dx2) w`` is
constant per triangle.  A six-point interior rule exact to degree 4 only
samples callables, and a three-point Gauss rule on boundary edges exact to
degree 5 integrates the cubic and quartic traces exactly.  Matrices are
assembled cell-by-cell (triangles or edges) and returned as scipy CSR;
:class:`Discretization` assembles the same forms onto one fixed CSC pattern.
Both share one edge trace, :func:`_trace`, and one edge load, :func:`_edge_load`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import BoundaryTag, Mesh
from .sparse import Factorization, solve_general

__all__ = [
    "BoundaryQuadrature",
    "Discretization",
    "FeField",
    "NonNestedMeshError",
    "Quadrature",
    "assemble_boundary_mass",
    "assemble_convection_by_gradient",
    "assemble_convection_by_transport",
    "assemble_mass",
    "assemble_stiffness",
    "boundary_cubic_jacobian",
    "boundary_cubic_residual",
    "boundary_load",
    "boundary_quadrature",
    "convection_form",
    "dirichlet_vertex_indices",
    "discrete_laplacian",
    "elliptic_projection",
    "h1_seminorm",
    "integrate",
    "interpolate",
    "l2_norm",
    "load_vector",
    "prolong",
    "trace_values",
]


class NonNestedMeshError(ValueError):
    """Raised when a field transfer is requested between unrelated meshes."""


@dataclass(frozen=True)
class Quadrature:
    """Interior and edge quadrature rules on reference elements.

    ``interior_points`` holds barycentric coordinates on the reference
    triangle and ``interior_weights`` sums to its measure 1/2.
    ``edge_points`` are parameters on [0, 1] and ``edge_weights`` sums to 1.
    """

    interior_points: np.ndarray
    interior_weights: np.ndarray
    edge_points: np.ndarray
    edge_weights: np.ndarray


def _default_quadrature() -> Quadrature:
    # degree-4 six-point triangle rule (two symmetric orbits)
    a1, b1, w1 = 0.81684757298045851308, 0.09157621350977074346, 0.10995174365532186764
    a2, b2, w2 = 0.10810301816807022736, 0.44594849091596488632, 0.22338158967801146570
    pts = np.array(
        [
            [a1, b1, b1],
            [b1, a1, b1],
            [b1, b1, a1],
            [a2, b2, b2],
            [b2, a2, b2],
            [b2, b2, a2],
        ]
    )
    wts = 0.5 * np.array([w1, w1, w1, w2, w2, w2])
    # degree-5 three-point Gauss rule mapped to [0, 1]
    off = 0.5 * np.sqrt(0.6)
    edge_pts = np.array([0.5 - off, 0.5, 0.5 + off])
    edge_wts = np.array([5.0, 8.0, 5.0]) / 18.0
    return Quadrature(pts, wts, edge_pts, edge_wts)


_QUADRATURE = _default_quadrature()


@dataclass(frozen=True, eq=False)
class FeField:
    """Nodal P1 field: one value per mesh vertex, held in a read-only view."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).view()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.shape != (self.mesh.num_vertices,):
            raise ValueError(
                f"field has {values.shape} values for "
                f"{self.mesh.num_vertices} vertices"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field contains non-finite values")


def _geometry(mesh: Mesh):
    """Areas and constant basis gradients per triangle.

    Returns (areas, gx, gy) with gx[e, i] the x-derivative of local basis
    function i on element e.
    """
    v = mesh.vertices
    t = mesh.triangles
    p0, p1, p2 = v[t[:, 0]], v[t[:, 1]], v[t[:, 2]]
    d1 = p1 - p0
    d2 = p2 - p0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    areas = 0.5 * det
    gx = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1)
    gy = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1)
    return areas, gx / det[:, None], gy / det[:, None]


def _element_triplets(mesh: Mesh, cells: np.ndarray, blocks: np.ndarray) -> sp.csr_matrix:
    """Sum of the local ``blocks`` (cells, k, k) on the vertex tuples ``cells`` (cells, k)."""
    m, k = cells.shape
    rows = np.broadcast_to(cells[:, :, None], (m, k, k)).ravel()
    cols = np.broadcast_to(cells[:, None, :], (m, k, k)).ravel()
    return sp.csr_matrix((blocks.ravel(), (rows, cols)), shape=(mesh.num_vertices,) * 2)


_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0


def _stiffness_blocks(areas, gx, gy):
    return areas[:, None, None] * (
        gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]
    )


def _slopes(areas, gx, gy):
    """Integral over each triangle of ``(d/dx1 + d/dx2) phi_j``, shape (triangles, 3)."""
    return areas[:, None] * (gx + gy)


def _transport_blocks(ds, vk):
    # ds from _slopes; vk: coefficient values at the element vertices, shape (triangles, 3)
    return (vk @ _MASS_PATTERN)[:, :, None] * ds[:, None, :]


def _gradient_blocks(ds, vk):
    return np.sum(ds * vk, axis=1)[:, None, None] * _MASS_PATTERN


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Mass matrix: entries are exact integrals of basis products.

    Each element block is ``area / 12 * [[2, 1, 1], [1, 2, 1], [1, 1, 2]]``.
    """
    areas, _, _ = _geometry(mesh)
    return _element_triplets(mesh, mesh.triangles, areas[:, None, None] * _MASS_PATTERN)


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Stiffness matrix of gradient inner products; constants span its kernel."""
    return _element_triplets(mesh, mesh.triangles, _stiffness_blocks(*_geometry(mesh)))


def assemble_convection_by_transport(v: FeField) -> sp.csr_matrix:
    """Matrix of ``integral of v (d/dx1 + d/dx2) phi_j phi_i``.

    The coefficient ``v`` multiplies the transported basis function, whose
    derivative is constant per element, so each block is that slope times
    the mass-pattern image of ``v``.
    """
    blocks = _transport_blocks(_slopes(*_geometry(v.mesh)), v.values[v.mesh.triangles])
    return _element_triplets(v.mesh, v.mesh.triangles, blocks)


def assemble_convection_by_gradient(v: FeField) -> sp.csr_matrix:
    """Matrix of ``integral of (d/dx1 + d/dx2) v phi_j phi_i``.

    The directional derivative of ``v`` is constant per element, so each
    block is that constant times the element mass block.
    """
    blocks = _gradient_blocks(_slopes(*_geometry(v.mesh)), v.values[v.mesh.triangles])
    return _element_triplets(v.mesh, v.mesh.triangles, blocks)


def convection_form(v: FeField, w: FeField, z: FeField) -> float:
    """Trilinear convection pairing ``integral of v (dw/dx1 + dw/dx2) z``."""
    if w.mesh is not v.mesh or z.mesh is not v.mesh:
        raise ValueError("convection_form requires fields on one mesh")
    tri = v.mesh.triangles
    vz = np.sum((v.values[tri] @ _MASS_PATTERN) * z.values[tri], axis=1)
    return float(vz @ np.sum(_slopes(*_geometry(v.mesh)) * w.values[tri], axis=1))


def _active_mask(mesh: Mesh, tags) -> np.ndarray:
    if tags is None:
        return np.ones(mesh.num_boundary_edges, dtype=bool)
    wanted = {int(t) for t in tags}
    return np.isin(mesh.boundary_tags, sorted(wanted))


@dataclass(frozen=True, eq=False)
class BoundaryQuadrature:
    """Edge quadrature data restricted to a tag subset.

    ``basis`` holds the two endpoint basis functions evaluated at the edge
    quadrature parameters, shape (2, points); ``index`` maps rows back into
    the mesh's full boundary edge list.
    """

    edges: np.ndarray
    lengths: np.ndarray
    normals: np.ndarray
    points: np.ndarray
    basis: np.ndarray
    weights: np.ndarray
    index: np.ndarray


def boundary_quadrature(mesh: Mesh, tags=None) -> BoundaryQuadrature:
    mask = _active_mask(mesh, tags)
    idx = np.flatnonzero(mask)
    edges = mesh.boundary_edges[idx]
    a = mesh.vertices[edges[:, 0]]
    b = mesh.vertices[edges[:, 1]]
    t = _QUADRATURE.edge_points
    points = a[:, None, :] * (1.0 - t)[None, :, None] + b[:, None, :] * t[None, :, None]
    basis = np.stack([1.0 - t, t], axis=0)
    return BoundaryQuadrature(
        edges=edges,
        lengths=np.linalg.norm(b - a, axis=1),
        normals=mesh.boundary_normals[idx],
        points=points,
        basis=basis,
        weights=_QUADRATURE.edge_weights,
        index=idx,
    )


def trace_values(w: FeField, tags=None) -> np.ndarray:
    """Field values at the edge quadrature points, shape (edges, points)."""
    return _trace(w.values, boundary_quadrature(w.mesh, tags))


def _trace(values: np.ndarray, bq: BoundaryQuadrature) -> np.ndarray:
    v = values[bq.edges]
    return v[:, :1] * bq.basis[0] + v[:, 1:] * bq.basis[1]


def _coefficient_at_edge_quadrature(g, bq: BoundaryQuadrature) -> np.ndarray:
    """Coerce a scalar or an (ne, nq) array coefficient to (ne, nq)."""
    shape = bq.points.shape[:2]
    arr = np.asarray(g, dtype=float)
    if arr.ndim == 0:
        return np.full(shape, float(arr))
    if arr.shape != shape:
        raise ValueError(f"coefficient array has shape {arr.shape}, expected {shape}")
    return arr


def assemble_boundary_mass(mesh: Mesh, g, tags=None) -> sp.csr_matrix:
    """Boundary matrix of ``integral over tagged edges of g phi_j phi_i``.

    The coefficient ``g`` is a scalar or values at the quadrature nodes,
    shape (active edges, quadrature points).  Evaluation is pointwise at
    the nodes, so non-smooth coefficients such as absolute values of a
    field's trace are supported without edge splitting.
    """
    bq = boundary_quadrature(mesh, tags)
    gq = _coefficient_at_edge_quadrature(g, bq)
    return _element_triplets(mesh, bq.edges, _edge_blocks(bq, gq))


def _edge_blocks(bq: BoundaryQuadrature, gq: np.ndarray) -> np.ndarray:
    blocks = np.einsum("q,eq,iq,jq->eij", bq.weights, gq, bq.basis, bq.basis)
    blocks *= bq.lengths[:, None, None]
    return blocks


def boundary_load(mesh: Mesh, g, tags=None) -> np.ndarray:
    """Vector of ``integral over tagged edges of g phi_i``.

    ``g`` is a scalar, an (active edges, quadrature points) array, or a
    callable of ``(x, y, nx, ny)`` so normal-dependent fluxes can be
    expressed directly.
    """
    bq = boundary_quadrature(mesh, tags)
    if callable(g):
        shape = bq.points.shape[:2]
        g = g(
            bq.points[:, :, 0],
            bq.points[:, :, 1],
            np.broadcast_to(bq.normals[:, None, 0], shape),
            np.broadcast_to(bq.normals[:, None, 1], shape),
        )
    return _edge_load(bq, _coefficient_at_edge_quadrature(g, bq), mesh.num_vertices)


def _edge_load(bq: BoundaryQuadrature, gq: np.ndarray, n: int) -> np.ndarray:
    """Length-``n`` vector of ``integral over the edges of bq of g phi_i``, ``gq`` at the points."""
    weights = (gq * bq.lengths[:, None] * bq.weights)[:, :, None] * bq.basis.T
    return np.bincount(np.repeat(bq.edges, bq.weights.size, axis=0).ravel(), weights.ravel(), n)


def boundary_cubic_residual(w: FeField, tags=None) -> np.ndarray:
    """Vector of ``integral over tagged edges of w^3 phi_i`` (exact)."""
    return boundary_load(w.mesh, trace_values(w, tags) ** 3, tags)


def boundary_cubic_jacobian(w: FeField, tags=None) -> sp.csr_matrix:
    """Derivative of :func:`boundary_cubic_residual`: entries 3 w^2 phi_j phi_i."""
    return assemble_boundary_mass(w.mesh, 3.0 * trace_values(w, tags) ** 2, tags)


def _at_interior_points(mesh: Mesh, f) -> np.ndarray:
    """A callable (or constant) at the interior quadrature points, shape (triangles, points)."""
    lam = _QUADRATURE.interior_points
    shape = (mesh.triangles.shape[0], lam.shape[0])
    if not callable(f):
        return np.full(shape, float(f))
    corners = mesh.vertices[mesh.triangles]
    values = f(corners[:, :, 0] @ lam.T, corners[:, :, 1] @ lam.T)
    return np.asarray(values, dtype=float) * np.ones(shape)


def load_vector(mesh: Mesh, f) -> np.ndarray:
    """Vector of ``integral of f phi_i`` by the interior rule."""
    areas, _, _ = _geometry(mesh)
    fq = _at_interior_points(mesh, f)
    lam = _QUADRATURE.interior_points
    contrib = np.einsum("q,eq,qi->ei", _QUADRATURE.interior_weights, fq, lam)
    contrib *= (2.0 * areas)[:, None]
    return np.bincount(mesh.triangles.ravel(), contrib.ravel(), mesh.num_vertices)


def integrate(mesh: Mesh, f) -> float:
    """Integral of a callable (or constant) over the mesh by the interior rule."""
    areas, _, _ = _geometry(mesh)
    fq = _at_interior_points(mesh, f)
    return float(np.sum((fq @ _QUADRATURE.interior_weights) * 2.0 * areas))


def discrete_laplacian(mesh: Mesh, w: FeField, flux=None) -> FeField:
    """Mass-inverted Laplacian with a prescribed normal flux.

    Returns the nodal field ``d`` solving ``M d = flux load - K w``, the
    variational image of the Laplacian when the normal derivative of ``w``
    equals ``flux`` (zero when omitted).
    """
    if w.mesh is not mesh:
        raise ValueError("field does not live on the given mesh")
    rhs = -(assemble_stiffness(mesh) @ w.values)
    if flux is not None:
        rhs = rhs + boundary_load(mesh, flux)
    d = solve_general(assemble_mass(mesh), rhs)
    return FeField(mesh, d)


def l2_norm(w: FeField) -> float:
    m = assemble_mass(w.mesh)
    return float(np.sqrt(max(w.values @ (m @ w.values), 0.0)))


def h1_seminorm(w: FeField) -> float:
    k = assemble_stiffness(w.mesh)
    return float(np.sqrt(max(w.values @ (k @ w.values), 0.0)))


def interpolate(f, mesh: Mesh) -> FeField:
    """Nodal interpolant of a callable (or constant) on the mesh vertices."""
    if callable(f):
        values = np.asarray(
            f(mesh.vertices[:, 0], mesh.vertices[:, 1]), dtype=float
        )
        values = np.broadcast_to(values, (mesh.num_vertices,)).copy()
    else:
        values = np.full(mesh.num_vertices, float(f))
    return FeField(mesh, values)


def prolong(coarse: FeField, fine_mesh: Mesh) -> FeField:
    """Exact transfer of a nodal field onto a refinement descendant.

    Walks the refinement ancestry of ``fine_mesh`` down to the field's mesh
    and averages parent vertex pairs level by level; P1 fields are linear on
    parent edges, so the transfer is exact.  Requesting a transfer onto the
    field's own mesh returns a copy.
    """
    chain = []
    m = fine_mesh
    while m is not coarse.mesh:
        if m.refinement_parent is None:
            raise NonNestedMeshError(
                "target mesh is not a refinement descendant of the field's mesh"
            )
        chain.append(m)
        m = m.refinement_parent.mesh
    values = coarse.values.copy()
    for mesh_level in reversed(chain):
        pairs = mesh_level.refinement_parent.vertex_parents
        values = 0.5 * (values[pairs[:, 0]] + values[pairs[:, 1]])
    return FeField(fine_mesh, values)


def elliptic_projection(mesh: Mesh, f, fx, fy) -> FeField:
    """Shifted elliptic projection of an analytic function.

    Solves ``(K + M) u = b`` with
    ``b_i = integral of grad f . grad phi_i + f phi_i``, using the supplied
    first derivatives ``fx, fy``.  The unit shift makes the system positive
    definite without boundary conditions.
    """
    areas, gx, gy = _geometry(mesh)
    wq = _QUADRATURE.interior_weights
    fxq, fyq = (_at_interior_points(mesh, g) for g in (fx, fy))
    # gradient part: grad phi_i constant per element
    grad_part = (
        gx * ((fxq * wq[None, :]).sum(axis=1) * 2.0 * areas)[:, None]
        + gy * ((fyq * wq[None, :]).sum(axis=1) * 2.0 * areas)[:, None]
    )
    b = np.bincount(mesh.triangles.ravel(), grad_part.ravel(), mesh.num_vertices)
    b += load_vector(mesh, f)
    a = assemble_stiffness(mesh) + assemble_mass(mesh)
    return FeField(mesh, solve_general(a, b))


def dirichlet_vertex_indices(mesh: Mesh) -> np.ndarray:
    """Sorted vertex indices lying on DIRICHLET_ZERO edges."""
    mask = mesh.boundary_tags == int(BoundaryTag.DIRICHLET_ZERO)
    return np.unique(mesh.boundary_edges[mask])


class Discretization:
    """Fixed CSC sparsity pattern of one mesh and the maps onto it.

    Built once per mesh and set of active boundary ``tags``.
    ``element_slots`` (triangles, 3, 3) and ``edge_slots`` (active edges,
    2, 2) give the data position of each local matrix entry, so assembly is
    one ``np.bincount``; ``mass`` and ``stiffness`` are data on the pattern,
    and ``slopes`` (triangles, 3) feeds the convection kernels.
    ``bq`` is the active-edge quadrature; :meth:`traces` and
    :meth:`boundary_load` use the same :func:`_trace` and :func:`_edge_load`
    as the free functions.  ``dirichlet`` holds the pinned vertices, and
    ``dirichlet_zero`` and ``dirichlet_diag`` are the slots that
    :meth:`eliminate` clears and sets to one.  :meth:`factor` is the time
    loop's band LU: ``order`` numbers the vertices row by row (by ``y``,
    then ``x``), which keeps the unit-square meshes and their refinements
    within ``bandwidth = n + 2`` of the diagonal, and ``band_slots`` is each
    slot's flat index in the band array.  Other solves stay on SuperLU.
    """

    def __init__(self, mesh: Mesh, tags=None):
        n = mesh.num_vertices
        tri = mesh.triangles
        # column-major keys order the pattern as CSC
        keys, slots = np.unique(tri[:, None, :] * n + tri[:, :, None], return_inverse=True)
        rows, columns = keys % n, keys // n
        self.mesh = mesh
        geometry = _geometry(mesh)
        self.indices = rows.astype(np.int32)
        self.indptr = np.searchsorted(columns, np.arange(n + 1)).astype(np.int32)
        self.element_slots = slots.reshape(-1, 3, 3)
        self.mass = self._scatter(self.element_slots, geometry[0][:, None, None] * _MASS_PATTERN)
        self.stiffness = self._scatter(self.element_slots, _stiffness_blocks(*geometry))
        self.slopes = _slopes(*geometry)
        self.bq = boundary_quadrature(mesh, tags)
        e = self.bq.edges
        self.edge_slots = np.searchsorted(keys, e[:, None, :] * n + e[:, :, None])
        self.dirichlet = dirichlet_vertex_indices(mesh)
        pinned = np.zeros(n, dtype=bool)
        pinned[self.dirichlet] = True
        self.dirichlet_zero = np.flatnonzero(pinned[rows] | pinned[columns])
        self.dirichlet_diag = np.flatnonzero(pinned[rows] & (rows == columns))
        # np.lexsort takes its last key, y, as the primary one
        self.order = np.lexsort(mesh.vertices.T)
        rank = np.argsort(self.order)
        offset = rank[rows] - rank[columns]
        self.bandwidth = int(np.max(np.abs(offset)))
        self.band_slots = 2 * self.bandwidth + offset + (3 * self.bandwidth + 1) * rank[columns]

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        n = self.mesh.num_vertices
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(n, n))

    def factor(self, data: np.ndarray) -> Factorization:
        """Certified band LU of ``matrix(data)`` in the vertex order ``order``."""
        return Factorization(self.matrix(data), (self.order, self.bandwidth, self.band_slots))

    def _scatter(self, slots, blocks):
        return np.bincount(slots.ravel(), blocks.ravel(), self.indices.size)

    def transport(self, values: np.ndarray) -> np.ndarray:
        blocks = _transport_blocks(self.slopes, values[self.mesh.triangles])
        return self._scatter(self.element_slots, blocks)

    def convection(self, values: np.ndarray) -> np.ndarray:
        """``matrix(transport(values)) @ values`` element by element, with no matrix."""
        wk = values[self.mesh.triangles]
        element = (wk @ _MASS_PATTERN) * np.sum(self.slopes * wk, axis=1)[:, None]
        return np.bincount(self.mesh.triangles.ravel(), element.ravel(), values.size)

    def gradient(self, values: np.ndarray) -> np.ndarray:
        blocks = _gradient_blocks(self.slopes, values[self.mesh.triangles])
        return self._scatter(self.element_slots, blocks)

    def traces(self, values: np.ndarray) -> np.ndarray:
        """Values at the active-edge quadrature points, shape (edges, points)."""
        return _trace(values, self.bq)

    def boundary_mass(self, gq: np.ndarray) -> np.ndarray:
        """Boundary mass data for coefficient values ``gq`` of shape (edges, points)."""
        return self._scatter(self.edge_slots, _edge_blocks(self.bq, gq))

    def boundary_load(self, gq: np.ndarray) -> np.ndarray:
        """Vector of ``integral over active edges of g phi_i``."""
        return _edge_load(self.bq, gq, self.mesh.num_vertices)

    def eliminate(self, data: np.ndarray) -> None:
        """Eliminate the Dirichlet rows and columns in place, with unit diagonals."""
        data[self.dirichlet_zero] = 0.0
        data[self.dirichlet_diag] = 1.0
