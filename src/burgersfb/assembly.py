"""P1 finite element assembly on triangulations.

Convection is exact on the P1 mass pattern, as ``(d/dx1 + d/dx2) w`` is
constant per triangle.  A six-point interior rule exact to degree 4 only
samples callables, and a three-point Gauss rule on boundary edges exact to
degree 5 integrates the cubic and quartic traces exactly.
:class:`Discretization` is the one matrix assembler: mass, stiffness and
the time loop's forms go onto its fixed CSC pattern, each summed by one
``csc_matvec``.  :class:`BoundaryQuadrature` owns the edge rule: its traces,
loads, blocks and boundary L2 norm are the only edge integrals in the package.
The norms sum per triangle and assemble nothing.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .mesh import BoundaryTag, Mesh
from .sparse import Factorization, _CscMatrix

__all__ = [
    "BoundaryQuadrature",
    "Discretization",
    "FeField",
    "NonNestedMeshError",
    "assemble_mass",
    "boundary_load",
    "boundary_quadrature",
    "convection_form",
    "discrete_laplacian",
    "elliptic_projection",
    "h1_seminorm",
    "integrate",
    "interpolate",
    "l2_norm",
    "load_vector",
    "prolong",
]


class NonNestedMeshError(ValueError):
    """Raised when a field transfer is requested between unrelated meshes."""


# degree-4 six-point triangle rule (two symmetric orbits): barycentric points on the
# reference triangle, weights summing to its measure 1/2
_A1, _B1, _W1 = 0.81684757298045851308, 0.09157621350977074346, 0.10995174365532186764
_A2, _B2, _W2 = 0.10810301816807022736, 0.44594849091596488632, 0.22338158967801146570
_INTERIOR_POINTS = np.array(
    [[_A1, _B1, _B1], [_B1, _A1, _B1], [_B1, _B1, _A1],
     [_A2, _B2, _B2], [_B2, _A2, _B2], [_B2, _B2, _A2]]
)
_INTERIOR_WEIGHTS = 0.5 * np.array([_W1, _W1, _W1, _W2, _W2, _W2])
# degree-5 three-point Gauss rule mapped to [0, 1], weights summing to 1
_EDGE_POINTS = np.array([0.5 - 0.5 * np.sqrt(0.6), 0.5, 0.5 + 0.5 * np.sqrt(0.6)])
_EDGE_WEIGHTS = np.array([5.0, 8.0, 5.0]) / 18.0
# the boundary tags the feedback acts on
ACTIVE_TAGS = (BoundaryTag.NEUMANN_CONTROL,)
# the edge basis at the edge points (2, points) and the weighted products all edges
# share: w_q phi_i(t_q) in column i of _EDGE_LOAD, w_q phi_i phi_j in column 2i+j of _EDGE_PAIRS
_EDGE_BASIS = np.stack([1.0 - _EDGE_POINTS, _EDGE_POINTS])
_EDGE_LOAD = (_EDGE_WEIGHTS * _EDGE_BASIS).T
_EDGE_PAIRS = (_EDGE_WEIGHTS * _EDGE_BASIS[:, None] * _EDGE_BASIS).reshape(4, -1).T


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
    p0, p1, p2 = mesh.vertices[mesh.triangles.T]
    areas = mesh.triangle_areas()
    # the areas are half the determinants, so doubling them is exact
    det = 2.0 * areas[:, None]
    gx = np.stack([p1[:, 1] - p2[:, 1], p2[:, 1] - p0[:, 1], p0[:, 1] - p1[:, 1]], axis=1)
    gy = np.stack([p2[:, 0] - p1[:, 0], p0[:, 0] - p2[:, 0], p1[:, 0] - p0[:, 0]], axis=1)
    return areas, gx / det, gy / det


_MASS_PATTERN = (np.ones((3, 3)) + np.eye(3)) / 12.0
_ONE = np.ones(1)


def _stiffness_blocks(areas, gx, gy):
    return areas[:, None, None] * (
        gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]
    )


def _slopes(areas, gx, gy):
    """Integral over each triangle of ``(d/dx1 + d/dx2) phi_j``, shape (triangles, 3)."""
    return areas[:, None] * (gx + gy)


def assemble_mass(mesh: Mesh):
    """Mass matrix as scipy CSC: entries are exact integrals of basis products.

    Each element block is ``area / 12 * [[2, 1, 1], [1, 2, 1], [1, 1, 2]]``.
    """
    import scipy.sparse  # the package's one scipy.sparse import: it keeps its own CSC type

    disc = Discretization(mesh)
    return scipy.sparse.csc_matrix((disc.mass, disc.indices, disc.indptr), shape=disc._shape)


def convection_form(v: FeField, w: FeField, z: FeField) -> float:
    """Trilinear convection pairing ``integral of v (dw/dx1 + dw/dx2) z``."""
    if w.mesh is not v.mesh or z.mesh is not v.mesh:
        raise ValueError("convection_form requires fields on one mesh")
    tri = v.mesh.triangles
    vz = np.sum((v.values[tri] @ _MASS_PATTERN) * z.values[tri], axis=1)
    return float(vz @ np.sum(_slopes(*_geometry(v.mesh)) * w.values[tri], axis=1))


@dataclass(frozen=True, eq=False)
class BoundaryQuadrature:
    """Per-mesh edge quadrature data of a tag subset: the edges, their lengths and
    outward normals, and the edge quadrature points, shape (edges, points, 2).
    Its methods are the edge rule; ``gq`` holds values at the points."""

    edges: np.ndarray
    lengths: np.ndarray
    normals: np.ndarray
    points: np.ndarray

    def trace(self, values: np.ndarray) -> np.ndarray:
        """The nodal ``values`` at the edge points, shape (edges, points)."""
        return values[self.edges] @ _EDGE_BASIS

    def load(self, gq: np.ndarray) -> np.ndarray:
        """``integral of g phi_i`` per edge and endpoint ``i``, (edges, 2)."""
        return (gq @ _EDGE_LOAD) * self.lengths[:, None]

    def blocks(self, gq: np.ndarray) -> np.ndarray:
        """Blocks of ``integral of g phi_j phi_i`` per edge, (edges, 4); column 2i+j is (i, j)."""
        return (gq @ _EDGE_PAIRS) * self.lengths[:, None]

    def l2(self, gq: np.ndarray) -> float:
        """``sqrt(integral of g^2)`` over the edges."""
        return float(np.sqrt(max(np.sum((gq**2 @ _EDGE_WEIGHTS) * self.lengths), 0.0)))


def boundary_quadrature(mesh: Mesh, tags=None) -> BoundaryQuadrature:
    """Edge quadrature on the boundary edges tagged ``tags``, all of them when ``None``."""
    if tags is None:
        keep = np.ones(mesh.num_boundary_edges, dtype=bool)
    else:
        keep = np.isin(mesh.boundary_tags, [int(t) for t in tags])
    edges = mesh.boundary_edges[keep]
    a = mesh.vertices[edges[:, 0]]
    b = mesh.vertices[edges[:, 1]]
    t = _EDGE_POINTS[None, :, None]
    return BoundaryQuadrature(
        edges=edges,
        lengths=np.linalg.norm(b - a, axis=1),
        normals=mesh.boundary_normals[keep],
        points=a[:, None, :] * (1.0 - t) + b[:, None, :] * t,
    )


def boundary_load(mesh: Mesh, flux) -> np.ndarray:
    """Vector of ``integral over the boundary of flux phi_i``.

    ``flux`` is a callable of ``(x, y, nx, ny)``, so normal-dependent fluxes
    can be expressed directly; it may return a scalar.
    """
    bq = boundary_quadrature(mesh)
    shape = bq.points.shape[:2]
    nx, ny = (np.broadcast_to(bq.normals[:, None, i], shape) for i in (0, 1))
    gq = np.asarray(flux(bq.points[:, :, 0], bq.points[:, :, 1], nx, ny), dtype=float)
    load = bq.load(gq * np.ones(shape))
    return np.bincount(bq.edges.ravel(), load.ravel(), mesh.num_vertices)


def _at_interior_points(mesh: Mesh, f) -> np.ndarray:
    """A callable, which may return a scalar, at the interior quadrature points,
    shape (triangles, points)."""
    lam = _INTERIOR_POINTS
    corners = mesh.vertices[mesh.triangles]
    values = f(corners[:, :, 0] @ lam.T, corners[:, :, 1] @ lam.T)
    return np.asarray(values, dtype=float) * np.ones((mesh.num_triangles, lam.shape[0]))


def load_vector(mesh: Mesh, f) -> np.ndarray:
    """Vector of ``integral of f phi_i`` for a callable ``f`` by the interior rule."""
    areas = mesh.triangle_areas()
    fq = _at_interior_points(mesh, f)
    contrib = np.einsum("q,eq,qi->ei", _INTERIOR_WEIGHTS, fq, _INTERIOR_POINTS)
    contrib *= (2.0 * areas)[:, None]
    return np.bincount(mesh.triangles.ravel(), contrib.ravel(), mesh.num_vertices)


def integrate(mesh: Mesh, f) -> float:
    """Integral of a callable over the mesh by the interior rule."""
    areas = mesh.triangle_areas()
    fq = _at_interior_points(mesh, f)
    return float(np.sum((fq @ _INTERIOR_WEIGHTS) * 2.0 * areas))


def discrete_laplacian(disc: Discretization, w: FeField) -> FeField:
    """Mass-inverted Laplacian with zero normal flux on the mesh of ``disc``.

    Returns the nodal field ``d`` solving ``M d = -K w``, the variational
    image of the Laplacian of ``w`` when its normal derivative vanishes.
    """
    if w.mesh is not disc.mesh:
        raise ValueError("field does not live on the given mesh")
    rhs = -(disc.matrix(disc.stiffness) @ w.values)
    return FeField(disc.mesh, disc.factor(disc.mass).solve(rhs))


def l2_norm(w: FeField) -> float:
    """``sqrt(w^T M w)``, summed per triangle as ``|K| v_K^T P v_K`` on the mass pattern."""
    areas = w.mesh.triangle_areas()
    vk = w.values[w.mesh.triangles]
    return float(np.sqrt(max(areas @ np.sum((vk @ _MASS_PATTERN) * vk, axis=1), 0.0)))


def h1_seminorm(w: FeField) -> float:
    """``sqrt(w^T K w)``, summed per triangle as ``|K| |grad w_K|^2``."""
    areas, gx, gy = _geometry(w.mesh)
    vk = w.values[w.mesh.triangles]
    dx, dy = np.sum(gx * vk, axis=1), np.sum(gy * vk, axis=1)
    return float(np.sqrt(areas @ (dx * dx + dy * dy)))


def interpolate(f, mesh: Mesh) -> FeField:
    """Nodal interpolant of the callable ``f(x1, x2)`` on the mesh vertices."""
    values = np.asarray(f(mesh.vertices[:, 0], mesh.vertices[:, 1]), dtype=float)
    return FeField(mesh, np.broadcast_to(values, (mesh.num_vertices,)).copy())


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
        if m.parent is None:
            raise NonNestedMeshError(
                "target mesh is not a refinement descendant of the field's mesh"
            )
        chain.append(m)
        m = m.parent
    values = coarse.values.copy()
    for mesh_level in reversed(chain):
        pairs = mesh_level.vertex_parents
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
    wq = _INTERIOR_WEIGHTS
    fxq, fyq = (_at_interior_points(mesh, g) for g in (fx, fy))
    # gradient part: grad phi_i constant per element
    grad_part = (
        gx * ((fxq * wq[None, :]).sum(axis=1) * 2.0 * areas)[:, None]
        + gy * ((fyq * wq[None, :]).sum(axis=1) * 2.0 * areas)[:, None]
    )
    b = np.bincount(mesh.triangles.ravel(), grad_part.ravel(), mesh.num_vertices)
    b += load_vector(mesh, f)
    disc = Discretization(mesh)
    return FeField(mesh, disc.factor(disc.stiffness + disc.mass).solve(b))


class Discretization:
    """The one matrix assembler: the fixed CSC sparsity pattern of a mesh and its kernels.

    Built once per mesh.  ``mass`` and ``stiffness`` hold the data of the P1
    matrices, and :meth:`matrix` wraps any data on the pattern as CSC that
    shares the read-only ``indices`` and ``indptr``.  The
    active edges ``bq`` are those tagged ``ACTIVE_TAGS``; a kernel touches
    them only when asked for traces or edge blocks, so uncontrolled runs and
    the steady solve use the same object.  Per-triangle
    arrays put the triangles last: ``corners`` and ``slopes`` (3, triangles)
    hold each corner's vertex and the integral of ``(d/dx1 + d/dx2)`` of its
    basis function.  ``slots`` gives each local entry's data position, the
    element entries (3, 3, triangles) first and then the active-edge entries
    (active edges, 2, 2); ``load_index`` lists the corners, then the
    active-edge endpoints.  Every matrix kernel sums through a prefix of
    ``slots`` and every load through a prefix of ``load_index``, each by one
    ``csc_matvec`` in ``np.bincount``'s order, as does :meth:`transport` on ``vp``.
    ``dirichlet`` holds the sorted vertices of the ``DIRICHLET_ZERO`` edges,
    whose slots :meth:`eliminate` clears.  :meth:`factor` is the band LU of
    every solve on the pattern: ``order`` numbers the vertices row by row (by
    ``y``, then ``x``), which keeps the unit-square meshes and their
    refinements within ``bandwidth = n + 2`` of the diagonal, and
    ``band_slots`` is each slot's flat index in the band array.
    """

    def __init__(self, mesh: Mesh):
        n = mesh.num_vertices
        # triangles last: numpy broadcasts and reduces fastest along the long axis
        corners = np.ascontiguousarray(mesh.triangles.T)
        self.bq = boundary_quadrature(mesh, ACTIVE_TAGS)
        e = self.bq.edges
        # column-major keys order the pattern as CSC: entry (i, j) of triangle t, then of edge a
        keys = np.append(corners * n + corners[:, None], e[:, None, :] * n + e[:, :, None])
        # one sort: the distinct keys are the pattern, and their running count gives the slots
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        first = np.append(True, keys[1:] != keys[:-1])
        self.slots = np.empty(keys.size, dtype=np.int32)
        self.slots[order] = np.cumsum(first, dtype=np.int32) - 1
        keys = keys[first]
        rows, columns = keys % n, keys // n
        self.mesh, self.corners = mesh, corners
        areas, gx, gy = _geometry(mesh)
        self.indices = rows.astype(np.int32)
        self.indptr = np.searchsorted(columns, np.arange(n + 1)).astype(np.int32)
        # every matrix shares the index arrays, so nothing may write to them
        self.indices.flags.writeable = self.indptr.flags.writeable = False
        self._shape = (n, n)
        self.load_index = np.concatenate([corners.ravel(), e.ravel()]).astype(np.int32)
        self.mass = self._sum(_MASS_PATTERN[:, :, None] * areas)
        self.stiffness = self._sum(_stiffness_blocks(areas, gx, gy).transpose(1, 2, 0))
        self.slopes = np.ascontiguousarray(_slopes(areas, gx, gy).T)
        pinned_edges = mesh.boundary_edges[mesh.boundary_tags == int(BoundaryTag.DIRICHLET_ZERO)]
        pinned = np.zeros(n, dtype=bool)
        pinned[pinned_edges] = True
        self.dirichlet = np.flatnonzero(pinned)
        self.dirichlet_zero = np.flatnonzero(pinned[rows] | pinned[columns])
        self.dirichlet_diag = np.flatnonzero(pinned[rows] & (rows == columns))
        # np.lexsort takes its last key, y, as the primary one
        self.order = np.lexsort(mesh.vertices.T)
        rank = np.argsort(self.order)
        offset = rank[rows] - rank[columns]
        self.bandwidth = int(np.max(np.abs(offset)))
        self.band_slots = 2 * self.bandwidth + offset + (3 * self.bandwidth + 1) * rank[columns]

    def matrix(self, data: np.ndarray) -> _CscMatrix:
        return _CscMatrix(data, self.indices, self.indptr, self._shape)

    def factor(self, data: np.ndarray) -> Factorization:
        """Certified band LU of ``matrix(data)`` in the vertex order ``order``."""
        return Factorization(self.matrix(data), (self.order, self.bandwidth, self.band_slots))

    def _sum(self, local: np.ndarray, index=None, size=None) -> np.ndarray:
        """Sum ``local`` through a prefix of ``slots``, or of ``index`` into ``size`` rows, as
        ``np.bincount`` does: ``csc_matvec`` of one CSC column with repeated rows."""
        index = (self.slots if index is None else index)[: local.size]
        shape = (size or self.indices.size, 1)
        return _CscMatrix(local.ravel(), index, np.array([0, local.size], np.int32), shape) @ _ONE

    @functools.cached_property
    def _transport(self) -> _CscMatrix:
        """Picard's transport, built on first use: column (i, t) holds ``slopes[j, t]`` in the
        slot of entry (i, j, t), each active-edge entry a unit column after them.  A slot sums
        as ``np.bincount`` does: by (i, t) on the diagonal, off it over at most two triangles."""
        t = self.corners.shape[1]
        slots = self.slots[: 9 * t].reshape(3, 3, t).transpose(0, 2, 1)  # (i, t, j)
        rows = np.append(slots, self.slots[9 * t :])
        data = np.append(np.broadcast_to(self.slopes.T, (3, t, 3)), np.ones(rows.size - 9 * t))
        columns = np.r_[: 9 * t : 3, 9 * t : rows.size + 1].astype(np.int32)
        return _CscMatrix(data, rows, columns, (self.indices.size, columns.size - 1))

    def gather(self, values: np.ndarray, traced: bool = False):
        """``(vp, g, tr)`` of the field ``v``: its mass-pattern image ``vp`` (3, triangles),
        the integral ``g`` of ``(d/dx1 + d/dx2) v`` per triangle, and, if ``traced``,
        its active-edge traces ``tr`` (else ``None``)."""
        vk = values[self.corners]
        tr = self.bq.trace(values) if traced else None
        return _MASS_PATTERN @ vk, (self.slopes * vk).sum(axis=0), tr

    def residual(self, values: np.ndarray, cubic_scale: float = 0.0):
        """``(load, gather(values))``: the load is ``integral of v (dv/dx1 + dv/dx2) phi_i``
        plus, if nonzero, ``cubic_scale`` times ``integral over active edges of v^3 phi_i``."""
        gathered = vp, g, tr = self.gather(values, bool(cubic_scale))
        weights = (vp * g).ravel()
        if tr is not None:
            weights = np.concatenate([weights, self.bq.load(cubic_scale * tr**3).ravel()])
        return self._sum(weights, self.load_index, values.size), gathered

    def jacobian(self, vp: np.ndarray, g: np.ndarray, gq=None) -> np.ndarray:
        """Data of the transport ``integral of v (d/dx1 + d/dx2) phi_j phi_i`` from ``vp``,
        plus the gradient ``integral of (d/dx1 + d/dx2) v phi_j phi_i`` from ``g``, and the
        boundary mass of the values ``gq`` at the active-edge points unless ``None``."""
        blocks = vp[:, None] * self.slopes
        blocks += _MASS_PATTERN[:, :, None] * g
        if gq is not None:
            blocks = np.concatenate([blocks.ravel(), self.bq.blocks(gq).ravel()])
        return self._sum(blocks)

    def transport(self, values: np.ndarray, gq=None) -> np.ndarray:
        """:meth:`jacobian` of the field ``v`` with no gradient term, as Picard lags it."""
        corners = self.corners
        local = np.empty(self._transport.shape[1])
        local[corners.size :] = 0.0 if gq is None else self.bq.blocks(gq).ravel()
        np.matmul(_MASS_PATTERN, values[corners], out=local[: corners.size].reshape(corners.shape))
        return self._transport @ local

    def eliminate(self, data: np.ndarray) -> None:
        """Eliminate the Dirichlet rows and columns in place, with unit diagonals."""
        data[self.dirichlet_zero] = 0.0
        data[self.dirichlet_diag] = 1.0
