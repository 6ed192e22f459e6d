"""Conforming triangulations of polygonal domains with tagged boundary edges.

Meshes are immutable value objects. Every derived quantity a solver needs
(triangle orientation, outward normals, the boundary edge list) is fixed at
construction time so repeated runs see identical orderings.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

__all__ = [
    "BoundaryTag",
    "ConfigError",
    "InvalidRegionError",
    "Mesh",
    "build_unit_square_mesh",
    "friedrichs_constant",
    "grid_vertices",
    "refine_uniform",
    "tag_boundary",
    "validate_mesh",
]

_TOL = 1e-12  # of the geometric tests: segments, vertices on them, enclosed area


class BoundaryTag(IntEnum):
    """Role of a boundary edge in the feedback problem."""

    NEUMANN_CONTROL = 0
    DIRICHLET_ZERO = 1


class ConfigError(ValueError):
    """A config value that breaks a rule: ``field`` is the dataclass field or parameter
    it was given as, ``requirement`` what the rule asks, and ``value`` the value."""

    def __init__(self, field: str, requirement: str, value):
        super().__init__(f"{field} {requirement}, got {value!r}")
        self.field, self.requirement, self.value = field, requirement, value


class InvalidRegionError(ConfigError):
    """A ``dirichlet_region`` that is malformed or does not lie on the boundary."""

    def __init__(self, requirement: str, value):
        super().__init__("dirichlet_region", requirement, value)


def _one_of(field: str, value, choices: tuple) -> None:
    """Raise ``ConfigError`` unless ``value`` is one of ``choices``."""
    if value not in choices:
        raise ConfigError(field, "must be one of " + ", ".join(f'"{c}"' for c in choices), value)


@dataclass(frozen=True, eq=False)
class Mesh:
    """Triangulation with oriented boundary data.

    Attributes
    ----------
    vertices : ndarray, shape (nv, 2)
        Vertex coordinates.
    triangles : ndarray, shape (nt, 3)
        Vertex indices per triangle, counterclockwise.
    boundary_edges : ndarray, shape (nb, 2)
        Vertex index pairs of boundary edges, oriented with the interior on
        the left (the traversal order of the owning triangle).  A mesh from
        :func:`refine_uniform` lists them in parent order, two children per
        parent edge.
    boundary_normals : ndarray, shape (nb, 2)
        Outward unit normal per boundary edge.
    boundary_tags : ndarray, shape (nb,)
        ``BoundaryTag`` value per boundary edge.
    parent : Mesh or None
        The mesh that :func:`refine_uniform` refined into this one.
    vertex_parents : ndarray, shape (nv, 2), or None
        Set with ``parent``: two parent vertex indices per vertex, whose midpoint
        it is (an inherited vertex repeats its own index), so prolongation of
        nodal values is ``0.5 * (v[a] + v[b])`` in all cases.

    The arrays are read-only: a ``Discretization`` caches maps derived from them.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_normals: np.ndarray
    boundary_tags: np.ndarray
    parent: Mesh | None = None
    vertex_parents: np.ndarray | None = None

    def __post_init__(self):
        for array in (self.vertices, self.triangles, self.boundary_edges,
                      self.boundary_normals, self.boundary_tags, self.vertex_parents):
            if array is not None:
                array.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_boundary_edges(self) -> int:
        return self.boundary_edges.shape[0]

    def triangle_areas(self) -> np.ndarray:
        """Signed areas, positive for counterclockwise triangles."""
        p0 = self.vertices[self.triangles[:, 0]]
        d1 = self.vertices[self.triangles[:, 1]] - p0
        d2 = self.vertices[self.triangles[:, 2]] - p0
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def boundary_vertex_indices(self) -> np.ndarray:
        """Sorted indices of vertices lying on the boundary."""
        return np.flatnonzero(np.bincount(self.boundary_edges.ravel(), minlength=self.num_vertices))


def _local_edges(triangles: np.ndarray) -> np.ndarray:
    """The edges 0-1, 1-2 and 2-0 of every triangle, in traversal order, shape (3 nt, 2)."""
    return triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2)


def _edge_keys(pairs: np.ndarray, nv: int) -> np.ndarray:
    """The key ``min * nv + max`` of each vertex pair in ``pairs``, one per undirected edge."""
    return pairs.min(axis=1) * nv + pairs.max(axis=1)


def _boundary_edges(vertices: np.ndarray, triangles: np.ndarray):
    """Extract boundary edges in deterministic (triangle-traversal) order.

    Returns (edges, outward_normals).  An edge is on the boundary when it
    appears in exactly one triangle.  Orientation follows the
    counterclockwise traversal of that owner, so the outward normal is the
    edge tangent rotated clockwise by 90 degrees.
    """
    locals_ = _local_edges(triangles)
    _, inverse, counts = np.unique(
        _edge_keys(locals_, len(vertices)), return_inverse=True, return_counts=True
    )
    on_boundary = counts[inverse] == 1
    edges = locals_[on_boundary]
    tangent = vertices[edges[:, 1]] - vertices[edges[:, 0]]
    length = np.linalg.norm(tangent, axis=1)
    normals = np.stack([tangent[:, 1], -tangent[:, 0]], axis=1) / length[:, None]
    return edges, normals


def grid_vertices(n: int) -> np.ndarray:
    """The vertices of the 1/n grid on the unit square, row-major (x fastest)."""
    coords = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(coords, coords, indexing="xy")
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


def build_unit_square_mesh(n: int) -> Mesh:
    """Structured triangulation of the unit square with grid spacing 1/n.

    The mesh has (n+1)^2 vertices and 2 n^2 triangles.  Vertices are
    indexed row-major (x fastest).  Each grid cell is split along its
    lower-left to upper-right diagonal, giving two counterclockwise
    triangles.
    """
    if n < 1:
        raise ValueError(f"need at least one cell per side, got n={n}")
    vertices = grid_vertices(n)
    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    v00 = (jj * (n + 1) + ii).ravel()
    v10 = v00 + 1
    v01 = v00 + (n + 1)
    v11 = v01 + 1
    lower = np.stack([v00, v10, v11], axis=1)
    upper = np.stack([v00, v11, v01], axis=1)
    triangles = np.empty((2 * n * n, 3), dtype=int)
    triangles[0::2] = lower
    triangles[1::2] = upper

    edges, normals = _boundary_edges(vertices, triangles)
    mesh = Mesh(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=edges,
        boundary_normals=normals,
        boundary_tags=np.full(edges.shape[0], int(BoundaryTag.NEUMANN_CONTROL), dtype=int),
    )
    validate_mesh(mesh)
    return mesh


def refine_uniform(mesh: Mesh) -> Mesh:
    """Refine every triangle into four by connecting edge midpoints.

    The refined mesh keeps the parent's vertices (same indices) followed by
    one new vertex per parent edge.  Each parent boundary edge ``(a, b)``
    splits at its midpoint ``m`` into ``(a, m)`` and ``(m, b)``, listed in
    parent order; both children keep the parent's orientation, outward
    normal and tag.  The returned mesh records its ``parent`` and
    ``vertex_parents`` so nodal fields can be prolonged exactly.
    """
    nv = mesh.num_vertices
    tris = mesh.triangles
    # the sorted order of the edge keys makes midpoint indices reproducible run to run
    keys, inverse = np.unique(_edge_keys(_local_edges(tris), nv), return_inverse=True)
    edges = np.stack([keys // nv, keys % nv], axis=1)
    midpoints = 0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])
    vertices = np.concatenate([mesh.vertices, midpoints])

    nt = tris.shape[0]
    m01, m12, m20 = nv + inverse.reshape(nt, 3).T
    v0, v1, v2 = tris[:, 0], tris[:, 1], tris[:, 2]
    children = np.empty((4 * nt, 3), dtype=int)
    children[0::4] = np.stack([v0, m01, m20], axis=1)
    children[1::4] = np.stack([v1, m12, m01], axis=1)
    children[2::4] = np.stack([v2, m20, m12], axis=1)
    children[3::4] = np.stack([m01, m12, m20], axis=1)

    a, b = mesh.boundary_edges.T
    m = nv + np.searchsorted(keys, _edge_keys(mesh.boundary_edges, nv))
    refined = Mesh(
        vertices=vertices,
        triangles=children,
        boundary_edges=np.stack([a, m, m, b], axis=1).reshape(-1, 2),
        boundary_normals=np.repeat(mesh.boundary_normals, 2, axis=0),
        boundary_tags=np.repeat(mesh.boundary_tags, 2),
        parent=mesh,
        vertex_parents=np.concatenate([np.stack([np.arange(nv)] * 2, axis=1), edges]),
    )
    validate_mesh(refined)
    return refined


def _is_segment(seg) -> bool:
    """Whether ``seg`` is two points of two finite real numbers."""
    return isinstance(seg, (list, tuple)) and len(seg) == 2 and all(
        isinstance(point, (list, tuple)) and len(point) == 2
        and all(isinstance(c, numbers.Real) and not isinstance(c, bool) and math.isfinite(c)
                for c in point)
        for point in seg
    )


def _normalize_region(dirichlet_region):
    """The one parser of a region: a list of ((x0, y0), (x1, y1)) axis-aligned segments."""
    if dirichlet_region is None:
        return []
    region = [dirichlet_region] if _is_segment(dirichlet_region) else dirichlet_region
    if not (isinstance(region, (list, tuple)) and region and all(map(_is_segment, region))):
        raise InvalidRegionError("must be a segment [[x0, y0], [x1, y1]] of real numbers or a "
                                 "non-empty list of segments", dirichlet_region)
    segments = [((float(xa), float(ya)), (float(xb), float(yb))) for (xa, ya), (xb, yb) in region]
    if not all(abs(xa - xb) < _TOL or abs(ya - yb) < _TOL for (xa, ya), (xb, yb) in segments):
        raise InvalidRegionError("must have axis-aligned segments", dirichlet_region)
    return segments


def _on_segment(points: np.ndarray, seg) -> np.ndarray:
    (xa, ya), (xb, yb) = seg
    lo = (min(xa, xb) - _TOL, min(ya, yb) - _TOL)
    hi = (max(xa, xb) + _TOL, max(ya, yb) + _TOL)
    inside = (
        (points[:, 0] >= lo[0])
        & (points[:, 0] <= hi[0])
        & (points[:, 1] >= lo[1])
        & (points[:, 1] <= hi[1])
    )
    if abs(xa - xb) < _TOL:
        inside &= np.abs(points[:, 0] - xa) <= _TOL
    else:
        inside &= np.abs(points[:, 1] - ya) <= _TOL
    return inside


def tag_boundary(mesh: Mesh, dirichlet_region=None) -> Mesh:
    """Assign boundary tags from an axis-aligned Dirichlet region.

    Parameters
    ----------
    mesh : Mesh
    dirichlet_region : None, segment, or non-empty list of segments
        ``None`` tags every edge ``NEUMANN_CONTROL``.  A segment is a pair
        of endpoints ``((x0, y0), (x1, y1))`` of finite real numbers and
        must be axis-aligned; a boundary edge is tagged ``DIRICHLET_ZERO``
        when both its endpoints lie on one of the segments.

    Raises
    ------
    InvalidRegionError
        If the region has another shape, a segment is not axis-aligned, or
        the region contains no boundary edge (it does not lie on the boundary).
    """
    segments = _normalize_region(dirichlet_region)
    tags = np.full(
        mesh.num_boundary_edges, int(BoundaryTag.NEUMANN_CONTROL), dtype=int
    )
    if segments:
        a = mesh.vertices[mesh.boundary_edges[:, 0]]
        b = mesh.vertices[mesh.boundary_edges[:, 1]]
        matched = np.zeros(mesh.num_boundary_edges, dtype=bool)
        for seg in segments:
            matched |= _on_segment(a, seg) & _on_segment(b, seg)
        if not matched.any():
            raise InvalidRegionError("must cover a boundary edge", dirichlet_region)
        tags[matched] = int(BoundaryTag.DIRICHLET_ZERO)
    return replace(mesh, boundary_tags=tags)


def friedrichs_constant(mesh: Mesh) -> float:
    """max over boundary vertices of max(|x|^2, |x|).

    For a convex polygon the supremum of |x| over the boundary is attained
    at a vertex, so scanning boundary vertices is exact.
    """
    points = mesh.vertices[mesh.boundary_vertex_indices()]
    r_sq = points[:, 0] ** 2 + points[:, 1] ** 2
    return float(np.max(np.maximum(r_sq, np.sqrt(r_sq))))


def validate_mesh(mesh: Mesh) -> None:
    """Check structural invariants (the enclosed area to ``_TOL``); raise ValueError."""
    areas = mesh.triangle_areas()
    if not np.all(areas > 0.0):
        raise ValueError("triangulation contains non-counterclockwise triangles")
    norms = np.linalg.norm(mesh.boundary_normals, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-14:
        raise ValueError("boundary normals are not unit vectors")
    # shoelace over the oriented boundary must reproduce the triangle total
    a = mesh.vertices[mesh.boundary_edges[:, 0]]
    b = mesh.vertices[mesh.boundary_edges[:, 1]]
    polygon = 0.5 * np.sum(a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1])
    if abs(polygon - np.sum(areas)) > _TOL * max(1.0, abs(polygon)):
        raise ValueError("boundary does not enclose the triangulated area")
    if mesh.boundary_tags.shape != (mesh.num_boundary_edges,):
        raise ValueError("boundary tag array has the wrong shape")
    valid = {int(t) for t in BoundaryTag}
    if not set(mesh.boundary_tags.tolist()).issubset(valid):
        raise ValueError("unknown boundary tag value")
