from dataclasses import replace

import numpy as np
import pytest

from burgersfb.mesh import (
    BoundaryTag,
    InvalidRegionError,
    build_unit_square_mesh,
    friedrichs_constant,
    refine_uniform,
    tag_boundary,
    validate_mesh,
)
from oracles import refined_boundary_by_rescan

RIGHT_SIDE = ((1.0, 0.0), (1.0, 1.0))


def moved_square(n, origin, side):
    """Unit square mesh scaled by ``side`` and shifted to ``origin``."""
    mesh = build_unit_square_mesh(n)
    return replace(mesh, vertices=np.asarray(origin) + side * mesh.vertices)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_counts(n):
    mesh = build_unit_square_mesh(n)
    assert mesh.num_vertices == (n + 1) ** 2
    assert mesh.num_triangles == 2 * n * n
    assert mesh.num_boundary_edges == 4 * n
    assert mesh.h == 1.0 / n


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_area_partition(n):
    mesh = build_unit_square_mesh(n)
    areas = mesh.triangle_areas()
    assert np.all(areas > 0.0)
    assert abs(areas.sum() - 1.0) <= 1e-12


def test_validate_suite_meshes():
    for mesh in (
        build_unit_square_mesh(1),
        build_unit_square_mesh(5),
        refine_uniform(build_unit_square_mesh(3)),
        tag_boundary(build_unit_square_mesh(4), RIGHT_SIDE),
        moved_square(2, origin=(1.0, -0.5), side=2.0),
    ):
        validate_mesh(mesh)


def _clockwise_first_triangle(mesh):
    triangles = mesh.triangles.copy()
    triangles[0] = triangles[0, ::-1]
    return {"triangles": triangles}


def _without_a_right_edge(mesh):
    # an edge on x1 = 1 adds 1/8 to the shoelace area; one on x2 = 0 would add 0
    on_right = (mesh.vertices[mesh.boundary_edges][..., 0] == 1.0).all(axis=1)
    keep = np.arange(mesh.num_boundary_edges) != np.flatnonzero(on_right)[0]
    names = ("boundary_edges", "boundary_normals", "boundary_tags")
    return {name: getattr(mesh, name)[keep] for name in names}


@pytest.mark.parametrize(
    "change, message",
    [
        (_clockwise_first_triangle, "non-counterclockwise triangles"),
        (lambda mesh: {"boundary_normals": 1.5 * mesh.boundary_normals}, "not unit vectors"),
        (_without_a_right_edge, "does not enclose the triangulated area"),
        (lambda mesh: {"boundary_tags": mesh.boundary_tags[:-1]}, "wrong shape"),
        (lambda mesh: {"boundary_tags": mesh.boundary_tags + 7}, "unknown boundary tag"),
    ],
    ids=["clockwise-triangle", "scaled-normal", "dropped-edge", "tag-shape", "tag-value"],
)
def test_validate_mesh_rejects_broken_copies(unit4, change, message):
    validate_mesh(unit4)
    with pytest.raises(ValueError, match=message):
        validate_mesh(replace(unit4, **change(unit4)))


def test_boundary_normals_unit_tangent_orthogonal_outward(unit4):
    mesh = unit4
    for (v0, v1), normal in zip(mesh.boundary_edges, mesh.boundary_normals):
        a, b = mesh.vertices[v0], mesh.vertices[v1]
        tangent = b - a
        assert abs(normal @ tangent) <= 1e-14
        assert abs(np.linalg.norm(normal) - 1.0) <= 1e-14
        # the one triangle holding both endpoints owns the edge
        owner = np.flatnonzero(np.isin(mesh.triangles, (v0, v1)).sum(axis=1) == 2)
        assert owner.size == 1
        centroid = mesh.vertices[mesh.triangles[owner[0]]].mean(axis=0)
        midpoint = 0.5 * (a + b)
        assert normal @ (midpoint - centroid) > 0.0


def test_refine_matches_direct_build():
    fine = refine_uniform(build_unit_square_mesh(2))
    direct = build_unit_square_mesh(4)
    assert fine.num_vertices == direct.num_vertices
    assert fine.num_triangles == direct.num_triangles
    got = {tuple(v) for v in np.round(fine.vertices, 12)}
    want = {tuple(v) for v in np.round(direct.vertices, 12)}
    assert got == want
    assert abs(fine.triangle_areas().sum() - 1.0) <= 1e-12
    assert fine.h == direct.h


def test_refine_embeds_coarse_vertices_and_midpoints():
    coarse = build_unit_square_mesh(3)
    fine = refine_uniform(coarse)
    nv = coarse.num_vertices
    # coarse vertices come first, bit-identical
    assert np.array_equal(fine.vertices[:nv], coarse.vertices)
    parents = fine.refinement_parent.vertex_parents
    mids = 0.5 * (coarse.vertices[parents[nv:, 0]] + coarse.vertices[parents[nv:, 1]])
    assert np.array_equal(fine.vertices[nv:], mids)
    assert fine.refinement_parent.mesh is coarse


def test_refine_inherits_boundary_tags():
    coarse = tag_boundary(build_unit_square_mesh(2), RIGHT_SIDE)
    fine = refine_uniform(coarse)
    for (v0, v1), tag in zip(fine.boundary_edges, fine.boundary_tags):
        on_right = np.allclose(fine.vertices[[v0, v1], 0], 1.0)
        expected = BoundaryTag.DIRICHLET_ZERO if on_right else BoundaryTag.NEUMANN_CONTROL
        assert tag == expected


@pytest.mark.parametrize(
    "n, region, levels",
    [
        (1, None, 3),
        (2, RIGHT_SIDE, 3),
        (3, [((0.0, 0.0), (0.0, 1.0)), ((0.0, 1.0), (1.0, 1.0))], 2),
        (4, RIGHT_SIDE, 1),
    ],
)
def test_refined_boundary_matches_a_rescan_of_the_children(n, region, levels):
    mesh = tag_boundary(build_unit_square_mesh(n), region)
    for _ in range(levels):
        coarse, mesh = mesh, refine_uniform(mesh)
        # two children per parent edge, in parent order
        assert mesh.num_boundary_edges == 2 * coarse.num_boundary_edges
        assert np.array_equal(mesh.boundary_edges[0::2, 0], coarse.boundary_edges[:, 0])
        assert np.array_equal(mesh.boundary_edges[1::2, 1], coarse.boundary_edges[:, 1])
        got = (mesh.boundary_edges, mesh.boundary_normals, mesh.boundary_tags)
        want = refined_boundary_by_rescan(mesh)
        # the same oriented edges, in another order
        order_got = np.lexsort(got[0].T[::-1])
        order_want = np.lexsort(want[0].T[::-1])
        for mine, theirs in zip(got, want):
            assert np.array_equal(mine[order_got], theirs[order_want])
    if region is not None:
        assert set(mesh.boundary_tags.tolist()) == {int(tag) for tag in BoundaryTag}


def test_tag_boundary_region_variants(unit4):
    untouched = tag_boundary(unit4, None)
    assert np.all(untouched.boundary_tags == BoundaryTag.NEUMANN_CONTROL)

    both = tag_boundary(unit4, [RIGHT_SIDE, ((0.0, 0.0), (0.0, 1.0))])
    dirichlet = both.boundary_tags == BoundaryTag.DIRICHLET_ZERO
    assert dirichlet.sum() == 8  # two sides of n=4


def test_tag_boundary_rejects_unmatched_region(unit4):
    with pytest.raises(InvalidRegionError):
        tag_boundary(unit4, ((0.3, 0.3), (0.7, 0.7)))  # interior diagonal
    with pytest.raises(InvalidRegionError):
        tag_boundary(unit4, ((2.0, 0.0), (2.0, 1.0)))  # off the boundary


@pytest.mark.parametrize(
    "region",
    # the shapes the CLI rejects as domain.dirichlet, then coordinates that are not real
    [5, [5], [], [[]], [[0, 0]], [[1, 0], [1, 1], [0, 1]], [[[1, 0]]],
     [[1, 0], [1, "1"]], [[1, 0], [1, True]]],
)
def test_tag_boundary_rejects_malformed_regions(unit4, region):
    with pytest.raises(InvalidRegionError) as caught:
        tag_boundary(unit4, region)
    assert caught.value.field == "dirichlet_region"
    assert caught.value.value is region


def test_mesh_arrays_are_read_only():
    mesh = refine_uniform(tag_boundary(build_unit_square_mesh(2), RIGHT_SIDE))
    for array in (
        mesh.vertices,
        mesh.triangles,
        mesh.boundary_edges,
        mesh.boundary_normals,
        mesh.boundary_tags,
        mesh.refinement_parent.vertex_parents,
    ):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def test_friedrichs_constant_values():
    # max over the boundary of max(|x|^2, |x|)
    assert friedrichs_constant(build_unit_square_mesh(4)) == 2.0
    small = moved_square(2, origin=(0.0, 0.0), side=0.5)
    assert friedrichs_constant(small) == pytest.approx(np.sqrt(0.5), abs=1e-15)
    shifted = moved_square(2, origin=(1.0, 1.0), side=1.0)
    assert friedrichs_constant(shifted) == 8.0


def test_build_rejects_bad_n():
    with pytest.raises(ValueError):
        build_unit_square_mesh(0)
