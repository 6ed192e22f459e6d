import dataclasses

import numpy as np
import pytest

from burgersfb.mesh import build_unit_square_mesh, tag_boundary

RIGHT_SIDE = ((1.0, 0.0), (1.0, 1.0))


@pytest.fixture(scope="session")
def unit4():
    return build_unit_square_mesh(4)


@pytest.fixture(scope="session")
def unit8():
    return build_unit_square_mesh(8)


@pytest.fixture(scope="session")
def mixed8():
    # right side Dirichlet, rest flux controlled (the Example 2 layout)
    return tag_boundary(build_unit_square_mesh(8), RIGHT_SIDE)


@pytest.fixture(scope="session")
def jittered_mesh():
    """Builds a unit-square mesh of size ``n`` with its interior vertices
    jittered by ``rng``, optionally with the right side pinned."""

    def build(n, pinned, rng):
        mesh = build_unit_square_mesh(n)
        if pinned:
            mesh = tag_boundary(mesh, RIGHT_SIDE)
        # jitter interior vertices by less than a sixth of the spacing, which
        # keeps every triangle counterclockwise
        vertices = mesh.vertices.copy()
        interior = np.setdiff1d(np.arange(mesh.num_vertices), mesh.boundary_vertex_indices())
        vertices[interior] += rng.uniform(-0.15, 0.15, (interior.size, 2)) / n
        return dataclasses.replace(mesh, vertices=vertices)

    return build


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
