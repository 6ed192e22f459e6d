"""Reference code the tests compare the package against; nothing in ``src/`` calls it.

The element assemblers that ``tests/test_acceptance.py`` imports stay in
``burgersfb.assembly``; :func:`steady_residual_and_gap` builds the steady
residual from them.
"""

import numpy as np
import scipy.sparse as sp

from burgersfb.assembly import (
    _QUADRATURE,
    FeField,
    Quadrature,
    _geometry,
    assemble_convection_by_transport,
    assemble_mass,
    assemble_stiffness,
    boundary_load,
    load_vector,
)
from burgersfb.control import ControlParams, _active_flux, _active_quadrature, _boundary_l2


def default_quadrature() -> Quadrature:
    """The rule pair used by every assembly routine in this module."""
    return _QUADRATURE


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
    lam = _QUADRATURE.interior_points
    tri = v.mesh.triangles
    vq = v.values[tri] @ lam.T
    zq = z.values[tri] @ lam.T
    sw = np.sum(w.values[tri] * (gx + gy), axis=1)
    return float(np.sum(((vq * zq) @ _QUADRATURE.interior_weights) * sw * (2.0 * areas)))


def control_trace(w: FeField, u_steady: FeField, params: ControlParams) -> np.ndarray:
    """Feedback flux at every boundary quadrature node.

    Returns an array of shape (boundary edges, quadrature points); rows of
    inactive edges are zero.
    """
    bq = _active_quadrature(w.mesh)
    full = np.zeros((w.mesh.num_boundary_edges, bq.weights.size))
    full[bq.index] = _active_flux(bq, w, u_steady, params)
    return full


def control_boundary_l2(w: FeField, u_steady: FeField, params: ControlParams) -> float:
    """L2 norm of the feedback flux over the active boundary."""
    bq = _active_quadrature(w.mesh)
    return _boundary_l2(bq, _active_flux(bq, w, u_steady, params))


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
        spec.nu * (assemble_stiffness(mesh) @ u)
        + assemble_convection_by_transport(field) @ u
        - load
    )
    weights = np.asarray(assemble_mass(mesh).sum(axis=1)).ravel()
    unit = weights / np.linalg.norm(weights)
    norm = float(np.linalg.norm(residual - (unit @ residual) * unit))
    return norm, spec.mean_value - float(weights @ u)
