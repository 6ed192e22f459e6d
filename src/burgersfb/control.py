"""Nonlinear Neumann boundary feedback for the shifted Burgers dynamics.

The feedback prescribes the normal derivative of the deviation ``w`` from
the steady state on the actively controlled part of the boundary, the
edges the mesh tags ``NEUMANN_CONTROL``:

    flux = -(1/nu) * ((c0 + nu + 2 |u_steady|) w + (2 / (9 c0)) w^3)

Both the steady-state magnitude and the cubic term are evaluated pointwise
at the edge quadrature nodes, matching the assembled weak terms exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import _EDGE_WEIGHTS, ACTIVE_TAGS, FeField, _trace, boundary_quadrature
from .mesh import Mesh

__all__ = [
    "ACTIVE_TAGS",
    "ControlParams",
    "NoActiveBoundaryError",
]

class NoActiveBoundaryError(ValueError):
    """Raised when the feedback has no boundary edge to act on."""


@dataclass(frozen=True)
class ControlParams:
    """Feedback gains."""

    nu: float
    c0: float

    def __post_init__(self):
        if self.nu <= 0.0:
            raise ValueError(f"viscosity must be positive, got {self.nu}")
        if self.c0 <= 0.0:
            raise ValueError(f"control gain must be positive, got {self.c0}")


def _check_active(bq):
    """Return the active-edge quadrature ``bq``; raise if it has no edge."""
    if bq.edges.shape[0] == 0:
        raise NoActiveBoundaryError("no boundary edge carries an active control tag")
    return bq


def _active_quadrature(mesh: Mesh):
    return _check_active(boundary_quadrature(mesh, ACTIVE_TAGS))


def _linear_coefficient(steady_trace: np.ndarray, params: ControlParams) -> np.ndarray:
    """(c0 + nu + 2 |u_steady|) from the steady trace at the active nodes."""
    return params.c0 + params.nu + 2.0 * np.abs(steady_trace)


def _cubic_weight(params: ControlParams) -> float:
    """2 / (9 c0), the weight of the cubic feedback term."""
    return 2.0 / (9.0 * params.c0)


def _feedback_flux(wq: np.ndarray, coeff: np.ndarray, params: ControlParams) -> np.ndarray:
    return -(coeff * wq + _cubic_weight(params) * wq**3) / params.nu


def _active_flux(bq, w: FeField, u_steady: FeField, params: ControlParams) -> np.ndarray:
    """Feedback flux at the points of the active-edge quadrature ``bq``."""
    if u_steady.mesh is not w.mesh:
        raise ValueError("deviation and steady state live on different meshes")
    coeff = _linear_coefficient(_trace(u_steady.values, bq), params)
    return _feedback_flux(_trace(w.values, bq), coeff, params)


def _boundary_l2(bq, values: np.ndarray) -> float:
    val = np.sum((values**2 @ _EDGE_WEIGHTS) * bq.lengths)
    return float(np.sqrt(max(val, 0.0)))
