"""Nonlinear Neumann boundary feedback for the shifted Burgers dynamics.

The feedback prescribes the normal derivative of the deviation ``w`` from
the steady state on the actively controlled part of the boundary:

    flux = -(1/nu) * ((c0 + nu + 2 |u_steady|) w + (2 / (9 c0)) w^3)

Both the steady-state magnitude and the cubic term are evaluated pointwise
at the edge quadrature nodes, matching the assembled weak terms exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import FeField, boundary_quadrature, trace_values
from .mesh import BoundaryTag, Mesh

__all__ = [
    "ControlParams",
    "NoActiveBoundaryError",
    "control_boundary_l2",
    "control_trace",
]


class NoActiveBoundaryError(ValueError):
    """Raised when the feedback has no boundary edge to act on."""


@dataclass(frozen=True)
class ControlParams:
    """Feedback gains and the tags the control acts on."""

    nu: float
    c0: float
    active_tags: tuple = (BoundaryTag.NEUMANN_CONTROL,)

    def __post_init__(self):
        if self.nu <= 0.0:
            raise ValueError(f"viscosity must be positive, got {self.nu}")
        if self.c0 <= 0.0:
            raise ValueError(f"control gain must be positive, got {self.c0}")
        tags = tuple(self.active_tags)
        object.__setattr__(self, "active_tags", tags)
        if not tags:
            raise NoActiveBoundaryError("control requires at least one active tag")


def _active_quadrature(mesh: Mesh, params: ControlParams):
    bq = boundary_quadrature(mesh, params.active_tags)
    if bq.edges.shape[0] == 0:
        raise NoActiveBoundaryError(
            "no boundary edge carries an active control tag"
        )
    return bq


def _linear_coefficient(steady_trace: np.ndarray, params: ControlParams) -> np.ndarray:
    """(c0 + nu + 2 |u_steady|) from the steady trace at the active nodes."""
    return params.c0 + params.nu + 2.0 * np.abs(steady_trace)


def _feedback_flux(wq: np.ndarray, coeff: np.ndarray, params: ControlParams) -> np.ndarray:
    return -(coeff * wq + (2.0 / (9.0 * params.c0)) * wq**3) / params.nu


def _boundary_l2(bq, values: np.ndarray) -> float:
    val = np.sum((values**2 @ bq.weights) * bq.lengths)
    return float(np.sqrt(max(val, 0.0)))


def control_trace(w: FeField, u_steady: FeField, params: ControlParams) -> np.ndarray:
    """Feedback flux at every boundary quadrature node.

    Returns an array of shape (boundary edges, quadrature points); rows of
    inactive edges are zero.
    """
    mesh = w.mesh
    if u_steady.mesh is not mesh:
        raise ValueError("deviation and steady state live on different meshes")
    bq = _active_quadrature(mesh, params)
    wq = trace_values(w, params.active_tags)
    coeff = _linear_coefficient(trace_values(u_steady, params.active_tags), params)
    full = np.zeros((mesh.num_boundary_edges, wq.shape[1]))
    full[bq.index] = _feedback_flux(wq, coeff, params)
    return full


def control_boundary_l2(w: FeField, u_steady: FeField, params: ControlParams) -> float:
    """L2 norm of the feedback flux over the active boundary."""
    bq = _active_quadrature(w.mesh, params)
    return _boundary_l2(bq, control_trace(w, u_steady, params)[bq.index])
