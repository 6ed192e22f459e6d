"""Nonlinear Neumann boundary feedback for the shifted Burgers dynamics.

The feedback prescribes the normal derivative of the deviation ``w`` from
the steady state on the actively controlled part of the boundary, the
edges the mesh tags ``NEUMANN_CONTROL``:

    flux = -(1/nu) * ((c0 + nu + 2 |u_steady|) w + (2 / (9 c0)) w^3)

``_Feedback`` is the one owner of the law.  Both its coefficients are taken
pointwise at the edge quadrature nodes, matching the assembled weak terms exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import ACTIVE_TAGS, FeField
from .mesh import ConfigError

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
        if not 0.0 < self.nu < np.inf:
            raise ConfigError("nu", "must be positive", self.nu)
        if not 0.0 < self.c0 < np.inf:
            raise ConfigError("c0", "must be positive", self.c0)


class _Feedback:
    """The feedback law on the active-edge quadrature ``bq``, which must hold an edge.

    ``linear`` is ``c0 + nu + 2 |u_steady|`` at the edge points and ``cubic`` the
    weight ``2 / (9 c0)`` of the cubic term.
    """

    def __init__(self, bq, u_steady: FeField, params: ControlParams):
        if bq.edges.shape[0] == 0:
            raise NoActiveBoundaryError("no boundary edge carries an active control tag")
        self.nu = params.nu
        self.linear = params.c0 + params.nu + 2.0 * np.abs(bq.trace(u_steady.values))
        self.cubic = 2.0 / (9.0 * params.c0)

    def flux(self, tr: np.ndarray) -> np.ndarray:
        """The feedback flux of a deviation with edge traces ``tr``."""
        return -(self.linear * tr + self.cubic * tr**3) / self.nu
