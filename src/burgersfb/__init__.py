"""Finite element stabilization of the 2D viscous Burgers equation.

Piecewise linear elements on nested triangulations of a square, backward
Euler in time, and a nonlinear Neumann boundary feedback that drives the
flow to a prescribed nonconstant steady profile.  The harness reproduces
decay curves and convergence-rate tables for the packaged experiments.

The package namespace holds the names of the README's library example;
everything else is reached through its submodule, e.g.
``burgersfb.harness.Study``.
"""

from . import assembly, control, evolution, harness, mesh, steady
from .assembly import interpolate
from .control import ControlParams
from .evolution import EvolutionConfig, fit_decay_rate, run
from .mesh import build_unit_square_mesh

__version__ = "0.1.0"

__all__ = [
    "ControlParams",
    "EvolutionConfig",
    "build_unit_square_mesh",
    "fit_decay_rate",
    "interpolate",
    "run",
]
