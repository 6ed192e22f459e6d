"""Sparse storage and the linear solvers behind assembly and Newton loops.

Every matrix the package assembles is CSC on the fixed pattern of a
:class:`~burgersfb.assembly.Discretization`; only the bordered steady
system is built as CSR.  Every square solve is a certified
:class:`Factorization` with partial pivoting, kept when one factor serves
several right-hand sides.  The time loop's step and Jacobian matrices are
factored by LAPACK band LU (``dgbtrf``/``dgbtrs``) in the vertex order of
their :class:`~burgersfb.assembly.Discretization`; SuperLU serves the
bordered solve of the mean-constrained steady problem, the one-off mass
and projection solves, and :func:`solve_general`, the reference the tests
compare the band path against.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs

__all__ = [
    "Factorization",
    "NonconvergenceError",
    "SingularMatrixError",
    "solve_bordered",
    "solve_general",
]


class SingularMatrixError(RuntimeError):
    """Factorization failed or could not certify the solution.

    Carries the final residual norm, NaN when no residual was formed.
    """

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class NonconvergenceError(RuntimeError):
    """Nonlinear iteration ran out of iterations; carries the history.

    Raised from a trajectory, it also names the failing ``step`` index and
    its ``time``; both are ``None`` otherwise.
    """

    def __init__(self, message: str, residual_history=None, step=None, time=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])
        self.step = step
        self.time = time


class Factorization:
    """LU of a square CSC matrix (or CSR, as the bordered system) with partial pivoting.

    Every solution must satisfy
    ``||a x - b||_inf <= 1e-10 (||a||_inf ||x||_inf + ||b||_inf)`` against
    the factored ``a``.  The three norms come from one reduction; a
    non-finite ``x``, a residual that fails the bound (NaN included) or a
    singular factorization raises :class:`SingularMatrixError`.  The factor
    is SuperLU's, or with ``band = (order, width, slots)`` LAPACK band LU of
    the CSC ``a`` permuted
    to half-bandwidth ``width`` by ``order``; ``slots`` are the flat indices
    of ``a.data`` in the Fortran-ordered ``(3 width + 1, n)`` band array.
    """

    def __init__(self, a: sp.spmatrix, band=None):
        n, m = a.shape
        if n != m:
            raise ValueError(f"matrix {a.shape} is not square")
        self.matrix = a
        # row sums of |a|: CSC stores the row of each entry, CSR the extent of each row
        rows = a.indices if a.format == "csc" else np.repeat(np.arange(n), np.diff(a.indptr))
        self.norm_inf = float(np.max(np.bincount(rows, np.abs(a.data), n), initial=0.0))
        if band is not None:
            self._solve = _band_lu(a.data, *band)
            return
        try:
            self._solve = spla.splu(sp.csc_matrix(a)).solve
        except RuntimeError as exc:
            raise SingularMatrixError(f"factorization failed: {exc}") from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        n = b.shape[0]
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix {self.matrix.shape} does not match vector of size {n}")
        try:
            x = self._solve(b)
        except RuntimeError as exc:
            raise SingularMatrixError(f"factorization failed: {exc}") from exc
        # one pass for the three norms; NaN or inf in x makes x_inf non-finite
        r, x_inf, b_inf = np.abs((self.matrix @ x - b, x, b)).reshape(3, -1).max(1, initial=0.0)
        if not np.isfinite(x_inf):
            raise SingularMatrixError("solution contains non-finite entries")
        bound = 1e-10 * (self.norm_inf * x_inf + b_inf)
        # written so that a NaN residual fails too
        if not r <= bound:
            raise SingularMatrixError(
                f"residual {r:.3e} exceeds certificate bound {bound:.3e}",
                float(r),
            )
        return x


def _band_lu(data, order, width, slots):
    """``dgbtrf`` of CSC ``data`` placed at ``slots``; returns a solve in the unpermuted order."""
    n = order.size
    ab = np.zeros((3 * width + 1) * n)
    ab[slots] = data
    lu, piv, info = dgbtrf(ab.reshape(3 * width + 1, n, order="F"), width, width, overwrite_ab=1)
    if info:
        raise SingularMatrixError(f"factorization failed: dgbtrf info {info}")

    def solve(b):
        x = np.empty_like(b)
        x[order] = dgbtrs(lu, width, width, b[order], piv, overwrite_b=1)[0]
        return x

    return solve


def solve_general(a: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """One certified solve with a fresh :class:`Factorization` of ``a``."""
    return Factorization(a).solve(b)


def solve_bordered(
    core: sp.spmatrix, constraint_row: np.ndarray, rhs: np.ndarray, constraint_value: float
):
    """Solve a square system augmented by one linear constraint.

    Solves ``core x + mu * constraint_row = rhs`` together with
    ``constraint_row . x = constraint_value`` as one (n+1) x (n+1) system;
    returns ``(x, mu)``.
    """
    c = np.asarray(constraint_row, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = c.shape[0]
    if core.shape != (n, n) or rhs.shape != (n,):
        raise ValueError("bordered system blocks have inconsistent shapes")
    if not np.any(c):
        raise ValueError("constraint row is identically zero")
    aug = sp.bmat(
        [
            [sp.csr_matrix(core), sp.csr_matrix(c[:, None])],
            [sp.csr_matrix(c[None, :]), None],
        ],
        format="csr",
    )
    y = solve_general(aug, np.concatenate([rhs, [constraint_value]]))
    return y[:n], float(y[n])
