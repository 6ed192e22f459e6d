"""Sparse storage and the linear solvers behind assembly and Newton loops.

Every matrix the package assembles is CSC on the fixed pattern of a
:class:`~burgersfb.assembly.Discretization`, and the bordered steady
system is built as CSC too.  Every square solve is a certified
:class:`Factorization` with partial pivoting, kept when one factor serves
several right-hand sides, or several matrices: :meth:`Factorization.refine`
solves a nearby matrix by stationary iterative refinement, as each Picard
step does on the factor of an earlier step matrix.  The time loop's step
and Jacobian matrices are factored by LAPACK band LU
(``dgbtrf``/``dgbtrs``) in the vertex order of their
:class:`~burgersfb.assembly.Discretization`, as are the one-off mass and
projection solves.  SuperLU, loaded on first use, serves only the bordered
mean-constrained steady solve and :func:`solve_general`, the reference the
tests compare the band path against.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
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
    """LU of a square CSC matrix with partial pivoting.

    Every solution must satisfy
    ``||a x - b||_inf <= 1e-10 (||a||_inf ||x||_inf + ||b||_inf)`` against
    the matrix ``a`` it solves: the factored one for :meth:`solve`, the
    given one for :meth:`refine`; ``||a||_inf`` is summed only when
    ``1e-10 ||b||_inf`` does not cover the residual.  A non-finite ``x``, a
    residual that fails the bound (NaN included) or a singular factorization
    raises :class:`SingularMatrixError`, except that :meth:`refine` hands a
    failed bound back to its caller.  With ``band = (order, width, slots)``
    the factor is LAPACK band LU of ``a`` permuted to half-bandwidth
    ``width`` by ``order``; ``slots`` are the flat indices of ``a.data`` in
    the Fortran-ordered ``(3 width + 1, n)`` band array.  Without ``band``
    it is SuperLU's, which loads ``scipy.sparse.linalg`` on first use.
    """

    def __init__(self, a: sp.csc_matrix, band=None):
        n, m = a.shape
        if n != m:
            raise ValueError(f"matrix {a.shape} is not square")
        if a.format != "csc":
            raise ValueError(f"matrix is {a.format.upper()}, not CSC")
        self.matrix = a
        if band is not None:
            self._solve = _band_lu(a.data, *band)
            return
        import scipy.sparse.linalg as spla  # loaded only by the solves that use SuperLU
        try:
            self._solve = spla.splu(a).solve
        except RuntimeError as exc:
            raise SingularMatrixError(f"factorization failed: {exc}") from exc

    @functools.cached_property
    def norm_inf(self) -> float:
        """``||a||_inf`` of the factored matrix, summed on first use."""
        return _norm_inf(self.matrix)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        n = b.shape[0]
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix {self.matrix.shape} does not match vector of size {n}")
        try:
            x = self._solve(b)
        except RuntimeError as exc:
            raise SingularMatrixError(f"factorization failed: {exc}") from exc
        r, bound = self._residual(self.matrix, x, b)
        # written so that a NaN residual fails too
        if not r <= bound:
            raise SingularMatrixError(
                f"residual {r:.3e} exceeds certificate bound {bound:.3e}",
                float(r),
            )
        return x

    def refine(self, a: sp.csc_matrix, b: np.ndarray, x: np.ndarray, limit: int):
        """Solve ``a x = b`` from the guess ``x`` by stationary refinement on this factor.

        Iterates ``x <- x + d``, ``d = LU^-1 (b - a x)``, with the factor of a
        matrix near the CSC ``a`` (Moler 1967), until the predicted next
        correction ``||d_i||^2 / ||d_(i-1)||`` is at most ``1e-12 ||x||_inf``.
        Returns ``(x, solves)``, with ``x`` certified against ``a``, or
        ``(None, solves)`` when ``limit`` solves did not converge or the
        certificate failed; the caller then factors ``a`` itself.
        """
        if a.shape != self.matrix.shape:
            raise ValueError(f"matrix {a.shape} does not match the factor {self.matrix.shape}")
        last = 0.0  # a first correction stops the iteration only when it is zero
        for solves in range(1, limit + 1):
            d = self._solve(b - a @ x)
            x = x + d
            d_inf, x_inf = np.abs((d, x)).max(1)
            if d_inf * d_inf <= 1e-12 * x_inf * last:
                break
            last = d_inf
        else:
            # a non-finite x never turns finite again, so checking the last one suffices
            if not np.isfinite(x_inf):
                raise SingularMatrixError("solution contains non-finite entries")
            return None, limit
        r, bound = self._residual(a, x, b)
        return (x if r <= bound else None), solves

    def _residual(self, a, x, b):
        """``(||a x - b||_inf, bound)``; the bound is ``1e-10 ||b||_inf`` when that covers it."""
        # NaN or inf in x makes x_inf non-finite
        r, x_inf, b_inf = np.abs((a @ x - b, x, b)).reshape(3, -1).max(1, initial=0.0)
        if not np.isfinite(x_inf):
            raise SingularMatrixError("solution contains non-finite entries")
        if r <= 1e-10 * b_inf:
            return r, 1e-10 * b_inf
        norm = self.norm_inf if a is self.matrix else _norm_inf(a)
        return r, 1e-10 * (norm * x_inf + b_inf)


def _norm_inf(a: sp.csc_matrix) -> float:
    """``||a||_inf``: CSC stores each entry's row, so one ``bincount`` sums the rows of ``|a|``."""
    return float(np.max(np.bincount(a.indices, np.abs(a.data), a.shape[0]), initial=0.0))


def _band_lu(data, order, width, slots):
    """``dgbtrf`` of CSC ``data`` placed at ``slots``; returns a solve in the unpermuted order."""
    n, rows = order.size, 3 * width + 1
    ab = np.zeros(rows * n + width)  # the spare doubles end the shifted view below
    ab[slots] = data
    lu, piv, info = dgbtrf(ab[: rows * n].reshape(rows, n, order="F"), width, width, overwrite_ab=1)
    if info:
        raise SingularMatrixError(f"factorization failed: dgbtrf info {info}")
    upper = width
    if np.array_equal(piv, np.arange(n)):  # no interchange: U's fill rows stay zero, skip them
        lu, upper = ab[width : width + rows * n].reshape(rows, n, order="F"), 0

    def solve(b):
        x = np.empty_like(b)
        x[order] = dgbtrs(lu, width, upper, b[order], piv, overwrite_b=1)[0]
        return x

    return solve


def solve_general(a: sp.spmatrix, b: np.ndarray) -> np.ndarray:
    """One certified solve with a fresh :class:`Factorization` of ``a`` (any format)."""
    return Factorization(sp.csc_matrix(a)).solve(b)


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
            [sp.csc_matrix(core), sp.csc_matrix(c[:, None])],
            [sp.csc_matrix(c[None, :]), None],
        ],
        format="csc",
    )
    y = solve_general(aug, np.concatenate([rhs, [constraint_value]]))
    return y[:n], float(y[n])
