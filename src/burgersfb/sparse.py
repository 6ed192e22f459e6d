"""Sparse storage and the one linear solver behind assembly and Newton loops.

Every matrix the package assembles is a :class:`_CscMatrix`, data on a fixed CSC pattern,
and every square solve is a certified :class:`Factorization`: LAPACK band LU with partial
pivoting in a vertex order and band layout its caller supplies, kept when one factor serves
several right-hand sides, or several matrices: :meth:`Factorization.refine` solves a nearby
matrix by stationary iterative refinement, as each Picard step does on the factor of an
earlier step matrix.  The time loop's step and Jacobian matrices, the one-off mass and
projection solves and the steady Newton's bordered solves all factor here; nothing loads SuperLU.
The band LU (``dgbtrf``, solved by two ``dtbsv`` band sweeps, or by ``dgbtrs`` after a row
interchange) is numpy's own OpenBLAS, called through ``ctypes``, and the CSC product, which
also sums every assembly, scipy's compiled ``csc_matvec``, loaded without importing ``scipy``,
whose ``linalg`` and ``sparse`` pull in a second OpenBLAS and an array-API layer.
"""

from __future__ import annotations

import ctypes
import os
import sys
from importlib import machinery, util

import numpy as np

__all__ = [
    "Factorization",
    "NonconvergenceError",
    "SingularMatrixError",
]


def _scipy_extension(package: str, module: str):
    """scipy's compiled ``scipy.<package>.<module>``, loaded without importing the package."""
    name = f"scipy.{package}.{module}"
    if name in sys.modules:
        return sys.modules[name]
    loaders = (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES)
    scipy = util.find_spec("scipy").submodule_search_locations[0]
    spec = machinery.FileFinder(os.path.join(scipy, package), loaders).find_spec(name)
    if spec is None:
        raise ImportError(f"scipy has no compiled module {name}")
    module = util.module_from_spec(spec)
    spec.loader.exec_module(module)
    del sys.modules[name]  # left registered, a later import of its package would lack it
    return module


try:  # numpy's linalg module links its bundled OpenBLAS, whose ILP64 LAPACK dlsym reaches
    _numpy_lapack = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    _dgbtrf, _dgbtrs, _dtbsv, _get_threads, _set_threads = (getattr(_numpy_lapack, name) for name in (
        "scipy_dgbtrf_64_", "scipy_dgbtrs_64_", "scipy_dtbsv_64_",
        # C's int by value; the names with _64_ are the Fortran forms, by reference
        "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"))
except AttributeError as exc:  # the message names the missing symbol
    raise ImportError(f"numpy's OpenBLAS lacks the band LU: {exc}") from None
_dgbtrf.restype = _dgbtrs.restype = _dtbsv.restype = _set_threads.restype = None
_csc_matvec = _scipy_extension("sparse", "_sparsetools").csc_matvec


class _CscMatrix:
    """CSC ``data`` on a pattern; ``@`` is scipy's ``csc_matvec`` on a vector of ``shape[1]``."""

    __slots__ = ("data", "indices", "indptr", "shape")
    format = "csc"

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr, self.shape = data, indices, indptr, shape

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.shape != self.shape[1:]:
            raise ValueError(f"matrix {self.shape} does not match vector of shape {x.shape}")
        y = np.zeros(self.shape[0])
        _csc_matvec(*self.shape, self.indptr, self.indices, self.data, x, y)
        return y


class SingularMatrixError(RuntimeError):
    """Factorization failed or could not certify the solution.

    Carries the final residual norm, NaN when no residual was formed.  Raised
    from a trajectory, it names the failing ``step`` and its ``time``.
    """

    step = time = None

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


class NonconvergenceError(RuntimeError):
    """Nonlinear iteration ran out of iterations; carries the history.

    Raised from a trajectory, it names the failing ``step`` and its ``time``.
    """

    step = time = None

    def __init__(self, message: str, residual_history=None):
        super().__init__(message)
        self.residual_history = list(residual_history or [])


class Factorization:
    """Band LU of a square CSC matrix with partial pivoting.

    Every solution must satisfy
    ``||a x - b||_inf <= 1e-10 (||a||_inf ||x||_inf + ||b||_inf)`` against
    the matrix ``a`` it solves: the factored one for :meth:`solve`, the
    given one for :meth:`refine`; ``||a||_inf`` is summed only when
    ``1e-10 ||b||_inf`` does not cover the residual.  A non-finite ``x``, a
    residual that fails the bound (NaN included) or a singular factorization
    raises :class:`SingularMatrixError`, except that :meth:`refine` hands a
    failed bound back to its caller.  ``band = (order, width, slots)``: the
    factor is LAPACK band LU of ``a`` permuted to half-bandwidth ``width``
    by ``order``, and ``slots`` are the flat indices of ``a.data`` in the
    Fortran-ordered ``(3 width + 1, n)`` band array.
    """

    def __init__(self, a: _CscMatrix, band):
        n, m = a.shape
        if n != m:
            raise ValueError(f"matrix {a.shape} is not square")
        if a.format != "csc":
            raise ValueError(f"matrix is {a.format.upper()}, not CSC")
        self.matrix = a
        self._solve = _band_lu(a.data, *band)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        if b.ndim != 1 or self.matrix.shape != (b.size, b.size):
            raise ValueError(f"matrix {self.matrix.shape} does not match vector of shape {b.shape}")
        x = self._solve(b)
        r, bound = self._residual(self.matrix, x, b)
        # written so that a NaN residual fails too
        if not r <= bound:
            raise SingularMatrixError(
                f"residual {r:.3e} exceeds certificate bound {bound:.3e}",
                float(r),
            )
        return x

    def refine(self, a: _CscMatrix, b: np.ndarray, x: np.ndarray, limit: int):
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
        return r, 1e-10 * (_norm_inf(a) * x_inf + b_inf)


def _norm_inf(a: _CscMatrix) -> float:
    """``||a||_inf``: CSC stores each entry's row, so one ``bincount`` sums the rows of ``|a|``."""
    return float(np.max(np.bincount(a.indices, np.abs(a.data), a.shape[0]), initial=0.0))


def _band_lu(data, order, width, slots):
    """``dgbtrf`` of CSC ``data`` placed at ``slots``; returns a solve in the unpermuted order."""
    n, rows = order.size, 3 * width + 1
    # LAPACK takes ctypes buffers as they are, and numpy writes them through views
    band, rhs = (ctypes.c_double * (rows * n))(), (ctypes.c_double * n)()
    pivots = (ctypes.c_int64 * n)()
    ab, piv, work = np.frombuffer(band), np.frombuffer(pivots, np.int64), np.frombuffer(rhs)
    ab[slots] = data
    size, kl, ldab, info = _int64(n), _int64(width), _int64(rows), ctypes.c_int64()
    # on one OpenBLAS thread: with two, a fresh process's first factor at n >= 64 sometimes
    # waits about 1 s (cause not established); the caller's count is restored
    threads = _get_threads()
    _set_threads(1)
    _dgbtrf(size, size, kl, kl, band, ldab, pivots, ctypes.byref(info))
    _set_threads(threads)
    if info.value:
        raise SingularMatrixError(f"factorization failed: dgbtrf info {info.value}")
    # built once; the hidden lengths of the character arguments come last.  With no
    # interchange (1-based pivots), dgbtrs's forward loop is a unit-lower band sweep and
    # U's fill rows stay zero: two dtbsv calls, on L from row 2 width and U from row width
    one, lengths = _int64(1), (ctypes.c_size_t(1),) * 3
    if np.array_equal(piv, np.arange(1, n + 1)):
        sweeps = [(_dtbsv, (uplo, b"N", diag, size, kl, ctypes.byref(band, 8 * row), ldab, rhs,
                            one, *lengths))
                  for uplo, diag, row in ((b"L", b"U", 2 * width), (b"U", b"N", width))]
    else:
        sweeps = [(_dgbtrs, (b"N", size, kl, kl, one, band, ldab, pivots, rhs, size,
                             ctypes.byref(info), lengths[0]))]

    def solve(b):
        np.take(b, order, out=work)
        for routine, args in sweeps:
            routine(*args)
        x = np.empty_like(b)
        x[order] = work
        return x

    return solve


def _int64(value: int):
    """An ILP64 integer argument: LAPACK takes every argument by reference."""
    return ctypes.byref(ctypes.c_int64(value))
