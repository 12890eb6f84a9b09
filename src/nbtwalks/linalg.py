"""Sparse matrix kernels: products, elementwise maps, linear solves, spectral radius.

Matrices are ``scipy.sparse.csr_array`` with float64 data; vectors are 1-D numpy
arrays.  All operations treat their inputs as immutable and return fresh
objects, so results can be shared freely across threads.  Explicitly stored
zeros never affect results.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from .errors import NumericalError, ValidationError

# Solve policy (see solve_linear).  Dense LU first up to DENSE_CROSSOVER,
# where it beats GMRES (single-thread BLAS, n = 300: 1.8 ms dense against
# 3.2 ms GMRES; n = 500: 4.5 ms against 2.2 ms); GMRES above, with the dense
# LU as certified fallback up to DENSE_SOLVE_MAX.
DENSE_CROSSOVER = 400
DENSE_SOLVE_MAX = 2000
GMRES_RESTART = 30
ITERATIVE_MAXITER_FACTOR = 10   # GMRES matrix-vector products per unknown
FALLBACK_CYCLES = 10            # GMRES restart cycles before the dense fallback

POWER_TOL = 1e-8
POWER_MAXITER = 10000


def as_csr(matrix) -> sp.csr_array:
    """Coerce to a canonical float64 CSR array with sorted indices."""
    if sp.issparse(matrix):
        out = sp.csr_array(matrix, dtype=np.float64)
    else:
        out = sp.csr_array(np.asarray(matrix, dtype=np.float64))
    out.sum_duplicates()
    out.sort_indices()
    return out


def range_end(rho: float, radius: float = 1.0) -> float:
    """End ``hi`` of the permitted range [0, hi) of attenuation factors t for
    a series of convergence radius ``radius`` in a matrix of spectral radius
    ``rho``: ``radius / rho``, infinite when rho = 0."""
    return math.inf if rho == 0 else radius / rho


def check_t(t: float, hi: float, reason: str = "", show=str) -> None:
    """Raise :class:`ValidationError` unless ``0 <= t < hi``; ``show`` formats
    the numbers in the message and ``reason`` ends it."""
    if not 0.0 <= t < hi:
        span = f"[0, {show(hi)})"
        raise ValidationError(f"t = {show(t)} is outside the permitted range {span}{reason}")


def identity(n: int) -> sp.csr_array:
    return sp.identity(n, dtype=np.float64, format="csr")


def diag_matrix(values) -> sp.csr_array:
    """Diagonal matrix from a 1-D array (an empty array gives a 0 x 0 matrix)."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    return sp.csr_array((values, (np.arange(n), np.arange(n))), shape=(n, n))


def matmul(a, b) -> sp.csr_array:
    """Sparse product ``a @ b``; drops explicitly stored zeros from the result."""
    a = as_csr(a)
    b = as_csr(b)
    if a.shape[1] != b.shape[0]:
        raise ValidationError(
            f"matmul dimension mismatch: {a.shape} @ {b.shape}"
        )
    out = a @ b
    out = sp.csr_array(out)
    out.eliminate_zeros()
    out.sort_indices()
    return out


def hadamard(a, b) -> sp.csr_array:
    """Elementwise product; both operands must have the same shape."""
    a = as_csr(a)
    b = as_csr(b)
    if a.shape != b.shape:
        raise ValidationError(
            f"hadamard shape mismatch: {a.shape} vs {b.shape}"
        )
    out = sp.csr_array(a.multiply(b))
    out.eliminate_zeros()
    out.sort_indices()
    return out


def elementwise_map(a, fn, *, dense: bool = False) -> sp.csr_array:
    """Apply a scalar function entrywise.

    By default ``fn`` is applied to stored entries only, which requires
    ``fn(0) == 0``.  With ``dense=True`` the function is applied to every
    position (small matrices only).  A non-finite result signals an
    elementwise pole and raises :class:`NumericalError` naming the entry.
    """
    a = as_csr(a)
    if dense:
        out = sp.csr_array(np.asarray(fn(a.toarray())))
    else:
        f0 = fn(0.0)
        if f0 != 0.0:
            raise ValidationError(
                f"elementwise_map requires fn(0) == 0 for sparse application, got {f0!r}"
            )
        out = a.copy()
        if out.nnz:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                out.data = np.asarray(fn(out.data), dtype=np.float64)
    if out.nnz and not np.all(np.isfinite(out.data)):
        coo = out.tocoo()
        bad = int(np.flatnonzero(~np.isfinite(coo.data))[0])
        raise NumericalError(
            "elementwise pole: non-finite value at entry "
            f"({coo.row[bad]}, {coo.col[bad]})"
        )
    out.eliminate_zeros()
    out.sort_indices()
    return out


def solve_linear(matrix, rhs, tol: float = 1e-10) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` with a certified relative residual.

    One policy serves every order n:

    - ``n <= DENSE_CROSSOVER``: a dense LU factorization, which is the
      cheaper solver at these orders;
    - larger orders: restarted GMRES(30);
    - if GMRES misses the certificate and ``n <= DENSE_SOLVE_MAX``, the dense
      LU as fallback.  GMRES then gets at most ``FALLBACK_CYCLES`` restart
      cycles, so a stalled iteration costs little next to the factorization.

    The certificate is ``||Ax - b|| <= tol * ||b||``, computed once for each
    path taken.  When no path meets it the call raises
    :class:`NumericalError`, naming each path tried and the residual ratio
    ``||Ax - b|| / ||b||`` it reached, with the best solution found as
    ``estimate``.
    """
    m = as_csr(matrix)
    b = np.asarray(rhs, dtype=np.float64)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"solve_linear requires a square matrix, got {m.shape}")
    if b.ndim != 1 or b.size != n:
        raise ValidationError(
            f"solve_linear right-hand side has length {b.size}, expected {n}"
        )
    if n == 0:
        return np.zeros(0)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n)

    def ratio(x) -> float:
        r = float(np.linalg.norm(m @ x - b)) / b_norm
        return r if math.isfinite(r) else math.inf

    tried = []  # (path, residual ratio, solution or None)
    if n > DENSE_CROSSOVER:
        maxiter = max(1, (ITERATIVE_MAXITER_FACTOR * n) // GMRES_RESTART)
        if n <= DENSE_SOLVE_MAX:
            maxiter = min(maxiter, FALLBACK_CYCLES)
        x, _ = spla.gmres(m, b, rtol=tol, atol=0.0, restart=GMRES_RESTART, maxiter=maxiter)
        tried.append((f"GMRES({GMRES_RESTART})", ratio(x), x))
        if tried[-1][1] <= tol:
            return x
    if n <= DENSE_SOLVE_MAX:
        # the residual check certifies the result, so scipy's conditioning
        # warning adds nothing
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            try:
                x = scipy.linalg.solve(m.toarray(), b)
            except (scipy.linalg.LinAlgError, ValueError):
                x = None  # exactly singular or non-finite
        tried.append(("dense LU", math.inf if x is None else ratio(x), x))
        if tried[-1][1] <= tol:
            return x

    report = ", then ".join(f"{path} reached {r:.3e}" if sol is not None else f"{path} failed"
                            for path, r, sol in tried)
    best = min(tried, key=lambda attempt: attempt[1])
    raise NumericalError(
        f"linear solve residual ||Ax - b|| / ||b|| exceeds tol {tol:.1e}: {report}; "
        "the matrix is singular or too ill-conditioned",
        estimate=best[2],
    )


def _acyclic_pattern(m: sp.csr_array) -> bool:
    """True when the sparsity pattern has no directed cycle (so the matrix is
    nilpotent; exact for nonnegative matrices)."""
    if m.diagonal().any():
        return False
    ncomp, _ = csgraph.connected_components(m, directed=True, connection="strong")
    return ncomp == m.shape[0]


def spectral_radius(matrix, tol: float = POWER_TOL, max_iter: int = POWER_MAXITER) -> float:
    """Spectral radius of a nonnegative square matrix by power iteration.

    The iteration runs on the diagonally shifted matrix ``M + sI`` (s equal to
    the largest entry), which is aperiodic and whose radius exceeds that of M
    by exactly s; this keeps the iteration convergent even for cyclic
    patterns.  The iterate stays strictly positive, so every step yields
    two-sided bounds ``min_i (y_i / x_i) <= rho + s <= max_i (y_i / x_i)``;
    convergence is declared when the bracket closes to the requested relative
    tolerance, with a stabilization window as fallback for reducible patterns
    whose lower bound stagnates.  Nilpotent matrices are detected up front
    from the pattern (and from iterate collapse) and report exactly 0.
    """
    m = as_csr(matrix)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"spectral_radius requires a square matrix, got {m.shape}")
    n = m.shape[0]
    if n == 0:
        return 0.0
    m = m.copy()
    m.eliminate_zeros()
    if m.nnz == 0:
        return 0.0
    if np.any(m.data < 0):
        raise ValidationError("spectral_radius requires nonnegative entries")
    if _acyclic_pattern(m):
        return 0.0

    shift = float(m.data.max())
    x = np.full(n, 1.0 / np.sqrt(n))
    floor = np.finfo(np.float64).tiny
    eps = np.finfo(np.float64).eps
    window: list[float] = []
    estimate = None
    for _ in range(max_iter):
        y = m @ x + shift * x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        positive = x > floor  # components may underflow on reducible patterns
        ratios = y[positive] / x[positive]
        upper = float(ratios.max())
        lower = float(ratios.min())
        estimate = upper - shift
        if bool(positive.all()) and lower > shift and upper - lower <= tol * (lower - shift):
            return 0.5 * (upper + lower) - shift
        window.append(upper)
        if len(window) > 8:
            window.pop(0)
            # stationary to machine precision: reducible pattern whose
            # bracket cannot close although the estimate has converged
            if max(window) - min(window) <= 8 * eps * max(estimate, floor):
                return max(estimate, 0.0)
        x = y / norm
    # Stalled: nearly equal competing block radii or a defective dominant
    # eigenvalue make plain power iteration converge like 1/k.
    return _radius_arnoldi(m, tol, estimate)


def _radius_arnoldi(m: sp.csr_array, tol: float, last_estimate) -> float:
    """Dominant eigenvalue magnitude by restarted Arnoldi iteration.

    Fully deterministic: fixed start vector, explicit restarts with the
    dominant Ritz vector, dense eigensolve of the small Hessenberg matrix.
    A happy breakdown means the Krylov space is invariant and the Ritz
    values are exact.
    """
    n = m.shape[0]
    tiny = np.finfo(np.float64).tiny
    v = np.full(n, 1.0 / np.sqrt(n))
    estimate = last_estimate
    for _ in range(50):
        depth = min(n, 60)
        basis = np.zeros((depth + 1, n))
        hess = np.zeros((depth + 1, depth))
        basis[0] = v
        size = depth
        exact = False
        for j in range(depth):
            w = m @ basis[j]
            for i in range(j + 1):
                hess[i, j] = basis[i] @ w
                w -= hess[i, j] * basis[i]
            norm = float(np.linalg.norm(w))
            hess[j + 1, j] = norm
            if norm <= 1e-14 * max(1.0, float(np.abs(hess).max())):
                size = j + 1
                exact = True
                break
            basis[j + 1] = w / norm
        values, vectors = np.linalg.eig(hess[:size, :size])
        idx = int(np.argmax(np.abs(values)))
        estimate = float(np.abs(values[idx]))
        if exact:
            return estimate
        residual = float(abs(hess[size, size - 1]) * abs(vectors[-1, idx]))
        if residual <= tol * max(estimate, tiny):
            return estimate
        ritz = (basis[:size].T @ vectors[:, idx]).real
        v = np.abs(ritz) + tiny
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            v = np.full(n, 1.0 / np.sqrt(n))
        else:
            v /= norm
    raise NumericalError(
        f"spectral radius estimation did not converge (last estimate {estimate})",
        estimate=estimate,
    )
