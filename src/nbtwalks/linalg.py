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
ARNOLDI_RESTARTS = 50   # restart cycles of the Arnoldi fallback


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


def spectral_radius(matrix, tol: float = POWER_TOL, max_iter: int = POWER_MAXITER) -> float:
    """Spectral radius of a nonnegative square matrix, one irreducible block
    at a time.

    The radius of a nonnegative matrix is the largest radius over the
    irreducible diagonal blocks of its Frobenius normal form, which are the
    strongly connected components of its pattern.  One strongly-connected-
    components pass finds them.  A component of one node contributes its
    diagonal entry, so a pattern without cycles (a nilpotent matrix) reports
    exactly 0.  The other components are visited in descending order of the
    exact bound min(max row sum, max column sum) of their block; a block whose
    bound is no larger than the largest radius found so far is skipped.

    Each visited block runs a shifted power iteration (``_block_radius``).  On
    an irreducible block its Collatz–Wielandt bracket closes: the radius is
    certified to the relative tolerance ``tol``, and the iteration then runs
    on until the estimate stops moving, within a few ulp of the radius unless
    the block's largest entry dwarfs its radius.  A block that
    misses the certificate within ``max_iter`` steps falls back to restarted
    Arnoldi; when that fails too, :class:`NumericalError` names the block's
    order, its first node and the last estimate, kept as ``estimate``.
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

    ncomp, labels = csgraph.connected_components(m, directed=True, connection="strong")
    single = np.bincount(labels, minlength=ncomp)[labels] == 1
    best = float(m.diagonal()[single].max(initial=0.0))
    if single.all():
        return best
    # the nodes of the other components, each component contiguous, and the
    # entries inside them: a block-diagonal matrix of irreducible blocks
    nodes = np.flatnonzero(~single)
    nodes = nodes[np.argsort(labels[nodes], kind="stable")]
    k = nodes.size
    pos = np.empty(n, dtype=np.intp)
    pos[nodes] = np.arange(k)
    row = np.repeat(np.arange(n), np.diff(m.indptr))
    keep = (labels[row] == labels[m.indices]) & ~single[row]
    rows, cols, vals = pos[row[keep]], pos[m.indices[keep]], m.data[keep]
    blocks = sp.csr_array((vals, (rows, cols)), shape=(k, k))
    comp = labels[nodes]
    starts = np.flatnonzero(np.r_[True, comp[1:] != comp[:-1]])
    ends = np.r_[starts[1:], k]
    bounds = np.minimum(
        np.maximum.reduceat(np.bincount(rows, weights=vals, minlength=k), starts),
        np.maximum.reduceat(np.bincount(cols, weights=vals, minlength=k), starts),
    )
    for b in np.argsort(-bounds, kind="stable"):
        if bounds[b] <= best:
            break
        lo, hi = int(starts[b]), int(ends[b])
        block = blocks if hi - lo == k else blocks[lo:hi, lo:hi]
        try:
            rho = _block_radius(block, tol, max_iter)
        except NumericalError as exc:
            raise NumericalError(
                f"spectral radius of the strongly connected block of order {hi - lo} "
                f"starting at node {int(nodes[lo])} did not converge: power iteration "
                f"and Arnoldi both missed tol {tol:.1e} (last estimate {exc.estimate})",
                estimate=exc.estimate,
            ) from exc
        best = max(best, rho)
    return best


def _block_radius(m: sp.csr_array, tol: float, max_iter: int) -> float:
    """Radius of an irreducible nonnegative block by shifted power iteration.

    The block is first scaled in place by the power of two that brings its
    largest entry into [0.5, 1), and scaled back after the iteration.  Every
    step of the iteration commutes with that scaling, so the radius comes out
    the same to the bit, but the squares in the iterate's norm can neither
    underflow nor overflow: blocks with entries from about 1e-300 to 1e300
    are in range.

    The iteration runs on ``M + sI`` (s the largest entry), which is primitive
    and whose radius exceeds that of M by exactly s.  The iterate stays
    strictly positive, so every step brackets the radius:
    ``min_i (y_i / x_i) <= rho + s <= max_i (y_i / x_i)``.  Once the bracket
    closes to ``tol`` the radius is certified; the iteration then runs on
    over a 9-step window until the upper end is stationary to 8 eps of the
    radius, or has stopped decreasing because it reached the rounding of
    rho + s, and returns it (at ``max_iter`` steps the last certified value).
    Without a certificate after ``max_iter`` steps, restarted Arnoldi decides.
    """
    scale = int(np.frexp(m.data.max())[1])
    np.ldexp(m.data, -scale, out=m.data)
    rho, estimate = _power_radius(m, tol, max_iter)
    np.ldexp(m.data, scale, out=m.data)
    if rho is not None:
        return float(np.ldexp(rho, scale))
    # Uncertified: a defective or badly separated dominant eigenvalue, or a
    # Perron vector graded below the floating-point range.
    return _radius_arnoldi(m, tol, float(np.ldexp(estimate, scale)))


def _power_radius(m: sp.csr_array, tol: float, max_iter: int) -> tuple:
    """The shifted power iteration of ``_block_radius``: the radius, or None
    without a certificate, and the last estimate."""
    n = m.shape[0]
    shift = float(m.data.max())
    x = np.full(n, 1.0 / np.sqrt(n))
    floor = np.finfo(np.float64).tiny
    eps = np.finfo(np.float64).eps
    window: list[float] = []
    certified = estimate = None
    for _ in range(max_iter):
        y = m @ x
        y += shift * x
        positive = float(x.min()) > floor
        if positive:
            ratios = y / x
        else:  # components may underflow on graded blocks
            live = x > floor
            ratios = y[live] / x[live]
        upper = float(ratios.max())
        lower = float(ratios.min())
        estimate = upper - shift
        if positive and lower > shift and upper - lower <= tol * (lower - shift):
            certified = 0.5 * (upper + lower) - shift
        window.append(upper)
        if len(window) > 8:
            window.pop(0)
            # stationary to 8 eps of the radius, or at the rounding floor of
            # rho + s: the upper end, nonincreasing in exact arithmetic, has
            # made no progress over the window
            if certified is not None and (
                max(window) - min(window) <= 8 * eps * estimate or min(window) == window[0]
            ):
                return estimate, estimate
        x = y / float(np.linalg.norm(y))
    return certified, estimate


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
    for _ in range(ARNOLDI_RESTARTS):
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
