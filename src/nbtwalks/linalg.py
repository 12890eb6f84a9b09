"""Sparse matrix kernels: products, elementwise maps, linear solves, spectral radius.

Matrices are ``scipy.sparse.csr_array`` with float64 data; vectors are 1-D numpy
arrays.  All operations treat their inputs as immutable and return fresh
objects, so results can be shared freely across threads.  Explicitly stored
zeros never affect results.
"""

from __future__ import annotations

import math
import sys
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph

from .errors import NumericalError, ValidationError

# Solve policy (see solve_linear).  Dense LU up to DENSE_CROSSOVER, GMRES
# above, with the dense LU as certified fallback up to DENSE_SOLVE_MAX.
# Single-thread BLAS on a 2-core machine, I - tA and N(t) of random digraphs
# with 4n edges at 0.5 and 0.9 of the radius: the dense LU takes 1.5 / 2.3-2.5
# / 4.7-5.0 ms at n = 250 / 300 / 400, _gmres 0.7-1.5 / 0.5-1.6 / 0.8-1.6 ms.
# The LU needs no convergence, and 400 keeps the golden recordings' solves
# (node route of g300, n = 296) on it.
DENSE_CROSSOVER = 400
DENSE_SOLVE_MAX = 2000
GMRES_RESTART = 30
ITERATIVE_MAXITER_FACTOR = 10   # GMRES matrix-vector products per unknown
FALLBACK_CYCLES = 10            # GMRES restart cycles before the dense fallback

POWER_TOL = 1e-8
POWER_MAXITER = 10000
EXIT_MARGIN = 1e-12   # a block whose bracket ends this far below the largest
                      # radius found so far stops iterating
SHIFT_STEPS = 200     # a block without a certificate after this many steps
                      # goes on with half its radius estimate as the shift
BALANCE_SPAN = 10     # balance radius blocks whose entries span 2^10 or more
BALANCE_SWEEPS = 30   # at most this many balancing sweeps


def as_csr(matrix) -> sp.csr_array:
    """Coerce to a canonical float64 CSR array with sorted indices.  The
    result may share the input's arrays; a copy is made before summing
    duplicates or sorting, so the input is never changed."""
    if sp.issparse(matrix):
        out = sp.csr_array(matrix, dtype=np.float64)
    else:
        out = sp.csr_array(np.asarray(matrix, dtype=np.float64))
    if not out.has_canonical_format:
        out = out.copy()
        out.sum_duplicates()
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


def elementwise_map(a, fn) -> sp.csr_array:
    """Apply a scalar function to the stored entries, which requires
    ``fn(0) == 0``.  A non-finite result signals an elementwise pole and
    raises :class:`NumericalError` naming the entry.
    """
    a = as_csr(a)
    f0 = fn(0.0)
    if f0 != 0.0:
        raise ValidationError(
            f"elementwise_map requires fn(0) == 0, got {f0!r}"
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

    - ``n <= DENSE_CROSSOVER``: a dense LU factorization, which needs no
      convergence (see the comment at ``DENSE_CROSSOVER`` for why the
      cutoff stays where it is);
    - larger orders: restarted GMRES(30), ``_gmres``, for at most
      ``ITERATIVE_MAXITER_FACTOR * n / 30`` restart cycles;
    - if GMRES misses the certificate and ``n <= DENSE_SOLVE_MAX``, the dense
      LU as fallback.  GMRES then gets at most ``FALLBACK_CYCLES`` restart
      cycles, so a stalled iteration costs little next to the factorization.

    The certificate is ``||Ax - b|| <= tol * ||b||``, checked once for each
    path taken (GMRES checks its true residual after each cycle, and stops
    once a cycle fails to reduce it).  When no path meets it the call raises
    :class:`NumericalError`, naming each path tried and the residual ratio
    ``||Ax - b|| / ||b||`` it reached, with the matrix-vector products and
    restart cycles GMRES spent, and the best solution found as ``estimate``.
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
    # solve for b / 2^e, which brings max|b| into [0.5, 1): every path is
    # linear in b, so the scaling is exact, and no norm over- or underflows
    e = int(np.frexp(np.abs(b).max())[1])
    b = np.ldexp(b, -e)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros(n)

    def ratio(r_norm: float) -> float:
        r = r_norm / b_norm
        return r if math.isfinite(r) else math.inf

    tried = []  # (path, residual ratio, solution or None, what it spent)
    if n > DENSE_CROSSOVER:
        maxiter = max(1, (ITERATIVE_MAXITER_FACTOR * n) // GMRES_RESTART)
        if n <= DENSE_SOLVE_MAX:
            maxiter = min(maxiter, FALLBACK_CYCLES)
        x, r_norm, cycles, products = _gmres(m, b, tol * b_norm, maxiter)
        tried.append((f"GMRES({GMRES_RESTART})", ratio(r_norm), x,
                      f" with {products} matrix-vector products in {cycles} restart "
                      f"cycle{'' if cycles == 1 else 's'}"))
        if tried[-1][1] <= tol:
            return np.ldexp(x, e)
    if n <= DENSE_SOLVE_MAX:
        # the residual check certifies the result, so scipy's conditioning
        # warning adds nothing
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            try:
                x = scipy.linalg.solve(m.toarray(), b)
            except (scipy.linalg.LinAlgError, ValueError):
                x = None  # exactly singular or non-finite
        r_norm = math.inf if x is None else float(np.linalg.norm(m @ x - b))
        tried.append(("dense LU", ratio(r_norm), x, ""))
        if tried[-1][1] <= tol:
            return np.ldexp(x, e)

    report = ", then ".join(f"{path} reached {r:.3e}{spent}" if sol is not None
                            else f"{path} failed" for path, r, sol, spent in tried)
    best = min(tried, key=lambda attempt: attempt[1])
    raise NumericalError(
        f"linear solve residual ||Ax - b|| / ||b|| exceeds tol {tol:.1e}: {report}; "
        "the matrix is singular or too ill-conditioned",
        estimate=None if best[2] is None else np.ldexp(best[2], e),
    )


def _dense_solve(system: np.ndarray, targets: np.ndarray, name: str) -> np.ndarray:
    """``system^-1 @ targets`` by one dense LU solve, the rule of the dense
    generating functions.  A singular ``system`` (named ``name`` in the
    message) raises :class:`NumericalError`, and so does a residual above
    1e-6 times max|targets|."""
    try:
        y = np.linalg.solve(system, targets)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{name} is singular: {exc}") from exc
    residual = float(np.max(np.abs(system @ y - targets), initial=0.0))
    if residual > 1e-6 * float(np.max(np.abs(targets), initial=0.0)):
        raise NumericalError(f"{name} is too ill-conditioned (inverse residual {residual:.3e})")
    return y


def _gmres(m: sp.csr_array, b: np.ndarray, target: float, maxiter: int) -> tuple:
    """Restarted GMRES(``GMRES_RESTART``) from x0 = 0 (Saad & Schultz, SISSC 7,
    1986), for at most ``maxiter`` cycles, until ``||b - Ax|| <= target``.
    Returns the iterate with the smallest residual, its residual norm, the
    cycles run and the matrix-vector products spent.

    Each Arnoldi step orthogonalises by classical Gram-Schmidt run twice, two
    BLAS-2 products per pass ("twice is enough": Giraud, Langou & Rozloznik,
    2005).  Givens rotations keep the Hessenberg matrix triangular and give
    the least-squares residual of each step.  A cycle ends when that estimate
    reaches ``target``, or when the Krylov space is invariant (a breakdown,
    after which the iterate is exact unless the matrix is singular there),
    and then takes the true residual, from which the next cycle starts.  A
    zero pivot of the triangle, where the matrix is singular on the Krylov
    space, drops the last basis vector from the update, so that every cycle
    returns an iterate.

    A cycle whose true residual is no smaller than the one it started from
    ends the iteration with the iterate it started from: a restart from that
    residual would rebuild the same Krylov space and make no progress.
    """
    n = b.size
    k = min(GMRES_RESTART, n)
    eps = np.finfo(np.float64).eps
    basis = np.empty((k + 1, n))
    upper = np.zeros((k, k))
    x = np.zeros(n)
    r, r_norm = b, math.sqrt(b @ b)
    products = 0
    for cycle in range(1, maxiter + 1):
        np.multiply(r, 1.0 / r_norm, out=basis[0])
        rotations = []
        g = [r_norm]   # the rotated right-hand side; |g[-1]| is the estimate
        for j in range(k):
            w = m @ basis[j]
            products += 1
            w_norm = math.sqrt(w @ w)
            h = basis[:j + 1] @ w
            w -= h @ basis[:j + 1]
            again = basis[:j + 1] @ w
            w -= again @ basis[:j + 1]
            column = (h + again).tolist()
            below = math.sqrt(w @ w)
            breakdown = below <= eps * w_norm
            if breakdown:
                below = 0.0
            else:
                np.multiply(w, 1.0 / below, out=basis[j + 1])
            for i, (c, s) in enumerate(rotations):
                column[i], column[i + 1] = (c * column[i] + s * column[i + 1],
                                            c * column[i + 1] - s * column[i])
            pivot = math.hypot(column[j], below)
            c, s = (column[j] / pivot, below / pivot) if pivot else (1.0, 0.0)
            rotations.append((c, s))
            column[j] = pivot
            upper[:j + 1, j] = column
            g[j], estimate = c * g[j], -s * g[j]
            g.append(estimate)
            if breakdown or abs(estimate) <= target:
                break
        p = j + 1 if upper[j, j] else j
        y = scipy.linalg.solve_triangular(upper[:p, :p], g[:p], check_finite=False)
        x_next = x + y @ basis[:p]
        r_next = b - m @ x_next
        products += 1
        r_next_norm = math.sqrt(r_next @ r_next)
        if not r_next_norm < r_norm:   # stagnated, or not a number
            break
        x, r, r_norm = x_next, r_next, r_next_norm
        if breakdown or r_norm <= target:
            break
    return x, r_norm, cycle, products


def spectral_radius(matrix) -> float:
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

    A block with one entry per row is one simple cycle, whose radius is the
    geometric mean of its entries.  Any other visited block is balanced by a
    diagonal similarity in powers of two when its entries span at least
    2^``BALANCE_SPAN``, then runs a shifted power iteration
    (``_block_radius``).  Its Collatz–Wielandt bracket certifies the radius
    to the relative tolerance ``POWER_TOL``; the iteration then runs on until
    the estimate stops moving, within a few ulp of the radius.  A block whose
    bracket ends below the largest radius found so far cannot hold the
    maximum and stops there, certified or not.  A block without a
    certificate after ``POWER_MAXITER`` steps raises :class:`NumericalError`,
    which names the block's order, its first node and the last estimate,
    kept as ``node`` and ``estimate``.
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
        rho, estimate = _block_radius(block, best)
        if rho is None:
            raise NumericalError(
                f"spectral radius of the strongly connected block of order {hi - lo} "
                f"starting at node {int(nodes[lo])} did not converge: power iteration missed "
                f"tol {POWER_TOL:.1e} in {POWER_MAXITER} steps (last estimate {estimate})",
                estimate=estimate,
                node=int(nodes[lo]),
            )
        best = max(best, rho)
    return best


def _block_radius(m: sp.csr_array, below: float = 0.0) -> tuple:
    """Radius of an irreducible nonnegative block, or None without a
    certificate after ``POWER_MAXITER`` steps, and the last estimate.  A block
    that cannot reach ``below`` returns an upper bound of its radius under
    ``below`` instead, as soon as its bracket shows it.

    A block with one entry per row is one simple cycle: its radius is
    ``_cycle_radius`` of the entries, with no iteration.  Any other block is
    replaced in place by ``D^-1 B D / 2^top``, an exact similarity in powers
    of two: ``D = diag(2^k)`` from ``_balance_exponents``, and 2^top brings
    the largest entry into [0.5, 1), so no norm of the iterate under- or
    overflows.  k = 0 below a span of 2^``BALANCE_SPAN``: the radius is at
    least the smallest entry, so there the largest entry, which sets the
    iteration's first shift, exceeds it less than 2^``BALANCE_SPAN`` times
    (a block that stalls on that changes its shift).  ``_power_radius``
    commutes with power-of-two scaling, so 2^top changes no bit of the
    radius.
    """
    if m.nnz == m.shape[0]:
        rho = _cycle_radius(m.data)
        return rho, rho
    lo, hi = float(m.data.min()), float(m.data.max())
    if math.log2(hi) - math.log2(lo) >= BALANCE_SPAN:
        exponents = _balance_exponents(m)
        top = int(np.max(np.frexp(m.data)[1] + exponents))
    else:
        exponents, top = 0, int(np.frexp(hi)[1])
    np.ldexp(m.data, exponents - top, out=m.data)
    try:
        below = math.ldexp(below, -top)
    except OverflowError:  # far above the scaled block's row sums
        below = sys.float_info.max
    rho, estimate = _power_radius(m, below)
    return (None if rho is None else float(np.ldexp(rho, top))), float(np.ldexp(estimate, top))


def _cycle_radius(data: np.ndarray) -> float:
    """Radius of a block that is one simple cycle: the geometric mean of its
    entries.  With each entry ``f * 2^e``, f in [0.5, 1), and the exponents'
    sum ``q * n + r``, the mean is ``2^q * exp((sum log f + r log 2) / n)``,
    whose argument lies in [-log 2, log 2), so the result is within a few ulp
    whatever the entries' scale or grading."""
    fractions, exponents = np.frexp(data)
    q, r = divmod(int(exponents.sum()), data.size)
    return math.ldexp(math.exp((math.fsum(np.log(fractions)) + r * math.log(2.0)) / data.size), q)


def _balance_exponents(m: sp.csr_array) -> np.ndarray:
    """Exponent ``k[j] - k[i]`` of each stored entry (i, j) of an irreducible
    block B such that ``D^-1 B D``, ``D = diag(2^k)``, is nearly balanced
    (Osborne, JACM 1960; Parlett & Reinsch, Numer. Math. 13, 1969).

    Damped Jacobi steps move each log d_i by a quarter of the log ratio of
    its off-diagonal row and column sums, half of Osborne's step, until all
    agree to a factor e or after ``BALANCE_SWEEPS`` sweeps.  The sums are
    log-sum-exps, so no scaled entry need be representable.  Rounding log2 d
    to integers, as LAPACK's ``gebal`` does, keeps the similarity exact.
    """
    n = m.shape[0]
    row = np.repeat(np.arange(n), np.diff(m.indptr))
    off = m.indices != row
    i, j = row[off], m.indices[off]
    log_b = np.log(m.data[off])
    # entries stay in row order; a stable sort by column groups the columns
    by_col = np.argsort(j, kind="stable")
    row_starts = np.searchsorted(i, np.arange(n))
    col_starts = np.searchsorted(j[by_col], np.arange(n))
    log_d = np.zeros(n)
    for _ in range(BALANCE_SWEEPS):
        log_entries = log_b + log_d[j] - log_d[i]
        imbalance = (np.logaddexp.reduceat(log_entries, row_starts)
                     - np.logaddexp.reduceat(log_entries[by_col], col_starts))
        if np.abs(imbalance).max() < 1.0:
            break
        log_d += 0.25 * imbalance
    k = np.rint(log_d / math.log(2.0)).astype(np.int64)
    return k[m.indices] - k[row]


def _power_radius(m: sp.csr_array, below: float) -> tuple:
    """Shifted power iteration: the radius, or None without a certificate,
    and the last estimate.

    It runs on ``M + sI``, s one eighth of the largest entry, which is
    primitive and whose radius exceeds that of M by exactly s.  A smaller s
    gives a smaller convergence ratio max |lambda + s| / (rho + s) over the
    other eigenvalues when they lie well inside the circle |lambda| = rho,
    and a lower rounding floor eps (rho + s); s is a power of two times the
    entry, so the radius still commutes with power-of-two scaling.  Two
    kinds of block stall under s/8: those with an eigenvalue on or near that
    circle, such as -rho in a bipartite block (an undirected star or tree),
    where a larger shift helps up to s = rho, and those where s/8 dwarfs
    rho, with a ratio near 1 - (rho - Re lambda) / s.  A block without a
    certificate after ``SHIFT_STEPS`` steps therefore goes on with s = half
    its current estimate of rho: that takes -rho to a ratio of 1/3, and
    takes about 3/2 the steps of a vanishing shift on a real positive
    lambda.  The estimate, too, commutes with power-of-two scaling.

    The iterate stays strictly positive, so every step brackets the radius:
    ``min_i (y_i / x_i) <= rho + s <= max_i (y_i / x_i)``.  When the upper
    end falls below ``below + s`` by the relative ``EXIT_MARGIN``, which
    outweighs its rounding, M cannot reach ``below`` and the upper end, less
    s, is returned at once.  Once the bracket closes to ``POWER_TOL`` the
    radius is certified; the iteration then runs on over a 9-step window
    until the upper end is stationary to 8 eps of the radius, or has stopped
    decreasing because it reached the rounding of rho + s (at
    ``POWER_MAXITER`` steps it returns the last certified value).
    """
    n = m.shape[0]
    shift = 0.125 * float(m.data.max())
    x = np.full(n, 1.0 / np.sqrt(n))
    floor = np.finfo(np.float64).tiny
    eps = np.finfo(np.float64).eps
    window: list[float] = []
    certified = estimate = None
    for step in range(POWER_MAXITER):
        if step == SHIFT_STEPS and certified is None and estimate > 0:
            shift = 0.5 * estimate
            window.clear()
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
        if positive and upper < (below + shift) * (1.0 - EXIT_MARGIN):
            return estimate, estimate
        if positive and lower > shift and upper - lower <= POWER_TOL * (lower - shift):
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
