"""Sparse matrix kernels: products, sums, linear solves, spectral radius.

Matrices come in two containers, both CSR with float64 data; vectors are 1-D
numpy arrays.  ``_CSR`` is a private canonical CSR on numpy alone, and it
serves every CLI command: the static adjacency A and line graph V
(``graph._adjacency``, ``graph._line_graph``), the walk-count tables and
every temporal matrix are ``_CSR``, so no command loads scipy but for
MatrixMarket input.  ``scipy.sparse.csr_array`` serves the public names that
hand matrices out (``graph.adjacency``, ``line_graph(g).V``,
``GlobalDecomposition.M``, ``identity``, ``as_csr`` and so on); every scipy
import is inside the function that needs it.

A builder or kernel that takes either container has one body and keeps the
input's container: ``_CSR`` in, ``_CSR`` out; scipy in, scipy out.  The
sparse arithmetic (``matmul``, the n-ary sum ``_signed_sum``, ``_scaled``,
``_transpose``), ``identity_minus`` (I - tM),
``node_level.build_node_system``, ``spectral_radius`` and
``solve_linear`` assemble their numpy arrays as ``type(m)((data,
indices, indptr), shape=...)``, bit for bit what scipy's sparse arithmetic
stores, and multiply with the input's ``@`` (scipy's compiled product, or
``_CSR``'s bincount, which agree bit for bit).  Only the
strongly-connected-components pass differs: ``scipy.sparse.csgraph`` for
scipy input, ``_strong_components`` for ``_CSR``, in three stages: a trim
of the nodes without an in- or out-edge, a forward-backward search from one
pivot, a breadth-first level per numpy step, and Tarjan's pass on what the
two leave.  All operations treat their inputs as immutable and return fresh
objects, so results can be shared freely across threads.  Explicitly stored
zeros never affect results.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError, ValidationError

if TYPE_CHECKING:
    import scipy.sparse as sp

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
SCC_LEVELS = 64       # rounds of the components pass's trim and of each search


class _CSR:
    """A canonical CSR matrix on numpy alone: float64 ``data``, column
    ``indices`` sorted within each row, no repeated entry.  It is built as
    ``scipy.sparse.csr_array((data, indices, indptr), shape=shape)`` is, from
    arrays that already meet those terms, and it holds them as given.  Its
    product with a vector sums each row in stored order, from 0, as scipy's
    does, so the two agree bit for bit."""

    def __init__(self, arrays: tuple, shape: tuple[int, int]):
        self.data, self.indices, self.indptr = arrays
        self.shape = shape

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @cached_property
    def _rows(self) -> np.ndarray:
        return _row_of(self.indptr)

    @cached_property
    def _components(self) -> tuple[int, np.ndarray]:
        """The strongly connected components of the stored pattern, as
        ``_strong_components`` gives them; a matrix of the same pattern may
        be handed them."""
        return _strong_components(self)

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            return np.bincount(self._rows, self.data * x[self.indices], minlength=self.shape[0])
        # each row adds its entries' multiples of x's rows in stored order,
        # from 0, as scipy's product with a dense matrix does
        out = np.zeros((self.shape[0], x.shape[1]))
        np.add.at(out, self._rows, self.data[:, None] * x[self.indices])
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self._rows, self.indices] = self.data
        return out


def _row_of(indptr: np.ndarray) -> np.ndarray:
    """The row of each stored entry of a CSR matrix with row pointers
    ``indptr`` (or the segment of each slot of a list cut at ``indptr``)."""
    return np.repeat(np.arange(indptr.size - 1), np.diff(indptr))


def _indptr(rows: np.ndarray, n: int) -> np.ndarray:
    """The row pointers of ``n`` rows for entries in the ascending ``rows``."""
    return np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=n))))


def _diagonal_block(m, lo: int, hi: int):
    """Rows and columns ``lo:hi`` of a canonical CSR matrix, in its own
    container, when rows ``lo:hi`` have no entry outside columns ``lo:hi``
    (a diagonal block of a block-diagonal matrix).  The block shares the
    matrix's data."""
    first, last = m.indptr[lo], m.indptr[hi]
    return type(m)((m.data[first:last], m.indices[first:last] - lo,
                    m.indptr[lo:hi + 1] - first), shape=(hi - lo, hi - lo))


def as_csr(matrix) -> sp.csr_array:
    """Coerce to a canonical float64 CSR array with sorted indices; a
    ``_CSR`` becomes the scipy array of its arrays.  The result may share
    the input's arrays; a copy is made before summing duplicates or
    sorting, so the input is never changed."""
    import scipy.sparse as sp

    if isinstance(matrix, _CSR):
        return sp.csr_array((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
    if sp.issparse(matrix):
        out = sp.csr_array(matrix, dtype=np.float64)
        # a CSR input keeps its check, so each matrix is checked once
        if matrix.format == "csr" and matrix.has_canonical_format:
            return out
    else:
        out = sp.csr_array(np.asarray(matrix, dtype=np.float64))
    if not out.has_canonical_format:
        out = out.copy()
        out.sum_duplicates()
    return out


def _canonical(matrix):
    """A ``_CSR`` as it is, which is canonical by construction; any other
    matrix through ``as_csr``."""
    return matrix if isinstance(matrix, _CSR) else as_csr(matrix)


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
    import scipy.sparse as sp

    return sp.identity(n, dtype=np.float64, format="csr")


def identity_minus(t: float, m):
    """``I - t M`` for a canonical CSR matrix M, in M's container, stored as
    scipy stores ``identity(n) - t * M``: ``-t * m`` off the diagonal, ``1 -
    t * m`` on it, in column order, and an entry that is zero is dropped."""
    return _plus_diagonal(m, np.ones(m.shape[0]), -t * m.data)


def _plus_diagonal(m, diagonal: np.ndarray, values: np.ndarray):
    """``diag(diagonal) + E`` in the container of the canonical CSR matrix
    ``m``, E the matrix of m's pattern with the entries ``values``.  It is
    stored as scipy stores the sum of two canonical matrices: a diagonal
    entry of E is added to ``diagonal``, each diagonal entry goes in front
    of its row's first entry right of it, an entry that is zero is dropped,
    and the index arrays are int32 when their values fit.

    One count of each row's entries left of the diagonal gives the slot of
    every row's diagonal entry, and shows where E stores one; the entries of
    E then fill the slots the diagonal leaves free, in one pass."""
    n = diagonal.size
    indptr, indices = m.indptr, m.indices
    rows = _row_of(indptr)
    slot = indptr[:-1] + np.bincount(rows[indices < rows], minlength=n)
    keep = values != 0
    on = np.flatnonzero(slot < indptr[1:])
    on = on[indices[slot[on]] == on]
    if on.size:
        diagonal = diagonal.copy()
        diagonal[on] += values[slot[on]]
        keep[slot[on]] = False
    if not keep.all():
        slot -= np.concatenate(([0], np.cumsum(~keep)))[slot]
        indices, values = indices[keep], values[keep]
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
    stored = np.flatnonzero(diagonal)
    size = values.size + stored.size
    index = _index_dtype(max(size, n))
    # the diagonal entries in the rows above each row
    above = np.arange(n + 1, dtype=index)
    if stored.size < n:
        diagonal, slot = diagonal[stored], slot[stored]
        above[1:] = np.cumsum(np.bincount(stored, minlength=n))
    slot = slot + np.arange(stored.size)
    free = np.ones(size, dtype=bool)
    free[slot] = False
    free = np.flatnonzero(free)
    data, columns = np.empty(size), np.empty(size, dtype=index)
    data[slot], columns[slot] = diagonal, stored
    data[free], columns[free] = values, indices
    return type(m)((data, columns, (indptr + above).astype(index, copy=False)), shape=(n, n))


def _index_dtype(largest: int):
    """int32 when ``largest`` fits in it, as scipy's index arrays are."""
    return np.int32 if largest <= np.iinfo(np.int32).max else np.int64


def _operands(a, b) -> tuple:
    """Two matrices as canonical CSR matrices in one container: ``_CSR``
    when both are, scipy arrays (``as_csr``) otherwise."""
    if isinstance(a, _CSR) and isinstance(b, _CSR):
        return a, b
    return as_csr(a), as_csr(b)


def _keys(m) -> np.ndarray:
    """The int64 key ``row * columns + column`` of each stored entry of a
    canonical CSR matrix: ascending, as the entries are stored."""
    return _row_of(m.indptr) * m.shape[1] + m.indices


def _from_keys(like, keys: np.ndarray, data: np.ndarray, shape: tuple):
    """The matrix with entries ``data`` at the ascending ``keys``, in the
    container of ``like``, with every entry that is zero dropped."""
    stored = data != 0
    if not stored.all():
        keys, data = keys[stored], data[stored]
    index = _index_dtype(max(keys.size, *shape))
    indices = np.remainder(keys, shape[1], out=np.empty(keys.size, dtype=index), casting="unsafe")
    indptr = np.searchsorted(keys, np.arange(shape[0] + 1) * shape[1]).astype(index)
    return type(like)((data, indices, indptr), shape=shape)


def _compact(like, data: np.ndarray, indices: np.ndarray, indptr: np.ndarray, shape: tuple):
    """The CSR matrix of these arrays in the container of ``like``, with
    every entry that is zero dropped."""
    stored = data != 0
    if not stored.all():
        data, indices = data[stored], indices[stored]
        indptr = np.concatenate(([0], np.cumsum(stored)))[indptr]
    return type(like)((data, indices, indptr), shape=shape)


# The row chunks of a sparse product expand about this many terms at once.
PRODUCT_CHUNK = 1 << 20
# A chunk's sort keys, a term's key with its place in the chunk below it,
# stay below 2^KEY_BITS: a chunk holds no more rows than leave room for them.
KEY_BITS = 62


def matmul(a, b):
    """Sparse product ``a @ b`` in the container of its operands (``_CSR``
    when both are ``_CSR``, else a ``scipy.sparse.csr_array``), stored as
    scipy's ``csr_matmat`` stores it: entry (i, k) sums ``a[i, j] * b[j,
    k]`` from 0 in a's stored order of j, only a nonzero sum is stored, and
    the columns are sorted.

    Row chunks of about ``PRODUCT_CHUNK`` terms are expanded at a time, each
    term keyed by its row in the chunk and its column (expand, sort and
    compress: Bell, Dalton & Olson, SISC 2012).  One sort of the keys, with
    each term's place in the chunk packed below its key, orders the terms
    stably, and ``np.bincount`` adds each key's terms in their order.  A
    product with so many columns that a single row's keys cannot be packed
    is refused, as scipy's dense row accumulator of that width could not be
    allocated."""
    a, b = _operands(a, b)
    if a.shape[1] != b.shape[0]:
        raise ValidationError(
            f"matmul dimension mismatch: {a.shape} @ {b.shape}"
        )
    n_rows, n_cols = a.shape[0], b.shape[1]
    per_entry = np.diff(b.indptr)[a.indices]
    before = np.concatenate(([0], np.cumsum(per_entry)))   # terms before each entry
    row_before = before[a.indptr]                             # and before each row
    # a chunk holds at most PRODUCT_CHUNK terms, or a single row's
    widest = int(np.diff(row_before).max()) if n_rows else 0
    place_bits = max(widest, PRODUCT_CHUNK).bit_length()
    max_rows = (1 << (KEY_BITS - place_bits)) // max(n_cols, 1)
    if not max_rows:
        raise ValidationError(
            f"matmul: {a.shape} @ {b.shape} has too many columns to sort its rows' terms"
        )
    keys, sums = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    lo = 0
    while lo < n_rows:
        hi = int(np.searchsorted(row_before, row_before[lo] + PRODUCT_CHUNK, side="right")) - 1
        hi = min(max(hi, lo + 1), lo + max_rows, n_rows)
        first, last = a.indptr[lo], a.indptr[hi]
        size = int(before[last] - before[first])
        if size:
            counts = per_entry[first:last]
            at = np.arange(size) + np.repeat(
                b.indptr[a.indices[first:last]] - (before[first:last] - before[first]), counts)
            terms = np.repeat(a.data[first:last], counts) * b.data[at]
            key = np.repeat(np.arange(hi - lo) * n_cols, np.diff(row_before[lo:hi + 1])) \
                + b.indices[at]
            chunk_key, chunk_sum = _sum_terms(key, terms, place_bits)
            keys.append(chunk_key + lo * n_cols)
            sums.append(chunk_sum)
        lo = hi
    return _from_keys(a, np.concatenate(keys), np.concatenate(sums), (n_rows, n_cols))


def _sum_terms(key: np.ndarray, terms: np.ndarray, place_bits: int) -> tuple:
    """The distinct keys of the ``terms``, ascending, and for each the sum
    of its terms in their order from 0.  Each key,
    shifted left by ``place_bits`` with its term's place below it, must fit
    in an int64."""
    packed = np.sort((key << place_bits) | np.arange(key.size))
    order, key = packed & ((1 << place_bits) - 1), packed >> place_bits
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    return key[new], np.bincount(np.cumsum(new) - 1, weights=terms[order])


def _lookup(keys: np.ndarray, needles: np.ndarray) -> tuple:
    """Where each of the ascending ``needles`` sits among the ascending
    distinct ``keys``: its insertion point, and whether the key there is
    the needle."""
    at = np.searchsorted(keys, needles)
    found = at < keys.size
    found[found] = keys[at[found]] == needles[found]
    return at, found


def _signed_sum(plus: list, minus: list) -> tuple:
    """The sums of canonical CSR matrices of one shape and container on
    their union pattern: the ascending keys (``_keys``) of every entry that
    an operand stores, and on them P, the sum of the matrices ``plus``, Q,
    that of ``minus``, and P - Q.  Each key's terms are added from 0 in
    operand order, ``plus`` before ``minus``, as scipy's chained ``+`` and
    ``-`` (``csr_binop_csr``) add them: a stored value is never -0.0, so a
    term added to a partial sum 0.0, which the chain drops, stays itself,
    and ``a - b`` is ``a + (-b)`` bit for bit.  Each sum is that chain's,
    bit for bit, where the chain stores an entry, and 0 where it stores
    none.

    One stable sort of the concatenated keys, the merge of the operands'
    ascending runs, gives the union and each term's place in it, and one
    ``np.bincount`` over the terms in operand order gives each sum."""
    operands = plus + minus
    keys = np.concatenate([_keys(m) for m in operands])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    keys = keys[new]
    place = np.empty(order.size, dtype=np.intp)
    place[order] = np.cumsum(new)
    place -= 1
    del order, new  # freed before the values are gathered, which lowers the peak
    values = np.concatenate([m.data for m in operands])
    split = sum(m.nnz for m in plus)
    p = np.bincount(place[:split], values[:split], minlength=keys.size)
    q = np.bincount(place[split:], values[split:], minlength=keys.size)
    np.negative(values[split:], out=values[split:])
    return keys, p, q, np.bincount(place, values, minlength=keys.size)


def _scaled(m, rows: np.ndarray | None = None, columns: np.ndarray | None = None):
    """``diag(rows) @ m`` or ``m @ diag(columns)`` for a canonical CSR
    matrix m, in its container, as the sparse product with the diagonal
    matrix stores it: each entry times the row's or the column's factor, a
    zero product dropped."""
    factor = rows[_row_of(m.indptr)] if columns is None else columns[m.indices]
    return _compact(m, m.data * factor, m.indices, m.indptr, m.shape)


def _transpose(m):
    """The transpose of a canonical CSR matrix as a canonical CSR matrix in
    its container, the entries of each new row in ascending column order."""
    order = np.argsort(m.indices, kind="stable")
    columns = m.indices[order]
    index = _index_dtype(max(m.nnz, *m.shape))
    return type(m)((m.data[order], _row_of(m.indptr)[order].astype(index),
                    _indptr(columns, m.shape[1]).astype(index)), shape=m.shape[::-1])


def _row_sums(m) -> np.ndarray:
    """Each row's sum of a CSR matrix, as scipy's ``sum(axis=1)`` takes it:
    ``np.add.reduceat`` over the rows with entries, 0 for the others."""
    sums = np.zeros(m.shape[0])
    if m.nnz:
        rows = np.flatnonzero(np.diff(m.indptr))
        sums[rows] = np.add.reduceat(m.data, m.indptr[rows])
    return sums


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
    m = _canonical(matrix)
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
    b_norm = math.sqrt(b @ b)
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
        try:
            x = np.linalg.solve(m.toarray(), b)
        except np.linalg.LinAlgError:
            x = None  # exactly singular
        if x is not None and not (np.isfinite(m.data).all() and np.isfinite(x).all()):
            x = None  # a non-finite matrix or solution: the LU has no result
        r = None if x is None else m @ x - b
        r_norm = math.inf if r is None else math.sqrt(r @ r)
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


def _gmres(m, b: np.ndarray, target: float, maxiter: int) -> tuple:
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
        # back-substitution on the triangle, row by row: LAPACK's bits here
        y = np.empty(p)
        for i in reversed(range(p)):
            y[i] = (g[i] - upper[i, i + 1:p] @ y[i + 1:]) / upper[i, i]
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
    the estimate stops moving by more than 8 eps of the radius over 9 steps.
    With convergence ratio q over the block's other eigenvalues that is
    about 8 eps / (1 - q^9) above the radius (60 ulps, 1.3e-14 relative, on
    the benchmark's fixed small temporal instance).  A block whose
    bracket ends below the largest radius found so far cannot hold the
    maximum and stops there, certified or not.  A block without a
    certificate after ``POWER_MAXITER`` steps raises :class:`NumericalError`,
    which names the block's order, its first node and the last estimate,
    kept as ``node`` and ``estimate``.
    """
    m = _canonical(matrix)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"spectral_radius requires a square matrix, got {m.shape}")
    n = m.shape[0]
    if n == 0:
        return 0.0
    if not m.data.all():  # a matrix without stored zeros keeps its cached components
        m = _compact(m, m.data, m.indices, m.indptr, m.shape)
    row = _row_of(m.indptr)
    if m.nnz == 0:
        return 0.0
    if np.any(m.data < 0):
        raise ValidationError("spectral_radius requires nonnegative entries")

    if isinstance(m, _CSR):
        ncomp, labels = m._components
    else:  # scipy input: its caller has loaded scipy
        from scipy.sparse import csgraph

        ncomp, labels = csgraph.connected_components(m, directed=True, connection="strong")
    single = np.bincount(labels, minlength=ncomp)[labels] == 1
    loop = m.indices == row
    diagonal = np.zeros(n)
    diagonal[row[loop]] = m.data[loop]
    best = float(diagonal[single].max(initial=0.0))
    if single.all():
        return best
    # the nodes of the other components, each component contiguous, and the
    # entries inside them: a block-diagonal matrix of irreducible blocks.  A
    # row keeps its entries in their order, which stays sorted by column,
    # as the nodes of one component keep theirs.
    nodes = np.flatnonzero(~single)
    nodes = nodes[np.argsort(labels[nodes], kind="stable")]
    k = nodes.size
    pos = np.empty(n, dtype=np.intp)
    pos[nodes] = np.arange(k)
    keep = (labels[row] == labels[m.indices]) & ~single[row]
    rows, cols, vals = pos[row[keep]], pos[m.indices[keep]], m.data[keep]
    by_row = np.argsort(rows, kind="stable")
    blocks = type(m)((vals[by_row], cols[by_row], _indptr(rows, k)), shape=(k, k))
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
        block = blocks if hi - lo == k else _diagonal_block(blocks, lo, hi)
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


def _block_radius(m, below: float = 0.0) -> tuple:
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


def _balance_exponents(m) -> np.ndarray:
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
    row = _row_of(m.indptr)
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


def _power_radius(m, below: float) -> tuple:
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
        x = y / math.sqrt(y @ y)
    return certified, estimate


def _strong_components(m: _CSR) -> tuple[int, np.ndarray]:
    """The strongly connected components of a ``_CSR``'s pattern: their
    count and each node's label, as ``scipy.sparse.csgraph`` gives them up
    to the numbering.  Three stages, each on the nodes the last one left:

    1. Trim: a node with no in-edge or no out-edge from another node left is
       a component of its own, and leaving takes its edges away.  One round
       removes all such nodes at once.
    2. Forward-backward (Fleischer, Hendrickson & Pinar, 2000): the nodes
       both reachable from one pivot and reaching it are the pivot's
       component.  Each level of the two breadth-first searches is one
       numpy step over the frontier's edges.
    3. Tarjan's pass, ``_tarjan``, on the nodes still left.

    The trim and each search stop after ``SCC_LEVELS`` rounds, which a long
    path or ring needs more of, and an unfinished search leaves its nodes
    to Tarjan's pass: at most ``3 * SCC_LEVELS`` numpy rounds, then a
    linear pass.  On the line graph of a random digraph, where one
    component holds nearly every node, the first two stages leave no node
    to the third (Orzan, 2004; Slota, Rajamanickam & Madduri, IPDPS
    2014)."""
    n = m.shape[0]
    label = np.empty(n, dtype=np.intp)
    if n == 0:
        return 0, label
    indptr, indices = m.indptr, m.indices
    row = _row_of(indptr)
    # each node's in-neighbours, in any order
    by_col = np.argsort(indices)
    in_indptr = _indptr(indices[by_col], n)
    in_indices = row[by_col]
    loop = row == indices
    out_deg = np.bincount(row[~loop], minlength=n)
    in_deg = np.bincount(indices[~loop], minlength=n)
    live = np.ones(n, dtype=bool)
    ncomp = 0

    trimmed = np.flatnonzero((out_deg == 0) | (in_deg == 0))
    for _ in range(SCC_LEVELS):
        if not trimmed.size:
            break
        live[trimmed] = False
        label[trimmed] = ncomp + np.arange(trimmed.size)
        ncomp += trimmed.size
        succ = _neighbours(indptr, indices, trimmed)
        pred = _neighbours(in_indptr, in_indices, trimmed)
        in_deg -= np.bincount(succ, minlength=n)
        out_deg -= np.bincount(pred, minlength=n)
        touched = _distinct(np.concatenate((succ, pred)), n)
        trimmed = touched[live[touched] & ((in_deg[touched] == 0) | (out_deg[touched] == 0))]

    if live.any():
        pivot = int(np.argmax(np.where(live, in_deg * out_deg, -1)))
        forward = _reached(indptr, indices, pivot, live)
        backward = None if forward is None else _reached(in_indptr, in_indices, pivot, live)
        if backward is not None:
            component = forward & backward
            label[component] = ncomp
            ncomp += 1
            live &= ~component

    rest = np.flatnonzero(live)
    if rest.size:
        pos = np.full(n, -1)
        pos[rest] = np.arange(rest.size)
        kept = live[row] & live[indices]
        count, sub_label = _tarjan(_indptr(pos[row[kept]], rest.size), pos[indices[kept]],
                                   rest.size)
        label[rest] = ncomp + sub_label
        ncomp += count
    return ncomp, label


def _neighbours(indptr: np.ndarray, indices: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """The entries of rows ``nodes`` of a CSR pattern, concatenated."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    return indices[np.arange(total) + np.repeat(starts - ends + counts, counts)]


def _distinct(nodes: np.ndarray, n: int) -> np.ndarray:
    """``nodes`` with repeats dropped, with no sort: each keeps the place of
    its last occurrence."""
    place = np.empty(n, dtype=np.intp)
    place[nodes] = np.arange(nodes.size)
    return nodes[place[nodes] == np.arange(nodes.size)]


def _reached(indptr: np.ndarray, indices: np.ndarray, start: int, live: np.ndarray):
    """The live nodes that a breadth-first search from ``start`` reaches
    along the CSR pattern ``(indptr, indices)``, as a mask, or None when the
    search is not done after ``SCC_LEVELS`` levels."""
    seen = ~live
    seen[start] = True
    frontier = np.array([start])
    for _ in range(SCC_LEVELS):
        step = _neighbours(indptr, indices, frontier)
        step = step[~seen[step]]
        if not step.size:
            return seen & live
        seen[step] = True
        frontier = _distinct(step, live.size)
    return None


def _tarjan(indptr: np.ndarray, indices: np.ndarray, n: int) -> tuple[int, np.ndarray]:
    """The strongly connected components of a CSR pattern by Tarjan's
    depth-first search (SIAM J. Comput. 1, 1972), in linear time, with an
    explicit path of open nodes in place of recursion, so that no depth of
    path exhausts the interpreter's stack.  A node's visit order becomes
    ``n + 1`` once its component is closed, which keeps it out of every
    later low link; components are labelled as they close, so the labels
    run in reverse topological order."""
    indptr, indices = indptr.tolist(), indices.tolist()
    next_edge = indptr[:-1]
    order = [0] * n      # 1 + the visit order, 0 before the visit
    low = [0] * n        # least order reached from the node's subtree
    label = [0] * n
    stack, ncomp, visited, closed = [], 0, 0, n + 1
    for root in range(n):
        if order[root]:
            continue
        visited += 1
        order[root] = low[root] = visited
        stack.append(root)
        path = [root]
        while path:
            v = path[-1]
            p, end, low_v = next_edge[v], indptr[v + 1], low[v]
            while p < end:
                w = indices[p]
                p += 1
                order_w = order[w]
                if not order_w:   # descend to w
                    next_edge[v], low[v] = p, low_v
                    visited += 1
                    order[w] = low[w] = visited
                    stack.append(w)
                    path.append(w)
                    break
                if order_w < low_v:
                    low_v = order_w
            else:   # every edge of v is done: close v
                path.pop()
                if low_v == order[v]:
                    while True:
                        w = stack.pop()
                        label[w], order[w] = ncomp, closed
                        if w == v:
                            break
                    ncomp += 1
                elif low_v < low[path[-1]]:
                    low[path[-1]] = low_v
    return ncomp, np.array(label, dtype=np.intp)
