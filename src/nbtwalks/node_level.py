"""Node-level route to nonbacktracking walk counts and Katz centrality.

Works directly with the n x n adjacency matrix: a growing recurrence for the
walk-count matrices, assembly of the sparse system matrix whose inverse is
the walk generating function, and the centrality obtained from one linear
solve against the all-ones vector.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .linalg import (
    DENSE_SOLVE_MAX,
    _canonical,
    _compact,
    _dense_solve,
    _indptr,
    _keys,
    _lookup,
    _plus_diagonal,
    _row_of,
    _row_sums,
    _scaled,
    _sum,
    check_t,
    elementwise_map,
    hadamard,
    matmul,
    range_end,
    solve_linear,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["nbt_walk_counts", "build_node_system", "elementwise_pole", "generating_matrix",
           "nbt_katz"]

# Rounding bound of the walk-count recurrence, in units of k * eps times the
# sum of the magnitudes combined at length k.
_RESIDUE_ULPS = 8


def _validate_adjacency(matrix):
    """The adjacency as a canonical CSR matrix in its container (a ``_CSR``
    stays one), checked for a square shape, nonnegative entries and a zero
    diagonal."""
    a = _canonical(matrix)
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"adjacency must be square, got {a.shape}")
    if a.nnz and np.any(a.data < 0):
        raise ValidationError("adjacency entries must be nonnegative")
    if np.any(a.data[_row_of(a.indptr) == a.indices]):
        raise ValidationError("adjacency must have a zero diagonal (loop-free graph)")
    return a


def nbt_walk_counts(adjacency, kmax: int) -> list[sp.csr_array]:
    """Weighted nonbacktracking walk-count matrices for lengths 0..kmax, in
    the container of ``adjacency``: a ``linalg._CSR`` gives ``_CSR``
    matrices, any other input ``scipy.sparse.csr_array`` ones.

    Entry (i, j) of the k-th matrix is the sum over all nonbacktracking walks
    of length k from i to j of the product of their edge weights.  Length 0
    is the identity, length 1 the adjacency; longer lengths follow a growing
    recurrence whose step-back coefficients are built incrementally, one
    Hadamard product per new depth.  An entry that cancels to zero within the
    recurrence's rounding error is not stored.

    The matrices are bit for bit those of the recurrence in scipy's sparse
    arithmetic: ``linalg.matmul``, ``hadamard`` and ``_sum`` store what
    scipy's ``@``, ``multiply``, ``+`` and ``-`` store, a
    product with a diagonal matrix is a row scaling, ``_scaled``, and the
    row sums are scipy's ``sum(axis=1)``, ``_row_sums``.
    """
    a = _validate_adjacency(adjacency)
    if kmax < 0:
        raise ValidationError(f"kmax must be nonnegative, got {kmax}")
    n = a.shape[0]
    counts = [type(a)((np.ones(n), np.arange(n), np.arange(n + 1)), shape=(n, n))]
    if kmax == 0:
        return counts
    counts.append(a)

    _, mutual = _mutual(a, _row_of(a.indptr))  # products w_ij * w_ji on reciprocated pairs
    odd_coeffs = [a]            # step back over 2h+1 edges: A o mutual^oh
    even_diags: list[np.ndarray] = []  # step back over 2h edges: row sums of mutual^oh
    mutual_pow = None

    for k in range(2, kmax + 1):
        if k % 2 == 0:
            mutual_pow = mutual if mutual_pow is None else hadamard(mutual_pow, mutual)
            even_diags.append(_row_sums(mutual_pow))
        else:
            odd_coeffs.append(hadamard(a, mutual_pow))

        forward = matmul(a, counts[k - 1])
        for h, coeff in enumerate(odd_coeffs[1:], start=1):
            if 2 * h + 1 > k:
                break
            forward = _sum(forward, matmul(coeff, counts[k - 2 * h - 1]))
        acc, back = forward, None
        for h, dvec in enumerate(even_diags, start=1):
            if 2 * h > k:
                break
            term = _scaled(counts[k - 2 * h], rows=dvec)
            acc = _sum(acc, term, -1.0)
            back = term if back is None else _sum(back, term)
        # Each entry is a difference of two nonnegative sums; one within
        # rounding error of their total is an exact zero, not a walk.  An
        # entry of acc where the total stores none has the bound 0.
        total = _sum(forward, back)
        at, found = _lookup(_keys(total), _keys(acc))
        bound = np.zeros(acc.nnz)
        bound[found] = total.data[at[found]] * (_RESIDUE_ULPS * k * np.finfo(np.float64).eps)
        counts.append(_compact(acc, acc.data * (np.abs(acc.data) > bound), acc.indices,
                               acc.indptr, acc.shape))
    return counts


def elementwise_pole(adjacency) -> float:
    """Smallest attenuation factor at which the node-level system has an
    elementwise pole: ``1 / sqrt(max w_ij * w_ji)`` over the reciprocated
    pairs, infinite when no pair is reciprocated."""
    a = _canonical(adjacency)
    return _pole(_mutual(a, _row_of(a.indptr))[1].data)


def _pole(mu: np.ndarray) -> float:
    return 1.0 / math.sqrt(float(mu.max())) if mu.size else math.inf


def _mutual(a, rows: np.ndarray) -> tuple:
    """mu = A o A^T, the products w_ij * w_ji over the reciprocated pairs of
    a canonical CSR matrix A whose entries lie in ``rows``: the positions of
    mu's entries among A's, in CSR order, and mu as a canonical CSR matrix
    in A's container.  A product that is zero is not stored, as scipy's
    elementwise product stores none."""
    n = a.shape[0]
    # the key of each entry's reversal, searched for among the entries' keys
    # with the needles sorted; the keys are distinct, so an unstable sort
    # will do.  The columns may be int32, whose product with n can overflow.
    needles = a.indices.astype(np.int64) * n + rows
    order = np.argsort(needles)
    at, found = np.empty(needles.size, dtype=np.intp), np.empty(needles.size, dtype=bool)
    at[order], found[order] = _lookup(_keys(a), needles[order])
    entries = np.flatnonzero(found)
    mu = a.data[entries] * a.data[at[entries]]
    stored = mu != 0
    entries = entries[stored]
    return entries, type(a)((mu[stored], a.indices[entries], _indptr(rows[entries], n)),
                            shape=a.shape)


def build_node_system(adjacency, t: float):
    """The sparse node-level system matrix N(t) = I + D(t) - A(t), whose
    inverse generates the walk counts, in the container of ``adjacency``: a
    ``linalg._CSR`` gives one, any other input a ``scipy.sparse.csr_array``.

    One elementwise map g = t^2 mu / (1 - t^2 mu) of the symmetric matrix
    mu = A o A^T of reciprocated weight products w_ij * w_ji gives both
    parts.  The round-trip correction D(t) holds the row sums of g: the
    paper's f_-(x) f_+(x) = x / (1 - x) * x / (1 + x) equals
    x^2 / (1 - x^2) at x = t sqrt(mu).  A(t) = t (A + A o g) is t A divided
    entrywise by 1 - t^2 mu.  Requires ``0 <= t`` below the elementwise
    pole; beyond it the diagonal correction series diverges and the
    offending pair is reported.

    The entries are those of the sparse assembly ``identity(n) +
    diag(g.sum(axis=1)) - (t * A + t * hadamard(A, g))`` bit for bit: each
    sum is taken in that order, the row sums as scipy's ``sum(axis=1)``
    takes them (``linalg._row_sums``), and an entry that is zero is not
    stored.
    """
    a = _validate_adjacency(adjacency)
    n = a.shape[0]
    rows = _row_of(a.indptr)
    entries, mutual = _mutual(a, rows)
    mu = mutual.data
    where = ""
    if mu.size:
        peak = entries[np.argmax(mu)]
        where = (", which ends at the elementwise pole of the reciprocated pair "
                 f"({rows[peak]}, {a.indices[peak]})")
    check_t(t, _pole(mu), where)

    # g vanishes at 0, so it stays on the reciprocated pattern
    g = elementwise_map(mutual, lambda x: (t * t * x) / (1.0 - t * t * x))
    g_rows = _row_of(g.indptr)
    # t A + t (A o g): the second term where A o g stores an entry; g's
    # entries are among A's, found with sorted needles
    entries = np.searchsorted(rows * n + a.indices, g_rows * n + g.indices)
    off = t * a.data
    a_g = a.data[entries] * g.data
    hit = a_g != 0
    off[entries[hit]] += t * a_g[hit]
    return _plus_diagonal(a, 1.0 + _row_sums(g), -off)


def generating_matrix(adjacency, t: float, *, rho_v: float) -> np.ndarray:
    """Dense walk generating function: the inverse of the node-level system.

    Equals the attenuated sum over all lengths of the nonbacktracking
    walk-count matrices for ``t`` in [0, 1 / ``rho_v``), where ``rho_v`` is
    the spectral radius of the edge-level matrix ``V``; any other ``t`` is
    rejected.
    """
    system = build_node_system(adjacency, t)
    n = system.shape[0]
    if n > DENSE_SOLVE_MAX:
        raise ValidationError(
            f"dense generating matrix limited to order {DENSE_SOLVE_MAX}, got {n}"
        )
    check_t(t, range_end(rho_v), " for the nonbacktracking series")
    return _dense_solve(system.toarray(), np.eye(n), "system matrix")


def nbt_katz(adjacency, t: float, *, tol: float = 1e-10, rho_v: float) -> np.ndarray:
    """Nonbacktracking Katz centrality: solve the node-level system against
    the all-ones vector.

    ``rho_v`` is the spectral radius of the edge-level matrix ``V``: ``t``
    must lie in the series range [0, 1 / ``rho_v``).
    """
    system = build_node_system(adjacency, t)
    check_t(t, range_end(rho_v), " for the nonbacktracking series")
    return solve_linear(system, np.ones(system.shape[0]), tol)
