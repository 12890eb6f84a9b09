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

from .errors import NumericalError, ValidationError
from .linalg import (
    DENSE_SOLVE_MAX,
    _canonical,
    _compact,
    _dense_solve,
    _indptr,
    _from_keys,
    _keys,
    _lookup,
    _plus_diagonal,
    _row_of,
    _row_sums,
    _scaled,
    _signed_sum,
    check_t,
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
    elementwise product per new depth.  An entry that cancels to zero within
    the recurrence's rounding error is not stored.

    The elementwise products are taken at the positions of the reciprocated
    pairs among A's entries, which ``_mutual`` returns: mu^oh is an array on
    mu's pattern, times mu at each depth, and A o mu^oh multiplies it by A's
    entries there, a zero product dropped.  Each length makes its products
    with the adjacency and the odd coefficients and its even step-back
    terms, and adds them all in one ``linalg._signed_sum``, which gives the
    forward sum, the step-back sum and their difference on one pattern.
    The matrices are bit for bit those of the recurrence in scipy's sparse
    arithmetic: the elementwise products are what scipy's ``multiply``
    stores, ``linalg.matmul`` stores what scipy's ``@`` stores, the signed
    sum adds each entry's terms as the chain of scipy's ``+`` and ``-``
    does, a product with a diagonal matrix is a row scaling, ``_scaled``,
    and the row sums are scipy's ``sum(axis=1)``, ``_row_sums``.
    """
    a = _validate_adjacency(adjacency)
    if kmax < 0:
        raise ValidationError(f"kmax must be nonnegative, got {kmax}")
    n = a.shape[0]
    counts = [type(a)((np.ones(n), np.arange(n), np.arange(n + 1)), shape=(n, n))]
    if kmax == 0:
        return counts
    counts.append(a)

    # products w_ij * w_ji on the reciprocated pairs, and where they sit among A's
    entries, mutual = _mutual(a, _row_of(a.indptr))
    odd_coeffs = [a]            # step back over 2h+1 edges: A o mutual^oh
    even_diags: list[np.ndarray] = []  # step back over 2h edges: row sums of mutual^oh
    mutual_pow = None           # mutual^oh on mutual's pattern; an underflow stays 0

    def on_mutual(data: np.ndarray):
        return _compact(mutual, data, mutual.indices, mutual.indptr, mutual.shape)

    for k in range(2, kmax + 1):
        if k % 2 == 0:
            mutual_pow = mutual.data if mutual_pow is None else mutual_pow * mutual.data
            even_diags.append(_row_sums(on_mutual(mutual_pow)))
        else:
            odd_coeffs.append(on_mutual(a.data[entries] * mutual_pow))

        forward = [matmul(coeff, counts[k - 2 * h - 1])
                   for h, coeff in enumerate(odd_coeffs) if 2 * h + 1 <= k]
        back = [_scaled(counts[k - 2 * h], rows=dvec)
                for h, dvec in enumerate(even_diags, start=1) if 2 * h <= k]
        keys, forward, back, acc = _signed_sum(forward, back)
        # Each entry is a difference of two nonnegative sums; one within
        # rounding error of their total is an exact zero, not a walk.
        bound = (forward + back) * (_RESIDUE_ULPS * k * np.finfo(np.float64).eps)
        counts.append(_from_keys(a, keys, acc * (np.abs(acc) > bound), a.shape))
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

    g is taken on mu's pattern, at the positions of the reciprocated pairs
    among A's entries that ``_mutual`` returns, so A o g needs no search.
    The entries are those of the sparse assembly ``identity(n) +
    diag(g.sum(axis=1)) - (t * A + t * A.multiply(g))`` in scipy's
    arithmetic bit for bit: each sum is taken in that order, the row sums
    of g's nonzero entries as scipy's ``sum(axis=1)`` takes them
    (``linalg._row_sums``), and an entry that is zero is not stored.  A
    ``t`` below the pole whose t^2 mu rounds to 1 or more raises
    :class:`NumericalError`.
    """
    a = _validate_adjacency(adjacency)
    rows = _row_of(a.indptr)
    entries, mutual = _mutual(a, rows)
    mu = mutual.data
    pair = ""
    if mu.size:
        peak = entries[np.argmax(mu)]
        pair = f"the reciprocated pair ({rows[peak]}, {a.indices[peak]})"
    check_t(t, _pole(mu), pair and ", which ends at the elementwise pole of " + pair)

    x = t * t * mu
    if x.size and x.max() >= 1.0:
        raise NumericalError(f"t = {t} lies within rounding of the elementwise pole of {pair}")
    # g vanishes at 0, so it stays on mu's pattern, where an underflow is 0
    g = x / (1.0 - x)
    # t A + t (A o g): the second term where A o g stores an entry
    off = t * a.data
    a_g = a.data[entries] * g
    hit = a_g != 0
    off[entries[hit]] += t * a_g[hit]
    g = _compact(mutual, g, mutual.indices, mutual.indptr, mutual.shape)
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
