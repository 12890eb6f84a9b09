"""Node-level route to nonbacktracking walk counts and Katz centrality.

Works directly with the n x n adjacency matrix: a growing recurrence for the
walk-count matrices, assembly of the sparse system matrix whose inverse is
the walk generating function, and the centrality obtained from one linear
solve against the all-ones vector.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .linalg import (
    DENSE_SOLVE_MAX,
    _dense_solve,
    as_csr,
    check_t,
    diag_matrix,
    elementwise_map,
    hadamard,
    identity,
    range_end,
    solve_linear,
)

__all__ = ["nbt_walk_counts", "build_node_system", "elementwise_pole", "generating_matrix",
           "nbt_katz"]

# Rounding bound of the walk-count recurrence, in units of k * eps times the
# sum of the magnitudes combined at length k.
_RESIDUE_ULPS = 8


def _validate_adjacency(matrix) -> sp.csr_array:
    a = as_csr(matrix)
    if a.shape[0] != a.shape[1]:
        raise ValidationError(f"adjacency must be square, got {a.shape}")
    if a.nnz and np.any(a.data < 0):
        raise ValidationError("adjacency entries must be nonnegative")
    if a.diagonal().any():
        raise ValidationError("adjacency must have a zero diagonal (loop-free graph)")
    return a


def nbt_walk_counts(adjacency, kmax: int) -> list[sp.csr_array]:
    """Weighted nonbacktracking walk-count matrices for lengths 0..kmax.

    Entry (i, j) of the k-th matrix is the sum over all nonbacktracking walks
    of length k from i to j of the product of their edge weights.  Length 0
    is the identity, length 1 the adjacency; longer lengths follow a growing
    recurrence whose step-back coefficients are built incrementally, one
    Hadamard product per new depth.  An entry that cancels to zero within the
    recurrence's rounding error is not stored.
    """
    a = _validate_adjacency(adjacency)
    if kmax < 0:
        raise ValidationError(f"kmax must be nonnegative, got {kmax}")
    n = a.shape[0]
    counts = [identity(n)]
    if kmax == 0:
        return counts
    counts.append(a)

    mutual = hadamard(a, a.T)  # products w_ij * w_ji on reciprocated pairs
    odd_coeffs = [a]           # step back over 2h+1 edges: A o mutual^oh
    even_diags: list[np.ndarray] = []  # step back over 2h edges: row sums of mutual^oh
    mutual_pow = None

    for k in range(2, kmax + 1):
        if k % 2 == 0:
            mutual_pow = mutual if mutual_pow is None else hadamard(mutual_pow, mutual)
            even_diags.append(np.asarray(mutual_pow.sum(axis=1)).ravel())
        else:
            odd_coeffs.append(hadamard(a, mutual_pow))

        forward = sp.csr_array((n, n), dtype=np.float64)
        for h, coeff in enumerate(odd_coeffs):
            step = 2 * h + 1
            if step > k:
                break
            forward = forward + coeff @ counts[k - step]
        acc = forward
        back = sp.csr_array((n, n), dtype=np.float64)
        for h, dvec in enumerate(even_diags, start=1):
            step = 2 * h
            if step > k:
                break
            term = diag_matrix(dvec) @ counts[k - step]
            acc = acc - term
            back = back + term
        # Each entry is a difference of two nonnegative sums; one within
        # rounding error of their total is an exact zero, not a walk.
        bound = (forward + back) * (_RESIDUE_ULPS * k * np.finfo(np.float64).eps)
        acc = sp.csr_array(acc.multiply(abs(acc) > bound))
        acc.eliminate_zeros()
        acc.sort_indices()
        counts.append(acc)
    return counts


def elementwise_pole(adjacency) -> float:
    """Smallest attenuation factor at which the node-level system has an
    elementwise pole: ``1 / sqrt(max w_ij * w_ji)`` over the reciprocated
    pairs, infinite when no pair is reciprocated."""
    a = as_csr(adjacency)
    return _pole(hadamard(a, a.T))


def _pole(mutual: sp.csr_array) -> float:
    return 1.0 / math.sqrt(float(mutual.data.max())) if mutual.nnz else math.inf


def build_node_system(adjacency, t: float) -> sp.csr_array:
    """The sparse node-level system matrix N(t) = I + D(t) - A(t), whose
    inverse generates the walk counts.

    One elementwise map g = t^2 mu / (1 - t^2 mu) of the symmetric matrix
    mu = A o A^T of reciprocated weight products w_ij * w_ji gives both
    parts.  The round-trip correction D(t) holds the row sums of g: the
    paper's f_-(x) f_+(x) = x / (1 - x) * x / (1 + x) equals
    x^2 / (1 - x^2) at x = t sqrt(mu).  A(t) = t (A + A o g) is t A divided
    entrywise by 1 - t^2 mu.  Requires ``0 <= t`` below the elementwise
    pole; beyond it the diagonal correction series diverges and the
    offending pair is reported.
    """
    a = _validate_adjacency(adjacency)
    n = a.shape[0]
    mutual = hadamard(a, a.T)
    where = ""
    if mutual.nnz:
        coo = mutual.tocoo()
        peak = int(np.argmax(coo.data))
        where = (", which ends at the elementwise pole of the reciprocated pair "
                 f"({coo.row[peak]}, {coo.col[peak]})")
    check_t(t, _pole(mutual), where)

    # g vanishes at 0, so it stays on the reciprocated pattern
    g = elementwise_map(mutual, lambda x: (t * t * x) / (1.0 - t * t * x))
    off = sp.csr_array(t * a + t * hadamard(a, g))
    matrix = sp.csr_array(identity(n) + diag_matrix(np.asarray(g.sum(axis=1)).ravel()) - off)
    matrix.eliminate_zeros()
    matrix.sort_indices()
    return matrix


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
