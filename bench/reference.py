"""Independent references, computed from the generated edge arrays with numpy
and scipy alone; nothing here imports nbtwalks.

Walk sums are taken on the weighted nonbacktracking edge matrix
``D[e, f] = w_e`` when edge f continues edge e without reversing it (and, on
a temporal graph, does not go back in time).  A nonbacktracking walk e_1 ...
e_k weighs w_{e_1} ... w_{e_k}, so the walks of length k from node i sum to
``(S D^{k-1} w)_i`` with S the source incidence.  Node scores follow from a
series f as ``x = 1 + t S f_shift(tD) w``: the Neumann sum of ``(I - tD)^{-1}``
for the resolvent and ``phi_1(tD) = sum_k (tD)^k / (k+1)!`` for the
exponential.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from inputs import EdgeArrays

NEUMANN_MAXITER = 100_000


def adjacency(g: EdgeArrays) -> sp.csr_array:
    return sp.csr_array((g.w, (g.src, g.dst)), shape=(g.n, g.n))


def nbt_edge_matrix(src, dst, w, n: int, tau=None) -> sp.csr_array:
    """``D[e, f] = w_e`` when f starts where e ends, f does not lead straight
    back to e's source, and (with ``tau``) f is not earlier than e."""
    m = src.size
    order = np.argsort(src, kind="stable")
    outdeg = np.bincount(src, minlength=n)
    start = np.concatenate([[0], np.cumsum(outdeg)])
    count = outdeg[dst]
    rows = np.repeat(np.arange(m), count)
    offset = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    cols = order[np.repeat(start[dst], count) + offset]
    keep = dst[cols] != src[rows]
    if tau is not None:
        keep &= tau[cols] >= tau[rows]
    rows, cols = rows[keep], cols[keep]
    return sp.csr_array((w[rows], (rows, cols)), shape=(m, m))


def neumann(matrix, rhs: np.ndarray) -> np.ndarray:
    """``sum_k matrix^k rhs`` for a nonnegative matrix of spectral radius
    below 1, summed until a term no longer changes the sum in double
    precision."""
    total = rhs.copy()
    term = rhs
    for _ in range(NEUMANN_MAXITER):
        term = matrix @ term
        total += term
        if np.max(term) <= 1e-17 * np.max(total):
            return total
    raise RuntimeError("Neumann reference did not converge")


def phi1(matrix, vector: np.ndarray) -> np.ndarray:
    """``phi_1(matrix) vector`` from the exponential of the augmented matrix
    [[matrix, vector], [0, 0]]."""
    k = matrix.shape[0]
    aug = sp.block_array([[sp.csr_array(matrix), sp.csr_array(vector.reshape(-1, 1))],
                          [None, sp.csr_array((1, 1))]], format="csr")
    unit = np.zeros(k + 1)
    unit[-1] = 1.0
    return spla.expm_multiply(aug, unit)[:k]


def radius(matrix) -> float:
    """Largest eigenvalue modulus: ARPACK with a fixed start vector, or a dense
    eigensolve when the matrix is too small for it."""
    k = matrix.shape[0]
    if k == 0 or matrix.nnz == 0:
        return 0.0
    if k <= 64:
        return float(np.max(np.abs(np.linalg.eigvals(matrix.toarray()))))
    values = spla.eigs(sp.csr_array(matrix, dtype=np.float64), k=1, which="LM",
                       v0=np.full(k, 1.0 / np.sqrt(k)), tol=1e-14,
                       return_eigenvectors=False)
    return float(np.max(np.abs(values)))


class EdgeReference:
    """Node scores from the edge matrix D of edges src -> dst with weights w:
    ``x = 1 + t S f_shift(tD) w``, cached by attenuation."""

    def __init__(self, n: int, src, dst, w, tau=None):
        self.n, self.src, self.w = n, src, w
        self.D = nbt_edge_matrix(src, dst, w, n, tau)
        self._cache: dict = {}

    def _cached(self, key, compute) -> np.ndarray:
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def resolvent(self, t: float) -> np.ndarray:
        """Nonbacktracking Katz: the resolvent series."""
        return self._cached(("resolvent", t), lambda: 1.0 + np.bincount(
            self.src, weights=neumann(t * self.D, t * self.w), minlength=self.n))

    def exponential(self, t: float) -> np.ndarray:
        return self._cached(("exponential", t), lambda: 1.0 + t * np.bincount(
            self.src, weights=phi1(t * self.D, self.w), minlength=self.n))


class StaticReference(EdgeReference):
    """Reference quantities of one static graph."""

    def __init__(self, g: EdgeArrays):
        super().__init__(g.n, g.src, g.dst, g.w)
        self.g = g
        self.A = adjacency(g)
        self.rho_a = radius(self.A)
        self.rho_v = radius(self.D)   # D is similar to the program's V

    def katz(self, t: float) -> np.ndarray:
        return self._cached(("katz", t), lambda: neumann(t * self.A, np.ones(self.n)))

    def walk_counts(self, kmax: int) -> list[tuple[sp.csr_array, sp.csr_array]]:
        """For lengths 1..kmax: (nonbacktracking walk sums, all walk sums).
        The second bounds the magnitude of the terms that cancel in any
        recurrence for the first."""
        g = self.g
        source = sp.csr_array((np.ones(g.m), (g.src, np.arange(g.m))), shape=(g.n, g.m))
        chain = sp.csr_array((g.w, (np.arange(g.m), g.dst)), shape=(g.m, g.n))  # D^{k-1} Z T
        power = self.A
        out = []
        for _ in range(kmax):
            out.append((sp.csr_array(source @ chain), power))
            chain = sp.csr_array(self.D @ chain)
            power = sp.csr_array(power @ self.A)
        return out


class TemporalReference(EdgeReference):
    """Reference quantities of one temporal graph under the forbid-all regime."""

    def __init__(self, n: int, snapshots: list[EdgeArrays]):
        super().__init__(n, *(np.concatenate([getattr(g, key) for g in snapshots])
                              for key in ("src", "dst", "w")),
                         tau=np.concatenate([np.full(g.m, k) for k, g in enumerate(snapshots)]))
        self.snapshots = snapshots
        blocks = [nbt_edge_matrix(g.src, g.dst, g.w, n) for g in snapshots]
        # M is block upper triangular, so its radius is the largest over the
        # diagonal blocks; each block is similar to the snapshot's D.
        self.rho_m = max(radius(b) for b in blocks)
        self.rho_a = max(radius(adjacency(g)) for g in snapshots)
        # full-weight pruned blocks B = Z P Z, as radius reports them
        self.rho_b = max(radius(b @ sp.diags_array(g.w)) for b, g in zip(blocks, snapshots))

    def classical_katz(self, t: float) -> np.ndarray:
        """The dense product of the snapshot resolvents, applied to ones."""
        def product():
            eye = np.eye(self.n)
            out = eye
            for g in self.snapshots:
                out = out @ np.linalg.inv(eye - t * adjacency(g).toarray())
            return out @ np.ones(self.n)
        return self._cached(("classical", t), product)


def kendall_tau_b(x, y) -> float:
    """Kendall tau-b by direct pair counting."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    concord = tie_x = tie_y = 0.0
    for lo in range(0, n, 256):
        dx = np.sign(x[lo:lo + 256, None] - x[None, :])
        dy = np.sign(y[lo:lo + 256, None] - y[None, :])
        concord += float(np.sum(dx * dy))
        tie_x += float(np.sum(dx == 0))
        tie_y += float(np.sum(dy == 0))
    pairs = n * (n - 1) / 2.0
    # each unordered pair was counted twice, each node once against itself
    tie_x = (tie_x - n) / 2.0
    tie_y = (tie_y - n) / 2.0
    return (concord / 2.0) / np.sqrt((pairs - tie_x) * (pairs - tie_y))
