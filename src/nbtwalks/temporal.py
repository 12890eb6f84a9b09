"""Time-evolving graphs: the global edge-level transition matrix under the
four backtracking regimes, temporal walk counts, series-weighted
communicability, and the classical product-of-resolvents Katz measure.

A temporal input is either a single file of ``time src dst [weight]``
records, split into snapshots by the distinct sorted time values, or a
manifest file listing one edge-list path per snapshot in order.  All
snapshots share one node universe (the union of node IDs seen anywhere).
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
import scipy.sparse as sp

from .edge_level import CoefficientSeries, apply_shifted_series, project_to_nodes
from .errors import NumericalError, ValidationError
from .graph import (
    WeightedGraph,
    _code_labels,
    _continuations,
    _graph_from_codes,
    _read_columns,
    adjacency,
)
from .linalg import check_t, diag_matrix, identity, matmul, range_end, solve_linear, spectral_radius

__all__ = [
    "BacktrackRegime",
    "TemporalGraph",
    "GlobalDecomposition",
    "build_global_transition",
    "forbid_all_transition_fast",
    "temporal_walk_counts",
    "temporal_f_centrality",
    "classical_temporal_katz",
    "parse_temporal_edge_list",
    "load_temporal_edge_list",
    "load_temporal_manifest",
]


class BacktrackRegime(enum.Enum):
    """Which length-two reversals are forbidden along a temporal walk."""

    ALLOW_ALL = "allow-all"
    FORBID_SPACE = "forbid-space"   # no reversal within one snapshot
    FORBID_TIME = "forbid-time"     # no reversal across snapshots
    FORBID_ALL = "forbid-all"

    @property
    def forbids_space(self) -> bool:
        return self in (BacktrackRegime.FORBID_SPACE, BacktrackRegime.FORBID_ALL)

    @property
    def forbids_time(self) -> bool:
        return self in (BacktrackRegime.FORBID_TIME, BacktrackRegime.FORBID_ALL)


@dataclass
class TemporalGraph:
    """Ordered snapshot sequence over one shared node set."""

    snapshots: list[WeightedGraph]
    timestamps: list[float]

    def __post_init__(self):
        if len(self.snapshots) != len(self.timestamps):
            raise ValidationError("one timestamp per snapshot required")
        if not self.snapshots:
            raise ValidationError("a temporal graph needs at least one snapshot")
        labels = self.snapshots[0].node_labels
        for g in self.snapshots[1:]:
            if g.node_labels is not labels and g.node_labels != labels:
                raise ValidationError("all snapshots must share one node set")
        ts = list(self.timestamps)
        if any(b < a for a, b in zip(ts, ts[1:])):
            raise ValidationError("timestamps must be non-decreasing")

    @property
    def n(self) -> int:
        return self.snapshots[0].n

    @property
    def node_labels(self) -> list[str]:
        return self.snapshots[0].node_labels

    @cached_property
    def max_adjacency_radius(self) -> float:
        """Largest snapshot adjacency radius, the classical measure's bound."""
        return _max_radius(sp.block_diag([adjacency(g) for g in self.snapshots], format="csr"),
                           self.n * np.arange(len(self.snapshots) + 1))


@dataclass
class GlobalDecomposition:
    """Stacked edge-level matrices of a temporal graph for one regime.

    Global edge indices concatenate the per-snapshot canonical edge orders;
    ``offsets[tau]`` is where snapshot tau's block starts, and ``src``,
    ``dst`` and ``sqrt_weights`` hold each global edge's source node, target
    node and square-rooted weight.  ``M`` is the block upper-triangular
    transition matrix in half-power form: entry (e, f) equals
    ``sqrt(w_e) * sqrt(w_f)`` whenever edge f may follow edge e under the
    regime, so ``diag(sqrt_weights) @ M**k @ diag(sqrt_weights)`` counts
    weighted walks; it is assembled on first access and kept.  ``blocks``,
    its block diagonal, is built with the decomposition: the line graph of
    the snapshots' disjoint union, V when the regime forbids backtracking in
    space and the half-walk matrix otherwise.  Both come from
    ``graph._continuations``, the builder of the static line graph, with the
    regime's two reversal flags.  The radius and the resolvent work on
    ``blocks`` and never assemble ``M``.
    """

    temporal: TemporalGraph
    regime: BacktrackRegime
    offsets: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    sqrt_weights: np.ndarray
    blocks: sp.csr_array

    @cached_property
    def M(self) -> sp.csr_array:
        return _continuations(self.src, self.dst, self.offsets, self.n, self.sqrt_weights,
                              within=self.regime.forbids_space, across=self.regime.forbids_time)

    @property
    def m_total(self) -> int:
        return int(self.offsets[-1])

    @property
    def n(self) -> int:
        return self.temporal.n

    def edge_labels(self) -> list[str]:
        labels = self.temporal.node_labels
        snapshot = np.repeat(np.arange(self.offsets.size - 1), np.diff(self.offsets))
        return [f"{tau}:{labels[s]}->{labels[d]}" for tau, s, d in
                zip(snapshot.tolist(), self.src.tolist(), self.dst.tolist())]

    @cached_property
    def transition_radius(self) -> float:
        """Spectral radius of ``M``: the radius of ``blocks``, the largest
        over M's diagonal snapshot blocks, which is exact because walks
        cannot go back in time, so ``M`` is block upper-triangular.  Under
        allow-all and forbid-time a block is the half-walk matrix ``Z^1/2 R
        L^T Z^1/2``, in the paper's incidence notation, with the nonzero
        spectrum of ``L^T Z R``, the snapshot's adjacency matrix, so the
        radius is ``temporal.max_adjacency_radius``."""
        if not self.regime.forbids_space:
            return self.temporal.max_adjacency_radius
        return _max_radius(self.blocks, self.offsets)

    @cached_property
    def block_radius_bound(self) -> float:
        """Largest radius over the full-weight snapshot blocks, B or W:
        ``blocks``' pattern scaled by the weights, not their square roots."""
        weights = np.concatenate([g.weight for g in self.temporal.snapshots])
        full = _continuations(self.src, self.dst, self.offsets, self.n, weights, diagonal=True,
                              within=self.regime.forbids_space, across=self.regime.forbids_time)
        return _max_radius(full, self.offsets)


def _max_radius(matrix: sp.csr_array, starts: np.ndarray) -> float:
    """Spectral radius of a block-diagonal matrix whose snapshot blocks start
    at rows ``starts``, by one ``spectral_radius`` call.  A
    :class:`NumericalError` names the snapshot whose block failed and the
    node in that block's own numbering."""
    try:
        return spectral_radius(matrix)
    except NumericalError as exc:
        tau = int(np.searchsorted(starts, exc.node, side="right")) - 1
        node = exc.node - int(starts[tau])
        message = str(exc).replace(f"starting at node {exc.node} ", f"starting at node {node} ")
        raise NumericalError(f"snapshot {tau}: {message}", estimate=exc.estimate,
                             node=node) from exc


def build_global_transition(tg: TemporalGraph, regime: BacktrackRegime) -> GlobalDecomposition:
    """Stack the snapshots' edge arrays for one regime and build ``blocks``,
    the block diagonal of the global transition matrix ``M``; ``M`` itself
    is assembled on first access."""
    regime = BacktrackRegime(regime)
    offsets = np.cumsum([0] + [g.m for g in tg.snapshots], dtype=np.int64)
    src = np.concatenate([g.src for g in tg.snapshots])
    dst = np.concatenate([g.dst for g in tg.snapshots])
    sqrt_weights = np.sqrt(np.concatenate([g.weight for g in tg.snapshots]))
    return GlobalDecomposition(
        temporal=tg, regime=regime, offsets=offsets, src=src, dst=dst, sqrt_weights=sqrt_weights,
        blocks=_continuations(src, dst, offsets, tg.n, sqrt_weights, within=regime.forbids_space,
                              across=regime.forbids_time, diagonal=True),
    )


def forbid_all_transition_fast(tg: TemporalGraph) -> sp.csr_array:
    """Fully-forbidden transition matrix by the two-step global construction.

    One incidence product finds all edge continuations, one Hadamard product
    flags every reversal pair, and the square-rooted weights are applied by
    diagonal scaling; entries below the block diagonal are then dropped.
    Identical, entry for entry, to ``build_global_transition(tg, FORBID_ALL).M``.
    """
    snapshots = tg.snapshots
    src = np.concatenate([g.src for g in snapshots])
    dst = np.concatenate([g.dst for g in snapshots])
    m_total = src.size
    if m_total == 0:
        return sp.csr_array((0, 0), dtype=np.float64)
    edges, ones = np.arange(m_total), np.ones(m_total)
    L = sp.csr_array((ones, (edges, src)), shape=(m_total, tg.n))
    R = sp.csr_array((ones, (edges, dst)), shape=(m_total, tg.n))

    chain = matmul(R, L.T)
    # subtracting the masked copy removes exactly the reversal entries
    pruned = sp.csr_array(chain - chain.multiply(matmul(L, R.T) != 0))
    pruned.eliminate_zeros()
    sqrt_z = diag_matrix(np.sqrt(np.concatenate([g.weight for g in snapshots])))
    hat = matmul(matmul(sqrt_z, pruned), sqrt_z)

    block_of = np.repeat(np.arange(len(snapshots)), [g.m for g in snapshots])
    coo = hat.tocoo()
    keep = block_of[coo.row] <= block_of[coo.col]
    out = sp.csr_array(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=(m_total, m_total)
    )
    out.sort_indices()
    return out


def temporal_walk_counts(gd: GlobalDecomposition, kmax: int) -> list[sp.csr_array]:
    """Weighted counts of permitted temporal walks between ordered pairs of
    global edges: entry k, for k = 0..kmax, counts the walks of length k+1.
    One pass, one product with ``M`` per length."""
    if kmax < 0:
        raise ValidationError(f"kmax must be nonnegative, got {kmax}")
    acc = sqrt_z = diag_matrix(gd.sqrt_weights)
    out = [matmul(acc, sqrt_z)]
    for _ in range(kmax):
        acc = matmul(acc, gd.M)
        out.append(matmul(acc, sqrt_z))
    return out


def temporal_f_centrality(
    gd: GlobalDecomposition,
    series: CoefficientSeries,
    t: float,
    tol: float = 1e-10,
    *,
    rho_m: float | None = None,
) -> np.ndarray:
    """Series-weighted temporal communicability of each node.

    Gated on the spectral radius of the transition matrix, ``rho_m`` when
    given and ``gd.transition_radius`` otherwise.  The resolvent is solved
    one snapshot at a time (see ``_back_substitute``); other series act on
    the assembled ``M``.
    """
    if rho_m is None:
        rho_m = gd.transition_radius
    if series.kind == "resolvent":
        check_t(t, range_end(rho_m, series.radius), " for the series to converge")
        return 1.0 + t * _back_substitute(gd, t, tol)
    # The shifted series acts on the transition matrix (sum_k c_{k+1} t^k M^k,
    # matching the walk-length expansion); applying the shift to the
    # projection instead would not reproduce the length-(k+1) walk counts.
    y = apply_shifted_series(series, gd.M, t, gd.sqrt_weights, tol, rho=rho_m)
    return series.c0 * np.ones(gd.n) + t * project_to_nodes(gd.src, gd.sqrt_weights, y, gd.n)


# Correction solves against the residual after a block's first solve, before
# the block counts as failed.
CORRECTION_SOLVES = 3


def _back_substitute(gd: GlobalDecomposition, t: float, tol: float) -> np.ndarray:
    """``L^T Z^1/2 y`` for the solution y of ``(I - tM) y = Z^1/2 R 1``, with
    the paper's incidence matrices L and R and weight matrix Z stacked over
    the snapshots (``Z^1/2 R 1 = gd.sqrt_weights``).

    M is block upper-triangular, so the system is solved from the last
    snapshot to the first without assembling M.  Row block tau reads
    ``(I - t D_tau) y_tau = b_tau`` with D_tau the diagonal block, a CSR
    slice of ``gd.blocks``, and
    ``b_tau = sqrt_w * (1 + t (s[dst] - r[(dst, src)]))``: ``s`` sums
    ``sqrt_w * y`` over the later edges leaving each node, and ``r`` the
    same sums per ordered node pair, subtracted only when the regime forbids
    backtracking in time (the reversal of edge (i, j) is (j, i)).  After all
    snapshots, ``s`` is the projection ``L^T Z^1/2 y`` itself.  Scores grow
    with every snapshot; the first right-hand side, solution or sum that is
    not finite raises :class:`NumericalError` (``_in_range``).
    """
    n = gd.n
    s = np.zeros(n)
    if gd.regime.forbids_time:
        pair_keys = np.unique(gd.src * n + gd.dst)
        r = np.zeros(pair_keys.size)
    indptr, indices, data = gd.blocks.indptr, gd.blocks.indices, gd.blocks.data
    # an overflow is reported by _in_range, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for tau in reversed(range(gd.offsets.size - 1)):
            lo, hi = int(gd.offsets[tau]), int(gd.offsets[tau + 1])
            if lo == hi:
                continue
            src, dst, sqrt_w = gd.src[lo:hi], gd.dst[lo:hi], gd.sqrt_weights[lo:hi]
            first, last = indptr[lo], indptr[hi]
            block = sp.csr_array((data[first:last], indices[first:last] - lo,
                                  indptr[lo:hi + 1] - first), shape=(hi - lo, hi - lo))
            later = s[dst]
            if gd.regime.forbids_time:
                reverse = dst * n + src
                at = np.minimum(np.searchsorted(pair_keys, reverse), pair_keys.size - 1)
                later = later - np.where(pair_keys[at] == reverse, r[at], 0.0)
            b = _in_range(sqrt_w * (1.0 + t * later), tau)
            y = _certified_block_solve(block, t, b, tol, tau)
            z = sqrt_w * y
            s += np.bincount(src, weights=z, minlength=n)
            if gd.regime.forbids_time:
                r[np.searchsorted(pair_keys, src * n + dst)] += z
        return _in_range(s, 0)


def _in_range(x: np.ndarray, tau: int) -> np.ndarray:
    """``x``, when every entry is finite.  Otherwise the scores of the walks
    from snapshot tau and the snapshots before it pass the float64 range,
    and :class:`NumericalError` says so."""
    if not np.isfinite(x).all():
        raise NumericalError(f"temporal scores exceed the float64 range from snapshot {tau} on")
    return x


def _certified_block_solve(block, t: float, b: np.ndarray, tol: float, tau: int,
                           rejected: NumericalError | None = None) -> np.ndarray:
    """Solve ``(I - t D) y = b`` for one snapshot with a componentwise
    (Oettli-Prager) backward error ``max_i |b + tDy - y|_i / (|b| + |y| +
    tD|y|)_i`` of at most tol.

    D and b are nonnegative, so on block tau's rows this is the
    componentwise backward error of the whole system ``(I - tM) y = w``.
    A first solve that misses it gets up to ``CORRECTION_SOLVES`` correction
    solves against its residual; then the block fails with
    :class:`NumericalError` naming the snapshot and the value reached, with
    the block's best solution as ``estimate``.  A solution, or a scale of
    the backward error, past the float64 range fails as ``_in_range`` does.
    ``rejected``, the error of a ``solve_linear`` call on this system and b
    that the caller made already, stands in for the first solve.
    """
    system = identity(b.size) - t * block

    def estimate(exc, size):   # the componentwise test below decides
        return np.zeros(size) if exc.estimate is None else exc.estimate

    def solve(rhs):
        try:
            return solve_linear(system, rhs, tol)
        except NumericalError as exc:
            return estimate(exc, rhs.size)

    def backward_error(y):
        # every weight is positive, so b > 0 and no scale entry is zero
        residual = b + t * (block @ y) - y
        scale = _in_range(b + np.abs(y) + t * (block @ np.abs(y)), tau)
        return float(np.max(np.abs(residual) / scale)), residual

    y = _in_range(solve(b) if rejected is None else estimate(rejected, b.size), tau)
    best, best_error = y, math.inf
    for attempt in range(CORRECTION_SOLVES + 1):
        error, residual = backward_error(y)
        if error < best_error:
            best, best_error = y, error
        if error <= tol:
            return y
        if attempt < CORRECTION_SOLVES:
            y = y + solve(residual)
    raise NumericalError(
        f"snapshot {tau}: componentwise backward error {best_error:.3e} of the resolvent "
        f"solve exceeds tol {tol:.1e} after {CORRECTION_SOLVES} correction solves",
        estimate=best,
    )


def classical_temporal_katz(tg: TemporalGraph, t: float, tol: float = 1e-10) -> np.ndarray:
    """Backtracking-permitted temporal Katz: the ordered product of snapshot
    resolvents applied to the all-ones vector, right to left, one sparse
    solve per snapshot.  A solve that misses ``solve_linear``'s normwise
    certificate may still meet the componentwise one of
    ``_certified_block_solve``, which starts from the rejected solution.
    The first solution that is not finite raises :class:`NumericalError`
    (``_in_range``)."""
    check_t(t, range_end(tg.max_adjacency_radius), " for the classical temporal measure")
    x = np.ones(tg.n)
    eye = identity(tg.n)
    # an overflow is reported by _in_range, not as a warning
    with np.errstate(over="ignore"):
        for tau in reversed(range(len(tg.snapshots))):
            a = adjacency(tg.snapshots[tau])
            try:
                y = solve_linear(eye - t * a, x, tol)
            except NumericalError as exc:   # A and x are nonnegative, as the resolvent's are
                y = _certified_block_solve(a, t, x, tol, tau, rejected=exc)
            x = _in_range(y, tau)
    return x


def parse_temporal_edge_list(
    source,
    *,
    merge: str = "reject",
    drop_loops: bool = False,
) -> TemporalGraph:
    """Parse ``time src dst [weight]`` records into snapshots by distinct
    sorted time values; each snapshot keeps its records in file order."""
    src, dst, weight, stamp = _read_columns(source, timed=True)
    if not src:
        raise ValidationError("no temporal records found")
    _, group = np.unique(stamp, return_inverse=True)
    order = np.argsort(group, kind="stable")
    slices = np.split(order, np.flatnonzero(np.diff(group[order])) + 1)
    # each snapshot's stamp is its first record's, as read
    return _temporal_graph(src, dst, weight, slices, stamp[[s[0] for s in slices]].tolist(),
                           merge=merge, drop_loops=drop_loops)


def load_temporal_edge_list(path, **options) -> TemporalGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_temporal_edge_list(handle, **options)


def load_temporal_manifest(
    path,
    *,
    merge: str = "reject",
    drop_loops: bool = False,
) -> TemporalGraph:
    """Build a temporal graph from a manifest listing per-snapshot edge-list
    files in order (paths resolved relative to the manifest)."""
    base = os.path.dirname(os.path.abspath(path))
    with open(path, "r", encoding="utf-8") as handle:
        entries = [e for e in (line.split("#", 1)[0].strip() for line in handle) if e]
    if not entries:
        raise ValidationError("empty temporal manifest")

    per_file = []
    for entry in entries:
        fname = entry if os.path.isabs(entry) else os.path.join(base, entry)
        with open(fname, "r", encoding="utf-8") as handle:
            per_file.append(_read_columns(handle, name=entry))
    sizes = [len(columns[0]) for columns in per_file]
    return _temporal_graph(
        list(chain.from_iterable(c[0] for c in per_file)),
        list(chain.from_iterable(c[1] for c in per_file)),
        np.concatenate([c[2] for c in per_file]),
        np.split(np.arange(sum(sizes)), np.cumsum(sizes)[:-1]),
        [float(i) for i in range(len(per_file))],
        merge=merge, drop_loops=drop_loops,
    )


def _temporal_graph(src, dst, weight, slices, timestamps, *, merge, drop_loops) -> TemporalGraph:
    """One snapshot per index array of ``slices`` into the records given by
    the label columns ``src`` and ``dst`` and by ``weight``, all over the
    node set of every record, in input order."""
    labels, src_codes, dst_codes = _code_labels(src, dst)
    snapshots = [
        _graph_from_codes(labels, src_codes[idx], dst_codes[idx], weight[idx],
                          lambda i, idx=idx: (src[idx[i]], dst[idx[i]]),
                          merge=merge, drop_loops=drop_loops)
        for idx in slices
    ]
    return TemporalGraph(snapshots=snapshots, timestamps=timestamps)
