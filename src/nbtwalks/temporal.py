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

import numpy as np
import scipy.sparse as sp

from .edge_level import CoefficientSeries, apply_shifted_series
from .errors import NumericalError, ValidationError
from .graph import (
    LineGraphDecomposition,
    WeightedGraph,
    _chain_pattern,
    _node_labels,
    _on_chain,
    _read_records,
    adjacency,
    graph_from_records,
    line_graph,
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
    "permitted_t_range",
    "parse_temporal_edge_list",
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
            if g.node_labels != labels:
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
        return _max_radius(adjacency(g) for g in self.snapshots)


@dataclass
class GlobalDecomposition:
    """Stacked edge-level matrices of a temporal graph for one regime.

    Global edge indices concatenate the per-snapshot canonical edge orders;
    ``offsets[tau]`` is where snapshot tau's block starts.  ``M`` is the
    block upper-triangular transition matrix in half-power form: entry
    (e, f) equals ``sqrt(w_e) * sqrt(w_f)`` whenever edge f may follow edge e
    under the regime, so ``sqrt_Z @ M**k @ sqrt_Z`` counts weighted walks.
    Every block scales a chain pattern of ``graph._chain_pattern``, pruned
    of reversals (``dst[f] == src[e]``, by node index) within a snapshot
    when the regime forbids backtracking in space and across snapshots when
    it forbids backtracking in time.  ``M`` is assembled on first access and
    kept; the radius and the resolvent work on the snapshot blocks and never
    assemble it.
    """

    temporal: TemporalGraph
    regime: BacktrackRegime
    per_snapshot: list[LineGraphDecomposition]
    offsets: np.ndarray
    L: sp.csr_array
    R: sp.csr_array
    sqrt_weights: np.ndarray
    sqrt_Z: sp.csr_array

    @cached_property
    def M(self) -> sp.csr_array:
        return _assemble_transition(self.per_snapshot, self.regime)

    @property
    def m_total(self) -> int:
        return int(self.offsets[-1])

    @property
    def n(self) -> int:
        return self.temporal.n

    def edge_labels(self) -> list[str]:
        labels = []
        for tau, d in enumerate(self.per_snapshot):
            node = d.graph.node_labels
            labels.extend(f"{tau}:{node[s]}->{node[d_]}" for s, d_ in d.edge_order)
        return labels

    @cached_property
    def transition_radius(self) -> float:
        """Spectral radius of ``M``: the largest radius over its diagonal
        snapshot blocks, which is exact because walks cannot go back in time,
        so ``M`` is block upper-triangular.  Under allow-all and forbid-time
        a block is the half-walk matrix ``sqrt_Z R . L^T sqrt_Z``, with the
        nonzero spectrum of ``L^T Z R``, the snapshot's adjacency matrix, so
        the radius is ``temporal.max_adjacency_radius``."""
        if not self.regime.forbids_space:
            return self.temporal.max_adjacency_radius
        return _max_radius(_diagonal_block(d, self.regime) for d in self.per_snapshot)

    @cached_property
    def block_radius_bound(self) -> float:
        """Largest radius over the full-weight snapshot blocks, B or W."""
        return _max_radius(d.B if self.regime.forbids_space else d.W for d in self.per_snapshot)


def _max_radius(matrices) -> float:
    """Largest spectral radius over square matrices; 0 for none."""
    return max((spectral_radius(m) for m in matrices), default=0.0)


def _diagonal_block(d: LineGraphDecomposition, regime: BacktrackRegime) -> sp.csr_array:
    """Snapshot block of ``M``: one step within the snapshot, backtrack-pruned
    when the regime forbids backtracking in space."""
    return d.V if regime.forbids_space else d.half_walk_matrix()


def _stack(per: list[LineGraphDecomposition], tg: TemporalGraph):
    offsets = np.concatenate([[0], np.cumsum([d.m for d in per])]).astype(np.int64)
    n = tg.n
    L = sp.csr_array(sp.vstack([d.L for d in per], format="csr"), shape=(offsets[-1], n))
    R = sp.csr_array(sp.vstack([d.R for d in per], format="csr"), shape=(offsets[-1], n))
    sqrt_weights = (
        np.concatenate([d.sqrt_weights for d in per]) if offsets[-1] else np.zeros(0)
    )
    return offsets, L, R, sqrt_weights


def build_global_transition(tg: TemporalGraph, regime: BacktrackRegime) -> GlobalDecomposition:
    """Stack the snapshot line graphs of a temporal graph for one regime; the
    global transition matrix ``M`` is assembled on first access."""
    regime = BacktrackRegime(regime)
    per = [line_graph(g) for g in tg.snapshots]
    offsets, L, R, sqrt_weights = _stack(per, tg)
    return GlobalDecomposition(
        temporal=tg,
        regime=regime,
        per_snapshot=per,
        offsets=offsets,
        L=L,
        R=R,
        sqrt_weights=sqrt_weights,
        sqrt_Z=diag_matrix(sqrt_weights),
    )


def _assemble_transition(per: list[LineGraphDecomposition], regime: BacktrackRegime) -> sp.csr_array:
    """The global temporal transition matrix of one regime.

    Diagonal blocks step within a snapshot (backtrack-pruned when the regime
    forbids backtracking in space); upper blocks step from an earlier to a
    later snapshot on the chain pattern between the two (pruned of
    reversals when the regime forbids backtracking in time).  Blocks below
    the diagonal are zero: walks may not move back in time.
    """
    count = len(per)
    if not sum(d.m for d in per):
        return sp.csr_array((0, 0), dtype=np.float64)
    blocks: list[list] = [[None] * count for _ in range(count)]
    for t1, d1 in enumerate(per):
        blocks[t1][t1] = _diagonal_block(d1, regime)
        for t2 in range(t1 + 1, count):
            d2 = per[t2]
            chain = _chain_pattern(d1.graph, d2.graph, prune=regime.forbids_time)
            blocks[t1][t2] = _on_chain(chain, d1.sqrt_weights, d2.sqrt_weights)
    M = sp.csr_array(sp.block_array(blocks, format="csr"))
    M.sort_indices()
    return M


def forbid_all_transition_fast(tg: TemporalGraph) -> sp.csr_array:
    """Fully-forbidden transition matrix by the two-step global construction.

    One incidence product finds all edge continuations, one Hadamard product
    flags every reversal pair, and the square-rooted weights are applied by
    diagonal scaling; entries below the block diagonal are then dropped.
    Identical, entry for entry, to ``build_global_transition(tg, FORBID_ALL).M``.
    """
    per = [line_graph(g) for g in tg.snapshots]
    offsets, L, R, sqrt_weights = _stack(per, tg)
    m_total = int(offsets[-1])
    if m_total == 0:
        return sp.csr_array((0, 0), dtype=np.float64)

    chain = matmul(R, L.T)
    # subtracting the masked copy removes exactly the reversal entries
    pruned = sp.csr_array(chain - chain.multiply(matmul(L, R.T) != 0))
    pruned.eliminate_zeros()
    sqrt_z = diag_matrix(sqrt_weights)
    hat = matmul(matmul(sqrt_z, pruned), sqrt_z)

    block_of = np.repeat(np.arange(len(per)), [d.m for d in per])
    coo = hat.tocoo()
    keep = block_of[coo.row] <= block_of[coo.col]
    out = sp.csr_array(
        (coo.data[keep], (coo.row[keep], coo.col[keep])), shape=(m_total, m_total)
    )
    out.sort_indices()
    return out


def temporal_walk_counts(gd: GlobalDecomposition, k: int) -> sp.csr_array:
    """Weighted counts of permitted temporal walks of length k+1 between
    ordered pairs of global edges."""
    if k < 0:
        raise ValidationError(f"k must be nonnegative, got {k}")
    acc = gd.sqrt_Z
    for _ in range(k):
        acc = matmul(acc, gd.M)
    return matmul(acc, gd.sqrt_Z)


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
    w = gd.sqrt_Z @ (gd.R @ np.ones(gd.n))
    y = apply_shifted_series(series, gd.M, t, w, tol, rho=rho_m)
    return series.c0 * np.ones(gd.n) + t * (gd.L.T @ (gd.sqrt_Z @ y))


# Correction solves against the residual after a block's first solve, before
# the block counts as failed.
CORRECTION_SOLVES = 3


def _back_substitute(gd: GlobalDecomposition, t: float, tol: float) -> np.ndarray:
    """``L^T sqrt_Z y`` for the solution y of ``(I - tM) y = sqrt_Z R 1``.

    M is block upper-triangular, so the system is solved from the last
    snapshot to the first without assembling M.  Row block tau reads
    ``(I - t D_tau) y_tau = b_tau`` with D_tau the diagonal block and
    ``b_tau = sqrt_w * (1 + t (s[dst] - r[(dst, src)]))``: ``s`` sums
    ``sqrt_w * y`` over the later edges leaving each node, and ``r`` the
    same sums per ordered node pair, subtracted only when the regime forbids
    backtracking in time (the reversal of edge (i, j) is (j, i)).  After all
    snapshots, ``s`` is the projection ``L^T sqrt_Z y`` itself.
    """
    n = gd.n
    s = np.zeros(n)
    if gd.regime.forbids_time:
        pair_keys = np.unique(np.concatenate([d.graph.src * n + d.graph.dst
                                              for d in gd.per_snapshot]))
        r = np.zeros(pair_keys.size)
    for tau in reversed(range(len(gd.per_snapshot))):
        d = gd.per_snapshot[tau]
        if d.m == 0:
            continue
        src, dst = d.graph.src, d.graph.dst
        later = s[dst]
        if gd.regime.forbids_time:
            reverse = dst * n + src
            at = np.minimum(np.searchsorted(pair_keys, reverse), pair_keys.size - 1)
            later = later - np.where(pair_keys[at] == reverse, r[at], 0.0)
        b = d.sqrt_weights * (1.0 + t * later)
        y = _certified_block_solve(_diagonal_block(d, gd.regime), t, b, tol, tau)
        z = d.sqrt_weights * y
        s += np.bincount(src, weights=z, minlength=n)
        if gd.regime.forbids_time:
            r[np.searchsorted(pair_keys, src * n + dst)] += z
    return s


def _certified_block_solve(block, t: float, b: np.ndarray, tol: float, tau: int) -> np.ndarray:
    """Solve ``(I - t D) y = b`` for one snapshot with a componentwise
    (Oettli-Prager) backward error ``max_i |b + tDy - y|_i / (|b| + |y| +
    tD|y|)_i`` of at most tol.

    D and b are nonnegative, so on block tau's rows this is the
    componentwise backward error of the whole system ``(I - tM) y = w``.
    A first solve that misses it gets up to ``CORRECTION_SOLVES`` correction
    solves against its residual; then the block fails with
    :class:`NumericalError` naming the snapshot and the value reached, with
    the block's best solution as ``estimate``.
    """
    system = identity(b.size) - t * block

    def solve(rhs):
        try:
            return solve_linear(system, rhs, tol)
        except NumericalError as exc:   # the componentwise test below decides
            return np.zeros(rhs.size) if exc.estimate is None else exc.estimate

    def backward_error(y):
        # every weight is positive, so b > 0 and no scale entry is zero
        residual = b + t * (block @ y) - y
        scale = b + np.abs(y) + t * (block @ np.abs(y))
        return float(np.max(np.abs(residual) / scale)), residual

    y = solve(b)
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
    ``_certified_block_solve``, which decides."""
    check_t(t, range_end(tg.max_adjacency_radius), " for the classical temporal measure")
    x = np.ones(tg.n)
    eye = identity(tg.n)
    for tau in reversed(range(len(tg.snapshots))):
        a = adjacency(tg.snapshots[tau])
        try:
            x = solve_linear(eye - t * a, x, tol)
        except NumericalError:   # A and x are nonnegative, as the resolvent's are
            x = _certified_block_solve(a, t, x, tol, tau)
    return x


def permitted_t_range(
    tg: TemporalGraph,
    regime: BacktrackRegime | None = None,
    *,
    classical: bool = False,
    gd: GlobalDecomposition | None = None,
) -> tuple[float, float]:
    """Half-open interval [0, hi) of admissible attenuation factors.

    ``classical=True`` bounds by the largest snapshot adjacency radius;
    otherwise the bound is the reciprocal radius of the regime's transition
    matrix (a prebuilt decomposition can be passed to avoid reassembly).
    """
    if classical:
        rho = tg.max_adjacency_radius
    else:
        if gd is None:
            if regime is None:
                raise ValidationError("a backtracking regime is required")
            gd = build_global_transition(tg, regime)
        rho = gd.transition_radius
    return (0.0, range_end(rho))


def parse_temporal_edge_list(
    source,
    *,
    merge: str = "reject",
    drop_loops: bool = False,
    sort_nodes: bool = False,
) -> TemporalGraph:
    """Parse ``time src dst [weight]`` records into snapshots by distinct
    sorted time values; each snapshot keeps its records in file order."""
    records, stamps = _read_records(source, timed=True)
    if not records:
        raise ValidationError("no temporal records found")
    by_stamp: dict[float, list] = {}
    for stamp, record in zip(stamps, records):
        by_stamp.setdefault(stamp, []).append(record)
    times = sorted(by_stamp)
    labels = _node_labels(records, sort_nodes)
    snapshots = [
        graph_from_records(by_stamp[t], node_labels=labels, merge=merge, drop_loops=drop_loops)
        for t in times
    ]
    return TemporalGraph(snapshots=snapshots, timestamps=times)


def load_temporal_edge_list(path, **options) -> TemporalGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_temporal_edge_list(handle, **options)


def load_temporal_manifest(
    path,
    *,
    merge: str = "reject",
    drop_loops: bool = False,
    sort_nodes: bool = False,
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
            per_file.append(_read_records(handle, name=entry)[0])
    labels = _node_labels([r for records in per_file for r in records], sort_nodes)
    snapshots = [
        graph_from_records(records, node_labels=labels, merge=merge, drop_loops=drop_loops)
        for records in per_file
    ]
    return TemporalGraph(snapshots=snapshots, timestamps=[float(i) for i in range(len(snapshots))])
