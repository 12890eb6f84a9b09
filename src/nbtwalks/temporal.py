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
from typing import TYPE_CHECKING

import numpy as np

from .edge_level import CoefficientSeries, apply_shifted_series, project_to_nodes
from .errors import NumericalError, ValidationError
from .graph import WeightedGraph, _code_labels, _continuations, _merged_edges, _read_columns
from .linalg import (
    _CSR,
    _compact,
    _diagonal_block,
    _indptr,
    _keys,
    _lookup,
    _row_of,
    _scaled,
    _transpose,
    as_csr,
    check_t,
    identity_minus,
    matmul,
    range_end,
    solve_linear,
    spectral_radius,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

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


class TemporalGraph:
    """Ordered snapshot sequence over one shared node set, stored once as its
    stacked edges: the read-only arrays ``src``, ``dst`` and ``weight``, in
    which snapshot tau holds ``offsets[tau]:offsets[tau + 1]``, sorted by
    (src, dst), are the global edges of every temporal layer.  The
    constructor takes a list of :class:`WeightedGraph` snapshots over one
    node set and stacks it; ``snapshots`` gives them back as views over the
    stacked arrays, made on first access."""

    def __init__(self, snapshots, timestamps):
        if len(snapshots) != len(timestamps):
            raise ValidationError("one timestamp per snapshot required")
        if not snapshots:
            raise ValidationError("a temporal graph needs at least one snapshot")
        labels = snapshots[0].node_labels
        for g in snapshots[1:]:
            if g.node_labels is not labels and g.node_labels != labels:
                raise ValidationError("all snapshots must share one node set")
        self._assign(labels, timestamps, np.cumsum([0] + [g.m for g in snapshots], dtype=np.int64),
                     *(np.concatenate([getattr(g, key) for g in snapshots])
                       for key in ("src", "dst", "weight")))

    @classmethod
    def _stacked(cls, labels, timestamps, offsets, src, dst, weight) -> TemporalGraph:
        """A temporal graph from stacked edge arrays already validated and
        sorted by (snapshot, src, dst).  It takes the arrays without a copy
        and marks them read-only."""
        tg = cls.__new__(cls)
        tg._assign(labels, timestamps, offsets, src, dst, weight)
        return tg

    def _assign(self, labels, timestamps, offsets, src, dst, weight) -> None:
        timestamps = list(timestamps)
        if not all(map(math.isfinite, timestamps)) or any(
                b < a for a, b in zip(timestamps, timestamps[1:])):
            raise ValidationError("timestamps must be finite and non-decreasing")
        self.node_labels, self.timestamps = labels, timestamps
        self.offsets, self.src, self.dst, self.weight = offsets, src, dst, weight
        for a in (offsets, src, dst, weight):
            a.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.node_labels)

    @cached_property
    def snapshots(self) -> list[WeightedGraph]:
        """The snapshots as graphs whose arrays are views over the stacked
        ones."""
        bounds = self.offsets.tolist()
        return [WeightedGraph._canonical(self.node_labels, self.src[lo:hi], self.dst[lo:hi],
                                         self.weight[lo:hi])
                for lo, hi in zip(bounds[:-1], bounds[1:])]

    @cached_property
    def _stacked_adjacency(self) -> _CSR:
        """The snapshot adjacencies as one block-diagonal ``_CSR``, snapshot
        tau's nodes at tau * n.  The stacked arrays, sorted by (snapshot,
        src, dst), are its entries in CSR order already."""
        size = self.n * (self.offsets.size - 1)
        shift = self.n * _row_of(self.offsets)
        return _CSR((self.weight, self.dst + shift, _indptr(self.src + shift, size)),
                    shape=(size, size))

    @cached_property
    def max_adjacency_radius(self) -> float:
        """Largest snapshot adjacency radius, the classical measure's bound:
        that of the stacked adjacency."""
        return _max_radius(self._stacked_adjacency, self.n * np.arange(self.offsets.size))

    def _chain_matrix(self, x: np.ndarray, regime: BacktrackRegime, *,
                      diagonal: bool = False) -> _CSR:
        """``graph._continuations`` of the stacked edges under ``regime``."""
        return _continuations(self.src, self.dst, self.offsets, self.n, x, diagonal=diagonal,
                              within=regime.forbids_space, across=regime.forbids_time)


@dataclass
class GlobalDecomposition:
    """Stacked edge-level matrices of a temporal graph for one regime.

    Global edge indices are those of the temporal graph's stacked arrays,
    ``temporal.src``, ``temporal.dst`` and ``temporal.offsets``;
    ``sqrt_weights`` holds each global edge's square-rooted weight, and the
    regime's matrices are built from them.  ``M`` is the block upper-triangular
    transition matrix in half-power form: entry (e, f) equals
    ``sqrt(w_e) * sqrt(w_f)`` whenever edge f may follow edge e under the
    regime, so ``diag(sqrt_weights) @ M**k @ diag(sqrt_weights)`` counts
    weighted walks.  It is assembled on first use as a ``linalg._CSR``,
    ``_M``, which needs no scipy and serves the walk counts, the exponential
    and custom series and the oracle battery; ``M`` is the same arrays as a
    ``scipy.sparse.csr_array``, for callers that want scipy's.  ``blocks``,
    M's block diagonal, is built with the decomposition as a ``_CSR``: the
    line graph of the snapshots' disjoint union, V when the regime forbids
    backtracking in space and the half-walk matrix otherwise.  Both come
    from ``graph._continuations``, the builder of the static line graph,
    with the regime's two reversal flags.  The radius and the resolvent work
    on ``blocks`` and never assemble ``M``.
    """

    temporal: TemporalGraph
    regime: BacktrackRegime
    sqrt_weights: np.ndarray
    blocks: _CSR

    @cached_property
    def _M(self) -> _CSR:
        return self.temporal._chain_matrix(self.sqrt_weights, self.regime)

    @cached_property
    def M(self) -> sp.csr_array:
        return as_csr(self._M)

    @property
    def m_total(self) -> int:
        return int(self.temporal.offsets[-1])

    @property
    def n(self) -> int:
        return self.temporal.n

    def edge_labels(self) -> list[str]:
        tg = self.temporal
        labels = tg.node_labels
        snapshot = _row_of(tg.offsets)
        return [f"{tau}:{labels[s]}->{labels[d]}" for tau, s, d in
                zip(snapshot.tolist(), tg.src.tolist(), tg.dst.tolist())]

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
        return _max_radius(self.blocks, self.temporal.offsets)

    @cached_property
    def block_radius_bound(self) -> float:
        """Largest radius over the full-weight snapshot blocks, B or W:
        ``blocks``' pattern scaled by the weights, not their square roots.
        Unless a product of weights underflows, the pattern is ``blocks``'
        itself, and so are its strongly connected components, found once."""
        tg = self.temporal
        full = tg._chain_matrix(tg.weight, self.regime, diagonal=True)
        if (np.array_equal(full.indptr, self.blocks.indptr)
                and np.array_equal(full.indices, self.blocks.indices)):
            full._components = self.blocks._components
        return _max_radius(full, tg.offsets)


def _max_radius(matrix: _CSR, starts: np.ndarray) -> float:
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
    """Build ``blocks``, the block diagonal of the global transition matrix
    ``M``, for one regime from the temporal graph's stacked edge arrays;
    ``M`` itself is assembled on first access."""
    regime = BacktrackRegime(regime)
    sqrt_weights = np.sqrt(tg.weight)
    return GlobalDecomposition(
        temporal=tg, regime=regime, sqrt_weights=sqrt_weights,
        blocks=tg._chain_matrix(sqrt_weights, regime, diagonal=True))


def forbid_all_transition_fast(tg: TemporalGraph) -> sp.csr_array:
    """Fully-forbidden transition matrix by the two-step global construction.

    One incidence product finds all edge continuations, one Hadamard product
    flags every reversal pair, and the square-rooted weights are applied by
    diagonal scaling; entries below the block diagonal are then dropped.
    Identical, entry for entry, to ``build_global_transition(tg, FORBID_ALL).M``.
    """
    return as_csr(_forbid_all_transition_fast(tg))


def _forbid_all_transition_fast(tg: TemporalGraph) -> _CSR:
    """``forbid_all_transition_fast`` as a ``linalg._CSR``."""
    m_total = tg.src.size
    ones, one_each = np.ones(m_total), np.arange(m_total + 1)
    L = _CSR((ones, tg.src, one_each), shape=(m_total, tg.n))
    R = _CSR((ones, tg.dst, one_each), shape=(m_total, tg.n))

    chain = matmul(R, _transpose(L))
    # both are 0/1 matrices, so chain - chain o (L R^T) drops exactly the
    # entries where chain's pattern meets that of L R^T: the reversal pairs
    _, reversal = _lookup(_keys(matmul(L, _transpose(R))), _keys(chain))
    rows = chain._rows
    block_of = _row_of(tg.offsets)
    keep = ~reversal & (block_of[rows] <= block_of[chain.indices])
    rows, columns = rows[keep], chain.indices[keep]
    sqrt_w = np.sqrt(tg.weight)
    return _compact(chain, sqrt_w[rows] * sqrt_w[columns], columns, _indptr(rows, m_total),
                    (m_total, m_total))


def temporal_walk_counts(gd: GlobalDecomposition, kmax: int) -> list[sp.csr_array]:
    """Weighted counts of permitted temporal walks between ordered pairs of
    global edges: entry k, for k = 0..kmax, counts the walks of length k+1,
    ``Z^1/2 M^k Z^1/2``.  One pass, one product with ``M`` per length; each
    product with the diagonal ``Z^1/2`` is a scaling (``linalg._scaled``),
    bit for bit the sparse product."""
    return [as_csr(counts) for counts in _temporal_walk_counts(gd, kmax)]


def _temporal_walk_counts(gd: GlobalDecomposition, kmax: int) -> list[_CSR]:
    """``temporal_walk_counts`` as ``linalg._CSR`` matrices."""
    if kmax < 0:
        raise ValidationError(f"kmax must be nonnegative, got {kmax}")
    s = gd.sqrt_weights
    acc = _CSR((s, np.arange(s.size), np.arange(s.size + 1)), shape=(s.size, s.size))
    out = [_scaled(acc, columns=s)]
    for _ in range(kmax):
        acc = matmul(acc, gd._M)
        out.append(_scaled(acc, columns=s))
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
    y = apply_shifted_series(series, gd._M, t, gd.sqrt_weights, tol, rho=rho_m)
    return series.c0 * np.ones(gd.n) + t * project_to_nodes(gd.temporal.src, gd.sqrt_weights,
                                                            y, gd.n)


# Correction solves against the residual after a block's first solve, before
# the block counts as failed.
CORRECTION_SOLVES = 3


def _back_substitute(gd: GlobalDecomposition, t: float, tol: float) -> np.ndarray:
    """``L^T Z^1/2 y`` for the solution y of ``(I - tM) y = Z^1/2 R 1``, with
    the paper's incidence matrices L and R and weight matrix Z stacked over
    the snapshots (``Z^1/2 R 1 = gd.sqrt_weights``).

    M is block upper-triangular, so the system is solved from the last
    snapshot to the first without assembling M.  Row block tau reads
    ``(I - t D_tau) y_tau = b_tau`` with D_tau the diagonal block, a slice
    of ``gd.blocks``, and
    ``b_tau = sqrt_w * (1 + t * later)``: ``s`` sums ``sqrt_w * y`` over the
    later edges leaving each node, and ``r`` the same sums per ordered node
    pair.  ``later`` is ``s[dst]``, or, when the regime forbids backtracking
    in time, the sum of ``r`` over the target's pairs other than the
    reversal (the reversal of edge (i, j) is (j, i)), by ``_later_sums``.
    After all snapshots, ``s`` is the projection ``L^T Z^1/2 y`` itself.
    Scores grow with every snapshot; the first right-hand side, solution or
    sum that is not finite raises :class:`NumericalError` (``_in_range``).
    """
    tg, n = gd.temporal, gd.n
    s = np.zeros(n)
    if gd.regime.forbids_time:
        # a slot of r per node pair that is an edge or an edge's reversal, by
        # edge in own and rev; the slot of a reversal that is no edge stays 0.
        # Node i's pairs (i, j) hold the slots run[i]:run[i + 1].
        pairs, slots = np.unique(np.concatenate([tg.src * n + tg.dst, tg.dst * n + tg.src]),
                                 return_inverse=True)
        own, rev = np.split(slots, 2)
        r = np.zeros(pairs.size)
        run = np.searchsorted(pairs, np.arange(n + 1) * n)
    # an overflow is reported by _in_range, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for tau in reversed(range(tg.offsets.size - 1)):
            lo, hi = int(tg.offsets[tau]), int(tg.offsets[tau + 1])
            if lo == hi:
                continue
            src, dst, sqrt_w = tg.src[lo:hi], tg.dst[lo:hi], gd.sqrt_weights[lo:hi]
            block = _diagonal_block(gd.blocks, lo, hi)
            later = _later_sums(s, r, run, dst, rev[lo:hi]) if gd.regime.forbids_time else s[dst]
            b = _in_range(sqrt_w * (1.0 + t * later), tau)
            y = _certified_block_solve(block, t, b, tol, tau)
            z = sqrt_w * y
            s += np.bincount(src, weights=z, minlength=n)
            if gd.regime.forbids_time:
                r[own[lo:hi]] += z
        return _in_range(s, 0)


def _later_sums(s: np.ndarray, r: np.ndarray, run: np.ndarray, dst: np.ndarray,
                rev: np.ndarray) -> np.ndarray:
    """Per edge, the sum of the nonnegative ``r`` over its target's slots
    ``run[dst]:run[dst + 1]``, which sum to ``s[dst]``, less the reversal's
    slot ``rev``.  Where ``r[rev] <= s[dst] / 2`` that is ``s[dst] -
    r[rev]``, within about twice the two sums' relative error; elsewhere the
    difference may cancel, so the other slots are added.  Up to rounding, at
    most one slot of a node holds over half its sum, so a snapshot, whose
    edges into one node have distinct reversals, reads each slot at most
    once here."""
    total, back = s[dst], r[rev]
    later = total - back
    exact = np.flatnonzero(back > 0.5 * total)
    if exact.size:
        target = dst[exact]
        start = run[target]
        counts = run[target + 1] - start   # each run holds its rev slot
        first = np.cumsum(counts) - counts
        slot = np.arange(first[-1] + counts[-1]) + np.repeat(start - first, counts)
        terms = np.where(slot == np.repeat(rev[exact], counts), 0.0, r[slot])
        later[exact] = np.add.reduceat(terms, first)
    return later


def _in_range(x: np.ndarray, tau: int) -> np.ndarray:
    """``x``, when every entry is finite.  Otherwise the scores of the walks
    from snapshot tau and the snapshots before it pass the float64 range,
    and :class:`NumericalError` says so."""
    if not np.isfinite(x).all():
        raise NumericalError(f"temporal scores exceed the float64 range from snapshot {tau} on")
    return x


def _certified_block_solve(block, t: float, b: np.ndarray, tol: float, tau: int) -> np.ndarray:
    """Solve ``(I - t D) y = b`` for one snapshot, D a diagonal block of the
    resolvent's M or a snapshot adjacency, with a componentwise
    (Oettli-Prager) backward error ``max_i |b + tDy - y|_i / (|b| + |y| +
    tD|y|)_i`` of at most tol.

    D and b are nonnegative, so for the resolvent this is, on block tau's
    rows, the componentwise backward error of the whole system
    ``(I - tM) y = w``.  Each solve aims at the normwise target
    tol / sqrt(k), k the block order, which implies ``max|r_i| <= tol
    max b_j``: the bound itself when b is flat.  A first solve that misses
    the bound gets up to ``CORRECTION_SOLVES`` correction solves against its
    residual; then the block fails with :class:`NumericalError` naming the
    snapshot and the value reached, with the block's best solution as
    ``estimate``.  A solution, or a scale of the backward error, past the
    float64 range fails as ``_in_range`` does.
    """
    system = identity_minus(t, block)
    target = tol / math.sqrt(b.size)

    def solve(rhs):
        try:
            return solve_linear(system, rhs, target)
        except NumericalError as exc:   # the componentwise test below decides
            return np.zeros(rhs.size) if exc.estimate is None else exc.estimate

    def backward_error(y):
        # every weight is positive, so b > 0 and no scale entry is zero
        residual = b + t * (block @ y) - y
        scale = _in_range(b + np.abs(y) + t * (block @ np.abs(y)), tau)
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
        f"snapshot {tau}: componentwise backward error {best_error:.3e} exceeds tol "
        f"{tol:.1e} after {CORRECTION_SOLVES} correction solves",
        estimate=best,
    )


def classical_temporal_katz(tg: TemporalGraph, t: float, tol: float = 1e-10) -> np.ndarray:
    """Backtracking-permitted temporal Katz: the ordered product of snapshot
    resolvents applied to the all-ones vector, right to left, one sparse
    solve per snapshot with an edge, on its block of the stacked adjacency.
    A and x are nonnegative, as the resolvent's blocks and right-hand sides
    are, so each solve is accepted on the same componentwise certificate,
    ``_certified_block_solve``'s.  The first solution that is not finite
    raises :class:`NumericalError` (``_in_range``)."""
    check_t(t, range_end(tg.max_adjacency_radius), " for the classical temporal measure")
    n, x = tg.n, np.ones(tg.n)
    # an overflow is reported by _in_range, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for tau in reversed(range(tg.offsets.size - 1)):
            if tg.offsets[tau] < tg.offsets[tau + 1]:   # an edgeless snapshot's resolvent is I
                block = _diagonal_block(tg._stacked_adjacency, tau * n, (tau + 1) * n)
                x = _certified_block_solve(block, t, x, tol, tau)
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
    # each snapshot's stamp is its first record's, as read
    _, first, snapshot = np.unique(stamp, return_index=True, return_inverse=True)
    return _temporal_graph(src, dst, weight, snapshot, stamp[first].tolist(),
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
    return _temporal_graph(
        list(chain.from_iterable(c[0] for c in per_file)),
        list(chain.from_iterable(c[1] for c in per_file)),
        np.concatenate([c[2] for c in per_file]),
        np.repeat(np.arange(len(per_file)), [len(c[0]) for c in per_file]),
        [float(i) for i in range(len(per_file))],
        merge=merge, drop_loops=drop_loops,
    )


def _temporal_graph(src, dst, weight, snapshot, timestamps, *, merge, drop_loops) -> TemporalGraph:
    """The temporal graph of the records given by the label columns ``src``
    and ``dst``, ``weight`` and ``snapshot``, an index into ``timestamps``,
    over the node set of every record, in input order.  One ``_merged_edges``
    pass checks every record, naming the first bad one in input order, and
    its arrays, sorted by (snapshot, src, dst), are the stacked edges."""
    labels, src_codes, dst_codes = _code_labels(src, dst)
    tau, *edges = _merged_edges(labels, src_codes, dst_codes, weight, merge=merge,
                                drop_loops=drop_loops, snapshot=snapshot)
    offsets = np.searchsorted(tau, np.arange(len(timestamps) + 1))
    return TemporalGraph._stacked(labels, timestamps, offsets, *edges)
