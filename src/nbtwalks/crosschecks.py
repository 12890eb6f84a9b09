"""Cross-validation battery: every counting route checked against the others
and against brute-force enumeration.  Used by the ``oracle-check`` CLI
command and by the test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .edge_level import (
    CentralityPlan,
    CoefficientSeries,
    f_centrality,
    generating_matrix_via_line_graph,
    nbt_counts_via_line_graph,
    project_to_nodes,
    walk_counts_via_line_graph,
)
from .graph import WeightedGraph, adjacency, line_graph
from .linalg import DENSE_SOLVE_MAX, range_end, spectral_radius
from .node_level import elementwise_pole, generating_matrix, nbt_katz, nbt_walk_counts
from .oracle import count_nbt_walks_bruteforce, count_temporal_walks_bruteforce
from .temporal import (
    BacktrackRegime,
    TemporalGraph,
    build_global_transition,
    classical_temporal_katz,
    forbid_all_transition_fast,
    temporal_f_centrality,
    temporal_walk_counts,
)

__all__ = ["CheckResult", "static_battery", "temporal_battery"]


@dataclass
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance


def deviation(a, b) -> float:
    """Max-norm difference scaled by the larger matrix magnitude (floor 1)."""
    da = a.toarray() if hasattr(a, "toarray") else np.asarray(a, dtype=np.float64)
    db = b.toarray() if hasattr(b, "toarray") else np.asarray(b, dtype=np.float64)
    if da.shape != db.shape:
        return math.inf
    if da.size == 0:
        return 0.0
    scale = max(1.0, float(np.max(np.abs(da))), float(np.max(np.abs(db))))
    return float(np.max(np.abs(da - db))) / scale


def _safe_t(a, rho_v: float) -> float:
    """Half the series range end 1 / rho_v, or half the elementwise pole when
    that comes first (0.5 when neither bounds t)."""
    t = 0.5 * range_end(rho_v)
    pole = elementwise_pole(a)
    return t if t < pole else (0.5 if pole == math.inf else 0.5 * pole)


def static_battery(
    graph: WeightedGraph,
    kmax: int = 5,
    tol: float = 1e-10,
) -> list[CheckResult]:
    """All static cross-checks on one graph."""
    a = adjacency(graph)
    d = line_graph(graph)
    results: list[CheckResult] = []

    oracle = count_nbt_walks_bruteforce(graph, kmax)
    recurrence = nbt_walk_counts(a, kmax)
    dev = max(deviation(recurrence[k], oracle[k]) for k in range(kmax + 1))
    results.append(CheckResult("nbt recurrence vs enumeration", dev, tol))

    # entry k of the projections walks k + 1 edges
    projected = nbt_counts_via_line_graph(d, kmax - 1) if kmax else []
    dev = max(
        (deviation(projected[k], oracle[k + 1]) for k in range(kmax)), default=0.0
    )
    results.append(CheckResult("line-graph nbt projection vs enumeration", dev, tol))

    dev = max(
        (deviation(projected[k], recurrence[k + 1]) for k in range(kmax)), default=0.0
    )
    results.append(CheckResult("nbt recurrence vs line-graph projection", dev, tol))

    dense_a = a.toarray()
    power = dense_a.copy()
    dev = 0.0
    for walks in walk_counts_via_line_graph(d, kmax - 1) if kmax else []:
        dev = max(dev, deviation(walks, power))
        power = power @ dense_a
    results.append(CheckResult("line-graph walk projection vs adjacency powers", dev, tol))

    rho_v = spectral_radius(d.V)
    t = _safe_t(a, rho_v)
    phi_node = generating_matrix(a, t, rho_v=rho_v)
    phi_edge = generating_matrix_via_line_graph(d, t, rho_v=rho_v)
    results.append(
        CheckResult("generating function node route vs line-graph route",
                    deviation(phi_node, phi_edge), tol)
    )

    katz_node = nbt_katz(a, t, tol=min(tol, 1e-12), rho_v=rho_v)
    plan = CentralityPlan(d, CoefficientSeries.resolvent(), t, rho_v=rho_v)
    katz_edge = f_centrality(plan, tol=min(tol, 1e-12))
    results.append(
        CheckResult("nbt katz node route vs line-graph route",
                    deviation(katz_node, katz_edge), tol)
    )
    return results


def temporal_battery(
    tg: TemporalGraph, kmax: int = 3, tol: float = 1e-10
) -> list[CheckResult]:
    """All temporal cross-checks on one temporal graph."""
    results: list[CheckResult] = []

    decompositions = {regime: build_global_transition(tg, regime) for regime in BacktrackRegime}
    for regime, gd in decompositions.items():
        oracle = count_temporal_walks_bruteforce(tg, regime, kmax + 1)
        dev = max(deviation(counts, oracle[k + 1])
                  for k, counts in enumerate(temporal_walk_counts(gd, kmax)))
        results.append(
            CheckResult(f"temporal transition counts vs enumeration [{regime.value}]", dev, tol)
        )
        results.append(_resolvent_check(gd, tol))
        results.append(_assembled_radius_check(gd, tol))

    direct = decompositions[BacktrackRegime.FORBID_ALL].M
    fast = forbid_all_transition_fast(tg)
    same_pattern = (
        np.array_equal(direct.indptr, fast.indptr)
        and np.array_equal(direct.indices, fast.indices)
    )
    dev = deviation(direct, fast) if same_pattern else math.inf
    if same_pattern and direct.nnz and np.array_equal(direct.data, fast.data):
        dev = 0.0
    results.append(CheckResult("fast forbid-all assembly vs block assembly", dev, 0.0))

    rho_max = tg.max_adjacency_radius
    t = 0.5 if rho_max == 0 else 0.5 / rho_max
    katz = classical_temporal_katz(tg, t, tol=min(tol, 1e-12))
    x = np.ones(tg.n)
    for g in reversed(tg.snapshots):
        x = np.linalg.solve(np.eye(tg.n) - t * adjacency(g).toarray(), x)
    results.append(
        CheckResult("classical temporal katz vs dense resolvent product",
                    deviation(katz, x), tol)
    )
    return results


def _resolvent_check(gd, tol: float) -> CheckResult:
    """The temporal resolvent, solved one snapshot at a time, against one
    dense solve of the assembled I - tM at half the permitted range; skipped
    (and passed) above ``DENSE_SOLVE_MAX`` edges."""
    name = ("temporal resolvent: snapshot back-substitution vs dense solve of "
            f"assembled I - tM [{gd.regime.value}]")
    if gd.m_total > DENSE_SOLVE_MAX:
        return CheckResult(f"{name} (skipped: {gd.m_total} edges > {DENSE_SOLVE_MAX})", 0.0, tol)
    rho = gd.transition_radius
    t = 0.5 if rho == 0 else 0.5 / rho
    scores = temporal_f_centrality(gd, CoefficientSeries.resolvent(), t, tol=min(tol, 1e-12))
    system = np.eye(gd.m_total) - t * gd.M.toarray()
    y = np.linalg.solve(system, gd.sqrt_weights)
    dense = 1.0 + t * project_to_nodes(gd.temporal.src, gd.sqrt_weights, y, gd.n)
    return CheckResult(name, deviation(scores, dense), tol)


def _assembled_radius_check(gd, tol: float) -> CheckResult:
    """The spectral radius of the assembled M against the dense eigenvalues
    of its diagonal snapshot blocks, cut out of M (M is block
    upper-triangular); skipped (and passed) above ``DENSE_SOLVE_MAX`` edges."""
    name = ("spectral radius of assembled M vs dense eigenvalues of its snapshot "
            f"blocks [{gd.regime.value}]")
    if gd.m_total > DENSE_SOLVE_MAX:
        return CheckResult(f"{name} (skipped: {gd.m_total} edges > {DENSE_SOLVE_MAX})", 0.0, tol)
    m, offsets = gd.M.toarray(), gd.temporal.offsets
    dense = max((float(np.abs(np.linalg.eigvals(m[lo:hi, lo:hi])).max())
                 for lo, hi in zip(offsets[:-1], offsets[1:]) if hi > lo), default=0.0)
    return CheckResult(name, deviation(np.array([spectral_radius(gd.M)]), np.array([dense])), tol)
