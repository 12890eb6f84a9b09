import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import nbtwalks.crosschecks
import nbtwalks.linalg
import nbtwalks.temporal
from nbtwalks.crosschecks import temporal_battery
from nbtwalks.edge_level import (
    CentralityPlan,
    CoefficientSeries,
    apply_shifted_series,
    f_centrality,
    project_to_nodes,
)
from nbtwalks.errors import NumericalError, ValidationError
from nbtwalks.graph import WeightedGraph, adjacency, line_graph
from nbtwalks.linalg import matmul, range_end, spectral_radius
from nbtwalks.oracle import count_temporal_walks_bruteforce
from nbtwalks.temporal import (
    BacktrackRegime,
    TemporalGraph,
    build_global_transition,
    classical_temporal_katz,
    forbid_all_transition_fast,
    load_temporal_edge_list,
    load_temporal_manifest,
    parse_temporal_edge_list,
    temporal_f_centrality,
    temporal_walk_counts,
)

from conftest import (
    assert_bitwise_equal,
    dense_resolvent_scores,
    diag_matrix,
    product_form,
    random_digraph,
    rel_dev,
    reversal_heavy_text,
    write_uniform_temporal,
)

RESOLVENT = CoefficientSeries.resolvent()
GOLDEN_TEMPORAL = Path(__file__).parent / "data" / "golden" / "temporal.txt"


def two_snapshot_example() -> TemporalGraph:
    g1 = WeightedGraph(["1", "2"], [(0, 1, 2.0)])
    g2 = WeightedGraph(["1", "2"], [(1, 0, 3.0)])
    return TemporalGraph([g1, g2], [0.0, 1.0])


def random_temporal(rng, n_snapshots=None, n=None) -> TemporalGraph:
    count = n_snapshots or int(rng.integers(1, 4))
    size = n or int(rng.integers(2, 6))
    labels = [str(i) for i in range(size)]
    snaps = []
    for _ in range(count):
        g = random_digraph(rng, size, p=0.35)
        snaps.append(WeightedGraph(labels, list(g.edges)))
    return TemporalGraph(snaps, [float(i) for i in range(count)])


class TestValidation:
    def test_mismatched_node_sets(self):
        g1 = WeightedGraph(["a", "b"], [])
        g2 = WeightedGraph(["a", "c"], [])
        with pytest.raises(ValidationError, match="share"):
            TemporalGraph([g1, g2], [0.0, 1.0])

    def test_decreasing_timestamps(self):
        g = WeightedGraph(["a"], [])
        with pytest.raises(ValidationError, match="non-decreasing"):
            TemporalGraph([g, g], [1.0, 0.0])

    def test_equal_timestamps_permitted(self):
        g = WeightedGraph(["a"], [])
        TemporalGraph([g, g], [1.0, 1.0])

    @pytest.mark.parametrize("stamps", [[math.nan, 0.0], [0.0, math.inf], [-math.inf, 0.0],
                                        [0.0, math.nan]])
    def test_non_finite_timestamps(self, stamps):
        # the readers refuse such stamps as "bad time stamp"; both
        # constructors share one check
        g = WeightedGraph(["a", "b"], [(0, 1, 1.0)])
        with pytest.raises(ValidationError, match="finite and non-decreasing"):
            TemporalGraph([g, g], stamps)
        tg = TemporalGraph([g, g], [0.0, 1.0])
        with pytest.raises(ValidationError, match="finite and non-decreasing"):
            TemporalGraph._stacked(tg.node_labels, stamps, tg.offsets, tg.src, tg.dst, tg.weight)


class TestStackedStore:
    """A temporal graph stores its edges once, as the stacked arrays: its
    snapshots are views over them, and no reader builds a snapshot graph."""

    TEXT = "0 a b 2\n1 b a 3\n1 a c 1\n3 c a 2\n"

    def test_holds_only_the_stacked_arrays(self):
        tg = parse_temporal_edge_list(self.TEXT)
        assert set(vars(tg)) == {"node_labels", "timestamps", "offsets", "src", "dst", "weight"}
        g = WeightedGraph(["a", "b"], [(0, 1, 1.0)])
        assert set(vars(TemporalGraph([g, g], [0.0, 1.0]))) == set(vars(tg))

    def test_snapshots_are_views_of_the_stacked_arrays(self):
        g = WeightedGraph(["a", "b", "c"], [(0, 1, 1.0), (1, 2, 2.0)])
        for tg in (parse_temporal_edge_list(self.TEXT), TemporalGraph([g, g], [0.0, 1.0])):
            for tau, snapshot in enumerate(tg.snapshots):
                lo, hi = tg.offsets[tau], tg.offsets[tau + 1]
                assert snapshot.node_labels is tg.node_labels
                for name in ("src", "dst", "weight"):
                    view, stacked = getattr(snapshot, name), getattr(tg, name)
                    assert np.shares_memory(view, stacked)
                    assert np.array_equal(view, stacked[lo:hi])
                    assert not view.flags.writeable
            assert tg.snapshots is tg.snapshots   # made once

    def test_readers_build_no_snapshot_graph(self, tmp_path, monkeypatch):
        built = []
        canonical = WeightedGraph._canonical

        def counted(cls, *args):
            built.append(args)
            return canonical(*args)

        path = tmp_path / "t.txt"
        path.write_text(self.TEXT)
        for tau, body in enumerate(["a b 2\n", "b a 3\na c 1\n", "", "c a 2\n"]):
            (tmp_path / f"s{tau}.txt").write_text(body)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(f"s{tau}.txt\n" for tau in range(4)))
        monkeypatch.setattr(WeightedGraph, "_canonical", classmethod(counted))
        graphs = [load_temporal_edge_list(path), load_temporal_manifest(manifest)]
        assert built == []
        assert [tg.offsets.tolist() for tg in graphs] == [[0, 1, 3, 4], [0, 1, 3, 3, 4]]


class TestGlobalAssembly:
    def test_forbid_all_kills_the_time_reversal(self):
        gd = build_global_transition(two_snapshot_example(), BacktrackRegime.FORBID_ALL)
        assert gd.M.nnz == 0

    def test_allow_all_single_cross_entry(self):
        gd = build_global_transition(two_snapshot_example(), BacktrackRegime.ALLOW_ALL)
        m = gd.M.toarray()
        assert np.count_nonzero(m) == 1
        # built from square-rooted weights, so the witness uses the same form
        assert m[0, 1] == math.sqrt(2.0) * math.sqrt(3.0)

    def test_single_snapshot_reduces_to_static(self, rng):
        g = random_digraph(rng, 5)
        tg = TemporalGraph([g], [0.0])
        d = line_graph(g)
        forbid = build_global_transition(tg, BacktrackRegime.FORBID_SPACE)
        assert (forbid.M - d.V).count_nonzero() == 0
        allow = build_global_transition(tg, BacktrackRegime.ALLOW_ALL)
        assert (allow.M - d.half_walk_matrix).count_nonzero() == 0

    def test_block_triangular(self, rng):
        tg = random_temporal(rng, 3, 4)
        gd = build_global_transition(tg, BacktrackRegime.ALLOW_ALL)
        block_of = np.repeat(np.arange(3), [g.m for g in tg.snapshots])
        coo = gd.M.tocoo()
        assert np.all(block_of[coo.row] <= block_of[coo.col])

    def test_regime_monotonicity(self, rng):
        for _ in range(6):
            tg = random_temporal(rng)
            mats = {
                regime: build_global_transition(tg, regime).M.toarray()
                for regime in BacktrackRegime
            }
            forbid_all = mats[BacktrackRegime.FORBID_ALL]
            allow = mats[BacktrackRegime.ALLOW_ALL]
            for mid in (BacktrackRegime.FORBID_SPACE, BacktrackRegime.FORBID_TIME):
                assert np.all(forbid_all <= mats[mid] + 1e-15)
                assert np.all(mats[mid] <= allow + 1e-15)
            assert np.all(forbid_all >= 0.0)

    def test_empty_snapshot_keeps_indices(self):
        labels = ["a", "b"]
        g1 = WeightedGraph(labels, [(0, 1, 2.0)])
        empty = WeightedGraph(labels, [])
        g3 = WeightedGraph(labels, [(1, 0, 3.0)])
        tg = TemporalGraph([g1, empty, g3], [0.0, 1.0, 2.0])
        gd = build_global_transition(tg, BacktrackRegime.ALLOW_ALL)
        assert gd.m_total == 2
        assert list(gd.temporal.offsets) == [0, 1, 1, 2]
        assert gd.M[0, 1] == math.sqrt(2.0) * math.sqrt(3.0)

    def test_spectrum_is_max_over_diagonal_blocks(self, rng):
        def dense_radius(b):
            return max(np.abs(np.linalg.eigvals(b))) if b.size else 0.0

        for _ in range(6):
            tg = random_temporal(rng, 3, 4)
            max_rho_a = max(dense_radius(adjacency(g).toarray()) for g in tg.snapshots)
            for regime in BacktrackRegime:
                gd = build_global_transition(tg, regime)
                if gd.m_total == 0:
                    continue
                dense_blocks = []
                for tau, d in enumerate(map(line_graph, tg.snapshots)):
                    lo, hi = gd.temporal.offsets[tau], gd.temporal.offsets[tau + 1]
                    assert hi - lo == d.m
                    dense_blocks.append(gd.M[lo:hi, lo:hi].toarray())
                want = max(dense_radius(b) for b in dense_blocks)
                assert spectral_radius(gd.M) == pytest.approx(want, rel=1e-6, abs=1e-8)
                assert gd.transition_radius == pytest.approx(want, rel=1e-6, abs=1e-8)
                if not regime.forbids_space:
                    # the half-walk block sqrt(Z) R L^T sqrt(Z) has the
                    # nonzero spectrum of L^T Z R = A_tau
                    assert gd.transition_radius == pytest.approx(max_rho_a, rel=1e-8, abs=1e-12)
                    assert gd.transition_radius == tg.max_adjacency_radius


class TestFastConstruction:
    def test_example_is_zero(self):
        fast = forbid_all_transition_fast(two_snapshot_example())
        assert fast.nnz == 0

    def test_single_snapshot_is_static_pruned(self, rng):
        g = random_digraph(rng, 5)
        fast = forbid_all_transition_fast(TemporalGraph([g], [0.0]))
        assert (fast - line_graph(g).V).count_nonzero() == 0

    def test_bitwise_equal_to_block_assembly(self, rng):
        for _ in range(10):
            tg = random_temporal(rng)
            direct = build_global_transition(tg, BacktrackRegime.FORBID_ALL).M
            assert_bitwise_equal(direct, forbid_all_transition_fast(tg))

    def test_underflowing_reciprocated_pair(self):
        # w_e * w_f underflows on snapshot 0's reciprocated pair; the pair's
        # backtracking step must still be pruned from the diagonal block
        checks = {r.name: r for r in temporal_battery(underflow_example())}
        assert checks["fast forbid-all assembly vs block assembly"].passed


class TestGradedRadius:
    def test_underflow_example_snapshot_radii(self):
        # snapshot 0's cycle a -> b -> c -> a has weight product 1e-373, and
        # its 2-cycle 1e-340 (below the smallest subnormal), so the
        # adjacency, its half-walk block and V all have radius 10^(-373/3)
        want = 10.0 ** (-373 / 3)
        tg = underflow_example()
        d = line_graph(tg.snapshots[0])
        for m in (adjacency(tg.snapshots[0]), d.half_walk_matrix, d.V):
            assert abs(spectral_radius(m) - want) <= 1e-13 * want
        for regime in BacktrackRegime:
            rho = build_global_transition(tg, regime).transition_radius
            assert abs(rho - want) <= 1e-13 * want

    def test_radius_failure_names_the_snapshot(self, monkeypatch):
        # the snapshot matrices' radii are one call on their block-diagonal
        # matrix; a block that fails is named by its snapshot and by its
        # first node in that snapshot's matrix, 1, not in the joined one, 3
        pair = sp.csr_array(np.array([[0.0, 1.0], [1.0, 0.0]]))
        second = np.zeros((4, 4))
        second[1:, 1:] = 1.0
        monkeypatch.setattr(nbtwalks.linalg, "_power_radius", lambda m, *args: (None, 0.5))
        with pytest.raises(NumericalError, match=r"^snapshot 1: .* order 3 starting at node 1 ") as info:
            nbtwalks.temporal._max_radius(sp.block_diag([pair, sp.csr_array(second)], format="csr"),
                                          np.array([0, 2, 6]))
        assert info.value.node == 1
        assert info.value.estimate == 1.0   # 0.5 on the block's scale 2^-1


def underflow_example(weight=1.0) -> TemporalGraph:
    """Snapshot 0 holds a reciprocated pair of weight 1e-170, whose weight
    product underflows to zero; snapshot 1 repeats one edge of the pair."""
    labels = ["a", "b", "c"]
    g0 = WeightedGraph(labels, [(0, 1, 1e-170), (1, 0, 1e-170), (1, 2, 1e-3), (2, 0, 1e-200)])
    g1 = WeightedGraph(labels, [(0, 1, weight)])
    return TemporalGraph([g0, g1], [0.0, 1.0])


def product_block_form(tg: TemporalGraph, regime: BacktrackRegime) -> sp.csr_array:
    """M built block by block from incidence products, the reference that
    ``graph._continuations`` must match: each upper block is ``sqrt_Z1 R1
    L2^T sqrt_Z2``, with the reversals of ``R2 L1^T`` masked out when the
    regime forbids backtracking in time."""
    per = [line_graph(g) for g in tg.snapshots]
    if not sum(d.m for d in per):
        return sp.csr_array((0, 0), dtype=np.float64)
    blocks = [[None] * len(per) for _ in per]
    refs = [product_form(g) for g in tg.snapshots]
    for t1, (d1, r1) in enumerate(zip(per, refs)):
        blocks[t1][t1] = d1.V if regime.forbids_space else d1.half_walk_matrix
        for t2 in range(t1 + 1, len(per)):
            r2 = refs[t2]
            half = matmul(matmul(r1["sqrt_Z"], matmul(r1["R"], r2["L"].T)), r2["sqrt_Z"])
            if regime.forbids_time:
                reversal = sp.csr_array(matmul(r2["R"], r1["L"].T).T != 0)
                half = sp.csr_array(half - half.multiply(reversal))
                half.eliminate_zeros()
                half.sort_indices()
            blocks[t1][t2] = half
    M = sp.csr_array(sp.block_array(blocks, format="csr"))
    M.sort_indices()
    return M


class TestBlockAssemblyBitwise:
    """M, built in one pass over the global edge arrays, must match the
    incidence-product block form bit for bit under every regime."""

    @staticmethod
    def instances(tmp_path):
        # the smallest subnormal weight meets the tiny ones across snapshots
        out = [two_snapshot_example(), underflow_example(), underflow_example(5e-324)]
        # a reciprocated pair in every snapshot: reversals across time
        labels = ["a", "b", "c"]
        out.append(TemporalGraph(
            [WeightedGraph(labels, [(0, 1, w), (1, 0, 2 * w), (1, 2, w)]) for w in (0.5, 1.5, 3.0)],
            [0.0, 1.0, 2.0]))
        # node 0 has out-edges in every snapshot, and edges come back to it
        hub = [WeightedGraph([str(i) for i in range(5)],
                             [(0, j, 1.0 + tau + j) for j in range(1, 5)]
                             + [(j, 0, 0.5 * j) for j in range(tau % 2 + 1, 5, 2)])
               for tau in range(4)]
        out.append(TemporalGraph(hub, [0.0, 1.0, 2.0, 3.0]))
        # a single snapshot: M is the snapshot's V or half-walk matrix
        out.append(TemporalGraph([random_digraph(np.random.default_rng(5), 6)], [0.0]))
        for seed in (1, 3, 8):
            tg = load_temporal_edge_list(
                write_uniform_temporal(tmp_path / f"u{seed}.txt", seed, 40, 60, 4))
            empty = WeightedGraph(tg.node_labels, [])
            snaps = tg.snapshots[:2] + [empty] + tg.snapshots[2:]
            out.append(TemporalGraph(snaps, [float(i) for i in range(len(snaps))]))
        rng = np.random.default_rng(77)
        out.extend(random_temporal(rng, 3, 5) for _ in range(4))
        labels = ["a", "b"]
        out.append(TemporalGraph([WeightedGraph(labels, [])] * 2, [0.0, 1.0]))
        return out

    def test_matches_product_block_form(self, tmp_path):
        instances = self.instances(tmp_path)
        assert any(g.m == 0 for tg in instances for g in tg.snapshots)
        for tg in instances:
            for regime in BacktrackRegime:
                assert_bitwise_equal(build_global_transition(tg, regime).M,
                                     product_block_form(tg, regime))

    def test_bench_shaped_instance(self, tmp_path):
        # 500 nodes and 20 snapshots of 500 uniformly placed edges
        tg = load_temporal_edge_list(
            write_uniform_temporal(tmp_path / "uniform.txt", 1, 500, 500, 20))
        for regime in BacktrackRegime:
            assert_bitwise_equal(build_global_transition(tg, regime).M,
                                 product_block_form(tg, regime))

    def test_one_pass(self, monkeypatch):
        # M is built by one call of the builder, not one per block
        built = []
        real = nbtwalks.temporal._continuations

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        gd = build_global_transition(random_temporal(np.random.default_rng(3), 4, 5),
                                     BacktrackRegime.FORBID_ALL)
        monkeypatch.setattr(nbtwalks.temporal, "_continuations", counted)
        assert gd.M.nnz and len(built) == 1


class TestUnionBlocks:
    """``blocks``, and the full-weight matrix whose radius is
    ``block_radius_bound``, equal the block-diagonal matrix of the snapshots'
    own line graphs bit for bit under every regime."""

    @staticmethod
    def check(tg, monkeypatch):
        per = [line_graph(g) for g in tg.snapshots]
        refs = [product_form(g) for g in tg.snapshots]
        seen = []
        monkeypatch.setattr(nbtwalks.temporal, "spectral_radius", lambda m: seen.append(m) or 0.0)
        for regime in BacktrackRegime:
            gd = build_global_transition(tg, regime)
            space = regime.forbids_space
            assert_bitwise_equal(gd.blocks, sp.block_diag(
                [d.V if space else d.half_walk_matrix for d in per], format="csr"))
            assert gd.block_radius_bound == 0.0
            assert_bitwise_equal(seen.pop(), sp.block_diag(
                [ref["B" if space else "W"] for ref in refs], format="csr"))

    def test_instances(self, tmp_path, monkeypatch):
        for tg in TestBlockAssemblyBitwise.instances(tmp_path):
            self.check(tg, monkeypatch)

    def test_a_thousand_snapshots(self, tmp_path, monkeypatch):
        path = write_uniform_temporal(tmp_path / "long.txt", 1, 100, 150, 1000)
        self.check(load_temporal_edge_list(path), monkeypatch)


class TestWalkCounts:
    def test_example_allow_all(self):
        gd = build_global_transition(two_snapshot_example(), BacktrackRegime.ALLOW_ALL)
        counts = temporal_walk_counts(gd, 1)[1]
        assert counts[0, 1] == pytest.approx(6.0, rel=1e-14)
        assert counts.nnz == 1

    def test_example_forbid_all_vanishes(self):
        gd = build_global_transition(two_snapshot_example(), BacktrackRegime.FORBID_ALL)
        counts = temporal_walk_counts(gd, 3)
        assert len(counts) == 4 and counts[0].nnz == 2
        assert all(c.nnz == 0 for c in counts[1:])

    def test_nilpotent_beyond_longest_walk(self):
        gd = build_global_transition(two_snapshot_example(), BacktrackRegime.ALLOW_ALL)
        assert temporal_walk_counts(gd, 2)[2].nnz == 0

    def test_matches_oracle_all_regimes(self, rng):
        for _ in range(8):
            tg = random_temporal(rng)
            for regime in BacktrackRegime:
                gd = build_global_transition(tg, regime)
                oracle = count_temporal_walks_bruteforce(tg, regime, 5)
                for k, counts in enumerate(temporal_walk_counts(gd, 4)):
                    assert rel_dev(counts, oracle[k + 1]) <= 1e-12

    def test_every_length_from_one_pass(self, rng):
        # entry k is bit for bit ((Z^1/2 M) M ... M) Z^1/2 with k factors M,
        # as a separate call for each k would compute it
        for _ in range(5):
            tg = random_temporal(rng)
            for regime in BacktrackRegime:
                gd = build_global_transition(tg, regime)
                counts = temporal_walk_counts(gd, 4)
                assert len(counts) == 5
                acc = sqrt_z = diag_matrix(gd.sqrt_weights)
                assert_bitwise_equal(counts[0], matmul(acc, sqrt_z))
                for k in range(1, 5):
                    acc = matmul(acc, gd.M)
                    assert_bitwise_equal(counts[k], matmul(acc, sqrt_z))
        with pytest.raises(ValidationError, match="kmax must be nonnegative"):
            temporal_walk_counts(gd, -1)


class TestCentrality:
    def test_example_forbid_all(self):
        gd = build_global_transition(two_snapshot_example(), BacktrackRegime.FORBID_ALL)
        for t in (0.05, 0.2):
            v = temporal_f_centrality(gd, RESOLVENT, t)
            assert np.allclose(v, [1 + 2 * t, 1 + 3 * t], atol=1e-13)

    def test_example_allow_all(self):
        gd = build_global_transition(two_snapshot_example(), BacktrackRegime.ALLOW_ALL)
        for t in (0.05, 0.2):
            v = temporal_f_centrality(gd, RESOLVENT, t)
            assert np.allclose(v, [1 + 2 * t + 6 * t * t, 1 + 3 * t], atol=1e-13)

    def test_empty_temporal_graph(self):
        g = WeightedGraph(["a", "b"], [])
        gd = build_global_transition(TemporalGraph([g, g], [0.0, 1.0]), BacktrackRegime.FORBID_ALL)
        assert np.allclose(temporal_f_centrality(gd, RESOLVENT, 0.4), 1.0)

    def test_single_snapshot_matches_static(self, rng):
        for regime in (BacktrackRegime.FORBID_SPACE, BacktrackRegime.FORBID_ALL):
            g = random_digraph(rng, 5)
            tg = TemporalGraph([g], [0.0])
            gd = build_global_transition(tg, regime)
            d = line_graph(g)
            rho = spectral_radius(d.V)
            t = 0.3 if rho == 0 else 0.5 / rho
            temporal = temporal_f_centrality(gd, RESOLVENT, t, tol=1e-12)
            plan = CentralityPlan(d, RESOLVENT, t, rho_v=rho)
            static = f_centrality(plan, tol=1e-12)
            assert np.allclose(temporal, static, rtol=1e-12, atol=1e-12)

    def test_out_of_range_rejected(self):
        pair = WeightedGraph(["1", "2"], [(0, 1, 2.0), (1, 0, 2.0)])
        tg = TemporalGraph([pair, pair], [0.0, 1.0])
        gd = build_global_transition(tg, BacktrackRegime.ALLOW_ALL)
        rho = spectral_radius(gd.M)
        assert rho > 0
        with pytest.raises(ValidationError, match="permitted range"):
            temporal_f_centrality(gd, RESOLVENT, 1.01 / rho)

    def test_exponential_series_runs(self, rng):
        tg = random_temporal(rng, 2, 4)
        gd = build_global_transition(tg, BacktrackRegime.FORBID_ALL)
        v = temporal_f_centrality(gd, CoefficientSeries.exponential(), 0.2, tol=1e-12)
        assert np.all(v >= 1.0 - 1e-12)


def stacked_incidence(gd):
    """The snapshots' source and target incidence matrices and square-rooted
    weight matrix of ``product_form``, stacked in global edge order:
    ``(L, R, sqrt_Z)``."""
    refs = [product_form(g) for g in gd.temporal.snapshots]
    return (sp.csr_array(sp.vstack([ref["L"] for ref in refs], format="csr")),
            sp.csr_array(sp.vstack([ref["R"] for ref in refs], format="csr")),
            diag_matrix(np.sqrt(np.concatenate([g.weight for g in gd.temporal.snapshots]))))


class TestProjectionToNodes:
    """The stacked projection ``L^T sqrt_Z y`` and target ``sqrt_Z R 1`` that
    the series path reads, bit for bit as the incidence products give them."""

    def test_equals_the_incidence_products(self, rng):
        gd = build_global_transition(load_temporal_edge_list(GOLDEN_TEMPORAL),
                                     BacktrackRegime.FORBID_ALL)
        L, R, sqrt_z = stacked_incidence(gd)
        y = rng.lognormal(0.0, 1.0, size=gd.m_total)
        assert np.array_equal(project_to_nodes(gd.temporal.src, gd.sqrt_weights, y, gd.n),
                              L.T @ (sqrt_z @ y))
        assert np.array_equal(gd.sqrt_weights, sqrt_z @ (R @ np.ones(gd.n)))

    @pytest.mark.parametrize("series", [
        CoefficientSeries.exponential(),
        CoefficientSeries.custom([1.0, 1.0, 0.5, 0.25, 0.125]),
    ], ids=["exponential", "custom"])
    @pytest.mark.parametrize("regime", list(BacktrackRegime), ids=lambda r: r.value)
    def test_series_scores_equal_the_incidence_formula(self, series, regime):
        gd = build_global_transition(load_temporal_edge_list(GOLDEN_TEMPORAL), regime)
        L, R, sqrt_z = stacked_incidence(gd)
        t = 0.5 / gd.transition_radius
        y = apply_shifted_series(series, gd.M, t, sqrt_z @ (R @ np.ones(gd.n)), 1e-10,
                                 rho=gd.transition_radius)
        want = series.c0 * np.ones(gd.n) + t * (L.T @ (sqrt_z @ y))
        assert np.array_equal(temporal_f_centrality(gd, series, t), want)


class TestSnapshotBackSubstitution:
    """The resolvent solved one snapshot block at a time, last to first,
    near the radius, where a global solve of I - tM failed."""

    @pytest.mark.parametrize("seed, fraction", [
        (6, 0.9), (2, 0.99), (4, 0.99), (5, 0.99), (6, 0.99),
    ])
    def test_near_the_radius_matches_dense_solve(self, tmp_path, seed, fraction):
        # 150 nodes, 8 snapshots of 150 edges; the largest score reaches 1e11
        path = write_uniform_temporal(tmp_path / "t.txt", seed, 150, 150, 8)
        gd = build_global_transition(load_temporal_edge_list(path), BacktrackRegime.FORBID_ALL)
        t = fraction / gd.transition_radius
        scores = temporal_f_centrality(gd, RESOLVENT, t)
        np.testing.assert_allclose(scores, dense_resolvent_scores(gd, t), rtol=1e-9, atol=0)


class TestLaterSumsDoNotCancel:
    """A right-hand side of the back-substitution that leaves out the
    reversal pair does not subtract it where it holds most of the target's
    later out-mass.  On the reversal-heavy inputs the subtraction returned
    a's score off by 0.92 (forbid-time) and 0.96 (forbid-all) at 0.9r, with
    every block solve certified."""

    @pytest.mark.parametrize("regime", list(BacktrackRegime))
    @pytest.mark.parametrize("exit_weight", [1.0, 1e6, 1e12, 1e24])
    def test_matches_dense_solve(self, regime, exit_weight):
        # 193 edges: 24 snapshots of b -> a, b -> c and a 3-node clique; at
        # exit weight 1 this is the reproducer
        gd = build_global_transition(
            parse_temporal_edge_list(reversal_heavy_text(24, 3, exit_weight)), regime)
        assert gd.m_total == 193
        t = 0.9 / gd.transition_radius
        np.testing.assert_allclose(temporal_f_centrality(gd, RESOLVENT, t),
                                   dense_resolvent_scores(gd, t), rtol=1e-12, atol=0)


# Two snapshots.  Edge b->d of snapshot 0 weighs 1e-12 and no later edge
# leaves d, so its entry of the solution is 1e-6 while the others are near
# 1: a solution whose residual meets tol * ||b|| can still be far off there.
CERTIFICATE_EXAMPLE = "0 a b 2\n0 b c 1\n0 c a 3\n0 b d 1e-12\n1 b c 2\n1 a b 1\n"


class TestBlockCertificate:
    """Each snapshot block is accepted on its componentwise (Oettli-Prager)
    backward error; a block that misses it gets correction solves, then
    fails naming the snapshot."""

    @staticmethod
    def componentwise(matrix, rhs, y) -> float:
        """max_i |b - Ay|_i / (|A||y| + |b|)_i."""
        a = matrix.toarray()
        return float(np.max(np.abs(rhs - a @ y) / (np.abs(a) @ np.abs(y) + np.abs(rhs))))

    @pytest.fixture
    def example(self):
        tg = parse_temporal_edge_list(CERTIFICATE_EXAMPLE)
        gd = build_global_transition(tg, BacktrackRegime.FORBID_ALL)
        line_graphs = [line_graph(g) for g in tg.snapshots]
        assert [d.m for d in line_graphs] == [4, 2]
        labels = tg.node_labels
        small = [(labels[s], labels[d]) for s, d, _ in tg.snapshots[0].edges].index(("b", "d"))
        return gd, 0.5 / gd.transition_radius, small

    def stub_solver(self, monkeypatch, perturb):
        """Replace the block solver by an exact dense solve; on snapshot 0's
        block (order 4) ``perturb(matrix, rhs, x, call)`` alters the answer.
        Returns the list of (matrix, rhs, answer) given for that block."""
        calls = []

        def solve(matrix, rhs, tol=1e-10):
            x = np.linalg.solve(matrix.toarray(), rhs)
            if matrix.shape[0] == 4:
                x = perturb(matrix, rhs, x, len(calls))
                calls.append((matrix, rhs, x))
            return x

        monkeypatch.setattr(nbtwalks.temporal, "solve_linear", solve)
        return calls

    def test_refinement_repairs_a_normwise_certified_block(self, example, monkeypatch):
        gd, t, small = example
        tol = 1e-10

        def first_off_on_the_small_entry(matrix, rhs, x, call):
            if call > 0:
                return x
            column = matrix.toarray()[:, small]
            out = x.copy()
            out[small] += 0.5 * tol * np.linalg.norm(rhs) / np.linalg.norm(column)
            return out

        calls = self.stub_solver(monkeypatch, first_off_on_the_small_entry)
        scores = temporal_f_centrality(gd, RESOLVENT, t, tol=tol)
        matrix, rhs, first = calls[0]
        # the first answer passes the normwise test and fails the componentwise one
        assert np.linalg.norm(rhs - matrix @ first) <= tol * np.linalg.norm(rhs)
        assert self.componentwise(matrix, rhs, first) > 1e3 * tol
        assert len(calls) == 2  # one correction solve
        np.testing.assert_allclose(scores, dense_resolvent_scores(gd, t), rtol=1e-14)

    def test_unrepairable_block_names_snapshot_and_value(self, example, monkeypatch):
        gd, t, small = example
        offset = np.zeros(4)
        offset[small] = 1e-7

        def always_offset(matrix, rhs, x, call):
            # the same error each time, so every correction solve cancels out
            return x + offset

        calls = self.stub_solver(monkeypatch, always_offset)
        with pytest.raises(NumericalError, match=r"^snapshot 0: componentwise backward error") as info:
            temporal_f_centrality(gd, RESOLVENT, t)
        matrix, rhs, first = calls[0]
        achieved = self.componentwise(matrix, rhs, first)
        assert achieved > 1e-3
        assert f"{achieved:.3e}" in str(info.value)
        np.testing.assert_array_equal(info.value.estimate, first)

    def test_classical_katz_failure_names_no_resolvent(self, monkeypatch):
        # the example has four nodes, so every adjacency block is stubbed
        tg = parse_temporal_edge_list(CERTIFICATE_EXAMPLE)
        self.stub_solver(monkeypatch, lambda matrix, rhs, x, call: x + 1e-3)
        with pytest.raises(NumericalError, match=r"^snapshot 1: componentwise backward error "
                                                 r"\S+ exceeds tol") as info:
            classical_temporal_katz(tg, 0.5 * range_end(tg.max_adjacency_radius))
        assert "resolvent" not in str(info.value)

    def test_block_missing_the_normwise_check_is_certified(self, monkeypatch):
        # 1e-8 below the radius the dense LU of a snapshot block leaves a
        # residual of about 8e-9 * ||b||, which the normwise check of
        # solve_linear rejects; the componentwise bound still holds
        text = "0 a b 1\n0 b c 1\n0 c a 1\n1 a b 2\n1 b c 1\n1 c a 1\n"
        gd = build_global_transition(parse_temporal_edge_list(text), BacktrackRegime.FORBID_ALL)
        t = (1.0 - 1e-8) / gd.transition_radius
        rejected = []
        real = nbtwalks.temporal.solve_linear

        def solve(matrix, rhs, tol=1e-10):
            try:
                return real(matrix, rhs, tol)
            except NumericalError as exc:
                rejected.append(exc)
                raise

        monkeypatch.setattr(nbtwalks.temporal, "solve_linear", solve)
        scores = temporal_f_centrality(gd, RESOLVENT, t)
        assert rejected
        np.testing.assert_allclose(scores, dense_resolvent_scores(gd, t), rtol=1e-9)


class TestSnapshotSolveTarget:
    """Both temporal measures aim each snapshot solve at the normwise target
    tol / sqrt(k), k the block order, and accept it on the componentwise
    bound.  On U1 (500 nodes, 20 snapshots of 500 edges, the shape of the
    benchmark's temporal instance) every block is solved by GMRES, whose
    first solve then meets the bound."""

    @pytest.fixture(scope="class")
    def u1(self, tmp_path_factory):
        path = write_uniform_temporal(tmp_path_factory.mktemp("u1") / "u1.txt", 1, 500, 500, 20)
        return load_temporal_edge_list(path)

    def test_classical_katz_matches_dense_product(self, u1):
        t = 0.5 * range_end(u1.max_adjacency_radius)
        want = np.ones(u1.n)
        for g in reversed(u1.snapshots):
            want = np.linalg.solve(np.eye(u1.n) - t * adjacency(g).toarray(), want)
        got = classical_temporal_katz(u1, t)
        assert np.max(np.abs(got - want) / want) <= 1e-10

    @pytest.mark.parametrize("fraction", [0.5, 0.9])
    @pytest.mark.parametrize("regime", [BacktrackRegime.FORBID_ALL, BacktrackRegime.ALLOW_ALL],
                             ids=lambda r: r.value)
    def test_resolvent_solves_each_block_once(self, u1, monkeypatch, regime, fraction):
        gd = build_global_transition(u1, regime)
        orders = []
        real = nbtwalks.temporal.solve_linear

        def counted(matrix, rhs, tol=1e-10):
            orders.append(matrix.shape[0])
            return real(matrix, rhs, tol)

        monkeypatch.setattr(nbtwalks.temporal, "solve_linear", counted)
        temporal_f_centrality(gd, RESOLVENT, fraction * range_end(gd.transition_radius))
        assert len(orders) == np.count_nonzero(np.diff(gd.temporal.offsets)) == 20
        assert min(orders) > nbtwalks.linalg.DENSE_CROSSOVER


class TestResolventIdentity:
    """The oracle battery's check of the snapshot back-substitution against
    a dense solve of the assembled I - tM, once per regime."""

    NAME = "temporal resolvent: snapshot back-substitution vs dense solve of assembled I - tM"

    def test_passes_on_the_fixtures(self, rng):
        golden = load_temporal_edge_list(Path(__file__).parent / "data" / "golden" / "temporal.txt")
        for tg in (golden, two_snapshot_example(), random_temporal(rng, 3, 5)):
            checks = [r for r in temporal_battery(tg) if r.name.startswith(self.NAME)]
            assert [r.name for r in checks] == [
                f"{self.NAME} [{regime.value}]" for regime in BacktrackRegime
            ]
            assert all(r.passed for r in checks)

    def test_detects_a_wrong_block_solve(self, rng, monkeypatch):
        tg = random_temporal(rng, 3, 5)
        monkeypatch.setattr(nbtwalks.temporal, "_certified_block_solve",
                            lambda block, t, b, tol, tau: 1.01 * b)
        gd = build_global_transition(tg, BacktrackRegime.FORBID_ALL)
        assert not nbtwalks.crosschecks._resolvent_check(gd, 1e-10).passed

    def test_skipped_above_dense_solve_max(self, tmp_path):
        path = write_uniform_temporal(tmp_path / "t.txt", 1, 300, 700, 3)
        gd = build_global_transition(load_temporal_edge_list(path), BacktrackRegime.FORBID_ALL)
        assert gd.m_total > 2000
        result = nbtwalks.crosschecks._resolvent_check(gd, 1e-10)
        assert result.name == f"{self.NAME} [forbid-all] (skipped: {gd.m_total} edges > 2000)"
        assert result.passed and "M" not in vars(gd)


class TestAssembledRadiusIdentity:
    """The oracle battery's check of rho(M), taken from the assembled M by
    spectral_radius, against the dense eigenvalues of M's snapshot blocks,
    once per regime."""

    NAME = "spectral radius of assembled M vs dense eigenvalues of its snapshot blocks"

    def test_passes_on_the_fixtures(self, rng):
        golden = load_temporal_edge_list(Path(__file__).parent / "data" / "golden" / "temporal.txt")
        for tg in (golden, two_snapshot_example(), random_temporal(rng, 3, 5)):
            checks = [r for r in temporal_battery(tg) if r.name.startswith(self.NAME)]
            assert [r.name for r in checks] == [
                f"{self.NAME} [{regime.value}]" for regime in BacktrackRegime
            ]
            assert all(r.passed for r in checks)

    def test_detects_a_wrong_block_radius(self, monkeypatch):
        real = nbtwalks.linalg._block_radius

        def wrong(block, *args):
            rho, estimate = real(block, *args)
            return 1.001 * rho, estimate

        monkeypatch.setattr(nbtwalks.linalg, "_block_radius", wrong)
        tg = load_temporal_edge_list(Path(__file__).parent / "data" / "golden" / "temporal.txt")
        checks = [r for r in temporal_battery(tg) if r.name.startswith(self.NAME)]
        assert len(checks) == 4 and not any(r.passed for r in checks)

    def test_skipped_above_dense_solve_max(self, tmp_path):
        path = write_uniform_temporal(tmp_path / "t.txt", 1, 300, 700, 3)
        gd = build_global_transition(load_temporal_edge_list(path), BacktrackRegime.FORBID_ALL)
        assert gd.m_total > 2000
        result = nbtwalks.crosschecks._assembled_radius_check(gd, 1e-10)
        assert result.name == f"{self.NAME} [forbid-all] (skipped: {gd.m_total} edges > 2000)"
        assert result.passed and "M" not in vars(gd)


class TestClassicalKatz:
    def test_single_snapshot_is_static_katz(self, rng):
        g = random_digraph(rng, 5)
        tg = TemporalGraph([g], [0.0])
        a = adjacency(g).toarray()
        rho = spectral_radius(adjacency(g))
        t = 0.3 if rho == 0 else 0.5 / rho
        x = classical_temporal_katz(tg, t)
        want = np.linalg.solve(np.eye(5) - t * a, np.ones(5))
        assert np.allclose(x, want, rtol=1e-11, atol=1e-11)

    def test_all_snapshots_empty(self):
        g = WeightedGraph(["a", "b"], [])
        tg = TemporalGraph([g, g, g], [0.0, 1.0, 2.0])
        assert np.allclose(classical_temporal_katz(tg, 0.7), 1.0)

    def test_no_nodes(self):
        g = WeightedGraph([], [])
        x = classical_temporal_katz(TemporalGraph([g, g], [0.0, 1.0]), 0.5)
        assert x.shape == (0,)

    def test_two_snapshot_hand_solve(self):
        tg = two_snapshot_example()
        t = 0.1
        x = classical_temporal_katz(tg, t)
        inner = np.linalg.solve(np.eye(2) - t * adjacency(tg.snapshots[1]).toarray(), np.ones(2))
        want = np.linalg.solve(np.eye(2) - t * adjacency(tg.snapshots[0]).toarray(), inner)
        assert np.allclose(x, want, atol=1e-13)
        assert np.allclose(x, [1 + 2 * t * (1 + 3 * t), 1 + 3 * t], atol=1e-13)

    def test_out_of_range_rejected(self):
        pair = WeightedGraph(["1", "2"], [(0, 1, 4.0), (1, 0, 4.0)])
        tg = TemporalGraph([pair], [0.0])  # rho(A) = 4, range [0, 0.25)
        with pytest.raises(ValidationError, match="permitted range"):
            classical_temporal_katz(tg, 0.5)


class TestAllowAllIsClassicalKatz:
    """Under allow-all a temporal walk may take any continuation, reversals
    included, so the resolvent communicability is the classical product of
    snapshot resolvents, and both measures share one range."""

    @pytest.mark.parametrize("fraction", [0.5, 0.9])
    def test_measures_coincide(self, fraction):
        tg = load_temporal_edge_list(GOLDEN_TEMPORAL)
        gd = build_global_transition(tg, BacktrackRegime.ALLOW_ALL)
        assert gd.transition_radius == tg.max_adjacency_radius > 0.0
        t = fraction * range_end(gd.transition_radius)
        communicability = temporal_f_centrality(gd, RESOLVENT, t)
        katz = classical_temporal_katz(tg, t)
        assert np.max(np.abs(communicability - katz) / katz) <= 1e-12


class TestScoresPastTheFloat64Range:
    """On 200 copies of the complete digraph on 6 nodes with unit weights, at
    0.99 of the range end, the scores pass the float64 range some 150
    snapshots into the last-to-first sweep.  Every resolvent measure then
    raises a plain NumericalError that says so, and lets no warning escape.
    The exponential series stays in range where only the powers of tM pass
    it."""

    MESSAGE = r"^temporal scores exceed the float64 range from snapshot \d+ on$"

    @staticmethod
    def complete_sequence(length: int = 200) -> TemporalGraph:
        labels = [str(i) for i in range(6)]
        g = WeightedGraph(labels, [(i, j, 1.0) for i in range(6) for j in range(6) if i != j])
        return TemporalGraph([g] * length, [float(tau) for tau in range(length)])

    @pytest.mark.parametrize("regime", list(BacktrackRegime), ids=lambda r: r.value)
    def test_resolvent_raises(self, regime):
        gd = build_global_transition(self.complete_sequence(), regime)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=self.MESSAGE):
                temporal_f_centrality(gd, RESOLVENT, 0.99 / gd.transition_radius)

    def test_classical_katz_raises(self):
        tg = self.complete_sequence()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=self.MESSAGE):
                classical_temporal_katz(tg, 0.99 / tg.max_adjacency_radius)

    def test_exponential_series_stays_in_range(self):
        # on 30 snapshots the powers of tM pass the float64 range at
        # 50 / rho(M), but the terms t^k M^k w / (k+1)! and the sum do not
        gd = build_global_transition(self.complete_sequence(30), BacktrackRegime.FORBID_ALL)
        t = 50 / gd.transition_radius
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = temporal_f_centrality(gd, CoefficientSeries.exponential(), t)
        # the last column of exp([[tM, w], [0, 0]]) holds phi_1(tM) w
        m = gd.M.shape[0]
        augmented = np.zeros((m + 1, m + 1))
        augmented[:m, :m] = t * gd.M.toarray()
        augmented[:m, m] = gd.sqrt_weights
        y = scipy.linalg.expm(augmented)[:m, m]
        want = 1.0 + t * project_to_nodes(gd.temporal.src, gd.sqrt_weights, y, gd.n)
        assert np.max(np.abs(got - want) / want) <= 1e-10


class TestPermittedRange:
    """The permitted range [0, range_end(rho)) of t, from the transition
    radius or, for the classical measure, the largest adjacency radius."""

    def test_zero_transition_is_unbounded(self):
        gd = build_global_transition(two_snapshot_example(), BacktrackRegime.FORBID_ALL)
        assert gd.transition_radius == 0.0 and range_end(gd.transition_radius) == math.inf

    def test_classical_uses_largest_snapshot_radius(self):
        tg = two_snapshot_example()
        assert range_end(tg.max_adjacency_radius) == math.inf  # single edges have radius zero
        tri = WeightedGraph(["1", "2"], [(0, 1, 4.0), (1, 0, 4.0)])
        tg2 = TemporalGraph([tri, tri], [0.0, 1.0])
        assert range_end(tg2.max_adjacency_radius) == pytest.approx(0.25, rel=1e-8)


class TestIngestion:
    def test_single_file_split_by_time(self):
        tg = parse_temporal_edge_list("0 a b 2\n1 b a 3\n0 b c 1\n")
        assert len(tg.snapshots) == 2
        assert tg.node_labels == ["a", "b", "c"]
        assert tg.snapshots[0].m == 2 and tg.snapshots[1].m == 1
        assert tg.timestamps == [0.0, 1.0]

    def test_manifest(self, tmp_path):
        (tmp_path / "s0.txt").write_text("a b 2\n")
        (tmp_path / "s1.txt").write_text("b a 3\nc a 1\n")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("s0.txt\ns1.txt\n")
        tg = load_temporal_manifest(manifest)
        assert len(tg.snapshots) == 2
        assert tg.node_labels == ["a", "b", "c"]
        assert tg.snapshots[1].m == 2

    def test_snapshots_share_one_label_list(self, tmp_path):
        (tmp_path / "s0.txt").write_text("a b 2\n")
        (tmp_path / "s1.txt").write_text("b a 3\nc a 1\n")
        (tmp_path / "s2.txt").write_text("")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("s0.txt\ns1.txt\ns2.txt\n")
        for tg in (parse_temporal_edge_list("0 a b 2\n1 b a 3\n2 b c 1\n"),
                   load_temporal_manifest(manifest)):
            first = tg.snapshots[0].node_labels
            assert all(g.node_labels is first for g in tg.snapshots)

    @pytest.mark.parametrize("text, message", [
        ("0 a b 1\n1 b c x\n", "line 2: bad weight 'x'"),
        ("0 a b 1\n\nt b c 1\n", "line 3: bad time stamp 't'"),
        ("0 a b 1\n1 b\n", "line 2: expected 'time src dst [weight]', got 2 fields"),
        ("0 a b 1 2 3\n", "line 1: expected 'time src dst [weight]', got 6 fields"),
        # a nan stamp made an empty snapshot of its own and lost its edge
        ("0 a b 2\nnan b c 3\n1 c a 1\n", "line 2: bad time stamp 'nan'"),
        ("0 a b 2\n-inf b c 3\n", "line 2: bad time stamp '-inf'"),
    ], ids=["weight", "stamp", "few-fields", "many-fields", "nan-stamp", "inf-stamp"])
    def test_record_errors_name_the_line(self, text, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            parse_temporal_edge_list(text)

    @pytest.mark.parametrize("text, message", [
        ("1 a b -1\n0 c d -2\n", "edge ('a', 'b') has non-positive or non-finite weight -1.0"),
        ("1 a b 1\n1 a b 2\n0 c d -2\n", "duplicate edge ('a', 'b')"),
    ], ids=["weights", "duplicate-before-weight"])
    def test_first_bad_record_in_file_order_across_snapshots(self, text, message):
        # the bad records' snapshots come in the other order than their lines
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_temporal_edge_list(text)

    def test_comma_delimited(self):
        tg = parse_temporal_edge_list("0,a,b,2\n1, b , a ,3  # note\n1,a,c\n")
        assert tg.node_labels == ["a", "b", "c"]
        assert tg.snapshots[0].edges == [(0, 1, 2.0)]
        assert tg.snapshots[1].edges == [(0, 2, 1.0), (1, 0, 3.0)]

    def test_merge_and_loops_within_a_snapshot(self):
        # (0.1 + 0.2) + 0.3 differs from 0.1 + (0.2 + 0.3): the sum keeps file order
        text = "0 a b 0.1\n1 a b 9\n0 a b 0.2\n0 c c 1\n0 a b 0.3\n"
        tg = parse_temporal_edge_list(text, merge="sum", drop_loops=True)
        assert tg.node_labels == ["a", "b", "c"]
        assert tg.snapshots[0].edges == [(0, 1, (0.1 + 0.2) + 0.3)]
        assert tg.snapshots[1].edges == [(0, 1, 9.0)]
        with pytest.raises(ValidationError, match="duplicate"):
            parse_temporal_edge_list(text, drop_loops=True)
        with pytest.raises(ValidationError, match="self-loop"):
            parse_temporal_edge_list(text, merge="sum")

    def test_manifest_comments_blank_lines_and_absolute_path(self, tmp_path):
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        (elsewhere / "s1.txt").write_text("# snapshot 1\nb,a,3\n\nc a\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "s0.txt").write_text("a b 2\n")
        manifest = sub / "manifest.txt"
        manifest.write_text(
            f"# two snapshots\n\ns0.txt  # relative to the manifest\n\n{elsewhere / 's1.txt'}\n"
        )
        tg = load_temporal_manifest(manifest)
        assert tg.node_labels == ["a", "b", "c"]
        assert tg.timestamps == [0.0, 1.0]
        assert tg.snapshots[0].edges == [(0, 1, 2.0)]
        assert tg.snapshots[1].edges == [(1, 0, 3.0), (2, 0, 1.0)]

    def test_empty_manifest(self, tmp_path):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("# nothing listed\n\n")
        with pytest.raises(ValidationError, match="empty temporal manifest"):
            load_temporal_manifest(manifest)

    @pytest.mark.parametrize("body, message", [
        ("a b 1\nb c x\n", "s1.txt line 2: bad weight 'x'"),
        ("a b 1\nb\n", "s1.txt line 2: expected 'src dst [weight]'"),
    ], ids=["weight", "fields"])
    def test_manifest_error_names_file_and_line(self, tmp_path, body, message):
        (tmp_path / "s0.txt").write_text("a b 1\n")
        (tmp_path / "s1.txt").write_text(body)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("s0.txt\ns1.txt\n")
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_temporal_manifest(manifest)

    def test_oracle_matches_on_parsed_input(self):
        tg = parse_temporal_edge_list("0 1 2 2\n1 2 1 3\n")
        gd = build_global_transition(tg, BacktrackRegime.ALLOW_ALL)
        oracle = count_temporal_walks_bruteforce(tg, BacktrackRegime.ALLOW_ALL, 2)
        assert rel_dev(temporal_walk_counts(gd, 1)[1], oracle[2]) <= 1e-12


class TestOnePassIngestion:
    """A temporal file is validated and merged in one pass over all its
    records and cut into snapshots.  On U1 (the benchmark's temporal shape),
    L1 (100 nodes, 1,000 snapshots of 150 edges) and the golden file, the
    snapshots are bit for bit those built one snapshot at a time, and the
    stacked adjacency's radius is that of the snapshots' block diagonal."""

    @pytest.fixture(scope="class", params=["u1", "l1", "golden"])
    def path(self, request, tmp_path_factory):
        if request.param == "golden":
            return GOLDEN_TEMPORAL
        shape = {"u1": (500, 500, 20), "l1": (100, 150, 1000)}[request.param]
        return write_uniform_temporal(tmp_path_factory.mktemp(request.param) / "in.txt", 1, *shape)

    @pytest.fixture(scope="class")
    def per_snapshot(self, path) -> TemporalGraph:
        """The snapshots built one at a time by the constructor, over the
        labels in order of first appearance; records grouped by stamp."""
        records = [line.split() for line in path.read_text(encoding="utf-8").splitlines()
                   if line.strip() and not line.startswith("#")]
        labels = list(dict.fromkeys(label for r in records for label in r[1:3]))
        code = {label: i for i, label in enumerate(labels)}
        groups = {}
        for stamp, s, d, w in records:
            groups.setdefault(float(stamp), []).append((code[s], code[d], float(w)))
        stamps = sorted(groups)
        return TemporalGraph([WeightedGraph(labels, groups[stamp]) for stamp in stamps], stamps)

    @pytest.mark.parametrize("merge", ["reject", "sum"])
    def test_snapshots_equal_per_snapshot_construction(self, path, per_snapshot, merge):
        want = per_snapshot
        got = load_temporal_edge_list(path, merge=merge)
        assert got.node_labels == want.node_labels
        assert np.array(got.timestamps).tobytes() == np.array(want.timestamps).tobytes()
        assert len(got.snapshots) == len(want.snapshots)
        for g, h in zip(got.snapshots, want.snapshots):
            assert g.node_labels is got.node_labels
            for name in ("src", "dst", "weight"):
                assert getattr(g, name).tobytes() == getattr(h, name).tobytes()
        for name in ("offsets", "src", "dst", "weight"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            assert not getattr(got, name).flags.writeable

    def test_max_adjacency_radius_equals_block_diagonal_radius(self, path):
        tg = load_temporal_edge_list(path)
        blocks = sp.block_diag([adjacency(g) for g in tg.snapshots], format="csr")
        want = nbtwalks.temporal._max_radius(blocks, tg.n * np.arange(len(tg.snapshots) + 1))
        assert np.float64(tg.max_adjacency_radius).tobytes() == np.float64(want).tobytes()
