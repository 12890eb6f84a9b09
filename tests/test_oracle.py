import numpy as np
import pytest

from nbtwalks.errors import ExplosionGuardError
from nbtwalks.graph import WeightedGraph
from nbtwalks.oracle import count_nbt_walks_bruteforce, count_temporal_walks_bruteforce
from nbtwalks.temporal import BacktrackRegime, TemporalGraph

from conftest import two_node_reciprocated, undirected_path


def test_two_node_reciprocated_dies_after_one_step():
    counts = count_nbt_walks_bruteforce(two_node_reciprocated(2.0), 3)
    assert np.array_equal(counts[0], np.eye(2))
    assert counts[1][0, 1] == 2.0
    assert not counts[2].any()
    assert not counts[3].any()


def test_path_weights_multiply():
    counts = count_nbt_walks_bruteforce(undirected_path(), 3)
    p2 = counts[2]
    assert p2[0, 2] == 2.0 and p2[2, 0] == 2.0
    assert np.count_nonzero(p2) == 2
    assert not counts[3].any()


def test_unweighted_triangle_closed_walks():
    g = WeightedGraph(
        ["a", "b", "c"],
        [(0, 1, 1.0), (1, 0, 1.0), (0, 2, 1.0), (2, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)],
    )
    counts = count_nbt_walks_bruteforce(g, 3)
    # two non-backtracking closed triangles per start node (one per rotation)
    assert np.allclose(np.diag(counts[3]), 2.0)


def test_explosion_guard():
    n = 9
    edges = [(i, j, 1.0) for i in range(n) for j in range(n) if i != j]
    g = WeightedGraph([str(i) for i in range(n)], edges)
    with pytest.raises(ExplosionGuardError):
        count_nbt_walks_bruteforce(g, 10)


def _two_snapshot_example():
    g1 = WeightedGraph(["1", "2"], [(0, 1, 2.0)])
    g2 = WeightedGraph(["1", "2"], [(1, 0, 3.0)])
    return TemporalGraph([g1, g2], [0.0, 1.0])


def test_temporal_forbid_all_blocks_the_reversal():
    out = count_temporal_walks_bruteforce(_two_snapshot_example(), BacktrackRegime.FORBID_ALL, 2)
    assert not out[2].any()
    assert out[1][0, 0] == 2.0 and out[1][1, 1] == 3.0


def test_temporal_allow_all_counts_the_reversal():
    out = count_temporal_walks_bruteforce(_two_snapshot_example(), BacktrackRegime.ALLOW_ALL, 2)
    assert out[2][0, 1] == 6.0
    assert np.count_nonzero(out[2]) == 1


def test_single_snapshot_forbid_space_matches_static(rng):
    from conftest import random_digraph

    g = random_digraph(rng, 4)
    tg = TemporalGraph([g], [0.0])
    out = count_temporal_walks_bruteforce(tg, BacktrackRegime.FORBID_SPACE, 3)
    # project edge-level counts to node level and compare with the static count
    static = count_nbt_walks_bruteforce(g, 3)
    for length in (1, 2, 3):
        node_level = np.zeros((g.n, g.n))
        for e in range(g.m):
            for f in range(g.m):
                node_level[g.src[e], g.dst[f]] += out[length][e, f]
        assert np.allclose(node_level, static[length], rtol=1e-12, atol=1e-12)
