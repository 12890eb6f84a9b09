import numpy as np
import pytest

from nbtwalks.errors import ValidationError
from nbtwalks.graph import WeightedGraph, adjacency, line_graph, parse_edge_list
from nbtwalks.linalg import hadamard, solve_linear, identity, spectral_radius
from nbtwalks.node_level import (
    build_node_system,
    elementwise_pole,
    generating_matrix,
    nbt_katz,
    nbt_walk_counts,
)
from nbtwalks.oracle import count_nbt_walks_bruteforce

from conftest import (
    directed_cycle,
    random_digraph,
    random_undirected,
    rel_dev,
    two_node_reciprocated,
    undirected_path,
)


# Exact zeros of the recurrence that floating-point cancellation leaves
# nonzero, e.g. (v5, v1) at length 3.
RESIDUE_GRAPH = """\
v2 v3 0.953692
v5 v3 0.878601
v2 v4 1.69532
v5 v2 0.324514
v2 v0 0.933021
v4 v3 1.01664
v4 v5 0.490331
v5 v1 1.18105
v3 v0 0.722065
v3 v2 1.53914
v5 v4 0.939135
v0 v3 1.39735
"""


class TestWalkCounts:
    def test_no_rounding_residue_stored(self):
        g = parse_edge_list(RESIDUE_GRAPH)
        counts = nbt_walk_counts(adjacency(g), 4)
        oracle = count_nbt_walks_bruteforce(g, 4)
        for matrix, exact in zip(counts, oracle):
            assert not np.any(matrix.data < 0)
            assert np.array_equal(matrix.toarray() != 0, exact != 0)

    def test_reciprocated_pair_has_no_length_two(self):
        counts = nbt_walk_counts(adjacency(two_node_reciprocated(2.0)), 2)
        assert counts[2].nnz == 0

    def test_path_hand_count(self):
        counts = nbt_walk_counts(adjacency(undirected_path()), 3)
        p2 = counts[2].toarray()
        assert p2[0, 2] == 2.0 and p2[2, 0] == 2.0 and np.count_nonzero(p2) == 2
        assert counts[3].nnz == 0

    def test_cycle_counts_equal_adjacency_powers(self):
        a = adjacency(directed_cycle((1, 2, 3)))
        counts = nbt_walk_counts(a, 5)
        power = np.eye(3)
        dense = a.toarray()
        for k in range(6):
            assert rel_dev(counts[k], power) == 0.0
            power = power @ dense

    def test_matches_oracle_integer_weights(self, rng):
        for _ in range(12):
            g = random_digraph(rng, int(rng.integers(2, 7)), integer=True)
            counts = nbt_walk_counts(adjacency(g), 6)
            oracle = count_nbt_walks_bruteforce(g, 6)
            for k in range(7):
                assert rel_dev(counts[k], oracle[k]) == 0.0

    def test_matches_oracle_real_weights(self, rng):
        for _ in range(12):
            g = random_digraph(rng, int(rng.integers(2, 7)))
            counts = nbt_walk_counts(adjacency(g), 6)
            oracle = count_nbt_walks_bruteforce(g, 6)
            for k in range(7):
                assert rel_dev(counts[k], oracle[k]) <= 1e-12

    def test_bounded_by_walk_counts(self, rng):
        g = random_digraph(rng, 5)
        a = adjacency(g)
        counts = nbt_walk_counts(a, 5)
        power = np.eye(5)
        for k in range(6):
            assert np.all(counts[k].toarray() <= power + 1e-12)
            power = power @ a.toarray()

    def test_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            nbt_walk_counts(adjacency(two_node_reciprocated()), -1)
        with pytest.raises(ValidationError):
            nbt_walk_counts(np.eye(2), 2)  # nonzero diagonal


class TestNodeSystem:
    def test_two_node_closed_form(self):
        w, t = 2.0, 0.2
        system = build_node_system(adjacency(two_node_reciprocated(w)), t)
        factor = 1.0 / (1.0 - t * t * w * w)
        expected = factor * np.array([[1.0, -t * w], [-t * w, 1.0]])
        # the closed form divides through; ours keeps 1 + correction
        assert rel_dev(system, expected) <= 1e-14

    def test_reciprocation_free_reduces_to_katz_system(self, rng):
        g = directed_cycle((1.0, 2.0, 0.5, 1.5))
        a = adjacency(g)
        system = build_node_system(a, 0.3)
        expected = identity(4) - 0.3 * a
        assert rel_dev(system, expected) == 0.0

    def test_t_zero_gives_identity(self, rng):
        g = random_digraph(rng, 5)
        system = build_node_system(adjacency(g), 0.0)
        assert rel_dev(system, np.eye(5)) == 0.0

    def test_pole_error_names_edge(self):
        a = adjacency(two_node_reciprocated(2.0))
        with pytest.raises(ValidationError, match=r"\(0, 1\)|\(1, 0\)"):
            build_node_system(a, 0.5)  # t^2 * 4 = 1

    def test_sign_structure(self, rng):
        for _ in range(10):
            g = random_digraph(rng, 5)
            a = adjacency(g)
            mutual = hadamard(a, a.T)
            peak = float(mutual.data.max()) if mutual.nnz else 0.0
            t = 0.5 / np.sqrt(peak) if peak else 0.4
            m = build_node_system(a, t).toarray()
            assert np.all(np.diag(m) >= 1.0)
            off = m - np.diag(np.diag(m))
            assert np.all(off <= 0.0)

    @pytest.mark.parametrize("fraction", [0.3, 0.9, 0.99])
    def test_matches_the_round_trip_form(self, rng, fraction):
        # N(t) = I + diag(F_- F_+) - tA / (1 - t^2 mu), with F_-+ the maps
        # x / (1 -+ x) of x = t sqrt(mu), built densely.  Both forms round
        # 1 - t sqrt(mu) or 1 - t^2 mu, so near the pole their difference
        # grows like 1 / (1 - (t / pole)^2) ulps.
        eps = np.finfo(np.float64).eps
        for _ in range(6):
            a = adjacency(random_digraph(rng, int(rng.integers(8, 25)), wlo=0.1, whi=5.0))
            t = fraction * elementwise_pole(a)
            dense = a.toarray()
            mu = dense * dense.T
            x = t * np.sqrt(mu)
            f_minus, f_plus = x / (1.0 - x), x / (1.0 + x)
            want = (np.eye(a.shape[0]) + np.diag(np.diag(f_minus @ f_plus))
                    - t * dense / (1.0 - t * t * mu))
            got = build_node_system(a, t).toarray()
            assert np.all(np.abs(got - want) <= 4 * eps * np.abs(want) / (1.0 - fraction**2))


class TestGeneratingMatrix:
    def test_two_node_small_t(self):
        a = adjacency(two_node_reciprocated(2.0))
        phi = generating_matrix(a, 0.1, rho_v=0.0)
        assert rel_dev(phi, np.eye(2) + 0.1 * a.toarray()) <= 1e-14

    def test_radius_is_required(self):
        a = adjacency(two_node_reciprocated(2.0))
        for route in (generating_matrix, nbt_katz):
            with pytest.raises(TypeError, match="rho_v"):
                route(a, 0.1)

    def test_undirected_binary_closed_form(self, rng):
        for _ in range(10):
            g = random_undirected(rng, 6)
            a = adjacency(g)
            d = line_graph(g)
            rho = spectral_radius(d.V)
            t = 0.5 / max(rho, 1.0)
            phi = generating_matrix(a, t, rho_v=rho)
            dense = a.toarray()
            deg = np.diag(np.diag(dense @ dense))
            closed = (1 - t * t) * np.linalg.inv(
                np.eye(g.n) - dense * t + t * t * (deg - np.eye(g.n))
            )
            assert rel_dev(phi, closed) <= 1e-12

    def test_directed_binary_closed_form(self, rng):
        for _ in range(10):
            g = random_digraph(rng, 6, integer=False)
            g = WeightedGraph(g.node_labels, [(s, d, 1.0) for s, d, _ in g.edges])
            a = adjacency(g)
            d = line_graph(g)
            rho = spectral_radius(d.V)
            t = 0.5 / max(rho, 1.0)
            phi = generating_matrix(a, t, rho_v=rho)
            dense = a.toarray()
            s = dense * dense.T
            deg = np.diag(np.diag(dense @ dense))
            closed = (1 - t * t) * np.linalg.inv(
                np.eye(g.n)
                - t * dense
                + t * t * (deg - np.eye(g.n))
                + t ** 3 * (dense - s)
            )
            assert rel_dev(phi, closed) <= 1e-12

    def test_truncation_consistency(self, rng):
        # partial sums converge geometrically at rate t * rho(V); individual
        # steps may wobble (weighted cycles), the geometric rate may not
        tried = 0
        for _ in range(30):
            g = random_digraph(rng, int(rng.integers(3, 7)))
            d = line_graph(g)
            rho = spectral_radius(d.V)
            if rho == 0.0:
                continue
            a = adjacency(g)
            t = 0.5 / rho
            phi = generating_matrix(a, t, rho_v=rho)
            counts = nbt_walk_counts(a, 20)
            partial = np.zeros((g.n, g.n))
            errs = []
            for k, pk in enumerate(counts):
                partial += t ** k * pk.toarray()
                errs.append(np.max(np.abs(phi - partial)))
            scale = np.max(np.abs(phi))
            significant = [k for k in range(len(errs)) if errs[k] > 1e-9 * scale]
            if len(significant) < 6:
                continue
            tried += 1
            # tails of a nonnegative series shrink monotonically
            for e0, e1 in zip(errs[:-1], errs[1:]):
                assert e1 <= e0 * (1 + 1e-12) + 1e-15
            k0, k1 = significant[1], significant[-1]
            rate = (errs[k1] / errs[k0]) ** (1.0 / (k1 - k0))
            assert rate <= 0.55
            if tried >= 6:
                break
        assert tried >= 3


class TestKatz:
    def test_two_node(self):
        x = nbt_katz(adjacency(two_node_reciprocated(2.0)), 0.1, rho_v=0.0)
        assert np.allclose(x, [1.2, 1.2], atol=1e-12)

    def test_empty_graph(self):
        g = WeightedGraph(["a", "b", "c"], [])
        x = nbt_katz(adjacency(g), 0.3, rho_v=0.0)
        assert np.allclose(x, 1.0)

    def test_cycle_equals_classical_katz(self):
        g = directed_cycle((1, 2, 3))
        a = adjacency(g)
        rho = spectral_radius(line_graph(g).V)
        x = nbt_katz(a, 0.1, rho_v=rho)
        y = solve_linear(identity(3) - 0.1 * a, np.ones(3), 1e-12)
        assert np.allclose(x, y, atol=1e-12)

    def test_out_of_range_t_rejected(self):
        g = directed_cycle((1, 2, 3))
        rho = spectral_radius(line_graph(g).V)
        with pytest.raises(ValidationError, match="permitted range"):
            nbt_katz(adjacency(g), 1.0, rho_v=rho)

    def test_scores_at_least_one(self, rng):
        for _ in range(5):
            g = random_digraph(rng, 6)
            d = line_graph(g)
            rho = spectral_radius(d.V)
            t = 0.4 / max(rho, 1.0)
            x = nbt_katz(adjacency(g), t, rho_v=rho)
            assert np.all(x >= 1.0 - 1e-9)

    def test_relabeling_equivariance(self, rng):
        for _ in range(5):
            g = random_digraph(rng, 6)
            d = line_graph(g)
            rho = spectral_radius(d.V)
            t = 0.4 / max(rho, 1.0)
            x = nbt_katz(adjacency(g), t, rho_v=rho)
            perm = rng.permutation(6)
            relabeled = WeightedGraph(
                [g.node_labels[i] for i in perm],
                [(int(np.where(perm == s)[0][0]), int(np.where(perm == d_)[0][0]), w)
                 for s, d_, w in g.edges],
            )
            y = nbt_katz(adjacency(relabeled), t, rho_v=rho)
            assert np.allclose(y, x[perm], rtol=1e-11, atol=1e-11)
