from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from nbtwalks.crosschecks import _safe_t
from nbtwalks.errors import NumericalError, ValidationError
from nbtwalks.graph import (
    WeightedGraph,
    _adjacency,
    _line_graph,
    adjacency,
    line_graph,
    load_edge_list,
    parse_edge_list,
)
from nbtwalks.linalg import (
    _CSR,
    as_csr,
    identity,
    identity_minus,
    solve_linear,
    spectral_radius,
)
from nbtwalks.node_level import (
    _RESIDUE_ULPS,
    build_node_system,
    elementwise_pole,
    generating_matrix,
    nbt_katz,
    nbt_walk_counts,
)
from nbtwalks.oracle import count_nbt_walks_bruteforce

from conftest import (
    assert_bitwise_equal,
    directed_cycle,
    random_digraph,
    random_undirected,
    rel_dev,
    two_node_reciprocated,
    undirected_path,
    uniform_edges,
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


def _scipy_walk_counts(a, kmax: int) -> list:
    """The walk-count recurrence in scipy's own sparse arithmetic, the
    reference of the numpy one: ``@``, ``multiply``, ``+`` and ``-``, the
    product with ``sp.diags(d)``, ``sum(axis=1)`` and the ``_RESIDUE_ULPS``
    rule, each result canonical."""

    def canonical(m) -> sp.csr_array:
        m = sp.csr_array(m)
        m.eliminate_zeros()
        m.sort_indices()
        return m

    a = canonical(as_csr(a))
    n = a.shape[0]
    counts = [canonical(sp.identity(n, format="csr")), a]
    mutual = canonical(a.multiply(a.T))
    odd_coeffs, even_diags, mutual_pow = [a], [], None
    for k in range(2, kmax + 1):
        if k % 2 == 0:
            mutual_pow = mutual if mutual_pow is None else canonical(mutual_pow.multiply(mutual))
            even_diags.append(np.asarray(mutual_pow.sum(axis=1)).ravel())
        else:
            odd_coeffs.append(canonical(a.multiply(mutual_pow)))
        forward = sp.csr_array((n, n))
        for h, coeff in enumerate(odd_coeffs):
            if 2 * h + 1 <= k:
                forward = canonical(forward + coeff @ counts[k - 2 * h - 1])
        acc, back = forward, sp.csr_array((n, n))
        for h, d in enumerate(even_diags, start=1):
            if 2 * h <= k:
                term = canonical(sp.diags(d) @ counts[k - 2 * h])
                acc, back = canonical(acc - term), canonical(back + term)
        bound = (forward + back) * (_RESIDUE_ULPS * k * np.finfo(np.float64).eps)
        counts.append(canonical(acc.multiply(abs(acc) > bound)))
    return counts


def _reciprocated_graph(seed: int, weights: str) -> WeightedGraph:
    """A seeded loop-free digraph of 60 nodes on 150 node pairs, about 70% of
    them reciprocated, with ``weights`` "binary", "integer" (1 to 3) or
    "lognormal" (sigma 3)."""
    rng = np.random.default_rng(seed)
    n = 60
    pairs = set()
    while len(pairs) < 150:
        i, j = (int(x) for x in rng.choice(n, 2, replace=False))
        pairs.add((min(i, j), max(i, j)))
    edges = []
    for i, j in sorted(pairs):
        if rng.random() < 0.7:
            edges += [(i, j), (j, i)]
        else:
            edges.append((i, j) if rng.random() < 0.5 else (j, i))
    draw = {"binary": lambda size: np.ones(size),
            "integer": lambda size: rng.integers(1, 4, size).astype(float),
            "lognormal": lambda size: rng.lognormal(0.0, 3.0, size)}[weights]
    return WeightedGraph([str(i) for i in range(n)],
                         [(s, d, w) for (s, d), w in zip(edges, draw(len(edges)).tolist())])


class TestWalkCountsMatchScipy:
    """``nbt_walk_counts`` returns the tables of the recurrence in scipy's
    arithmetic, pattern and value bits, from either container."""

    @staticmethod
    def _check(g: WeightedGraph, kmax: int) -> None:
        want = _scipy_walk_counts(adjacency(g), kmax)
        for a in (_adjacency(g), adjacency(g)):
            got = nbt_walk_counts(a, kmax)
            assert len(got) == kmax + 1
            for matrix, expected in zip(got, want):
                assert type(matrix) is type(a)
                assert_bitwise_equal(matrix, expected)

    @pytest.mark.parametrize("weights", ["binary", "integer", "lognormal"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_reciprocated_graphs_to_length_8(self, seed, weights):
        self._check(_reciprocated_graph(seed, weights), 8)

    def test_underflowing_step_back_coefficients_to_length_8(self):
        # a new reciprocated pair of weight 1e-50: mu^o4 underflows on it,
        # so the step-back coefficients lose entries as the depth grows
        g = _reciprocated_graph(0, "lognormal")
        pairs = {(s, d) for s, d, _ in g.edges}
        i, j = next((i, j) for i in range(g.n) for j in range(i + 1, g.n)
                    if (i, j) not in pairs and (j, i) not in pairs)
        g = WeightedGraph(g.node_labels, g.edges + [(i, j, 1e-50), (j, i, 1e-50)])
        a = adjacency(g)
        mutual = a.multiply(a.T)
        assert [np.count_nonzero(mutual.data ** h) for h in range(1, 5)] == [196, 196, 196, 194]
        self._check(g, 8)

    def test_g300_to_length_6(self):
        self._check(load_edge_list(Path(__file__).parent / "data" / "golden" / "g300.txt"), 6)


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

    def test_t_that_rounds_to_the_pole_raises(self):
        # t one ulp below the pole 1 / sqrt(1.5), where t^2 * 1.5 rounds to 1
        a = adjacency(WeightedGraph(["a", "b"], [(0, 1, 1.0), (1, 0, 1.5)]))
        t = np.nextafter(elementwise_pole(a), 0.0)
        with pytest.raises(NumericalError, match=r"elementwise pole of the reciprocated pair \(0, 1\)"):
            build_node_system(a, t)

    def test_sign_structure(self, rng):
        for _ in range(10):
            g = random_digraph(rng, 5)
            a = adjacency(g)
            mutual = a.multiply(a.T)
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


def _scipy_node_system(a, t: float) -> sp.csr_array:
    """N(t) by scipy's sparse assembly, the reference of the numpy builder:
    ``identity(n) + diag(g.sum(axis=1)) - (t * A + t * (A o g))``, g the
    elementwise map of mu = A o A^T."""
    a = as_csr(a)
    n = a.shape[0]
    mutual = sp.csr_array(a.multiply(a.T))
    mutual.eliminate_zeros()
    g = mutual.copy()
    g.data = (t * t * g.data) / (1.0 - t * t * g.data)
    g.eliminate_zeros()
    off = sp.csr_array(t * a + t * sp.csr_array(a.multiply(g)))
    rows = np.arange(n)
    diagonal = sp.csr_array((np.asarray(g.sum(axis=1)).ravel(), (rows, rows)), shape=(n, n))
    out = sp.csr_array(sp.identity(n, format="csr") + diagonal - off)
    out.eliminate_zeros()
    out.sort_indices()
    return out


def _graded_graph(seed: int) -> WeightedGraph:
    """A seeded digraph of 300 nodes and about 1,200 edges with graded
    weights (log-normal, sigma 3), three reciprocated pairs whose weight
    product underflows to zero, and a hub reciprocated with 20 nodes, so
    that a row of A o A^T sums 20 terms."""
    rng = np.random.default_rng(seed)
    src, dst, _ = uniform_edges(rng, 300, 1200)
    edges = dict(zip(zip(src.tolist(), dst.tolist()), rng.lognormal(0.0, 3.0, src.size).tolist()))
    for i in range(3):
        edges[(250 + i, 260 + i)] = edges[(260 + i, 250 + i)] = 1e-200
    for j in range(1, 21):
        edges[(0, j)], edges[(j, 0)] = rng.lognormal(0.0, 3.0, 2).tolist()
    return WeightedGraph([str(i) for i in range(300)], [(s, d, w) for (s, d), w in edges.items()])


class TestBuildersMatchScipy:
    """The numpy builders store what scipy's assembly stores, bit for bit,
    and keep the container of their input."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_node_system(self, seed):
        g = _graded_graph(seed)
        a, c = adjacency(g), _adjacency(g)
        pole = elementwise_pole(a)
        mutual = as_csr(a.multiply(a.T))
        mutual.eliminate_zeros()
        pattern = (a > 0).astype(float)
        assert mutual.nnz < pattern.multiply(pattern.T).nnz   # some products underflow
        assert pole == elementwise_pole(c) == 1.0 / np.sqrt(mutual.data.max())
        for fraction in (0.0, 0.3, 0.9, 0.999, 1.0 - 1e-12):
            t = fraction * pole
            want = _scipy_node_system(a, t)
            got_scipy, got_numpy = build_node_system(a, t), build_node_system(c, t)
            assert isinstance(got_scipy, sp.csr_array) and isinstance(got_numpy, _CSR)
            assert_bitwise_equal(got_scipy, want)
            assert_bitwise_equal(as_csr(got_numpy), want)

    def test_node_system_of_bench_shapes(self, rng):
        src, dst, weight = uniform_edges(rng, 2000, 8000)
        g = WeightedGraph([str(i) for i in range(2000)],
                          zip(src.tolist(), dst.tolist(), weight.tolist()))
        a = adjacency(g)
        t = 0.5 / spectral_radius(line_graph(g).V)
        assert_bitwise_equal(as_csr(build_node_system(_adjacency(g), t)), _scipy_node_system(a, t))

    def test_int32_columns_of_a_large_order(self):
        # n * n passes the int32 range: an int32 column times n must not
        # wrap, or the heavy pair's reversal is missed
        n = 50_000
        g = WeightedGraph([str(i) for i in range(n)],
                          [(n - 1, n - 2, 4.0), (n - 2, n - 1, 4.0), (0, 1, 1.0), (1, 0, 1.0)])
        a = adjacency(g)
        narrow = sp.csr_array((a.data, a.indices.astype(np.int32), a.indptr.astype(np.int32)),
                              shape=a.shape)
        assert elementwise_pole(narrow) == 0.25
        assert_bitwise_equal(build_node_system(narrow, 0.2), _scipy_node_system(a, 0.2))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_identity_minus(self, seed):
        g = _graded_graph(seed)
        for m in (adjacency(g), line_graph(g).V):
            # at t = 1e-320 some products t * m underflow to zero
            for t in (0.0, 0.5 / spectral_radius(m), 1e-320):
                want = sp.identity(m.shape[0], format="csr") - t * m
                container = _CSR((m.data, m.indices, m.indptr), shape=m.shape)
                assert isinstance(identity_minus(t, m), sp.csr_array)
                assert_bitwise_equal(identity_minus(t, m), want)
                assert_bitwise_equal(as_csr(identity_minus(t, container)), want)
        assert_bitwise_equal(as_csr(identity_minus(0.25, _line_graph(g).V)),
                             sp.identity(g.m, format="csr") - 0.25 * line_graph(g).V)

    def test_identity_minus_with_a_diagonal(self, rng):
        # entries on the diagonal merge with the identity, and 1 - t * m
        # that is exactly zero is not stored
        dense = (rng.random((30, 30)) < 0.2) * rng.choice([0.5, 1.0, 2.0], size=(30, 30))
        np.fill_diagonal(dense, rng.choice([0.0, 2.0, 4.0], size=30))
        m = as_csr(dense)
        want = sp.identity(30, format="csr") - 0.5 * m
        assert_bitwise_equal(identity_minus(0.5, m), want)
        assert (want.diagonal() == 0).any()


class TestGeneratingMatrix:
    def test_two_node_small_t(self):
        a = adjacency(two_node_reciprocated(2.0))
        phi = generating_matrix(a, 0.1, rho_v=0.0)
        assert rel_dev(phi, np.eye(2) + 0.1 * a.toarray()) <= 1e-14

    def test_is_the_dense_inverse_bit_for_bit(self):
        # one dense solve against the identity gives numpy's inverse exactly,
        # on the hand fixtures and the oracle-check input g300 (n = 296), at
        # the t oracle-check takes
        g300 = load_edge_list(Path(__file__).parent / "data" / "golden" / "g300.txt")
        for g in (two_node_reciprocated(), undirected_path(), directed_cycle(), g300):
            a = adjacency(g)
            rho = spectral_radius(line_graph(g).V)
            t = _safe_t(a, rho)
            phi = generating_matrix(a, t, rho_v=rho)
            want = np.linalg.inv(build_node_system(a, t).toarray())
            assert np.array_equal(phi.view(np.int64), want.view(np.int64))

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
