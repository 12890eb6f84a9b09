import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from nbtwalks.edge_level import (
    CentralityPlan,
    CoefficientSeries,
    _half_incidences,
    apply_shifted_series,
    f_centrality,
    generating_matrix_via_line_graph,
    nbt_counts_via_line_graph,
    project_to_nodes,
    walk_counts_via_line_graph,
)
from nbtwalks.errors import NumericalError, ValidationError
from nbtwalks.graph import WeightedGraph, _static_chain, adjacency, binarize, line_graph
from nbtwalks.linalg import DENSE_SOLVE_MAX, matmul, range_end, spectral_radius
from nbtwalks.node_level import generating_matrix, nbt_katz, nbt_walk_counts

from conftest import (
    assert_bitwise_equal,
    directed_cycle,
    product_form,
    random_digraph,
    random_oneway,
    rel_dev,
    two_node_reciprocated,
    undirected_path,
)


class TestProjections:
    def test_zero_steps_recovers_adjacency(self, rng):
        g = random_digraph(rng, 5)
        d = line_graph(g)
        assert rel_dev(walk_counts_via_line_graph(d, 0)[0], adjacency(g)) == 0.0
        assert rel_dev(nbt_counts_via_line_graph(d, 0)[0], adjacency(g)) == 0.0

    def test_cycle_three_steps(self):
        d = line_graph(directed_cycle((1, 2, 3)))
        out = walk_counts_via_line_graph(d, 2)[2]
        assert rel_dev(out, 6 * np.eye(3)) <= 1e-15

    def test_one_step_equals_squared_adjacency(self, rng):
        for _ in range(8):
            g = random_digraph(rng, 5)
            d = line_graph(g)
            dense = adjacency(g).toarray()
            assert rel_dev(walk_counts_via_line_graph(d, 1)[1], dense @ dense) <= 1e-13

    def test_reciprocated_pair_projects_to_zero(self):
        d = line_graph(two_node_reciprocated(1.5))
        assert nbt_counts_via_line_graph(d, 1)[1].nnz == 0

    def test_path_projection_matches_hand_count(self):
        d = line_graph(undirected_path())
        p2 = nbt_counts_via_line_graph(d, 1)[1].toarray()
        assert p2[0, 2] == pytest.approx(2.0, abs=1e-14)
        assert p2[2, 0] == pytest.approx(2.0, abs=1e-14)
        assert np.count_nonzero(p2) == 2

    def test_projection_matches_recurrence(self, rng):
        for _ in range(20):
            g = random_digraph(rng, int(rng.integers(2, 7)))
            d = line_graph(g)
            counts = nbt_walk_counts(adjacency(g), 6)
            projected = nbt_counts_via_line_graph(d, 5)
            assert len(projected) == 6
            for k in range(6):
                assert rel_dev(projected[k], counts[k + 1]) <= 1e-12

    @pytest.mark.parametrize("route", [walk_counts_via_line_graph, nbt_counts_via_line_graph])
    def test_every_length_from_one_pass(self, rng, route):
        # entry k is bit for bit the projection L^T Z^1/2 (T (T ... (T Z^1/2 R)))
        # with k factors T, as a separate call for each k would compute it
        for g in [random_digraph(rng, 7) for _ in range(5)] + [undirected_path()]:
            d = line_graph(g)
            transition = d.half_walk_matrix if route is walk_counts_via_line_graph else d.V
            out_half, acc = _half_incidences(d)
            counts = route(d, 4)
            assert len(counts) == 5
            assert_bitwise_equal(counts[0], adjacency(g))
            for k in range(1, 5):
                acc = matmul(transition, acc)
                assert_bitwise_equal(counts[k], matmul(out_half, acc))
        with pytest.raises(ValidationError, match="kmax must be nonnegative"):
            route(d, -1)


class TestProjectToNodes:
    """``project_to_nodes`` and the target ``sqrt_weights`` against the
    incidence products ``L^T sqrt_Z y`` and ``sqrt_Z R 1`` of ``product_form``,
    bit for bit."""

    @staticmethod
    def with_sink(rng) -> WeightedGraph:
        # the last node has no out-edge, so its projection is a padded zero
        g = random_digraph(rng, 12)
        return WeightedGraph(g.node_labels + ["sink"], g.edges + [(0, g.n, 1.5)])

    def test_equals_the_incidence_products(self, rng):
        d = line_graph(self.with_sink(rng))
        ref = product_form(d.graph)
        y = rng.lognormal(0.0, 1.0, size=d.m)
        assert np.array_equal(project_to_nodes(d.graph.src, d.sqrt_weights, y, d.n),
                              ref["L"].T @ (ref["sqrt_Z"] @ y))
        assert np.array_equal(d.sqrt_weights, ref["sqrt_Z"] @ (ref["R"] @ np.ones(d.n)))

    @pytest.mark.parametrize("series", [
        CoefficientSeries.resolvent(),
        CoefficientSeries.exponential(),
        CoefficientSeries.custom([1.0, 1.0, 0.5, 0.25]),
    ], ids=["resolvent", "exponential", "custom"])
    def test_f_centrality_equals_the_incidence_formula(self, rng, series):
        d = line_graph(self.with_sink(rng))
        ref = product_form(d.graph)
        rho = spectral_radius(d.V)
        t = 0.5 / rho
        y = apply_shifted_series(series, d.V, t, ref["sqrt_Z"] @ (ref["R"] @ np.ones(d.n)),
                                 1e-10, rho=rho)
        want = series.c0 * np.ones(d.n) + t * (ref["L"].T @ (ref["sqrt_Z"] @ y))
        plan = CentralityPlan(d, series, t, rho_v=rho)
        assert np.array_equal(f_centrality(plan), want)


class TestShiftedSeries:
    def test_resolvent_identity_matrix(self):
        w = np.array([2.0, 3.0])
        out = apply_shifted_series(CoefficientSeries.resolvent(), sp.csr_array((2, 2)), 0.7, w,
                                   rho=0.0)
        assert np.allclose(out, w, atol=1e-14)

    def test_exponential_removable_singularity(self):
        w = np.array([2.0, 3.0])
        out = apply_shifted_series(CoefficientSeries.exponential(), sp.csr_array((2, 2)), 0.7, w,
                                   rho=0.0)
        assert np.allclose(out, w, atol=1e-14)

    def test_resolvent_nilpotent(self):
        m = sp.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]]))
        out = apply_shifted_series(
            CoefficientSeries.resolvent(), m, 0.5, np.array([1.0, 1.0]), rho=0.0
        )
        assert np.allclose(out, [1.5, 1.0], atol=1e-14)

    def test_exponential_matches_dense_series(self, rng):
        m = sp.csr_array(rng.random((5, 5)) * (rng.random((5, 5)) < 0.5))
        w = rng.random(5)
        t = 0.3
        out = apply_shifted_series(CoefficientSeries.exponential(), m, t, w, tol=1e-13,
                                   rho=spectral_radius(m))
        dense = (t * m.toarray())
        want = np.zeros(5)
        acc = w.copy()
        fact = 1.0
        for k in range(60):
            want += acc / fact
            acc = dense @ acc
            fact *= k + 2
        assert np.allclose(out, want, rtol=1e-12, atol=1e-12)

    def test_custom_polynomial(self):
        # f(x) = 1 + 2x + 3x^2: shifted series is 2 + 3x
        series = CoefficientSeries.custom([1.0, 2.0, 3.0])
        m = sp.csr_array(np.array([[0.0, 1.0], [0.0, 0.0]]))
        out = apply_shifted_series(series, m, 0.5, np.array([1.0, 1.0]), rho=0.0)
        # 2*w + 3*(0.5*M)w = [2+1.5, 2]
        assert np.allclose(out, [3.5, 2.0], atol=1e-14)

    def test_custom_tail_bound_unattainable(self):
        series = CoefficientSeries.custom([1.0, 1.0], tail_bound=1e-3)
        with pytest.raises(NumericalError, match="tail bound"):
            apply_shifted_series(series, sp.csr_array((2, 2)), 0.1, np.ones(2), tol=1e-10,
                                 rho=0.0)

    def test_radius_violation(self):
        m = sp.csr_array(np.array([[0.0, 2.0], [2.0, 0.0]]))
        with pytest.raises(ValidationError, match="converge"):
            apply_shifted_series(CoefficientSeries.resolvent(), m, 0.6, np.ones(2), rho=2.0)


class TestCentrality:
    def test_matches_node_route(self, rng):
        for _ in range(15):
            g = random_digraph(rng, int(rng.integers(2, 7)))
            d = line_graph(g)
            rho = spectral_radius(d.V)
            if rho == 0.0:
                continue
            for frac in (0.25, 0.5, 0.9):
                t = frac / rho
                plan = CentralityPlan(d, CoefficientSeries.resolvent(), t, rho_v=rho)
                edge = f_centrality(plan, tol=1e-12)
                node = nbt_katz(adjacency(g), t, tol=1e-12, rho_v=rho)
                assert np.allclose(edge, node, rtol=1e-10, atol=1e-10)

    def test_empty_graph_gives_constant(self):
        g = WeightedGraph(["a", "b", "c"], [])
        d = line_graph(g)
        plan = CentralityPlan(d, CoefficientSeries.resolvent(), 0.4, rho_v=0.0)
        assert np.allclose(f_centrality(plan), 1.0)
        plan = CentralityPlan(d, CoefficientSeries.custom([2.5, 1.0]), 0.4, rho_v=0.0)
        assert np.allclose(f_centrality(plan), 2.5)

    def test_two_node_example(self):
        d = line_graph(two_node_reciprocated(2.0))
        plan = CentralityPlan(d, CoefficientSeries.resolvent(), 0.1, rho_v=spectral_radius(d.V))
        assert np.allclose(f_centrality(plan), [1.2, 1.2], atol=1e-12)

    def test_plan_rejects_out_of_range(self):
        d = line_graph(directed_cycle((1, 2, 3)))
        with pytest.raises(ValidationError, match="permitted range"):
            CentralityPlan(d, CoefficientSeries.resolvent(), 1.0, rho_v=spectral_radius(d.V))

    def test_radius_is_required(self):
        d = line_graph(two_node_reciprocated(2.0))
        with pytest.raises(TypeError, match="rho_v"):
            CentralityPlan(d, CoefficientSeries.resolvent(), 0.1)
        with pytest.raises(TypeError, match="rho_v"):
            generating_matrix_via_line_graph(d, 0.1)
        with pytest.raises(TypeError, match="rho"):
            apply_shifted_series(CoefficientSeries.resolvent(), d.V, 0.1, d.sqrt_weights)


class TestGeneratingViaLineGraph:
    def test_t_zero(self, rng):
        d = line_graph(random_digraph(rng, 4))
        phi = generating_matrix_via_line_graph(d, 0.0, rho_v=spectral_radius(d.V))
        assert rel_dev(phi, np.eye(4)) == 0.0

    def test_no_reciprocation_is_plain_resolvent(self, rng):
        for _ in range(8):
            g = random_oneway(rng, 5)
            d = line_graph(g)
            rho_a = spectral_radius(adjacency(g))
            t = 0.3 if rho_a == 0 else 0.3 / rho_a
            phi = generating_matrix_via_line_graph(d, t, rho_v=spectral_radius(d.V))
            want = np.linalg.inv(np.eye(5) - t * adjacency(g).toarray())
            assert rel_dev(phi, want) <= 1e-12

    def test_matches_node_route(self, rng):
        for _ in range(10):
            g = random_digraph(rng, 5)
            d = line_graph(g)
            rho = spectral_radius(d.V)
            if rho == 0.0:
                continue
            t = 0.5 / rho
            a = generating_matrix(adjacency(g), t, rho_v=rho)
            b = generating_matrix_via_line_graph(d, t, rho_v=rho)
            assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(a)))

    def test_rejects_t_at_radius(self):
        d = line_graph(directed_cycle((1, 1, 1)))
        with pytest.raises(ValidationError):
            generating_matrix_via_line_graph(d, 1.0, rho_v=spectral_radius(d.V))

    def test_limited_to_dense_order(self):
        d = line_graph(directed_cycle((1.0,) * (DENSE_SOLVE_MAX + 1)))
        with pytest.raises(ValidationError, match="limited to 2000 edges"):
            generating_matrix_via_line_graph(d, 0.5, rho_v=1.0)  # the unit cycle's radius

    def test_singular_resolvent_raises(self):
        # unit 3-cycle at t = 1: I - tV is singular; a false radius lets t
        # past the range gate
        d = line_graph(directed_cycle((1.0, 1.0, 1.0)))
        with pytest.raises(NumericalError):
            generating_matrix_via_line_graph(d, 1.0, rho_v=0.5)


class TestSeriesPastTheFloat64Range:
    """On the complete unit-weight digraph on 6 nodes, rho(V) = 4, the powers
    of tV pass the float64 range at t = 100 / rho(V) within the series'
    order.  A series whose sum passes it too raises a NumericalError that
    says so, and lets no warning escape; it returned inf and nan scores with
    a warning.  The exponential's sum, about 3.4e43, stays in range."""

    @staticmethod
    def plan(series, t=25.0) -> CentralityPlan:
        g = WeightedGraph([str(i) for i in range(6)],
                          [(i, j, 1.0) for i in range(6) for j in range(6) if i != j])
        d = line_graph(g)
        return CentralityPlan(d, series, t, rho_v=spectral_radius(d.V))

    def test_exponential_stays_in_range(self):
        plan = self.plan(CoefficientSeries.exponential())
        d, t = plan.decomposition, plan.t
        # the last column of exp([[tV, w], [0, 0]]) holds phi_1(tV) w
        augmented = np.zeros((d.m + 1, d.m + 1))
        augmented[:d.m, :d.m] = t * d.V.toarray()
        augmented[:d.m, d.m] = d.sqrt_weights
        y = scipy.linalg.expm(augmented)[:d.m, d.m]
        want = 1.0 + t * project_to_nodes(d.graph.src, d.sqrt_weights, y, d.n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = f_centrality(plan)
        assert np.max(np.abs(got - want) / want) <= 1e-10

    @pytest.mark.parametrize("t", [163.0, 175.0])
    def test_exponential_order_stays_in_range(self, t):
        # V 1 = 4 * 1, so every score is 1 + (5/4)(e^{4t} - 1), 1.9e283 at
        # t = 163; the truncation order's scalar term a^k / (k+1)!, with
        # a = 1.1 t rho(V), overflowed from a of about 715 and the call raised
        want = 1.0 + 1.25 * math.expm1(4.0 * t)
        got = f_centrality(self.plan(CoefficientSeries.exponential(), t))
        assert np.max(np.abs(got - want) / want) <= 1e-10

    @pytest.mark.parametrize("series", [CoefficientSeries.custom(np.ones(200))],
                             ids=["custom"])
    def test_raises(self, series):
        plan = self.plan(series)
        assert plan.rho_v == 4.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=rf"^the {series.kind} series at t = 25 "
                                                     r"exceeds the float64 range$"):
                f_centrality(plan)


class TestRadius:
    def test_path_is_unbounded(self):
        assert range_end(spectral_radius(line_graph(undirected_path()).V)) == math.inf

    def test_cycle_radius(self):
        r = range_end(spectral_radius(line_graph(directed_cycle((1, 2, 3))).V))
        assert r == pytest.approx(6 ** (-1 / 3), rel=1e-7)

    def test_binarized_half_power_is_itself(self, rng):
        for _ in range(5):
            g = binarize(random_digraph(rng, 6))
            d = line_graph(g)
            b = _static_chain(g, g.weight, prune=True)
            assert rel_dev(d.V, b) == 0.0
            assert spectral_radius(d.V) == pytest.approx(
                spectral_radius(b), rel=1e-9, abs=1e-12
            )

    def test_pruning_cannot_increase_radius(self, rng):
        for _ in range(10):
            g = random_digraph(rng, 6)
            d = line_graph(g)
            rho_pruned = spectral_radius(d.V)
            rho_full = spectral_radius(d.half_walk_matrix)
            assert rho_pruned <= rho_full * (1 + 1e-7) + 1e-12
