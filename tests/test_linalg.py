import traceback
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import nbtwalks.linalg as linalg
from nbtwalks.edge_level import (
    CentralityPlan,
    CoefficientSeries,
    apply_shifted_series,
    generating_matrix_via_line_graph,
)
from nbtwalks.errors import NumericalError, ValidationError
from nbtwalks.graph import (
    WeightedGraph,
    adjacency,
    binarize,
    line_graph,
    load_edge_list,
    load_matrix_market,
)
from nbtwalks.linalg import (
    as_csr,
    elementwise_map,
    hadamard,
    identity,
    matmul,
    solve_linear,
    spectral_radius,
)
from nbtwalks.node_level import nbt_katz
from nbtwalks.temporal import (
    BacktrackRegime,
    TemporalGraph,
    _diagonal_block,
    build_global_transition,
    classical_temporal_katz,
    load_temporal_edge_list,
    temporal_f_centrality,
)

from conftest import random_digraph, rel_dev, write_uniform_temporal


def test_matmul_identity():
    x = as_csr([[1.0, 2.0], [0.0, 3.0]])
    assert rel_dev(matmul(identity(2), x), x) == 0.0


def test_matmul_single_path():
    a = as_csr([[0, 2], [0, 0]])
    b = as_csr([[0, 0], [3, 0]])
    assert matmul(a, b).toarray().tolist() == [[6, 0], [0, 0]]


def test_matmul_zero():
    z = sp.csr_array((2, 2))
    x = as_csr([[1, 2], [3, 4]])
    assert matmul(z, x).nnz == 0


def test_matmul_dimension_mismatch():
    with pytest.raises(ValidationError):
        matmul(identity(2), identity(3))


def test_matmul_associative_random(rng):
    for _ in range(20):
        a = as_csr(rng.random((4, 5)) * (rng.random((4, 5)) < 0.5))
        b = as_csr(rng.random((5, 3)) * (rng.random((5, 3)) < 0.5))
        c = as_csr(rng.random((3, 6)) * (rng.random((3, 6)) < 0.5))
        assert rel_dev(matmul(matmul(a, b), c), matmul(a, matmul(b, c))) <= 1e-12


def test_hadamard_all_ones_is_identity_map():
    a = as_csr([[0, 2], [3, 0]])
    ones = as_csr(np.ones((2, 2)))
    assert rel_dev(hadamard(a, ones), a) == 0.0


def test_hadamard_transpose_pattern():
    a = as_csr([[0, 2], [3, 0]])
    b = as_csr([[0, 3], [2, 0]])
    assert hadamard(a, b).toarray().tolist() == [[0, 6], [6, 0]]


def test_hadamard_disjoint_patterns():
    a = as_csr([[0, 2], [0, 0]])
    b = as_csr([[0, 0], [3, 0]])
    assert hadamard(a, b).nnz == 0


def test_hadamard_commutes_and_mask_idempotent(rng):
    a = as_csr(rng.random((5, 5)) * (rng.random((5, 5)) < 0.5))
    b = as_csr(rng.random((5, 5)) * (rng.random((5, 5)) < 0.5))
    assert rel_dev(hadamard(a, b), hadamard(b, a)) == 0.0
    mask = a.copy()
    mask.data = np.ones_like(mask.data)
    once = hadamard(b, mask)
    twice = hadamard(once, mask)
    assert rel_dev(once, twice) == 0.0
    with pytest.raises(ValidationError):
        hadamard(a, identity(3))


def test_elementwise_sqrt():
    a = as_csr([[0, 4], [9, 0]])
    assert elementwise_map(a, np.sqrt).toarray().tolist() == [[0, 2], [3, 0]]


def test_elementwise_geometric_factor():
    a = as_csr([[0, 0.5], [0, 0]])
    out = elementwise_map(a, lambda x: x / (1 - x))
    assert out[0, 1] == 1.0


def test_elementwise_pole_raises():
    a = as_csr([[0, 1.0], [0, 0]])
    with pytest.raises(NumericalError, match="pole"):
        elementwise_map(a, lambda x: x / (1 - x))


def test_elementwise_requires_vanishing_at_zero():
    with pytest.raises(ValidationError):
        elementwise_map(identity(2), lambda x: x + 1)
    out = elementwise_map(identity(2), lambda x: x + 1, dense=True)
    assert out.toarray().tolist() == [[2, 1], [1, 2]]


def test_solve_identity(monkeypatch):
    # a tiny order takes the dense path only, and solves exactly
    def no_gmres(*args, **kwargs):
        raise AssertionError("GMRES used")

    monkeypatch.setattr(spla, "gmres", no_gmres)
    b = np.array([1.0, 2.0, 3.0])
    assert solve_linear(identity(3), b).tolist() == b.tolist()


def test_solve_two_by_two():
    m = as_csr([[1, -0.2], [-0.2, 1]])
    x = solve_linear(m, np.array([1.0, 1.0]))
    assert np.allclose(x, [1.25, 1.25], atol=1e-12)


def test_solve_singular_raises():
    m = as_csr([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NumericalError):
        solve_linear(m, np.array([1.0, 0.0]))


def test_solve_residual_verified(rng):
    for _ in range(10):
        n = int(rng.integers(2, 30))
        m = as_csr(np.eye(n) + 0.1 * rng.random((n, n)))
        b = rng.random(n)
        tol = 1e-11
        x = solve_linear(m, b, tol)
        assert np.linalg.norm(m @ x - b) <= tol * np.linalg.norm(b)


def test_solve_iterative_path():
    # force the sparse iterative branch with a strongly diagonally dominant system
    n = 2100
    rng = np.random.default_rng(7)
    off = sp.random_array((n, n), density=3 / n, random_state=rng, format="csr")
    m = as_csr(sp.eye_array(n) * 10.0 + off)
    b = np.ones(n)
    x = solve_linear(m, b, 1e-10)
    assert np.linalg.norm(m @ x - b) <= 1e-10 * np.linalg.norm(b)


def _directed_path_system(n: int, t: float = 1.02) -> sp.csr_array:
    """I - tA for the directed path on n nodes: A is nilpotent (rho = 0), so
    every t is permitted, yet the solution grows like t^n and GMRES(30)
    stalls."""
    a = sp.csr_array((np.ones(n - 1), (np.arange(n - 1), np.arange(1, n))), shape=(n, n))
    return as_csr(identity(n) - t * a)


def _counting(monkeypatch, module, name):
    """Wrap ``module.name`` so that its calls are counted."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_policy_medium_katz_without_dense_factorization(monkeypatch):
    def no_dense(*args, **kwargs):
        raise AssertionError("dense factorization used")

    monkeypatch.setattr(scipy.linalg, "solve", no_dense)
    n = 1000
    g = random_digraph(np.random.default_rng(3), n, p=4 / n)
    a = adjacency(g)
    m = identity(n) - (0.9 / spectral_radius(a)) * a
    b = np.ones(n)
    x = solve_linear(m, b, 1e-10)
    assert np.linalg.norm(m @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_policy_stalled_gmres_falls_back_to_dense(monkeypatch):
    gmres_calls = _counting(monkeypatch, spla, "gmres")
    dense_calls = _counting(monkeypatch, scipy.linalg, "solve")
    m = _directed_path_system(600)
    b = np.ones(600)
    x = solve_linear(m, b, 1e-10)
    assert np.linalg.norm(m @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert (len(gmres_calls), len(dense_calls)) == (1, 1)


def test_policy_stall_above_dense_limit_raises(monkeypatch):
    monkeypatch.setattr(linalg, "ITERATIVE_MAXITER_FACTOR", 1)
    dense_calls = _counting(monkeypatch, scipy.linalg, "solve")
    n = linalg.DENSE_SOLVE_MAX + 100
    with pytest.raises(NumericalError, match="residual") as info:
        solve_linear(_directed_path_system(n), np.ones(n), 1e-10)
    assert dense_calls == []
    assert info.value.estimate is not None and info.value.estimate.shape == (n,)
    assert "GMRES(30) reached" in str(info.value)
    assert traceback.extract_tb(info.value.__traceback__)[-1].name == "solve_linear"


def test_policy_error_names_every_path_tried(monkeypatch):
    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", 1)
    m = as_csr([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NumericalError, match="residual") as info:
        solve_linear(m, np.array([1.0, 0.0]))
    assert "GMRES(30) reached" in str(info.value)
    assert "then dense LU failed" in str(info.value)


def test_radius_zero_matrix():
    assert spectral_radius(sp.csr_array((3, 3))) == 0.0


def test_radius_symmetric_pair():
    assert spectral_radius(as_csr([[0, 2], [2, 0]])) == pytest.approx(2.0, rel=1e-8)


def test_radius_weighted_cycle():
    # cycle weights sqrt(2), sqrt(6), sqrt(3): radius is the cube root of 6
    w = [np.sqrt(2), np.sqrt(6), np.sqrt(3)]
    m = sp.csr_array((w, ([0, 1, 2], [1, 2, 0])), shape=(3, 3))
    assert spectral_radius(m) == pytest.approx(6 ** (1 / 3), rel=1e-7)


def test_radius_nilpotent():
    m = as_csr([[0, 5, 0], [0, 0, 5], [0, 0, 0]])
    assert spectral_radius(m) == 0.0


def test_radius_negative_entries_rejected():
    with pytest.raises(ValidationError):
        spectral_radius(as_csr([[0, -1], [0, 0]]))


def test_radius_block_triangular_against_dense(rng):
    # permutation-similar to block upper-triangular: radius is the max over blocks
    for trial in range(8):
        sizes = rng.integers(2, 6, size=3)
        n = int(sizes.sum())
        dense = np.zeros((n, n))
        start = 0
        for size in sizes:
            block = rng.random((size, size)) * (rng.random((size, size)) < 0.7)
            dense[start:start + size, start:start + size] = block
            if start + size < n:
                dense[start:start + size, start + size:] = rng.random((size, n - start - size))
            start += size
        perm = rng.permutation(n)
        shuffled = dense[np.ix_(perm, perm)]
        want = float(np.max(np.abs(np.linalg.eigvals(shuffled))))
        got = spectral_radius(as_csr(shuffled), tol=1e-10)
        assert got == pytest.approx(want, rel=1e-6, abs=1e-9)


def test_explicit_zeros_do_not_matter():
    m = sp.csr_array(([0.0, 2.0], ([0, 0], [0, 1])), shape=(2, 2))
    assert spectral_radius(m) == 0.0
    assert matmul(m, identity(2)).nnz == 1


# A directed 3-cycle of weight 2: its adjacency, V and temporal M all have
# radius 2, so every permitted range below is [0, 0.5).
CYCLE = WeightedGraph(["a", "b", "c"], [(0, 1, 2.0), (1, 2, 2.0), (2, 0, 2.0)])
ONE_SNAPSHOT = TemporalGraph([CYCLE], [0.0])
RESOLVENT = CoefficientSeries.resolvent()
GATED = {
    "apply_shifted_series": lambda t: apply_shifted_series(
        RESOLVENT, adjacency(CYCLE), t, np.ones(3), rho=2.0),
    "CentralityPlan": lambda t: CentralityPlan(line_graph(CYCLE), RESOLVENT, t, rho_v=2.0),
    "generating_matrix_via_line_graph": lambda t: generating_matrix_via_line_graph(
        line_graph(CYCLE), t, rho_v=2.0),
    "temporal_f_centrality": lambda t: temporal_f_centrality(
        build_global_transition(ONE_SNAPSHOT, "forbid-all"), RESOLVENT, t, rho_m=2.0),
    "classical_temporal_katz": lambda t: classical_temporal_katz(ONE_SNAPSHOT, t),
    "nbt_katz": lambda t: nbt_katz(adjacency(CYCLE), t, rho_v=2.0),
}


@pytest.mark.parametrize("name", sorted(GATED))
def test_every_bound_on_t_is_one_gate(name):
    GATED[name](0.25)
    for t in (0.5, -0.1):
        with pytest.raises(ValidationError, match="permitted range"):
            GATED[name](t)


GOLDEN = Path(__file__).parent / "data" / "golden"


def _golden_matrices():
    """Adjacency and V of the static golden inputs, and every snapshot
    adjacency and diagonal block of M of the temporal one."""
    g300 = load_edge_list(GOLDEN / "g300.txt")
    mtx = load_matrix_market(GOLDEN / "small.mtx", drop_loops=True, merge="sum")
    for name, g in (("g300", g300), ("g300 binarized", binarize(g300)), ("small.mtx", mtx)):
        yield f"{name} A", adjacency(g)
        yield f"{name} V", line_graph(g).V
    tg = load_temporal_edge_list(GOLDEN / "temporal.txt")
    for tau, g in enumerate(tg.snapshots):
        yield f"temporal snapshot {tau} A", adjacency(g)
    for regime in BacktrackRegime:
        gd = build_global_transition(tg, regime)
        for tau, d in enumerate(gd.per_snapshot):
            yield f"temporal {regime.value} block {tau}", _diagonal_block(d, regime)


def test_radius_matches_dense_eigenvalues_to_machine_precision():
    # every printed digit of a radius holds: on small.mtx the bracket alone,
    # certified to 1e-8, got the 10th digit wrong
    for name, m in _golden_matrices():
        dense = float(np.max(np.abs(np.linalg.eigvals(m.toarray())), initial=0.0))
        got = spectral_radius(m)
        assert abs(got - dense) <= 1e-13 * dense, (name, got, dense)


@pytest.fixture(scope="module")
def seed8_temporal(tmp_path_factory):
    """500 nodes, 20 snapshots of 500 edges: a reducible M whose snapshot
    blocks have nearly equal radii."""
    path = write_uniform_temporal(tmp_path_factory.mktemp("seed8") / "t.txt", 8, 500, 500, 20)
    return load_temporal_edge_list(path)


@pytest.mark.parametrize("regime", list(BacktrackRegime), ids=lambda r: r.value)
def test_radius_of_reducible_transition(seed8_temporal, regime):
    gd = build_global_transition(seed8_temporal, regime)
    want = gd.transition_radius
    assert abs(spectral_radius(gd.M) - want) <= 1e-12 * want


def test_radius_is_largest_over_strong_components():
    # a 2-cycle of radius 2 feeding a 3-cycle of radius 6 ** (1/3), a
    # self-loop of weight 1.5 and a node with no cycle
    dense = np.zeros((7, 7))
    dense[0, 1] = dense[1, 0] = 2.0
    dense[1, 2] = 5.0
    dense[2, 3], dense[3, 4], dense[4, 2] = np.sqrt(2), np.sqrt(6), np.sqrt(3)
    dense[4, 5] = dense[5, 5] = 1.5
    dense[5, 6] = 1.0
    assert spectral_radius(as_csr(dense)) == pytest.approx(2.0, rel=1e-15)
    dense[5, 5] = 2.5
    assert spectral_radius(as_csr(dense)) == 2.5
    dense[0, 1] = dense[1, 0] = 0.0
    dense[5, 5] = 0.0
    assert spectral_radius(as_csr(dense)) == pytest.approx(6 ** (1 / 3), rel=1e-14)


def test_radius_does_not_call_itself(monkeypatch):
    calls = []
    real = linalg.spectral_radius

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "spectral_radius", counted)
    dense = np.kron(np.eye(3), np.ones((2, 2)))  # three blocks of radius 2
    dense[1, 2] = dense[3, 4] = 1.0
    assert linalg.spectral_radius(as_csr(dense)) == pytest.approx(2.0, rel=1e-15)
    assert len(calls) == 1


@pytest.mark.parametrize("weight", [1e-300, 1e-170, 1e170, 1e300])
def test_radius_of_block_beyond_the_norms_range(weight):
    # the squares of these entries under- or overflow in a 2-norm
    pair = as_csr(np.array([[0.0, weight], [weight, 0.0]]))
    assert spectral_radius(pair) == pytest.approx(weight, rel=1e-14)


def test_radius_commutes_with_power_of_two_scaling(rng):
    dense = rng.uniform(0.5, 1.5, size=(30, 30)) * (rng.random((30, 30)) < 0.2)
    dense[np.arange(30), np.roll(np.arange(30), 1)] = 1.0   # irreducible
    rho = spectral_radius(as_csr(dense))
    for e in (-900, -1, 1, 900):
        assert spectral_radius(as_csr(np.ldexp(dense, e))) == np.ldexp(rho, e)


class _CountedCSR(sp.csr_array):
    """A CSR array that counts its matrix-vector products."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


def test_radius_of_graded_block_stops_at_the_rounding_floor():
    # a 2-cycle with weights 100 and 0.01: rho = 1, but the shift is the
    # largest entry, so the iteration converges slowly and the bracket's upper
    # end can settle no closer than the rounding of rho + 100.  Certifying
    # 1e-8 alone takes 991 products; running on must stop far short of
    # POWER_MAXITER
    block = _CountedCSR(np.array([[0.0, 100.0], [0.01, 0.0]]))
    rho = linalg._block_radius(block, linalg.POWER_TOL, linalg.POWER_MAXITER)
    assert rho == pytest.approx(1.0, rel=1e-12)
    assert block.products < 2000


def test_radius_failure_names_the_block(rng, monkeypatch):
    # three nodes without a cycle, then a positive block of order 80 at node 3
    n = 83
    dense = np.zeros((n, n))
    dense[0, 1] = dense[1, 2] = dense[2, 3] = 1.0
    dense[3:, 3:] = rng.uniform(0.5, 1.5, size=(80, 80))
    monkeypatch.setattr(linalg, "ARNOLDI_RESTARTS", 0)
    with pytest.raises(NumericalError, match="block of order 80 starting at node 3") as info:
        spectral_radius(as_csr(dense), max_iter=1)
    estimate = info.value.estimate
    assert estimate is not None and f"last estimate {estimate}" in str(info.value)
