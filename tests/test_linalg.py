import re
import traceback
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.csgraph
import scipy.sparse.linalg as spla

import nbtwalks.graph as graph
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
from nbtwalks.node_level import build_node_system, nbt_katz
from nbtwalks.temporal import (
    BacktrackRegime,
    TemporalGraph,
    build_global_transition,
    classical_temporal_katz,
    load_temporal_edge_list,
    temporal_f_centrality,
)

from conftest import (
    assert_bitwise_equal,
    diag_matrix,
    random_digraph,
    rel_dev,
    uniform_edges,
    write_uniform_temporal,
)


def test_matmul_identity():
    x = as_csr([[1.0, 2.0], [0.0, 3.0]])
    assert rel_dev(matmul(identity(2), x), x) == 0.0


def test_as_csr_leaves_a_non_canonical_input_unchanged():
    # unsorted indices and a duplicate in row 0: canonicalising must copy
    # first, because sp.csr_array shares the caller's arrays
    data, indices, indptr = np.array([1.0, 2.0, 3.0]), np.array([1, 0, 1]), np.array([0, 3, 3])
    m = sp.csr_array((data, indices, indptr), shape=(2, 2))
    out = as_csr(m)
    assert out.toarray().tolist() == [[2.0, 4.0], [0.0, 0.0]]
    assert out.has_canonical_format and out.has_sorted_indices
    assert m.data.tolist() == [1.0, 2.0, 3.0]
    assert m.indices.tolist() == [1, 0, 1]
    assert m.indptr.tolist() == [0, 3, 3]
    for array in (data, indices, indptr):
        array.flags.writeable = False
    read_only = sp.csr_array((data, indices, indptr), shape=(2, 2))
    assert as_csr(read_only).toarray().tolist() == [[2.0, 4.0], [0.0, 0.0]]


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


# The numpy sparse arithmetic against scipy's, bit for bit: the same pattern,
# index values and data bits, whichever container and index width.

def _sparse(rng, shape, density, index, kind):
    """A canonical random CSR array of ``shape`` with about ``density`` of
    its cells stored and index arrays of dtype ``index``.  ``kind`` picks the
    values: "normal", "integer" (small integers, whose sums cancel to exactly
    0.0) or "tiny" (+-1e-200 and +-1, whose products underflow to +-0.0)."""
    m, n = shape
    cells = rng.random(shape) < density
    cells[rng.random(m) < 0.2] = False      # empty rows
    cells[:, rng.random(n) < 0.2] = False   # empty columns
    rows, cols = np.nonzero(cells)
    if kind == "normal":
        values = rng.standard_normal(rows.size)
    elif kind == "integer":
        values = rng.integers(-2, 3, rows.size).astype(float)
        values[values == 0] = 1.0
    else:
        values = rng.choice([-1e-200, 1e-200, -1.0, 1.0], rows.size)
    out = sp.csr_array((values, (rows, cols)), shape=shape)
    out.indices, out.indptr = out.indices.astype(index), out.indptr.astype(index)
    return out


def _scipy_result(m) -> sp.csr_array:
    """A scipy sparse result as scipy stores it canonically."""
    m = sp.csr_array(m)
    m.eliminate_zeros()
    m.sort_indices()
    return m


def _as_container(m, container):
    return _container(m) if container == "_CSR" else m


@pytest.mark.parametrize("container", ["_CSR", "scipy"])
@pytest.mark.parametrize("index", [np.int32, np.int64])
@pytest.mark.parametrize("kind", ["normal", "integer", "tiny"])
def test_sparse_arithmetic_matches_scipy_bit_for_bit(container, index, kind):
    rng = np.random.default_rng([20240911, np.dtype(index).itemsize, len(kind)])
    for _ in range(25):
        m, k, n = (int(x) for x in rng.integers(0, 12, 3))
        density = float(rng.choice([0.05, 0.3, 0.9]))
        a, b = _sparse(rng, (m, k), density, index, kind), _sparse(rng, (k, n), density, index, kind)
        c, d = _sparse(rng, (m, k), density, index, kind), _sparse(rng, (m, k), density, index, kind)
        x, y = _as_container(a, container), _as_container(b, container)
        u, v = _as_container(c, container), _as_container(d, container)
        product = matmul(x, y)
        assert type(product) is type(x)
        assert_bitwise_equal(product, _scipy_result(a @ b))
        assert_bitwise_equal(hadamard(u, v), _scipy_result(c.multiply(d)))
        assert_bitwise_equal(linalg._sum(u, v), c + d)
        assert_bitwise_equal(linalg._sum(u, v, -1.0), c - d)
        assert_bitwise_equal(linalg._transpose(x), _scipy_result(a.T))
        scale_rows, scale_columns = rng.standard_normal(m), rng.standard_normal(k)
        scale_rows[rng.random(m) < 0.2] = 0.0
        assert_bitwise_equal(linalg._scaled(u, rows=scale_rows),
                             _scipy_result(diag_matrix(scale_rows) @ c))
        assert_bitwise_equal(linalg._scaled(u, columns=scale_columns),
                             _scipy_result(c @ diag_matrix(scale_columns)))
        assert np.array_equal(linalg._row_sums(u).view(np.int64),
                              np.asarray(c.sum(axis=1)).view(np.int64))


def test_sums_that_cancel_are_not_stored():
    # row 0 sums to exactly 0.0 in column 0 and to -0.0 (an underflowing
    # product) in column 1; neither is stored, as scipy stores neither
    a = as_csr([[1.0, -1.0, 1e-200], [-1e-200, 0.0, 0.0]])
    b = as_csr([[2.0, 0.0], [2.0, 0.0], [0.0, -1e-200]])
    want = _scipy_result(a @ b)
    assert want.nnz == 1
    for x, y in ((a, b), (_container(a), _container(b))):
        assert_bitwise_equal(matmul(x, y), want)
        assert linalg._sum(x, x, -1.0).nnz == 0
        assert linalg._sum(x, linalg._scaled(x, rows=-np.ones(2))).nnz == 0
        assert hadamard(x, linalg._scaled(x, rows=np.array([1e-200, 1.0]))).nnz == 2


@pytest.mark.parametrize("container", ["_CSR", "scipy"])
@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_products_across_row_chunks_match_scipy(container, chunk, monkeypatch):
    # chunks of a few terms each; chunk 1 puts every row in a chunk of its own
    monkeypatch.setattr(linalg, "PRODUCT_CHUNK", chunk)
    rng = np.random.default_rng(chunk)
    for density in (0.05, 0.3, 0.9):
        a, b = (_sparse(rng, (30, 25), density, np.int32, "integer"),
                _sparse(rng, (25, 40), density, np.int32, "normal"))
        assert_bitwise_equal(matmul(_as_container(a, container), _as_container(b, container)),
                             _scipy_result(a @ b))


def test_product_of_more_terms_than_one_chunk_matches_scipy():
    rng = np.random.default_rng(5)
    a = _sparse(rng, (1500, 1500), 0.04, np.int32, "normal")
    b = _sparse(rng, (1500, 1200), 0.04, np.int32, "normal")
    terms = int(np.diff(b.indptr)[a.indices].sum())
    assert terms > linalg.PRODUCT_CHUNK
    assert_bitwise_equal(matmul(_container(a), _container(b)), _scipy_result(a @ b))


def test_product_with_wide_rows_takes_fewer_rows_per_chunk():
    # 2^39 columns leave room below the packed keys for 4 rows a chunk: the
    # sums are those of the same product with its columns packed 2^36 times
    # closer, whose rows all fit in one chunk
    rng = np.random.default_rng(7)
    a = _sparse(rng, (30, 5), 0.6, np.int64, "integer")
    b = _sparse(rng, (5, 8), 0.6, np.int64, "normal")
    spread = 1 << 36
    wide = linalg._CSR((b.data, b.indices.astype(np.int64) * spread, b.indptr),
                       shape=(5, 8 * spread))
    want = matmul(_container(a), _container(b))
    got = matmul(_container(a), wide)
    assert got.shape == (30, 8 * spread)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices.astype(np.int64) * spread)
    assert np.array_equal(got.data.view(np.int64), want.data.view(np.int64))


def test_product_too_wide_to_sort_raises():
    a = linalg._CSR((np.ones(1), np.zeros(1, dtype=np.int64), np.array([0, 1])), shape=(1, 1))
    b = linalg._CSR((np.ones(1), np.zeros(1, dtype=np.int64), np.array([0, 1])), shape=(1, 1 << 42))
    with pytest.raises(ValidationError, match="too many columns"):
        matmul(a, b)


def test_product_with_a_dense_block_matches_scipy():
    # _CSR @ a 2-D array adds each row's multiples in stored order, as scipy does
    rng = np.random.default_rng(6)
    a = _sparse(rng, (40, 30), 0.3, np.int64, "normal")
    x = rng.standard_normal((30, 7))
    assert np.array_equal((_container(a) @ x).view(np.int64), (a @ x).view(np.int64))


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


class _CountedCSR(sp.csr_array):
    """A CSR array that counts its matrix-vector products."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


def test_solve_identity(monkeypatch):
    # a tiny order takes the dense path only, and solves exactly
    def no_gmres(*args, **kwargs):
        raise AssertionError("GMRES used")

    monkeypatch.setattr(linalg, "_gmres", no_gmres)
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


@pytest.mark.parametrize("n", [50, 600], ids=["dense", "gmres"])
def test_solve_commutes_with_power_of_two_scaling(n, monkeypatch):
    # a right-hand side near 1e271 overflows the squares of a 2-norm, one
    # near 1e-271 underflows them; the solution scales with b to the bit
    if n > linalg.DENSE_CROSSOVER:
        def no_dense(*args, **kwargs):
            raise AssertionError("dense factorization used")

        monkeypatch.setattr(np.linalg, "solve", no_dense)
    rng = np.random.default_rng(11)
    m = as_csr(identity(n) - 0.05 * adjacency(random_digraph(rng, n, p=4 / n)))
    b = rng.uniform(0.5, 2.0, n)
    x = solve_linear(m, b)
    for k in (-900, 900):
        assert np.array_equal(solve_linear(m, np.ldexp(b, k)), np.ldexp(x, k))


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

    monkeypatch.setattr(np.linalg, "solve", no_dense)
    n = 1000
    g = random_digraph(np.random.default_rng(3), n, p=4 / n)
    a = adjacency(g)
    m = identity(n) - (0.9 / spectral_radius(a)) * a
    b = np.ones(n)
    x = solve_linear(m, b, 1e-10)
    assert np.linalg.norm(m @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_policy_stalled_gmres_falls_back_to_dense(monkeypatch):
    gmres_calls = _counting(monkeypatch, linalg, "_gmres")
    dense_calls = _counting(monkeypatch, np.linalg, "solve")
    m = _directed_path_system(600)
    b = np.ones(600)
    x = solve_linear(m, b, 1e-10)
    assert np.linalg.norm(m @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert (len(gmres_calls), len(dense_calls)) == (1, 1)


def test_policy_stall_above_dense_limit_raises(monkeypatch):
    monkeypatch.setattr(linalg, "ITERATIVE_MAXITER_FACTOR", 1)
    dense_calls = _counting(monkeypatch, np.linalg, "solve")
    n = linalg.DENSE_SOLVE_MAX + 100
    with pytest.raises(NumericalError, match="residual") as info:
        solve_linear(_directed_path_system(n), np.ones(n), 1e-10)
    assert dense_calls == []
    assert info.value.estimate is not None and info.value.estimate.shape == (n,)
    assert "GMRES(30) reached" in str(info.value)
    assert "with 465 matrix-vector products in 15 restart cycles" in str(info.value)
    assert traceback.extract_tb(info.value.__traceback__)[-1].name == "solve_linear"


def test_policy_error_names_every_path_tried(monkeypatch):
    monkeypatch.setattr(linalg, "DENSE_CROSSOVER", 1)
    m = as_csr([[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NumericalError, match="residual") as info:
        solve_linear(m, np.array([1.0, 0.0]))
    assert "GMRES(30) reached" in str(info.value)
    assert "then dense LU failed" in str(info.value)


def test_policy_non_finite_dense_solution_fails():
    # numpy's LU does not reject a non-finite matrix, and returns a finite
    # x for this one; the dense path still reports that it failed
    m = as_csr([[np.inf, 1.0], [1.0, 1.0]])
    with pytest.raises(NumericalError, match="dense LU failed") as info:
        solve_linear(m, np.array([1.0, 0.0]))
    assert info.value.estimate is None


@pytest.fixture(scope="module")
def digraph2000():
    return random_digraph(np.random.default_rng(3), 2000, p=2 / 1000)


def _krylov_system(kind, digraph2000, tmp_path) -> sp.csr_array:
    """A seeded system of each kind that solve_linear serves by GMRES."""
    if kind == "path":   # non-normal: seven restart cycles
        return _directed_path_system(linalg.DENSE_SOLVE_MAX + 100, 0.9)
    if kind == "temporal block":
        tg = load_temporal_edge_list(write_uniform_temporal(tmp_path / "t.txt", 8, 500, 500, 2))
        gd = build_global_transition(tg, BacktrackRegime.FORBID_ALL)
        block = line_graph(tg.snapshots[0]).V
        return as_csr(identity(block.shape[0]) - (0.9 / gd.transition_radius) * block)
    if kind == "N(t)":
        rho_v = spectral_radius(line_graph(digraph2000).V)
        return build_node_system(adjacency(digraph2000), 0.9 / rho_v)
    a = adjacency(digraph2000)
    return as_csr(identity(a.shape[0]) - (kind / spectral_radius(a)) * a)


@pytest.mark.parametrize("kind", [0.5, 0.9, "N(t)", "temporal block", "path"])
def test_gmres_takes_scipys_iterates(kind, digraph2000, tmp_path):
    # scipy's GMRES is the reference: the same iterate, to rounding, in no
    # more matrix-vector products
    m = _krylov_system(kind, digraph2000, tmp_path)
    n = m.shape[0]
    b = np.ldexp(np.ones(n), -1)
    maxiter = (linalg.ITERATIVE_MAXITER_FACTOR * n) // linalg.GMRES_RESTART
    reference = _CountedCSR(m)
    want, _ = spla.gmres(reference, b, rtol=1e-10, atol=0.0, restart=linalg.GMRES_RESTART,
                         maxiter=maxiter)
    counted = _CountedCSR(m)
    x, r_norm, _, products = linalg._gmres(counted, b, 1e-10 * np.linalg.norm(b), maxiter)
    assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)
    assert products == counted.products <= reference.products
    assert r_norm == np.linalg.norm(b - m @ x) <= 1e-10 * np.linalg.norm(b)


def test_gmres_near_the_rounding_floor_takes_few_products(digraph2000):
    # scipy's GMRES takes 9,472 products here: it tightens its inner
    # tolerance after each cycle whose estimate met it and whose true
    # residual did not; each cycle here restarts from the true residual
    # against the same target
    a = adjacency(digraph2000)
    m = _CountedCSR(identity(a.shape[0]) - (0.999 / spectral_radius(a)) * a)
    b = np.ldexp(np.ones(a.shape[0]), -1)
    target = 1e-13 * np.linalg.norm(b)
    _, r_norm, _, products = linalg._gmres(m, b, target, 666)
    assert r_norm <= target and products == m.products <= 100


def test_solve_certifies_after_several_restart_cycles(monkeypatch):
    spent = []
    gmres = linalg._gmres

    def recorded(*args):
        out = gmres(*args)
        spent.append(out[2:])
        return out

    monkeypatch.setattr(linalg, "_gmres", recorded)
    dense_calls = _counting(monkeypatch, np.linalg, "solve")
    m = _directed_path_system(linalg.DENSE_SOLVE_MAX + 100, 0.9)
    b = np.ones(m.shape[0])
    x = solve_linear(m, b, 1e-10)
    assert np.linalg.norm(m @ x - b) <= 1e-10 * np.linalg.norm(b)
    assert spent == [(7, 204)] and dense_calls == []


def test_gmres_stops_once_a_cycle_makes_no_progress():
    # tol 1e-15 lies below the residual GMRES(30) can reach on this system;
    # without the stagnation exit it spends all 700 restart cycles
    # (11,200 products) on it
    rng = np.random.default_rng(0)
    n = linalg.DENSE_SOLVE_MAX + 100
    pairs = np.unique(rng.integers(0, n, size=(4 * n, 2)), axis=0)
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    a = sp.csr_array((rng.uniform(0.5, 2.0, len(pairs)), (pairs[:, 0], pairs[:, 1])),
                     shape=(n, n))
    m = identity(n) - (0.999 / spectral_radius(a)) * a
    with pytest.raises(NumericalError, match="GMRES") as info:
        solve_linear(m, np.ones(n), 1e-15)
    products = int(re.search(r"with (\d+) matrix-vector products", str(info.value))[1])
    assert products <= 500
    x = info.value.estimate
    assert np.linalg.norm(m @ x - 1.0) <= 1e-12 * np.sqrt(n)


def test_gmres_breakdown_returns_the_exact_solution():
    # b = 1 lies in a Krylov space of dimension 3: the third step breaks down
    d = np.repeat([1.0, 2.0, 5.0], 200)
    m = _CountedCSR(diag_matrix(d))
    x, r_norm, cycles, products = linalg._gmres(m, np.ones(600), 1e-10, 10)
    assert (cycles, products) == (1, 4)
    assert np.max(np.abs(x * d - 1.0)) <= 2 * np.finfo(np.float64).eps
    assert r_norm <= 1e-14


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
        got = spectral_radius(as_csr(shuffled))
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
    adjacency, V and half-walk matrix of the temporal one: the diagonal
    blocks of M under every regime."""
    g300 = load_edge_list(GOLDEN / "g300.txt")
    mtx = load_matrix_market(GOLDEN / "small.mtx", drop_loops=True, merge="sum")
    for name, g in (("g300", g300), ("g300 binarized", binarize(g300)), ("small.mtx", mtx)):
        yield f"{name} A", adjacency(g)
        yield f"{name} V", line_graph(g).V
    tg = load_temporal_edge_list(GOLDEN / "temporal.txt")
    for tau, g in enumerate(tg.snapshots):
        yield f"temporal snapshot {tau} A", adjacency(g)
    for tau, d in enumerate(map(line_graph, tg.snapshots)):
        yield f"temporal snapshot {tau} V", d.V
        yield f"temporal snapshot {tau} half-walk", d.half_walk_matrix


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


def test_radius_of_graded_block_stops_at_the_rounding_floor():
    # entries 1 and one entry 1000, a span below the balancing gate: rho is
    # the real root of l^3 - 3 l - 2000, about 12.68, but the shift is
    # 1000/8, so the bracket's upper end can settle no closer than the
    # rounding of rho + 125, about 11 eps rho.  It is certified within
    # SHIFT_STEPS and stops after 247 products; without the test for an
    # upper end that has stopped decreasing it runs to POWER_MAXITER
    block = _CountedCSR(np.array([
        [0.0, 0.0, 1.0, 1.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 1000.0, 0.0],
    ]))
    rho, _ = linalg._block_radius(block)
    want = 12.67857950822675720319919186
    assert abs(rho - want) <= 8 * np.spacing(want)
    assert block.products < 500


def _undirected(n, src, dst):
    w = np.ones(2 * len(src))
    return sp.csr_array((w, (np.r_[src, dst], np.r_[dst, src])), shape=(n, n))


def _star():
    return _undirected(20001, np.zeros(20000, dtype=int), np.arange(1, 20001)), np.sqrt(20000.0)


def _random_bipartite():
    rng = np.random.default_rng(7)
    a = _undirected(600, rng.integers(0, 300, 1500), rng.integers(300, 600, 1500))
    return a, scipy.linalg.eigvalsh(a.toarray())[-1]


def _random_tree():
    rng = np.random.default_rng(7)
    parents = [int(rng.integers(0, i)) for i in range(1, 1000)]
    a = _undirected(1000, np.array(parents), np.arange(1, 1000))
    return a, scipy.linalg.eigvalsh(a.toarray())[-1]


def _graded_cycle_with_a_loop():
    dense = np.eye(10, k=1)
    dense[9, 0], dense[0, 0] = 1000.0, 1.0
    return sp.csr_array(dense), float(np.abs(np.linalg.eigvals(dense)).max())


@pytest.mark.parametrize("make, within, rel", [
    (_star, 300, 1e-12),
    (_random_bipartite, 400, 1e-14),
    (_random_tree, 600, 1e-14),
    (_graded_cycle_with_a_loop, 1000, 1e-14),
], ids=["star", "bipartite", "tree", "graded-cycle"])
def test_radius_of_block_that_stalls_under_the_small_shift(monkeypatch, make, within, rel):
    # the shift s/8 stalls where an eigenvalue lies near -rho, as in the
    # bipartite blocks of undirected graphs: the ratio is
    # (rho - s/8) / (rho + s/8), for the star K_{1,20000} (rho = sqrt(20000),
    # s = 1) 0.99823, too slow to certify within POWER_MAXITER.  It also
    # stalls where s/8 dwarfs rho: the 10-cycle with one entry 1000 and a
    # loop has rho = 2.13 and s/8 = 125.  Past SHIFT_STEPS the shift is half
    # the radius estimate; the four blocks take 254, 370, 544 and 791
    # products (1,799, 167 and 532 with the shift by the largest entry,
    # which fails on the cycle).  The star's hub row sums 20,000 terms,
    # hence its looser tolerance
    products = []
    real = linalg._block_radius

    def counted(block, *args):
        block = _CountedCSR(block)
        out = real(block, *args)
        products.append(block.products)
        return out

    monkeypatch.setattr(linalg, "_block_radius", counted)
    a, want = make()
    assert abs(spectral_radius(a) - want) <= rel * want
    assert sum(products) <= within


@pytest.mark.parametrize("dense, want", [
    ([[1.0, 1e4], [1e-4, 0.0]], (1 + np.sqrt(5)) / 2),
    ([[1e-60, 1e60], [1e-180, 0.0]], 1e-60 * (1 + np.sqrt(5)) / 2),
], ids=["1e8", "1e240"])
def test_radius_of_graded_block_with_a_chord(monkeypatch, dense, want):
    # a graded 2-cycle with a loop: too many entries for the cycle's closed
    # form, and a span that needs balancing; rho is the golden ratio times
    # the loop's weight
    balanced = []
    real = linalg._balance_exponents

    def counted(m):
        balanced.append(m.shape)
        return real(m)

    monkeypatch.setattr(linalg, "_balance_exponents", counted)
    block = _CountedCSR(np.array(dense))
    rho, _ = linalg._block_radius(block)
    assert abs(rho - want) <= 1e-14 * want
    assert balanced == [(2, 2)]
    assert block.products < 100


def test_radius_beside_a_graded_block_far_below_it():
    # the graded block (radius 2.2e-12, bound 1e300) is visited after the
    # block of radius a (1 + sqrt(1 + 4bc / a^2)) / 2 = 1.17e299; on the
    # graded block's balanced scale that radius exceeds the largest float
    big = np.array([[1e299, 2e300], [1e297, 0.0]])
    graded = np.array([[1e-320, 1e300], [5e-324, 0.0]])
    want = 1e299 * (1.0 + np.sqrt(1.8)) / 2.0
    got = spectral_radius(sp.block_diag([big, graded], format="csr"))
    assert abs(got - want) <= 1e-14 * want


def test_blocks_that_cannot_hold_the_maximum_stop_early(monkeypatch, rng):
    # a non-normal block of radius 2 and bound 9, then 20 blocks of radius at
    # most 1 whose bounds, above 2, do not let spectral_radius skip them
    blocks = [np.array([[1.0, 8.0], [1.0 / 8.0, 1.0]])]
    for _ in range(20):
        a, r = rng.uniform(3.0, 6.0), rng.uniform(0.3, 0.9)
        blocks.append(np.array([[0.1, a], [r * r / a, 0.1]]))   # radius 0.1 + r
    products = []   # per block, in the order visited
    real = linalg._block_radius

    def counted(block, *args):
        block = _CountedCSR(block)
        out = real(block, *args)
        products.append(block.products)
        return out

    monkeypatch.setattr(linalg, "_block_radius", counted)
    assert spectral_radius(sp.block_diag(blocks, format="csr")) == pytest.approx(2.0, rel=1e-15)
    assert len(products) == 21
    # each small block stops within a few steps, once its bracket ends below
    # 2; run to the certificate they took 2,847 products in all
    assert sum(products[1:]) <= 100


@pytest.mark.parametrize("weights, before, share", [
    (lambda rng, k: rng.lognormal(0.0, 0.5, k), 142, 0.6),
    (lambda rng, k: rng.uniform(0.5, 1.5, k), 81, 0.75),
], ids=["log-normal", "uniform"])
def test_random_block_takes_fewer_products(weights, before, share):
    # order 2,000: a Hamiltonian cycle plus 8,000 uniformly placed entries,
    # with log-normal(0, 0.5) weights as in the benchmark's graphs or
    # uniform ones on (0.5, 1.5).  The shift by the largest entry took 142
    # and 81 products; one eighth of it takes 68 and 55.  Narrower weights
    # make the largest entry closer to the radius, so the smaller shift
    # gains less: 0.47-0.52 of the products for log-normal weights and
    # 0.64-0.72 for uniform ones over seeds 0-7
    rng = np.random.default_rng(1)
    n = 2000
    rows = np.r_[rng.integers(0, n, 4 * n), np.arange(n)]
    cols = np.r_[rng.integers(0, n, 4 * n), np.roll(np.arange(n), 1)]
    block = _CountedCSR(sp.csr_array((weights(rng, rows.size), (rows, cols)), shape=(n, n)))
    rho, _ = linalg._block_radius(block)
    assert rho is not None
    assert block.products <= share * before


def test_radius_of_the_largest_strong_component_of_g300():
    # 234 of g300's 296 nodes; the reference comes from a shifted power
    # iteration in 45-digit decimal arithmetic, its Collatz-Wielandt bracket
    # closed to 1e-30
    a = adjacency(load_edge_list(GOLDEN / "g300.txt"))
    _, labels = scipy.sparse.csgraph.connected_components(a, directed=True, connection="strong")
    nodes = np.flatnonzero(labels == np.bincount(labels).argmax())
    assert nodes.size == 234
    want = 3.523339089868707431245970
    assert abs(spectral_radius(a[nodes][:, nodes]) - want) <= 30 * np.spacing(want)


@pytest.mark.parametrize("weights, want", [
    ((1e-85, 1.0, 1e-85), 10.0 ** (-170 / 3)),   # 3-cycle, radius cbrt(1e-170)
    ((1e4, 1e-4), 1.0),                           # 2-cycle
    ((3.0 * 2.0 ** -300, 3.0 * 2.0 ** 300), 3.0),  # 2-cycle spanning 2^600
], ids=["3-cycle", "2-cycle", "2^600"])
def test_radius_of_graded_cycle(weights, want):
    # the largest entry dwarfs the radius, but a block with one entry per
    # row is one simple cycle: its radius is the geometric mean of the
    # entries, computed without a matrix-vector product
    n = len(weights)
    dense = np.zeros((n, n))
    dense[np.arange(n), np.roll(np.arange(n), -1)] = weights
    assert abs(spectral_radius(as_csr(dense)) - want) <= 1e-13 * want
    block = _CountedCSR(dense)
    rho, _ = linalg._block_radius(block)
    assert abs(rho - want) <= 1e-13 * want
    assert block.products == 0


@pytest.mark.parametrize("sigma, seed", [(2, 5), (3, 0)])
def test_radius_of_log_normal_block_against_dense_eigenvalues(sigma, seed):
    # order 400, density 6/n plus a Hamiltonian cycle, log-normal(0, sigma)
    # weights: entries spanning many orders of magnitude
    n = 400
    rng = np.random.default_rng(seed)
    dense = (rng.random((n, n)) < 6 / n) * rng.lognormal(0.0, sigma, (n, n))
    dense[np.arange(n), np.roll(np.arange(n), 1)] = rng.lognormal(0.0, sigma, n)
    want = float(np.abs(np.linalg.eigvals(dense)).max())
    assert abs(spectral_radius(as_csr(dense)) - want) <= 1e-13 * want


def test_radius_failure_names_the_block(rng, monkeypatch):
    # three nodes without a cycle, then a positive block of order 80 at node
    # 3; one power step cannot certify its radius
    n = 83
    dense = np.zeros((n, n))
    dense[0, 1] = dense[1, 2] = dense[2, 3] = 1.0
    dense[3:, 3:] = rng.uniform(0.5, 1.5, size=(80, 80))
    monkeypatch.setattr(linalg, "POWER_MAXITER", 1)
    with pytest.raises(NumericalError, match="block of order 80 starting at node 3") as info:
        spectral_radius(as_csr(dense))
    assert info.value.node == 3
    estimate = info.value.estimate
    assert estimate is not None and f"last estimate {estimate}" in str(info.value)
    # on the block's own scale, not on that of the block the iteration saw
    assert estimate == pytest.approx(float(np.abs(np.linalg.eigvals(dense)).max()), rel=0.1)


# The temporal paths' container, linalg._CSR, and its components pass


def _container(matrix) -> linalg._CSR:
    """The same matrix as a ``_CSR``."""
    a = as_csr(matrix)
    return linalg._CSR((a.data, a.indices, a.indptr), shape=a.shape)


def _assert_components_match_csgraph(m: linalg._CSR):
    ncomp, labels = linalg._strong_components(m)
    want_ncomp, want = scipy.sparse.csgraph.connected_components(
        as_csr(m), directed=True, connection="strong")
    # one partition: each label of one pass meets exactly one of the other
    assert ncomp == want_ncomp == len(set(zip(labels.tolist(), want.tolist())))


@pytest.fixture(scope="module")
def u1(tmp_path_factory):
    """500 nodes, 20 snapshots of about 500 edges: the bench's temporal shape."""
    path = tmp_path_factory.mktemp("u1") / "u1.txt"
    return load_temporal_edge_list(write_uniform_temporal(path, 1, 500, 500, 20))


@pytest.fixture(scope="module")
def long_and_golden(tmp_path_factory):
    """1,000 snapshots of about 150 edges on 100 nodes, and the golden file."""
    path = tmp_path_factory.mktemp("l1") / "l1.txt"
    golden = Path(__file__).parent / "data" / "golden" / "temporal.txt"
    return [load_temporal_edge_list(write_uniform_temporal(path, 1, 100, 150, 1000)),
            load_temporal_edge_list(golden)]


def _temporal_containers(tg, regime):
    """The ``_CSR``s whose radii the temporal paths take under ``regime``:
    the snapshot blocks, the full-weight blocks and the stacked adjacency."""
    return [build_global_transition(tg, regime).blocks,
            tg._chain_matrix(tg.weight, regime, diagonal=True), tg._stacked_adjacency]


@pytest.mark.parametrize("regime", list(BacktrackRegime))
def test_components_of_temporal_containers_match_csgraph(u1, regime):
    for m in _temporal_containers(u1, regime):
        _assert_components_match_csgraph(m)


def test_components_of_long_and_golden_temporal_inputs_match_csgraph(long_and_golden):
    for tg in long_and_golden:
        for regime in BacktrackRegime:
            for m in _temporal_containers(tg, regime):
                _assert_components_match_csgraph(m)


def test_components_of_static_containers_match_csgraph():
    # A and V of a graph of the benchmark's static-medium size: one
    # component holds nearly every node of V
    src, dst, weight = uniform_edges(np.random.default_rng(2), 2000, 8000)
    g = WeightedGraph([str(i) for i in range(2000)],
                      zip(src.tolist(), dst.tolist(), weight.tolist()))
    for m in (graph._adjacency(g), graph._line_graph(g).V):
        _assert_components_match_csgraph(m)


def _pattern(n: int, src, dst) -> linalg._CSR:
    return _container(sp.csr_array((np.ones(len(src)), (src, dst)), shape=(n, n)))


def test_components_of_a_dag_around_one_large_component():
    # a random DAG on 3,000 nodes, and inside it a ring with chords through
    # nodes 1,000 to 2,999 in a random order
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, 3000, 12_000), rng.integers(0, 3000, 12_000)
    keep = a < b
    ring = 1000 + rng.permutation(2000)
    chords = rng.integers(0, 2000, (2, 2000))
    src = np.concatenate([a[keep], ring, ring[chords[0]]])
    dst = np.concatenate([b[keep], np.roll(ring, 1), ring[chords[1]]])
    _assert_components_match_csgraph(_pattern(3000, src, dst))


def test_components_of_many_equal_cycles():
    # 3,000 directed triangles and 2,000 two-cycles: nothing to trim, and
    # the search from the pivot finds one of them
    triangles = np.arange(9000).reshape(-1, 3)
    pairs = 9000 + np.arange(4000).reshape(-1, 2)
    src = np.concatenate([triangles.ravel(), pairs.ravel()])
    dst = np.concatenate([np.roll(triangles, 1, axis=1).ravel(),
                          np.roll(pairs, 1, axis=1).ravel()])
    _assert_components_match_csgraph(_pattern(13_000, src, dst))


@pytest.mark.parametrize("shape", ["ring", "path"])
def test_components_past_the_level_cap(shape, monkeypatch):
    # a ring or path longer than SCC_LEVELS rounds of trim and search
    # reach: Tarjan's pass takes the nodes they leave
    n = 4 * linalg.SCC_LEVELS
    src, dst = np.arange(n - 1), np.arange(1, n)
    if shape == "ring":
        src, dst = np.append(src, n - 1), np.append(dst, 0)
    orders = []
    tarjan = linalg._tarjan

    def spy(indptr, indices, size):
        orders.append(size)
        return tarjan(indptr, indices, size)

    monkeypatch.setattr(linalg, "_tarjan", spy)
    _assert_components_match_csgraph(_pattern(n, src, dst))
    assert orders == [n if shape == "ring" else n - 2 * linalg.SCC_LEVELS]


@pytest.mark.parametrize("seed", range(12))
def test_components_of_random_digraphs_match_csgraph(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    density = float(rng.choice([0.5 / n, 1.0 / n, 2.0 / n, 0.05]))
    pattern = sp.random_array((n, n), density=min(density, 1.0), random_state=rng, format="csr")
    pattern.data[:] = rng.uniform(0.5, 2.0, pattern.nnz)
    _assert_components_match_csgraph(_container(pattern))


@pytest.mark.parametrize("n, loops", [(0, False), (40, False), (40, True)],
                         ids=["0x0", "isolated", "self-loops"])
def test_components_of_degenerate_patterns_match_csgraph(n, loops):
    pattern = sp.diags_array(np.ones(n), format="csr") if loops else sp.csr_array((n, n))
    _assert_components_match_csgraph(_container(pattern))


@pytest.mark.parametrize("shape", ["path", "ring", "chain of 2-cycles"])
def test_components_of_deep_patterns_need_no_recursion(shape):
    # a depth-first search 100,000 nodes deep: a recursive pass would pass
    # the interpreter's recursion limit
    n = 100_000
    src, dst = np.arange(n - 1), np.arange(1, n)
    if shape == "ring":
        src, dst = np.append(src, n - 1), np.append(dst, 0)
    if shape == "chain of 2-cycles":
        src, dst = np.concatenate([src, dst[::2]]), np.concatenate([dst, src[::2]])
    _assert_components_match_csgraph(_container(
        sp.csr_array((np.ones(src.size), (src, dst)), shape=(n, n))))


@pytest.mark.parametrize("regime", list(BacktrackRegime))
def test_temporal_radii_do_not_depend_on_the_container(u1, regime):
    gd = build_global_transition(u1, regime)
    blocks, full, stacked = _temporal_containers(u1, regime)
    for m in (blocks, full, stacked):
        x = np.random.default_rng(0).random(m.shape[0])
        assert np.array_equal(m @ x, as_csr(m) @ x)
        assert np.array_equal(m.toarray(), as_csr(m).toarray())
        assert spectral_radius(m).hex() == spectral_radius(as_csr(m)).hex()
    on_blocks = blocks if regime.forbids_space else stacked
    assert gd.transition_radius.hex() == spectral_radius(as_csr(on_blocks)).hex()
    assert gd.block_radius_bound.hex() == spectral_radius(as_csr(full)).hex()
    assert u1.max_adjacency_radius.hex() == spectral_radius(as_csr(stacked)).hex()


def test_solve_does_not_depend_on_the_container(u1, long_and_golden):
    # a snapshot block of U1 (order about 500) goes to GMRES, one of the
    # long input (order about 150) to the dense LU
    for tg in (u1, long_and_golden[0]):
        gd = build_global_transition(tg, BacktrackRegime.FORBID_ALL)
        t = 0.5 / gd.transition_radius
        block = linalg._diagonal_block(gd.blocks, int(tg.offsets[0]), int(tg.offsets[1]))
        system = linalg.identity_minus(t, block)
        want = identity(block.shape[0]) - t * as_csr(block)
        assert np.array_equal(as_csr(system).indptr, want.indptr)
        assert np.array_equal(as_csr(system).indices, want.indices)
        assert np.array_equal(system.data, want.data)
        b = np.ones(block.shape[0])
        assert np.array_equal(solve_linear(system, b), solve_linear(want, b))
