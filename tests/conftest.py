"""Shared test helpers: random instances, deviation and bitwise comparison
of matrices, the reference incidence matrices of a graph, and the
environment of CLI subprocesses.

The suite tests the nbtwalks that ``PYTHONPATH`` or the installed packages
provide; only when neither does is this checkout's ``src`` put on the path,
so that a plain ``pytest`` works in a source checkout."""

import importlib.util
import os
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

if importlib.util.find_spec("nbtwalks") is None:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import nbtwalks  # noqa: E402
from nbtwalks.edge_level import project_to_nodes  # noqa: E402
from nbtwalks.graph import WeightedGraph  # noqa: E402
from nbtwalks.linalg import matmul  # noqa: E402


def cli_env() -> dict:
    """Environment in which a subprocess imports the nbtwalks under test."""
    return {**os.environ, "PYTHONPATH": str(Path(nbtwalks.__file__).parents[1])}


def rel_dev(a, b) -> float:
    """Max-norm difference scaled by the larger magnitude (floor 1)."""
    da = a.toarray() if hasattr(a, "toarray") else np.asarray(a, dtype=float)
    db = b.toarray() if hasattr(b, "toarray") else np.asarray(b, dtype=float)
    assert da.shape == db.shape
    if da.size == 0:
        return 0.0
    scale = max(1.0, float(np.max(np.abs(da))), float(np.max(np.abs(db))))
    return float(np.max(np.abs(da - db))) / scale


def assert_bitwise_equal(a, b):
    """Two sparse matrices with the same shape, pattern and value bits."""
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.int64), b.data.view(np.int64))


def diag_matrix(values) -> sp.csr_array:
    """Diagonal matrix from a 1-D array, as a COO assembly stores it (an
    entry that is zero stays stored)."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    return sp.csr_array((values, (np.arange(n), np.arange(n))), shape=(n, n))


def random_digraph(rng, n, p=0.4, wlo=0.5, whi=2.0, integer=False) -> WeightedGraph:
    """Random weighted digraph: each ordered pair kept with probability p."""
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                w = float(rng.integers(1, 5)) if integer else float(rng.uniform(wlo, whi))
                edges.append((i, j, w))
    return WeightedGraph([str(i) for i in range(n)], edges)


def random_undirected(rng, n, p=0.4) -> WeightedGraph:
    """Random binary symmetric graph."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j, 1.0))
                edges.append((j, i, 1.0))
    return WeightedGraph([str(i) for i in range(n)], edges)


def random_oneway(rng, n, p=0.4, wlo=0.5, whi=2.0) -> WeightedGraph:
    """Random digraph with no reciprocated pairs."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                if rng.random() < 0.5:
                    edges.append((i, j, float(rng.uniform(wlo, whi))))
                else:
                    edges.append((j, i, float(rng.uniform(wlo, whi))))
    return WeightedGraph([str(i) for i in range(n)], edges)


def uniform_edges(rng, n, m):
    """About m edges on distinct node pairs drawn uniformly from n nodes, 30%
    of the pairs linked in both directions, with log-normal(0, 0.5) weights,
    drawn from ``rng`` in the order the benchmark's ``inputs.random_graph``
    draws them.  Returns ``(src, dst, weight)``."""
    pairs = int(round(m / 1.3))
    draw = int(pairs * 1.3) + 64
    a = rng.integers(0, n, size=draw)
    b = rng.integers(0, n, size=draw)
    keep = a != b
    lo = np.minimum(a[keep], b[keep])
    hi = np.maximum(a[keep], b[keep])
    _, first = np.unique(lo.astype(np.int64) * n + hi, return_index=True)
    chosen = np.sort(first)[:pairs]
    lo, hi = lo[chosen], hi[chosen]
    both = rng.random(pairs) < 0.3
    flip = rng.random(pairs) < 0.5
    s1 = np.where(flip, hi, lo)
    d1 = np.where(flip, lo, hi)
    src = np.concatenate([s1, d1[both]])
    dst = np.concatenate([d1, s1[both]])
    return src, dst, rng.lognormal(0.0, 0.5, size=src.size)


def write_uniform_temporal(path, seed, n, m, count):
    """Write ``count`` snapshots of ``uniform_edges(rng, n, m)`` as ``time src
    dst weight`` records, weights printed to six significant digits, all
    from one ``numpy.random.default_rng(seed)``, so a seed gives the file
    the benchmark's inputs give, and return the path."""
    rng = np.random.default_rng(seed)
    lines = []
    for tau in range(count):
        src, dst, weights = uniform_edges(rng, n, m)
        lines.extend(f"{tau} v{s} v{d} {w:.6g}\n" for s, d, w in zip(src, dst, weights))
    path.write_text("".join(lines), encoding="utf-8")
    return path


def dense_resolvent_scores(gd, t) -> np.ndarray:
    """Temporal resolvent scores from one dense solve of the assembled I - tM."""
    system = np.eye(gd.m_total) - t * gd.M.toarray()
    y = np.linalg.solve(system, gd.sqrt_weights)
    return 1.0 + t * project_to_nodes(gd.temporal.src, gd.sqrt_weights, y, gd.n)


def reversal_heavy_text(count, clique, exit_weight=1.0) -> str:
    """``time src dst weight`` records of a temporal graph whose resolvent's
    later sums are nearly all one reversal pair.  Snapshot 0 holds a -> b of
    weight 1e30, on no cycle; each of snapshots 1 to ``count`` holds b -> a
    of weight 1, b -> c of weight ``exit_weight`` and the complete digraph of
    weight 1 on a and ``clique - 1`` nodes x0, x1, ...  Edge a -> b's score
    under a regime that forbids backtracking in time needs b's later
    out-mass less its part on the pair (b, a), which can be most of it."""
    nodes = ["a"] + [f"x{i}" for i in range(clique - 1)]
    lines = ["0 a b 1e30"]
    for tau in range(1, count + 1):
        lines += [f"{tau} b a 1", f"{tau} b c {exit_weight!r}"]
        lines += [f"{tau} {u} {v} 1" for u in nodes for v in nodes if u != v]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def bench_size_graph() -> WeightedGraph:
    """A digraph of the benchmark's static-large size: 20,000 nodes and
    about 125,000 edges from ``uniform_edges``."""
    src, dst, weight = uniform_edges(np.random.default_rng(3), 20_000, 125_000)
    return WeightedGraph([str(i) for i in range(20_000)],
                         zip(src.tolist(), dst.tolist(), weight.tolist()))


def product_form(g: WeightedGraph) -> dict:
    """The reference incidence matrices of a graph and the line-graph
    matrices built from them by sparse products through diagonal weight
    matrices, the construction ``line_graph`` replaced, with the reversals
    found by the weight-free incidence product ``L @ R.T``.  ``L`` and ``R``
    are the m x n source and target incidences, ``Z`` and ``sqrt_Z`` the
    diagonal weight matrix and its square root."""
    m, n = g.m, g.n
    rows, ones = np.arange(m), np.ones(m)
    L = sp.csr_array((ones, (rows, g.src)), shape=(m, n))
    R = sp.csr_array((ones, (rows, g.dst)), shape=(m, n))
    Z, sqrt_Z = diag_matrix(g.weight), diag_matrix(np.sqrt(g.weight))
    chain = matmul(R, L.T)
    W = matmul(matmul(Z, chain), Z)
    half = matmul(matmul(sqrt_Z, chain), sqrt_Z)
    reversal = sp.csr_array(matmul(L, R.T) != 0)

    def masked(values):
        out = sp.csr_array(values - values.multiply(reversal))
        out.eliminate_zeros()
        out.sort_indices()
        return out

    return {"W": W, "B": masked(W), "V": masked(half), "half": half,
            "L": L, "R": R, "Z": Z, "sqrt_Z": sqrt_Z}


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


# Hand fixtures used across modules.

def two_node_reciprocated(w=2.0) -> WeightedGraph:
    return WeightedGraph(["a", "b"], [(0, 1, w), (1, 0, w)])


def undirected_path() -> WeightedGraph:
    # 1 - 2 - 3 with weights 1 and 2, both directions
    return WeightedGraph(
        ["1", "2", "3"],
        [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 2.0), (2, 1, 2.0)],
    )


def directed_cycle(weights=(1.0, 2.0, 3.0)) -> WeightedGraph:
    n = len(weights)
    labels = [str(i + 1) for i in range(n)]
    return WeightedGraph(labels, [(i, (i + 1) % n, float(w)) for i, w in enumerate(weights)])
