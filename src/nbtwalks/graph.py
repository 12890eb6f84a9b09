"""Weighted directed graphs: ingestion, validation, adjacency, line graph.

Input format for edge lists: one record per line, ``src dst [weight]``,
whitespace- or comma-delimited, ``#`` starts a comment.  Node IDs are
arbitrary strings; the weight column defaults to 1.0 when absent.  Temporal
files put a finite time stamp in front of each record, and the one reader
here serves both.  Graphs are loop-free with strictly positive weights and at
most one edge per ordered node pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .linalg import diag_matrix, matmul

__all__ = [
    "WeightedGraph",
    "LineGraphDecomposition",
    "parse_edge_list",
    "load_edge_list",
    "graph_from_records",
    "adjacency",
    "binarize",
    "line_graph",
    "load_matrix_market",
    "save_matrix_market",
]


@dataclass
class WeightedGraph:
    """Directed, loop-free graph with positive edge weights.

    ``edges`` holds ``(src, dst, weight)`` triples over 0-based node indices
    and is kept sorted lexicographically by ``(src, dst)``, which fixes the
    canonical edge labelling used everywhere downstream.
    """

    node_labels: list[str]
    edges: list[tuple[int, int, float]]

    def __post_init__(self):
        n = len(self.node_labels)
        if len(set(self.node_labels)) != n:
            raise ValidationError("duplicate node labels")
        seen = set()
        for src, dst, weight in self.edges:
            if not (0 <= src < n and 0 <= dst < n):
                raise ValidationError(f"edge ({src}, {dst}) out of range for {n} nodes")
            if src == dst:
                raise ValidationError(f"self-loop on node {self.node_labels[src]!r}")
            if not (weight > 0 and math.isfinite(weight)):
                raise ValidationError(
                    f"edge ({self.node_labels[src]!r}, {self.node_labels[dst]!r}) "
                    f"has non-positive or non-finite weight {weight!r}"
                )
            if (src, dst) in seen:
                raise ValidationError(
                    f"duplicate edge ({self.node_labels[src]!r}, {self.node_labels[dst]!r})"
                )
            seen.add((src, dst))
        self.edges = sorted((int(s), int(d), float(w)) for s, d, w in self.edges)

    @property
    def n(self) -> int:
        return len(self.node_labels)

    @property
    def m(self) -> int:
        return len(self.edges)


def _read_records(source, *, timed: bool = False, name: str | None = None):
    """Read edge-list text (string, iterable of lines, or open file).

    Returns ``(records, stamps)``: one ``(src, dst, weight)`` record per
    ``src dst [weight]`` line.  With ``timed`` the lines read
    ``time src dst [weight]`` and ``stamps`` holds each record's finite time
    stamp; otherwise it stays empty.  Errors name the line, after ``name``
    (a manifest entry) when given.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    prefix = "" if name is None else f"{name} "
    lead = 1 if timed else 0
    records = []
    stamps = []
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "," in body:
            fields = [f.strip() for f in body.split(",") if f.strip()]
        else:
            fields = body.split()
        arity = len(fields) - lead
        if arity == 2:
            weight = 1.0
        elif arity == 3:
            try:
                weight = float(fields[-1])
            except ValueError as exc:
                raise ValidationError(f"{prefix}line {lineno}: bad weight {fields[-1]!r}") from exc
        else:
            grammar = "time src dst [weight]" if timed else "src dst [weight]"
            raise ValidationError(
                f"{prefix}line {lineno}: expected '{grammar}', got {len(fields)} fields"
            )
        if timed:
            try:
                stamp = float(fields[0])
            except ValueError:
                stamp = math.nan  # reported with the non-finite stamps
            if not math.isfinite(stamp):
                raise ValidationError(f"{prefix}line {lineno}: bad time stamp {fields[0]!r}")
            stamps.append(stamp)
        records.append((fields[lead], fields[lead + 1], weight))
    return records, stamps


def _node_labels(records, sort_nodes: bool) -> list[str]:
    """Labels met in ``(src, dst, weight)`` records, in order of first
    appearance, or sorted with ``sort_nodes``."""
    labels = list(dict.fromkeys(lab for src, dst, _ in records for lab in (src, dst)))
    return sorted(labels) if sort_nodes else labels


def graph_from_records(
    records,
    *,
    node_labels=None,
    merge: str = "reject",
    drop_loops: bool = False,
    sort_nodes: bool = False,
) -> WeightedGraph:
    """Build a validated graph from ``(src_label, dst_label, weight)`` records.

    ``merge`` controls duplicate (src, dst) pairs: ``"reject"`` raises,
    ``"sum"`` accumulates weights in record order.  Self-loops raise unless
    ``drop_loops``.  Node indexing follows first appearance, or sorted labels
    with ``sort_nodes``; an explicit ``node_labels`` list pins the universe
    (used for temporal snapshots sharing one node set).
    """
    if merge not in ("reject", "sum"):
        raise ValidationError(f"unknown merge policy {merge!r}")
    labels = _node_labels(records, sort_nodes) if node_labels is None else list(node_labels)
    index = {lab: i for i, lab in enumerate(labels)}

    weights: dict[tuple[int, int], float] = {}
    for src, dst, weight in records:
        weight = float(weight)
        if not (weight > 0 and math.isfinite(weight)):
            raise ValidationError(
                f"edge ({src!r}, {dst!r}) has non-positive weight {weight!r}"
            )
        if src == dst:
            if drop_loops:
                continue
            raise ValidationError(f"self-loop on node {src!r}")
        try:
            key = (index[src], index[dst])
        except KeyError as exc:
            raise ValidationError(f"node {exc.args[0]!r} not in the fixed node set") from exc
        if key in weights:
            if merge == "reject":
                raise ValidationError(f"duplicate edge ({src!r}, {dst!r})")
            weights[key] += weight
        else:
            weights[key] = weight

    edges = [(s, d, w) for (s, d), w in weights.items()]
    return WeightedGraph(labels, edges)


def parse_edge_list(
    source,
    *,
    merge: str = "reject",
    drop_loops: bool = False,
    sort_nodes: bool = False,
) -> WeightedGraph:
    """Parse an edge-list text (string, iterable of lines, or open file)."""
    records, _ = _read_records(source)
    return graph_from_records(
        records, merge=merge, drop_loops=drop_loops, sort_nodes=sort_nodes
    )


def load_edge_list(path, **options) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle, **options)


def adjacency(graph: WeightedGraph) -> sp.csr_array:
    """n x n adjacency matrix; entry (i, j) is the weight of edge i -> j."""
    n = graph.n
    if not graph.edges:
        return sp.csr_array((n, n), dtype=np.float64)
    src, dst, w = zip(*graph.edges)
    return sp.csr_array(
        (np.asarray(w, dtype=np.float64), (np.asarray(src), np.asarray(dst))),
        shape=(n, n),
    )


def binarize(graph: WeightedGraph) -> WeightedGraph:
    """Copy of the graph with every weight set to 1."""
    return WeightedGraph(list(graph.node_labels), [(s, d, 1.0) for s, d, _ in graph.edges])


@dataclass
class LineGraphDecomposition:
    """Edge-level matrices of one static graph.

    With edges canonically labelled ``0..m-1``:

    - ``L``: m x n source incidence, ``L[e, i] = 1`` when edge e starts at i.
    - ``R``: m x n target incidence, ``R[e, j] = 1`` when edge e ends at j.
    - ``Z``: m x m diagonal matrix of edge weights; ``sqrt_Z`` its square root.
    - ``W``: line-graph weight matrix, ``W[e, f] = w_e * w_f`` when edge f
      continues edge e (end of e equals start of f).
    - ``B``: W with mutually reversing edge pairs zeroed out (the Hashimoto
      matrix); only chains that do not backtrack survive.
    - ``V``: half-power form of B whose entries are ``sqrt(w_e) * sqrt(w_f)``
      on B's pattern, so that ``sqrt_Z @ V**k @ sqrt_Z`` carries true
      multiplicative walk weights.

    ``V`` (and every half-power matrix in the package) is assembled from the
    square-rooted weights rather than by square-rooting products, so that
    independently built edge-level constructions agree bitwise.
    """

    graph: WeightedGraph
    edge_order: list[tuple[int, int]]
    weights: np.ndarray
    sqrt_weights: np.ndarray
    L: sp.csr_array
    R: sp.csr_array
    Z: sp.csr_array
    sqrt_Z: sp.csr_array
    W: sp.csr_array
    B: sp.csr_array
    V: sp.csr_array

    @property
    def m(self) -> int:
        return len(self.edge_order)

    @property
    def n(self) -> int:
        return self.graph.n

    def half_walk_matrix(self) -> sp.csr_array:
        """Half-power form of W: ``sqrt(w_e) * sqrt(w_f)`` on W's full pattern."""
        return matmul(matmul(self.sqrt_Z, matmul(self.R, self.L.T)), self.sqrt_Z)

    def edge_labels(self) -> list[str]:
        labels = self.graph.node_labels
        return [f"{labels[s]}->{labels[d]}" for s, d in self.edge_order]


def _mask_reversals(values: sp.csr_array, pattern: sp.csr_array) -> sp.csr_array:
    # Subtracting the masked copy removes exactly the flagged entries; the
    # survivors keep their original bit pattern.
    out = sp.csr_array(values - values.multiply(pattern))
    out.eliminate_zeros()
    out.sort_indices()
    return out


def line_graph(graph: WeightedGraph) -> LineGraphDecomposition:
    """Build the canonical line-graph decomposition of a graph."""
    n = graph.n
    m = graph.m
    edge_order = [(s, d) for s, d, _ in graph.edges]
    weights = np.asarray([w for _, _, w in graph.edges], dtype=np.float64)
    sqrt_weights = np.sqrt(weights)

    rows = np.arange(m)
    ones = np.ones(m)
    src = np.asarray([s for s, _ in edge_order], dtype=np.int64)
    dst = np.asarray([d for _, d in edge_order], dtype=np.int64)
    L = sp.csr_array((ones, (rows, src)), shape=(m, n))
    R = sp.csr_array((ones, (rows, dst)), shape=(m, n))
    Z = diag_matrix(weights)
    sqrt_Z = diag_matrix(sqrt_weights)

    chain = matmul(R, L.T)  # 0/1: edge f continues edge e
    W = matmul(matmul(Z, chain), Z)
    half = matmul(matmul(sqrt_Z, chain), sqrt_Z)

    rebuilt = matmul(matmul(L.T, Z), R)
    if (rebuilt != adjacency(graph)).nnz != 0:
        raise AssertionError("edge incidence factorization does not reproduce the adjacency")

    reversal = sp.csr_array((W.T != 0))  # pattern of mutually reversing pairs
    B = _mask_reversals(W, reversal)
    V = _mask_reversals(half, reversal)

    return LineGraphDecomposition(
        graph=graph,
        edge_order=edge_order,
        weights=weights,
        sqrt_weights=sqrt_weights,
        L=L,
        R=R,
        Z=Z,
        sqrt_Z=sqrt_Z,
        W=W,
        B=B,
        V=V,
    )


def load_matrix_market(
    path,
    *,
    merge: str = "reject",
    drop_loops: bool = False,
) -> WeightedGraph:
    """Read an adjacency matrix in MatrixMarket coordinate format.

    Indices are 1-based per the format; node labels become "1".."n".
    Diagonal entries are self-loops and follow ``drop_loops``; entries must
    be positive.
    """
    import scipy.io  # only MatrixMarket input needs it

    matrix = sp.coo_array(scipy.io.mmread(path))
    nrows, ncols = matrix.shape
    if nrows != ncols:
        raise ValidationError(f"adjacency import requires a square matrix, got {matrix.shape}")
    labels = [str(i + 1) for i in range(nrows)]
    records = [
        (labels[i], labels[j], float(v))
        for i, j, v in zip(matrix.row, matrix.col, matrix.data)
        if v != 0.0
    ]
    return graph_from_records(
        records, node_labels=labels, merge=merge, drop_loops=drop_loops
    )


def save_matrix_market(graph: WeightedGraph, path) -> None:
    """Write the adjacency matrix in MatrixMarket coordinate format (1-based,
    general real)."""
    import scipy.io

    scipy.io.mmwrite(
        path, sp.coo_matrix(adjacency(graph)), field="real", symmetry="general"
    )
