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
from functools import cached_property
from itertools import count
from numbers import Real
from operator import index
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError
from .linalg import _CSR, as_csr

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "WeightedGraph",
    "LineGraphDecomposition",
    "parse_edge_list",
    "load_edge_list",
    "adjacency",
    "binarize",
    "line_graph",
    "load_matrix_market",
]


class WeightedGraph:
    """Directed, loop-free graph with positive edge weights.

    The edges are three read-only arrays over 0-based node indices: ``src``,
    ``dst`` and ``weight``, sorted lexicographically by ``(src, dst)``, which
    fixes the canonical edge labelling used everywhere downstream.  The
    constructor takes ``(src, dst, weight)`` triples of two node indices and
    a real weight, in any order, validates them with the readers' checks and
    sorts them.
    """

    def __init__(self, node_labels, edges):
        labels = list(node_labels)
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate node labels")
        n = len(labels)
        edges = list(edges)
        # only records from outside may hold any object: check their indices
        # and weights first, as an out-of-range index names no label
        for record in edges:
            try:
                s, d, w = record
                s, d = index(s), index(d)
                if isinstance(w, bool) or not isinstance(w, Real):
                    raise TypeError(f"weight {w!r} is not a real number")
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"edge record {record!r} is not a (src, dst, weight) "
                                      "triple with integer src and dst and a real weight") from exc
            if not (0 <= s < n and 0 <= d < n):
                raise ValidationError(f"edge ({s}, {d}) out of range for {n} nodes")
        columns = tuple(zip(*edges)) or ((), (), ())
        self._assign(labels, *_merged_edges(
            labels, np.array(columns[0], dtype=np.int64), np.array(columns[1], dtype=np.int64),
            np.array(columns[2], dtype=np.float64), merge="reject", drop_loops=False))

    @classmethod
    def _canonical(cls, labels, src, dst, weight) -> WeightedGraph:
        """A graph from edge arrays already validated and sorted by (src, dst).
        It takes the arrays without a copy and marks them read-only."""
        graph = cls.__new__(cls)
        graph._assign(labels, src, dst, weight)
        return graph

    def _assign(self, labels, src, dst, weight) -> None:
        self.node_labels = labels
        self.src, self.dst, self.weight = (
            np.asarray(a, dtype=dtype) for a, dtype in
            ((src, np.int64), (dst, np.int64), (weight, np.float64)))
        for a in (self.src, self.dst, self.weight):
            a.flags.writeable = False

    @property
    def edges(self) -> list[tuple[int, int, float]]:
        """``(src, dst, weight)`` triples of Python numbers in canonical
        order: a new list made from the arrays on each access."""
        return list(zip(self.src.tolist(), self.dst.tolist(), self.weight.tolist()))

    @property
    def n(self) -> int:
        return len(self.node_labels)

    @property
    def m(self) -> int:
        return int(self.src.size)

    def __repr__(self) -> str:
        return f"WeightedGraph(n={self.n}, m={self.m})"


def _raise_first(checks) -> None:
    """Raise for the first record, in input order, that fails a check.
    ``checks`` holds ``(mask, message)`` pairs in the order a record-by-record
    reader tests them; the first mask set at that record names the fault,
    with the text ``message(record)``."""
    failing = [mask for mask, _ in checks if mask.any()]
    if not failing:
        return
    first = min(int(np.argmax(mask)) for mask in failing)
    for mask, message in checks:
        if mask[first]:
            raise ValidationError(message(first))


def _read_columns(source, *, timed: bool = False, name: str | None = None):
    """Read edge-list text into columns.

    ``source`` is a string (split by ``str.splitlines``), an open text file
    (its text split at newlines) or an iterable of lines.  Returns
    ``(src, dst, weight, stamp)``: the label lists of the ``src dst
    [weight]`` records, their weights (default 1.0) and, with ``timed``,
    where the lines read ``time src dst [weight]``, the finite time stamps;
    otherwise ``stamp`` is None.  Errors name the line, after ``name`` (a
    manifest entry) when given.

    A plain table (see ``_table_width``) is tokenized by one ``str.split``;
    any other text, and a table with a token ``float`` rejects or a
    non-finite stamp, goes through the line loop, which raises for its first
    faulty line.
    """
    if isinstance(source, str):
        text = source
    elif hasattr(source, "read"):
        text = source.read()
    else:
        return _line_columns(source, timed, name)
    width = _table_width(text, timed)
    columns = None if width is None else _table_columns(text.split(), width, timed)
    if columns is None:
        lines = source.splitlines() if isinstance(source, str) else text.split("\n")
        columns = _line_columns(lines, timed, name)
    return columns


def _table_width(text: str, timed: bool) -> int | None:
    """Fields per line when ``text`` is a plain table, else None.  A plain
    table is ASCII, holds no ``#``, ``,`` or control character other than
    tab and newline, and every non-blank line has the same field count: 2
    or 3, plus 1 when timed.  In such text lines end at newlines alone and
    fields at spaces and tabs, under ``str.split``, ``str.splitlines`` and
    the line loop alike."""
    if not text or not text.isascii() or "#" in text or "," in text:
        return None
    byte = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    field = byte > 32
    newline = np.flatnonzero(byte == 10)
    if newline.size + np.count_nonzero(byte == 32) + np.count_nonzero(byte == 9) \
            != byte.size - np.count_nonzero(field):
        return None
    starts = field.copy()
    starts[1:] &= ~field[:-1]
    line_start = np.concatenate(([0], newline[newline < byte.size - 1] + 1))
    per_line = np.add.reduceat(starts, line_start, dtype=np.int64)
    widths = per_line[per_line > 0]
    lead = 1 if timed else 0
    if widths.size == 0 or widths.min() != widths.max() or widths[0] - lead not in (2, 3):
        return None
    return int(widths[0])


def _table_columns(tokens: list[str], width: int, timed: bool):
    """Columns of a plain table's tokens, ``width`` per record, or None when
    a weight or stamp token is not a float or a stamp is not finite."""
    lead = 1 if timed else 0
    count = len(tokens) // width
    try:
        weight = (np.fromiter(map(float, tokens[width - 1::width]), np.float64, count)
                  if width - lead == 3 else np.ones(count))
        stamp = np.fromiter(map(float, tokens[0::width]), np.float64, count) if timed else None
    except ValueError:
        return None
    if timed and not np.isfinite(stamp).all():
        return None
    return tokens[lead::width], tokens[lead + 1::width], weight, stamp


def _line_columns(lines, timed: bool, name: str | None):
    """The columns of ``_read_columns``, one line at a time."""
    prefix = "" if name is None else f"{name} "
    lead = 1 if timed else 0
    src, dst, weights, stamps = [], [], [], []
    for lineno, line in enumerate(lines, start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        if "," in line:
            fields = [f.strip() for f in line.split(",") if f.strip()]
        else:
            fields = line.split()
            if not fields:
                continue
        arity = len(fields) - lead
        if arity == 3:
            try:
                weight = float(fields[-1])
            except ValueError as exc:
                raise ValidationError(f"{prefix}line {lineno}: bad weight {fields[-1]!r}") from exc
        elif arity == 2:
            weight = 1.0
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
        src.append(fields[lead])
        dst.append(fields[lead + 1])
        weights.append(weight)
    return (src, dst, np.array(weights, dtype=np.float64),
            np.array(stamps, dtype=np.float64) if timed else None)


def _code_labels(src: list, dst: list):
    """Node labels and the int64 codes of the ``src`` and ``dst`` label
    columns.  The labels are those met in the interleaved (src, dst) column,
    in order of first appearance, so they are distinct."""
    ends = [None] * (2 * len(src))
    ends[0::2], ends[1::2] = src, dst
    labels = list(dict.fromkeys(ends))
    codes = dict(zip(labels, count()))
    coded = np.fromiter(map(codes.__getitem__, ends), np.int64, len(ends))
    return labels, coded[0::2], coded[1::2]


def _merged_edges(labels, src, dst, weight, *, merge, drop_loops, snapshot=None):
    """Validate edge records and merge them: the edge arrays ``(src, dst,
    weight)`` sorted by (src, dst).

    ``src`` and ``dst`` index ``labels``, which are distinct.  Each record
    is checked for its weight, a self-loop and a repeated pair, in that
    order, and the first failing record in input order is reported by its
    labels.  Repeated pairs are summed in record order.  A temporal input
    gives each record's ``snapshot`` index: a pair then repeats only within
    its snapshot, and ``(snapshot, src, dst, weight)`` come back sorted by
    (snapshot, src, dst), so that one pass checks every snapshot.
    """
    if merge not in ("reject", "sum"):
        raise ValidationError(f"unknown merge policy {merge!r}")

    def bad_weight(i, value):
        return (f"edge ({labels[src[i]]!r}, {labels[dst[i]]!r}) "
                f"has non-positive or non-finite weight {float(value)!r}")

    loop = src == dst
    kept = np.flatnonzero(~loop)
    # the kept records in stable key order, and for each whether it repeats
    # the key of the one before it
    keys = [dst, src] if snapshot is None else [dst, src, snapshot]
    order = np.lexsort([key[kept] for key in keys])
    ranked = [key[kept[order]] for key in keys]
    repeat = np.zeros(order.size, dtype=bool)
    repeat[1:] = np.logical_and.reduce([k[1:] == k[:-1] for k in ranked])
    checks = [
        (~((weight > 0) & np.isfinite(weight)), lambda i: bad_weight(i, weight[i])),
        (loop & (not drop_loops), lambda i: f"self-loop on node {labels[src[i]]!r}"),
    ]
    if merge == "reject":
        duplicate = np.zeros(src.size, dtype=bool)
        duplicate[kept[order[repeat]]] = True
        checks.append((duplicate,
                       lambda i: f"duplicate edge ({labels[src[i]]!r}, {labels[dst[i]]!r})"))
    _raise_first(checks)

    group = np.empty(order.size, dtype=np.int64)
    group[order] = np.cumsum(~repeat) - 1
    total = np.zeros(order.size - int(repeat.sum()))
    with np.errstate(over="ignore"):  # an overflowing sum is reported below
        np.add.at(total, group, weight[kept])  # record order within each pair
    first = kept[order[~repeat]]
    overflow = np.flatnonzero(~np.isfinite(total))
    if overflow.size:
        e = overflow[np.argmin(first[overflow])]
        raise ValidationError(bad_weight(first[e], total[e]))
    merged = src[first], dst[first], total
    return merged if snapshot is None else (snapshot[first], *merged)


def parse_edge_list(
    source,
    *,
    merge: str = "reject",
    drop_loops: bool = False,
) -> WeightedGraph:
    """Parse an edge-list text (string, iterable of lines, or open file)."""
    src, dst, weight, _ = _read_columns(source)
    labels, src_codes, dst_codes = _code_labels(src, dst)
    return WeightedGraph._canonical(labels, *_merged_edges(
        labels, src_codes, dst_codes, weight, merge=merge, drop_loops=drop_loops))


def load_edge_list(path, **options) -> WeightedGraph:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_edge_list(handle, **options)


def adjacency(graph: WeightedGraph) -> sp.csr_array:
    """n x n adjacency matrix; entry (i, j) is the weight of edge i -> j.
    It owns its arrays: the graph's are read-only."""
    return as_csr(_adjacency(graph)).copy()


def _adjacency(graph: WeightedGraph) -> _CSR:
    """The adjacency matrix as a ``linalg._CSR``: the canonical edge arrays
    are its entries in CSR order already."""
    n = graph.n
    return _CSR((graph.weight, graph.dst, np.searchsorted(graph.src, np.arange(n + 1))),
                shape=(n, n))


def binarize(graph: WeightedGraph) -> WeightedGraph:
    """The graph with every weight set to 1.  It shares the node-label list,
    so binarized snapshots of a temporal graph keep their one list."""
    return WeightedGraph._canonical(graph.node_labels, graph.src, graph.dst, np.ones(graph.m))


@dataclass
class LineGraphDecomposition:
    """Edge-level matrices of one static graph.

    With edges canonically labelled ``0..m-1``, the paper factorises the
    adjacency matrix as ``A = L^T Z R``: L and R are the m x n source and
    target incidence matrices (``L[e, i] = 1`` when edge e starts at i,
    ``R[e, j] = 1`` when it ends at j) and Z is the diagonal matrix of edge
    weights.  None of the three is stored; the graph's ``src``, ``dst`` and
    ``weight`` arrays are them.  The matrices kept or built here are:

    - ``V``: the backtrack-pruned line graph in half-power form, entry (e,
      f) ``sqrt(w_e) * sqrt(w_f)`` when edge f continues edge e (end of e
      equals start of f) and is not its reversal, so that ``Z^1/2 V**k
      Z^1/2`` carries true multiplicative walk weights of nonbacktracking
      walks.
    - ``half_walk_matrix``: the same on the full continuation pattern,
      reversals included, in V's container; built on first access and kept.

    ``line_graph`` gives V as a ``scipy.sparse.csr_array``; ``_line_graph``,
    which the CLI uses, gives the same arrays as a ``linalg._CSR``, which
    needs no scipy.

    Both scale one chain pattern: the graph is the single snapshot of
    ``_continuations``, which builds the temporal matrices too.  f reverses
    e when ``dst[f] == src[e]``, a test on indices that no underflow can
    miss.  Every half-power matrix in the package is assembled from the
    square-rooted weights rather than by square-rooting products, so that
    independently built edge-level constructions agree bitwise.
    """

    graph: WeightedGraph
    sqrt_weights: np.ndarray
    V: sp.csr_array

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def half_walk_matrix(self) -> sp.csr_array:
        chain = _static_chain(self.graph, self.sqrt_weights, prune=False)
        return chain if isinstance(self.V, _CSR) else as_csr(chain)


def _continuations(src: np.ndarray, dst: np.ndarray, offsets: np.ndarray, n: int,
                   x: np.ndarray, *, within: bool, across: bool,
                   diagonal: bool = False) -> _CSR:
    """``diag(x) @ chain @ diag(x)`` for the continuation pattern ``chain``
    of edges stacked in snapshot blocks, as a ``linalg._CSR``: the builder of
    every edge-level matrix, static and temporal.

    Snapshot tau holds the edges ``offsets[tau]:offsets[tau + 1]``, sorted
    by (src, dst) within the block; a static graph is the one snapshot
    ``[0, m]``.  Edge f may follow edge e when it leaves e's target
    (``src[f] == dst[e]``) in e's snapshot or, unless ``diagonal``, a later
    one: walks may not move back in time.  With the edges ordered by
    (source node, global index), which within one node is snapshot order,
    those f are one run of ``dst[e]``'s out-edges.  Its ends are read from
    a table of each node's out-edges, and searched for only where these
    span the start or the end of e's snapshot.  The reversals (``dst[f] ==
    src[e]``) are dropped by index, so no weight enters the test: within a
    snapshot with ``within``, across snapshots with ``across``.  Entry (e,
    f) is ``x[e] * x[f]``, bit for bit what the sparse products compute,
    and products that underflow to zero are dropped as they drop them.
    """
    m = src.size
    snapshot = np.repeat(np.arange(offsets.size - 1), np.diff(offsets))
    # a single snapshot is in source order already and needs no sort
    ordered = bool(np.all(src[1:] >= src[:-1]))
    by_source = np.arange(m) if ordered else np.argsort(src, kind="stable")
    node_start = np.searchsorted(src[by_source], np.arange(n + 1))
    # the snapshots of each node's first and last out-edge; a node without
    # out-edges starts after the last snapshot
    seen = np.append(snapshot[by_source], offsets.size)
    first, last = seen[node_start[:-1]][dst], seen[node_start[1:] - 1][dst]
    lo, hi = node_start[dst], node_start[dst + 1]
    start = np.where(first >= snapshot, lo, hi)
    stop = np.where(last <= snapshot, hi, lo) if diagonal else hi
    search = np.flatnonzero((first <= snapshot) & (snapshot <= last) & (first < last))
    if search.size:
        # sorted needles search fast, and both ends of a run sort alike;
        # (n + 1) * m stays below 2^63 for any arrays that fit in memory
        key = src[by_source] * m + by_source
        search = search[np.argsort(dst[search] * m + offsets[snapshot[search]])]
        start[search] = np.searchsorted(key, dst[search] * m + offsets[snapshot[search]])
        if diagonal:
            stop[search] = np.searchsorted(key, dst[search] * m + offsets[snapshot[search] + 1])
    counts = stop - start
    rows = np.repeat(np.arange(m), counts)
    at = np.arange(rows.size) + (start - (np.cumsum(counts) - counts))[rows]
    indices = at if ordered else by_source[at]
    across = within if diagonal else across  # a block holds no step across snapshots
    if within or across:
        keep = dst[indices] != src[rows]
        if within != across:  # keep the reversals on the side whose flag is off
            keep |= (snapshot[indices] == snapshot[rows]) != within
        rows, indices = rows[keep], indices[keep]
    values = x[rows] * x[indices]
    stored = values != 0
    if not stored.all():
        rows, indices, values = rows[stored], indices[stored], values[stored]
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=m))))
    return _CSR((values, indices, indptr), shape=(m, m))


def _static_chain(graph: WeightedGraph, x: np.ndarray, *, prune: bool) -> _CSR:
    """One graph's chain matrix, the snapshot ``[0, m]``, pruned or not."""
    return _continuations(graph.src, graph.dst, np.array([0, graph.m]), graph.n, x,
                          within=prune, across=prune)


def line_graph(graph: WeightedGraph) -> LineGraphDecomposition:
    """Build the canonical line-graph decomposition of a graph."""
    decomposition = _line_graph(graph)
    decomposition.V = as_csr(decomposition.V)
    return decomposition


def _line_graph(graph: WeightedGraph) -> LineGraphDecomposition:
    """The line-graph decomposition with ``V`` a ``linalg._CSR``."""
    sqrt_weights = np.sqrt(graph.weight)
    # no edge followed by its reversal
    V = _static_chain(graph, sqrt_weights, prune=True)
    return LineGraphDecomposition(graph=graph, sqrt_weights=sqrt_weights, V=V)


def load_matrix_market(
    path,
    *,
    merge: str = "reject",
    drop_loops: bool = False,
) -> WeightedGraph:
    """Read an adjacency matrix in MatrixMarket coordinate format.

    Indices are 1-based per the format; node labels become "1".."n".
    Zero entries are skipped.  Diagonal entries are self-loops and follow
    ``drop_loops``; entries must be positive.  Repeated entries follow
    ``merge``, summed in file order.
    """
    import scipy.io  # only MatrixMarket input needs it
    import scipy.sparse as sp

    matrix = sp.coo_array(scipy.io.mmread(path))
    nrows, ncols = matrix.shape
    if nrows != ncols:
        raise ValidationError(f"adjacency import requires a square matrix, got {matrix.shape}")
    labels = [str(i + 1) for i in range(nrows)]
    stored = matrix.data != 0.0
    src = matrix.row[stored].astype(np.int64)
    dst = matrix.col[stored].astype(np.int64)
    return WeightedGraph._canonical(labels, *_merged_edges(
        labels, src, dst, matrix.data[stored].astype(np.float64), merge=merge,
        drop_loops=drop_loops))
