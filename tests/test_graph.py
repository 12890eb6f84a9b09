import math
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

import nbtwalks.graph
from nbtwalks import cli
from nbtwalks.edge_level import _half_incidences, walk_counts_via_line_graph
from nbtwalks.errors import ValidationError
from nbtwalks.graph import (
    WeightedGraph,
    adjacency,
    binarize,
    line_graph,
    load_edge_list,
    load_matrix_market,
    parse_edge_list,
)
from nbtwalks.linalg import as_csr, matmul, spectral_radius
from nbtwalks.temporal import load_temporal_edge_list, parse_temporal_edge_list

from conftest import (
    assert_bitwise_equal,
    directed_cycle,
    product_form,
    random_digraph,
    rel_dev,
    two_node_reciprocated,
    undirected_path,
    write_uniform_temporal,
)


class TestParsing:
    def test_reciprocated_pair(self):
        g = parse_edge_list("a b 2\nb a 2")
        assert g.n == 2 and g.m == 2
        assert g.edges == [(0, 1, 2.0), (1, 0, 2.0)]

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            parse_edge_list("a a 1")

    def test_self_loop_dropped_on_request(self):
        g = parse_edge_list("a a 1\na b 1", drop_loops=True)
        assert g.m == 1

    def test_duplicate_rejected_or_summed(self):
        with pytest.raises(ValidationError, match="duplicate"):
            parse_edge_list("a b 2\na b 3")
        g = parse_edge_list("a b 2\na b 3", merge="sum")
        assert g.edges == [(0, 1, 5.0)]

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValidationError):
            parse_edge_list("a b 0")
        with pytest.raises(ValidationError):
            parse_edge_list("a b -1")

    def test_default_weight_and_comments(self):
        g = parse_edge_list("# header\na b\n\nb c 3  # trailing\n")
        assert g.edges == [(0, 1, 1.0), (1, 2, 3.0)]

    def test_comma_delimited(self):
        g = parse_edge_list("a,b,2\nb,c,3")
        assert g.m == 2

    def test_first_appearance_vs_sorted_order(self):
        g = parse_edge_list("z a 1\na b 1")
        assert g.node_labels == ["z", "a", "b"] != sorted(g.node_labels)


# Edge-list texts for the columnar reader: each must read as the line loop
# reads the same lines.  The plain tables among them are tokenized by one
# whole-text split; the rest go through the line loop.
PLAIN_TABLES = {
    "two-columns": "a b\nb c\nc a\n",
    "three-columns": "a b 1.5\nb c 2\nc a 3\n",
    "tabs": "a\tb\t2\nb\t\tc 3\n",
    "space-runs": "a    b   2\n   b c 3   \n",
    "blank-lines": "a b 1\n\n   \n\t\nb c 2\n\n",
    "no-final-newline": "a b 1\nb c 2",
    "weight-underscore": "a b 1_0\nb c 2\n",
    "weight-exponent": "a b 1e3\nb c .5\n",
    "duplicates": "a b 1\nb c 2\na b 3\n",
    "self-loops": "a a 1\na b 2\nb b 3\nb c 1\n",
    "numeric-labels": "1 2 3\n2 1 4\n",
    "timed": "0 a b 1\n1 b c 2\n0 c a 3\n",
    "timed-two-columns": "2 a b\n1 b c\n2 c a\n",
    "timed-signed-zero": "-0 a b 1\n1 b c 2\n0 c a 3\n",
    "timed-duplicates": "0 a b 0.1\n1 a b 9\n0 a b 0.2\n0 c c 1\n0 a b 0.3\n",
}
OTHER_TEXTS = {
    "empty": "",
    "blank-only": "\n  \n",
    "crlf": "a b 1\r\nb c 2\r\n",
    "comments": "# header\na b 1\nb c 2 # trailing\n",
    "commas": "a,b,1\nb, c ,2\n",
    "mixed-fields": "a b\nb c 2\n",
    "form-feed": "a b 1\x0cb c 2\n",
    "unit-separator": "a b 1\x1fb c 2\n",
    "vertical-tab": "a b\x0b1\n",
    "control-byte": "a b\x01 1\n",
    "non-ascii": "\u00e9 b 1\nb \u00fc 2\n",
    "weight-x": "a b 1\nb c x\n",
    "weight-nan": "a b 1\nb c nan\n",
    "weight-inf": "a b 1\nb c inf\n",
    "weight-negative": "a b 1\nb c -1\n",
    "one-field": "a\n",
    "four-fields": "a b 1 2\n",
    "many-fields": "0 a b 1 2 3\n",
    "timed-bad-stamp": "0 a b 1\n\nt b c 1\n",
    "timed-nan-stamp": "0 a b 2\nnan b c 3\n1 c a 1\n",
    "timed-inf-stamp": "0 a b 2\n-inf b c 3\n",
    "timed-bad-weight": "0 a b 1\n1 b c x\n",
    "timed-stamp-and-weight": "0 a b x\nt b c 1\n",
}
OPTIONS = [{}, {"merge": "sum"}, {"drop_loops": True}, {"merge": "sum", "drop_loops": True}]


def graph_bits(g: WeightedGraph):
    return (g.node_labels, g.src.tobytes(), g.dst.tobytes(), g.weight.tobytes())


def outcome(parse, source, options):
    """The graph bits, timestamps included, or the error a parse gives."""
    try:
        result = parse(source, **options)
    except ValidationError as exc:
        return "error", str(exc)
    if isinstance(result, WeightedGraph):
        return graph_bits(result)
    return ([graph_bits(g) for g in result.snapshots],
            np.array(result.timestamps).tobytes())


class TestColumnarIngestion:
    """A text reads as the line loop reads its lines given as a list: the same
    graph bits, or the same error text."""

    @pytest.mark.parametrize("options", OPTIONS, ids=lambda o: ",".join(o) or "default")
    @pytest.mark.parametrize("text", [*PLAIN_TABLES.values(), *OTHER_TEXTS.values()],
                             ids=[*PLAIN_TABLES, *OTHER_TEXTS])
    def test_string_reads_as_its_lines(self, text, options):
        for parse in (parse_edge_list, parse_temporal_edge_list):
            assert outcome(parse, text, options) == outcome(parse, text.splitlines(), options)

    @pytest.mark.parametrize("text", [*PLAIN_TABLES.values(), *OTHER_TEXTS.values()],
                             ids=[*PLAIN_TABLES, *OTHER_TEXTS])
    def test_file_reads_as_its_lines(self, tmp_path, text):
        path = tmp_path / "edges.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as handle:
            lines = list(handle)
        for load, parse in ((load_edge_list, parse_edge_list),
                            (load_temporal_edge_list, parse_temporal_edge_list)):
            for options in OPTIONS:
                assert outcome(load, path, options) == outcome(parse, lines, options)

    @pytest.mark.parametrize("text", PLAIN_TABLES.values(), ids=PLAIN_TABLES)
    def test_plain_tables_skip_the_line_loop(self, monkeypatch, text):
        def refuse(*args):
            raise AssertionError("a plain table went through the line loop")

        served = 0
        for parse in (parse_edge_list, parse_temporal_edge_list):
            kind, detail, *_ = outcome(parse, text.splitlines(), {})
            if kind == "error" and detail.startswith("line "):
                continue   # a field count, weight or stamp the line loop reports
            with monkeypatch.context() as patch:
                patch.setattr(nbtwalks.graph, "_line_columns", refuse)
                outcome(parse, text, {})
            served += 1
        assert served

    def test_signed_zero_stamp_of_first_record(self):
        tg = parse_temporal_edge_list(PLAIN_TABLES["timed-signed-zero"])
        assert [math.copysign(1.0, t) for t in tg.timestamps] == [-1.0, 1.0]

    def test_bench_size_file(self, tmp_path, bench_size_graph):
        g = bench_size_graph
        path = tmp_path / "large.txt"
        path.write_text("".join(f"{s} {d} {w!r}\n" for s, d, w in g.edges), encoding="utf-8")
        parsed = load_edge_list(path)
        with open(path, encoding="utf-8") as handle:
            assert graph_bits(parsed) == graph_bits(parse_edge_list(list(handle)))
        # the file lists the edges in canonical order, so mapping the labels
        # back to node indices gives the fixture's arrays in that order
        node = np.array([int(label) for label in parsed.node_labels])
        src, dst = node[parsed.src], node[parsed.dst]
        order = np.lexsort((dst, src))
        assert np.array_equal(src[order], g.src) and np.array_equal(dst[order], g.dst)
        assert parsed.weight[order].tobytes() == g.weight.tobytes()


def raises_exactly(message):
    return pytest.raises(ValidationError, match=f"^{re.escape(message)}$")


NOT_A_RECORD = ("edge record %s is not a (src, dst, weight) triple with integer src and dst "
                "and a real weight")


class TestValidation:
    """The constructor and the readers report each fault of a record with
    one message, naming the first offending record in input order."""

    LABELS = ["a", "b", "c"]

    @pytest.mark.parametrize("edges, message", [
        ([(0, 1, 1.0), (0, 5, 1.0), (7, 0, 1.0)], "edge (0, 5) out of range for 3 nodes"),
        ([(0, 1, 1.0), (-1, 0, 1.0)], "edge (-1, 0) out of range for 3 nodes"),
        ([(0, 1, 1.0), (1, 1, 1.0), (2, 2, 1.0)], "self-loop on node 'b'"),
        ([(0, 1, 1.0), (1, 2, -1.0), (2, 0, 0.0)],
         "edge ('b', 'c') has non-positive or non-finite weight -1.0"),
        ([(0, 1, 1.0), (1, 2, 0)], "edge ('b', 'c') has non-positive or non-finite weight 0.0"),
        ([(2, 0, math.inf), (1, 2, math.nan)],
         "edge ('c', 'a') has non-positive or non-finite weight inf"),
        ([(0, 1, 1.0), (1, 2, math.nan)],
         "edge ('b', 'c') has non-positive or non-finite weight nan"),
        ([(0, 1, 1.0), (2, 1, 1.0), (2, 1, 2.0), (0, 1, 3.0)], "duplicate edge ('c', 'b')"),
        # one record, two faults: the range test comes before the weight
        # test, and the weight test before the loop test
        ([(1, 1, -1.0)], "edge ('b', 'b') has non-positive or non-finite weight -1.0"),
        ([(0, 3, -1.0)], "edge (0, 3) out of range for 3 nodes"),
        # an index out of range names no label: the range test covers the
        # whole input before any record is checked for its weight
        ([(1, 2, -1.0), (0, 9, 1.0)], "edge (0, 9) out of range for 3 nodes"),
        # codes far apart: any sort of the edges must still reach the range test
        ([(0, 1, 1.0), (-2**62, 2**62, 1.0)],
         f"edge ({-2**62}, {2**62}) out of range for 3 nodes"),
        # a record is a triple of two integer node indices and a weight
        ([(0, 1, 1.0), (0.5, 1, 1.0)], NOT_A_RECORD % "(0.5, 1, 1.0)"),
        ([(1.9, 0, 2.0)], NOT_A_RECORD % "(1.9, 0, 2.0)"),
        ([("1", 0, 1.0)], NOT_A_RECORD % "('1', 0, 1.0)"),
        ([(0, 1, 1.0), (1, 2)], NOT_A_RECORD % "(1, 2)"),
        ([(0, 1, 1.0, 9.0)], NOT_A_RECORD % "(0, 1, 1.0, 9.0)"),
        ([(0, 9, 1.0), (0.5, 1, 1.0)], "edge (0, 9) out of range for 3 nodes"),
        # ... whose weight is a real number, numpy's included, but no bool
        ([(0, 1, 1.0), (1, 2, "x")], NOT_A_RECORD % "(1, 2, 'x')"),
        ([(0, 1, "2.0")], NOT_A_RECORD % "(0, 1, '2.0')"),
        ([(0, 1, True)], NOT_A_RECORD % "(0, 1, True)"),
    ])
    def test_weighted_graph(self, edges, message):
        with raises_exactly(message):
            WeightedGraph(self.LABELS, edges)

    @pytest.mark.parametrize("text, options, message", [
        ("a b 1\nb b 1\nc c 1\n", {}, "self-loop on node 'b'"),
        ("a b 1\nb c -1\nc a 0\n", {},
         "edge ('b', 'c') has non-positive or non-finite weight -1.0"),
        ("a b 1\nb c 0\n", {}, "edge ('b', 'c') has non-positive or non-finite weight 0.0"),
        ("a b 1\nb c inf\nc a nan\n", {},
         "edge ('b', 'c') has non-positive or non-finite weight inf"),
        ("a b 1\nb c nan\n", {}, "edge ('b', 'c') has non-positive or non-finite weight nan"),
        ("a b 1\nc b 1\nc b 2\na b 3\n", {}, "duplicate edge ('c', 'b')"),
        # one record, two faults: the weight test comes before the loop test,
        # and a loop that would be dropped is still checked for its weight
        ("a b 1\nb b -1\n", {}, "edge ('b', 'b') has non-positive or non-finite weight -1.0"),
        ("a b 1\nb b -1\n", {"drop_loops": True},
         "edge ('b', 'b') has non-positive or non-finite weight -1.0"),
        ("a b 1\nb c 1\na b 2\nc c 1\n", {}, "duplicate edge ('a', 'b')"),
        # a sum that overflows is caught on the merged weight
        ("a b 1e308\nb a 1\na b 1e308\n", {"merge": "sum"},
         "edge ('a', 'b') has non-positive or non-finite weight inf"),
    ])
    def test_parse_edge_list(self, text, options, message):
        with raises_exactly(message):
            parse_edge_list(text, **options)

    @pytest.mark.parametrize("edges", [
        [(0, 1, 1.0), (1, 2, -1.0), (2, 0, 2.0)],
        [(0, 1, 1.0), (1, 2, math.inf), (2, 0, math.nan)],
        [(0, 1, 1.0), (1, 2, math.nan)],
        [(0, 1, 1.0), (1, 1, 1.0), (2, 2, 1.0)],
        [(0, 1, 1.0), (2, 1, 1.0), (2, 1, 2.0), (0, 1, 3.0)],
        [(0, 1, 1.0), (1, 1, -1.0)],
        [(1, 1, 1.0), (1, 2, -1.0)],
        [(0, 1, 1.0), (1, 2, 1.0), (0, 1, 2.0), (2, 2, 1.0)],
    ])
    def test_every_reader_reports_a_record_fault_alike(self, edges, tmp_path):
        # MatrixMarket skips zero entries, so no case has a zero weight
        labels = ["1", "2", "3"]
        lines = [f"{s + 1} {d + 1} {w!r}" for s, d, w in edges]
        path = tmp_path / "faulty.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"3 3 {len(edges)}\n" + "\n".join(lines) + "\n")
        messages = set()
        for make in (lambda: WeightedGraph(labels, edges),
                     lambda: parse_edge_list("\n".join(lines)),
                     lambda: load_matrix_market(path)):
            with pytest.raises(ValidationError) as info:
                make()
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_duplicate_node_labels(self):
        with raises_exactly("duplicate node labels"):
            WeightedGraph(["a", "a"], [])

    def test_edges_are_python_triples_in_canonical_order(self):
        g = WeightedGraph(["a", "b", "c"],
                          [(2, 0, 1.5), (np.int64(0), 2, 2), (0, 1, np.float64(3.0))])
        assert g.edges == [(0, 1, 3.0), (0, 2, 2.0), (2, 0, 1.5)]
        assert isinstance(g.edges, list)
        assert all(type(s) is int and type(d) is int and type(w) is float
                   for s, d, w in g.edges)
        parsed = parse_edge_list("a b 3\na c 2\nc a 1.5\n")
        assert parsed.edges == g.edges

    def test_arrays_are_sorted_and_read_only(self):
        g = parse_edge_list("c a 1.5\na c 2\na b 3\nb c 0.5\n")
        # labels c, a, b are nodes 0, 1, 2
        assert g.src.tolist() == [0, 1, 1, 2] and g.dst.tolist() == [1, 0, 2, 0]
        assert g.weight.tolist() == [1.5, 2.0, 3.0, 0.5]
        for column in (g.src, g.dst, g.weight):
            with pytest.raises(ValueError):
                column[0] = 0
        g.edges.clear()  # a derived list: clearing it leaves the graph alone
        assert g.m == 4


class TestAdjacency:
    def test_reciprocated(self):
        a = adjacency(two_node_reciprocated(2.0))
        assert a.toarray().tolist() == [[0, 2], [2, 0]]

    def test_empty_edge_set(self):
        g = WeightedGraph(["a", "b"], [])
        assert adjacency(g).nnz == 0

    def test_directed_cycle(self):
        a = adjacency(directed_cycle((1, 2, 3)))
        assert a[0, 1] == 1 and a[1, 2] == 2 and a[2, 0] == 3

    def test_binarize(self):
        g = binarize(directed_cycle((1, 2, 3)))
        assert all(w == 1.0 for _, _, w in g.edges)

    def test_binarized_snapshots_share_one_label_list(self, tmp_path):
        tg = load_temporal_edge_list(write_uniform_temporal(tmp_path / "t.txt", 1, 50, 20, 30))
        binarized = cli._binarized("temporal", tg)
        labels = tg.snapshots[0].node_labels
        assert all(g.node_labels is labels for g in binarized.snapshots)
        assert binarize(tg.snapshots[0]).node_labels is labels


def full_weight(g, *, prune):
    """The line graph scaled by the weights, not their square roots: W, or
    the Hashimoto matrix B when pruned.  ``block_radius_bound`` takes the
    radius of these."""
    return as_csr(nbtwalks.graph._static_chain(g, g.weight, prune=prune))


class TestLineGraph:
    def test_undirected_path(self):
        g = undirected_path()
        d = line_graph(g)
        assert d.m == 4
        # canonical lexicographic order: (0,1), (1,0), (1,2), (2,1)
        labels = [f"{g.node_labels[s]}->{g.node_labels[d]}" for s, d, _ in g.edges]
        assert labels == ["1->2", "2->1", "2->3", "3->2"]
        b = full_weight(g, prune=True).toarray()
        assert np.count_nonzero(b) == 2
        assert b[0, 2] == 2.0 and b[3, 1] == 2.0
        v = d.V.toarray()
        assert v[0, 2] == pytest.approx(math.sqrt(2), abs=0) and v[3, 1] == v[0, 2]
        assert spectral_radius(d.V) == 0.0

    def test_two_node_reciprocated(self):
        g = two_node_reciprocated(2.0)
        w = full_weight(g, prune=False).toarray()
        assert w[0, 1] == 4.0 and w[1, 0] == 4.0 and np.count_nonzero(w) == 2
        assert full_weight(g, prune=True).nnz == 0
        assert line_graph(g).V.nnz == 0

    def test_directed_cycle_has_no_backtracking(self):
        g = directed_cycle((1, 2, 3))
        d = line_graph(g)
        w = full_weight(g, prune=False)
        assert rel_dev(full_weight(g, prune=True), w) == 0.0
        assert rel_dev(d.V, d.half_walk_matrix) == 0.0
        assert sorted(w.tocoo().data.tolist()) == [2.0, 3.0, 6.0]

    def test_incidence_factorization_exact(self, rng, bench_size_graph):
        # the factorization A = L^T Z R: zero line-graph steps give the
        # adjacency bit for bit, and the half-weight incidences L^T Z^1/2 and
        # Z^1/2 R multiply to it on its exact pattern, within 2 ulps
        graphs = [random_digraph(rng, int(rng.integers(2, 7))) for _ in range(15)]
        for g in graphs + TestLineGraphBitwise.graphs() + [bench_size_graph]:
            d = line_graph(g)
            a = adjacency(g)
            assert_bitwise_equal(walk_counts_via_line_graph(d, 0)[0], a)
            product = matmul(*_half_incidences(d))
            assert np.array_equal(product.indptr, a.indptr)
            assert np.array_equal(product.indices, a.indices)
            assert np.all(np.abs(product.data - a.data) <= 2 * np.spacing(a.data))

    def test_line_matrix_semantics(self, rng):
        # W[e, f] is nonzero exactly when f continues e, with value w_e * w_f
        g = random_digraph(rng, 5)
        w = full_weight(g, prune=False).toarray()
        for e in range(g.m):
            for f in range(g.m):
                if g.dst[e] == g.src[f]:
                    assert w[e, f] == g.weight[e] * g.weight[f]
                else:
                    assert w[e, f] == 0.0

    def test_no_reciprocation_means_no_pruning(self, rng):
        g = directed_cycle((1.5, 0.5, 2.5, 1.0))
        assert rel_dev(full_weight(g, prune=True), full_weight(g, prune=False)) == 0.0

    def test_half_power_identity(self, rng):
        # entries of the half walk matrix are sqrt(w_e) * sqrt(w_f) on W's
        # pattern, and squaring them reproduces W to within rounding
        for _ in range(10):
            g = random_digraph(rng, 5)
            half = line_graph(g).half_walk_matrix
            w = full_weight(g, prune=False)
            assert np.array_equal(half.indices, w.indices)
            assert np.array_equal(half.indptr, w.indptr)
            assert rel_dev(half.multiply(half), w) <= 4e-16
            sq = w.copy()
            sq.data = np.sqrt(sq.data)
            assert rel_dev(half, sq) <= 4e-16

    def test_half_power_identity_exact_binary(self, rng):
        # for 0/1 weights both routes are exact
        g = binarize(random_digraph(rng, 6))
        half = line_graph(g).half_walk_matrix
        sq = full_weight(g, prune=False).copy()
        sq.data = np.sqrt(sq.data)
        assert (half - sq).count_nonzero() == 0

    def test_v_matches_hashimoto_pattern(self, rng):
        g = random_digraph(rng, 6)
        v, b = line_graph(g).V, full_weight(g, prune=True)
        assert np.array_equal(v.indices, b.indices)
        assert np.array_equal(v.indptr, b.indptr)
        if b.nnz:
            assert rel_dev(v.multiply(v), b) <= 4e-16

    def test_empty_graph(self):
        d = line_graph(WeightedGraph(["a", "b"], []))
        assert d.m == 0
        assert d.V.shape == d.half_walk_matrix.shape == (0, 0)



class TestLineGraphBitwise:
    """``line_graph`` scales one chain pattern; every matrix must match the
    product form bit for bit, pattern included."""

    @staticmethod
    def graphs():
        rng = np.random.default_rng(2000)
        seeded = random_digraph(rng, 71, p=0.4)  # about 2,000 edges
        # weights whose products underflow: W and B drop those entries, the
        # half-power matrices keep them, and V still drops the reversals
        tiny = WeightedGraph(["a", "b", "c"],
                             [(0, 1, 1e-170), (1, 0, 1e-170), (1, 2, 1e-3), (2, 0, 1e-200)])
        golden = Path(__file__).parent / "data" / "golden" / "g300.txt"
        return [two_node_reciprocated(), undirected_path(), directed_cycle(),
                directed_cycle((1.5, 0.5, 2.5, 1.0)), WeightedGraph(["a", "b"], []),
                load_edge_list(golden), seeded, binarize(seeded), tiny]

    def test_matches_product_form(self):
        graphs = self.graphs()
        assert 1900 <= graphs[-3].m <= 2100
        for g in graphs:
            d = line_graph(g)
            ref = product_form(g)
            assert_bitwise_equal(full_weight(g, prune=False), ref["W"])
            assert_bitwise_equal(full_weight(g, prune=True), ref["B"])
            assert_bitwise_equal(d.V, ref["V"])
            assert_bitwise_equal(d.half_walk_matrix, ref["half"])
            out_half, in_half = _half_incidences(d)
            assert_bitwise_equal(out_half, matmul(ref["L"].T, ref["sqrt_Z"]))
            assert_bitwise_equal(in_half, matmul(ref["sqrt_Z"], ref["R"]))

    def test_matches_product_form_at_bench_size(self, bench_size_graph):
        # 20,000 nodes and about 125,000 edges: the run lookup at the size of
        # the benchmark's static-large input
        assert_bitwise_equal(line_graph(bench_size_graph).V, product_form(bench_size_graph)["V"])

    def test_v_holds_no_reversal(self):
        # f reverses e when dst[f] == src[e]; V keeps no such step, even where
        # the weight product w_e * w_f underflows to zero
        for g in self.graphs():
            v = line_graph(g).V.tocoo()
            assert not np.any(g.dst[v.col] == g.src[v.row])

    def test_half_walk_matrix_is_built_once(self):
        d = line_graph(undirected_path())
        assert set(vars(d)) == {"graph", "sqrt_weights", "V"}
        assert d.half_walk_matrix is d.half_walk_matrix


class TestMatrixMarket:
    def test_round_trip(self, tmp_path, rng):
        g = random_digraph(rng, 5)
        path = tmp_path / "adj.mtx"
        scipy.io.mmwrite(path, sp.coo_matrix(adjacency(g)), field="real", symmetry="general")
        back = load_matrix_market(path)
        assert rel_dev(adjacency(back), adjacency(g)) <= 1e-12
        assert back.node_labels == [str(i + 1) for i in range(5)]

    def test_loop_policy(self, tmp_path):
        path = tmp_path / "loop.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n1 2 2.0\n"
        )
        with pytest.raises(ValidationError, match="self-loop"):
            load_matrix_market(path)
        g = load_matrix_market(path, drop_loops=True)
        assert g.edges == [(0, 1, 2.0)]

    def test_zero_entries_repeats_and_bad_weights(self, tmp_path):
        path = tmp_path / "repeat.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 6\n"
            "1 2 0.1\n3 1 0\n1 2 0.2\n2 3 4\n1 2 0.3\n3 1 0\n"
        )
        with raises_exactly("duplicate edge ('1', '2')"):
            load_matrix_market(path)
        g = load_matrix_market(path, merge="sum")
        # zero entries are skipped; repeats are summed in file order
        assert g.edges == [(0, 1, (0.1 + 0.2) + 0.3), (1, 2, 4.0)]
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 2 1\n2 2 -1\n2 1 -2\n"
        )
        with raises_exactly("edge ('2', '2') has non-positive or non-finite weight -1.0"):
            load_matrix_market(path, drop_loops=True)
