import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import nbtwalks.cli
import nbtwalks.temporal
from nbtwalks.cli import _kendall_tau_b, _ranking, main, printed, read_back
from nbtwalks.crosschecks import CheckResult
from nbtwalks.graph import WeightedGraph, adjacency, line_graph
from nbtwalks.linalg import as_csr, spectral_radius
from nbtwalks.temporal import (
    BacktrackRegime,
    build_global_transition,
    parse_temporal_edge_list,
)

from conftest import (
    cli_env,
    dense_resolvent_scores,
    reversal_heavy_text,
    write_uniform_temporal,
)

GOLDEN = Path(__file__).parent / "data" / "golden"

TRIANGLE = "a b 1\nb a 1\nb c 1\nc b 1\nc a 1\na c 1\n"
PAIR = "a b 2\nb a 2\n"
TEMPORAL = "0 1 2 2\n1 2 1 3\n"
# three snapshots of 4, 3 and 4 edges, each with a directed triangle
TEMPORAL3 = ("0 a b 1.5\n0 b c 1\n0 c a 2\n0 b a 2\n1 a c 2\n1 c b 1\n1 b a 0.5\n"
             "2 a b 3\n2 b c 1\n2 c a 1\n2 a c 1\n")
# 4-cycle mapped onto itself by a<->d, b<->c: a and d score alike in exact
# arithmetic, but the solver may leave them an ulp apart
CYCLE4 = "a b 1\nb a 1\nb c 2\nc b 2\nc d 1\nd c 1\nd a 3\na d 3\n"


@pytest.fixture
def triangle(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE)
    return str(path)


@pytest.fixture
def pair(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text(PAIR)
    return str(path)


@pytest.fixture
def cycle4(tmp_path):
    path = tmp_path / "cycle4.txt"
    path.write_text(CYCLE4)
    return str(path)


@pytest.fixture
def temporal(tmp_path):
    path = tmp_path / "temporal.txt"
    path.write_text(TEMPORAL)
    return str(path)


@pytest.fixture
def temporal3(tmp_path):
    path = tmp_path / "temporal3.txt"
    path.write_text(TEMPORAL3)
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestRadius:
    def test_static_sections(self, triangle, capsys):
        code, out, _ = run_cli(["radius", "--input", triangle, "--binarize"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "section,quantity,value"
        assert any(line.startswith("original,rho_adjacency,2") for line in lines)
        assert any(line.startswith("binarized,") for line in lines)

    def test_nbt_range_single_cycle(self, tmp_path, capsys):
        # uniform weight w on a directed cycle: permitted nbt range is [0, 1/w)
        path = tmp_path / "cycle.txt"
        path.write_text("a b 2.5\nb c 2.5\nc a 2.5\n")
        code, out, _ = run_cli(["radius", "--input", str(path)], capsys)
        assert code == 0
        row = [l for l in out.splitlines() if l.startswith("original,nbt_t_range")][0]
        assert row.endswith("[0, 0.4)")

    def test_temporal_quantities(self, temporal, capsys):
        code, out, _ = run_cli(["radius", "--input", temporal, "--temporal"], capsys)
        assert code == 0
        assert "rho_transition" in out and "max_rho_adjacency" in out
        assert "max_rho_diagonal_block" in out

    def test_json_format(self, triangle, capsys):
        code, out, _ = run_cli(["radius", "--input", triangle, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"] == ["section", "quantity", "value"]

    def test_static_radius_takes_no_pole(self, triangle, monkeypatch, capsys):
        # the elementwise pole only chooses the route of nbt-katz scores,
        # which radius does not print
        poles = []
        monkeypatch.setattr(nbtwalks.cli, "elementwise_pole", poles.append)
        code, _, _ = run_cli(["radius", "--input", triangle, "--binarize"], capsys)
        assert code == 0 and poles == []


class TestRadiusCalls:
    """Each snapshot block enters the radius computation once, and no radius
    is taken of a matrix that holds an entry of the temporal M between two
    snapshots."""

    @pytest.fixture
    def matrices(self, monkeypatch):
        """Matrices passed to spectral_radius, in call order, as scipy arrays."""
        seen = []

        def counted(matrix, *args, **kwargs):
            seen.append(as_csr(matrix))
            return spectral_radius(matrix, *args, **kwargs)

        for module in (nbtwalks.cli, nbtwalks.temporal):
            monkeypatch.setattr(module, "spectral_radius", counted)
        return seen

    @staticmethod
    def temporal_graph(path):
        with open(path) as handle:
            return parse_temporal_edge_list(handle)

    def test_temporal_katz_takes_one_radius_per_snapshot(self, temporal3, matrices, capsys):
        code, _, _ = run_cli(["centrality", "--input", temporal3, "--temporal",
                              "--measure", "katz", "--t", "0.5r"], capsys)
        assert code == 0
        # the snapshot adjacencies, each once and in order, on the diagonal
        want = sp.block_diag([adjacency(g) for g in self.temporal_graph(temporal3).snapshots])
        got = sp.block_diag(matrices)
        assert got.shape == want.shape and (got != want).nnz == 0

    @pytest.mark.parametrize("command", [
        ["radius"],
        ["centrality", "--measure", "nbt-katz", "--t", "0.5r"],
    ])
    def test_no_radius_of_the_assembled_transition(self, temporal3, matrices, command, capsys):
        gd = build_global_transition(self.temporal_graph(temporal3), BacktrackRegime.FORBID_ALL)
        snapshot = np.searchsorted(gd.temporal.offsets, np.arange(gd.m_total), side="right") - 1
        between = gd.M.tocoo()
        assert np.any(snapshot[between.row] != snapshot[between.col])
        code, _, _ = run_cli([*command, "--input", temporal3, "--temporal"], capsys)
        assert code == 0
        edge_level = [m for m in matrices if m.shape[0] == gd.m_total]
        for m in edge_level:
            coo = sp.coo_array(m)
            assert np.all(snapshot[coo.row] == snapshot[coo.col])
        # the snapshot blocks of M, each once, enter one call
        blocks = sp.block_diag([line_graph(g).V for g in gd.temporal.snapshots])
        assert sum((m != blocks).nnz == 0 for m in edge_level) == 1


class TestTransitionAssembly:
    """The temporal radius and resolvent work on the snapshot blocks and never
    assemble the global transition matrix M; walk counts and the oracle
    battery assemble it on first use."""

    @pytest.mark.parametrize("command", [
        ["radius"],
        ["centrality", "--measure", "nbt-katz", "--t", "0.5r"],
        ["centrality", "--measure", "nbt-katz", "--t", "0.9r", "--regime", "forbid-time"],
        ["sweep", "--measure", "nbt-katz", "--grid", "0.2r,0.7r"],
    ])
    def test_never_assembled(self, temporal3, monkeypatch, command, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the global transition matrix was assembled")

        # M is the scipy view of _M: refusing _M refuses both
        monkeypatch.setattr(nbtwalks.temporal.GlobalDecomposition, "_M", property(refuse))
        code, _, _ = run_cli([*command, "--input", temporal3, "--temporal"], capsys)
        assert code == 0

    @pytest.mark.parametrize("command", [["walk-count", "--kmax", "2"], ["oracle-check"]])
    def test_assembled_on_demand(self, temporal3, monkeypatch, command, capsys):
        assembled = []
        real = nbtwalks.temporal.GlobalDecomposition._M

        def counted(gd):
            assembled.append(gd)
            return real.__get__(gd)

        monkeypatch.setattr(nbtwalks.temporal.GlobalDecomposition, "_M", property(counted))
        code, _, _ = run_cli([*command, "--input", temporal3, "--temporal"], capsys)
        assert code == 0
        assert assembled


class TestStackedTemporalInput:
    """A temporal input is read into its stacked edge arrays, and
    ``--binarize`` sets their weights to 1: no command but ``oracle-check``
    builds a snapshot graph, by a reader, ``--binarize`` or ``snapshots``."""

    @pytest.mark.parametrize("command", [
        ["radius", "--binarize"],
        ["centrality", "--binarize", "--measure", "nbt-katz", "--t", "0.5r"],
        ["centrality", "--binarize", "--measure", "katz", "--t", "0.5r"],
        ["centrality", "--measure", "nbt-katz", "--t", "0.9r", "--regime", "forbid-time"],
        ["centrality", "--measure", "f-centrality", "--series", "exponential", "--t", "0.1"],
        ["sweep", "--measure", "nbt-katz", "--grid", "0.2r,0.7r"],
        ["walk-count", "--kmax", "2"],
    ])
    def test_builds_no_snapshot_graph(self, temporal3, monkeypatch, command, capsys):
        built = []
        canonical = WeightedGraph._canonical

        def counted(cls, *args):
            built.append(args)
            return canonical(*args)

        monkeypatch.setattr(WeightedGraph, "_canonical", classmethod(counted))
        code, out, _ = run_cli([*command, "--input", temporal3, "--temporal"], capsys)
        assert code == 0 and out
        assert built == []


class TestCentrality:
    def test_temporal_resolvent_reversal_heavy(self, tmp_path, capsys):
        # 1,249 edges: 39 snapshots of b -> a, b -> c of weight 1e12 and a
        # 6-node clique behind a -> b of weight 1e30.  Subtracting the pair
        # (b, a) from b's later out-mass printed a = 1.25000000023e+39.
        text = reversal_heavy_text(39, 6, 1e12)
        path = tmp_path / "reversal_heavy.txt"
        path.write_text(text)
        code, out, err = run_cli(["centrality", "--input", str(path), "--temporal",
                                  "--measure", "nbt-katz", "--t", "0.9r"], capsys)
        assert code == 0, err
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert rows[0][0] == "a"
        gd = build_global_transition(parse_temporal_edge_list(text), BacktrackRegime.FORBID_ALL)
        assert gd.m_total == 1249
        dense = dense_resolvent_scores(gd, 0.9 / gd.transition_radius)
        labels = gd.temporal.node_labels
        got = read_back([score for _, score, _ in rows])
        want = dense[[labels.index(node) for node, _, _ in rows]]
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)
        assert rows[0][1] == "1.975625e+42"

    def test_temporal_resolvent_near_the_radius(self, tmp_path, capsys):
        # 500 nodes, 20 snapshots of 500 uniformly placed edges: the global
        # GMRES solve of I - tM stalled here and exited 3 after a minute
        path = write_uniform_temporal(tmp_path / "uniform.txt", 1, 500, 500, 20)
        code, out, err = run_cli(["centrality", "--input", str(path), "--temporal",
                                  "--measure", "nbt-katz", "--t", "0.7r", "--top", "3"], capsys)
        assert code == 0, err
        assert len(out.splitlines()) == 4

    def test_tie_break_by_label(self, pair, capsys):
        code, out, _ = run_cli(
            ["centrality", "--input", pair, "--measure", "nbt-katz", "--t", "0.1"], capsys
        )
        assert code == 0
        assert out.splitlines() == ["node,score,rank", "a,1.2,1", "b,1.2,2"]

    def test_fraction_of_radius(self, triangle, capsys):
        code, out, _ = run_cli(
            ["centrality", "--input", triangle, "--measure", "katz", "--t", "0.5r"], capsys
        )
        assert code == 0
        # rho(A) = 2 -> t = 0.25 -> scores 1/(1-2t) = 2
        assert all(line.split(",")[1] == "2" for line in out.splitlines()[1:])

    def test_ill_conditioned_certified_solve_is_silent(self, tmp_path):
        # one ulp below the radius the Katz system is nearly singular; the
        # residual check certifies the solve, so stderr stays empty
        path = tmp_path / "unit_pair.txt"
        path.write_text("a b 1\nb a 1\n")
        result = subprocess.run(
            [sys.executable, "-m", "nbtwalks.cli", "centrality", "--input", str(path),
             "--measure", "katz", "--t", "0.9999999999999999r"],
            capture_output=True, text=True, check=False, env=cli_env(),
        )
        assert result.returncode == 0
        assert result.stderr == ""

    def test_inadmissible_t_prints_range(self, pair, capsys):
        code, _, err = run_cli(
            ["centrality", "--input", pair, "--measure", "katz", "--t", "0.5"], capsys
        )
        assert code == 2
        assert "permitted range" in err and "[0, 0.5)" in err

    def test_fraction_rejected_when_unbounded(self, pair, capsys):
        code, _, err = run_cli(
            ["centrality", "--input", pair, "--measure", "nbt-katz", "--t", "0.95r"], capsys
        )
        assert code == 2
        assert "unbounded" in err

    def test_compare_emits_kendall(self, triangle, capsys):
        code, out, _ = run_cli(
            ["centrality", "--input", triangle, "--t", "0.4r", "--compare", "katz:nbt-katz"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "node,score_katz,rank_katz,score_nbt-katz,rank_nbt-katz"
        assert lines[-1].startswith("# kendall_tau = ")

    def test_compare_top_union(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text("a b 1\nb a 1\nb c 2\nc b 2\nc d 1\nd c 1\nd a 3\na d 3\n")
        code, out, _ = run_cli(
            ["centrality", "--input", str(path), "--t", "0.3r",
             "--compare", "katz:nbt-katz", "--top", "1"],
            capsys,
        )
        assert code == 0
        rows = [l for l in out.splitlines() if not l.startswith(("node,", "#"))]
        assert 1 <= len(rows) <= 2

    def test_compare_ranks_and_tau_use_printed_scores(self, cycle4, capsys):
        code, out, _ = run_cli(
            ["centrality", "--input", cycle4, "--t", "0.4r", "--compare", "katz:nbt-katz"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        rows = {l.split(",")[0]: l.split(",") for l in lines[1:-1]}
        # a and d print the same score under both measures: a tie, broken by label
        assert rows["a"][1] == rows["d"][1] and rows["a"][3] == rows["d"][3]
        assert rows["a"][2] == rows["a"][4] == "1"
        assert rows["d"][2] == rows["d"][4] == "2"
        # both printed columns order the nodes alike, with the same ties
        assert lines[-1] == "# kendall_tau = 1"

    def test_f_centrality_exponential(self, triangle, capsys):
        code, out, _ = run_cli(
            ["centrality", "--input", triangle, "--measure", "f-centrality",
             "--series", "exponential", "--t", "0.2"],
            capsys,
        )
        assert code == 0
        scores = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert all(s >= 1.0 for s in scores)

    def test_temporal_measures(self, temporal, capsys):
        for measure in ("katz", "nbt-katz"):
            code, out, _ = run_cli(
                ["centrality", "--input", temporal, "--temporal",
                 "--measure", measure, "--t", "0.1"],
                capsys,
            )
            assert code == 0
            assert len(out.splitlines()) == 3

    def test_temporal_values(self, temporal, capsys):
        code, out, _ = run_cli(
            ["centrality", "--input", temporal, "--temporal",
             "--measure", "nbt-katz", "--regime", "allow-all", "--t", "0.1"],
            capsys,
        )
        rows = dict(line.split(",")[:2] for line in out.splitlines()[1:])
        assert float(rows["1"]) == pytest.approx(1.26, abs=1e-9)
        assert float(rows["2"]) == pytest.approx(1.3, abs=1e-9)


class TestTinyWeights:
    """A temporal graph whose first snapshot is a 2-cycle of weight 1e-170:
    the squares of such entries underflow in a 2-norm."""

    @pytest.fixture
    def tiny(self, tmp_path):
        path = tmp_path / "tiny.txt"
        path.write_text("0 a b 1e-170\n0 b a 1e-170\n1 a b 1\n")
        return str(path)

    def test_radius(self, tiny, capsys):
        code, out, _ = run_cli(["radius", "--input", tiny, "--temporal"], capsys)
        assert code == 0
        assert "original,max_rho_adjacency,1e-170" in out.splitlines()

    def test_temporal_katz(self, tiny, capsys):
        code, _, _ = run_cli(["centrality", "--input", tiny, "--temporal", "--measure", "katz",
                              "--t", "0.1"], capsys)
        assert code == 0

    def test_temporal_katz_at_half_range(self, tiny, capsys):
        # t = 5e169: snapshot 1's I - tA cancels 5e169 against itself in a
        # normwise residual, although its solve is exact componentwise
        code, out, _ = run_cli(["centrality", "--input", tiny, "--temporal", "--measure", "katz",
                                "--t", "0.5r"], capsys)
        assert code == 0
        assert "a,6.66666666667e+169,1" in out.splitlines()

    def test_temporal_katz_solves_each_snapshot_once(self, tiny, monkeypatch, capsys):
        # the componentwise check starts from the rejected solve's estimate
        # instead of repeating that solve: one call per snapshot
        calls = []
        solve = nbtwalks.temporal.solve_linear

        def counted(matrix, rhs, tol=1e-10):
            calls.append(matrix.shape)
            return solve(matrix, rhs, tol)

        monkeypatch.setattr(nbtwalks.temporal, "solve_linear", counted)
        code, out, _ = run_cli(["centrality", "--input", tiny, "--temporal", "--measure", "katz",
                                "--t", "0.5r"], capsys)
        assert code == 0
        assert "a,6.66666666667e+169,1" in out.splitlines()
        assert len(calls) == 2

    def test_oracle_check_passes(self, tiny, capsys):
        code, out, _ = run_cli(["oracle-check", "--input", tiny, "--temporal"], capsys)
        assert code == 0
        assert "FAIL" not in out


class TestSweep:
    def test_grid_zero_only(self, triangle, capsys):
        code, out, _ = run_cli(
            ["sweep", "--input", triangle, "--measure", "katz", "--grid", "0"], capsys
        )
        assert code == 0
        # at t = 0 every score is 1 before normalization
        for line in out.splitlines()[1:]:
            assert line.split(",")[2] == "1"

    def test_scores_monotone_in_t(self, triangle, capsys):
        code, out, _ = run_cli(
            ["sweep", "--input", triangle, "--measure", "nbt-katz",
             "--grid", "0.1r,0.5r,0.9r"],
            capsys,
        )
        assert code == 0

    def test_grid_point_beyond_cap_rejected(self, triangle, capsys):
        code, _, err = run_cli(
            ["sweep", "--input", triangle, "--measure", "katz", "--grid", "0.995r"], capsys
        )
        assert code == 2

    def test_top_filter(self, tmp_path, capsys):
        path = tmp_path / "wide.txt"
        path.write_text("a b 1\nb a 1\nb c 2\nc b 2\nc a 1\na c 1\nd a 1\n")
        code, out, _ = run_cli(
            ["sweep", "--input", str(path), "--measure", "katz",
             "--grid", "0.2r,0.4r", "--top", "2"],
            capsys,
        )
        assert code == 0
        nodes = {line.split(",")[1] for line in out.splitlines()[1:]}
        assert len(nodes) == 2


    def test_top_tie_keeps_lower_label(self, cycle4, capsys):
        code, out, _ = run_cli(
            ["sweep", "--input", cycle4, "--measure", "katz",
             "--grid", "0.2r,0.4r", "--top", "1"],
            capsys,
        )
        assert code == 0
        # a ties d at every printed digit of the last grid point
        assert {line.split(",")[1] for line in out.splitlines()[1:]} == {"a"}


def ranked(labels, scores):
    """(label, printed score, rank) rows, best first, as the CLI ranks them."""
    labels, texts = np.array(labels), printed(scores)
    order = _ranking(labels, read_back(texts))
    return [(labels[i], texts[i], rank) for rank, i in enumerate(order, start=1)]


class TestRanked:
    def test_one_ulp_apart_is_a_tie(self):
        hi = float(np.nextafter(1.2, 2.0))
        assert [row[0] for row in ranked(["a", "b"], [1.2, hi])] == ["a", "b"]
        assert [row[0] for row in ranked(["b", "a"], [hi, 1.2])] == ["a", "b"]

    def test_distinct_printed_scores_keep_score_order(self):
        rows = ranked(["a", "b", "c"], [1.0, 1.00000000001, 1.0])
        assert rows == [("b", "1.00000000001", 1), ("a", "1", 2), ("c", "1", 3)]


class TestKendallTauB:
    """The in-package tau-b against scipy's, compared with ``==``."""

    @staticmethod
    def samples(n, rng):
        x, y = rng.random(n), rng.random(n)
        yield x, y                                           # no ties
        yield x, x + 0.2 * y                                 # correlated
        yield -x, x + 0.2 * y                                # anticorrelated
        yield rng.integers(0, 3, n) * 1.0, rng.integers(0, 4, n) * 1.0   # heavy ties
        yield np.round(x, 1), np.round(x + 0.3 * y, 1)       # printed-alike ties
        yield np.full(n, 2.5), y                             # constant column
        yield x, np.zeros(n)

    @pytest.mark.parametrize("n", [2, 3, 10, 1001, 20000])
    def test_equals_scipy(self, n):
        import scipy.stats

        rng = np.random.default_rng(n)
        for x, y in self.samples(n, rng):
            ours = _kendall_tau_b(x, y)
            theirs = float(scipy.stats.kendalltau(x, y).statistic)
            if math.isnan(theirs):
                assert math.isnan(ours)
            else:
                assert ours == theirs

    def test_fewer_than_two_pairs_is_nan(self):
        assert math.isnan(_kendall_tau_b([], []))
        assert math.isnan(_kendall_tau_b([1.0], [2.0]))


class TestWalkCount:
    def test_static_counts(self, pair, capsys):
        code, out, _ = run_cli(["walk-count", "--input", pair, "--kmax", "3"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "length,source,target,count"
        # lengths 0 (identity) and 1 (two edges); nothing survives past length 1
        assert sum(1 for l in lines[1:] if l.startswith("0,")) == 2
        assert sum(1 for l in lines[1:] if l.startswith("1,")) == 2
        assert not any(l.startswith(("2,", "3,")) for l in lines[1:])

    def test_temporal_counts(self, temporal, capsys):
        code, out, _ = run_cli(
            ["walk-count", "--input", temporal, "--temporal", "--kmax", "2",
             "--regime", "allow-all"],
            capsys,
        )
        assert code == 0
        assert "2,0:1->2,1:2->1,6" in out


class TestTemporalInputs:
    def test_single_file_and_manifest_agree(self, tmp_path, capsys):
        snapshots = ["a b 2\nb c 1\nc a 3\n", "b a 1\nc b 2\n", "a c 1\nc a 2\nb c 1\n"]
        single = tmp_path / "temporal.txt"
        single.write_text("".join(
            f"{tau} {line}\n" for tau, text in enumerate(snapshots) for line in text.splitlines()
        ))
        for tau, text in enumerate(snapshots):
            (tmp_path / f"s{tau}.txt").write_text(text)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("".join(f"s{tau}.txt\n" for tau in range(len(snapshots))))
        for command in (
            ["radius", "--binarize"],
            ["centrality", "--measure", "nbt-katz", "--t", "0.5r"],
            ["centrality", "--measure", "katz", "--t", "0.5r"],
            ["walk-count", "--kmax", "3", "--regime", "allow-all"],
        ):
            code, from_file, _ = run_cli(
                [*command, "--input", str(single), "--temporal"], capsys)
            assert code == 0
            code, from_manifest, _ = run_cli(
                [*command, "--temporal-manifest", str(manifest)], capsys)
            assert code == 0
            assert from_file == from_manifest


class TestOracleCheck:
    def test_static_pass(self, triangle, capsys):
        code, out, _ = run_cli(["oracle-check", "--input", triangle], capsys)
        assert code == 0
        assert "6/6 checks passed" in out

    def test_temporal_pass(self, temporal, capsys):
        code, out, _ = run_cli(["oracle-check", "--input", temporal, "--temporal"], capsys)
        assert code == 0
        assert "checks passed" in out

    def test_pole_before_series_radius(self, tmp_path, capsys):
        # the pair a <-> d puts the elementwise pole at 0.1, below the
        # series range [0, 10) of the light triangle
        path = tmp_path / "pole.txt"
        path.write_text("a b 0.1\nb c 0.1\nc a 0.1\na d 10\nd a 10\n")
        code, out, _ = run_cli(["oracle-check", "--input", str(path)], capsys)
        assert code == 0
        assert "6/6 checks passed" in out

    def test_tampered_decomposition_fails_projection(self, rng, monkeypatch):
        from conftest import random_digraph
        from nbtwalks import crosschecks
        from nbtwalks.graph import _line_graph

        g = random_digraph(rng, 5, p=0.5)
        d = _line_graph(g)
        if d.V.nnz == 0:
            pytest.skip("no pruned transitions to tamper with")
        d.V.data[0] *= 1.5
        monkeypatch.setattr(crosschecks, "_line_graph", lambda graph: d)
        results = crosschecks.static_battery(g, kmax=4)
        failing = [r for r in results if not r.passed]
        assert failing
        assert any("projection" in r.name for r in failing)

    def test_empty_graph_passes(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("a b 1\n")  # single edge, no walks beyond length 1
        code, out, _ = run_cli(["oracle-check", "--input", str(path)], capsys)
        assert code == 0


class TestValidationPaths:
    def test_missing_input(self, capsys):
        code, _, err = run_cli(["radius"], capsys)
        assert code == 2
        assert "required" in err

    def test_matrix_market_input(self, tmp_path, capsys):
        import scipy.io

        from nbtwalks.graph import parse_edge_list

        path = tmp_path / "g.mtx"
        scipy.io.mmwrite(path, sp.coo_matrix(adjacency(parse_edge_list(TRIANGLE))),
                         field="real", symmetry="general")
        code, out, _ = run_cli(["radius", "--input", str(path)], capsys)
        assert code == 0
        assert "original,rho_adjacency,2" in out

    def test_merge_policy_flows_through(self, tmp_path, capsys):
        path = tmp_path / "dup.txt"
        path.write_text("a b 2\na b 3\n")
        code, _, err = run_cli(["radius", "--input", str(path)], capsys)
        assert code == 2
        code, out, _ = run_cli(["radius", "--input", str(path), "--merge", "sum"], capsys)
        assert code == 0

    @pytest.mark.parametrize("argv", [
        "centrality --t 0.5r --top -3",
        "centrality --t 0.5r --top 0",
        "centrality --t 0.5r --compare katz:nbt-katz --top -3",
        "sweep --top -3",
        "sweep --grid-points -1",
        "sweep --grid-points 0",
        "walk-count --temporal --kmax -1",
        "walk-count --kmax -1",
        "oracle-check --kmax -1",
        "centrality --t 0.5r --tol -1",
        "centrality --t 0.5r --tol nan",
        "centrality --t 0.5r --tol 0",
        "centrality --t 0.5r --tol inf",
    ])
    def test_out_of_range_number_exits_2(self, triangle, temporal, capsys, argv):
        *command, option, value = argv.split()
        path = temporal if "--temporal" in command else triangle
        with pytest.raises(SystemExit) as info:
            main([*command, "--input", path, option, value])
        assert info.value.code == 2
        assert f"argument {option}: expected " in capsys.readouterr().err


class TestErrorExits:
    """The error exits of the commands themselves, after argparse: a
    ValidationError exits 2 and a NumericalError or failed check exits 3,
    each with its message on stderr."""

    @pytest.mark.parametrize("argv, message", [
        ("centrality --t 0.5r --compare katz", "--compare expects 'measure1:measure2'"),
        ("centrality --t 0.5r --compare katz:bogus", "unknown measure 'bogus'"),
        ("sweep --measure f-centrality --series exponential",
         "the permitted range is unbounded; give an explicit --grid"),
    ])
    def test_validation_error_exits_2(self, triangle, capsys, argv, message):
        code, out, err = run_cli([*argv.split(), "--input", triangle], capsys)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("measure", ["katz", "nbt-katz"])
    def test_scores_past_the_float64_range_exit_3(self, tmp_path, capsys, measure):
        # 200 snapshots of the complete unit-weight digraph on 6 nodes
        path = tmp_path / "complete.txt"
        path.write_text("".join(f"{tau} {i} {j} 1\n" for tau in range(200)
                                for i in range(6) for j in range(6) if i != j))
        code, out, err = run_cli(["centrality", "--input", str(path), "--temporal",
                                  "--measure", measure, "--t", "0.99r"], capsys)
        assert code == 3 and out == ""
        assert err.startswith("numerical failure: temporal scores exceed the float64 range")

    def test_failed_oracle_check_exits_3(self, triangle, monkeypatch, capsys):
        results = [CheckResult("fine", 0.0, 1e-10), CheckResult("broken", 1.0, 1e-10)]
        monkeypatch.setattr(nbtwalks.cli, "static_battery", lambda graph, **kwargs: results)
        code, out, err = run_cli(["oracle-check", "--input", triangle], capsys)
        assert code == 3
        assert "FAIL broken: max deviation 1" in out and "1/2 checks passed" in out
        assert err == "FAILED: broken\n"


class TestImports:
    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # scipy.stats is the slowest import there is, and nbtwalks needs none of it
        probe = "import sys, nbtwalks.cli; print('scipy.stats' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], env=cli_env(),
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "False"

    def test_compare_leaves_scipy_stats_unloaded(self, triangle):
        # Kendall tau is computed in the package
        probe = ("import io, sys, contextlib\n"
                 "from nbtwalks.cli import main\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 f"    code = main(['centrality', '--input', {triangle!r}, '--t', '0.4r',"
                 " '--compare', 'katz:nbt-katz'])\n"
                 "print(code, 'scipy.stats' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", probe], env=cli_env(),
                                capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "0 False"


class TestBrokenPipe:
    def test_closed_reader_exits_141_without_traceback(self):
        # the table (170 kB) outgrows the pipe, so the reader closes it with
        # most of the output unwritten.  Under PYTHONUNBUFFERED a cut-short
        # write returns a short count instead of raising, so stdout keeps its
        # default buffer here
        env = {k: v for k, v in cli_env().items() if k != "PYTHONUNBUFFERED"}
        args = ["walk-count", "--input", str(GOLDEN / "g300.txt"), "--kmax", "3"]
        proc = subprocess.Popen([sys.executable, "-m", "nbtwalks.cli", *args], env=env,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"length,source,target,count\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 141
        assert b"Traceback" not in err and b"BrokenPipeError" not in err


# each table command, in CSV and in JSON, on the golden inputs
FORMAT_CASES = {
    "centrality": ["centrality", "--input", str(GOLDEN / "g300.txt"), "--measure", "nbt-katz",
                   "--t", "0.9r", "--top", "40"],
    "centrality_mtx": ["centrality", "--input", str(GOLDEN / "small.mtx"), "--drop-loops",
                       "--merge", "sum", "--measure", "katz", "--t", "0.5r"],
    "compare": ["centrality", "--input", str(GOLDEN / "g300.txt"), "--binarize",
                "--compare", "katz:nbt-katz", "--t", "0.5r"],
    "sweep": ["sweep", "--input", str(GOLDEN / "g300.txt"), "--measure", "katz",
              "--grid", "0,0.3r,0.6r", "--top", "20"],
    "walk_count": ["walk-count", "--input", str(GOLDEN / "small.mtx"), "--drop-loops",
                   "--merge", "sum", "--kmax", "3"],
    "walk_count_temporal": ["walk-count", "--input", str(GOLDEN / "temporal.txt"),
                            "--temporal", "--kmax", "2"],
    "radius": ["radius", "--input", str(GOLDEN / "g300.txt"), "--binarize"],
    "radius_temporal": ["radius", "--input", str(GOLDEN / "temporal.txt"), "--temporal"],
}
TEXT_COLUMNS = {"node", "source", "target", "from_edge", "to_edge", "section", "quantity"}


def read_cell(column, text):
    """A CSV cell read back as JSON should carry it: labels as strings, ranks
    and lengths as integers, numbers as floats except "inf", "nan" and a
    range, which stay strings."""
    if column in TEXT_COLUMNS:
        return text
    if column == "length" or column.startswith("rank"):
        return int(text)
    if text in ("inf", "nan"):
        return text
    try:
        return float(text)
    except ValueError:
        return text


class TestFormats:
    @pytest.mark.parametrize("case", sorted(FORMAT_CASES))
    def test_json_cells_are_csv_cells_read_back(self, case, capsys):
        assert main(FORMAT_CASES[case]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert main([*FORMAT_CASES[case], "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        header = lines[0].split(",")
        extra = dict(l[2:].split(" = ") for l in lines[1:] if l.startswith("# "))
        csv_rows = [l for l in lines[1:] if not l.startswith("# ")]
        assert doc.pop("columns") == header
        json_rows = doc.pop("rows")
        assert len(json_rows) == len(csv_rows) > 0
        for text, cells in zip(csv_rows, json_rows):
            # a range such as "[0, 0.28)" holds the one comma that is no separator
            texts = text.split(",", len(header) - 1)
            expected = [read_cell(column, t) for column, t in zip(header, texts)]
            assert cells == expected and list(map(type, cells)) == list(map(type, expected))
        assert doc == {key: read_cell(key, value) for key, value in extra.items()}


class TestDeterminism:
    def _run(self, args):
        return subprocess.run(
            [sys.executable, "-m", "nbtwalks.cli", *args],
            capture_output=True,
            check=False,
            env=cli_env(),
        )

    def test_byte_identical_output(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(TRIANGLE)
        for args in (
            ["radius", "--input", str(path), "--binarize"],
            ["centrality", "--input", str(path), "--t", "0.5r",
             "--compare", "katz:nbt-katz", "--format", "json"],
            ["sweep", "--input", str(path), "--measure", "nbt-katz",
             "--grid", "0.25r,0.5r"],
        ):
            first = self._run(args)
            second = self._run(args)
            assert first.returncode == second.returncode == 0
            assert first.stdout == second.stdout
