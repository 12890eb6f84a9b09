"""CLI output pinned byte for byte to recorded files.

Each case runs one command on the inputs in ``tests/data/golden`` and
compares its stdout with ``<case>.out`` there, recorded from an earlier
version of the program.  A change that alters any printed digit, row order
or column therefore fails here, where ``TestDeterminism`` only compares two
runs of the same code.  The inputs are a seeded 300-node digraph
(``g300.txt``), a 40-node temporal graph of four snapshots
(``temporal.txt``) and a 20-node MatrixMarket file holding a zero entry, a
diagonal entry and a repeated entry (``small.mtx``).
"""

from pathlib import Path

import pytest

from nbtwalks.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
G300 = str(GOLDEN / "g300.txt")
TEMPORAL = str(GOLDEN / "temporal.txt")
MTX = str(GOLDEN / "small.mtx")

CASES = {
    "radius_static": ["radius", "--input", G300, "--binarize"],
    "radius_temporal": ["radius", "--input", TEMPORAL, "--temporal"],
    "radius_mtx": ["radius", "--input", MTX, "--drop-loops", "--merge", "sum"],
    "centrality_katz": ["centrality", "--input", G300, "--measure", "katz", "--t", "0.5r"],
    "centrality_nbt_katz": ["centrality", "--input", G300, "--measure", "nbt-katz",
                            "--t", "0.9r"],
    "centrality_exponential": ["centrality", "--input", G300, "--measure", "f-centrality",
                               "--series", "exponential", "--t", "0.2"],
    "centrality_compare_top": ["centrality", "--input", G300, "--compare", "katz:nbt-katz",
                               "--t", "0.5r", "--top", "10"],
    "centrality_mtx_json": ["centrality", "--input", MTX, "--drop-loops", "--merge", "sum",
                            "--measure", "nbt-katz", "--t", "0.5r", "--format", "json"],
    "sweep_katz": ["sweep", "--input", G300, "--measure", "katz", "--grid-points", "4"],
    "sweep_nbt_katz_top": ["sweep", "--input", G300, "--measure", "nbt-katz",
                           "--grid", "0,0.3r,0.6r", "--top", "20"],
    "walk_count_static": ["walk-count", "--input", G300, "--kmax", "3"],
    "walk_count_mtx": ["walk-count", "--input", MTX, "--drop-loops", "--merge", "sum",
                       "--kmax", "3"],
    "walk_count_temporal": ["walk-count", "--input", TEMPORAL, "--temporal", "--kmax", "3"],
    "centrality_temporal_nbt_katz": ["centrality", "--input", TEMPORAL, "--temporal",
                                     "--measure", "nbt-katz", "--t", "0.5r"],
    "centrality_temporal_katz": ["centrality", "--input", TEMPORAL, "--temporal",
                                 "--measure", "katz", "--t", "0.5r", "--top", "15"],
    "centrality_compare_top_json": ["centrality", "--input", G300, "--compare",
                                    "katz:nbt-katz", "--t", "0.5r", "--top", "10",
                                    "--format", "json"],
    "centrality_compare_binarized": ["centrality", "--input", G300, "--binarize",
                                     "--compare", "katz:nbt-katz", "--t", "0.5r"],
    "sweep_nbt_katz_top_json": ["sweep", "--input", G300, "--measure", "nbt-katz",
                                "--grid", "0,0.3r,0.6r", "--top", "20", "--format", "json"],
    "walk_count_static_json": ["walk-count", "--input", G300, "--kmax", "3",
                               "--format", "json"],
    "radius_static_json": ["radius", "--input", G300, "--binarize", "--format", "json"],
    "radius_temporal_binarized": ["radius", "--input", TEMPORAL, "--temporal", "--binarize"],
    "centrality_temporal_nbt_katz_binarized": ["centrality", "--input", TEMPORAL, "--temporal",
                                               "--binarize", "--measure", "nbt-katz",
                                               "--t", "0.5r"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_recording(case, capsys):
    assert main(CASES[case]) == 0
    expected = (GOLDEN / f"{case}.out").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected
