"""Tests of the benchmark itself: its checks pass on the program's real output
and fail when one number in it is off by 1e-6 (relative), and a seed always
gives the same input files.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import nbtwalks.cli  # noqa: E402
from nbtwalks.errors import NumericalError  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from run import Tally, run_op  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NUDGE = 1 + 1e-6
SEED = 7


def cli(args) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = nbtwalks.cli.main(args)
    return code, out.getvalue()


def nudged(text: str, line: int, field: int) -> str:
    """``text`` with one CSV field scaled by NUDGE and printed as the CLI
    prints numbers."""
    lines = text.splitlines()
    parts = lines[line].split(",")
    parts[field] = f"{float(parts[field]) * NUDGE:.12g}"
    lines[line] = ",".join(parts)
    return "\n".join(lines) + "\n"


def nudged_tau(text: str) -> str:
    lines = text.splitlines()
    key, _, value = lines[-1].partition(" = ")
    lines[-1] = f"{key} = {float(value) * NUDGE:.12g}"
    return "\n".join(lines) + "\n"


def perturbations(cmd, out: str) -> list[str]:
    """Copies of a command's output, each with one number off by 1e-6."""
    name = cmd.name
    lines = out.splitlines()
    if name.startswith("radius"):
        return [nudged(out, 1, 2)]
    if name.startswith("sweep"):
        t0 = next(i for i, line in enumerate(lines) if line.startswith("0,"))
        return [nudged(out, len(lines) - 1, 2), nudged(out, t0, 2)]
    if name.startswith("walk-count"):
        # the largest count of each length: some printed counts are rounding
        # residue of exact zeros, which no relative nudge can expose
        largest = {}
        for i, line in enumerate(lines[1:], start=1):
            length, _, _, count = line.split(",")
            if float(count) > float(lines[largest.get(length, i)].split(",")[3]):
                largest[length] = i
            largest.setdefault(length, i)
        return [nudged(out, largest[k], 3) for k in ("1", "2", "3")]
    if "compare" in name:
        scores = [nudged(out, 1, 1), nudged(out, 1, 3)]
        # tau is recomputed from the printed columns only when all rows are printed
        return scores if "--top" in cmd.args else [*scores, nudged_tau(out)]
    if name.startswith("oracle"):
        return [out.replace("PASS", "FAIL", 1)]
    return [nudged(out, 1, 1)]


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def prepared(request, tmp_path_factory):
    workload = WORKLOADS[request.param]()
    workload.prepare(SEED, tmp_path_factory.mktemp(request.param))
    return workload, workload.setup()


def test_setup_check_catches_a_radius_off_by_1e6(prepared):
    workload, state = prepared
    assert workload.check_setup(state) == []
    first = state[0] if isinstance(state, (list, tuple)) else state
    if hasattr(first, "rho_v"):
        first.rho_v *= NUDGE
    else:
        first.rho_m *= NUDGE
    try:
        assert workload.check_setup(state) != []
    finally:
        if hasattr(first, "rho_v"):
            first.rho_v /= NUDGE
        else:
            first.rho_m /= NUDGE


def test_query_checks_catch_one_score_off_by_1e6(prepared):
    workload, state = prepared
    for op in workload.queries(state):
        if op.known_fault is not None:
            continue  # fails on every run; its check is exercised below
        x = np.array(op.run())
        assert op.check(x) == [], op.name
        for i in (0, x.size - 1):
            y = x.copy()
            y[i] *= NUDGE
            assert op.check(y) != [], f"{op.name}: entry {i}"


@pytest.fixture(scope="module")
def fault_ops(tmp_path_factory):
    """The temporal workload's two operations with a known fault, by name."""
    workload = WORKLOADS["temporal"]()
    workload.prepare(SEED, tmp_path_factory.mktemp("faults"))
    return {op.name: op for op in workload.queries(workload.setup())
            if op.known_fault is not None}


def returning(op, outcome):
    """``op`` with its call replaced by one that returns or raises ``outcome``."""
    def run():
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
    return dataclasses.replace(op, run=run)


def test_known_faults_fail_as_named(fault_ops):
    """The stall raises NumericalError from linalg.solve_linear; the truncated
    series returns scores off by more than the series bound and at most
    TRUNCATION_CEILING.  Each is excused as its own fault."""
    stall, series = fault_ops["small resolvent 0.9r"], fault_ops["small exponential 0.5r"]
    with pytest.raises(NumericalError, match="residual"):
        stall.run()
    assert series.check(series.run()) != []
    for op in fault_ops.values():
        _, problems, excused = run_op(op)
        assert problems and excused == op.known_fault.name, op.name


def test_known_faults_excuse_no_other_failure(fault_ops):
    """Another exception, or a result that fails its check in another way,
    clears ``correct`` even on an operation with a known fault."""
    stall, series = fault_ops["small resolvent 0.9r"], fault_ops["small exponential 0.5r"]
    x = np.asarray(series.run())
    n = x.size

    def solve_linear():   # the stall's message, raised from another function
        raise NumericalError("linear solve residual 1e+01 exceeds 1.0e-10 * ||b||")

    try:
        solve_linear()
    except NumericalError as exc:
        foreign = exc
    others = [
        returning(stall, RuntimeError("unrelated")),
        returning(stall, foreign),
        returning(stall, np.ones(n)),                  # an unconverged vector
        returning(series, RuntimeError("unrelated")),
        returning(series, NumericalError("series truncation bound unattainable")),
        returning(series, x * 1.5),
        returning(series, x * (1 + 1e-5)),             # above the ceiling
        returning(series, np.full(n, np.nan)),
        returning(series, x[:-1]),
    ]
    for op in others:
        _, problems, excused = run_op(op)
        assert problems and excused is None, op.name
        tally = Tally()
        tally.record(op.name, problems, excused)
        assert not tally.correct and tally.failed == 1


def test_command_checks_catch_one_number_off_by_1e6(prepared):
    workload, state = prepared
    for cmd in workload.commands(state):
        code, out = cli(cmd.args)
        assert cmd.check(code, out) == [], cmd.name
        for bad in perturbations(cmd, out):
            assert cmd.check(code, bad) != [], cmd.name


def test_ranked_rejects_out_of_order_and_untied_labels():
    good = [("a", 2.0, 1), ("b", 2.0, 2), ("c", 1.0, 3)]
    assert checks.ranked("t", good) == []
    assert checks.ranked("t", [("b", 2.0, 1), ("a", 2.0, 2), ("c", 1.0, 3)]) != []
    assert checks.ranked("t", [("a", 2.0, 1), ("b", 2.0 * NUDGE, 2), ("c", 1.0, 3)]) != []
    assert checks.ranked("t", [("a", 2.0, 1), ("a", 2.0, 2), ("c", 1.0, 3)]) != []
    assert checks.ranked("t", [("a", 2.0, 1), ("b", 2.0, 3)]) != []


def _files(seed: int, workdir: Path) -> dict[str, bytes]:
    workdir.mkdir()
    inputs.static_large(seed, workdir)
    inputs.static_medium(seed, workdir)
    inputs.temporal_main(seed, workdir)
    inputs.temporal_small(workdir)
    return {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}


def test_seed_reproduces_inputs_byte_for_byte(tmp_path):
    first = _files(SEED, tmp_path / "a")
    again = _files(SEED, tmp_path / "b")
    other = _files(SEED + 1, tmp_path / "c")
    assert first == again
    for name, data in first.items():
        if name == "temporal_small.txt":
            assert other[name] == data   # fixed seed, whatever --seed is
        else:
            assert other[name] != data, name


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "temporal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
