"""Benchmark of nbtwalks: set-up, scoring calls and CLI commands on seeded
workloads, every output checked against an independent reference.

    python3 bench/run.py --workload static-large --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  One run makes the workload's inputs from the seed, computes the
references, then repeats rounds until ``--seconds`` have been spent in them
and every CLI command has run.  A round is a fixed number of set-ups and of
passes over the scoring calls (more than one where they are cheap, for more
samples), then the next CLI command of the workload's list, one operation at
a time, so that slow and fast spells of the machine fall on every kind of
sample.  The last line of stdout is a JSON object with the operations
attempted and failed and the metrics: end-to-end medians with ``--trace 0``,
per-layer self times with ``--trace 1``.  ``--workload all`` runs every
workload in turn in this one process.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

# One BLAS thread everywhere, for the benchmark and every CLI process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
COMMAND_TIMEOUT_S = 60.0   # no command takes a tenth of this
WORKLOAD_NAMES = ("static-large", "static-medium", "temporal")


class Tally:
    """Operations attempted and failed.  A failure that is an operation's
    known fault keeps ``correct``; any other failure clears it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._reported: set[str] = set()

    def record(self, name: str, problems: list[str], known_fault: str | None = None) -> None:
        self.attempted += 1
        if not problems:
            return
        self.failed += 1
        if known_fault is None:
            self.correct = False
        if name not in self._reported:
            self._reported.add(name)
            tag = f"known fault ({known_fault})" if known_fault else "FAILED"
            print(f"{tag}: {name}: {'; '.join(problems)[:2000]}", file=sys.stderr)


def run_op(op) -> tuple[float, list[str], str | None]:
    """Time one library call, then check its result (untimed).  Returns the
    time, the problems found, and the name of the operation's known fault
    when the failure is that fault; any other failure is not excused."""
    start = time.perf_counter()
    try:
        outcome = op.run()
    except Exception as exc:  # the program's failure is this operation's result
        outcome = exc
    elapsed = time.perf_counter() - start
    if isinstance(outcome, Exception):
        problems = [f"raised {type(outcome).__name__}: {outcome}"]
    else:
        problems = op.check(outcome)
    fault = op.known_fault
    if problems and fault is not None and fault.matches(outcome):
        return elapsed, problems, fault.name
    if isinstance(outcome, Exception):
        traceback.print_exception(outcome, file=sys.stderr)
    return elapsed, problems, None


def run_command(args: list[str], workdir: Path, trace_out: Path | None):
    """Run one CLI command as its own process, timed from launch to exit.
    Returns (seconds, peak RSS in MB, exit code, stdout)."""
    if trace_out is None:
        argv = [sys.executable, "-m", "nbtwalks.cli", *args]
    else:
        argv = [sys.executable, str(BENCH / "tracing.py"), str(trace_out), *args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out_path = workdir / "stdout.txt"
    with open(out_path, "wb") as out, open(workdir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped by wait4
    if code != 0:
        sys.stderr.write((workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-2000:])
    return elapsed, usage.ru_maxrss / 1024.0, code, out_path.read_text(encoding="utf-8")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import Tracer, per_layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORKDIR))
    tally = Tally()
    tracer = Tracer() if trace else None
    setup_s: list[float] = []
    query_s: list[float] = []
    command_s: dict[str, list[float]] = {}
    command_spans: dict[str, list[dict]] = {}
    peak_rss_mb = 0.0
    rounds = 0
    try:
        workload.prepare(seed, workdir)
        if tracer is not None:
            tracer.install()
        began = time.perf_counter()
        while True:
            # the traced figures are per round of one set-up and one query pass
            for repeat in range(workload.setup_repeats):
                if tracer is not None:
                    tracer.enabled = repeat == 0
                start = time.perf_counter()
                state = workload.setup()
                setup_s.append(time.perf_counter() - start)
                tally.record(f"{name} set-up", workload.check_setup(state))

            for repeat in range(workload.query_repeats):
                if tracer is not None:
                    tracer.enabled = repeat == 0
                total = 0.0
                for op in workload.queries(state):
                    elapsed, problems, excused = run_op(op)
                    total += elapsed
                    tally.record(op.name, problems, excused)
                query_s.append(total)

            commands = workload.commands(state)
            cmd = commands[rounds % len(commands)]
            trace_out = workdir / f"trace-{rounds}.json" if trace else None
            elapsed, rss, code, out = run_command(cmd.args, workdir, trace_out)
            command_s.setdefault(cmd.name, []).append(elapsed)
            peak_rss_mb = max(peak_rss_mb, rss)
            tally.record(cmd.name, cmd.check(code, out))
            if trace_out is not None and trace_out.exists():
                spans = json.loads(trace_out.read_text(encoding="utf-8"))
                command_spans.setdefault(cmd.name, []).append(spans)
            rounds += 1
            if rounds >= len(commands) and time.perf_counter() - began >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    end_to_end = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "query_s": {"value": statistics.median(query_s), "unit": "s"},
        # one pass over the command list: each command at its median time
        "command_s": {"value": sum(statistics.median(v) for v in command_s.values()),
                      "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    metrics = per_layer_metrics(tracer.snapshot(), rounds, command_spans) if trace else end_to_end
    print(f"{name}: seed {seed}, {rounds} rounds, "
          f"{tally.attempted} operations attempted, {tally.failed} failed")
    # with --trace 1 the end-to-end figures are those of the traced passes;
    # set against an untraced run they give the tracing overhead
    for key, metric in {**end_to_end, **metrics}.items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    return {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nbtwalks" / "__init__.py").is_file():
        print(f"error: no nbtwalks sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
               for name in names}
    if len(results) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": metric for name, r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
