"""Per-layer self times, taken by wrapping nbtwalks' public functions from the
benchmark's side; the program's files are not changed.

A wrapped call is a span.  Its self time is its duration minus the time of
the wrapped calls made inside it, so each layer is charged only for its own
work.  Wrappers replace the function in every nbtwalks module that binds it,
which is how the package's modules reach one another.

Run as a script, this file executes one traced CLI command:

    python3 bench/tracing.py OUT.json <nbtwalks arguments...>

It times ``import nbtwalks.cli`` in the fresh interpreter, runs the command
with the wrappers in place, and writes the spans to OUT.json.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# metric prefix -> (module, functions whose spans it collects)
LAYERS = {
    "graph.parse": ("graph", ("load_edge_list", "parse_edge_list")),
    "graph.line_graph": ("graph", ("line_graph",)),
    "graph.adjacency": ("graph", ("adjacency",)),
    "linalg.spectral_radius": ("linalg", ("spectral_radius",)),
    "linalg.solve_linear": ("linalg", ("solve_linear",)),
    "node_level.build_node_system": ("node_level", ("build_node_system",)),
    "node_level.nbt_walk_counts": ("node_level", ("nbt_walk_counts",)),
    "edge_level.apply_shifted_series": ("edge_level", ("apply_shifted_series",)),
    "edge_level.f_centrality": ("edge_level", ("f_centrality",)),
    "temporal.parse": ("temporal", ("load_temporal_edge_list", "parse_temporal_edge_list")),
    "temporal.build_global_transition": ("temporal", ("build_global_transition",)),
    "temporal.temporal_f_centrality": ("temporal", ("temporal_f_centrality",)),
    "temporal.classical_temporal_katz": ("temporal", ("classical_temporal_katz",)),
    "crosschecks.static_battery": ("crosschecks", ("static_battery",)),
    "oracle.count_nbt_walks_bruteforce": ("oracle", ("count_nbt_walks_bruteforce",)),
    # the self time of main is what no library layer claims: ranking and printing
    "cli.format": ("cli", ("main",)),
}
COUNTED = ("linalg.spectral_radius", "linalg.solve_linear")


class Tracer:
    """Self time and call count per layer, kept in memory."""

    def __init__(self):
        self.enabled = True
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.rows_out = 0
        self._children: list[float] = []   # child time of each open span
        self._patches: list[tuple] = []

    def wrap(self, layer: str, fn):
        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = self._children.pop()
                self.self_s[layer] += elapsed - inner
                self.calls[layer] += 1
                if self._children:
                    self._children[-1] += elapsed
        return span

    def install(self) -> None:
        """Wrap every LAYERS function in each loaded nbtwalks module."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "nbtwalks" or name.startswith("nbtwalks."))]
        for layer, (home, names) in LAYERS.items():
            source = sys.modules.get(f"nbtwalks.{home}")
            if source is None:
                continue
            for fname in names:
                original = getattr(source, fname)
                wrapped = self.wrap(layer, original)
                for module in modules:
                    if vars(module).get(fname) is original:
                        self._patches.append((module, fname, original))
                        setattr(module, fname, wrapped)
        cli = sys.modules.get("nbtwalks.cli")
        if cli is not None:
            emit = cli._emit

            def counted_emit(args, header, rows, extra=None):
                self.rows_out += len(rows)
                return emit(args, header, rows, extra)

            self._patches.append((cli, "_emit", emit))
            cli._emit = counted_emit

    def restore(self) -> None:
        for module, fname, original in reversed(self._patches):
            setattr(module, fname, original)
        self._patches.clear()

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "calls": dict(self.calls), "rows_out": self.rows_out}


def per_layer_metrics(in_process: dict, rounds: int, command_spans: dict) -> dict:
    """The per-layer metrics of a traced run: self time per round of the
    in-process set-up and scoring calls, plus self time per pass over the
    CLI commands (each command's spans averaged over its runs).
    ``cli.import_s`` is the median import time of one command process."""
    self_s = {k: v / rounds for k, v in in_process["self_s"].items()}
    calls = {k: v / rounds for k, v in in_process["calls"].items()}
    rows_out = 0.0
    import_s = []
    for runs in command_spans.values():
        for spans in runs:
            import_s.append(spans["import_s"])
            rows_out += spans["rows_out"] / len(runs)
            for layer, value in spans["self_s"].items():
                self_s[layer] = self_s.get(layer, 0.0) + value / len(runs)
            for layer, value in spans["calls"].items():
                calls[layer] = calls.get(layer, 0.0) + value / len(runs)
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}_s"] = {"value": self_s.get(layer, 0.0), "unit": "s"}
        if layer in COUNTED:
            metrics[f"{layer}_calls"] = {"value": calls.get(layer, 0.0), "unit": "count"}
    metrics["cli.import_s"] = {"value": statistics.median(import_s), "unit": "s"}
    metrics["cli.rows_out"] = {"value": rows_out, "unit": "count"}
    return metrics


def _traced_command(out_path: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import nbtwalks.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = nbtwalks.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, **tracer.snapshot()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(_traced_command(sys.argv[1], sys.argv[2:]))
