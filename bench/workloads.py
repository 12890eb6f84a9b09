"""The three workloads: inputs, set-up, scoring calls and CLI commands, each
with the check of its output.

Set-up takes every input file of a workload to a scoreable state: parse and
validate, build the adjacency and line graph (or the global temporal
transition matrix), and estimate the spectral radii that fix the permitted
range, as the CLI does before it scores anything.  Library calls go through
module attributes, so that a traced run sees them.  Each round of a run does
``setup_repeats`` set-ups, ``query_repeats`` passes over the scoring calls
and one CLI command.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np
import scipy.sparse as sp

import nbtwalks.edge_level as edge_level
import nbtwalks.graph as graph
import nbtwalks.linalg as linalg
import nbtwalks.node_level as node_level
import nbtwalks.temporal as temporal
from nbtwalks.errors import NumericalError

import checks
import inputs
from checks import resolvent_bound, series_bound
from reference import StaticReference, TemporalReference

TOL = 1e-10        # the CLI's default --tol, given to every scoring call
T_EXP = 0.1        # absolute attenuation of the static exponential series
GRID = ("0", "0.1r", "0.2r", "0.3r", "0.4r", "0.5r", "0.6r", "0.7r")


@dataclass
class KnownFault:
    """A program fault that makes an operation fail on every run.
    ``matches(outcome)`` tells that fault's failure, and only it, from any
    other: the outcome is the call's result or the exception it raised."""

    name: str
    matches: Callable[[Any], bool]


@dataclass
class Op:
    """One timed library call and the check of its result."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    known_fault: KnownFault | None = None


@dataclass
class Command:
    """One ``nbtwalks`` CLI invocation and the check of (exit code, stdout)."""

    name: str
    args: list[str]
    check: Callable[[int, str], list[str]]


def fraction_t(fraction: float, rho: float) -> float:
    """``<fraction>r`` as the CLI resolves it."""
    return fraction * (1.0 / rho)


def labels_of(g: inputs.EdgeArrays) -> set:
    return {f"v{i}" for i in np.unique(np.concatenate([g.src, g.dst]))}


@dataclass
class StaticState:
    g: Any
    a: Any
    d: Any
    rho_a: float
    rho_v: float


def setup_static(path: Path) -> StaticState:
    g = graph.load_edge_list(path)
    a = graph.adjacency(g)
    d = graph.line_graph(g)
    return StaticState(g, a, d, linalg.spectral_radius(a), linalg.spectral_radius(d.V))


def check_static(name: str, s: StaticState, inp: inputs.StaticInput, ref: StaticReference,
                 expected: set) -> list[str]:
    problems = checks.node_set(name, s.g.node_labels, expected)
    if s.g.m != inp.graph.m:
        problems.append(f"{name}: {s.g.m} edges parsed, {inp.graph.m} written")
    problems += checks.relative(f"{name} rho(A)", s.rho_a, ref.rho_a, 10 * checks.RADIUS_TOL)
    problems += checks.relative(f"{name} rho(V)", s.rho_v, ref.rho_v, 10 * checks.RADIUS_TOL)
    return problems


def static_queries(name: str, s: StaticState, ref: StaticReference, exponential: bool) -> list[Op]:
    """nbt-Katz by the node route and the line-graph route, and Katz, all at
    half the permitted range; optionally the exponential series at T_EXP."""
    n, m = s.g.n, s.g.m
    labels = s.g.node_labels
    t_nbt = fraction_t(0.5, s.rho_v)
    t_katz = fraction_t(0.5, s.rho_a)
    idx = checks.node_index(labels)
    katz_system = sp.identity(n, format="csr") - t_katz * ref.A[idx][:, idx]

    def line_graph_route():
        plan = edge_level.CentralityPlan(s.d, edge_level.CoefficientSeries.resolvent(), t_nbt,
                                         rho_v=s.rho_v)
        return edge_level.f_centrality(plan, tol=TOL)

    def exponential_series():
        plan = edge_level.CentralityPlan(s.d, edge_level.CoefficientSeries.exponential(), T_EXP,
                                         rho_v=s.rho_v)
        return edge_level.f_centrality(plan, tol=TOL)

    ops = [
        Op(f"{name} nbt_katz", lambda: node_level.nbt_katz(s.a, t_nbt, tol=TOL, rho_v=s.rho_v),
           lambda x: checks.scores(f"{name} nbt_katz", labels, x, ref.resolvent(t_nbt),
                                   resolvent_bound(TOL, n, 0.5))),
        Op(f"{name} f_centrality resolvent", line_graph_route,
           lambda x: checks.scores(f"{name} f_centrality resolvent", labels, x,
                                   ref.resolvent(t_nbt), resolvent_bound(TOL, m, 0.5))),
        Op(f"{name} katz", lambda: linalg.solve_linear(linalg.identity(n) - t_katz * s.a,
                                                       np.ones(n), TOL),
           lambda x: checks.residual(f"{name} katz", katz_system, x, np.ones(n), TOL)),
    ]
    if exponential:
        ops.append(Op(f"{name} f_centrality exponential", exponential_series,
                      lambda x: checks.scores(f"{name} f_centrality exponential", labels, x,
                                              ref.exponential(T_EXP), series_bound(TOL, m))))
    return ops


class StaticLarge:
    name = "static-large"
    setup_repeats = 1
    query_repeats = 4    # a pass takes 0.2 s, a round about 5 s

    def prepare(self, seed: int, workdir: Path) -> None:
        self.input = inputs.static_large(seed, workdir)
        self.ref = StaticReference(self.input.graph)
        self.expected = labels_of(self.input.graph)

    def setup(self) -> StaticState:
        return setup_static(self.input.path)

    def check_setup(self, s: StaticState) -> list[str]:
        return check_static(self.name, s, self.input, self.ref, self.expected)

    def queries(self, s: StaticState) -> list[Op]:
        return static_queries(self.name, s, self.ref, exponential=True)

    def commands(self, s: StaticState) -> list[Command]:
        path = str(self.input.path)
        ref, exp = self.ref, self.expected
        n, m = s.g.n, s.g.m
        t_nbt = fraction_t(0.5, s.rho_v)
        t_katz = fraction_t(0.5, s.rho_a)
        # nbt-katz may take either route, so its bound is the larger order's
        nbt_bound = resolvent_bound(TOL, max(n, m), 0.5)
        katz_bound = resolvent_bound(TOL, n, 0.5)
        return [
            Command("centrality nbt-katz",
                    ["centrality", "--input", path, "--measure", "nbt-katz", "--t", "0.5r"],
                    lambda c, o: checks.centrality_table("centrality nbt-katz", c, o, exp,
                                                         ref.resolvent(t_nbt), nbt_bound)),
            Command("centrality katz",
                    ["centrality", "--input", path, "--measure", "katz", "--t", "0.5r"],
                    lambda c, o: checks.centrality_table("centrality katz", c, o, exp,
                                                         ref.katz(t_katz), katz_bound)),
            Command("centrality exponential",
                    ["centrality", "--input", path, "--measure", "f-centrality",
                     "--series", "exponential", "--t", str(T_EXP)],
                    lambda c, o: checks.centrality_table("centrality exponential", c, o, exp,
                                                         ref.exponential(T_EXP),
                                                         series_bound(TOL, m))),
            Command("centrality compare top 50",
                    ["centrality", "--input", path, "--compare", "katz:nbt-katz", "--t", "0.5r",
                     "--top", "50"],
                    lambda c, o: checks.compare_table(
                        "compare top 50", c, o, exp, ("katz", "nbt-katz"),
                        (ref.katz(t_katz), ref.resolvent(t_nbt)), (katz_bound, nbt_bound), top=50)),
            Command("radius", ["radius", "--input", path],
                    lambda c, o: checks.radius_table("radius", c, o, {
                        "rho_adjacency": (ref.rho_a, "katz_t_range"),
                        "rho_nbt_transition": (ref.rho_v, "nbt_t_range")})),
        ]


COUNT_GRAPH = 1   # walk-count runs on the 1,400-node graph: about 10^5 rows


class StaticMedium:
    name = "static-medium"
    setup_repeats = 4    # a set-up takes 0.25 s, a round about 3 s
    query_repeats = 2

    def prepare(self, seed: int, workdir: Path) -> None:
        self.inputs, self.tiny = inputs.static_medium(seed, workdir)
        self.refs = [StaticReference(i.graph) for i in self.inputs]
        self.expected = [labels_of(i.graph) for i in self.inputs]
        self.counts = self.refs[COUNT_GRAPH].walk_counts(3)

    def setup(self) -> list[StaticState]:
        return [setup_static(i.path) for i in self.inputs]

    def check_setup(self, states) -> list[str]:
        return [p for k, s in enumerate(states)
                for p in check_static(f"{self.name}[{k}]", s, self.inputs[k], self.refs[k],
                                      self.expected[k])]

    def queries(self, states) -> list[Op]:
        return [op for k, s in enumerate(states)
                for op in static_queries(f"{self.name}[{k}]", s, self.refs[k], exponential=False)]

    def commands(self, states) -> list[Command]:
        grid = ",".join(GRID)
        fractions = [0.0 if g == "0" else float(g[:-1]) for g in GRID]
        sweep_in, compare_in, count_in = 2, 0, COUNT_GRAPH
        s, ref = states[sweep_in], self.refs[sweep_in]
        path = str(self.inputs[sweep_in].path)
        katz_ts = [fraction_t(f, s.rho_a) for f in fractions]
        nbt_ts = [fraction_t(f, s.rho_v) for f in fractions]
        order = max(s.g.n, s.g.m)

        c, cref = states[compare_in], self.refs[compare_in]
        c_katz, c_nbt = fraction_t(0.5, c.rho_a), fraction_t(0.5, c.rho_v)
        count_input = self.inputs[count_in]
        return [
            Command("sweep katz", ["sweep", "--input", path, "--measure", "katz", "--grid", grid],
                    lambda code, out: checks.sweep_table(
                        "sweep katz", code, out, self.expected[sweep_in], katz_ts,
                        [ref.katz(t) for t in katz_ts],
                        [resolvent_bound(TOL, s.g.n, f) for f in fractions])),
            Command("sweep nbt-katz",
                    ["sweep", "--input", path, "--measure", "nbt-katz", "--grid", grid],
                    lambda code, out: checks.sweep_table(
                        "sweep nbt-katz", code, out, self.expected[sweep_in], nbt_ts,
                        [ref.resolvent(t) for t in nbt_ts],
                        [resolvent_bound(TOL, order, f) for f in fractions])),
            Command("centrality compare",
                    ["centrality", "--input", str(self.inputs[compare_in].path),
                     "--compare", "katz:nbt-katz", "--t", "0.5r"],
                    lambda code, out: checks.compare_table(
                        "compare", code, out, self.expected[compare_in], ("katz", "nbt-katz"),
                        (cref.katz(c_katz), cref.resolvent(c_nbt)),
                        (resolvent_bound(TOL, c.g.n, 0.5),
                         resolvent_bound(TOL, max(c.g.n, c.g.m), 0.5)))),
            Command("walk-count", ["walk-count", "--input", str(count_input.path), "--kmax", "3"],
                    lambda code, out: checks.walk_count_table(
                        "walk-count", code, out, count_input.graph, self.counts, TOL)),
            Command("oracle-check", ["oracle-check", "--input", str(self.tiny.path)],
                    lambda code, out: checks.oracle_output("oracle-check", code, out)),
        ]


@dataclass
class TemporalState:
    tg: Any
    gd: Any
    rho_m: float
    rho_a: float | None


def setup_temporal(path: Path, classical: bool) -> TemporalState:
    tg = temporal.load_temporal_edge_list(path)
    gd = temporal.build_global_transition(tg, temporal.BacktrackRegime.FORBID_ALL)
    rho_m = linalg.spectral_radius(gd.M)
    rho_a = (max(linalg.spectral_radius(graph.adjacency(g)) for g in tg.snapshots)
             if classical else None)
    return TemporalState(tg, gd, rho_m, rho_a)


SERIES_FAULT = ("series truncation: the exponential Taylor order comes from the scalar "
                "bound at 1.1*t*rho, which does not hold for the non-normal M")
STALL_FAULT = "GMRES stall: GMRES(30) on I - tM stalls and raises NumericalError"
# The truncated series on the small instance deviates by 1.5e-7; a deviation
# above this ceiling is not that fault.
TRUNCATION_CEILING = 1e-6


def truncation(labels, reference: np.ndarray, bound: float) -> KnownFault:
    """Scores returned, one per node, off by more than the series bound but
    by no more than TRUNCATION_CEILING."""
    def matches(outcome) -> bool:
        if isinstance(outcome, BaseException):
            return False
        dev = checks.max_deviation(labels, outcome, reference)
        return dev is not None and bound < dev <= TRUNCATION_CEILING
    return KnownFault(SERIES_FAULT, matches)


def gmres_stall(outcome) -> bool:
    """NumericalError raised by linalg.solve_linear's residual check."""
    if not isinstance(outcome, NumericalError):
        return False
    frame = traceback.extract_tb(outcome.__traceback__)[-1]
    return (frame.name == "solve_linear" and Path(frame.filename).name == "linalg.py"
            and "residual" in str(outcome))


class Temporal:
    name = "temporal"
    setup_repeats = 1
    query_repeats = 1

    def prepare(self, seed: int, workdir: Path) -> None:
        self.main = inputs.temporal_main(seed, workdir)
        self.small = inputs.temporal_small(workdir)
        self.ref = TemporalReference(self.main.n, self.main.snapshots)
        self.small_ref = TemporalReference(self.small.n, self.small.snapshots)
        self.expected = set().union(*(labels_of(g) for g in self.main.snapshots))
        self.small_expected = set().union(*(labels_of(g) for g in self.small.snapshots))

    def setup(self):
        return setup_temporal(self.main.path, True), setup_temporal(self.small.path, False)

    def check_setup(self, states) -> list[str]:
        main, small = states
        problems = checks.node_set("temporal", main.tg.node_labels, self.expected)
        problems += checks.node_set("temporal small", small.tg.node_labels, self.small_expected)
        bound = 10 * checks.RADIUS_TOL
        problems += checks.relative("temporal rho(M)", main.rho_m, self.ref.rho_m, bound)
        problems += checks.relative("temporal max rho(A)", main.rho_a, self.ref.rho_a, bound)
        problems += checks.relative("temporal small rho(M)", small.rho_m, self.small_ref.rho_m,
                                    bound)
        return problems

    def queries(self, states) -> list[Op]:
        main, small = states
        resolvent = edge_level.CoefficientSeries.resolvent()
        exponential = edge_level.CoefficientSeries.exponential()
        t_res = fraction_t(0.5, main.rho_m)
        t_ctk = fraction_t(0.5, main.rho_a)
        t_exp = fraction_t(0.5, small.rho_m)
        t_stall = fraction_t(0.9, small.rho_m)
        labels, small_labels = main.tg.node_labels, small.tg.node_labels
        m_main, m_small = main.gd.m_total, small.gd.m_total
        exp_ref, exp_bound = self.small_ref.exponential(t_exp), series_bound(TOL, m_small)
        return [
            Op("temporal resolvent 0.5r",
               lambda: temporal.temporal_f_centrality(main.gd, resolvent, t_res, tol=TOL,
                                                      rho_m=main.rho_m),
               lambda x: checks.scores("temporal resolvent 0.5r", labels, x,
                                       self.ref.resolvent(t_res),
                                       resolvent_bound(TOL, m_main, 0.5))),
            Op("classical temporal katz 0.5r",
               lambda: temporal.classical_temporal_katz(main.tg, t_ctk, tol=TOL),
               lambda x: checks.scores("classical temporal katz", labels, x,
                                       self.ref.classical_katz(t_ctk),
                                       resolvent_bound(TOL, main.tg.n, 0.5))),
            Op("small exponential 0.5r",
               lambda: temporal.temporal_f_centrality(small.gd, exponential, t_exp, tol=TOL,
                                                      rho_m=small.rho_m),
               lambda x: checks.scores("small exponential 0.5r", small_labels, x, exp_ref,
                                       exp_bound),
               known_fault=truncation(small_labels, exp_ref, exp_bound)),
            Op("small resolvent 0.9r",
               lambda: temporal.temporal_f_centrality(small.gd, resolvent, t_stall, tol=TOL,
                                                      rho_m=small.rho_m),
               lambda x: checks.scores("small resolvent 0.9r", small_labels, x,
                                       self.small_ref.resolvent(t_stall),
                                       resolvent_bound(TOL, m_small, 0.9)),
               known_fault=KnownFault(STALL_FAULT, gmres_stall)),
        ]

    def commands(self, states) -> list[Command]:
        main = states[0]
        path = str(self.main.path)
        ref, exp = self.ref, self.expected
        t_res = fraction_t(0.5, main.rho_m)
        t_ctk = fraction_t(0.5, main.rho_a)
        return [
            Command("radius temporal", ["radius", "--input", path, "--temporal"],
                    lambda c, o: checks.radius_table("radius temporal", c, o, {
                        "rho_transition": (ref.rho_m, "nbt_t_range"),
                        "max_rho_adjacency": (ref.rho_a, "katz_t_range"),
                        "max_rho_diagonal_block": (ref.rho_b, None)})),
            Command("centrality temporal nbt-katz",
                    ["centrality", "--input", path, "--temporal", "--measure", "nbt-katz",
                     "--t", "0.5r"],
                    lambda c, o: checks.centrality_table(
                        "centrality temporal nbt-katz", c, o, exp, ref.resolvent(t_res),
                        resolvent_bound(TOL, main.gd.m_total, 0.5))),
            Command("centrality temporal katz",
                    ["centrality", "--input", path, "--temporal", "--measure", "katz",
                     "--t", "0.5r"],
                    lambda c, o: checks.centrality_table(
                        "centrality temporal katz", c, o, exp, ref.classical_katz(t_ctk),
                        resolvent_bound(TOL, main.tg.n, 0.5))),
        ]


WORKLOADS = {w.name: w for w in (StaticLarge, StaticMedium, Temporal)}
