"""Command-line front end.

Subcommands: ``radius``, ``centrality``, ``sweep``, ``walk-count``,
``oracle-check``.  Output goes to stdout as CSV (default) or JSON with all
floats printed to 12 significant digits, so identical inputs produce
byte-identical output.  Exit codes: 0 success, 2 validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .crosschecks import static_battery, temporal_battery
from .edge_level import CentralityPlan, CoefficientSeries, f_centrality
from .errors import NumericalError, ValidationError
from .graph import adjacency, binarize, line_graph, load_edge_list, load_matrix_market
from .linalg import check_t, identity, range_end, solve_linear, spectral_radius
from .node_level import elementwise_pole, nbt_katz, nbt_walk_counts
from .temporal import (
    BacktrackRegime,
    TemporalGraph,
    build_global_transition,
    classical_temporal_katz,
    load_temporal_edge_list,
    load_temporal_manifest,
    temporal_f_centrality,
    temporal_walk_counts,
)

MEASURES = ("katz", "nbt-katz", "f-centrality")
SERIES = ("resolvent", "exponential")


def fmt(x: float) -> str:
    """``x`` as the output prints it: 12 significant digits."""
    return f"{float(x):.12g}"


class Printed(float):
    """A number as the output prints it.  ``text`` is ``fmt(x)``, formatted
    once, which CSV prints; the float value is what that text reads back as,
    which JSON prints and rankings and Kendall tau compare, so two scores
    that print alike are a tie."""

    __slots__ = ("text",)

    def __new__(cls, x: float):
        text = fmt(x)
        value = super().__new__(cls, text)
        value.text = text
        return value


def jnum(x):
    """``x`` as printed: a ``Printed`` number, or the string "inf" or "nan",
    which JSON carries as strings.  A value already printed passes through
    unchanged."""
    if isinstance(x, (Printed, str)):
        return x
    if x == math.inf:
        return "inf"
    if math.isnan(x):
        return "nan"
    return Printed(x)


def _series_from_name(name: str) -> CoefficientSeries:
    if name == "resolvent":
        return CoefficientSeries.resolvent()
    if name == "exponential":
        return CoefficientSeries.exponential()
    raise ValidationError(f"unknown series {name!r} (choose from {SERIES})")


def _resolve_t(expr: str, hi: float) -> float:
    """Parse an attenuation factor, absolute ("0.01") or as a fraction of the
    measure's permitted range ("0.95r"); must land strictly inside [0, hi)."""
    text = expr.strip()
    if text.endswith("r"):
        try:
            frac = float(text[:-1])
        except ValueError as exc:
            raise ValidationError(f"bad attenuation expression {expr!r}") from exc
        if hi == math.inf:
            raise ValidationError(
                "the permitted range is unbounded; give an absolute t instead of a fraction"
            )
        t = frac * hi
    else:
        try:
            t = float(text)
        except ValueError as exc:
            raise ValidationError(f"bad attenuation expression {expr!r}") from exc
    check_t(t, hi, show=fmt)
    return t


def _load_input(args, apply_binarize: bool = True):
    """Return ("static", graph) or ("temporal", temporal_graph)."""
    options = dict(merge=args.merge, drop_loops=args.drop_loops)
    if args.temporal_manifest:
        mode, data = "temporal", load_temporal_manifest(args.temporal_manifest, **options)
    elif args.input and args.temporal:
        mode, data = "temporal", load_temporal_edge_list(args.input, **options)
    elif args.input:
        if str(args.input).endswith((".mtx", ".mm")):
            mode, data = "static", load_matrix_market(args.input, **options)
        else:
            mode, data = "static", load_edge_list(args.input, **options)
    else:
        raise ValidationError("an --input file or --temporal-manifest is required")
    if apply_binarize and args.binarize:
        return mode, _binarized(mode, data)
    return mode, data


def _binarized(mode, data):
    if mode == "static":
        return binarize(data)
    return TemporalGraph([binarize(g) for g in data.snapshots], list(data.timestamps))


class _Measure:
    """One centrality measure bound to an input: radius plus score function."""

    def __init__(self, name, mode, data, series, regime, tol):
        self.name = name
        self.mode = mode
        self.tol = tol
        if name not in MEASURES:
            raise ValidationError(f"unknown measure {name!r} (choose from {MEASURES})")
        self.series = CoefficientSeries.resolvent() if name != "f-centrality" else series
        if mode == "static":
            self.graph = data
            self.a = adjacency(data)
            if name == "katz":
                rho = spectral_radius(self.a)
            else:
                self.decomposition = line_graph(data)
                rho = spectral_radius(self.decomposition.V)
                self.pole = elementwise_pole(self.a)
        else:
            self.tg = data
            if name == "katz":
                rho = data.max_adjacency_radius
            else:
                self.gd = build_global_transition(data, regime)
                rho = self.gd.transition_radius
        self.rho = rho
        self.radius = range_end(rho, self.series.radius)

    def scores(self, t: float) -> np.ndarray:
        if self.mode == "static":
            if self.name == "katz":
                return solve_linear(identity(self.a.shape[0]) - t * self.a,
                                    np.ones(self.a.shape[0]), self.tol)
            if self.name == "nbt-katz" and t < self.pole:
                return nbt_katz(self.a, t, tol=self.tol, rho_v=self.rho)
            # nbt-katz beyond the node-level formula's elementwise pole (still
            # inside the series radius) is served by the line-graph route
            plan = CentralityPlan(self.decomposition, self.series, t, rho_v=self.rho)
            return f_centrality(plan, tol=self.tol)
        if self.name == "katz":
            return classical_temporal_katz(self.tg, t, tol=self.tol)
        return temporal_f_centrality(self.gd, self.series, t, tol=self.tol, rho_m=self.rho)

    @property
    def labels(self) -> list[str]:
        return self.graph.node_labels if self.mode == "static" else self.tg.node_labels


def _ranked(labels, scores):
    """(label, printed score, rank) rows, best first.  Nodes are ordered by
    their printed score (``jnum``); ties at that precision break by node
    label."""
    printed = [jnum(s) for s in scores]
    order = sorted(range(len(labels)), key=lambda i: (-float(printed[i]), labels[i]))
    return [(labels[i], printed[i], rank) for rank, i in enumerate(order, start=1)]


def _cell(value) -> str:
    return value.text if isinstance(value, Printed) else str(value)


def _emit(args, header, rows, extra=None):
    if args.format == "json":
        doc = {"columns": header, "rows": rows}
        if extra:
            doc.update(extra)
        print(json.dumps(doc, sort_keys=True))
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(map(_cell, row)))
        if extra:
            for key, value in extra.items():
                print(f"# {key} = {_cell(value)}")


def cmd_radius(args) -> int:
    # radius reports the original graph; --binarize adds a second section
    mode, data = _load_input(args, apply_binarize=False)
    sections = [("original", data)]
    if args.binarize:
        sections.append(("binarized", _binarized(mode, data)))
    resolvent = CoefficientSeries.resolvent()
    regime = BacktrackRegime(args.regime)
    rows = []
    for tag, graph in sections:
        katz = _Measure("katz", mode, graph, resolvent, regime, args.tol)
        nbt = _Measure("nbt-katz", mode, graph, resolvent, regime, args.tol)
        katz_range = f"[0, {fmt(katz.radius)})"
        nbt_range = f"[0, {fmt(nbt.radius)})"
        if mode == "static":
            rows.append((tag, "rho_adjacency", jnum(katz.rho)))
            rows.append((tag, "rho_nbt_transition", jnum(nbt.rho)))
            rows.append((tag, "katz_t_range", katz_range))
            rows.append((tag, "nbt_t_range", nbt_range))
        else:
            rows.append((tag, "rho_transition", jnum(nbt.rho)))
            rows.append((tag, "max_rho_adjacency", jnum(katz.rho)))
            rows.append((tag, "max_rho_diagonal_block", jnum(nbt.gd.block_radius_bound)))
            rows.append((tag, "nbt_t_range", nbt_range))
            rows.append((tag, "katz_t_range", katz_range))

    _emit(args, ["section", "quantity", "value"], rows)
    return 0


def _measure_for(args, name, mode, data):
    series = _series_from_name(args.series)
    regime = BacktrackRegime(args.regime)
    return _Measure(name, mode, data, series, regime, args.tol)


def cmd_centrality(args) -> int:
    mode, data = _load_input(args)

    if args.compare:
        try:
            name_a, name_b = args.compare.split(":")
        except ValueError as exc:
            raise ValidationError("--compare expects 'measure1:measure2'") from exc
        ma = _measure_for(args, name_a, mode, data)
        mb = _measure_for(args, name_b, mode, data)
        ta = _resolve_t(args.t, ma.radius)
        tb = _resolve_t(args.t, mb.radius)
        sa = ma.scores(ta)
        sb = mb.scores(tb)
        labels = ma.labels
        rows_a = {lab: (s, r) for lab, s, r in _ranked(labels, sa)}
        rows_b = {lab: (s, r) for lab, s, r in _ranked(labels, sb)}
        chosen = list(labels)
        if args.top:
            chosen = [lab for lab in labels
                      if min(rows_a[lab][1], rows_b[lab][1]) <= args.top]
        chosen.sort(key=lambda lab: (rows_a[lab][1], lab))
        import scipy.stats  # slow to import, and only --compare needs it

        tau = scipy.stats.kendalltau([float(rows_a[lab][0]) for lab in labels],
                                     [float(rows_b[lab][0]) for lab in labels]).statistic
        header = ["node", f"score_{name_a}", f"rank_{name_a}",
                  f"score_{name_b}", f"rank_{name_b}"]
        rows = [(lab, *rows_a[lab], *rows_b[lab]) for lab in chosen]
        _emit(args, header, rows, extra={"kendall_tau": jnum(float(tau))})
        return 0

    measure = _measure_for(args, args.measure, mode, data)
    t = _resolve_t(args.t, measure.radius)
    scores = measure.scores(t)
    rows = _ranked(measure.labels, scores)
    if args.top:
        rows = rows[: args.top]
    _emit(args, ["node", "score", "rank"], rows)
    return 0


def cmd_sweep(args) -> int:
    mode, data = _load_input(args)
    measure = _measure_for(args, args.measure, mode, data)

    if args.grid:
        ts = []
        for piece in args.grid.split(","):
            piece = piece.strip()
            if not piece:
                continue
            ts.append(_resolve_t(piece, measure.radius))
    else:
        if measure.radius == math.inf:
            raise ValidationError(
                "the permitted range is unbounded; give an explicit --grid"
            )
        ts = [float(f) * measure.radius for f in np.linspace(0.0, 0.99, args.grid_points)]
    for t in ts:
        if not (0.0 <= t <= 0.99 * measure.radius):
            raise ValidationError(
                f"grid point {fmt(t)} is outside [0, {fmt(0.99 * measure.radius)}]"
            )

    labels = measure.labels
    per_t = []
    for t in ts:
        scores = measure.scores(t)
        peak = float(np.max(scores)) if len(scores) else 1.0
        per_t.append((jnum(t), (scores / peak).tolist()))
    order = sorted(range(len(labels)), key=lambda i: labels[i])
    if args.top and per_t:
        # rank on the normalized scores that the last grid point prints
        last_t, last = per_t[-1]
        per_t[-1] = (last_t, [jnum(v) for v in last])
        chosen = {lab for lab, _, rank in _ranked(labels, per_t[-1][1]) if rank <= args.top}
        order = [i for i in order if labels[i] in chosen]

    rows = [(t, labels[i], jnum(normalized[i])) for t, normalized in per_t for i in order]
    _emit(args, ["t", "node", "score"], rows)
    return 0


def cmd_walk_count(args) -> int:
    mode, data = _load_input(args)
    if mode == "static":
        tables = enumerate(nbt_walk_counts(adjacency(data), args.kmax))
        labels = data.node_labels
        header = ["length", "source", "target", "count"]
    else:
        gd = build_global_transition(data, BacktrackRegime(args.regime))
        tables = ((k, temporal_walk_counts(gd, k - 1)) for k in range(1, args.kmax + 1))
        labels = gd.edge_labels()
        header = ["length", "from_edge", "to_edge", "count"]
    rows = []
    for length, matrix in tables:
        coo = matrix.tocoo()
        triples = sorted(zip(coo.row, coo.col, coo.data), key=lambda t: (t[0], t[1]))
        rows.extend((length, labels[i], labels[j], jnum(float(v))) for i, j, v in triples)
    _emit(args, header, rows)
    return 0


def cmd_oracle_check(args) -> int:
    mode, data = _load_input(args)
    if mode == "static":
        results = static_battery(data, kmax=args.kmax, tol=args.tol)
    else:
        results = temporal_battery(data, kmax=min(args.kmax, 4), tol=args.tol)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max deviation {fmt(r.max_deviation)} (tol {fmt(r.tolerance)})")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print(f"FAILED: {failed[0].name}", file=sys.stderr)
        return 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbtwalks",
        description="Nonbacktracking walk counts and centralities on weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--input", help="edge-list file (static, or temporal with --temporal)")
    common.add_argument("--temporal", action="store_true",
                        help="treat --input as 'time src dst [weight]' records")
    common.add_argument("--temporal-manifest",
                        help="file listing per-snapshot edge-list paths in order")
    common.add_argument("--binarize", action="store_true", help="set all weights to 1")
    common.add_argument("--merge", choices=["reject", "sum"], default="reject",
                        help="duplicate-edge policy")
    common.add_argument("--drop-loops", action="store_true",
                        help="drop self-loops instead of rejecting them")
    common.add_argument("--regime", choices=[r.value for r in BacktrackRegime],
                        default="forbid-all", help="temporal backtracking regime")
    common.add_argument("--format", choices=["csv", "json"], default="csv")
    common.add_argument("--tol", type=float, default=1e-10,
                        help="tolerance; bounds the relative residual of each linear solve, "
                             "or for the temporal resolvent its componentwise backward error")

    p = sub.add_parser("radius", parents=[common],
                       help="spectral radii and permitted attenuation ranges")
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("centrality", parents=[common], help="ranked centrality table")
    p.add_argument("--measure", choices=MEASURES, default="nbt-katz")
    p.add_argument("--series", choices=SERIES, default="resolvent")
    p.add_argument("--t", required=True,
                   help="attenuation factor, absolute or a fraction of the radius like '0.95r'")
    p.add_argument("--top", type=int, help="emit only the top-k nodes")
    p.add_argument("--compare", help="two measures 'a:b'; adds both columns and Kendall tau")
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("sweep", parents=[common],
                       help="normalized scores over a grid of attenuation factors")
    p.add_argument("--measure", choices=MEASURES, default="nbt-katz")
    p.add_argument("--series", choices=SERIES, default="resolvent")
    p.add_argument("--grid", help="comma-separated t values (absolute or '0.5r' fractions)")
    p.add_argument("--grid-points", type=int, default=25,
                   help="number of evenly spaced points over [0, 0.99) of the radius")
    p.add_argument("--top", type=int,
                   help="keep the k most prominent nodes at the largest grid t")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("walk-count", parents=[common], help="weighted walk-count tables")
    p.add_argument("--kmax", type=int, default=4, help="largest walk length")
    p.set_defaults(func=cmd_walk_count)

    p = sub.add_parser("oracle-check", parents=[common],
                       help="cross-validate every route against enumeration")
    p.add_argument("--kmax", type=int, default=5, help="largest walk length to check")
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
