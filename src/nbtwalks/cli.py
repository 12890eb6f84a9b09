"""Command-line front end.

Subcommands: ``radius``, ``centrality``, ``sweep``, ``walk-count``,
``oracle-check``.  Output goes to stdout as CSV (default) or JSON with all
floats printed to 12 significant digits, so identical inputs produce
byte-identical output.  Every table goes through ``_emit``, which takes its
rows as columns of printed cells (``Rows``) and writes them in one write.
Exit codes: 0 success, 2 validation error, 3 numerical failure, 141 when
the reader of stdout closed it early (as ``| head`` does).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import cached_property

import numpy as np

from .crosschecks import static_battery, temporal_battery
from .edge_level import CentralityPlan, CoefficientSeries, f_centrality
from .errors import NumericalError, ValidationError
from .graph import (
    _adjacency,
    _line_graph,
    binarize,
    load_edge_list,
    load_matrix_market,
)
from .linalg import _row_of, check_t, identity_minus, range_end, solve_linear, spectral_radius
from .node_level import elementwise_pole, nbt_katz, nbt_walk_counts
from .temporal import (
    BacktrackRegime,
    TemporalGraph,
    _temporal_walk_counts,
    build_global_transition,
    classical_temporal_katz,
    load_temporal_edge_list,
    load_temporal_manifest,
    temporal_f_centrality,
)

MEASURES = ("katz", "nbt-katz", "f-centrality")
SERIES = ("resolvent", "exponential")


def fmt(x: float) -> str:
    """``x`` as the output prints it: 12 significant digits."""
    return f"{float(x):.12g}"


def printed(values) -> list[str]:
    """Each of ``values`` as the output prints it, formatted once."""
    return [f"{x:.12g}" for x in np.asarray(values, dtype=float).tolist()]


def read_back(texts) -> np.ndarray:
    """The numbers that printed texts read back as.  Rankings and Kendall tau
    compare these, so two scores that print alike are a tie."""
    return np.array(texts, dtype=float)


def _json_number(text: str):
    """A printed cell as JSON carries it: the number its text reads back as.
    "inf" and "nan", which JSON has no literal for, and text that is no
    number (a range) stay strings."""
    if text in ("inf", "nan"):
        return text
    try:
        return float(text)
    except ValueError:
        return text


class Rows:
    """Table rows held as columns, which is how ``_emit`` writes them.

    Each column is a kind and a list of cells as CSV prints them.  The kind
    says how JSON carries the cells: "text" as strings, "int" as integers,
    "number" as ``_json_number`` reads them."""

    def __init__(self, *columns: tuple[str, list[str]]):
        self.kinds = [kind for kind, _ in columns]
        self.cells = [cells for _, cells in columns]

    def __len__(self) -> int:
        return len(self.cells[0])

    def json(self) -> list[tuple]:
        read = {"text": str, "int": int, "number": _json_number}
        return list(zip(*(map(read[kind], cells) for kind, cells in zip(self.kinds, self.cells))))


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
            # numpy containers: a static measure needs no scipy
            self.graph = data
            self.a = _adjacency(data)
            if name == "katz":
                rho = spectral_radius(self.a)
            else:
                self.decomposition = _line_graph(data)
                rho = spectral_radius(self.decomposition.V)
        else:
            self.tg = data
            if name == "katz":
                rho = data.max_adjacency_radius
            else:
                self.gd = build_global_transition(data, regime)
                rho = self.gd.transition_radius
        self.rho = rho
        self.radius = range_end(rho, self.series.radius)

    @cached_property
    def pole(self) -> float:
        """The static node-level formula's elementwise pole, which only
        ``scores`` needs."""
        return elementwise_pole(self.a)

    def scores(self, t: float) -> np.ndarray:
        if self.mode == "static":
            if self.name == "katz":
                return solve_linear(identity_minus(t, self.a), np.ones(self.a.shape[0]),
                                    self.tol)
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


def _ranking(labels: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Node indices best first: by printed score (``values``, as
    ``read_back`` gives them), highest first; ties break by node label."""
    return np.lexsort((labels, -values))


def _ranks(order: np.ndarray) -> np.ndarray:
    """Each node's rank, 1 for the best, from its ``_ranking`` order."""
    ranks = np.empty(order.size, dtype=np.intp)
    ranks[order] = np.arange(1, order.size + 1)
    return ranks


def _kendall_tau_b(x: np.ndarray, y: np.ndarray) -> float:
    """Kendall's tau-b of two paired samples, equal to
    ``scipy.stats.kendalltau(x, y).statistic`` bit for bit.

    It takes scipy's steps: dense ranks (y by value, then x by a stable sort,
    so equal x keep y ascending), tie counts joint and per sample, and the
    discordant pairs, which are the inversions of y in that order (Knight,
    JASA 1966).  A bottom-up merge counts them, each level for all blocks at
    once.  Every count is an exact integer, so the final float operations
    are scipy's on the same operands.  NaN for fewer than two pairs, a NaN
    entry or a constant sample.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    size = x.size
    if size < 2 or np.isnan(x).any() or np.isnan(y).any():
        return math.nan
    perm = np.argsort(y)
    x, y = x[perm], y[perm]
    y = np.r_[True, y[1:] != y[:-1]].cumsum(dtype=np.intp)
    perm = np.argsort(x, kind="mergesort")
    x, y = x[perm], y[perm]
    x = np.r_[True, x[1:] != x[:-1]].cumsum(dtype=np.intp)

    # inversions of y: merge sorted blocks of width w pairwise, counting for
    # each right-block entry the left-block entries above it.  An offset per
    # pair keeps the pairs apart, so one sort and one search serve them all.
    dis = 0
    span = int(y.max()) + 1
    merged = y.astype(np.int64)
    index = np.arange(size)
    width = 1
    while width < size:
        pair = index // (2 * width)
        keyed = merged + pair * span
        right = index % (2 * width) >= width
        # the left block of pair p holds keyed[~right] from p * width on
        at_most = np.searchsorted(keyed[~right], keyed[right], side="right")
        dis += int(((pair[right] + 1) * width - at_most).sum())
        merged = np.sort(keyed) - pair * span
        width *= 2

    def tied_pairs(counts) -> int:
        return int((counts * (counts - 1) // 2).sum())

    obs = np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1]), True]
    ntie = tied_pairs(np.diff(np.flatnonzero(obs)))
    xtie, ytie = tied_pairs(np.bincount(x)), tied_pairs(np.bincount(y))
    tot = (size * (size - 1)) // 2
    if xtie == tot or ytie == tot:
        return math.nan
    con_minus_dis = tot - xtie - ytie + ntie - 2 * dis
    tau = con_minus_dis / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(np.minimum(1.0, max(-1.0, tau)))


def _emit(args, header, rows: Rows, extra=None):
    """Write a table to stdout in one write, as CSV or as one JSON document.
    ``extra`` maps names to printed numbers, which CSV appends as comment
    lines after the rows."""
    extra = extra or {}
    if args.format == "json":
        doc = {"columns": header, "rows": rows.json()}
        doc.update((key, _json_number(text)) for key, text in extra.items())
        text = json.dumps(doc, sort_keys=True)
    else:
        lines = [",".join(header)]
        if len(rows):
            lines.append("\n".join(map(",".join, zip(*rows.cells))))
        lines.extend(f"# {key} = {text}" for key, text in extra.items())
        text = "\n".join(lines)
    sys.stdout.write(text + "\n")


def cmd_radius(args) -> int:
    # radius reports the original graph; --binarize adds a second section
    mode, data = _load_input(args, apply_binarize=False)
    sections = [("original", data)]
    if args.binarize:
        sections.append(("binarized", _binarized(mode, data)))
    resolvent = CoefficientSeries.resolvent()
    regime = BacktrackRegime(args.regime)
    tags, quantities, values = [], [], []
    for tag, graph in sections:
        katz = _Measure("katz", mode, graph, resolvent, regime, args.tol)
        nbt = _Measure("nbt-katz", mode, graph, resolvent, regime, args.tol)
        katz_range = f"[0, {fmt(katz.radius)})"
        nbt_range = f"[0, {fmt(nbt.radius)})"
        if mode == "static":
            section = [("rho_adjacency", fmt(katz.rho)),
                       ("rho_nbt_transition", fmt(nbt.rho)),
                       ("katz_t_range", katz_range),
                       ("nbt_t_range", nbt_range)]
        else:
            section = [("rho_transition", fmt(nbt.rho)),
                       ("max_rho_adjacency", fmt(katz.rho)),
                       ("max_rho_diagonal_block", fmt(nbt.gd.block_radius_bound)),
                       ("nbt_t_range", nbt_range),
                       ("katz_t_range", katz_range)]
        tags += [tag] * len(section)
        quantities += [quantity for quantity, _ in section]
        values += [value for _, value in section]

    _emit(args, ["section", "quantity", "value"],
          Rows(("text", tags), ("text", quantities), ("number", values)))
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
        labels = np.asarray(ma.labels)
        texts_a, texts_b = printed(ma.scores(ta)), printed(mb.scores(tb))
        values_a, values_b = read_back(texts_a), read_back(texts_b)
        chosen = _ranking(labels, values_a)
        ranks_a, ranks_b = _ranks(chosen), _ranks(_ranking(labels, values_b))
        if args.top:
            chosen = chosen[np.minimum(ranks_a, ranks_b)[chosen] <= args.top]
        chosen = chosen.tolist()
        tau = _kendall_tau_b(values_a, values_b)
        header = ["node", f"score_{name_a}", f"rank_{name_a}",
                  f"score_{name_b}", f"rank_{name_b}"]
        rows = Rows(("text", labels[chosen].tolist()),
                    ("number", [texts_a[i] for i in chosen]),
                    ("int", list(map(str, ranks_a[chosen].tolist()))),
                    ("number", [texts_b[i] for i in chosen]),
                    ("int", list(map(str, ranks_b[chosen].tolist()))))
        _emit(args, header, rows, extra={"kendall_tau": fmt(tau)})
        return 0

    measure = _measure_for(args, args.measure, mode, data)
    t = _resolve_t(args.t, measure.radius)
    texts = printed(measure.scores(t))
    labels = np.asarray(measure.labels)
    order = _ranking(labels, read_back(texts))
    if args.top:
        order = order[: args.top]
    order = order.tolist()
    rows = Rows(("text", labels[order].tolist()),
                ("number", [texts[i] for i in order]),
                ("int", [str(rank) for rank in range(1, len(order) + 1)]))
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

    labels = np.asarray(measure.labels)
    per_t = []
    for t in ts:
        scores = measure.scores(t)
        peak = float(np.max(scores)) if len(scores) else 1.0
        per_t.append(scores / peak)
    order = np.argsort(labels, kind="stable")
    if args.top and per_t:
        # rank on the normalized scores that the last grid point prints
        ranks = _ranks(_ranking(labels, read_back(printed(per_t[-1]))))
        order = order[ranks[order] <= args.top]

    nodes = labels[order].tolist()
    rows = Rows(("number", [text for text in map(fmt, ts) for _ in nodes]),
                ("text", nodes * len(ts)),
                ("number", [text for normalized in per_t for text in printed(normalized[order])]))
    _emit(args, ["t", "node", "score"], rows)
    return 0


def cmd_walk_count(args) -> int:
    mode, data = _load_input(args)
    if mode == "static":
        tables = enumerate(nbt_walk_counts(_adjacency(data), args.kmax))
        labels = data.node_labels
        header = ["length", "source", "target", "count"]
    else:
        gd = build_global_transition(data, BacktrackRegime(args.regime))
        tables = enumerate(_temporal_walk_counts(gd, args.kmax - 1) if args.kmax else [], start=1)
        labels = gd.edge_labels()
        header = ["length", "from_edge", "to_edge", "count"]
    labels = np.asarray(labels)
    lengths, sources, targets, counts = [], [], [], []
    # each table is a canonical linalg._CSR: its entries in (row, column) order
    for length, matrix in tables:
        lengths += [str(length)] * matrix.nnz
        sources += labels[_row_of(matrix.indptr)].tolist()
        targets += labels[matrix.indices].tolist()
        counts += printed(matrix.data)
    _emit(args, header, Rows(("int", lengths), ("text", sources), ("text", targets),
                             ("number", counts)))
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


def _ranged(kind, admits, requirement: str):
    """An argparse type: ``kind(text)`` when ``admits`` it, else an error that
    argparse reports, naming the option, with exit code 2."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            value = None
        if value is None or not admits(value):
            raise argparse.ArgumentTypeError(f"expected {requirement}, got {text!r}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    count = _ranged(int, lambda k: k >= 1, "an integer >= 1")
    length = _ranged(int, lambda k: k >= 0, "an integer >= 0")
    tol = _ranged(float, lambda x: math.isfinite(x) and x > 0.0, "a finite number > 0")
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
    common.add_argument("--tol", type=tol, default=1e-10,
                        help="tolerance; bounds the relative residual of each static solve, "
                             "or the componentwise backward error of each snapshot solve of "
                             "both temporal measures, and sets the exponential series' Taylor "
                             "order from the scalar tail at 1.1*t*rho (not a certified bound)")

    p = sub.add_parser("radius", parents=[common],
                       help="spectral radii and permitted attenuation ranges")
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("centrality", parents=[common], help="ranked centrality table")
    p.add_argument("--measure", choices=MEASURES, default="nbt-katz")
    p.add_argument("--series", choices=SERIES, default="resolvent")
    p.add_argument("--t", required=True,
                   help="attenuation factor, absolute or a fraction of the radius like '0.95r'")
    p.add_argument("--top", type=count, help="emit only the top-k nodes")
    p.add_argument("--compare", help="two measures 'a:b'; adds both columns and Kendall tau")
    p.set_defaults(func=cmd_centrality)

    p = sub.add_parser("sweep", parents=[common],
                       help="normalized scores over a grid of attenuation factors")
    p.add_argument("--measure", choices=MEASURES, default="nbt-katz")
    p.add_argument("--series", choices=SERIES, default="resolvent")
    p.add_argument("--grid", help="comma-separated t values (absolute or '0.5r' fractions)")
    p.add_argument("--grid-points", type=count, default=25,
                   help="number of evenly spaced points over [0, 0.99) of the radius")
    p.add_argument("--top", type=count,
                   help="keep the k most prominent nodes at the largest grid t")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("walk-count", parents=[common], help="weighted walk-count tables")
    p.add_argument("--kmax", type=length, default=4, help="largest walk length")
    p.set_defaults(func=cmd_walk_count)

    p = sub.add_parser("oracle-check", parents=[common],
                       help="cross-validate every route against enumeration")
    p.add_argument("--kmax", type=length, default=5, help="largest walk length to check")
    p.set_defaults(func=cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone; point stdout at devnull so that the flush at
        # exit cannot fail again, and exit as a shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
