"""Output checks: program results against the references, and properties of
the CLI's printed tables.  Every check returns a list of failure messages,
empty when the output passes.

Bounds derive from the tolerance the call was given:

- A solve with relative residual ``tol`` in the 2-norm leaves an elementwise
  relative error of at most about ``sqrt(N) * tol / (1 - a)`` in a system of
  order N at a fraction a of the permitted range (the resolvent norm of a
  normal matrix); the factor RESOLVENT_SLACK leaves room for non-normality.
- A series certified to ``tol`` leaves at most ``sqrt(N) * tol``.
- Spectral radii are estimated to RADIUS_TOL relative.
- Printed numbers carry 12 significant digits, so they may differ from the
  computed value by PRINTED relative.
"""

from __future__ import annotations

import math
import re

import numpy as np

from reference import kendall_tau_b

RADIUS_TOL = 1e-8        # tolerance of nbtwalks' spectral radius estimate
RESOLVENT_SLACK = 10.0
PRINTED = 1e-11


def resolvent_bound(tol: float, order: int, fraction: float) -> float:
    return RESOLVENT_SLACK * math.sqrt(order) * tol / (1.0 - fraction)


def series_bound(tol: float, order: int) -> float:
    return math.sqrt(order) * tol


def node_index(labels) -> np.ndarray:
    """Generated labels are ``v<index>``."""
    return np.fromiter((int(lab[1:]) for lab in labels), dtype=np.int64, count=len(labels))


def max_deviation(labels, values, reference: np.ndarray) -> float | None:
    """Largest elementwise relative deviation of ``values`` (in ``labels``
    order) from the reference indexed by node; None when ``values`` is not
    one number per node.  A NaN anywhere gives NaN."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (len(labels),):
        return None
    ref = reference[node_index(labels)]
    with np.errstate(divide="ignore", invalid="ignore"):
        dev = np.abs(values - ref) / np.abs(ref)
    return float(np.max(dev)) if dev.size else 0.0


def scores(what: str, labels, values, reference: np.ndarray, bound: float) -> list[str]:
    """Elementwise relative deviation of ``values`` (in ``labels`` order) from
    the reference indexed by node."""
    worst = max_deviation(labels, values, reference)
    if worst is None:
        return [f"{what}: {np.shape(values)} scores for {len(labels)} nodes"]
    if not worst <= bound:
        return [f"{what}: max relative deviation {worst:.3e} exceeds {bound:.3e}"]
    return []


def relative(what: str, value: float, reference: float, bound: float) -> list[str]:
    dev = abs(value - reference) / abs(reference)
    if not dev <= bound:
        return [f"{what}: {value!r} deviates from {reference!r} by {dev:.3e} > {bound:.3e}"]
    return []


def residual(what: str, matrix, x, rhs, tol: float) -> list[str]:
    """A solve claimed to ``tol`` relative residual, checked on the
    reference matrix; 1% covers rounding in the recomputation."""
    r = float(np.linalg.norm(matrix @ x - rhs))
    limit = 1.01 * tol * float(np.linalg.norm(rhs))
    if not r <= limit:
        return [f"{what}: residual {r:.3e} exceeds {limit:.3e}"]
    return []


def node_set(what: str, labels, expected: set) -> list[str]:
    if len(labels) != len(set(labels)) or set(labels) != expected:
        return [f"{what}: node labels differ from the input's nodes"]
    return []


# ---------------------------------------------------------------- CLI output

def parse_csv(text: str):
    """Header, data rows (lists of fields) and ``# key = value`` extras."""
    header, rows, extra = None, [], {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            extra[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows, extra


def ranked(what: str, triples, *, top: int | None = None) -> list[str]:
    """(label, printed score, rank) rows: every node once, and ranks 1..k in
    order of printed score with ties broken by label.  With ``top`` only the
    ranks up to ``top`` must all be present."""
    labels = [lab for lab, _, _ in triples]
    if len(set(labels)) != len(labels):
        return [f"{what}: a node is printed twice"]
    rows = sorted(triples, key=lambda r: r[2])
    ranks = [r for _, _, r in rows]
    wanted = list(range(1, (top or len(rows)) + 1))
    if ranks[: len(wanted)] != wanted:
        return [f"{what}: ranks are not 1..{len(wanted)}"]
    for (la, sa, ra), (lb, sb, rb) in zip(rows, rows[1:]):
        if rb != ra + 1:
            continue
        if sa < sb or (sa == sb and la > lb):
            return [f"{what}: rank {ra} ({la} {sa!r}) before rank {rb} ({lb} {sb!r})"]
    return []


def centrality_table(what: str, code: int, out: str, expected: set,
                     reference: np.ndarray, bound: float) -> list[str]:
    """A full ``centrality`` table: printed in rank order, every node once,
    scores matching the reference."""
    if code != 0:
        return [f"{what}: exit code {code}"]
    header, rows, _ = parse_csv(out)
    if header != ["node", "score", "rank"]:
        return [f"{what}: unexpected header {header}"]
    triples = [(lab, float(s), int(r)) for lab, s, r in rows]
    problems = node_set(what, [lab for lab, _, _ in triples], expected)
    problems += ranked(what, triples)
    if [r for _, _, r in triples] != list(range(1, len(triples) + 1)):
        problems.append(f"{what}: rows are not printed in rank order")
    problems += scores(what, [lab for lab, _, _ in triples], [s for _, s, _ in triples],
                       reference, bound + PRINTED)
    return problems


def compare_table(what: str, code: int, out: str, expected: set, names, references,
                  bounds, top: int | None = None) -> list[str]:
    """A ``centrality --compare`` table: both rank columns consistent with the
    printed scores, scores matching their references, and (on a full table)
    the printed Kendall tau equal to tau-b of the printed columns."""
    if code != 0:
        return [f"{what}: exit code {code}"]
    header, rows, extra = parse_csv(out)
    a, b = names
    if header != ["node", f"score_{a}", f"rank_{a}", f"score_{b}", f"rank_{b}"]:
        return [f"{what}: unexpected header {header}"]
    labels = [r[0] for r in rows]
    cols = [[float(r[1]) for r in rows], [float(r[3]) for r in rows]]
    ranks = [[int(r[2]) for r in rows], [int(r[4]) for r in rows]]
    problems = []
    if top is None:
        problems += node_set(what, labels, expected)
    if sorted(zip(ranks[0], labels)) != list(zip(ranks[0], labels)):
        problems.append(f"{what}: rows are not printed in order of rank_{a}")
    for name, col, rk, ref, bound in zip(names, cols, ranks, references, bounds):
        problems += ranked(f"{what} [{name}]", list(zip(labels, col, rk)), top=top)
        problems += scores(f"{what} [{name}]", labels, col, ref, bound + PRINTED)
        if top is not None:
            problems += top_set(f"{what} [{name}]", labels, rk, ref, top, bound)
    if not -1.0 <= float(extra.get("kendall_tau", "nan")) <= 1.0:
        problems.append(f"{what}: no kendall_tau in [-1, 1]")
    elif top is None:
        tau = kendall_tau_b(cols[0], cols[1])
        if not abs(float(extra["kendall_tau"]) - tau) <= PRINTED:
            problems.append(f"{what}: printed tau {extra['kendall_tau']} but the printed "
                            f"columns give {tau!r}")
    return problems


def top_set(what: str, labels, ranks, reference: np.ndarray, top: int, bound: float) -> list[str]:
    """The printed top ``top`` nodes are the reference's, unless the
    reference's ``top``-th and next scores are too close to tell apart."""
    order = np.argsort(-reference, kind="stable")
    cut, after = reference[order[top - 1]], reference[order[top]]
    if (cut - after) <= 2 * (bound + PRINTED) * cut:
        return []
    printed = {lab for lab, r in zip(labels, ranks) if r <= top}
    if printed != {f"v{i}" for i in order[:top]}:
        return [f"{what}: printed top {top} differs from the reference's"]
    return []


def radius_table(what: str, code: int, out: str, expected: dict) -> list[str]:
    """``radius`` rows: each radius against its reference, each range equal
    to the reciprocal of the printed radius."""
    if code != 0:
        return [f"{what}: exit code {code}"]
    lines = out.splitlines()
    if lines[:1] != ["section,quantity,value"]:
        return [f"{what}: unexpected header {lines[:1]}"]
    rows = [line.split(",", 2) for line in lines[1:]]  # a range holds a comma
    values = {q: v for s, q, v in rows if s == "original"}
    problems = []
    for quantity, (ref, range_name) in expected.items():
        if quantity not in values:
            problems.append(f"{what}: no {quantity} row")
            continue
        rho = float(values[quantity])
        problems += relative(f"{what} {quantity}", rho, ref, 10 * RADIUS_TOL)
        if range_name is not None:
            match = re.fullmatch(r"\[0, (\S+)\)", values.get(range_name, ""))
            if not match:
                problems.append(f"{what}: bad {range_name} row")
            else:
                problems += relative(f"{what} {range_name}", float(match.group(1)),
                                     1.0 / float(values[quantity]), 2 * PRINTED)
    return problems


def sweep_table(what: str, code: int, out: str, expected: set, ts, references,
                bounds) -> list[str]:
    """``sweep`` rows: one block per grid point with every node once, the
    largest score 1 at every t, every score 1 at t = 0, and the scores equal
    to the max-normalized references."""
    if code != 0:
        return [f"{what}: exit code {code}"]
    header, rows, _ = parse_csv(out)
    if header != ["t", "node", "score"]:
        return [f"{what}: unexpected header {header}"]
    blocks: dict[str, list] = {}
    for t, lab, s in rows:
        blocks.setdefault(t, []).append((lab, float(s)))
    wanted = [f"{t:.12g}" for t in ts]
    if list(blocks) != wanted:
        return [f"{what}: grid {list(blocks)} differs from {wanted}"]
    problems = []
    for t, key, ref, bound in zip(ts, wanted, references, bounds):
        labels = [lab for lab, _ in blocks[key]]
        values = np.array([s for _, s in blocks[key]])
        problems += node_set(f"{what} t={key}", labels, expected)
        if values.max() != 1.0:
            problems.append(f"{what} t={key}: largest score {values.max()!r} is not 1")
        if t == 0.0 and np.any(values != 1.0):
            problems.append(f"{what} t=0: a score differs from 1")
        problems += scores(f"{what} t={key}", labels, values, ref / ref.max(),
                           2 * bound + PRINTED)
    return problems


def walk_count_table(what: str, code: int, out: str, graph, counts, tol: float) -> list[str]:
    """``walk-count`` rows: length 0 is the identity, length 1 the input
    edges, the length-2 total is sum_i in(i) out(i) - sum over reciprocated
    pairs of w_ij w_ji, and every entry of length k >= 1 matches
    ``counts[k - 1]`` to ``tol`` relative to the sum of all walks
    (backtracking or not) between the same nodes."""
    if code != 0:
        return [f"{what}: exit code {code}"]
    header, rows, _ = parse_csv(out)
    if header != ["length", "source", "target", "count"]:
        return [f"{what}: unexpected header {header}"]
    tables: list[dict] = [{} for _ in range(len(counts) + 1)]
    for length, s, d, c in rows:
        k = int(length)
        if not 0 <= k < len(tables):
            return [f"{what}: length {k} out of range"]
        key = (int(s[1:]), int(d[1:]))
        if key in tables[k]:
            return [f"{what}: length {k} row {s},{d} printed twice"]
        tables[k][key] = float(c)
    problems = []
    present = np.unique(np.concatenate([graph.src, graph.dst]))
    if tables[0] != {(i, i): 1.0 for i in present}:
        problems.append(f"{what}: length-0 rows are not the identity")
    if tables[1] != {(s, d): w for s, d, w in zip(graph.src, graph.dst, graph.w)}:
        problems.append(f"{what}: length-1 rows are not the input edges")
    strength_in = np.bincount(graph.dst, weights=graph.w, minlength=graph.n)
    strength_out = np.bincount(graph.src, weights=graph.w, minlength=graph.n)
    weight = dict(zip(zip(graph.src, graph.dst), graph.w))
    mutual = sum(w * weight[(d, s)] for (s, d), w in weight.items() if (d, s) in weight)
    total2 = float(strength_in @ strength_out) - mutual
    if len(tables) > 2:
        problems += relative(f"{what} length-2 total", sum(tables[2].values()), total2, tol)
    for k, (nbt, every) in enumerate(counts, start=1):
        table, ref, scale = tables[k], nbt.todok(), every.todok()
        for key in set(table) | set(ref.keys()):
            dev = abs(table.get(key, 0.0) - ref.get(key, 0.0))
            if not dev <= tol * (abs(ref.get(key, 0.0)) + scale.get(key, 0.0)):
                problems.append(f"{what}: length {k} entry v{key[0]},v{key[1]} deviates by {dev:.3e}")
                break
    return problems


def oracle_output(what: str, code: int, out: str) -> list[str]:
    """``oracle-check``: exit 0, every check line PASS, all counted passed."""
    lines = out.strip().splitlines()
    problems = [] if code == 0 else [f"{what}: exit code {code}"]
    if not lines or not re.fullmatch(r"(\d+)/\1 checks passed", lines[-1]):
        problems.append(f"{what}: summary line {lines[-1:]!r}")
    bad = [line for line in lines[:-1] if not line.startswith("PASS ")]
    if bad or len(lines) < 2:
        problems.append(f"{what}: not every check line is PASS: {bad[:1]}")
    return problems
