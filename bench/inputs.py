"""Seeded input generators for the benchmark workloads.

Every input is a function of its seed alone: the same seed gives the same
edge arrays and byte-identical files.  Generators return the edge arrays the
references are computed from, with weights already rounded to the six
significant digits the files carry, so program and reference read the same
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

RECIPROCATED = 0.3   # share of connected node pairs linked in both directions
WEIGHT_SIGMA = 0.5   # weights are log-normal(0, WEIGHT_SIGMA)


@dataclass
class EdgeArrays:
    """One static graph over nodes ``v0..v{n-1}``: edge i runs src[i] -> dst[i]."""

    n: int
    src: np.ndarray
    dst: np.ndarray
    w: np.ndarray

    @property
    def m(self) -> int:
        return int(self.src.size)

    def lines(self, prefix: str = "") -> list[str]:
        return [f"{prefix}v{s} v{d} {x:.6g}\n" for s, d, x in zip(self.src, self.dst, self.w)]


@dataclass
class StaticInput:
    path: Path
    graph: EdgeArrays


@dataclass
class TemporalInput:
    path: Path
    n: int
    snapshots: list[EdgeArrays]


def random_graph(rng: np.random.Generator, n: int, m: int, nodes=None) -> EdgeArrays:
    """About ``m`` edges on distinct node pairs drawn uniformly from ``nodes``
    (default: all n nodes); a share RECIPROCATED of the pairs carry both
    directions, each with its own log-normal weight."""
    nodes = np.arange(n) if nodes is None else np.asarray(nodes)
    k = nodes.size
    pairs = int(round(m / (1.0 + RECIPROCATED)))
    draw = int(pairs * 1.3) + 64
    a = rng.integers(0, k, size=draw)
    b = rng.integers(0, k, size=draw)
    keep = a != b
    lo = np.minimum(a[keep], b[keep])
    hi = np.maximum(a[keep], b[keep])
    _, first = np.unique(lo.astype(np.int64) * k + hi, return_index=True)
    chosen = np.sort(first)[:pairs]
    if chosen.size < pairs:
        raise ValueError(f"cannot place {pairs} distinct pairs on {k} nodes")
    lo, hi = lo[chosen], hi[chosen]
    both = rng.random(pairs) < RECIPROCATED
    flip = rng.random(pairs) < 0.5
    s1 = np.where(flip, hi, lo)
    d1 = np.where(flip, lo, hi)
    src = nodes[np.concatenate([s1, d1[both]])]
    dst = nodes[np.concatenate([d1, s1[both]])]
    raw = rng.lognormal(0.0, WEIGHT_SIGMA, size=src.size)
    w = np.array([float(f"{x:.6g}") for x in raw])
    return EdgeArrays(n=n, src=src.astype(np.int64), dst=dst.astype(np.int64), w=w)


def write_static(path: Path, graph: EdgeArrays) -> StaticInput:
    path.write_text("".join(graph.lines()), encoding="utf-8")
    return StaticInput(path=path, graph=graph)


def write_temporal(path: Path, n: int, snapshots: list[EdgeArrays]) -> TemporalInput:
    text = "".join(line for tau, g in enumerate(snapshots) for line in g.lines(f"{tau} "))
    path.write_text(text, encoding="utf-8")
    return TemporalInput(path=path, n=n, snapshots=snapshots)


def static_large(seed: int, workdir: Path) -> StaticInput:
    """20k nodes, about 125k edges."""
    rng = np.random.default_rng([seed, 1])
    return write_static(workdir / "large.txt", random_graph(rng, 20_000, 125_000))


MEDIUM_SIZES = ((800, 3_200), (1_400, 5_600), (2_000, 8_000))


def static_medium(seed: int, workdir: Path) -> tuple[list[StaticInput], StaticInput]:
    """Three graphs below the dense-solve order, plus a 10-node graph small
    enough for exhaustive enumeration."""
    rng = np.random.default_rng([seed, 2])
    batch = [write_static(workdir / f"medium{i}.txt", random_graph(rng, n, m))
             for i, (n, m) in enumerate(MEDIUM_SIZES)]
    tiny = write_static(workdir / "tiny.txt", random_graph(rng, 10, 24))
    return batch, tiny


TEMPORAL_SNAPSHOTS = 20
TEMPORAL_ACTIVE = 150     # nodes active in one snapshot
TEMPORAL_EDGES = 500      # edges per ordinary snapshot
TEMPORAL_BURST = 750      # edges in the middle (burst) snapshot
FIXED_SEED = 2022         # seed of the small temporal instance, whatever --seed is


def temporal_main(seed: int, workdir: Path) -> TemporalInput:
    """500 nodes, 20 snapshots; each snapshot links a random set of 150
    active nodes, and the middle snapshot is a burst with 1.5x the edges, so
    one diagonal block of M has a clearly largest radius."""
    rng = np.random.default_rng([seed, 3])
    n = 500
    snaps = []
    for tau in range(TEMPORAL_SNAPSHOTS):
        m = TEMPORAL_BURST if tau == TEMPORAL_SNAPSHOTS // 2 else TEMPORAL_EDGES
        snaps.append(random_graph(rng, n, m, nodes=rng.permutation(n)[:TEMPORAL_ACTIVE]))
    return write_temporal(workdir / "temporal.txt", n, snaps)


def temporal_small(workdir: Path) -> TemporalInput:
    """250 nodes, 10 snapshots of 250 uniformly placed edges, from a fixed
    seed: the instance that carries the two known temporal faults."""
    rng = np.random.default_rng(FIXED_SEED)
    n = 250
    snaps = [random_graph(rng, n, 250) for _ in range(10)]
    return write_temporal(workdir / "temporal_small.txt", n, snaps)
