"""Shared test helpers: random instances, deviation measures and the
environment of CLI subprocesses."""

import os
from pathlib import Path

import numpy as np
import pytest

import nbtwalks
from nbtwalks.graph import WeightedGraph


def cli_env() -> dict:
    """Environment in which a subprocess imports the nbtwalks under test."""
    return {**os.environ, "PYTHONPATH": str(Path(nbtwalks.__file__).parents[1])}


def rel_dev(a, b) -> float:
    """Max-norm difference scaled by the larger magnitude (floor 1)."""
    da = a.toarray() if hasattr(a, "toarray") else np.asarray(a, dtype=float)
    db = b.toarray() if hasattr(b, "toarray") else np.asarray(b, dtype=float)
    assert da.shape == db.shape
    if da.size == 0:
        return 0.0
    scale = max(1.0, float(np.max(np.abs(da))), float(np.max(np.abs(db))))
    return float(np.max(np.abs(da - db))) / scale


def random_digraph(rng, n, p=0.4, wlo=0.5, whi=2.0, integer=False) -> WeightedGraph:
    """Random weighted digraph: each ordered pair kept with probability p."""
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < p:
                w = float(rng.integers(1, 5)) if integer else float(rng.uniform(wlo, whi))
                edges.append((i, j, w))
    return WeightedGraph([str(i) for i in range(n)], edges)


def random_undirected(rng, n, p=0.4) -> WeightedGraph:
    """Random binary symmetric graph."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j, 1.0))
                edges.append((j, i, 1.0))
    return WeightedGraph([str(i) for i in range(n)], edges)


def random_oneway(rng, n, p=0.4, wlo=0.5, whi=2.0) -> WeightedGraph:
    """Random digraph with no reciprocated pairs."""
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                if rng.random() < 0.5:
                    edges.append((i, j, float(rng.uniform(wlo, whi))))
                else:
                    edges.append((j, i, float(rng.uniform(wlo, whi))))
    return WeightedGraph([str(i) for i in range(n)], edges)


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


# Hand fixtures used across modules.

def two_node_reciprocated(w=2.0) -> WeightedGraph:
    return WeightedGraph(["a", "b"], [(0, 1, w), (1, 0, w)])


def undirected_path() -> WeightedGraph:
    # 1 - 2 - 3 with weights 1 and 2, both directions
    return WeightedGraph(
        ["1", "2", "3"],
        [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 2.0), (2, 1, 2.0)],
    )


def directed_cycle(weights=(1.0, 2.0, 3.0)) -> WeightedGraph:
    n = len(weights)
    labels = [str(i + 1) for i in range(n)]
    return WeightedGraph(labels, [(i, (i + 1) % n, float(w)) for i, w in enumerate(weights)])
