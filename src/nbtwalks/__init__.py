"""Weighted nonbacktracking walk counts, generating functions, and Katz-type
centralities on static and time-evolving directed graphs.

Two independent computational routes are provided: a node-level closed form
(:mod:`nbtwalks.node_level`) and a line-graph projection
(:mod:`nbtwalks.edge_level`, extended to temporal graphs in
:mod:`nbtwalks.temporal`), cross-validated against brute-force enumeration
(:mod:`nbtwalks.oracle`, :mod:`nbtwalks.crosschecks`).
"""

from .edge_level import (
    CentralityPlan,
    CoefficientSeries,
    apply_shifted_series,
    f_centrality,
    generating_matrix_via_line_graph,
    nbt_counts_via_line_graph,
    walk_counts_via_line_graph,
)
from .errors import (
    ExplosionGuardError,
    NumericalError,
    ValidationError,
)
from .graph import (
    LineGraphDecomposition,
    WeightedGraph,
    adjacency,
    binarize,
    line_graph,
    load_edge_list,
    load_matrix_market,
    parse_edge_list,
)
from .linalg import (
    matmul,
    solve_linear,
    spectral_radius,
)
from .node_level import (
    build_node_system,
    generating_matrix,
    nbt_katz,
    nbt_walk_counts,
)
from .oracle import count_nbt_walks_bruteforce, count_temporal_walks_bruteforce
from .temporal import (
    BacktrackRegime,
    GlobalDecomposition,
    TemporalGraph,
    build_global_transition,
    classical_temporal_katz,
    forbid_all_transition_fast,
    load_temporal_edge_list,
    load_temporal_manifest,
    parse_temporal_edge_list,
    temporal_f_centrality,
    temporal_walk_counts,
)

__version__ = "0.1.0"
