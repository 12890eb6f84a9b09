"""Edge-level route: projections through the line graph and series-weighted
centralities.

All centralities here are computed matrix-free: the edge-level resolvent or
series is only ever applied to vectors, never inverted, since the number of
edges can exceed the number of nodes by orders of magnitude.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NumericalError, ValidationError
from .graph import LineGraphDecomposition, _adjacency
from .linalg import (
    DENSE_SOLVE_MAX,
    _canonical,
    _dense_solve,
    _indptr,
    check_t,
    identity_minus,
    matmul,
    range_end,
    solve_linear,
)

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "CoefficientSeries",
    "CentralityPlan",
    "walk_counts_via_line_graph",
    "nbt_counts_via_line_graph",
    "apply_shifted_series",
    "f_centrality",
    "project_to_nodes",
    "generating_matrix_via_line_graph",
]

_MAX_SERIES_TERMS = 100_000


@dataclass(frozen=True)
class CoefficientSeries:
    """Coefficient sequence c_k of a scalar series f(x) = sum c_k x^k.

    Built-ins: the resolvent (c_k = 1, radius 1, giving Katz-type measures)
    and the exponential (c_k = 1/k!, infinite radius, giving total
    communicability).  Custom series carry an explicit coefficient array
    and are truncated after it: a polynomial, finite for every t >= 0, so of
    infinite radius.
    """

    kind: str
    radius: float
    coefficients: np.ndarray | None = None

    @classmethod
    def resolvent(cls) -> "CoefficientSeries":
        return cls(kind="resolvent", radius=1.0)

    @classmethod
    def exponential(cls) -> "CoefficientSeries":
        return cls(kind="exponential", radius=math.inf)

    @classmethod
    def custom(cls, coefficients) -> "CoefficientSeries":
        """The polynomial with ``coefficients``."""
        coeffs = np.asarray(coefficients, dtype=np.float64)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValidationError("custom series needs a non-empty 1-D coefficient array")
        if np.any(coeffs < 0) or not np.all(np.isfinite(coeffs)):
            raise ValidationError("series coefficients must be finite and nonnegative")
        return cls(kind="custom", radius=math.inf, coefficients=coeffs)

    @property
    def c0(self) -> float:
        if self.kind == "custom":
            return float(self.coefficients[0])
        return 1.0


def walk_counts_via_line_graph(decomposition: LineGraphDecomposition,
                               kmax: int) -> list[sp.csr_array]:
    """Project k line-graph steps back to node level for k = 0..kmax; entry
    k equals the (k+1)-th power of the adjacency matrix.  The matrices are
    in the container of ``decomposition.V``, as ``_project`` builds them."""
    return _project(decomposition, decomposition.half_walk_matrix, kmax)


def nbt_counts_via_line_graph(decomposition: LineGraphDecomposition,
                              kmax: int) -> list[sp.csr_array]:
    """Project k backtrack-pruned steps back to node level for k = 0..kmax;
    entry k equals the nonbacktracking walk-count matrix of length k+1."""
    return _project(decomposition, decomposition.V, kmax)


def _project(d: LineGraphDecomposition, transition,
             kmax: int) -> list[sp.csr_array]:
    """``L^T Z^1/2 (T^k (Z^1/2 R))`` for k = 0..kmax, with T the transition:
    one pass, one product with T per length, in the container of ``d.V``
    (``linalg.matmul``)."""
    if kmax < 0:
        raise ValidationError(f"kmax must be nonnegative, got {kmax}")
    # zero steps collapse the two half-weight brackets into one full weight:
    # the factorization L^T Z R is the adjacency itself
    a = _adjacency(d.graph)
    out = [type(d.V)((a.data.copy(), a.indices.copy(), a.indptr.copy()), shape=a.shape)]
    out_half, acc = _half_incidences(d)
    for _ in range(kmax):
        acc = matmul(transition, acc)
        out.append(matmul(out_half, acc))
    return out


def _half_incidences(d: LineGraphDecomposition) -> tuple:
    """The half-weight incidences ``(L^T Z^1/2, Z^1/2 R)`` in the container
    of ``d.V``: the n x m matrix with ``sqrt(w_e)`` at (src e, e) and the
    m x n one with ``sqrt(w_e)`` at (e, dst e).  The canonical edges, sorted
    by source, are the first one's CSR order.  Their product is the
    adjacency up to the rounding of ``sqrt(w)**2``."""
    g, csr = d.graph, type(d.V)
    edges = np.arange(g.m + 1)
    return (csr((d.sqrt_weights, edges[:-1], _indptr(g.src, g.n)), shape=(g.n, g.m)),
            csr((d.sqrt_weights, g.dst, edges), shape=(g.m, g.n)))


def apply_shifted_series(
    series: CoefficientSeries,
    matrix,
    t: float,
    vector,
    tol: float = 1e-10,
    *,
    rho: float,
) -> np.ndarray:
    """Apply the shifted series sum_k c_{k+1} (t M)^k to a vector.

    For the resolvent the shift is the identity operation, so the result
    solves (I - tM) y = w.  For the exponential, ((e^x - 1) / x) is evaluated
    by a truncated Taylor sum whose order is fixed a priori from the scalar
    tail bound at t times a 10%-inflated radius estimate.  Custom series are
    summed up to their last coefficient.  A sum that passes the float64
    range is an error.  ``rho`` is the spectral radius of ``matrix``, which
    gates ``t``.
    """
    m = _canonical(matrix)
    w = np.asarray(vector, dtype=np.float64)
    n = m.shape[0]
    if m.shape[0] != m.shape[1] or w.shape != (n,):
        raise ValidationError("matrix must be square and match the vector length")
    check_t(t, range_end(rho, series.radius), " for the series to converge")

    if series.kind == "resolvent":
        # The resolvent is a fixed point of the shift, so this is one solve.
        return solve_linear(identity_minus(t, m), w, tol)

    if series.kind == "exponential":
        a = t * rho * 1.1
        order = _exponential_order(a, tol)
        out = np.array(w)
        v = np.array(w)
        # v is the term t^k M^k w / (k+1)!, which stays in range with the sum
        with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite_sum
            for k in range(1, order + 1):
                v = (t / (k + 1)) * (m @ v)
                out += v
        return _finite_sum(out, series, t)

    if series.kind == "custom":
        coeffs = series.coefficients
        out = np.zeros(n)
        v = np.array(w)
        with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite_sum
            for k in range(coeffs.size - 1):
                out += coeffs[k + 1] * v
                if k + 2 < coeffs.size:
                    v = t * (m @ v)
        return _finite_sum(out, series, t)

    raise ValidationError(f"unknown series kind {series.kind!r}")


def _finite_sum(out: np.ndarray, series: CoefficientSeries, t: float) -> np.ndarray:
    """``out``, when every entry is finite; otherwise a term of the series
    passed the float64 range, and :class:`NumericalError` says so."""
    if not np.isfinite(out).all():
        raise NumericalError(f"the {series.kind} series at t = {t:g} exceeds the float64 range")
    return out


def _exponential_order(a: float, tol: float) -> int:
    """Smallest K with sum_{k>K} a^k / (k+1)! certified below tol.  The term
    is carried as ``term * 2**scale``, scale 0 up to 2**512 and a multiple of
    512 above, so it stays in range; power-of-two scaling is exact."""
    if a == 0.0:
        return 0
    term, scale = 1.0, 0  # a^k / (k+1)! at k = 0
    for k in range(_MAX_SERIES_TERMS):
        nxt = term * a / (k + 2)
        q = a / (k + 3)
        if q < 1.0 and nxt / (1.0 - q) <= math.ldexp(tol, -scale):
            return k
        step = 512 if nxt > 2.0**512 else -512 if scale and nxt < 1.0 else 0
        term, scale = math.ldexp(nxt, -step), scale + step
    raise NumericalError(f"series truncation bound unattainable at tolerance {tol}")


@dataclass
class CentralityPlan:
    """A fully determined edge-level centrality computation.

    Binds a line-graph decomposition, a coefficient series, an attenuation
    factor and ``rho_v``, the spectral radius of the pruned transition
    matrix V.  Construction fails when ``t`` lies outside the series'
    permitted range.
    """

    decomposition: LineGraphDecomposition
    series: CoefficientSeries
    t: float
    _: KW_ONLY
    rho_v: float

    def __post_init__(self):
        check_t(self.t, range_end(self.rho_v, self.series.radius), " for this series")


def f_centrality(plan: CentralityPlan, tol: float = 1e-10) -> np.ndarray:
    """Series-weighted nonbacktracking centrality via the line graph.

    Computes c_0 * 1 plus t times the projection of the shifted series of
    the pruned transition matrix applied to the weighted target indicator;
    the whole pipeline touches only matrix-vector products and solves.
    """
    d = plan.decomposition
    # the weighted target indicator Z^1/2 R 1 is sqrt_weights exactly
    y = apply_shifted_series(plan.series, d.V, plan.t, d.sqrt_weights, tol, rho=plan.rho_v)
    return (plan.series.c0 * np.ones(d.n)
            + plan.t * project_to_nodes(d.graph.src, d.sqrt_weights, y, d.n))


def project_to_nodes(src: np.ndarray, sqrt_weights: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """The projection ``L^T Z^1/2 y`` of an edge vector to the n nodes: node i
    sums ``sqrt_weights * y`` over the edges e with ``src[e] == i`` in edge
    order, as the sparse product does, so the two agree bit for bit."""
    return np.bincount(src, weights=sqrt_weights * y, minlength=n)


def generating_matrix_via_line_graph(
    decomposition: LineGraphDecomposition,
    t: float,
    *,
    rho_v: float,
) -> np.ndarray:
    """Dense walk generating function reconstructed through the line graph.

    Solves the edge-level resolvent system against all n weighted target
    columns in one dense solve and projects back; agrees with the
    node-level route inside the convergence radius [0, 1 / ``rho_v``),
    ``rho_v`` being the spectral radius of V.  Meant for oracle-sized
    graphs: at most ``DENSE_SOLVE_MAX`` edges.
    """
    d = decomposition
    n = d.n
    if d.m > DENSE_SOLVE_MAX:
        raise ValidationError(
            f"dense generating matrix via the line graph limited to {DENSE_SOLVE_MAX} edges, "
            f"got {d.m}"
        )
    check_t(t, range_end(rho_v))
    if d.m == 0 or t == 0.0:
        return np.eye(n)

    out_half, in_half = _half_incidences(d)
    y = _dense_solve(identity_minus(t, _canonical(d.V)).toarray(), in_half.toarray(),
                     "edge-level resolvent")
    return np.eye(n) + t * (out_half @ y)
