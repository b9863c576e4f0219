"""Single-relational analysis algorithms applied to path matrices.

A path matrix is treated as a weighted directed network. Geodesic metrics
use hop counts over the {0,1} support (the first power of the support with
a positive (i, j) entry gives the shortest path length, which breadth-first
traversal computes directly). Rank and diffusion algorithms row-normalize
by weighted out-sums. Mixing coefficients treat each nonzero entry as one
path carrying its aggregated weight, so all weights enter as fractions and
the results are invariant under uniform rescaling of the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import AnalysisError
from .kernels import DENSIFY_LIMIT, PathMatrix, clip

_TINY = 1e-300


@dataclass(frozen=True)
class GeodesicResult:
    """All-pairs hop counts plus the derived geodesic metrics.

    distances[i, j] is inf when j is unreachable from i; eccentricity and
    closeness are NaN for vertices that reach nothing else. Closeness is the
    mean shortest path over reached vertices, with the reach count alongside.
    """

    distances: np.ndarray
    eccentricity: np.ndarray
    radius: float | None
    diameter: float | None
    closeness: np.ndarray
    reach_counts: np.ndarray


@dataclass(frozen=True)
class PageRankConfig:
    delta: float = 0.85
    epsilon: float = 1e-10
    max_iters: int = 1000

    def __post_init__(self):
        if not (0.0 < self.delta <= 1.0):
            raise AnalysisError(f"delta must be in (0, 1], got {self.delta}")
        if self.epsilon <= 0:
            raise AnalysisError(f"epsilon must be positive, got {self.epsilon}")
        if self.max_iters < 1:
            raise AnalysisError("max_iters must be at least 1")


def _refuse_dense(n: int, what: str):
    """Raise before an n x n float64 array is allocated past DENSIFY_LIMIT."""
    if n * n > DENSIFY_LIMIT:
        raise AnalysisError(
            f"{what} of an order-{n} matrix needs a dense {n}x{n} float64 array "
            f"({n * n * 8} bytes); refusing above {DENSIFY_LIMIT} entries"
        )


def shortest_paths(z: PathMatrix) -> GeodesicResult:
    """BFS hop distances over the support of z, plus eccentricity, radius,
    diameter, and closeness."""
    n = z.n
    _refuse_dense(n, "all-pairs shortest paths")
    pattern = clip(z).explicit()
    # unit weights over the pattern's arrays; `astype` would sort a copy
    support = sp.csr_array(
        (np.ones(pattern.nnz), pattern.indices, pattern.indptr), shape=pattern.shape
    )
    dist = csgraph.shortest_path(support, method="D", unweighted=True, directed=True)
    np.fill_diagonal(dist, 0.0)
    # the reached vertices: finite and off the diagonal; the row reductions
    # read dist through this mask rather than a masked copy of it
    finite = np.isfinite(dist)
    np.fill_diagonal(finite, False)
    reach = finite.sum(axis=1)
    reached = reach > 0
    ecc = np.where(reached, np.max(dist, axis=1, where=finite, initial=0.0), np.nan)
    total = np.sum(dist, axis=1, where=finite)
    close = np.divide(total, reach, out=np.full(n, np.nan), where=reached)
    finite_ecc = ecc[reached]
    radius = float(finite_ecc.min()) if finite_ecc.size else None
    diameter = float(finite_ecc.max()) if finite_ecc.size else None
    return GeodesicResult(
        distances=dist,
        eccentricity=ecc,
        radius=radius,
        diameter=diameter,
        closeness=close,
        reach_counts=reach.astype(np.int64),
    )


def _row_normalized(z: PathMatrix):
    """Row-stochastic rescaling of z; returns (matrix, dangling row mask).

    The matrix is a float64 CSR over z's own index arrays, in z's order:
    each row's data divided by the row's weighted out-sum. It is only ever
    read, so sharing the arrays is safe."""
    w = z.explicit()
    data = w.data.astype(np.float64, copy=False)
    counts = np.diff(w.indptr)
    nonempty = np.flatnonzero(counts)
    out = np.zeros(z.n)
    out[nonempty] = np.add.reduceat(data, w.indptr[nonempty])
    dangling = out <= 0
    inv = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, out))
    normalized = sp.csr_array((data * np.repeat(inv, counts), w.indices, w.indptr), shape=w.shape)
    return normalized, dangling


def pagerank_matrix(z: PathMatrix, delta: float) -> np.ndarray:
    """Densely materialized merged matrix: delta past the out-weight
    normalized support, (1 - delta) teleportation, dangling rows uniform."""
    n = z.n
    _refuse_dense(n, "the merged PageRank matrix")
    normalized, dangling = _row_normalized(z)
    p1 = normalized.toarray()
    p1[dangling] = 1.0 / n
    return delta * p1 + (1.0 - delta) / n


def pagerank(z: PathMatrix, cfg: PageRankConfig = PageRankConfig()) -> np.ndarray:
    """Stationary energy vector of the merged, weighted walk matrix.

    Iterates pi <- pi Z until the L2 step difference drops below epsilon;
    the result sums to one. Raises after max_iters with the final residual.
    """
    n = z.n
    if n < 1:
        raise AnalysisError("empty matrix")
    normalized, dangling = _row_normalized(z)
    pi = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(cfg.max_iters):
        spread_mass = cfg.delta * float(pi[dangling].sum())
        nxt = cfg.delta * (pi @ normalized) + (spread_mass + (1.0 - cfg.delta)) / n
        nxt /= nxt.sum()
        residual = float(np.linalg.norm(nxt - pi))
        pi = nxt
        if residual < cfg.epsilon:
            return pi
    raise AnalysisError(
        f"pagerank did not converge within {cfg.max_iters} iterations "
        f"(residual {residual:.3e} >= epsilon {cfg.epsilon:.3e})"
    )


def spreading_activation(
    z: PathMatrix,
    seed: np.ndarray,
    steps: int,
    decay: float = 1.0,
    threshold: float = 0.0,
) -> np.ndarray:
    """Finite-step energy propagation with decay and hard thresholding.

    Each step sends the current energy along out-weight-normalized edges,
    scales it by `decay`, zeroes entries below `threshold`, and accumulates.
    Returns the total flow through each vertex including the seed.
    """
    if steps < 0:
        raise AnalysisError("steps must be nonnegative")
    if not (0.0 <= decay <= 1.0):
        raise AnalysisError(f"decay must be in [0, 1], got {decay}")
    if threshold < 0:
        raise AnalysisError("threshold must be nonnegative")
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != (z.n,):
        raise AnalysisError(f"seed must have length {z.n}")
    if (seed < 0).any() or not np.isfinite(seed).all():
        raise AnalysisError("seed energies must be finite and nonnegative")
    normalized, _ = _row_normalized(z)
    pi = seed.copy()
    acc = seed.copy()
    for _ in range(steps):
        pi = decay * (pi @ normalized)
        pi[pi < threshold] = 0.0
        acc += pi
    return acc


def _entries(z: PathMatrix):
    """The explicit CSR of z; raises when z has no entries."""
    mat = z.explicit()
    if mat.nnz == 0:
        raise AnalysisError("empty path matrix")
    return mat


def _property_values(values, n):
    vals = np.asarray(values)
    if vals.shape != (n,):
        raise AnalysisError(f"property must supply one value per vertex ({n})")
    return vals


def assortativity_scalar(z: PathMatrix, values) -> float:
    """Weighted correlation of tail and head property values over all paths.

    Each nonzero entry is one path whose weight is its fraction of the total
    path weight; on a unit-weight boolean matrix this reduces to the
    ordinary edge-list correlation.
    """
    coo = _entries(z).tocoo()
    weights = coo.data.astype(np.float64)
    vals = _property_values(values, z.n).astype(np.float64)
    jv = vals[coo.row]
    kv = vals[coo.col]
    if not np.isfinite(jv).all() or not np.isfinite(kv).all():
        raise AnalysisError("scalar property missing (non-finite) on a path endpoint")
    total = weights.sum()
    mj = (weights * jv).sum() / total
    mk = (weights * kv).sum() / total
    cov_jk = (weights * (jv - mj) * (kv - mk)).sum() / total
    cov_jj = (weights * (jv - mj) ** 2).sum() / total
    cov_kk = (weights * (kv - mk) ** 2).sum() / total
    if cov_jj <= _TINY or cov_kk <= _TINY:
        raise AnalysisError("degenerate property: zero variance on tails or heads")
    return float(cov_jk / np.sqrt(cov_jj * cov_kk))


def assortativity_categorical(z: PathMatrix, labels) -> float:
    """Categorical mixing coefficient over path-weight fractions.

    e_ab is the weight fraction of paths from category a to category b, and
    i_a, j_a are the tail- and head-side fractions (the row and column sums
    of e): r = (sum_a e_aa - sum_a i_a j_a) / (1 - sum_a i_a j_a) (Newman
    2003), and r = 1 iff all weight stays within categories. Labels are
    categories under Python equality; None marks a vertex without one, which
    may not end a path."""
    mat = _entries(z)
    labels = list(labels)
    n = z.n
    if len(labels) != n:
        raise AnalysisError(f"property must supply one value per vertex ({n})")
    category: dict = {}
    codes = np.fromiter((category.setdefault(a, len(category)) for a in labels), np.int64, n)
    missing = np.fromiter((a is None for a in labels), bool, n)
    out_degree = np.diff(mat.indptr)
    if missing[out_degree > 0].any() or missing[mat.indices].any():
        raise AnalysisError("categorical property missing on a path endpoint")
    # Per-category sums rather than the k x k matrix e, which would be
    # quadratic in the number of distinct labels.
    tail = np.repeat(codes, out_degree)
    head = codes[mat.indices]
    tail_weight = np.bincount(tail, weights=mat.data, minlength=len(category))
    total = tail_weight.sum()
    head_weight = np.bincount(head, weights=mat.data, minlength=len(category))
    s = float((tail_weight / total) @ (head_weight / total))
    if 1.0 - s <= 1e-12:
        raise AnalysisError("degenerate: one category")
    inside = float(mat.data[tail == head].sum(dtype=np.float64)) / total
    return float((inside - s) / (1.0 - s))
