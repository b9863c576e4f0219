"""Single-relational analysis algorithms applied to path matrices.

A path matrix is treated as a weighted directed network. Geodesic metrics
use hop counts over the {0,1} support (the first power of the support with
a positive (i, j) entry gives the shortest path length, which breadth-first
traversal computes directly). Only a vertex that starts or ends an entry
lies on a path, so the traversal runs over the support induced on those
vertices, from a block of sources at a time; each block's metrics are
reduced, and its reached pairs written into the sparse hop counts, before
the next block is searched. Memory is one block plus the reached pairs,
which are refused past DENSIFY_LIMIT; the dense distance matrix is built
only when asked for. Rank and diffusion algorithms row-normalize
by weighted out-sums. Mixing coefficients treat each nonzero entry as one
path carrying its aggregated weight, so all weights enter as fractions and
the results are invariant under uniform rescaling of the matrix.

PageRank, spreading activation and both mixing coefficients read a matrix
only through its prepared operand (``PathMatrix.operand()``, see
``kernels``), built once per matrix and shared by every analysis of it: its
float64 row and column sums and total, ``vecmat`` (y'W) and ``matvec`` (Wx),
its same-category weight, and the exact masks of empty rows and of vertices
on a path. A walk step scales the vector, (pi o inv) W with inv the inverse
out-weights, rather than a row-normalized copy of the weights. The mixing
coefficients are summed per vertex, from its out- and in-weight, plus one
``matvec`` for the scalar coefficient and the same-category weight for the
categorical one. On a factored product root Z = X . Y (less a masked
diagonal d) every one of these comes from the factors, each read as held
(a transposed factor as a CSC view of its operand's arrays): y'Z = (y'X)Y -
y o d, Zx = X(Yx) - d o x, the sums in exact integers, and the
same-category weight tr(C'XYC) - sum(d) over the category indicator matrix
C, from counts keyed by inner vertex and category; the product itself is
never built. A Gram root Z = G G' (coauthorship A . A', co-citation
A' . A, one factor the transpose view of the other) is read from G alone:
d is the row sums of G's squared entries, the column sums are the row
sums, and the same-category weight is the sum of the squares of one count
of G's entries.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import AnalysisError
from .kernels import _BAND_CELLS, DENSIFY_LIMIT, PathMatrix, clip

_TINY = 1e-300


@dataclass(frozen=True)
class GeodesicResult:
    """The hop counts of the reached pairs plus the derived geodesic metrics.

    hops is an n x n CSR holding, for each vertex i and each vertex j != i
    that i reaches, the hop count of a shortest path from i to j, with each
    row's columns sorted; unreached pairs and the diagonal are absent.
    ``distances`` builds the dense matrix from it on demand: inf where j is
    unreachable from i, 0 on the diagonal, refused past DENSIFY_LIMIT cells.
    eccentricity and closeness are NaN for vertices that reach nothing else.
    Closeness is the mean shortest path over reached vertices, with the
    reach count alongside.
    """

    hops: sp.csr_array
    eccentricity: np.ndarray
    radius: float | None
    diameter: float | None
    closeness: np.ndarray
    reach_counts: np.ndarray

    @property
    def distances(self) -> np.ndarray:
        """The dense n x n hop counts, built on each read."""
        hops = self.hops
        n = hops.shape[0]
        _refuse_dense(n, "all-pairs shortest paths")
        dist = np.full((n, n), np.inf)
        np.fill_diagonal(dist, 0.0)
        rows = np.repeat(np.arange(n), np.diff(hops.indptr))
        dist[rows, hops.indices] = hops.data
        return dist


@dataclass(frozen=True)
class PageRankConfig:
    delta: float = 0.85
    epsilon: float = 1e-10
    max_iters: int = 1000

    def __post_init__(self):
        if not (0.0 < self.delta <= 1.0):
            raise AnalysisError(f"delta must be in (0, 1], got {self.delta}")
        if not self.epsilon > 0:  # NaN too
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


def _refuse_pairs(n: int, count: int):
    """Raise when the reached pairs to store pass DENSIFY_LIMIT."""
    if count > DENSIFY_LIMIT:
        raise AnalysisError(
            f"all-pairs shortest paths of an order-{n} matrix reach at least {count} "
            f"pairs; refusing to store more than {DENSIFY_LIMIT}"
        )


def _search_block(support, block, hop_dtype):
    """BFS over `support` from its vertices `block`: each source's reach
    count, eccentricity and hop total over the vertices it reaches, the
    mask of those cells, and every cell's hop count in `hop_dtype` (0 where
    none is reached). The float64 distances are dropped on return."""
    from scipy.sparse import csgraph

    dist = csgraph.shortest_path(
        support, method="D", unweighted=True, directed=True, indices=block
    )
    dist[np.arange(block.size), block] = np.inf  # a source does not reach itself
    # the reductions read dist through the mask of reached vertices
    finite = np.isfinite(dist)
    got = finite.sum(axis=1)
    far = np.max(dist, axis=1, where=finite, initial=0.0)
    total = np.sum(dist, axis=1, where=finite)
    hops = np.zeros(dist.shape, dtype=hop_dtype)
    np.copyto(hops, dist, casting="unsafe", where=finite)
    return got, far, total, finite, hops


def shortest_paths(z: PathMatrix) -> GeodesicResult:
    """BFS hop counts over the support of z, plus eccentricity, radius,
    diameter, and closeness.

    Only a vertex that starts or ends an entry lies on a path, so the search
    runs over the support induced on those, from a block of sources that
    start an entry at a time (about _BAND_CELLS distances per block). Each
    block's metrics are taken, and its reached pairs written behind the
    earlier blocks' before the next, so the pairs are never joined from
    parts. The arrays grow geometrically, at most to what the sources left
    could still reach, and are trimmed to the pairs once at the end, so the
    pairs are copied O(1) times each. The stored pairs are refused past
    DENSIFY_LIMIT: first by the O(m) lower bound that a source reaches the
    rest of its strongly connected component, then by the exact count,
    block by block.

    `scipy.sparse.csgraph` is imported here and in `_search_block`, not with
    the module: it loads scipy's sparse and dense linear algebra (about
    0.14 s and 11 MB), which no other analysis needs."""
    from scipy.sparse import csgraph

    n = z.n
    pattern = clip(z).explicit()
    starts = np.diff(pattern.indptr) > 0
    keep = np.flatnonzero(starts | (np.bincount(pattern.indices, minlength=n) > 0))
    k = keep.size
    idx_dtype = np.int32 if max(n, DENSIFY_LIMIT) < 2**31 else np.int64
    local = np.zeros(n, dtype=idx_dtype)
    local[keep] = np.arange(k)
    # every row off the kept vertices is empty, so row r of the induced
    # support spans indptr[keep[r]] to indptr[keep[r + 1]]
    bounds = pattern.indptr[np.append(keep, n)]
    support = sp.csr_array(
        (np.ones(pattern.nnz), local[pattern.indices], bounds), shape=(k, k)
    )
    sources = np.flatnonzero(starts[keep])
    _, component = csgraph.connected_components(support, directed=True, connection="strong")
    size = np.bincount(component)
    _refuse_pairs(n, int((size[component[sources]] - 1).sum()))

    ecc = np.full(n, np.nan)
    close = np.full(n, np.nan)
    reach = np.zeros(n, dtype=np.int64)
    heads = keep.astype(idx_dtype)
    # a hop count is below k; the arrays grow by realloc, which may move an
    # array and so hold both copies for a moment
    data = np.empty(0, dtype=np.min_scalar_type(k))
    cols = np.empty(0, dtype=idx_dtype)
    count = 0
    band = max(1, _BAND_CELLS // max(k, 1))
    for lo in range(0, sources.size, band):
        block = sources[lo : lo + band]
        got, far, total, finite, hops = _search_block(support, block, data.dtype)
        start, count = count, count + int(got.sum())
        _refuse_pairs(n, count)
        if count > data.size:
            # each source left reaches at most the k - 1 others
            most = count + (sources.size - lo - block.size) * (k - 1)
            size = min(max(count, 2 * data.size), most, DENSIFY_LIMIT)
            data.resize(size, refcheck=False)
            cols.resize(size, refcheck=False)
        rows = keep[block]
        reach[rows] = got
        reached = got > 0
        ecc[rows] = np.where(reached, far, np.nan)
        close[rows] = np.divide(total, got, out=np.full(block.size, np.nan), where=reached)
        data[start:count] = hops[finite]
        del hops
        cols[start:count] = np.broadcast_to(heads, finite.shape)[finite]
        del finite
    data.resize(count, refcheck=False)
    cols.resize(count, refcheck=False)
    indptr = np.zeros(n + 1, dtype=idx_dtype)
    np.cumsum(reach, out=indptr[1:])
    hops = sp.csr_array((data, cols, indptr), shape=(n, n))
    finite_ecc = ecc[reach > 0]
    return GeodesicResult(
        hops=hops,
        eccentricity=ecc,
        radius=float(finite_ecc.min()) if finite_ecc.size else None,
        diameter=float(finite_ecc.max()) if finite_ecc.size else None,
        closeness=close,
        reach_counts=reach,
    )


def _inverse_out(op) -> np.ndarray:
    """Each row's inverse out-weight; 0 on a dangling row."""
    return np.divide(1.0, op.row_sums, out=np.zeros(op.row_sums.size), where=~op.dangling)


def pagerank_matrix(z: PathMatrix, delta: float) -> np.ndarray:
    """Densely materialized merged matrix: delta past the out-weight
    normalized support, (1 - delta) teleportation, dangling rows uniform."""
    n = z.n
    _refuse_dense(n, "the merged PageRank matrix")
    op = z.operand()
    p1 = z.to_dense() * _inverse_out(op)[:, None]
    p1[op.dangling] = 1.0 / n
    return delta * p1 + (1.0 - delta) / n


def pagerank(z: PathMatrix, cfg: PageRankConfig = PageRankConfig()) -> np.ndarray:
    """Stationary energy vector of the merged, weighted walk matrix.

    Iterates pi <- pi Z until the L2 step difference drops below epsilon;
    the result sums to one. Raises after max_iters with the final residual.
    """
    n = z.n
    if n < 1:
        raise AnalysisError("empty matrix")
    op = z.operand()
    inv = _inverse_out(op)
    pi = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(cfg.max_iters):
        spread_mass = cfg.delta * float(pi[op.dangling].sum())
        nxt = cfg.delta * op.vecmat(pi * inv) + (spread_mass + (1.0 - cfg.delta)) / n
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
    if not threshold >= 0:  # NaN too
        raise AnalysisError(f"threshold must be nonnegative, got {threshold}")
    seed = np.asarray(seed, dtype=np.float64)
    if seed.shape != (z.n,):
        raise AnalysisError(f"seed must have length {z.n}")
    if (seed < 0).any() or not np.isfinite(seed).all():
        raise AnalysisError("seed energies must be finite and nonnegative")
    op = z.operand()
    inv = _inverse_out(op)
    pi = seed.copy()
    acc = seed.copy()
    for _ in range(steps):
        pi = decay * op.vecmat(pi * inv)
        pi[pi < threshold] = 0.0
        acc += pi
    return acc


def _nonempty_operand(z: PathMatrix):
    """z's prepared operand; raises when z has no entries."""
    op = z.operand()
    if op.dangling.all():
        raise AnalysisError("empty path matrix")
    return op


def assortativity_scalar(z: PathMatrix, values) -> float:
    """Weighted correlation of tail and head property values over all paths.

    Each nonzero entry is one path whose weight is its fraction of the total
    path weight; on a unit-weight boolean matrix this reduces to the
    ordinary edge-list correlation. Values must be numbers; a vertex that
    starts or ends no path may hold NaN. The sums over paths are taken per
    vertex: with out-weights r and in-weights c (the row and column sums of
    W) and total T, the means are r.v/T and c.v/T, the variances are
    r.(v - mj)^2/T and c.(v - mk)^2/T, and the covariance is the one
    product (v - mj).W(v - mk)/T, so each entry of W is read once.
    """
    op = _nonempty_operand(z)
    n = z.n
    try:
        vals = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError) as err:
        raise AnalysisError(f"scalar property values must be numbers: {err}") from None
    if vals.shape != (n,):
        raise AnalysisError(f"property must supply one value per vertex ({n})")
    if not np.isfinite(vals[op.on_path]).all():
        raise AnalysisError("scalar property missing (non-finite) on a path endpoint")
    # 0 * NaN is NaN: values off every path must not reach the products
    vals = np.where(op.on_path, vals, 0.0)
    # numpy's pairwise sums, not BLAS dots: on a 5M-entry matrix a dot
    # left r 21 ulps from an 80-bit sum, these at most 5
    rows, cols, total = op.row_sums, op.col_sums, op.total
    mj = (rows * vals).sum() / total
    mk = (cols * vals).sum() / total
    dj = vals - mj
    dk = vals - mk
    cov_jj = (rows * dj * dj).sum() / total
    cov_kk = (cols * dk * dk).sum() / total
    cov_jk = (dj * op.matvec(dk)).sum() / total
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
    may not end a path. i and j are summed from each vertex's out- and
    in-weight, and sum_a e_aa is the operand's same-category weight."""
    op = _nonempty_operand(z)
    labels = list(labels)
    n = z.n
    if len(labels) != n:
        raise AnalysisError(f"property must supply one value per vertex ({n})")
    # one pass: each label's code, a new label taking the next one. A label
    # that is None holds None's code, which it shares with any label equal
    # to None; only the path endpoints holding that code are tested by
    # identity.
    category = defaultdict(itertools.count().__next__)
    codes = np.fromiter(map(category.__getitem__, labels), np.int64, n)
    none = category.get(None)
    if none is not None:
        if any(labels[v] is None for v in np.flatnonzero(op.on_path & (codes == none))):
            raise AnalysisError("categorical property missing on a path endpoint")
    # Per-category sums rather than the k x k matrix e, which would be
    # quadratic in the number of distinct labels.
    k = len(category)
    tail_weight = np.bincount(codes, weights=op.row_sums, minlength=k)
    head_weight = np.bincount(codes, weights=op.col_sums, minlength=k)
    total = op.total
    s = float((tail_weight / total) @ (head_weight / total))
    if 1.0 - s <= 1e-12:
        raise AnalysisError("degenerate: one category")
    inside = op.same_category_weight(codes, k) / total
    return float((inside - s) / (1.0 - s))
