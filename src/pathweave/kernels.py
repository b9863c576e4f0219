"""Path matrices, filter matrices, and the eight primitive operations.

A path matrix is a nonnegative real n x n matrix whose (i, j) entry counts
(or weights) composed paths from i to j. Two representations are used:

* ``Sparse``: entries stored directly in CSR form; zeros are absence.
* ``BoolComplement``: the {0,1} matrix equal to all-ones minus a sparse
  boolean pattern. Produced by ``not_`` and the all-ones filter so that
  compositions which mask with complements (the common case) never touch
  n^2 memory.

Integer pipelines stay exact in int64 until a scale or merge introduces
reals; float results drop entries below 1e-12 so that ``clip`` never flips
on rounding noise.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import EvalError
from .expr import FILTER_KINDS

ZERO_EPS = 1e-12

# Refuse any single expansion beyond this many stored entries (~1.2 GB CSR).
DENSIFY_LIMIT = 60_000_000

_INT_SAFE_BOUND = float(2**62)

# Cells per band of rows when a complement is materialized.
_BAND_CELLS = 1 << 20


def _canon(mat, prune: bool = True):
    """Canonical CSR: summed duplicates, sorted indices, no stored zeros."""
    mat = sp.csr_array(mat)
    mat.sum_duplicates()
    if prune and mat.dtype.kind == "f":
        data = mat.data
        data[np.abs(data) < ZERO_EPS] = 0.0
    mat.eliminate_zeros()
    mat.sort_indices()
    return mat


def _check_entries(mat):
    if mat.data.size:
        if mat.dtype.kind == "f" and not np.all(np.isfinite(mat.data)):
            raise EvalError("path matrix entries must be finite")
        if mat.data.min() < 0:
            raise EvalError("path matrix entries must be nonnegative")


class PathMatrix:
    """An n x n nonnegative path-weight matrix with a dual representation.

    ``complement=False``: ``mat`` holds the entries themselves.
    ``complement=True``: the denoted value is all-ones minus ``mat``'s
    pattern; ``mat`` then stores exactly the positions holding zero, with
    data forced to int64 ones. Complements are only ever {0,1}-valued.
    """

    __slots__ = ("n", "mat", "complement")

    def __init__(self, mat, complement: bool = False):
        mat = _canon(mat)
        rows, cols = mat.shape
        if rows != cols:
            raise EvalError(f"path matrix must be square, got {rows}x{cols}")
        if complement:
            pattern = mat.copy()
            pattern.data = np.ones(pattern.nnz, dtype=np.int64)
            mat = pattern
        else:
            _check_entries(mat)
        self.n = rows
        self.mat = mat
        self.complement = complement

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "PathMatrix":
        return cls(sp.csr_array((n, n), dtype=np.int64))

    @classmethod
    def ones(cls, n: int) -> "PathMatrix":
        return cls(sp.csr_array((n, n), dtype=np.int64), complement=True)

    @classmethod
    def identity(cls, n: int) -> "PathMatrix":
        return cls(sp.eye_array(n, dtype=np.int64, format="csr"))

    @classmethod
    def from_pairs(cls, n: int, tails, heads) -> "PathMatrix":
        tails = np.asarray(tails, dtype=np.int64)
        data = np.ones(tails.size, dtype=np.int64)
        return cls(sp.csr_array((data, (tails, np.asarray(heads, dtype=np.int64))), shape=(n, n)))

    @classmethod
    def from_dense(cls, arr, complement: bool = False) -> "PathMatrix":
        arr = np.asarray(arr)
        if complement:
            if not np.isin(arr, (0, 1)).all():
                raise EvalError("complement representation requires a {0,1} matrix")
            return cls(sp.csr_array(1 - arr.astype(np.int64)), complement=True)
        return cls(sp.csr_array(arr))

    # -- inspection --------------------------------------------------------

    @property
    def dtype(self):
        return self.mat.dtype

    def is_boolean(self) -> bool:
        """True when every denoted entry is 0 or 1."""
        if self.complement:
            return True
        return self.mat.nnz == 0 or bool(np.all(self.mat.data == 1))

    def explicit(self):
        """Materialize to a plain CSR of the denoted values (guarded)."""
        if not self.complement:
            return self.mat
        n = self.n
        filled = n * n - self.mat.nnz
        if filled > DENSIFY_LIMIT:
            raise EvalError(
                f"materializing the complement of an order-{n} matrix needs "
                f"{filled} entries; refusing to densify"
            )
        # each row holds the columns missing from the pattern's row; a band
        # of rows at a time, so no n x n array is ever allocated
        pat = self.mat
        idx_dtype = np.int32 if max(n, filled) < 2**31 else np.int64
        indptr = np.zeros(n + 1, dtype=idx_dtype)
        np.cumsum(n - np.diff(pat.indptr), out=indptr[1:])
        indices = np.empty(filled, dtype=idx_dtype)
        band = max(1, _BAND_CELLS // max(n, 1))
        for lo in range(0, n, band):
            hi = min(lo + band, n)
            keep = np.ones((hi - lo, n), dtype=bool)
            rows = np.repeat(np.arange(hi - lo), np.diff(pat.indptr[lo : hi + 1]))
            keep[rows, pat.indices[pat.indptr[lo] : pat.indptr[hi]]] = False
            indices[indptr[lo] : indptr[hi]] = np.nonzero(keep)[1]
        return sp.csr_array((np.ones(filled, dtype=np.int64), indices, indptr), shape=(n, n))

    def to_dense(self) -> np.ndarray:
        if self.n * self.n > DENSIFY_LIMIT:
            raise EvalError(f"order-{self.n} dense materialization refused")
        if self.complement:
            dense = np.ones((self.n, self.n), dtype=np.int64)
            pat = self.mat.tocoo()
            dense[pat.row, pat.col] = 0
            return dense
        return self.mat.toarray()

    def entries(self):
        """(tails, heads, values) of the nonzero denoted entries, as Python
        lists in row-major order (canonical CSR is already sorted that way)."""
        mat = self.explicit()
        tails = np.repeat(np.arange(self.n), np.diff(mat.indptr))
        return tails.tolist(), mat.indices.tolist(), mat.data.tolist()

    def value_nnz(self) -> int:
        """Number of nonzero denoted entries."""
        if self.complement:
            return self.n * self.n - self.mat.nnz
        return self.mat.nnz

    def __repr__(self):
        kind = "complement" if self.complement else "sparse"
        return f"<PathMatrix n={self.n} {kind} nnz={self.value_nnz()} dtype={self.dtype}>"


@dataclass(frozen=True)
class FilterSpec:
    """A vertex-specific or constant {0,1} filter matrix; `kind` is a key of
    FILTER_KINDS and takes that many of the indices `i`, `j`."""

    kind: str
    i: int | None = None
    j: int | None = None

    def __post_init__(self):
        need = FILTER_KINDS.get(self.kind)
        if need is None:
            raise EvalError(f"unknown filter kind {self.kind!r}")
        got = sum(x is not None for x in (self.i, self.j))
        if got != need:
            raise EvalError(f"filter {self.kind!r} takes {need} index(es), got {got}")


def _same_order(a: PathMatrix, b: PathMatrix):
    if a.n != b.n:
        raise EvalError(f"dimension mismatch: {a.n} vs {b.n}")


def _row_sums(a: PathMatrix) -> np.ndarray:
    if a.complement:
        counts = np.diff(a.mat.indptr)
        return (a.n - counts).astype(np.float64)
    return np.asarray(a.mat.sum(axis=1)).ravel().astype(np.float64)


def _full_rows(rows: np.ndarray, n: int, values=None) -> sp.csr_array:
    """CSR with the given rows completely filled (value per row), others empty."""
    k = rows.size
    if k * n > DENSIFY_LIMIT:
        raise EvalError(f"result would fill {k} complete rows of order {n}; refusing")
    indptr = np.zeros(n + 1, dtype=np.int64)
    indptr[rows + 1] = n
    indptr = np.cumsum(indptr)
    indices = np.tile(np.arange(n, dtype=np.int64), k)
    if values is None:
        data = np.ones(k * n, dtype=np.int64)
    else:
        data = np.repeat(values, n)
    return sp.csr_array((data, indices, indptr), shape=(n, n))


def _int_checked(op, x, y, bound):
    """op(x, y) on CSR operands; int64 pipelines detect (rather than wrap on)
    overflow. `bound(x, y)` caps the result's entries in float64, where int64
    sums cannot wrap; only past the safe range is op redone in float64."""
    if x.dtype.kind == "i" and y.dtype.kind == "i" and x.nnz and y.nnz:
        if bound(x, y) * (1.0 + 1e-9) >= _INT_SAFE_BOUND:
            approx = op(x.astype(np.float64), y.astype(np.float64))
            if approx.nnz and float(np.abs(approx.data).max()) >= _INT_SAFE_BOUND:
                raise EvalError("path counts exceed the 64-bit integer range")
    return op(x, y)


def _checked_matmul(x, y):
    """Sparse product: exact in int64 when both operands are, else float64."""
    if x.dtype.kind == "i" and y.dtype.kind == "i":
        rowsum_bound = lambda x, y: float(x.astype(np.float64).sum(axis=1).max()) * y.data.max()
        return _int_checked(operator.matmul, x, y, rowsum_bound)
    return x.astype(np.float64) @ y.astype(np.float64)


# -- the eight operations --------------------------------------------------


def matmul(a: PathMatrix, b: PathMatrix) -> PathMatrix:
    """Ordinary matrix product: entry (i, j) counts composed paths i -> j."""
    _same_order(a, b)
    n = a.n
    if not a.complement and not b.complement:
        return PathMatrix(_checked_matmul(a.mat, b.mat))
    if not a.complement and b.complement:
        # A . (1 - B) = rowsum(A) broadcast - A . B
        sums = np.asarray(a.mat.sum(axis=1)).ravel()
        rows = np.flatnonzero(sums)
        broadcast = _full_rows(rows, n, values=sums[rows])
        prod = _checked_matmul(a.mat, b.mat.astype(a.mat.dtype))
        return PathMatrix(broadcast.astype(prod.dtype) - prod)
    if a.complement and not b.complement:
        sums = np.asarray(b.mat.sum(axis=0)).ravel()
        cols = np.flatnonzero(sums)
        broadcast = _full_rows(cols, n, values=sums[cols]).T.tocsr()
        prod = _checked_matmul(a.mat.astype(b.mat.dtype), b.mat)
        return PathMatrix(sp.csr_array(broadcast) - prod)
    # (1 - A) . (1 - B): inherently dense; go through the guarded expansion.
    da = a.to_dense()
    db = b.to_dense()
    return PathMatrix(sp.csr_array(da @ db))


def transpose(a: PathMatrix) -> PathMatrix:
    return PathMatrix(a.mat.T, complement=a.complement)


def hadamard(a: PathMatrix, b: PathMatrix) -> PathMatrix:
    """Entrywise product; the algebra's filter application."""
    _same_order(a, b)
    if a.complement and b.complement:
        return PathMatrix(a.mat + b.mat, complement=True)
    if a.complement:
        a, b = b, a  # the entrywise product commutes
    if not b.complement:
        bound = lambda x, y: float(x.data.max()) * float(y.data.max())
        return PathMatrix(_int_checked(lambda x, y: x.multiply(y), a.mat, b.mat, bound))
    # A o (1 - B): drop A's entries that fall on B's pattern.
    return PathMatrix(a.mat - a.mat.multiply(b.mat.astype(a.mat.dtype)))


def not_(a: PathMatrix) -> PathMatrix:
    """Boolean complement: swaps 0s and 1s. Defined on {0,1} matrices only."""
    if a.complement:
        return PathMatrix(a.mat.copy())
    if not a.is_boolean():
        raise EvalError("not requires a {0,1} matrix; apply clip first")
    return PathMatrix(a.mat, complement=True)


def clip(a: PathMatrix) -> PathMatrix:
    """Normalize to the {0,1} support: entry 1 wherever the value is > 0."""
    if a.complement:
        return a
    pat = a.mat.copy()
    pat.data = np.ones(pat.nnz, dtype=np.int64)
    return PathMatrix(pat)


def vertex_out(a: PathMatrix, p: int = 0) -> PathMatrix:
    """All-ones rows exactly where the (weighted) row sum exceeds p."""
    _check_threshold(p)
    rows = np.flatnonzero(_row_sums(a) > p)
    return PathMatrix(_full_rows(rows, a.n))


def vertex_in(a: PathMatrix, p: int = 0) -> PathMatrix:
    """All-ones columns exactly where the (weighted) column sum exceeds p:
    the transpose of `vertex_out` on the transpose."""
    return transpose(vertex_out(transpose(a), p))


def _check_threshold(p):
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 0:
        raise EvalError(f"vertex threshold must be a nonnegative integer, got {p!r}")


def scale(a: PathMatrix, lam) -> PathMatrix:
    """Weight every path by a nonnegative scalar."""
    lam = float(lam)
    if not np.isfinite(lam) or lam < 0:
        raise EvalError(f"scale factor must be a finite nonnegative real, got {lam!r}")
    if lam == 1.0:
        return a
    if lam == 0.0:
        return PathMatrix.zeros(a.n)
    base = a.explicit() if a.complement else a.mat
    return PathMatrix(base.astype(np.float64) * lam)


def add(a: PathMatrix, b: PathMatrix) -> PathMatrix:
    """Entrywise sum; merges two path matrices."""
    _same_order(a, b)
    x = a.explicit() if a.complement else a.mat
    y = b.explicit() if b.complement else b.mat
    if x.dtype.kind != y.dtype.kind:
        x = x.astype(np.float64)
        y = y.astype(np.float64)
    bound = lambda x, y: float(x.data.max()) + float(y.data.max())
    return PathMatrix(_int_checked(operator.add, x, y, bound))


def materialize_filter(spec: FilterSpec, n: int) -> PathMatrix:
    """Build the exact {0,1} filter matrix of the given kind and order."""
    for idx in (spec.i, spec.j):
        if idx is not None and not (0 <= idx < n):
            raise EvalError(f"filter index {idx} out of range for order {n}")
    if spec.kind == "row":
        return PathMatrix(_full_rows(np.array([spec.i]), n))
    if spec.kind == "col":
        return PathMatrix(_full_rows(np.array([spec.i]), n).T)
    if spec.kind == "entry":
        return PathMatrix.from_pairs(n, [spec.i], [spec.j])
    if spec.kind == "identity":
        return PathMatrix.identity(n)
    if spec.kind == "ones":
        return PathMatrix.ones(n)
    return PathMatrix.zeros(n)


def export_tsv(pm: PathMatrix, names) -> str:
    """Render `tail<TAB>head<TAB>weight` rows in deterministic row-major order."""
    tails, heads, values = pm.entries()
    if pm.dtype.kind != "i":
        values = [format(float(v), ".12g") for v in values]
    return "".join(f"{names[i]}\t{names[j]}\t{w}\n" for i, j, w in zip(tails, heads, values))
