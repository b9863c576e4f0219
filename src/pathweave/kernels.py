"""Path matrices, filter matrices, and the eight primitive operations.

A path matrix is a nonnegative real n x n matrix whose (i, j) entry counts
(or weights) composed paths from i to j. Three representations are used:

* ``Sparse``: entries stored directly in CSR form; zeros are absence.
* ``BoolComplement``: the {0,1} matrix equal to all-ones minus a sparse
  boolean pattern. Produced by ``not_`` and the all-ones filter so that
  compositions which mask with complements (the common case) never touch
  n^2 memory.
* A deferred transpose (of either of the above): ``transpose`` holds its
  operand's CSR arrays as the CSC view ``a.mat.T`` and copies nothing. The
  first read of ``mat`` converts the view to CSR and keeps the result, so
  every kernel, writer and inspection sees the CSR an eager transpose
  gives. ``dtype``, ``value_nnz``, ``factored_matmul`` and a product's
  operand read the view as ``held``: coauthorship ``A . A'`` never
  converts ``A'``.
* ``Product``: ``X . Y``, optionally under a complement mask whose pattern
  lies on the diagonal (``& not(I)``, ``& not(E(v,v))``), held as its two
  stored int64 factors and the mask. Only an evaluation's root takes it
  (``factored_matmul``, ``factored_mask``), and only while the product's
  total weight is below 2**53. The first read of ``mat`` builds the stored
  product once, through ``matmul`` and ``hadamard``, and keeps it, so every
  kernel, writer and inspection sees the matrix an eager evaluation gives.

The analyses read a matrix through its ``operand()``, built on first use
and kept on the matrix, which is safe because no kernel writes into an
operand or its arrays. A stored matrix's operand holds float64 weights over
its index arrays; a product's operand holds float64 copies of the factors,
each CSR or CSC as held, and the diagonal ``d = rowsum(X o Y')`` of the
masked rows, taken from those rows of X and Y' alone. It answers ``y'Z``
as ``(y'X)Y - y o d`` and ``Zx`` as ``X(Yx) - d o x``, two sparse
matrix-vector products over the factors instead of one over the product.
Its row and column sums are computed in int64 from the factors, and its
same-category weight from counts of the factors' entries keyed by inner
vertex and category (``ProductOperand.same_category_weight``); below 2**53
both are exact, so they equal the stored product's values cast to float64.
A Gram root Z = G G' (``A . A'``, ``A' . A``: one factor the deferred
transpose of the other) is read from G alone: one float64 copy, d from G's
squared entries, one set of sums for rows and columns, and the
same-category weight from one keyed count of G's entries, squared.
Whether a row is empty and whether a vertex starts or ends a path are
integer tests, in both kinds of operand.

Integer pipelines stay exact in int64 until a scale or merge introduces
reals; float results drop entries below 1e-12 so that ``clip`` never flips
on rounding noise.

One overflow rule covers every int64 kernel (``_int_checked``): a float64
bound on the result's entries (from the operands' largest entries, or the
largest row or column sum of the uncomplemented operand in a mixed
product ``A . not(B)`` or ``not(A) . B``). Below 2**62 the kernel runs in
int64. At or above it the kernel is redone in float64, and raises
``EvalError`` only if a result entry reaches 2**62; otherwise the int64
result, exact modulo 2**64, is the true one. Row and column sums come from
``_row_sums`` and ``_col_sums`` alone, in float64, which cannot wrap. Only a
mixed product (for the exact value it broadcasts), a vertex function on
int64 counts (for an exact comparison with its threshold) and the weight
bound of ``factored_matmul`` (which would otherwise cast a whole factor to
float64) sum in int64, since a float64 sum is exact only below 2**53.

The representation contract: a stored CSR holds no duplicate (row, col)
entries and no stored zeros, and its column order within a row is
unspecified. The public constructors sum duplicates (which sorts) in what
they are given. A kernel result is taken as its scipy routine left it: the
sparse product (``csr_matmat``) and the entrywise routines (``csr_binop_csr``
under ``+``, ``-`` and ``multiply``) emit no duplicates and no zeros, in an
unspecified order when an operand is unsorted (Gustavson's product emits a
row's columns in the order it first meets them); the CSC-to-CSR conversion
of a deferred transpose, on the first read of its ``mat``, sorts as it
goes. A deferred transpose shares its operand's arrays, which passed the
checks above, so it holds no duplicates or zeros either; nothing sums,
sorts or writes into them. Order is sorted only where a caller sees
it, in ``PathMatrix.entry_rows`` (a sorted copy of an unsorted CSR; the
matrix is untouched). The kernels avoid the scipy
methods that canonicalise their operand on the way (``astype``, through
``sum_duplicates``): casts go through ``_as_dtype``.

The writers build their text a row at a time from tables made once per
call: one string per vertex name and one per distinct value (``entry_rows``
formats each value found by ``np.unique`` once; the geodesic writer one
per hop count). ``cell_rows`` makes a CSR's cells, the name of each
entry's head followed by its value's text, a chunk of whole rows at a time
(about ``_WRITE_CELLS`` cells), and ``joined_rows`` joins a row's cells
behind the row's lead in one step. ``export_tsv`` and the CLI's ``eval``
and ``geodesic`` writers, in TSV and JSON, all go through both.
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

# Below this total weight every sum of a product's nonnegative integer
# entries is exact in float64.
_EXACT_SUM_BOUND = float(2**53)

# Cells per band of rows when a complement is materialized.
_BAND_CELLS = 1 << 20

# Cells per chunk of rows that a writer builds at once.
_WRITE_CELLS = 1 << 15

# Structural bound on a block of product rows whose entries are counted at
# once when a product's bound on its stored entries passes DENSIFY_LIMIT.
_COUNT_BLOCK = 1 << 22


def _dropped(mat, drop):
    """CSR `mat` without the stored entries at the ascending positions
    `drop`, in new arrays and in `mat`'s order."""
    keep = np.ones(mat.nnz, dtype=bool)
    keep[drop] = False
    indptr = mat.indptr - np.searchsorted(drop, mat.indptr).astype(mat.indptr.dtype)
    return sp.csr_array((mat.data[keep], mat.indices[keep], indptr), shape=mat.shape)


def _as_dtype(mat, dtype):
    """CSR (or CSC) `mat` with its data cast to `dtype`, sharing its index
    arrays; scipy's `astype` would also sum duplicates, sorting a copy of
    them."""
    if mat.dtype == dtype:
        return mat
    return type(mat)((mat.data.astype(dtype), mat.indices, mat.indptr), shape=mat.shape)


def _transposed_view(view, mat) -> bool:
    """Whether CSC `view` reads CSR `mat`'s own arrays, as the deferred
    transpose of `mat` does: then `view` is `mat.T`."""
    if view.format != "csc" or mat.format != "csr" or view.shape != mat.shape[::-1]:
        return False
    return all(
        a.dtype == b.dtype and a.size == b.size and a.ctypes.data == b.ctypes.data
        for a, b in ((view.data, mat.data), (view.indices, mat.indices), (view.indptr, mat.indptr))
    )


def _gram(x, y) -> bool:
    """Whether one of the factors `x`, `y` of X . Y, each a CSR or CSC as
    held, is the CSC view of the other's arrays: then X . Y is G G' with G
    the left factor `x` as held (coauthorship A . A', co-citation A' . A)."""
    return _transposed_view(y, x) or _transposed_view(x, y)


def _coords(mat):
    """The row and the column of each stored entry of CSR or CSC `mat`, in
    stored order."""
    major = np.arange(mat.indptr.size - 1, dtype=mat.indices.dtype)
    major = np.repeat(major, np.diff(mat.indptr))
    return (major, mat.indices) if mat.format == "csr" else (mat.indices, major)


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

    ``mat`` holds no duplicate entries and no stored zeros (float entries
    below ``ZERO_EPS`` count as zeros); the order of the column indices in
    a row is unspecified. ``PathMatrix(mat)`` accepts any square input,
    copies it (so it neither changes nor shares a caller's arrays) and sums
    its duplicates; kernels build their results with ``_result``,
    which trusts the no-duplicates guarantee of the scipy routine that made
    them and sorts nothing. ``entry_rows`` (and so ``export_tsv``) sorts.

    A factored product (``_product``) stores nothing until ``mat`` is first
    read; it is never a complement. A deferred transpose (``transpose``)
    holds a CSC view of its operand's arrays until ``mat`` is first read;
    ``held`` reads it as it stands. ``operand()`` is the analyses' view.
    """

    __slots__ = ("n", "_mat", "complement", "_factors", "_operand")

    def __init__(self, mat, complement: bool = False):
        # summing duplicates sorts in place: never in a caller's arrays
        mat = sp.csr_array(mat, copy=True)
        rows, cols = mat.shape
        if rows != cols:
            raise EvalError(f"path matrix must be square, got {rows}x{cols}")
        mat.sum_duplicates()
        self._adopt(mat, complement)

    @classmethod
    def _result(cls, mat, complement: bool = False) -> "PathMatrix":
        """A kernel's result from a square `mat` without duplicate entries,
        in any order, whose arrays nothing else holds."""
        self = object.__new__(cls)
        self._adopt(mat if type(mat) is sp.csr_array else sp.csr_array(mat), complement)
        return self

    def _adopt(self, mat, complement: bool):
        """Hold CSR `mat`, less its zeros and float noise (into new arrays),
        as entries or, with `complement`, as the pattern of zeros."""
        data = mat.data
        zero = np.abs(data) < ZERO_EPS if data.dtype.kind == "f" else data == 0
        if zero.any():
            mat = _dropped(mat, np.flatnonzero(zero))
        if complement:
            ones = np.ones(mat.nnz, dtype=np.int64)
            mat = sp.csr_array((ones, mat.indices, mat.indptr), shape=mat.shape)
        else:
            _check_entries(mat)
        self._hold(mat.shape[0], mat, complement)

    def _hold(self, n, mat, complement=False, factors=None) -> "PathMatrix":
        """Set every field, with no checks: the one place they are set."""
        self.n = n
        self._mat = mat
        self.complement = complement
        self._factors = factors
        self._operand = None
        return self

    @classmethod
    def _product(cls, x: "PathMatrix", y: "PathMatrix", mask=None) -> "PathMatrix":
        """``x . y``, under the complement `mask` if one is given, held
        factored: stored int64 `x` and `y`, and a mask whose pattern lies
        on the diagonal."""
        return object.__new__(cls)._hold(x.n, None, factors=(x, y, mask))

    @property
    def mat(self):
        """The stored CSR. A factored product builds it, through ``matmul``
        and ``hadamard``, and a deferred transpose converts its CSC view,
        when it is first read."""
        mat = self._mat
        if mat is None:
            x, y, mask = self._factors
            z = matmul(x, y)
            if mask is not None:
                z = hadamard(z, mask)
            mat = self._mat = z.mat
        elif mat.format == "csc":
            mat = self._mat = mat.tocsr()
        return mat

    @property
    def held(self):
        """The matrix as it is held, converting nothing: the stored CSR, or
        a deferred transpose's CSC view. A factored product is built."""
        return self.mat if self._mat is None else self._mat

    def operand(self) -> "StoredOperand | ProductOperand":
        """The analyses' view of this matrix, built on the first call."""
        if self._operand is None:
            if self._factors is not None:
                self._operand = ProductOperand(*self._factors)
            else:
                self._operand = StoredOperand(self.explicit())
        return self._operand

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> "PathMatrix":
        return cls._result(sp.csr_array((n, n), dtype=np.int64))

    @classmethod
    def ones(cls, n: int) -> "PathMatrix":
        return cls._result(sp.csr_array((n, n), dtype=np.int64), complement=True)

    @classmethod
    def identity(cls, n: int) -> "PathMatrix":
        return cls._result(sp.eye_array(n, dtype=np.int64, format="csr"))

    @classmethod
    def _from_sorted_pairs(cls, n: int, tails, heads) -> "PathMatrix":
        """The {0,1} matrix of (tail, head) id pairs that are sorted in
        row-major order without repeats (an `EdgeSlice`'s, or an entry
        filter's one pair): the heads are the column indices as they stand,
        and each row spans its count of tails."""
        idx_dtype = np.int32 if max(n, tails.size) < 2**31 else np.int64
        indptr = np.zeros(n + 1, dtype=idx_dtype)
        np.cumsum(np.bincount(tails, minlength=n), out=indptr[1:])
        data = np.ones(tails.size, dtype=np.int64)
        mat = sp.csr_array((data, heads.astype(idx_dtype), indptr), shape=(n, n))
        mat.has_canonical_format = True
        return cls._result(mat)

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
        return self.held.dtype

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

    def entry_rows(self, leads, heads, text):
        """(lead, cells) for each row in order: `leads[i]`, and for each
        nonzero entry (i, j, v) of the row in column order the cell
        `heads[j] + text(v)`. `heads` is an object array of strings; `text`
        is called once per distinct value, on the Python int or float. An
        unsorted CSR is read through a sorted copy; the matrix is untouched."""
        mat = self.explicit()
        if not mat.has_sorted_indices:
            mat = mat.sorted_indices()
        values, codes = np.unique(mat.data, return_inverse=True)
        texts = np.array([text(v) for v in values.tolist()], dtype=object)
        return cell_rows(leads, heads, mat.indptr, mat.indices, codes, texts)

    def value_nnz(self) -> int:
        """Number of nonzero denoted entries."""
        if self.complement:
            return self.n * self.n - self.held.nnz
        return self.held.nnz

    def __repr__(self):
        if self._mat is None:  # showing a factored product must not build it
            return f"<PathMatrix n={self.n} factored product>"
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


def _row_sums(mat, dtype=np.float64) -> np.ndarray:
    """Each row's sum of CSR `mat`, accumulated in `dtype`: one reduction
    over the non-empty rows' spans of the data. A CSC `mat` takes one
    matrix-vector product."""
    if mat.format == "csc":
        return mat @ np.ones(mat.shape[1], dtype=dtype)
    nonempty = np.flatnonzero(np.diff(mat.indptr))
    out = np.zeros(mat.shape[0], dtype=dtype)
    out[nonempty] = np.add.reduceat(mat.data, mat.indptr[nonempty], dtype=dtype)
    return out


def _col_sums(mat, dtype=np.float64) -> np.ndarray:
    """Each column's sum of CSR or CSC `mat`, accumulated in `dtype`: one
    transposed matrix-vector product."""
    return mat.T @ np.ones(mat.shape[0], dtype=dtype)


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
    overflow. `bound(x, y)` caps the result's entries in float64, where sums
    cannot wrap; only past the safe range is op redone in float64. If no
    entry reaches it there, op's int64 result, exact modulo 2**64, is the
    true one."""
    if x.dtype.kind == "i" and y.dtype.kind == "i":
        if bound(x, y) * (1.0 + 1e-9) >= _INT_SAFE_BOUND:
            approx = op(_as_dtype(x, np.float64), _as_dtype(y, np.float64))
            if approx.nnz and float(np.abs(approx.data).max()) >= _INT_SAFE_BOUND:
                raise EvalError("path counts exceed the 64-bit integer range")
    return op(x, y)


def _ones_like(mat):
    """CSR of `mat`'s pattern with float64 ones, over its index arrays."""
    return sp.csr_array((np.ones(mat.nnz), mat.indices, mat.indptr), shape=mat.shape)


def _refuse_large_product(x, y):
    """Raise EvalError before the product of CSR `x` and `y` stores more than
    DENSIFY_LIMIT entries. The bound sum_k nnz(column k of x) * nnz(row k of
    y) is O(nnz); only past the limit are the entries counted exactly, a
    block of rows at a time, so no block stores more than about
    _COUNT_BLOCK entries."""
    per_inner = np.diff(y.indptr).astype(np.int64)
    bound = int(np.bincount(x.indices, minlength=x.shape[1]) @ per_inner)
    if bound <= DENSIFY_LIMIT:
        return
    # the bound of rows [lo, hi) is reach[hi] - reach[lo]
    reach = np.zeros(x.nnz + 1, dtype=np.int64)
    np.cumsum(per_inner[x.indices], out=reach[1:])
    reach = reach[x.indptr]
    pattern, count, lo, rows = _ones_like(y), 0, 0, x.shape[0]
    while lo < rows:
        hi = max(lo + 1, int(np.searchsorted(reach, reach[lo] + _COUNT_BLOCK, side="right")) - 1)
        count += (_ones_like(x[lo:hi]) @ pattern).nnz
        if count > DENSIFY_LIMIT:
            raise EvalError(
                f"a product of order {rows} would store more than {DENSIFY_LIMIT} entries "
                f"(at least {count}, at most {bound}); refusing"
            )
        lo = hi


def _checked_matmul(x, y):
    """Sparse product: exact in int64 when both operands are, else float64;
    refused past DENSIFY_LIMIT stored entries."""
    _refuse_large_product(x, y)
    if x.dtype.kind == "i" and y.dtype.kind == "i":
        rowsum_bound = lambda x, y: _row_sums(x).max(initial=0) * y.data.max(initial=0)
        return _int_checked(operator.matmul, x, y, rowsum_bound)
    return _as_dtype(x, np.float64) @ _as_dtype(y, np.float64)


# -- analysis operands -----------------------------------------------------


class StoredOperand:
    """The analyses' view of a stored CSR: float64 weights `w` over its index
    arrays (cast once), their row and column sums and total, and the integer
    masks `dangling` (row empty) and `on_path` (starts or ends an entry)."""

    __slots__ = ("w", "row_sums", "col_sums", "total", "dangling", "on_path")

    def __init__(self, mat):
        self.w = w = _as_dtype(mat, np.float64)
        self.row_sums = _row_sums(w)
        self.col_sums = _col_sums(w)
        self.total = float(self.row_sums.sum())
        starts = np.diff(w.indptr) > 0
        self.dangling = ~starts
        self.on_path = starts | (np.bincount(w.indices, minlength=w.shape[1]) > 0)

    def vecmat(self, y):
        """y'W."""
        return y @ self.w

    def matvec(self, x):
        """Wx."""
        return self.w @ x

    def same_category_weight(self, codes, k):
        """The weight of the entries whose row and column share one of `k`
        category codes."""
        w = self.w
        c = codes.astype(np.min_scalar_type(k - 1))
        same = np.repeat(c, np.diff(w.indptr)) == c[w.indices]
        return float(w.data[same].sum())


class ProductOperand:
    """The analyses' view of Z = X . Y less the diagonal of the rows that
    `mask` holds, read from the int64 factors as they are held (so the CSC
    view of a deferred transpose is read as it stands). With d =
    rowsum(X o Y') on the masked rows (0 elsewhere), Z's row and column sums
    are X(Y1) - d and (1'X)Y - d, taken in int64, exact since Z's total
    weight is below 2**53, then cast; so a row is empty, or a vertex off
    every path, exactly where an integer sum is zero. Everything else runs
    over float64 copies of the factors, which hold their integers exactly.

    A Gram root (`_gram`: coauthorship A . A', co-citation A' . A) is
    Z = G G' with G the left factor as held, and each quantity is taken once
    from G: one float64 copy serves both factors, d is the row sums of G's
    squared entries, Z's row sums are G(1'G)' - d and, since Z is
    symmetric, its column sums are the same."""

    __slots__ = ("xf", "yf", "gram", "d", "row_sums", "col_sums", "total", "dangling", "on_path")

    def __init__(self, x: PathMatrix, y: PathMatrix, mask):
        x, y = x.held, y.held
        self.gram = _gram(x, y)
        d = np.zeros(x.shape[0], dtype=np.int64)
        if mask is not None:
            masked = np.flatnonzero(_diagonal_rows(mask.mat))
            d[masked] = _diagonal(x, y, masked, self.gram)
        self.d = d
        self.xf = _as_dtype(x, np.float64)
        if self.gram:
            rows = cols = x @ _col_sums(x, dtype=np.int64) - d
            self.yf = self.xf.T
        else:
            rows = x @ _row_sums(y, dtype=np.int64) - d
            cols = _col_sums(x, dtype=np.int64) @ y - d
            self.yf = _as_dtype(y, np.float64)
        self.row_sums = rows.astype(np.float64)
        self.col_sums = cols.astype(np.float64)
        self.total = float(self.row_sums.sum())
        self.dangling = rows == 0
        self.on_path = (rows != 0) | (cols != 0)

    def vecmat(self, v):
        """v'Z = (v'X)Y - v o d."""
        return (v @ self.xf) @ self.yf - v * self.d

    def matvec(self, v):
        """Zv = X(Yv) - d o v."""
        return self.xf @ (self.yf @ v) - self.d * v

    def same_category_weight(self, codes, k):
        """tr(C'XYC) - sum(d) over the n x k indicator matrix C of the
        category codes: every dropped diagonal entry lies within one
        category. tr(C'XYC) sums, over each inner vertex j and category c,
        P[j, c] Q[j, c], where P[j, c] is the weight of X's entries in
        column j whose row is in c and Q[j, c] that of Y's entries in row j
        whose column is in c (`_category_weights`). On a Gram root Q = P,
        so the trace is the sum of P[j, c]**2, from G's entries alone.
        Every partial sum is an integer below the total weight of X . Y,
        itself below 2**53, so the float64 sums are exact."""
        codes = codes.astype(np.min_scalar_type(k - 1))
        xf, yf = self.xf, self.yf
        dense = xf.shape[1] * k <= 2 * (xf.nnz if self.gram else xf.nnz + yf.nnz)
        p = _category_weights(xf, 1, codes, k, dense)
        q = p if self.gram else _category_weights(yf, 0, codes, k, dense)
        # einsum sums in one pass of its own: OpenBLAS hands a dot of more
        # than 10**4 entries to its threads, and waking them can cost more
        # than the sum
        if dense:
            inside = np.einsum("i,i->", p, q)
        elif self.gram:
            inside = np.einsum("i,i->", p.data, p.data)
        else:
            inside = p.multiply(q).sum()
        return float(int(inside) - int(self.d.sum()))


def _category_weights(mat, inner, codes, k, dense):
    """The weight P[j, c] of the entries of CSR or CSC `mat` whose index on
    axis `inner` is j and whose other index has code c. With `dense`, one
    keyed count (``np.bincount``) over every key j * k + c; else an n x k
    CSR that holds only the keys the entries reach, its duplicates summed
    (a counting sort by j, then a sort of each j's entries), so memory is
    O(nnz + n) at any k and nothing loops in Python."""
    counts = np.diff(mat.indptr)
    if inner == (mat.format == "csc"):  # j is the major axis
        j = np.repeat(np.arange(counts.size, dtype=mat.indices.dtype), counts)
        c = codes[mat.indices]
    else:
        j, c = mat.indices, np.repeat(codes, counts)
    if dense:
        key = j * np.int64(k)
        key += c
        return np.bincount(key, mat.data, minlength=mat.shape[inner] * k)
    return sp.csr_array((mat.data, (j, c)), shape=(mat.shape[inner], k))


def _diagonal(x, y, rows, gram):
    """rowsum(X o Y') on the given rows, in int64: from those rows of X and
    of Y', each a CSR or CSC as held; all rows take the factors whole. When
    Y' is X (`gram`) they are the row sums of X's squared entries."""
    whole = rows.size == x.shape[0]
    if not whole:
        x = x[rows]
    if gram:
        product = type(x)((x.data * x.data, x.indices, x.indptr), shape=x.shape)
    else:
        product = x.multiply(y.T if whole else y.T[rows])
    return _row_sums(product, dtype=np.int64)


# -- the eight operations --------------------------------------------------


def matmul(a: PathMatrix, b: PathMatrix) -> PathMatrix:
    """Ordinary matrix product: entry (i, j) counts composed paths i -> j."""
    _same_order(a, b)
    n = a.n
    if not a.complement and not b.complement:
        return PathMatrix._result(_checked_matmul(a.mat, b.mat))
    if not a.complement and b.complement:
        # A . (1 - B) = rowsum(A) broadcast - A . B; no entry passes rowsum(A)
        def masked(x, pat):
            sums = _row_sums(x, dtype=x.dtype)
            rows = np.flatnonzero(sums)
            return _full_rows(rows, n, values=sums[rows]) - x @ pat

        bound = lambda x, pat: _row_sums(x).max(initial=0)
        return PathMatrix._result(_int_checked(masked, a.mat, _as_dtype(b.mat, a.dtype), bound))
    if a.complement and not b.complement:
        # (1 - A) . B = colsum(B) broadcast - A . B; no entry passes colsum(B)
        def masked(pat, y):
            sums = _col_sums(y, dtype=y.dtype)
            cols = np.flatnonzero(sums)
            return _full_rows(cols, n, values=sums[cols]).T.tocsr() - pat @ y

        bound = lambda pat, y: _col_sums(y).max(initial=0)
        return PathMatrix._result(_int_checked(masked, _as_dtype(a.mat, b.dtype), b.mat, bound))
    # (1 - A) . (1 - B): inherently dense; go through the guarded expansion.
    da = a.to_dense()
    db = b.to_dense()
    return PathMatrix._result(da @ db)


def transpose(a: PathMatrix) -> PathMatrix:
    """The transpose, deferred: `a`'s CSR arrays read as a CSC view. The
    first read of its ``mat`` converts the view to new, sorted CSR arrays;
    its source passed the entry checks, so the view needs none."""
    return object.__new__(PathMatrix)._hold(a.n, a.mat.T, a.complement)


def hadamard(a: PathMatrix, b: PathMatrix) -> PathMatrix:
    """Entrywise product; the algebra's filter application."""
    _same_order(a, b)
    if a.complement and b.complement:
        return PathMatrix._result(a.mat + b.mat, complement=True)
    if a.complement:
        a, b = b, a  # the entrywise product commutes
    if not b.complement:
        bound = lambda x, y: float(x.data.max(initial=0)) * float(y.data.max(initial=0))
        return PathMatrix._result(_int_checked(lambda x, y: x.multiply(y), a.mat, b.mat, bound))
    # A o (1 - B): drop A's entries that fall on B's pattern.
    x, pat = a.mat, b.mat
    masked = _diagonal_rows(pat)
    if masked is not None:
        # B's pattern lies on the diagonal (I, E(v,v) or part of them): one
        # mask over A's arrays drops A's diagonal entries in B's rows
        rows, cols = _coords(x)
        diag = np.flatnonzero(cols == rows)
        diag = diag[masked[rows[diag]]]
        return PathMatrix._result(_dropped(x, diag)) if diag.size else a
    return PathMatrix._result(x - x.multiply(_as_dtype(pat, x.dtype)))


def _diagonal_rows(pat):
    """The rows of CSR `pat` as a boolean mask when every stored entry lies
    on the diagonal, else None."""
    rows, cols = _coords(pat)
    if not np.array_equal(rows, cols):
        return None
    masked = np.zeros(pat.shape[0], dtype=bool)
    masked[rows] = True
    return masked


def factored_matmul(a: PathMatrix, b: PathMatrix) -> PathMatrix:
    """``matmul(a, b)``, held factored when both operands are stored int64
    matrices and the product's total weight, colsum(a) . rowsum(b) over the
    matrices as held, is below 2**53. When one is held as the CSC view of
    the other's arrays, rowsum(b) is colsum(a) and the weight is
    ||colsum(a)||**2, one reduction. No entry then reaches 2**62, where
    ``matmul`` raises, so holding the product skips no overflow error; only
    the DENSIFY_LIMIT guard waits until the product is built.

    The sums are taken in int64 over the factors' own data, which copies
    nothing, and then cast, when the float64 bound max entry x nnz of the
    factor is below 2**62, so no sum can wrap; otherwise in float64."""
    _same_order(a, b)
    if not a.complement and not b.complement and a.dtype.kind == b.dtype.kind == "i":
        x, y = a.held, b.held
        sums = _exact_sums(x, _col_sums)
        if _gram(x, y):
            weight = sums @ sums
        else:
            weight = sums @ _exact_sums(y, _row_sums)
        if float(weight) < _EXACT_SUM_BOUND:
            return PathMatrix._product(a, b)
    return matmul(a, b)


def _exact_sums(x, sums_of) -> np.ndarray:
    """`sums_of(x)` for int64 `x` as float64: summed in int64 and cast when
    no sum can reach 2**62 (the bound ``_over`` uses), else in float64."""
    if float(x.data.max(initial=0)) * x.nnz < _INT_SAFE_BOUND:
        return sums_of(x, dtype=np.int64).astype(np.float64)
    return sums_of(x)


def factored_mask(a: PathMatrix, b: PathMatrix) -> PathMatrix:
    """``hadamard(a, b)``, held factored when one side is an unmasked
    factored product and the other a complement whose pattern lies on the
    diagonal; otherwise the product is built and masked as usual."""
    _same_order(a, b)
    for z, mask in ((a, b), (b, a)):
        factors = z._factors
        if factors and factors[2] is None and mask.complement:
            if _diagonal_rows(mask.mat) is not None:
                return PathMatrix._product(factors[0], factors[1], mask)
    return hadamard(a, b)


def not_(a: PathMatrix) -> PathMatrix:
    """Boolean complement: swaps 0s and 1s. Defined on {0,1} matrices only."""
    if a.complement:
        return PathMatrix._result(a.mat.copy())
    if not a.is_boolean():
        raise EvalError("not requires a {0,1} matrix; apply clip first")
    return PathMatrix._result(a.mat.copy(), complement=True)


def clip(a: PathMatrix) -> PathMatrix:
    """Normalize to the {0,1} support: entry 1 wherever the value is > 0."""
    if a.complement:
        return a
    pat = a.mat.copy()
    pat.data = np.ones(pat.nnz, dtype=np.int64)
    return PathMatrix._result(pat)


def vertex_out(a: PathMatrix, p: int = 0) -> PathMatrix:
    """All-ones rows exactly where the (weighted) row sum exceeds p."""
    _check_threshold(p)
    x = a.mat
    rows = _over(a, _row_sums, p, lambda r: x.data[x.indptr[r] : x.indptr[r + 1]])
    return PathMatrix._result(_full_rows(rows, a.n))


def vertex_in(a: PathMatrix, p: int = 0) -> PathMatrix:
    """All-ones columns exactly where the (weighted) column sum exceeds p."""
    _check_threshold(p)
    x = a.mat
    cols = _over(a, _col_sums, p, lambda c: x.data[x.indices == c])
    return PathMatrix._result(_full_rows(cols, a.n).T)


def _over(a: PathMatrix, sums_of, p, line) -> np.ndarray:
    """The rows (columns) of `a` whose sum, by `sums_of`, exceeds p. An
    int64 matrix's sums are compared exactly: in int64, and as a Python int
    of `line(k)`'s entries where a float64 sum reaches 2**62, since only
    there can the int64 one have wrapped."""
    x = a.mat
    if a.complement:
        return np.flatnonzero(a.n - sums_of(x) > p)
    if a.dtype.kind != "i":
        return np.flatnonzero(sums_of(x) > p)
    over = sums_of(x, dtype=np.int64) > min(p, np.iinfo(np.int64).max)
    # below this bound on the whole matrix's sum no line's sum reaches 2**62
    if float(x.data.max(initial=0)) * x.nnz >= _INT_SAFE_BOUND:
        big = np.flatnonzero(sums_of(x) >= _INT_SAFE_BOUND)
        over[big] = [sum(line(k).tolist()) > p for k in big]
    return np.flatnonzero(over)


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
    # scipy's scalar product copies the index arrays
    return PathMatrix._result(_as_dtype(base, np.float64) * lam)


def add(a: PathMatrix, b: PathMatrix) -> PathMatrix:
    """Entrywise sum; merges two path matrices."""
    _same_order(a, b)
    x = a.explicit() if a.complement else a.mat
    y = b.explicit() if b.complement else b.mat
    if x.dtype.kind != y.dtype.kind:
        x = _as_dtype(x, np.float64)
        y = _as_dtype(y, np.float64)
    bound = lambda x, y: float(x.data.max(initial=0)) + float(y.data.max(initial=0))
    return PathMatrix._result(_int_checked(operator.add, x, y, bound))


def materialize_filter(spec: FilterSpec, n: int) -> PathMatrix:
    """Build the exact {0,1} filter matrix of the given kind and order."""
    for idx in (spec.i, spec.j):
        if idx is not None and not (0 <= idx < n):
            raise EvalError(f"filter index {idx} out of range for order {n}")
    if spec.kind == "row":
        return PathMatrix._result(_full_rows(np.array([spec.i]), n))
    if spec.kind == "col":
        return PathMatrix._result(_full_rows(np.array([spec.i]), n).T)
    if spec.kind == "entry":
        return PathMatrix._from_sorted_pairs(n, np.array([spec.i]), np.array([spec.j]))
    if spec.kind == "identity":
        return PathMatrix.identity(n)
    if spec.kind == "ones":
        return PathMatrix.ones(n)
    return PathMatrix.zeros(n)


def cell_rows(leads, heads, indptr, indices, codes, texts):
    """(lead, cells) for each row i of the CSR pattern `indptr`, `indices`,
    in order: `leads[i]`, and the cell `heads[j] + texts[codes[e]]` for each
    stored entry e = (i, j) of the row, in stored order. The cells are built
    a chunk of whole rows at a time, about _WRITE_CELLS per chunk (more only
    when one row holds more)."""
    rows = len(indptr) - 1
    lo = 0
    while lo < rows:
        first = int(indptr[lo])
        hi = max(lo + 1, int(np.searchsorted(indptr, first + _WRITE_CELLS, side="right")) - 1)
        bounds = (indptr[lo : hi + 1] - first).tolist()
        span = slice(first, first + bounds[-1])
        cells = (heads[indices[span]] + texts[codes[span]]).tolist()
        yield from zip(leads[lo:hi], (cells[a:b] for a, b in zip(bounds, bounds[1:])))
        lo = hi


def joined_rows(rows, sep="\n", end="\n"):
    """One string for each (lead, cells) of `rows` with cells: `lead + cell`
    for every cell, joined by `sep`, then `end`. With the defaults a row is
    its TSV lines."""
    for lead, cells in rows:
        if cells:
            lead_sep = sep + lead
            yield lead + lead_sep.join(cells) + end


def name_cells(names, after="\t"):
    """An object array of `name + after` for each name, for cell lookups."""
    return np.array([name + after for name in names], dtype=object)


def export_tsv(pm: PathMatrix, names) -> str:
    """Render `tail<TAB>head<TAB>weight` rows in deterministic row-major
    order; int64 weights print exactly, float64 ones with 12 significant
    digits."""
    heads = name_cells(names)
    text = str if pm.dtype.kind == "i" else fmt_float
    return "".join(joined_rows(pm.entry_rows(heads.tolist(), heads, text)))


def fmt_float(x) -> str:
    """A real number as every writer prints it: 12 significant digits."""
    return format(float(x), ".12g")
