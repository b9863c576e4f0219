"""Product roots held factored: the analyses read them from their factors,
and the stored matrix, built on first read, is the one eager evaluation
gives."""

import numpy as np
import pytest

from pathweave.analysis import (
    PageRankConfig,
    assortativity_categorical,
    assortativity_scalar,
    pagerank,
    spreading_activation,
)
from pathweave.errors import AnalysisError, EvalError
from pathweave.evaluate import evaluate
from pathweave.expr import parse
from pathweave import kernels
from pathweave.kernels import _BAND_CELLS, PathMatrix, ProductOperand, StoredOperand
from pathweave.tensor import MultiRelTensor

from oracles import (
    categorical_r,
    dense_pagerank_matrix,
    dense_power_iteration,
    dense_spread,
    weighted_scalar_r,
)
from util import random_tensor

# (expression over slices x and y, whether its root is held factored)
_ROOTS = [
    ("A[x] . A[x]' & not(I)", True),
    ("not(I) & A[x] . A[x]'", True),
    ("A[x] . A[y]' & not(E(v1,v1))", True),
    ("not(E(v0,v0)) & A[x] . A[y]", True),
    ("A[x] . A[y]", True),
    ("(A[x] . A[y]) . A[x]' & not(I)", True),
    # co-citation and coupling: a transposed left factor, or both
    ("A[x]' . A[x] & not(I)", True),
    ("A[x]' . A[y] & not(E(v2,v2))", True),
    ("A[x] . A[y]' & not(clip(E(v0,v0) + E(v2,v2)))", True),
    ("A[y]' . A[x]'", True),
    # a mask off the diagonal, a float factor, and a product below the root
    ("A[x] . A[x]' & not(E(v0,v1))", False),
    ("(0.5 * A[x]) . A[y]", False),
    ("1 * (A[x] . A[x]' & not(I))", False),
]


def _outcome(fn, *args):
    """fn's value, or the message of the AnalysisError it raised."""
    try:
        return fn(*args)
    except AnalysisError as err:
        return str(err)


def _assert_close(got, want, tol):
    if isinstance(want, str):
        assert got == want
    else:
        assert np.allclose(got, want, rtol=0, atol=tol)


def _check_analyses(z, stored, rng, with_nan=True):
    """Each analysis of `z` against the same analysis of `stored`, the same
    matrix evaluated eagerly, and against the dense oracles; values and
    labels off every path are NaN and None, which neither form may read."""
    n = z.n
    assert isinstance(stored.operand(), StoredOperand)
    dense = stored.to_dense().astype(float)
    entries = [(i, j, dense[i, j]) for i, j in zip(*np.nonzero(dense))]
    on_path = dense.any(axis=1) | dense.any(axis=0)
    values = rng.random(n)
    labels = [("a", "b", "c")[c] for c in rng.integers(0, 3, size=n)]
    if with_nan:
        values[~on_path] = np.nan
        labels = [lab if on else None for lab, on in zip(labels, on_path)]
    seed = rng.random(n)
    cfg = PageRankConfig(epsilon=1e-13, max_iters=20000)
    want_pi = dense_power_iteration(dense_pagerank_matrix(dense, cfg.delta), 1e-13)
    want_flow = dense_spread(dense, seed, 4, 0.8, 0.05)
    pis, flows = [], []
    for m in (z, stored):
        pis.append(pagerank(m, cfg))
        flows.append(spreading_activation(m, seed, 4, 0.8, 0.05))
        assert np.allclose(pis[-1], want_pi, atol=1e-9)
        assert np.allclose(flows[-1], want_flow, atol=1e-9)
    _assert_close(*pis, 1e-15)
    _assert_close(*flows, 1e-12)
    for fn, prop, oracle in (
        (assortativity_scalar, values, weighted_scalar_r),
        (assortativity_categorical, labels, categorical_r),
    ):
        got = _outcome(fn, z, prop)
        _assert_close(got, _outcome(fn, stored, prop), 1e-12)
        if not isinstance(got, str):
            assert got == pytest.approx(oracle(entries, prop, prop), abs=1e-12)
    op, ref = z.operand(), stored.operand()
    for field in ("row_sums", "col_sums", "dangling", "on_path"):
        assert np.array_equal(getattr(op, field), getattr(ref, field)), field
    assert op.total == ref.total


@pytest.mark.parametrize("src,factored", _ROOTS, ids=[src for src, _ in _ROOTS])
def test_factored_root_analyses_match_the_stored_matrix(src, factored):
    rng = np.random.default_rng(2121)
    e = parse(src)
    checked = 0
    for trial in range(40):
        n = int(rng.integers(3, 10))
        t = random_tensor(rng, n, labels=("x", "y"), density=float(rng.uniform(0.1, 0.5)))
        z = evaluate(e, t)
        assert (z._factors is not None) == factored
        factor_arrays = [
            [getattr(f.mat, a).copy() for a in ("data", "indices", "indptr")]
            for f in (z._factors or ())[:2]
        ]
        if z.operand().dangling.all():
            continue
        # the root is not a product here, so the matrix is built eagerly
        eager = evaluate(parse(f"1 * ({src})"), t)
        assert eager._factors is None
        _check_analyses(z, eager, rng, with_nan=trial % 2 == 0)
        if factored:
            assert z._mat is None  # the analyses never built the product
        # the stored matrix is the eager evaluation's, array for array
        assert z.mat.dtype == eager.mat.dtype
        for a in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(z.mat, a), getattr(eager.mat, a)), a
        for f, arrays in zip((z._factors or ())[:2], factor_arrays):
            for a, was in zip(("data", "indices", "indptr"), arrays):
                assert np.array_equal(getattr(f.mat, a), was), a
        checked += 1
    assert checked >= 20


def test_dangling_author_and_values_off_every_path():
    # h0 wrote a1 alone and a0 with h1, so h0's row keeps h1; h2 wrote only
    # a2 alone: a dangling row whose dropped diagonal entry is 1. h3 wrote
    # nothing, and the articles start and end no path.
    names = ["h0", "h1", "h2", "h3", "a0", "a1", "a2"]
    edges = {"authored": (np.array([0, 0, 1, 2]), np.array([4, 5, 4, 6]))}
    t = MultiRelTensor.from_edges(names, edges)
    values = np.array([1.0, 2.0, np.nan, np.nan, np.nan, np.nan, np.nan])
    labels = ["u", "v", None, None, None, None, None]
    for src in ("A[authored] . A[authored]' & not(I)", "not(E(h2,h2)) & A[authored] . A[authored]'"):
        z = evaluate(parse(src), t)
        assert z._factors is not None
        op = z.operand()
        assert op.dangling.tolist() == [False, False, True, True, True, True, True]
        assert op.on_path.tolist() == [True, True, False, False, False, False, False]
        # h0 and h1 keep their diagonals (2 and 1) under the one-row mask
        want = -1.0 if src.endswith("not(I)") else weighted_scalar_r(
            [(0, 0, 2.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)], values, values
        )
        assert assortativity_scalar(z, values) == pytest.approx(want, abs=1e-12)
        if src.endswith("not(I)"):
            assert assortativity_categorical(z, labels) == pytest.approx(-1.0, abs=1e-12)
        _check_analyses(z, evaluate(parse(f"1 * ({src})"), t), np.random.default_rng(3))
        assert repr(z) == "<PathMatrix n=7 factored product>"
        assert z._mat is None


def test_analyses_read_the_transposed_factor_as_held():
    # coauthorship: the right factor A' is a CSC view of A's own arrays, and
    # none of the four analyses converts it or builds the product
    rng = np.random.default_rng(2323)
    t = random_tensor(rng, 40, labels=("x",), density=0.1)
    z = evaluate(parse("A[x] . A[x]' & not(I)"), t)
    x, y, _ = z._factors
    assert y.held.format == "csc" and np.shares_memory(y.held.indices, x.held.indices)
    values = rng.random(z.n)
    labels = [("a", "b", "c")[c] for c in rng.integers(0, 3, size=z.n)]
    pagerank(z)
    spreading_activation(z, values, 3, 0.8)
    assortativity_scalar(z, values)
    assortativity_categorical(z, labels)
    assert y.held.format == "csc" and x.held.format == "csr"
    assert z._mat is None
    # one float64 copy of A's data serves both factors, either way round
    op = z.operand()
    assert np.shares_memory(op.xf.data, op.yf.data)
    op = evaluate(parse("A[x]' . A[x] & not(I)"), t).operand()
    assert op.xf.format == "csc" and np.shares_memory(op.xf.data, op.yf.data)


@pytest.mark.parametrize(
    "src", ["A[x] . A[x]' & not(I)", "A[x]' . A[y] & not(E(v5,v5))", "A[x] . A[y]"]
)
def test_same_category_weight_past_the_cell_bound(src):
    # k = n labels: n * k keys pass _BAND_CELLS and twice the entries, so
    # only the keys the entries reach are counted (an n x k CSR with summed
    # duplicates) rather than one dense array of n * k cells (9.7 MB of
    # float64 here); the weight is exact
    import tracemalloc

    rng = np.random.default_rng(2424)
    n = 1100
    assert n * n > _BAND_CELLS
    t = random_tensor(rng, n, labels=("x", "y"), density=0.004)
    z = evaluate(parse(src), t)
    assert z._factors is not None
    stored = StoredOperand(evaluate(parse(f"1 * ({src})"), t).mat)
    op = z.operand()
    for codes in (np.arange(n), rng.integers(0, n, size=n), rng.integers(0, 7, size=n)):
        tracemalloc.start()
        try:
            got = op.same_category_weight(codes, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == stored.same_category_weight(codes, n)
        assert peak < 2**20  # bytes: O(nnz + n), with nnz about 5000
    assert z._mat is None


# a factor with entries above 1, its root read as Z = G G' and the mask
_GRAM_FACTOR = "(A[x] + A[y] + A[x] . A[y])"
_GRAM_MASKS = ["", " & not(I)", " & not(E(v1,v1))", " & not(clip(E(v0,v0) + E(v2,v2) + E(v3,v3)))"]


def _general_operand(z):
    """The operand of `z`'s factors read through the general path: the
    transposed factor replaced by the transpose of a copy of the other
    factor's arrays, in their stored order, which the view check rejects."""
    x, y, mask = z._factors

    def twin(m):
        return kernels.transpose(PathMatrix._result(m.held.copy()))

    if y.held.format == "csc":
        y = twin(x)
    else:
        x = twin(y)
    return ProductOperand(x, y, mask)


@pytest.mark.parametrize("mask", _GRAM_MASKS, ids=["none", "not(I)", "one row", "three rows"])
@pytest.mark.parametrize("root", ["{g} . {g}'", "{g}' . {g}"], ids=["AA'", "A'A"])
def test_gram_operand_matches_the_general_and_stored_operands(root, mask):
    rng = np.random.default_rng(2525)
    src = root.format(g=_GRAM_FACTOR) + mask
    big_entries = 0
    for _ in range(25):
        n = int(rng.integers(4, 13))
        t = random_tensor(rng, n, labels=("x", "y"), density=float(rng.uniform(0.1, 0.5)))
        z = evaluate(parse(src), t)
        op = z.operand()
        assert op.gram
        gen = _general_operand(z)
        assert not gen.gram
        stored = StoredOperand(evaluate(parse(f"1 * ({src})"), t).mat)
        assert z._mat is None
        big_entries += int(op.xf.data.max(initial=0) > 1)
        for field in ("row_sums", "col_sums", "dangling", "on_path", "d"):
            assert np.array_equal(getattr(op, field), getattr(gen, field)), field
            if field != "d":
                assert np.array_equal(getattr(op, field), getattr(stored, field)), field
        assert op.total == gen.total == stored.total
        for _ in range(3):
            v = rng.random(n)
            for fn in ("vecmat", "matvec"):
                got = getattr(op, fn)(v)
                assert np.array_equal(got, getattr(gen, fn)(v)), fn
                assert np.allclose(got, getattr(stored, fn)(v), rtol=1e-12, atol=0), fn
        for k in (1, 3, n):
            codes = rng.integers(0, k, size=n)
            want = stored.same_category_weight(codes, k)
            assert op.same_category_weight(codes, k) == gen.same_category_weight(codes, k) == want
    assert big_entries >= 20


@pytest.mark.parametrize("left_transposed", [False, True], ids=["A, A'", "A', A"])
def test_gram_bound_decides_as_the_general_bound(monkeypatch, left_transposed):
    # the Gram weight ||colsum(G)||**2 against _EXACT_SUM_BOUND set just
    # below, at and just above it: the root is held factored exactly where
    # the general bound colsum(X) . rowsum(Y) is below the bound
    rng = np.random.default_rng(2626)
    dense = rng.integers(0, 4, size=(30, 30)) * (rng.random((30, 30)) < 0.2)
    a = PathMatrix(dense)
    sums = dense.sum(axis=1 if left_transposed else 0).tolist()
    weight = float(sum(s * s for s in sums))

    def operands():
        at = kernels.transpose(a)  # a fresh view: building the product converts it
        return (at, a) if left_transposed else (a, at)

    x, y = operands()
    general = float(kernels._col_sums(x.held) @ kernels._row_sums(y.held))
    assert general == weight
    for bound in (np.nextafter(weight, 0.0), weight, np.nextafter(weight, np.inf), weight + 1):
        monkeypatch.setattr(kernels, "_EXACT_SUM_BOUND", float(bound))
        x, y = operands()
        assert kernels._gram(x.held, y.held)
        z = kernels.factored_matmul(x, y)
        assert (z._factors is not None) == (general < bound)
        # the same factors as unrelated matrices take the general bound
        x, y = operands()
        x, y = PathMatrix(x.held.tocsr()), PathMatrix(y.held.tocsr())
        assert (kernels.factored_matmul(x, y)._factors is not None) == (general < bound)
        assert np.array_equal(z.to_dense(), dense @ dense.T if not left_transposed else dense.T @ dense)


def _sum_dtypes(monkeypatch):
    """The accumulator dtype of every row and column sum taken from now on."""
    seen = []
    for name in ("_row_sums", "_col_sums"):
        real = getattr(kernels, name)

        def recorded(mat, dtype=np.float64, real=real):
            seen.append(np.dtype(dtype))
            return real(mat, dtype=dtype)

        monkeypatch.setattr(kernels, name, recorded)
    return seen


@pytest.mark.parametrize("gram", [True, False], ids=["A . A'", "A . B"])
def test_weight_past_2_53_builds_the_product_from_int64_sums(monkeypatch, gram):
    # max entry x nnz is far below 2**62, so the factor's sums are taken in
    # int64; the weight passes 2**53, so the root is built, not factored
    x = np.array([[2**27, 2**27, 0], [0, 2**27, 1], [1, 0, 3]], dtype=np.int64)
    y = x.T.copy() if gram else np.array([[2**26, 0, 1], [0, 5, 0], [2**27, 0, 0]])
    a = PathMatrix.from_dense(x)
    b = kernels.transpose(a) if gram else PathMatrix.from_dense(y)
    seen = _sum_dtypes(monkeypatch)
    z = kernels.factored_matmul(a, b)
    assert seen[: 1 if gram else 2] == [np.dtype(np.int64)] * (1 if gram else 2)
    assert z._factors is None
    want = x.astype(object) @ y.astype(object)
    assert z.dtype == np.int64
    assert z.to_dense().tolist() == want.tolist()


def test_sums_that_would_wrap_int64_take_float64(monkeypatch):
    # column 0 of x sums to 2**63, which wraps to -2**63 in int64 and would
    # make the weight negative, so the product would be held factored and
    # its overflow never seen; in float64 the weight passes 2**53, and
    # building the product refuses its 2**62 entries
    x = np.array([[2**62, 0], [2**62, 0]], dtype=np.int64)
    y = np.array([[1, 0], [0, 0]], dtype=np.int64)
    seen = _sum_dtypes(monkeypatch)
    with pytest.raises(EvalError, match="64-bit"):
        kernels.factored_matmul(PathMatrix.from_dense(x), PathMatrix.from_dense(y))
    # colsum(x) in float64; rowsum(y), which cannot wrap, in int64
    assert seen[:2] == [np.dtype(np.float64), np.dtype(np.int64)]
