import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from pathweave.errors import EvalError
from pathweave.evaluate import evaluate
from pathweave.expr import Hadamard, Not, parse
from pathweave.kernels import (
    FilterSpec,
    PathMatrix,
    add,
    clip,
    export_tsv,
    factored_mask,
    factored_matmul,
    hadamard,
    materialize_filter,
    matmul,
    not_,
    scale,
    transpose,
    vertex_in,
    vertex_out,
)
from pathweave.tensor import MultiRelTensor

from conftest import FIXTURE1_TRIPLES
from oracles import count_typed_paths, dense_reference_eval
from util import random_tensor


def dense(pm):
    return np.asarray(pm.to_dense(), dtype=float)


def as_ids(fixture1, counts):
    ids = fixture1.vertices.index
    n = fixture1.n
    out = np.zeros((n, n))
    for (t, h), c in counts.items():
        out[ids[t], ids[h]] = c
    return out


@pytest.mark.parametrize("container", [sp.csr_array, sp.csr_matrix])
def test_constructor_neither_changes_nor_shares_the_callers_arrays(container):
    # row 0 holds columns 2, 0, 1, 0: unsorted, with (0, 0) twice
    m = container(
        (np.array([1, 2, 3, 4]), np.array([2, 0, 1, 0]), np.array([0, 4, 4, 4])), shape=(3, 3)
    )
    fields = ("indptr", "indices", "data")
    before = [getattr(m, f).copy() for f in fields]
    p = PathMatrix(m)
    want = np.array([[6, 3, 1], [0, 0, 0], [0, 0, 0]])
    assert np.array_equal(p.to_dense(), want)
    for f, old in zip(fields, before):
        assert np.array_equal(getattr(m, f), old), f
    m.data[:] = 9  # a later write to the caller's arrays
    m.indices[:] = 1
    assert np.array_equal(p.to_dense(), want)


def test_matmul_typed_two_step(fixture1):
    z = matmul(fixture1.matrix("authored"), fixture1.matrix("cites"))
    expected = as_ids(fixture1, count_typed_paths(FIXTURE1_TRIPLES, [("authored", False), ("cites", False)]))
    assert np.array_equal(dense(z), expected)
    assert expected.sum() == 1  # the single (h1, a3) path


def test_matmul_coauthor_counts(fixture1):
    a = fixture1.matrix("authored")
    z = matmul(a, transpose(a))
    expected = as_ids(
        fixture1, count_typed_paths(FIXTURE1_TRIPLES, [("authored", False), ("authored", True)])
    )
    assert np.array_equal(dense(z), expected)
    ids = fixture1.vertices.index
    assert expected[ids["h1"], ids["h1"]] == 2
    assert expected[ids["h1"], ids["h2"]] == 1


def test_matmul_zero_annihilates(fixture1):
    a = fixture1.matrix("authored")
    assert matmul(a, PathMatrix.zeros(a.n)).value_nnz() == 0


def test_matmul_dimension_mismatch():
    with pytest.raises(EvalError, match="dimension"):
        matmul(PathMatrix.zeros(2), PathMatrix.zeros(3))


def test_transpose(fixture1):
    ids = fixture1.vertices.index
    t = transpose(fixture1.matrix("authored"))
    assert dense(t)[ids["a1"], ids["h1"]] == 1
    i = PathMatrix.identity(4)
    assert np.array_equal(dense(transpose(i)), dense(i))


def test_hadamard_ones_and_not(rng):
    a = PathMatrix.from_dense((rng.random((5, 5)) < 0.4).astype(np.int64))
    assert np.array_equal(dense(hadamard(a, PathMatrix.ones(5))), dense(a))
    assert hadamard(a, not_(a)).value_nnz() == 0


def test_row_col_entry_filter_product():
    r = materialize_filter(FilterSpec("row", 0), 3)
    c = materialize_filter(FilterSpec("col", 2), 3)
    e = materialize_filter(FilterSpec("entry", 0, 2), 3)
    assert np.array_equal(dense(hadamard(r, c)), dense(e))
    assert dense(e)[0, 2] == 1 and dense(e).sum() == 1


def test_not_definitions():
    assert np.array_equal(dense(not_(PathMatrix.zeros(3))), np.ones((3, 3)))
    n2 = dense(not_(PathMatrix.identity(2)))
    assert np.array_equal(n2, np.array([[0, 1], [1, 0]]))


def test_not_not_round_trip(fixture1):
    a = fixture1.matrix("authored")
    y = clip(matmul(a, transpose(a)))
    assert np.array_equal(dense(not_(not_(y))), dense(y))


def test_not_rejects_non_boolean():
    pm = PathMatrix.from_dense(np.array([[2.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(EvalError, match="apply clip first"):
        not_(pm)


def test_clip():
    pm = PathMatrix.from_dense(np.array([[0.0, 2.5], [0.0, 1.0]]))
    assert np.array_equal(dense(clip(pm)), np.array([[0, 1], [0, 1]]))
    boolean = PathMatrix.from_dense(np.array([[0, 1], [1, 0]]))
    assert np.array_equal(dense(clip(boolean)), dense(boolean))


def test_clip_distributes_over_hadamard(rng):
    for _ in range(50):
        y = rng.random((6, 6)) * (rng.random((6, 6)) < 0.3)
        z = rng.random((6, 6)) * (rng.random((6, 6)) < 0.3)
        py, pz = PathMatrix.from_dense(y), PathMatrix.from_dense(z)
        lhs = clip(hadamard(py, pz))
        rhs = hadamard(clip(py), clip(pz))
        assert np.array_equal(dense(lhs), dense(rhs))


def test_vertex_out(fixture1):
    ids = fixture1.vertices.index
    n = fixture1.n
    r = materialize_filter(FilterSpec("row", 2), n)
    assert np.array_equal(dense(vertex_out(r)), dense(r))
    v = dense(vertex_out(fixture1.matrix("authored"), 1))
    expected = np.zeros((n, n))
    expected[ids["h1"], :] = 1
    expected[ids["h2"], :] = 1
    assert np.array_equal(v, expected)
    assert vertex_out(PathMatrix.zeros(4), 0).value_nnz() == 0
    for x in vertex_operands(np.random.default_rng(12)):
        for p in (0, 1, 2):
            rows = (dense(x).sum(axis=1) > p).astype(float)
            want = np.broadcast_to(rows[:, None], (6, 6))
            assert np.array_equal(dense(vertex_out(x, p)), want)


def vertex_operands(rng):
    """Float, int64 and complement operands of order 6, 50 of each."""
    for _ in range(50):
        mask = rng.random((6, 6)) < 0.4
        yield PathMatrix.from_dense(rng.random((6, 6)) * 1.5 * mask)
        yield PathMatrix.from_dense(rng.integers(1, 3, (6, 6)) * mask)
        yield PathMatrix.from_dense(mask.astype(np.int64), complement=True)


def test_vertex_in(fixture1):
    ids = fixture1.vertices.index
    n = fixture1.n
    c = materialize_filter(FilterSpec("col", 1), n)
    assert np.array_equal(dense(vertex_in(c)), dense(c))
    a = fixture1.matrix("authored")
    assert np.array_equal(dense(vertex_in(a, 1)), dense(transpose(vertex_out(transpose(a), 1))))
    v = dense(vertex_in(a, 1))
    expected = np.zeros((n, n))
    expected[:, ids["a2"]] = 1
    assert np.array_equal(v, expected)
    for x in vertex_operands(np.random.default_rng(11)):
        for p in (0, 1, 2):
            cols = (dense(x).sum(axis=0) > p).astype(float)
            assert np.array_equal(dense(vertex_in(x, p)), np.broadcast_to(cols, (6, 6)))


def test_vertex_in_and_column_filters_are_built_sorted_columns():
    # the columns are written straight into a CSR, row by row, sorted
    for x in vertex_operands(np.random.default_rng(13)):
        for p in (0, 1, 2):
            got = vertex_in(x, p)
            cols = (dense(x).sum(axis=0) > p).astype(float)
            assert np.array_equal(dense(got), np.broadcast_to(cols, (6, 6)))
            assert got.mat.has_sorted_indices and not got.complement
    for n in (1, 7):
        for i in range(n):
            c = materialize_filter(FilterSpec("col", i), n)
            want = np.zeros((n, n))
            want[:, i] = 1
            assert np.array_equal(dense(c), want) and c.mat.has_sorted_indices
    with pytest.raises(EvalError, match="complete columns"):
        vertex_in(PathMatrix.ones(10_000), 0)


def test_vertex_functions_keep_sums_past_the_int64_range():
    # an int64 sum of row 0 (of column 0) wraps to -2**63 and would drop it
    rows = PathMatrix.from_dense(np.array([[2**62, 2**62, 0], [0, 0, 1], [0, 0, 0]]))
    assert np.array_equal(dense(vertex_out(rows)), [[1, 1, 1], [1, 1, 1], [0, 0, 0]])
    cols = PathMatrix.from_dense(np.array([[2**62, 0], [2**62, 0]]))
    assert np.array_equal(dense(vertex_in(cols)), [[1, 0], [1, 0]])


@pytest.mark.parametrize(
    "row, p, kept",
    [
        ([2**60 + 1, 0], 2**60 - 1, True),
        ([2**60 + 1, 0], 2**60, True),
        ([2**60 + 1, 0], 2**60 + 1, False),
        # the sum, 2**63, is past the int64 range
        ([2**62, 2**62], 2**63 - 1, True),
    ],
)
def test_vertex_functions_compare_int64_sums_exactly(row, p, kept):
    # past 2**53 a float64 sum cannot tell these sums from p
    big = np.array([row, [0, 0]], dtype=np.int64)
    want = np.array([[kept] * 2, [0, 0]])
    assert np.array_equal(dense(vertex_out(PathMatrix.from_dense(big), p)), want)
    assert np.array_equal(dense(vertex_in(PathMatrix.from_dense(big.T), p)), want.T)


def test_scale(fixture1):
    a = fixture1.matrix("authored")
    coauth = hadamard(matmul(a, transpose(a)), not_(PathMatrix.identity(a.n)))
    scaled = scale(coauth, 0.6)
    ids = fixture1.vertices.index
    assert scaled.to_dense()[ids["h1"], ids["h2"]] == pytest.approx(0.6, abs=1e-15)
    assert np.array_equal(dense(scale(a, 1)), dense(a))
    assert scale(a, 0).value_nnz() == 0
    with pytest.raises(EvalError):
        scale(a, -1.0)
    with pytest.raises(EvalError):
        scale(a, float("nan"))


def test_add(rng):
    a = PathMatrix.from_dense((rng.random((4, 4)) < 0.5).astype(np.int64))
    b = PathMatrix.from_dense((rng.random((4, 4)) < 0.5).astype(np.int64))
    assert np.array_equal(dense(add(a, PathMatrix.zeros(4))), dense(a))
    # both De Morgan forms
    assert np.array_equal(dense(clip(add(not_(a), not_(b)))), dense(not_(hadamard(a, b))))
    assert np.array_equal(dense(not_(clip(add(a, b)))), dense(hadamard(not_(a), not_(b))))


def test_materialize_filter_laws():
    e12 = materialize_filter(FilterSpec("entry", 1, 2), 3)
    assert dense(e12)[1, 2] == 1 and dense(e12).sum() == 1
    r1 = materialize_filter(FilterSpec("row", 1), 3)
    c1 = materialize_filter(FilterSpec("col", 1), 3)
    assert np.array_equal(dense(r1), dense(transpose(c1)))
    e21 = materialize_filter(FilterSpec("entry", 2, 1), 3)
    assert np.array_equal(dense(e12), dense(transpose(e21)))
    with pytest.raises(EvalError, match="out of range"):
        materialize_filter(FilterSpec("row", 5), 3)


def test_integer_overflow_detected():
    big = PathMatrix.from_dense(np.full((2, 2), 2**31, dtype=np.int64))
    with pytest.raises(EvalError, match="64-bit"):
        matmul(matmul(big, big), big)
    # values whose row sums would wrap int64 inside the bound check itself
    huge = PathMatrix.from_dense(np.full((4, 4), 2**61, dtype=np.int64))
    with pytest.raises(EvalError, match="64-bit"):
        matmul(huge, huge)


def test_mixed_products_refuse_counts_past_the_int64_range():
    # row 0 of A sums to 2**64, so every entry of row 0 of A . not(E(v4,v4))
    # (of column 0 of not(E(v4,v4)) . A') is 2**64: an int64 sum wraps to 0
    a = np.zeros((5, 5), dtype=np.int64)
    a[0, :4] = 2**62
    big = PathMatrix.from_dense(a)
    mask = not_(materialize_filter(FilterSpec("entry", 4, 4), 5))
    with pytest.raises(EvalError, match="64-bit"):
        matmul(big, mask)
    with pytest.raises(EvalError, match="64-bit"):
        matmul(mask, transpose(big))
    with pytest.raises(EvalError, match="64-bit"):
        matmul(big, PathMatrix.ones(5))  # an empty pattern


def test_mixed_products_are_exact_when_only_a_sum_passes_the_int64_range():
    # row 0 of A sums to 9 * 2**60, past 2**63, and A . B to 6 * 2**60;
    # every entry of row 0 of A . not(B) is 3 * 2**60, exactly
    n = 10
    a = np.zeros((n, n), dtype=np.int64)
    a[0, :9] = 2**60
    b = np.zeros((n, n), dtype=np.int64)
    b[:6, :] = 1
    left = matmul(PathMatrix.from_dense(a), not_(PathMatrix.from_dense(b))).to_dense()
    assert left.dtype == np.int64
    assert left[0].tolist() == [3 * 2**60] * n and not left[1:].any()
    right = matmul(not_(PathMatrix.from_dense(b.T)), PathMatrix.from_dense(a.T)).to_dense()
    assert right.dtype == np.int64
    assert right[:, 0].tolist() == [3 * 2**60] * n and not right[:, 1:].any()


def test_densify_guards():
    import pathweave.kernels as K

    ones = PathMatrix.ones(10_000)
    with pytest.raises(EvalError, match="refusing"):
        ones.explicit()
    with pytest.raises(EvalError, match="refus"):
        vertex_out(PathMatrix.ones(10_000), 0)
    # small complements materialize fine
    assert PathMatrix.ones(50).explicit().nnz == 2500
    assert K.DENSIFY_LIMIT >= 10_000_000


def _authorship(groups, n_articles):
    """The {0,1} author -> article matrix of order authors + articles, where
    `groups[k]` lists the authors of article k."""
    n_authors = 1 + max(h for group in groups for h in group)
    n = n_authors + n_articles
    a = np.zeros((n, n), dtype=np.int64)
    for k, group in enumerate(groups):
        a[group, n_authors + k] = 1
    return PathMatrix.from_dense(a)


def test_products_are_refused_past_the_entry_limit(monkeypatch):
    import pathweave.kernels as K

    monkeypatch.setattr(K, "DENSIFY_LIMIT", 1000)
    # one article with 200 authors: 40000 coauthor entries
    a = _authorship([list(range(200))], 1)
    with pytest.raises(EvalError, match=r"more than 1000 entries \(at least 40000, at most 40000\)"):
        matmul(a, transpose(a))
    # evaluation holds the product factored and builds it, refused, on first read
    t = MultiRelTensor.from_edges(a.n, {"authored": a.mat.nonzero()})
    z = evaluate(parse("A[authored] . A[authored]' & not(I)"), t)
    with pytest.raises(EvalError, match="more than 1000 entries"):
        z.mat


@pytest.mark.parametrize("block", [1 << 22, 7])
def test_a_loose_product_bound_is_checked_by_counting(monkeypatch, block):
    import pathweave.kernels as K

    monkeypatch.setattr(K, "DENSIFY_LIMIT", 30)
    monkeypatch.setattr(K, "_COUNT_BLOCK", block)
    # pairs of authors that share 10 articles: 2-paths bound the entries at
    # 6 * 10 * 2 = 120, past the limit, but the product stores only 6 * 4
    groups = [[2 * p, 2 * p + 1] for p in range(6) for _ in range(10)]
    a = _authorship(groups, len(groups))
    z = matmul(a, transpose(a))
    assert z.mat.nnz == 24
    assert np.array_equal(z.mat.toarray(), a.mat.toarray() @ a.mat.toarray().T)
    groups[0] = [0, 1, 2, 3, 4, 5, 6, 7]  # 64 coauthor entries, past the limit
    a = _authorship(groups, len(groups))
    with pytest.raises(EvalError, match="more than 30 entries"):
        matmul(a, transpose(a))


def test_complement_explicit_equals_dense(rng):
    import scipy.sparse as sp

    for n in (1, 2, 7, 30):
        for density in (0.0, 0.3, 0.9, 1.0):
            arr = (rng.random((n, n)) < density).astype(np.int64)
            arr[rng.integers(0, n)] = 0  # an empty row
            arr[rng.integers(0, n)] = 1  # a full row
            pm = PathMatrix.from_dense(arr, complement=True)
            got = pm.explicit()
            want = sp.csr_array(pm.to_dense())
            for field in ("indptr", "indices", "data"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and np.array_equal(a, b), field
            assert got.has_canonical_format


def test_complement_explicit_allocates_no_dense_array():
    import tracemalloc

    not_i = not_(PathMatrix.identity(2000))
    tracemalloc.start()
    try:
        out = not_i.explicit()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    result_bytes = out.data.nbytes + out.indices.nbytes + out.indptr.nbytes
    # a dense 2000 x 2000 int64 array alone would be 32 MB of the 48 MB result
    assert peak < 2 * result_bytes


def test_export_tsv(fixture1):
    a = fixture1.matrix("authored")
    coauth = hadamard(matmul(a, transpose(a)), not_(PathMatrix.identity(a.n)))
    text = export_tsv(coauth, fixture1.vertices.names)
    assert text == "h1\th2\t1\nh2\th1\t1\n"


def unsorted(arr):
    """A path matrix equal to `arr` holding a raw scipy SpGEMM output: the
    product by the identity emits each row's columns in reverse."""
    pm = matmul(PathMatrix.from_dense(arr), PathMatrix.identity(len(arr)))
    assert not pm.mat.has_sorted_indices  # the precondition: unsorted CSR
    return pm


def representation_ok(pm):
    """A kernel result keeps the representation contract: no duplicate
    (row, col) entries and no stored zeros; a complement stores ones."""
    mat = pm.mat
    rows = np.repeat(np.arange(pm.n), np.diff(mat.indptr))
    keys = rows * pm.n + mat.indices
    return (
        np.unique(keys).size == keys.size
        and np.all(mat.data != 0)
        and (not pm.complement or np.all(mat.data == 1))
    )


def test_representation_transparency(rng):
    """Kernel results agree entrywise whichever representation operands use,
    sorted or not, and keep the representation contract."""
    n = 6
    bools = [(rng.random((n, n)) < 0.4).astype(np.int64) for _ in range(4)]

    def variants(arr):
        return [
            PathMatrix.from_dense(arr),
            PathMatrix.from_dense(arr, complement=True),
            unsorted(arr),
            not_(unsorted(1 - arr)),  # a complement over an unsorted pattern
        ]

    def same(pm, want):
        assert representation_ok(pm)
        return np.array_equal(dense(pm), want)

    for arr in bools:
        for other_arr in bools:
            for a in variants(arr):
                for b in variants(other_arr):
                    assert same(matmul(a, b), arr.astype(float) @ other_arr)
                    assert same(hadamard(a, b), arr * other_arr)
                    assert same(add(a, b), arr + other_arr)
        base = variants(arr)[0]
        for a in variants(arr):
            assert same(transpose(a), arr.T)
            assert same(clip(a), arr)
            assert same(not_(a), 1 - arr)
            assert same(vertex_out(a, 1), dense(vertex_out(base, 1)))
            assert same(vertex_in(a, 1), dense(vertex_in(base, 1)))
            sc = scale(a, 0.5)
            assert representation_ok(sc)
            assert np.allclose(dense(sc), 0.5 * arr, rtol=1e-12, atol=0)


# each kernel, its number of matrix operands and its other arguments
_KERNEL_CALLS = [
    (matmul, 2, ()),
    (hadamard, 2, ()),
    (add, 2, ()),
    (transpose, 1, ()),
    (not_, 1, ()),
    (clip, 1, ()),
    (vertex_out, 1, (1,)),
    (vertex_in, 1, (1,)),
    (scale, 1, (0.5,)),
]


@pytest.mark.parametrize(
    "kernel,arity,params", _KERNEL_CALLS, ids=[call[0].__name__ for call in _KERNEL_CALLS]
)
def test_kernels_never_write_into_an_operand(kernel, arity, params, rng):
    """Evaluation hands one value to every parent of a shared subtree, so a
    kernel may not change its operands' arrays."""
    arr = (rng.random((6, 6)) < 0.4).astype(np.int64)
    operands = [
        unsorted(arr),
        scale(unsorted(arr), 0.5),  # float64, sharing no arrays with the one above
        not_(unsorted(1 - arr)),  # a complement over an unsorted pattern
    ]
    for args in itertools.product(operands, repeat=arity):
        before = [[getattr(a.mat, f).copy() for f in ("data", "indices", "indptr")] for a in args]
        try:
            kernel(*args, *params)
        except EvalError:  # not_ refuses the weighted operand
            assert kernel is not_
        for a, old in zip(args, before):
            for field, was in zip(("data", "indices", "indptr"), old):
                assert np.array_equal(getattr(a.mat, field), was), field


_FIELDS = ("data", "indices", "indptr")

# each kernel with a transposed operand `t` and another operand `b`
_WITH_TRANSPOSE = {
    "matmul-left": lambda t, b: matmul(t, b),
    "matmul-right": lambda t, b: matmul(b, t),
    "hadamard-left": lambda t, b: hadamard(t, b),
    "hadamard-right": lambda t, b: hadamard(b, t),
    "add-left": lambda t, b: add(t, b),
    "add-right": lambda t, b: add(b, t),
    "factored-left": lambda t, b: factored_matmul(t, b),
    "factored-right": lambda t, b: factored_matmul(b, t),
    "factored-mask": lambda t, b: factored_mask(factored_matmul(b, b), t),
    "transpose": lambda t, b: transpose(t),
    "not": lambda t, b: not_(t),
    "clip": lambda t, b: clip(t),
    "vertex-out": lambda t, b: vertex_out(t, 1),
    "vertex-in": lambda t, b: vertex_in(t, 1),
    "scale": lambda t, b: scale(t, 0.5),
}


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EvalError as err:
        return str(err)


def _assert_same_matrix(got, want):
    """Equal in representation, dtype and every array of the stored CSR."""
    assert got.complement == want.complement and got.dtype == want.dtype
    for f in _FIELDS:
        g, w = getattr(got.mat, f), getattr(want.mat, f)
        assert g.dtype == w.dtype and np.array_equal(g, w), f


def test_deferred_transpose_matches_eager_through_every_kernel(rng):
    """A transpose holds its operand's arrays as a CSC view and converts it
    on the first read of `mat`; every kernel, writer and operand sees what
    converting at once (the eager transpose) gives, and none writes into
    the shared arrays."""
    n = 6
    names = [f"v{i}" for i in range(n)]
    arr = (rng.random((n, n)) < 0.4).astype(np.int64)
    arr[2, 2] = 1  # a diagonal entry for the masks to drop
    sources = {
        "int": PathMatrix.from_dense(arr),
        "int-unsorted": unsorted(arr),
        "float": scale(unsorted(arr), 0.5),
        "complement": not_(unsorted(1 - arr)),
        "diagonal-complement": not_(PathMatrix.identity(n)),
    }
    others = [PathMatrix.from_dense((rng.random((n, n)) < 0.5).astype(np.int64)), *sources.values()]
    vec = rng.random(n)
    for name, a in sources.items():
        before = [getattr(a.mat, f).copy() for f in _FIELDS]

        def deferred():
            t = transpose(a)
            assert t.held.format == "csc" and np.shares_memory(t.held.indices, a.mat.indices)
            return t

        eager = PathMatrix._result(a.mat.T, complement=a.complement)
        for b in others:
            for call, fn in _WITH_TRANSPOSE.items():
                got, want = _outcome(fn, deferred(), b), _outcome(fn, eager, b)
                if isinstance(want, str):
                    assert got == want, (name, call)
                    continue
                _assert_same_matrix(got, want)
                if got._factors is not None:  # read from the factors as held
                    op, ref = got.operand(), want.operand()
                    for field in ("row_sums", "col_sums", "dangling", "on_path", "d"):
                        assert np.array_equal(getattr(op, field), getattr(ref, field)), field
                    assert np.allclose(op.vecmat(vec), ref.vecmat(vec), rtol=1e-14, atol=0)
                    assert np.allclose(op.matvec(vec), ref.matvec(vec), rtol=1e-14, atol=0)
        t = deferred()
        assert t.dtype == eager.dtype and repr(t) == repr(eager)
        assert t.held.format == "csc"  # reading the dtype and nnz converted nothing
        assert export_tsv(deferred(), names) == export_tsv(eager, names)
        assert np.array_equal(deferred().to_dense(), eager.to_dense())
        for f in _FIELDS:
            assert np.array_equal(getattr(deferred().explicit(), f), getattr(eager.explicit(), f))
        if not a.complement:
            op, ref = deferred().operand(), eager.operand()
            for field in ("row_sums", "col_sums", "dangling", "on_path"):
                assert np.array_equal(getattr(op, field), getattr(ref, field)), field
        t = deferred()
        _assert_same_matrix(t, eager)
        assert t.held.format == "csr"  # the first read of mat kept the conversion
        for f, was in zip(_FIELDS, before):
            assert np.array_equal(getattr(a.mat, f), was), (name, f)


# X, as written over a tensor with slices x and y; the products are raw
# SpGEMM outputs, so their CSR indices are unsorted
_MASKED = {
    "int-sorted": "A[x]",
    "int-unsorted": "A[x] . A[y]",
    "float-sorted": "0.5 * A[x]",
    "float-unsorted": "0.25 * (A[x] . A[y]) + 0.5 * (A[y] . A[x])",
}
# P, whose complement masks X: on the diagonal (the one-pass path), or not
_MASKS = ["I", "E(v2,v2)", "clip(E(v1,v1) + E(v4,v4))", "E(v1,v3)"]


@pytest.mark.parametrize("x_src", list(_MASKED))
def test_hadamard_with_a_complemented_mask(x_src):
    rng = np.random.default_rng(404)
    t = random_tensor(rng, 6, labels=("x", "y"), density=0.5)
    x_expr = parse(_MASKED[x_src])
    x = evaluate(x_expr, t, use_plan=False)
    assert x.dtype.kind == x_src[0] and x.mat.has_sorted_indices == x_src.endswith("-sorted")
    assert np.count_nonzero(np.diag(dense(x))) >= 4  # the masks have diagonal entries to drop
    before = [getattr(x.mat, f).copy() for f in ("data", "indices", "indptr")]
    for p_src in _MASKS:
        p_expr = parse(p_src)
        mask = not_(evaluate(p_expr, t, use_plan=False))
        want = dense_reference_eval(Hadamard(x_expr, Not(p_expr)), t)
        for got in (hadamard(x, mask), hadamard(mask, x)):
            assert got.dtype == x.dtype and representation_ok(got)
            assert np.array_equal(got.to_dense(), want), p_src
    for field, old in zip(("data", "indices", "indptr"), before):
        assert np.array_equal(getattr(x.mat, field), old)  # the operand is untouched


@pytest.mark.parametrize("x_src", ["int-unsorted", "float-unsorted"])
def test_unsorted_product_renders_in_row_major_order(x_src):
    rng = np.random.default_rng(405)
    t = random_tensor(rng, 7, labels=("x", "y"), density=0.5)
    e = parse(f"({_MASKED[x_src]}) & not(I)")
    z = evaluate(e, t)
    assert not z.mat.has_sorted_indices
    stored = z.mat.indices.copy()
    want = dense_reference_eval(e, t)
    tails, heads = np.nonzero(want)
    values = want[tails, heads].tolist()
    names = t.vertices.names
    if want.dtype.kind == "f":
        values = [format(v, ".12g") for v in values]
    rendered = "".join(f"{names[i]}\t{names[j]}\t{w}\n" for i, j, w in zip(tails, heads, values))
    assert export_tsv(z, names) == rendered
    assert np.array_equal(z.mat.indices, stored)  # rendering sorted a copy


@pytest.mark.parametrize(
    "op,value",
    [(hadamard, 2**40), (add, 2**62)],
    ids=["hadamard", "add"],
)
def test_entrywise_integer_overflow_detected(op, value):
    # int64 would wrap: 2**40 * 2**40 to 0, 2**62 + 2**62 to a negative count
    big = PathMatrix.from_dense(np.full((2, 2), value, dtype=np.int64))
    with pytest.raises(EvalError, match="64-bit"):
        op(big, big)
