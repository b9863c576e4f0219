import math

import numpy as np
import pytest

from pathweave.analysis import (
    PageRankConfig,
    assortativity_categorical,
    assortativity_scalar,
    pagerank,
    pagerank_matrix,
    shortest_paths,
    spreading_activation,
)
from pathweave.errors import AnalysisError
from pathweave.kernels import PathMatrix, matmul, not_, transpose

from oracles import (
    categorical_r,
    dense_pagerank_matrix,
    dense_power_iteration,
    dense_spread,
    min_power_distances,
    unweighted_scalar_r,
    weighted_scalar_r,
)


def pm(arr):
    return PathMatrix.from_dense(np.asarray(arr))


def random_digraph(rng, n, density=0.3, weighted=False):
    mask = rng.random((n, n)) < density
    if weighted:
        return rng.random((n, n)) * mask
    return mask.astype(np.int64)


# -- geodesics ---------------------------------------------------------------


def test_fixture_cites_distances(fixture1):
    ids = fixture1.vertices.index
    res = shortest_paths(fixture1.matrix("cites"))
    assert res.distances[ids["a1"], ids["a3"]] == 1
    assert math.isinf(res.distances[ids["a3"], ids["a1"]])


def test_identity_only_graph_has_no_geodesics():
    res = shortest_paths(PathMatrix.identity(4))
    off = res.distances + np.diag([np.inf] * 4)
    assert np.all(np.isinf(off))
    assert np.all(np.isnan(res.eccentricity))
    assert res.radius is None and res.diameter is None


def test_three_cycle():
    adj = np.zeros((3, 3), dtype=np.int64)
    adj[0, 1] = adj[1, 2] = adj[2, 0] = 1
    res = shortest_paths(pm(adj))
    assert res.radius == 2 and res.diameter == 2
    assert np.allclose(res.closeness, 1.5)
    expected = min_power_distances(adj)
    assert np.array_equal(res.distances, expected)


def test_bfs_equals_min_power_definition(rng):
    for _ in range(50):
        n = int(rng.integers(2, 13))
        adj = random_digraph(rng, n, density=float(rng.uniform(0.05, 0.5)))
        res = shortest_paths(pm(adj))
        assert np.array_equal(res.distances, min_power_distances(adj))


def test_metrics_consistent_with_distances(rng):
    for _ in range(30):
        n = int(rng.integers(2, 12))
        res = shortest_paths(pm(random_digraph(rng, n)))
        for i in range(n):
            finite = [
                res.distances[i, j]
                for j in range(n)
                if j != i and math.isfinite(res.distances[i, j])
            ]
            if finite:
                assert res.eccentricity[i] == max(finite)
                assert res.closeness[i] == pytest.approx(sum(finite) / len(finite))
                assert res.reach_counts[i] == len(finite)
            else:
                assert math.isnan(res.eccentricity[i])
        finite_ecc = [e for e in res.eccentricity if not math.isnan(e)]
        if finite_ecc:
            assert res.radius == min(finite_ecc)
            assert res.diameter == max(finite_ecc)


def _geodesic_metrics_from_copy(dist):
    """Straight-line reference for the metrics: an off-diagonal copy of the
    distances with unreached entries zeroed, reduced row by row."""
    off = dist.copy()
    np.fill_diagonal(off, np.inf)
    finite = np.isfinite(off)
    reach = finite.sum(axis=1)
    off[~finite] = 0.0
    reached = reach > 0
    ecc = np.where(reached, off.max(axis=1, initial=0.0), np.nan)
    close = np.full(len(dist), np.nan)
    close[reached] = off.sum(axis=1)[reached] / reach[reached]
    finite_ecc = ecc[reached]
    radius = float(finite_ecc.min()) if finite_ecc.size else None
    diameter = float(finite_ecc.max()) if finite_ecc.size else None
    return ecc, radius, diameter, close, reach.astype(np.int64)


def test_geodesic_metrics_equal_masked_copy_reference(fixture1, rng):
    a = fixture1.matrix("authored")
    graphs = [
        fixture1.matrix("cites"),
        matmul(a, transpose(a)),
        PathMatrix.identity(4),
        pm([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
        PathMatrix.zeros(1),
    ]
    graphs += [pm(random_digraph(rng, int(rng.integers(2, 13)))) for _ in range(40)]
    for z in graphs:
        res = shortest_paths(z)
        ecc, radius, diameter, close, reach = _geodesic_metrics_from_copy(res.distances)
        assert np.array_equal(res.eccentricity, ecc, equal_nan=True)
        assert np.array_equal(res.closeness, close, equal_nan=True)
        assert np.array_equal(res.reach_counts, reach) and res.reach_counts.dtype == reach.dtype
        assert (res.radius, res.diameter) == (radius, diameter)


def test_geodesic_metrics_take_no_second_dense_array(rng):
    import tracemalloc

    import scipy.sparse as sp

    def traced_peak(z):
        tracemalloc.start()
        try:
            res = shortest_paths(z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return res, peak

    # a random digraph whose 1500 vertices reach 89% of all pairs: the
    # stored hop counts then take most of the cells of a dense matrix. Each
    # block's pairs are written into the stored arrays, never joined from
    # parts, so the peak is those arrays (6 bytes a pair) and one block's
    # search, below the 18 MB float64 array the dense search held; joining
    # the parts took it to about 1.1 times that array. tracemalloc sees a
    # new array or a join, but not the moment when realloc, moving an array
    # it grows, holds both the old and the new copy.
    n = 1500
    core = sp.csr_array((rng.random((n, n)) < 0.002).astype(np.int64))
    res, peak = traced_peak(PathMatrix(core))
    assert res.hops.nnz > 0.85 * n * n
    assert peak < 1.05 * n * n * 8
    # the same digraph inside an order-6000 matrix, as coauthorship leaves
    # most vertices off every path: the search never spans the other 4500
    wide = 6000
    indptr = np.append(core.indptr, np.full(wide - n, core.nnz))
    z = PathMatrix(sp.csr_array((core.data, core.indices, indptr), shape=(wide, wide)))
    wide_res, wide_peak = traced_peak(z)
    assert wide_res.hops.nnz == res.hops.nnz
    assert (wide_res.hops[:n, :n] != res.hops).nnz == 0
    assert wide_peak < 0.1 * wide * wide * 8


def shaped_digraph(rng, n):
    """A random digraph with self-loops, whose vertices are each at random
    part of the core, isolated, a sink (ends entries, starts none) or a
    source (starts entries, ends none)."""
    adj = random_digraph(rng, n, density=float(rng.uniform(0.05, 0.4)))
    role = rng.integers(0, 4, size=n)
    adj[role == 1] = 0
    adj[:, role == 1] = 0
    adj[role == 2] = 0
    adj[:, role == 3] = 0
    return adj


@pytest.mark.parametrize("per_block", [1, 2, 3])
def test_blocked_search_equals_min_power_reference(rng, monkeypatch, per_block):
    import pathweave.analysis as analysis_mod

    search = analysis_mod._search_block
    sizes = []

    def recorded(support, block, *rest):
        sizes.append(block.size)
        return search(support, block, *rest)

    monkeypatch.setattr(analysis_mod, "_search_block", recorded)
    kinds = set()
    for _ in range(40):
        n = int(rng.integers(2, 15))
        adj = shaped_digraph(rng, n)
        starts, ends = adj.sum(axis=1) > 0, adj.sum(axis=0) > 0
        kinds.update(("isolated",) * bool((~starts & ~ends).any()))
        kinds.update(("sink",) * bool((~starts & ends).any()))
        kinds.update(("source",) * bool((starts & ~ends).any()))
        kinds.update(("loop",) * bool(np.diag(adj).any()))
        on_path = max(int((starts | ends).sum()), 1)
        monkeypatch.setattr(analysis_mod, "_BAND_CELLS", per_block * on_path)
        sizes.clear()
        res = shortest_paths(pm(adj))
        assert sum(sizes) == int(starts.sum())  # each source searched once
        assert all(size <= per_block for size in sizes)
        want = min_power_distances(adj)
        assert np.array_equal(res.distances, want)
        ecc, radius, diameter, close, reach = _geodesic_metrics_from_copy(want)
        assert np.array_equal(res.eccentricity, ecc, equal_nan=True)
        assert np.array_equal(res.closeness, close, equal_nan=True)
        assert np.array_equal(res.reach_counts, reach) and res.reach_counts.dtype == reach.dtype
        assert (res.radius, res.diameter) == (radius, diameter)
        # the reached pairs, row-major with sorted columns
        off = want.copy()
        np.fill_diagonal(off, np.inf)
        rows, cols = np.nonzero(np.isfinite(off))
        assert np.array_equal(res.hops.indptr, np.append(0, np.cumsum(reach)))
        assert np.array_equal(res.hops.indices, cols)
        assert np.array_equal(res.hops.data, off[rows, cols])
    assert kinds == {"isolated", "sink", "source", "loop"}


def test_hop_counts_past_255_are_stored_exactly():
    # a 300-vertex chain: the hop count type must hold 299
    res = shortest_paths(pm(np.eye(300, k=1, dtype=np.int64)))
    assert res.diameter == 299 and res.eccentricity[0] == 299
    assert int(res.hops[0, 299]) == 299 and int(res.hops.data.max()) == 299


def test_reached_pairs_refused_past_limit(monkeypatch):
    import pathweave.analysis as analysis_mod

    search = analysis_mod._search_block
    calls = []

    def recorded(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(analysis_mod, "_search_block", recorded)
    monkeypatch.setattr(analysis_mod, "DENSIFY_LIMIT", 21)
    # a 7-cycle: each vertex reaches the 6 others of its strong component,
    # 42 pairs, so the lower bound refuses before any search
    cycle = np.roll(np.eye(7, dtype=np.int64), 1, axis=1)
    with pytest.raises(AnalysisError, match=r"order-7 matrix reach at least 42 pairs; .* 21$"):
        shortest_paths(pm(cycle))
    assert calls == []
    # a 7-vertex chain reaches 21 pairs, where no component bounds any
    chain = np.eye(7, k=1, dtype=np.int64)
    assert shortest_paths(pm(chain)).hops.nnz == 21
    # an 8-vertex chain reaches 28: one source a block, the running count
    # 7, 13, 18, 22 passes the limit in the fourth block
    monkeypatch.setattr(analysis_mod, "_BAND_CELLS", 8)
    calls.clear()
    with pytest.raises(AnalysisError, match=r"order-8 matrix reach at least 22 pairs"):
        shortest_paths(pm(np.eye(8, k=1, dtype=np.int64)))
    assert len(calls) == 4


# -- pagerank ------------------------------------------------------------------


def test_pagerank_three_cycle_uniform():
    adj = np.zeros((3, 3), dtype=np.int64)
    adj[0, 1] = adj[1, 2] = adj[2, 0] = 1
    pi = pagerank(pm(adj), PageRankConfig(delta=0.85, epsilon=1e-12))
    assert np.allclose(pi, 1 / 3, atol=1e-9)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_pagerank_single_edge_matches_dense_oracle():
    z = np.zeros((2, 2))
    z[0, 1] = 1.0
    merged = dense_pagerank_matrix(z, 0.85)
    expected = dense_power_iteration(merged, 1e-14)
    pi = pagerank(pm(z), PageRankConfig(delta=0.85, epsilon=1e-14))
    assert np.allclose(pi, expected, atol=1e-9)


def test_pagerank_matches_oracle_on_random_graphs(rng):
    for _ in range(50):
        n = int(rng.integers(2, 21))
        z = random_digraph(rng, n, density=0.35, weighted=True)
        delta = float(rng.uniform(0.5, 0.95))
        pi = pagerank(pm(z), PageRankConfig(delta=delta, epsilon=1e-13, max_iters=20000))
        oracle = dense_power_iteration(dense_pagerank_matrix(z, delta), 1e-13)
        assert np.allclose(pi, oracle, atol=1e-9)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert (pi > 0).all()


def test_pagerank_delta_one_on_aperiodic_strongly_connected():
    # cycle plus a self-loop: irreducible and aperiodic, so pure P1 converges
    adj = np.zeros((4, 4))
    for i in range(4):
        adj[i, (i + 1) % 4] = 1.0
    adj[0, 0] = 1.0
    pi = pagerank(pm(adj), PageRankConfig(delta=1.0, epsilon=1e-13, max_iters=50000))
    oracle = dense_power_iteration(dense_pagerank_matrix(adj, 1.0), 1e-13)
    assert np.allclose(pi, oracle, atol=1e-9)


def test_pagerank_merged_matrix_row_stochastic(rng):
    for _ in range(25):
        n = int(rng.integers(2, 15))
        z = random_digraph(rng, n, density=0.25, weighted=True)
        merged = pagerank_matrix(pm(z), 0.85)
        assert np.allclose(merged.sum(axis=1), 1.0, atol=1e-12)


def test_pagerank_nonconvergence_reports_residual():
    # uniform start is far from stationary here, so two iterations cannot
    # reach a 1e-15 residual
    adj = np.zeros((3, 3), dtype=np.int64)
    adj[0, 1] = adj[1, 0] = adj[1, 2] = adj[2, 0] = 1
    with pytest.raises(AnalysisError, match="residual"):
        pagerank(pm(adj), PageRankConfig(delta=0.85, epsilon=1e-15, max_iters=2))


def test_pagerank_config_validation():
    with pytest.raises(AnalysisError):
        PageRankConfig(delta=0.0)
    with pytest.raises(AnalysisError):
        PageRankConfig(delta=1.2)
    with pytest.raises(AnalysisError):
        PageRankConfig(epsilon=0.0)


def test_nan_parameters_are_refused():
    # NaN fails every comparison, so a `< 0` test would let it through
    with pytest.raises(AnalysisError, match="epsilon"):
        PageRankConfig(epsilon=float("nan"))
    z = pm(np.array([[0, 1], [1, 0]], dtype=np.int64))
    with pytest.raises(AnalysisError, match="threshold"):
        spreading_activation(z, np.array([1.0, 0.0]), steps=1, threshold=float("nan"))


# -- spreading activation ---------------------------------------------------------


def test_spread_zero_steps_returns_seed():
    z = pm(np.eye(3, dtype=np.int64))
    seed = np.array([1.0, 0.5, 0.0])
    assert np.array_equal(spreading_activation(z, seed, steps=0), seed)


def test_spread_matches_dense_power_oracle(rng):
    for _ in range(30):
        n = int(rng.integers(2, 10))
        z = random_digraph(rng, n, density=0.6, weighted=True) + np.eye(n)
        seed = rng.random(n)
        got = spreading_activation(pm(z), seed, steps=5, decay=1.0, threshold=0.0)
        want = dense_spread(z, seed, steps=5, decay=1.0, threshold=0.0)
        assert np.allclose(got, want, atol=1e-9)


def test_spread_threshold_suppresses_everything():
    z = pm(np.ones((3, 3), dtype=np.int64))
    seed = np.array([1.0, 0.0, 0.0])
    got = spreading_activation(pm(np.ones((3, 3), dtype=np.int64)), seed, 4, 1.0, 10.0)
    assert np.array_equal(got, seed)


def test_spread_decay_and_threshold_against_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(3, 9))
        z = random_digraph(rng, n, density=0.5, weighted=True)
        seed = rng.random(n)
        got = spreading_activation(pm(z), seed, steps=4, decay=0.7, threshold=0.05)
        want = dense_spread(z, seed, steps=4, decay=0.7, threshold=0.05)
        assert np.allclose(got, want, atol=1e-9)


# -- assortativity ------------------------------------------------------------------


def test_perfectly_assortative():
    # two components whose edges stay inside equal property values
    z = np.zeros((4, 4), dtype=np.int64)
    z[0, 1] = z[1, 0] = 1
    z[2, 3] = z[3, 2] = 1
    values = np.array([1.0, 1.0, 2.0, 2.0])
    assert assortativity_scalar(pm(z), values) == pytest.approx(1.0, abs=1e-12)


def test_perfectly_disassortative():
    # complete bipartite 2x2 between property values -1 and +1
    z = np.zeros((4, 4), dtype=np.int64)
    for i in (0, 1):
        for j in (2, 3):
            z[i, j] = 1
            z[j, i] = 1
    values = np.array([-1.0, -1.0, 1.0, 1.0])
    assert assortativity_scalar(pm(z), values) == pytest.approx(-1.0, abs=1e-12)


def test_weighted_scalar_matches_straight_line_oracle(rng):
    for _ in range(100):
        n = 6
        z = random_digraph(rng, n, density=0.5, weighted=True)
        if not z.any():
            continue
        values = rng.random(n) * 10
        entries = [(i, j, z[i, j]) for i, j in zip(*np.nonzero(z))]
        want = weighted_scalar_r(entries, values, values)
        got = assortativity_scalar(pm(z), values)
        assert got == pytest.approx(want, abs=1e-12)


def test_boolean_reduces_to_unweighted_edge_formula(rng):
    checked = 0
    while checked < 50:
        n = int(rng.integers(3, 10))
        z = random_digraph(rng, n, density=0.4)
        values = np.round(rng.random(n) * 5, 3)
        edges = list(zip(*np.nonzero(z)))
        if len(edges) < 2:
            continue
        tails = np.array([values[i] for i, _ in edges])
        heads = np.array([values[j] for _, j in edges])
        if tails.var() < 1e-9 or heads.var() < 1e-9:
            continue
        want = unweighted_scalar_r(edges, values, values)
        got = assortativity_scalar(pm(z), values)
        assert got == pytest.approx(want, abs=1e-12)
        checked += 1


def test_scalar_errors():
    with pytest.raises(AnalysisError, match="empty"):
        assortativity_scalar(PathMatrix.zeros(3), np.ones(3))
    z = np.zeros((3, 3), dtype=np.int64)
    z[0, 1] = 1
    with pytest.raises(AnalysisError, match="degenerate"):
        assortativity_scalar(pm(z), np.ones(3))


def test_scalar_values_must_be_numbers():
    z = np.zeros((3, 3), dtype=np.int64)
    z[0, 1] = z[1, 2] = 1
    for values in (["a", "b", "c"], [{}, 1.0, 2.0]):
        with pytest.raises(AnalysisError, match="numbers"):
            assortativity_scalar(pm(z), values)


def _entry_list(z):
    """(i, j, w) per nonzero entry, with Python numbers as weights so that
    the oracles' sums cannot wrap."""
    return [(i, j, z[i, j].item()) for i, j in zip(*np.nonzero(z))]


# Vertex 3 only starts paths, vertex 4 only ends them, vertex 5 is on none.
_ENDPOINTS = np.zeros((6, 6))
_ENDPOINTS[0, 1], _ENDPOINTS[1, 2], _ENDPOINTS[2, 0] = 2.0, 1.0, 3.0
_ENDPOINTS[3, 1], _ENDPOINTS[2, 4], _ENDPOINTS[1, 0] = 0.5, 1.5, 1.0
_VALUES = [0.3, 1.7, 2.2, 4.1, 9.9, 5.0]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("vertex", [3, 4], ids=["tail", "head"])
def test_scalar_non_finite_value_on_endpoint_raises(vertex, bad):
    values = list(_VALUES)
    values[vertex] = bad
    with pytest.raises(AnalysisError, match="missing"):
        assortativity_scalar(pm(_ENDPOINTS), values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scalar_non_finite_value_off_every_path_is_accepted(bad):
    values = list(_VALUES)
    want = weighted_scalar_r(_entry_list(_ENDPOINTS), values, values)
    values[5] = bad
    got = assortativity_scalar(pm(_ENDPOINTS), values)
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(assortativity_scalar(pm(_ENDPOINTS), _VALUES), abs=1e-12)


def _both_match_oracles(z, matrix, values, labels):
    entries = _entry_list(z)
    got = assortativity_scalar(matrix, values)
    assert got == pytest.approx(weighted_scalar_r(entries, values, values), abs=1e-12)
    got = assortativity_categorical(matrix, labels)
    assert got == pytest.approx(categorical_r(entries, labels, labels), abs=1e-12)


def test_coefficients_read_unsorted_and_complement_matrices(rng):
    checked = 0
    while checked < 30:
        n = 7
        z = random_digraph(rng, n, density=0.5, weighted=True)
        b = random_digraph(rng, n, density=0.6)
        values = (rng.random(n) * 10).tolist()
        labels = [("a", "b", "c")[k] for k in rng.integers(0, 3, size=n)]
        if any(len({labels[i] for i in np.flatnonzero(m.any(0) | m.any(1))}) < 2 for m in (z, b)):
            continue  # one category on the paths: degenerate
        # the product by the identity emits each row's columns in reverse
        unsorted = matmul(pm(z), PathMatrix.identity(n))
        assert not unsorted.mat.has_sorted_indices
        _both_match_oracles(z, unsorted, values, labels)
        complement = not_(pm(1 - b))
        assert complement.complement
        _both_match_oracles(b, complement, values, labels)
        checked += 1


def test_coefficients_sum_huge_counts_in_float():
    # within category x, the int64 sum of the weights would wrap past 2**63
    big = 2**62 + 2**61
    z = np.zeros((4, 4), dtype=np.int64)
    z[0, 1], z[1, 0], z[0, 0] = big, big - 7, big + 3
    z[2, 3], z[3, 2], z[1, 2] = 5, 2**40, 2**62
    inside = z[:2, :2].ravel()
    assert int(inside.sum()) != sum(inside.tolist())  # the wrap the coefficients must not make
    _both_match_oracles(z, pm(z), [1.0, 2.5, 3.0, 7.0], ["x", "x", "y", "y"])


def test_categorical_within_one_of_two_categories():
    z = np.zeros((4, 4), dtype=np.int64)
    z[0, 1] = z[1, 0] = 1
    z[2, 3] = z[3, 2] = 1
    labels = ["x", "x", "y", "y"]
    assert assortativity_categorical(pm(z), labels) == pytest.approx(1.0, abs=1e-12)


def test_categorical_balanced_bipartite_is_minus_one():
    # all weight crosses two balanced categories: r = (0 - 0.5)/(1 - 0.5)
    z = np.zeros((4, 4), dtype=np.int64)
    for i in (0, 1):
        for j in (2, 3):
            z[i, j] = 1
            z[j, i] = 1
    labels = ["x", "x", "y", "y"]
    assert assortativity_categorical(pm(z), labels) == pytest.approx(-1.0, abs=1e-12)


def test_categorical_matches_straight_line_oracle(rng):
    cats = ["a", "b", "c"]
    for _ in range(100):
        n = 7
        z = random_digraph(rng, n, density=0.5, weighted=True)
        if not z.any():
            continue
        labels = [cats[int(k)] for k in rng.integers(0, 3, size=n)]
        entries = [(i, j, z[i, j]) for i, j in zip(*np.nonzero(z))]
        want = categorical_r(entries, labels, labels)
        got = assortativity_categorical(pm(z), labels)
        assert got == pytest.approx(want, abs=1e-12)


def test_categorical_single_category_degenerate():
    z = np.zeros((3, 3), dtype=np.int64)
    z[0, 1] = 1
    with pytest.raises(AnalysisError, match="one category"):
        assortativity_categorical(pm(z), ["same"] * 3)


def test_scale_invariance(rng):
    from pathweave.kernels import scale

    for _ in range(25):
        n = 6
        z = random_digraph(rng, n, density=0.5, weighted=True)
        if not z.any():
            continue
        values = rng.random(n) * 3
        labels = [("u", "v")[int(k)] for k in rng.integers(0, 2, size=n)]
        base = pm(z)
        lam = float(rng.uniform(0.1, 9.0))
        scaled = scale(base, lam)
        assert assortativity_scalar(base, values) == pytest.approx(
            assortativity_scalar(scaled, values), abs=1e-12
        )
        try:
            c1 = assortativity_categorical(base, labels)
        except AnalysisError:
            continue
        assert c1 == pytest.approx(assortativity_categorical(scaled, labels), abs=1e-12)


def test_categorical_missing_label_off_every_path_is_accepted():
    z = np.zeros((5, 5), dtype=np.int64)
    z[0, 1] = z[1, 0] = 1
    z[2, 3] = z[3, 2] = 1
    labels = ["x", "x", "y", "y", None]  # vertex 4 is on no path
    assert assortativity_categorical(pm(z), labels) == pytest.approx(1.0, abs=1e-12)


class _EqualsNone:
    """A label that compares equal to None and hashes like it, but is not
    None: a category, not a missing label."""

    def __eq__(self, other):
        return other is None or isinstance(other, _EqualsNone)

    def __hash__(self):
        return hash(None)


@pytest.mark.parametrize("none_first", [True, False])
def test_categorical_only_none_itself_is_missing(none_first):
    # vertex 4, on no path, is None; vertices 2 and 3 hold a label equal to
    # None, so it shares None's code, yet they are on paths and not missing
    z = np.zeros((5, 5), dtype=np.int64)
    z[0, 1] = z[1, 0] = z[2, 3] = z[3, 2] = z[0, 2] = 1
    same = _EqualsNone()
    labels = ["x", "x", same, same, None]
    if none_first:
        z, labels = z[::-1, ::-1].copy(), labels[::-1]
    plain = [a if a is not same else "y" for a in labels]
    assert assortativity_categorical(pm(z), labels) == assortativity_categorical(pm(z), plain)


@pytest.mark.parametrize("endpoint", [(0, 4), (4, 0)], ids=["head", "tail"])
def test_categorical_missing_label_on_endpoint_raises(endpoint):
    z = np.zeros((5, 5), dtype=np.int64)
    z[0, 1] = z[2, 3] = 1
    z[endpoint] = 1
    with pytest.raises(AnalysisError, match="missing"):
        assortativity_categorical(pm(z), ["x", "x", "y", "y", None])


def test_categorical_integer_labels_match_string_labels(rng):
    z = random_digraph(rng, 12, density=0.4, weighted=True)
    codes = rng.integers(0, 3, size=12).tolist()
    names = [f"c{c}" for c in codes]
    assert assortativity_categorical(pm(z), codes) == assortativity_categorical(pm(z), names)


def test_categorical_wrong_label_count_raises():
    z = np.zeros((3, 3), dtype=np.int64)
    z[0, 1] = 1
    for labels in (["x", "y"], ["x", "y", "x", "y"]):
        with pytest.raises(AnalysisError, match="one value per vertex"):
            assortativity_categorical(pm(z), labels)


def test_categorical_weighted_n200_matches_straight_line_oracle(rng):
    n = 200
    z = random_digraph(rng, n, density=0.1, weighted=True)
    labels = [("a", "b", "c", "d")[k] for k in rng.integers(0, 4, size=n)]
    entries = [(i, j, z[i, j]) for i, j in zip(*np.nonzero(z))]
    want = categorical_r(entries, labels, labels)
    assert assortativity_categorical(pm(z), labels) == pytest.approx(want, abs=1e-12)


def test_dense_analyses_refuse_before_allocating():
    import tracemalloc

    from pathweave.kernels import DENSIFY_LIMIT

    z = PathMatrix.zeros(8000)
    assert 8000 * 8000 > DENSIFY_LIMIT
    tracemalloc.start()
    try:
        res = shortest_paths(z)
        with pytest.raises(AnalysisError, match=r"order-8000 .*\(512000000 bytes\)"):
            res.distances
        with pytest.raises(AnalysisError, match=r"order-8000 .*\(512000000 bytes\)"):
            pagerank_matrix(z, 0.85)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # a dense 8000 x 8000 float64 would be 512 MB
