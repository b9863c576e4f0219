"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run under pytest, or directly (`python3 tests/test_acceptance.py`) for the
line-per-criterion summary. Tolerances are pinned here and nowhere else:
exact equality for integer pipelines, 1e-12 for weighted merges and mixing
coefficients, 1e-9 for iterative solvers, wall-clock and memory budgets on
the performance criterion.
"""

import resource
import sys
import time

import numpy as np

from pathweave.analysis import PageRankConfig, pagerank, pagerank_matrix, shortest_paths
from pathweave.evaluate import evaluate
from pathweave.expr import format_expr, parse
from pathweave.kernels import PathMatrix, scale
from pathweave.rewrite import simplify
from pathweave.tensor import MultiRelTensor, ingest_triples

from oracles import (
    categorical_r,
    dense_pagerank_matrix,
    dense_power_iteration,
    marko_query_answers,
    min_power_distances,
    weighted_scalar_r,
)
from test_identities import (
    run_distributivity_triples,
    run_filter_identities,
    run_pairwise_boolean_identities,
    run_random_real_identities,
    run_vertex_identities,
)
from util import random_expr, random_tensor


def _report(num, text):
    print(f"ACCEPTANCE {num:02d} {text}: PASS")


SELF_LOOP_SRC = (
    "A[authored] . A[cites] . A[authored]' "
    "& not(clip(A[authored] . A[authored]' & not(I))) & not(I)"
)
SELF_LOOP_TARGET = (
    "A[authored] . A[cites] . A[authored]' & not(clip(A[authored] . A[authored]')) & not(I)"
)
JOURNAL_SRC = (
    "(vout(C(socsci) & A[category]) & A[contains]) . A[cites] "
    ". (A[contains]' & vin(R(socsci) & A[category]'))"
)
JOURNAL_TARGET = (
    "(vout(C(socsci) & A[category]) & A[contains]) . A[cites] "
    ". (vout(C(socsci) & A[category]) & A[contains])'"
)
MERGE_SRC = (
    "0.6 * (A[authored] . A[authored]' & not(I)) + "
    "0.4 * (A[developed] . A[developed]' & not(I))"
)
MERGE_TARGET = (
    "(0.6 * (A[authored] . A[authored]') + 0.4 * (A[developed] . A[developed]')) & not(I)"
)
MARKO_QUERY = (
    "clip( ((C(marko) & A[authored]') . A[authored] & I)"
    " . (A[cites] & not(vout(C(marko) & A[authored]')'))"
    " & vin(R(joi) & A[contains]) )"
)


def test_criterion_01_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    assert run_pairwise_boolean_identities() == 256
    assert run_distributivity_triples() == 4096
    run_filter_identities()
    run_vertex_identities(rng, trials=200)
    assert run_random_real_identities(rng, trials=1000) == 1000
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"identity suite took {elapsed:.1f}s"
    _report(1, f"exhaustive identity suite in {elapsed:.1f}s")


def test_criterion_02_self_loop_filter_derivation():
    rng = np.random.default_rng(2)
    src, target = parse(SELF_LOOP_SRC), parse(SELF_LOOP_TARGET)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        tensor = random_tensor(rng, n=n, labels=("authored", "cites"))
        a = evaluate(src, tensor, use_plan=False).to_dense()
        b = evaluate(target, tensor, use_plan=False).to_dense()
        assert np.array_equal(a, b)
    simplified, trace = simplify(src)
    assert simplified == target, format_expr(simplified)
    assert len(trace) > 0 and all(step.rule and step.cite for step in trace.steps)
    _report(2, "single self-loop filter suffices; rewriter reproduces it")


def test_criterion_03_journal_reuse_derivation():
    rng = np.random.default_rng(3)
    src, target = parse(JOURNAL_SRC), parse(JOURNAL_TARGET)
    for _ in range(100):
        n = int(rng.integers(3, 13))
        names = [f"v{i}" for i in range(n - 1)] + ["socsci"]
        tensor = random_tensor(
            rng, n=n, labels=("cites", "contains", "category"), names=names
        )
        a = evaluate(src, tensor, use_plan=False).to_dense()
        b = evaluate(target, tensor, use_plan=False).to_dense()
        assert np.array_equal(a, b)
    simplified, _ = simplify(src)
    assert simplified == target, format_expr(simplified)
    _report(3, "journal-citation computation reuse; rewriter reproduces it")


def test_criterion_04_weighted_merge_derivation():
    rng = np.random.default_rng(4)
    src, target = parse(MERGE_SRC), parse(MERGE_TARGET)
    for _ in range(100):
        n = int(rng.integers(2, 13))
        tensor = random_tensor(rng, n=n, labels=("authored", "developed"))
        a = evaluate(src, tensor, use_plan=False).to_dense()
        b = evaluate(target, tensor, use_plan=False).to_dense()
        assert np.allclose(a, b, rtol=0, atol=1e-12)
    simplified, _ = simplify(src)
    assert simplified == target, format_expr(simplified)
    _report(4, "weighted merge factors through a single self-loop filter")


def _random_scholarly(rng):
    n_humans = int(rng.integers(2, 6))
    n_articles = int(rng.integers(3, 18))
    n_journals = int(rng.integers(1, 4))
    humans = ["marko"] + [f"h{i}" for i in range(1, n_humans)]
    articles = [f"a{i}" for i in range(n_articles)]
    journals = ["joi"] + [f"j{i}" for i in range(1, n_journals)]
    triples = []
    for h in humans:
        for a in articles:
            if rng.random() < 0.35:
                triples.append((h, "authored", a))
    for a in articles:
        for b in articles:
            if a != b and rng.random() < 0.25:
                triples.append((a, "cites", b))
    for j in journals:
        for a in articles:
            if rng.random() < 0.45:
                triples.append((j, "contains", a))
    triples.append(("marko", "authored", articles[0]))
    triples.append((articles[0], "cites", articles[-1]))
    triples.append(("joi", "contains", articles[-1]))
    tensor = ingest_triples(triples)
    assert tensor.n <= 30
    return tensor, triples


def test_criterion_05_query_equivalence():
    rng = np.random.default_rng(5)
    expr = parse(MARKO_QUERY)
    for _ in range(50):
        tensor, triples = _random_scholarly(rng)
        z = evaluate(expr, tensor)
        assert z.is_boolean()
        dense = z.to_dense()
        names = tensor.vertices.names
        got = {names[j] for j in set(np.nonzero(dense)[1])}
        assert got == marko_query_answers(triples, "marko", "joi")
    _report(5, "pattern-match query equals the set-comprehension oracle")


def test_criterion_06_rewriter_global_soundness():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    labels = ("alpha", "beta")
    for trial in range(500):
        n = int(rng.integers(2, 13))
        names = [f"v{i}" for i in range(n)]
        tensor = random_tensor(rng, n=n, labels=labels, names=names)
        e = random_expr(rng, labels, names, depth=6)
        out, _ = simplify(e)
        before = evaluate(e, tensor, use_plan=False)
        after = evaluate(out, tensor, use_plan=False)
        da, db = before.to_dense(), after.to_dense()
        if before.dtype.kind == "i" and after.dtype.kind == "i":
            assert np.array_equal(da, db), trial
        else:
            assert np.allclose(
                np.asarray(da, dtype=float), np.asarray(db, dtype=float), rtol=0, atol=1e-9
            ), trial
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"soundness sweep took {elapsed:.1f}s"
    _report(6, f"500 random expressions simplify soundly in {elapsed:.1f}s")


def test_criterion_07_pagerank():
    rng = np.random.default_rng(7)
    cycle = np.zeros((3, 3), dtype=np.int64)
    cycle[0, 1] = cycle[1, 2] = cycle[2, 0] = 1
    pi = pagerank(PathMatrix.from_dense(cycle), PageRankConfig(delta=0.85, epsilon=1e-12))
    assert np.allclose(pi, 1 / 3, atol=1e-9)
    for _ in range(50):
        n = int(rng.integers(2, 21))
        z = rng.random((n, n)) * (rng.random((n, n)) < 0.3)
        pmz = PathMatrix.from_dense(z)
        delta = float(rng.uniform(0.5, 0.95))
        merged = pagerank_matrix(pmz, delta)
        assert np.allclose(merged.sum(axis=1), 1.0, atol=1e-12)
        got = pagerank(pmz, PageRankConfig(delta=delta, epsilon=1e-13, max_iters=50000))
        want = dense_power_iteration(dense_pagerank_matrix(z, delta), 1e-13)
        assert np.allclose(got, want, atol=1e-9)
        assert abs(got.sum() - 1.0) < 1e-12
    _report(7, "merged matrix row-stochastic; power iteration matches oracle")


def test_criterion_08_shortest_paths():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 13))
        adj = (rng.random((n, n)) < float(rng.uniform(0.1, 0.5))).astype(np.int64)
        res = shortest_paths(PathMatrix.from_dense(adj))
        assert np.array_equal(res.distances, min_power_distances(adj))
        off = res.distances.copy()
        np.fill_diagonal(off, np.inf)
        for i in range(n):
            finite = off[i][np.isfinite(off[i])]
            if finite.size:
                assert res.eccentricity[i] == finite.max()
                assert np.isclose(res.closeness[i], finite.mean())
                assert res.reach_counts[i] == finite.size
            else:
                assert np.isnan(res.eccentricity[i])
        finite_ecc = res.eccentricity[~np.isnan(res.eccentricity)]
        if finite_ecc.size:
            assert res.radius == finite_ecc.min()
            assert res.diameter == finite_ecc.max()
        else:
            assert res.radius is None and res.diameter is None
    _report(8, "BFS equals the min-positive-power definition; metrics consistent")


def test_criterion_09_assortativity():
    from pathweave.analysis import assortativity_categorical, assortativity_scalar

    rng = np.random.default_rng(9)
    z = np.zeros((4, 4), dtype=np.int64)
    z[0, 1] = z[1, 0] = z[2, 3] = z[3, 2] = 1
    r = assortativity_scalar(PathMatrix.from_dense(z), np.array([1.0, 1.0, 2.0, 2.0]))
    assert abs(r - 1.0) < 1e-12
    bip = np.zeros((4, 4), dtype=np.int64)
    for i in (0, 1):
        for j in (2, 3):
            bip[i, j] = bip[j, i] = 1
    r = assortativity_scalar(PathMatrix.from_dense(bip), np.array([-1.0, -1.0, 1.0, 1.0]))
    assert abs(r + 1.0) < 1e-12
    r = assortativity_categorical(PathMatrix.from_dense(bip), ["x", "x", "y", "y"])
    assert abs(r + 1.0) < 1e-12
    cats = ["a", "b", "c"]
    done = 0
    while done < 100:
        n = int(rng.integers(4, 9))
        z = rng.random((n, n)) * (rng.random((n, n)) < 0.4)
        if z.sum() == 0:
            continue
        entries = [(i, j, z[i, j]) for i, j in zip(*np.nonzero(z))]
        values = rng.random(n) * 10
        tails = np.array([values[i] for i, _, _ in entries])
        heads = np.array([values[j] for _, j, _ in entries])
        if tails.var() < 1e-9 or heads.var() < 1e-9:
            continue
        pmz = PathMatrix.from_dense(z)
        want = weighted_scalar_r(entries, values, values)
        got = assortativity_scalar(pmz, values)
        assert abs(got - want) < 1e-12
        labels = [cats[int(k)] for k in rng.integers(0, 3, size=n)]
        sij = sum(
            sum(w for i, _, w in entries if labels[i] == c) / z.sum()
            * sum(w for _, j, w in entries if labels[j] == c) / z.sum()
            for c in set(labels)
        )
        if 1 - sij > 1e-9:
            want_c = categorical_r(entries, labels, labels)
            got_c = assortativity_categorical(pmz, labels)
            assert abs(got_c - want_c) < 1e-12
            lam = float(rng.uniform(0.2, 8.0))
            assert abs(assortativity_categorical(scale(pmz, lam), labels) - got_c) < 1e-12
        lam = float(rng.uniform(0.2, 8.0))
        assert abs(assortativity_scalar(scale(pmz, lam), values) - got) < 1e-12
        done += 1
    _report(9, "mixing coefficients hit +/-1 fixtures, match oracles, scale invariant")


def test_criterion_10_performance_at_scale():
    rng = np.random.default_rng(10)
    n_humans = 50_000
    n_articles = 50_000
    n = n_humans + n_articles
    tails = rng.integers(0, n_humans, size=1_000_000)
    heads = n_humans + rng.integers(0, n_articles, size=1_000_000)
    tensor = MultiRelTensor.from_edges(n, {"authored": (tails, heads)})
    assert tensor.n == 100_000
    assert tensor.slice("authored").nnz > 950_000
    expr = parse("A[authored] . A[authored]' & not(I)")
    start = time.perf_counter()
    z = evaluate(expr, tensor)
    # the root is held factored: build the product inside the timed region
    product = z.explicit()
    elapsed = time.perf_counter() - start
    peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 / 1024
    assert elapsed < 30.0, f"evaluation took {elapsed:.1f}s"
    assert peak_gb < 2.0, f"peak rss {peak_gb:.2f} GB"
    assert z.value_nnz() > 0
    assert np.all(product.diagonal() == 0)
    _report(10, f"coauthorship on n=1e5, 1e6 edges: {elapsed:.1f}s, peak {peak_gb:.2f} GB")


if __name__ == "__main__":
    failures = 0
    for name, fn in sorted(
        (k, v) for k, v in globals().items() if k.startswith("test_criterion")
    ):
        try:
            fn()
        except AssertionError as err:
            failures += 1
            num = name.split("_")[2]
            print(f"ACCEPTANCE {num} {name}: FAIL ({err})")
    sys.exit(1 if failures else 0)
