import importlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from pathweave import kernels
from pathweave.errors import EvalError
from pathweave.evaluate import _KERNELS, EvalPlan, _tensor_leaf, evaluate, plan, run
from pathweave.expr import (
    Hadamard,
    MatMul,
    SliceRef,
    Transpose,
    children,
    format_expr,
    parse,
    postorder,
    walk,
)
from pathweave.tensor import MultiRelTensor, ingest_triples

from conftest import FIXTURE1_TRIPLES
from oracles import count_typed_paths, dense_reference_eval, marko_query_answers
from util import random_expr, random_tensor

# the module itself: the package's `evaluate` is the function
evaluate_module = importlib.import_module("pathweave.evaluate")

MARKO_QUERY = (
    "clip( ((C(marko) & A[authored]') . A[authored] & I)"
    " . (A[cites] & not(vout(C(marko) & A[authored]')'))"
    " & vin(R(joi) & A[contains]) )"
)


def entries_by_name(z, tensor):
    d = z.to_dense()
    names = tensor.vertices.names
    out = {}
    for i, j in zip(*np.nonzero(d)):
        out[(names[i], names[j])] = float(d[i, j])
    return out


def test_has_cited(fixture1):
    z = evaluate(parse("A[authored] . A[cites] . A[authored]'"), fixture1)
    expected = count_typed_paths(
        FIXTURE1_TRIPLES, [("authored", False), ("cites", False), ("authored", True)]
    )
    assert entries_by_name(z, fixture1) == {k: float(v) for k, v in expected.items()}
    assert entries_by_name(z, fixture1) == {("h1", "h2"): 1.0}


def test_coauthorship(fixture1):
    z = evaluate(parse("A[authored] . A[authored]' & not(I)"), fixture1)
    expected = {
        k: float(v)
        for k, v in count_typed_paths(
            FIXTURE1_TRIPLES, [("authored", False), ("authored", True)]
        ).items()
        if k[0] != k[1]
    }
    assert entries_by_name(z, fixture1) == expected
    assert entries_by_name(z, fixture1) == {("h1", "h2"): 1.0, ("h2", "h1"): 1.0}


def test_unknown_label_and_vertex(fixture1):
    with pytest.raises(EvalError, match="knows"):
        evaluate(parse("A[knows]"), fixture1)
    with pytest.raises(EvalError, match="nobody"):
        evaluate(parse("R(nobody) & A[cites]"), fixture1)


def count_calls(monkeypatch):
    """A Counter of the calls, by name, that evaluation makes to each kernel
    and to `MultiRelTensor.matrix`, which loads a slice."""
    calls = Counter()

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, call)

    for name in (*_KERNELS.values(), "materialize_filter"):
        counted(kernels, name)
    counted(MultiRelTensor, "matrix")
    return calls


@pytest.mark.parametrize(
    "src,want",
    [
        # criterion 03's target: the journal mask is one subtree, used twice
        (
            "(vout(C(socsci) & A[category]) & A[contains]) . A[cites] "
            ". (vout(C(socsci) & A[category]) & A[contains])'",
            dict(matrix=3, materialize_filter=1, hadamard=2, vertex_out=1, matmul=2, transpose=1),
        ),
        ("A[authored] . A[authored]'", dict(matrix=1, transpose=1, matmul=1)),
    ],
    ids=["journal-reuse", "coauthor"],
)
def test_each_distinct_subtree_is_computed_once(monkeypatch, src, want):
    rng = np.random.default_rng(31)
    labels = ("authored", "cites", "contains", "category")
    names = [f"v{i}" for i in range(11)] + ["socsci"]
    tensor = random_tensor(rng, 12, labels=labels, density=0.3, names=names)
    e = parse(src)
    calls = count_calls(monkeypatch)
    for use_plan in (True, False):
        calls.clear()
        z = evaluate(e, tensor, use_plan=use_plan)
        # a factored root builds its product when first read
        dense = z.to_dense()
        assert dict(calls) == want
        assert np.array_equal(dense, dense_reference_eval(e, tensor))


def random_scholarly_tensor(rng, n_extra=12):
    """FIXTURE-1-style tensor containing marko, joi, and random scholarly edges."""
    n_humans = int(rng.integers(2, 5))
    n_articles = int(rng.integers(3, max(4, n_extra)))
    n_journals = int(rng.integers(1, 3))
    humans = ["marko"] + [f"h{i}" for i in range(1, n_humans)]
    articles = [f"a{i}" for i in range(n_articles)]
    journals = ["joi"] + [f"j{i}" for i in range(1, n_journals)]
    triples = []
    for h in humans:
        for a in articles:
            if rng.random() < 0.4:
                triples.append((h, "authored", a))
    for a in articles:
        for b in articles:
            if a != b and rng.random() < 0.3:
                triples.append((a, "cites", b))
    for j in journals:
        for a in articles:
            if rng.random() < 0.5:
                triples.append((j, "contains", a))
    # every label the query references must exist in the tensor
    triples.append(("marko", "authored", articles[0]))
    triples.append((articles[0], "cites", articles[-1]))
    triples.append(("joi", "contains", articles[-1]))
    return ingest_triples(triples), triples


def test_marko_query_matches_set_comprehension(rng):
    expr = parse(MARKO_QUERY)
    for _ in range(60):
        tensor, triples = random_scholarly_tensor(rng)
        z = evaluate(expr, tensor)
        assert z.is_boolean()
        d = z.to_dense()
        names = tensor.vertices.names
        got = {names[j] for j in set(np.nonzero(d)[1])}
        assert got == marko_query_answers(triples, "marko", "joi")


def test_journal_anchored_query_variant(rng):
    """A query variant ending with a contained-in-journal product factor:
    its nonzero rows are the citing articles and its only column the journal."""
    expr = parse(
        "clip( ((C(marko) & A[authored]') . A[authored] & I)"
        " . (A[cites] & not(vout(C(marko) & A[authored]')'))"
        " . (C(joi) & A[contains]') )"
    )
    for _ in range(30):
        tensor, triples = random_scholarly_tensor(rng)
        d = evaluate(expr, tensor).to_dense()
        names = tensor.vertices.names
        rows = {names[i] for i in set(np.nonzero(d)[0])}
        cols = {names[j] for j in set(np.nonzero(d)[1])}
        answers = marko_query_answers(triples, "marko", "joi")
        marko_articles = {h for t, l, h in triples if l == "authored" and t == "marko"}
        cites = {(t, h) for t, l, h in triples if l == "cites"}
        expected_rows = {x for x in marko_articles if any((x, y) in cites for y in answers)}
        assert rows == expected_rows
        assert cols == ({"joi"} if expected_rows else set())


def test_plan_equivalence_500_random_pairs(rng):
    labels = ("alpha", "beta")
    for trial in range(500):
        n = int(rng.integers(2, 10))
        names = [f"v{i}" for i in range(n)]
        tensor = random_tensor(rng, n=n, labels=labels, names=names)
        e = random_expr(rng, labels, names, depth=5)
        with_plan = evaluate(e, tensor, use_plan=True).to_dense()
        without = evaluate(e, tensor, use_plan=False).to_dense()
        assert np.array_equal(
            np.asarray(with_plan, dtype=float), np.asarray(without, dtype=float)
        ), trial


def test_plan_monotone_cost(rng):
    labels = ("alpha", "beta", "gamma")
    for _ in range(100):
        tensor = random_tensor(rng, labels=labels)
        e = random_expr(rng, labels, tensor.vertices.names, depth=5)
        p = plan(e, tensor)
        assert p.est_flops <= p.naive_flops + 1e-9


def test_plan_steps_deepest_level_first():
    # the reference order: nodes sorted by (depth, path), reversed
    rng = np.random.default_rng(7)
    labels = ("alpha", "beta")
    for _ in range(200):
        tensor = random_tensor(rng, labels=labels)
        e = random_expr(rng, labels, tensor.vertices.names, depth=6)
        p = plan(e, tensor)
        ordered = sorted(walk(p.tree), key=lambda pn: (len(pn[0]), pn[0]), reverse=True)
        expected = [
            (type(node).__name__.lower() if children(node) else "load", format_expr(node))
            for _, node in ordered
        ]
        assert [(s.op, s.detail) for s in p.steps] == expected


def test_plan_keeps_written_association():
    # alpha has a single edge; beta and gamma are dense: (A . B) . C would be
    # the cheaper order, but products evaluate in the association written
    n = 12
    dense_pairs = np.array([(i, j) for i in range(n) for j in range(n)])
    tensor = MultiRelTensor.from_edges(
        n,
        {
            "alpha": (np.array([0]), np.array([1])),
            "beta": (dense_pairs[:, 0], dense_pairs[:, 1]),
            "gamma": (dense_pairs[:, 0], dense_pairs[:, 1]),
        },
    )
    right_first = MatMul(SliceRef("alpha"), MatMul(SliceRef("beta"), SliceRef("gamma")))
    p = plan(right_first, tensor)
    assert p.tree == right_first
    assert p.est_flops == p.naive_flops


def test_long_product_chain_plans():
    # a 3-cycle: every third power of the slice is the identity
    tensor = ingest_triples([("x", "cites", "y"), ("y", "cites", "z"), ("z", "cites", "x")])
    chain = parse(" . ".join(["A[cites]"] * 1500))
    p = plan(chain, tensor)
    # equal trees are one object, so `is` compares them in O(1); the
    # renderings must agree too
    assert p.tree is chain
    assert format_expr(p.tree) == format_expr(chain)
    planned = evaluate(chain, tensor).to_dense()
    assert np.array_equal(planned, evaluate(chain, tensor, use_plan=False).to_dense())
    assert np.array_equal(planned, np.eye(3))


def test_deep_chain_plans_in_bounded_memory():
    # step texts render when read: all 5999 of them up front hold O(k^2)
    # characters for a k-factor chain (55 MB at k = 3000)
    tensor = ingest_triples([("x", "cites", "y"), ("y", "cites", "z"), ("z", "cites", "x")])
    chain = parse(" . ".join(["A[cites]"] * 3000))
    tracemalloc.start()
    try:
        p = plan(chain, tensor)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6
    assert [s.detail for s in p.steps[:2]] == ["A[cites]", "A[cites]"]
    assert p.steps[-1].detail == format_expr(chain)
    assert p.naive_flops == p.est_flops


def test_plan_rejects_unknown_vertex(fixture1):
    for text in ("A[cites] & R(nobody)", "C(nobody) & A[cites]", "E(a1,nobody) . A[cites]"):
        with pytest.raises(EvalError, match="unknown vertex name 'nobody'"):
            plan(parse(text), fixture1)


def test_evaluate_estimates_nothing(monkeypatch, fixture1):
    # no plan choice reads the estimates, so evaluation must not make them
    def refuse(node, kids, tensor):
        raise AssertionError(f"evaluation estimated {node!r}")

    rng = np.random.default_rng(2626)
    labels = ("alpha", "beta", "gamma")
    cases = [(parse("A[authored] . A[authored]' & not(I)"), fixture1)]
    for _ in range(200):
        n = int(rng.integers(2, 11))
        names = [f"v{i}" for i in range(n)]
        tensor = random_tensor(rng, n=n, labels=labels, names=names)
        cases.append((random_expr(rng, labels, names, depth=6), tensor))
    monkeypatch.setattr(evaluate_module, "_estimate", refuse)
    for trial, (e, tensor) in enumerate(cases):
        planned = np.asarray(evaluate(e, tensor).to_dense(), dtype=float)
        unplanned = np.asarray(evaluate(e, tensor, use_plan=False).to_dense(), dtype=float)
        want = np.asarray(dense_reference_eval(e, tensor), dtype=float)
        assert np.allclose(planned, want, rtol=0, atol=1e-9), (trial, e)
        assert np.allclose(unplanned, want, rtol=0, atol=1e-9), (trial, e)


def test_plan_estimates_once_when_read(monkeypatch, fixture1):
    estimated = Counter()
    real = evaluate_module._estimate

    def counted(node, kids, tensor):
        estimated[node] += 1
        return real(node, kids, tensor)

    monkeypatch.setattr(evaluate_module, "_estimate", counted)
    # A[authored] and not(I) are shared subtrees
    src = (
        "A[authored] . A[cites] . A[authored]' "
        "& not(clip(A[authored] . A[authored]' & not(I))) & not(I)"
    )
    p = plan(parse(src), fixture1)
    assert not estimated
    steps = p.steps
    assert p.steps is steps
    assert p.est_flops == sum(step.est_flops for step in steps)
    # one fold: each distinct node of the planned tree once
    assert estimated == Counter(postorder(p.tree))
    assert len(steps) == sum(1 for _ in walk(p.tree))


def test_chain_ties_keep_written_order():
    # permutation matrices: every row and column profile is 1, so every
    # association of the chain has the same estimate
    n = 4
    perm = lambda shift: (np.arange(n), (np.arange(n) + shift) % n)
    tensor = MultiRelTensor.from_edges(n, {"p": perm(1), "q": perm(2), "r": perm(3)})
    written = parse("A[p] . A[q] . A[r]")
    assert written == MatMul(MatMul(SliceRef("p"), SliceRef("q")), SliceRef("r"))
    p = plan(written, tensor)
    assert p.tree == written
    assert p.est_flops == p.naive_flops


def test_single_slice_identity_plan(fixture1):
    p = plan(parse("A[cites]"), fixture1)
    assert isinstance(p, EvalPlan)
    assert p.tree == SliceRef("cites")
    assert [s.op for s in p.steps] == ["load"]


def test_plan_keeps_complement_unmaterialized(fixture1):
    p = plan(parse("A[authored] . A[authored]' & not(I)"), fixture1)
    reprs = {s.detail: s.repr for s in p.steps}
    assert reprs["not(I)"] == "complement"
    assert p.tree == parse("A[authored] . A[authored]' & not(I)")


def _evaluated_repr(node, tensor):
    return "complement" if run(node, _tensor_leaf(tensor)).complement else "sparse"


def test_plan_reprs_are_the_evaluated_representations(fixture1):
    # the complement of a complement is sparse: each of these was labelled
    # complement
    for text in ("not(ONES)", "not(not(A[authored]))", "not(not(I))"):
        p = plan(parse(text), fixture1)
        assert p.steps[-1].repr == "sparse" == _evaluated_repr(p.tree, fixture1)
    rng = np.random.default_rng(7)
    for _ in range(200):
        t = random_tensor(rng)
        e = random_expr(rng, t.labels, [f"v{i}" for i in range(t.n)], 5)
        for step in plan(e, t).steps:
            assert step.repr == _evaluated_repr(step.node, t), step.detail


def test_filter_push_into_product(fixture1):
    p = plan(parse("(A[authored] . A[cites]) & R(h1)"), fixture1)
    assert p.tree == parse("(A[authored] & R(h1)) . A[cites]")
    assert np.array_equal(
        evaluate(parse("(A[authored] . A[cites]) & R(h1)"), fixture1).to_dense(),
        evaluate(parse("(A[authored] & R(h1)) . A[cites]"), fixture1, use_plan=False).to_dense(),
    )


def test_simplified_tree_evaluates_identically(fixture1):
    from pathweave.rewrite import simplify

    src = parse(
        "A[authored] . A[cites] . A[authored]' "
        "& not(clip(A[authored] . A[authored]' & not(I))) & not(I)"
    )
    out, _ = simplify(src)
    assert np.array_equal(
        evaluate(src, fixture1).to_dense(), evaluate(out, fixture1).to_dense()
    )


@pytest.mark.parametrize("use_plan", [True, False], ids=["planned", "unplanned"])
def test_long_merge_evaluates(fixture1, use_plan):
    merged = evaluate(parse(" + ".join(["A[cites]"] * 500)), fixture1, use_plan=use_plan)
    single = evaluate(parse("A[cites]"), fixture1)
    assert np.array_equal(merged.to_dense(), 500 * single.to_dense())


@pytest.mark.parametrize(
    "wrap",
    [Transpose, lambda e: Hadamard(e, SliceRef("cites"))],
    ids=["transpose", "hadamard"],
)
def test_deep_chain_evaluates_planned(fixture1, wrap):
    deep = SliceRef("cites")
    for _ in range(3000):
        deep = wrap(deep)
    p = plan(deep, fixture1)
    # equal trees are one object, so `is` compares them in O(1); the
    # renderings must agree too
    assert p.tree is deep
    assert format_expr(p.tree) == format_expr(deep)
    assert len(p.steps) == (3001 if wrap is Transpose else 6001)
    # an even number of transposes, or cites masked by itself, is cites
    cites = fixture1.matrix("cites").to_dense()
    assert np.array_equal(evaluate(deep, fixture1).to_dense(), cites)
