import itertools
import math
from functools import reduce

import numpy as np
import pytest

from pathweave import expr
from pathweave.expr import (
    Add,
    Clip,
    Filter,
    Hadamard,
    MatMul,
    Not,
    children,
    fold,
    format_expr,
    node_count,
    parse,
    replace_at,
    weighted_cost,
    with_children,
)
from pathweave.evaluate import evaluate, verify_rule
from pathweave import rewrite
from pathweave.rewrite import (
    RULES,
    RULES_BY_NAME,
    EVar,
    RewriteRule,
    SVar,
    derivation_table,
    simplify,
)

from util import random_bool_expr, random_expr, random_tensor

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


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_every_rule_is_sound(rule):
    assert verify_rule(rule, trials=25, rng=np.random.default_rng(101))


# Rules the table once held in a second operand order of `&` or `+`, with a
# concrete instance of each one's left- and right-hand side. Commutative
# matching must reach every one from the rules that remain.
ORIENTATION_TWINS = {
    "had-unit-comm": ("ONES & A[cites] . A[cites]", "A[cites] . A[cites]"),
    "had-zero-comm": ("ZERO & A[cites] . A[cites]", "ZERO"),
    "had-factor-left": (
        "A[cites] & A[authored] + A[cites] & A[contains]",
        "A[cites] & (A[authored] + A[contains])",
    ),
    "had-scalar-out-left": ("2.0 * A[cites] & A[authored]", "2.0 * (A[cites] & A[authored])"),
    "had-transpose-fuse-swap": ("A[cites]' & A[authored]'", "(A[authored] & A[cites])'"),
    "had-not-zero-comm": ("not(A[cites]) & A[cites]", "ZERO"),
    "clip-split-boolean-left": (
        "clip(A[cites] & A[authored] . A[cites])",
        "A[cites] & clip(A[authored] . A[cites])",
    ),
    "not-masked-comm": (
        "not(A[authored] & A[cites]) & A[authored]",
        "not(A[cites]) & A[authored]",
    ),
    "not-masked-right": (
        "A[authored] & not(A[cites] & A[authored])",
        "A[authored] & not(A[cites])",
    ),
    "not-masked-right-comm": (
        "A[authored] & not(A[authored] & A[cites])",
        "A[authored] & not(A[cites])",
    ),
    "col-row-entry": ("C(a3) & R(h1)", "E(h1,a3)"),
    "vout-entry-vin": ("vout(E(h1,a3)) & vin(E(h1,a3))", "E(h1,a3)"),
    "vout-row-mask-comm": (
        "vout(R(h1) & A[authored] . A[cites], 1)",
        "vout(A[authored] . A[cites], 1) & R(h1)",
    ),
    "vin-col-mask-comm": (
        "vin(C(a3) & A[authored] . A[cites], 1)",
        "vin(A[authored] . A[cites], 1) & C(a3)",
    ),
    "add-zero-comm": ("ZERO + A[cites] . A[cites]", "A[cites] . A[cites]"),
}


def _unordered(e) -> str:
    """Rendering with the operands of every `&` and `+` in sorted order."""

    def visit(node, kids):
        if isinstance(node, (Hadamard, Add)):
            kids = tuple(sorted(kids, key=format_expr))
        return with_children(node, kids)

    return format_expr(fold(e, visit))


@pytest.mark.parametrize("name", sorted(ORIENTATION_TWINS))
def test_deleted_orientation_twin_is_reached(name, fixture1):
    lhs, rhs = (parse(src) for src in ORIENTATION_TWINS[name])
    assert name not in RULES_BY_NAME
    # the table itself is sound
    assert np.array_equal(evaluate(lhs, fixture1).to_dense(), evaluate(rhs, fixture1).to_dense())
    successors = {_unordered(new) for rule in RULES if rule.search for new in rule.apply(lhs)}
    assert _unordered(rhs) in successors


def test_rule_names_are_unique():
    # the planner looks its rules up by name, and a reverse declared with
    # `back=` must not shadow another rule
    assert len(RULES_BY_NAME) == len(RULES)


def test_wrong_rule_is_rejected():
    # n(A o B) = n(A) o n(B) is false: A = 0, B = 1 gives lhs 1, rhs 0
    wrong = RewriteRule(
        "bad-demorgan",
        "not distributive over hadamard (false)",
        Not(Hadamard(EVar("a", boolean=True), EVar("b", boolean=True))),
        Hadamard(Not(EVar("a")), Not(EVar("b"))),
    )
    assert not verify_rule(wrong, trials=50)


def test_prop1_exhaustive_and_prop3_random():
    assert verify_rule(RULES_BY_NAME["clip-split"], trials=0)
    assert verify_rule(RULES_BY_NAME["demorgan-or"], trials=1000)


@pytest.mark.parametrize(
    "src,target",
    [
        (SELF_LOOP_SRC, SELF_LOOP_TARGET),
        (JOURNAL_SRC, JOURNAL_TARGET),
        (MERGE_SRC, MERGE_TARGET),
        # the complementary pair sits two operands apart
        ("A[x] & E(a,b) & A[y] & not(E(a,b))", "ZERO"),
        # the two transposes are the first and last operands of the merge
        ("A[x]' + A[z] + A[y]'", "(A[x] + A[y])' + A[z]"),
        # filter products: distinct names are distinct vertices
        ("E(a,b) & R(c)", "ZERO"),
        ("E(a,b) & R(a)", "E(a,b)"),
        ("E(a,b) & C(b)", "E(a,b)"),
        ("E(a,b) & E(a,c)", "ZERO"),
        ("I & R(a)", "E(a,a)"),
        ("I & E(a,b)", "ZERO"),
        ("I & E(a,a)", "E(a,a)"),
    ],
    ids=[
        "self-loop-filter",
        "journal-reuse",
        "weighted-merge",
        "and-chain",
        "merge-chain",
        "entry-row-zero",
        "entry-row",
        "entry-col",
        "entry-entry-zero",
        "identity-row",
        "identity-entry-zero",
        "identity-entry",
    ],
)
def test_reaches_canonical_forms(src, target):
    start = parse(src)
    out, trace = simplify(start)
    assert out == parse(target), format_expr(out)
    assert trace.replay(start) == out
    assert len(trace) > 0
    for step in trace.steps:
        assert step.rule and step.cite


def test_every_filter_product_is_one_filter():
    # every pair of filter kinds, under every pattern of equal vertex names
    # a 3-vertex model holds: a filter keeps the cells with i = a, j = b or
    # i = j, so the product of two is one filter
    t = random_tensor(np.random.default_rng(3), n=3)
    filters = [
        Filter(kind, *names)
        for kind, count in expr.FILTER_KINDS.items()
        for names in itertools.product(("v0", "v1", "v2"), repeat=count)
    ]
    for f, g in itertools.product(filters, repeat=2):
        e = Hadamard(f, g)
        out, trace = simplify(e)
        assert isinstance(out, Filter), format_expr(e)
        assert np.array_equal(evaluate(out, t).to_dense(), evaluate(e, t).to_dense())
        assert trace.replay(e) == out


def test_trace_replays(rng):
    for src in (SELF_LOOP_SRC, JOURNAL_SRC, MERGE_SRC):
        start = parse(src)
        out, trace = simplify(start)
        assert trace.replay(start) == out
    labels, names = ["alpha", "beta"], ["v0", "v1", "v2"]
    for _ in range(100):
        start = random_expr(rng, labels, names, depth=5)
        out, trace = simplify(start)
        assert trace.replay(start) == out


def test_derivation_table_cites_rules():
    start = parse(SELF_LOOP_SRC)
    out, trace = simplify(start)
    rows = derivation_table(start, trace)
    assert rows[0][0] == format_expr(start)
    assert rows[-1][0] == format_expr(out)
    assert all(just for _, just in rows[1:])


def test_cost_never_increases(rng):
    labels, names = ["alpha", "beta", "gamma"], ["v0", "v1"]
    for _ in range(200):
        e = random_expr(rng, labels, names, depth=5)
        out, _ = simplify(e)
        assert weighted_cost(out) <= weighted_cost(e)


def test_global_soundness_500_random_expressions(rng):
    labels = ("alpha", "beta")
    for trial in range(500):
        n = int(rng.integers(2, 13))
        names = [f"v{i}" for i in range(n)]
        tensor = random_tensor(rng, n=n, labels=labels, names=names)
        e = random_expr(rng, labels, names, depth=6)
        out, _ = simplify(e)
        before = evaluate(e, tensor, use_plan=False).to_dense().astype(float)
        after = evaluate(out, tensor, use_plan=False).to_dense().astype(float)
        if before.dtype.kind == "i" and after.dtype.kind == "i":
            assert np.array_equal(before, after), trial
        else:
            assert np.allclose(before, after, rtol=0, atol=1e-9), trial


def test_budget_is_node_count_squared():
    e = parse(SELF_LOOP_SRC)
    # generous expression: budget must not exceed node_count^2 applications
    out, trace = simplify(e)
    assert out == parse(SELF_LOOP_TARGET)
    assert len(trace) <= node_count(e) ** 2


def test_scale_factors_are_not_fused_into_an_overflow():
    # the fused factor would be inf, which prints as a name that does not parse
    e = parse("1e200 * 1e200 * A[x]")
    out, _ = simplify(e)
    assert out is e and parse(format_expr(out)) is out
    assert simplify(parse("1e100 * 1e100 * A[x]"))[0] is parse("1e200 * A[x]")


def test_simplify_matches_each_subtree_once(monkeypatch):
    calls = {}
    apply = RewriteRule.apply

    def counting(self, e):
        calls[(self.name, e)] = calls.get((self.name, e), 0) + 1
        return apply(self, e)

    monkeypatch.setattr(RewriteRule, "apply", counting)
    start = parse(SELF_LOOP_SRC)
    out, trace = simplify(start)
    assert calls and max(calls.values()) == 1
    # the memo must not change what the search finds, nor how it gets there
    assert out == parse(SELF_LOOP_TARGET)
    assert [(s.rule, s.path, s.before, s.after) for s in trace.steps] == [
        (rule, path, parse(before), parse(after))
        for rule, path, before, after in (
            (
                "clip-split-boolean",
                (0, 1, 0),
                "clip(A[authored] . A[authored]' & not(I))",
                "clip(A[authored] . A[authored]') & not(I)",
            ),
            (
                "not-masked",
                (),
                "A[authored] . A[cites] . A[authored]' "
                "& not(clip(A[authored] . A[authored]') & not(I)) & not(I)",
                SELF_LOOP_TARGET,
            ),
        )
    ]
    assert trace.replay(start) == out


def test_no_searched_rule_reassociates():
    # the search regroups chains itself; the laws stay verified, by
    # test_every_rule_is_sound
    assert "had-assoc-left" not in RULES_BY_NAME
    assert not RULES_BY_NAME["had-assoc"].search
    assert not RULES_BY_NAME["add-assoc"].search


def test_self_loop_query_expands_few_expressions(monkeypatch):
    expansions = []
    single_steps = rewrite._single_steps

    def counting(e, *args):
        expansions.append(e)
        return single_steps(e, *args)

    monkeypatch.setattr(rewrite, "_single_steps", counting)
    out, trace = simplify(parse(SELF_LOOP_SRC))
    assert out == parse(SELF_LOOP_TARGET)
    assert len(trace) == 2
    assert len(expansions) <= 20


def _top_fits(rule, node) -> bool:
    """Whether `node` and its direct children have the type, and at a filter
    the kind, that `rule`'s lhs names there, in either operand order at `&`
    and `+`; a metavariable takes anything."""

    def shape(x):
        if isinstance(x, EVar):
            return None
        return ("filter", x.kind) if isinstance(x, Filter) else type(x)

    need = [shape(x) for x in (rule.lhs, *children(rule.lhs))]
    have = [shape(x) for x in (node, *children(node))]
    orders = [have, [have[0], have[2], have[1]]] if isinstance(node, (Hadamard, Add)) else [have]
    return any(
        len(need) == len(order) and all(n is None or n == s for n, s in zip(need, order))
        for order in orders
    )


def test_rules_are_tried_only_where_their_top_fits(monkeypatch, rng):
    calls, met = [], []
    apply, root_rewrites = RewriteRule.apply, rewrite._root_rewrites

    def recording(self, e):
        calls.append((self, e))
        return apply(self, e)

    def meeting(node, *args):
        met.append(node)
        return root_rewrites(node, *args)

    monkeypatch.setattr(RewriteRule, "apply", recording)
    monkeypatch.setattr(rewrite, "_root_rewrites", meeting)
    labels, names = ["alpha", "beta"], ["v0", "v1"]
    for _ in range(80):
        simplify(random_expr(rng, labels, names, depth=5))
    monkeypatch.undo()
    assert calls
    assert not [(rule.name, format_expr(e)) for rule, e in calls if not _top_fits(rule, e)]
    # nothing is lost: each searched rule that rewrites a node the search met
    # is one the index offers for it
    searched = [rule for rule in RULES if rule.search]
    for node in set(met):
        offered = rewrite._root_rules(node)
        for rule in searched:
            if any(new != node for new in rule.apply(node)):
                assert rule in offered, (rule.name, format_expr(node))


@pytest.mark.parametrize("op", [Hadamard, Add], ids=["&", "+"])
def test_pair_rewrites_match_every_ordered_pair(op, rng):
    # the oracle rewrites each ordered pair of operands as one node with
    # every searched rule rooted at the chain's operator
    labels, names = ["alpha", "beta"], ["v0", "v1"]
    rules = [rule for rule in RULES if rule.search and type(rule.lhs) is op]
    kinds = (random_bool_expr, random_expr)
    found = 0
    for _ in range(40):
        operands = [
            kinds[int(rng.integers(0, 2))](rng, labels, names, int(rng.integers(0, 3)))
            for _ in range(int(rng.integers(3, 13)))
        ]
        chain = reduce(op, operands)
        operands = rewrite._operands(op, chain)
        expected = set()
        for rule in rules:
            for i, left in enumerate(operands):
                for j, right in enumerate(operands):
                    if i != j:
                        for new in rule.apply(op(left, right)):
                            expected.add((rule.name, min(i, j), max(i, j), new))
        got = rewrite._pair_rewrites(op, operands)
        for rule, at, drop, result, change in got:
            assert (rule.name, at, drop, result) in expected
            assert change == weighted_cost(result) - weighted_cost(op(operands[at], operands[drop]))
        # each pair rewrite the oracle finds leads to a successor that
        # `_pair_rewrites` also reaches (it keeps one of several rewrites
        # that only drop the same operand)
        successors = {rewrite._regrouped(op, operands, *step[1:4]) for step in got}
        assert successors == {rewrite._regrouped(op, operands, *step[1:]) for step in expected}
        found += len(got)
    assert found > 40


def test_long_chain_pairs_are_joined_not_enumerated(monkeypatch):
    # 150 operands have 11175 pairs; matching each rule side against each
    # operand alone stays far below one match per pair and rule. Each side
    # is matched through `match`; rules matched at a node's root call their
    # compiled lhs directly
    calls = [0]
    count_from = rewrite.match

    def counting(*args):
        calls[0] += 1
        return count_from(*args)

    monkeypatch.setattr(rewrite, "match", counting)
    operands = ("A[l{}]", "R(v{})", "C(v{})", "I", "ONES")
    e = parse(" + ".join(operands[k % 5].format(k % 7) for k in range(150)))
    out, trace = simplify(e)
    assert trace.replay(e) == out
    assert 0 < calls[0] <= 25_000


def test_tied_candidates_are_measured_not_rendered(monkeypatch):
    # 400 candidates tie at the lowest cost here, each a tree of about 300
    # nodes; their lengths come from each node's children's, so the printer
    # sees a handful of node shapes, not every candidate
    rendered = [0]
    format_node = expr.format_node

    def counting(*args):
        rendered[0] += 1
        return format_node(*args)

    monkeypatch.setattr(expr, "format_node", counting)
    operands = ("A[l{}]", "R(v{})", "C(v{})", "I", "ONES")
    e = parse(" & ".join(operands[k % 5].format(k % 7) for k in range(150)))
    out, trace = simplify(e)
    assert rendered[0] <= 300
    assert trace.replay(e) is out
    assert weighted_cost(out) < weighted_cost(e)


@pytest.mark.parametrize(
    "op, operands", [("+", 600), ("&", 600), ("+", 3000), ("&", 3000), (".", 3000)]
)
def test_long_chains_simplify(op, operands):
    # each raised a bare RecursionError, from hashing the input as deep as
    # it nests; interned nodes hash in O(1) and `replace_at` keeps a stack
    e = parse(f" {op} ".join(f"A[l{k}]" for k in range(operands)))
    out, trace = simplify(e)
    assert trace.replay(e) is out
    assert weighted_cost(out) <= weighted_cost(e)


def test_identity_leaves_a_long_product_chain():
    # the rewrite sits 2998 levels down, so replaying and printing it
    # rebuild that whole path
    factors = [f"A[l{k}]" for k in range(2999)]
    e = parse(" . ".join(["I", *factors]))
    out, trace = simplify(e)
    assert out is parse(" . ".join(factors))
    assert [(step.rule, step.path) for step in trace.steps] == [
        ("matmul-identity-left", (0,) * 2998)
    ]
    assert trace.replay(e) is out
    assert derivation_table(e, trace)[-1][0] == format_expr(out)


# -- the search's steps against the walk they replace -----------------------------


def _reference_match(pat, e, bnd):
    """`match` as a recursive generator over the pattern: the subject's
    operands as written, then swapped at `&` and `+`."""
    if isinstance(pat, EVar):
        if pat.name in bnd:
            if bnd[pat.name] is e:
                yield bnd
        elif not pat.boolean or e._boolean:
            yield {**bnd, pat.name: e}
        return
    if type(pat) is not type(e):
        return
    for field in type(pat)._scalars:
        p, v = getattr(pat, field), getattr(e, field)
        if isinstance(p, SVar):
            if p.name not in bnd:
                bnd = {**bnd, p.name: v}
                continue
            p = bnd[p.name]
        if p != v:
            return
    orders = [children(e)]
    if isinstance(e, (Hadamard, Add)):
        orders.append(children(e)[::-1])
    for kids in orders:
        partial = [bnd]
        for sub, kid in zip(children(pat), kids):
            partial = [b for part in partial for b in _reference_match(sub, kid, part)]
        yield from partial


def _walked_steps(e):
    """Every single step of `e` as the search listed them by walking the
    tree: in preorder, each node's root rewrites, then at the top node of an
    `&` or `+` chain its pair rewrites; each successor rebuilt from the root
    by `replace_at`."""
    out = []
    stack = [(e, None, ())]
    while stack:
        node, parent, path = stack.pop()
        steps = list(rewrite._root_rewrites(node))
        op = type(node)
        if op in (Hadamard, Add) and parent is not op:
            operands = rewrite._operands(op, node)
            for rule, at, drop, result, change in rewrite._pair_rewrites(op, operands):
                steps.append((rule, rewrite._regrouped(op, operands, at, drop, result), change))
        for rule, after, change in steps:
            out.append((rule, path, node, after, change, replace_at(e, path, after)))
        kids = children(node)
        for k in reversed(range(len(kids))):
            stack.append((kids[k], op, path + (k,)))
    return out


def _listed_steps(e, memo, slack=math.inf):
    """Every single step of `e` within `slack` as `simplify` reads them."""
    out = []
    for change, successor, k, i in rewrite._single_steps(e, slack, memo):
        rule, path, before, after = rewrite._locate(e, k, i, memo)
        out.append((rule, path, before, after, change, successor))
    return out


def _step_trees(rng):
    """Random trees, trees that share subtrees, and `&`, `+` and `.` chains
    (alone, nested in each other and under a unary node)."""
    labels, names = ["alpha", "beta"], ["v0", "v1"]
    trees = [random_expr(rng, labels, names, depth=5) for _ in range(40)]
    for _ in range(15):
        x = random_expr(rng, labels, names, depth=3)
        y = random_bool_expr(rng, labels, names, depth=2)
        trees += [MatMul(x, x), Hadamard(x, Hadamard(y, x)), Add(Hadamard(x, y), Hadamard(y, x))]
    for op in (Hadamard, Add, MatMul):
        for _ in range(5):
            operands = [
                (random_bool_expr if rng.random() < 0.5 else random_expr)(
                    rng, labels, names, int(rng.integers(0, 3))
                )
                for _ in range(int(rng.integers(3, 10)))
            ]
            chain = reduce(op, operands)
            trees += [chain, Clip(chain), Add(chain, Hadamard(chain, operands[0]))]
    return trees


def test_listed_steps_are_the_walked_steps(rng):
    # the same steps in the same order, whatever the memo holds: each tree
    # is read with a fresh memo, then again after some of its successors
    # were read through the same memo, as the search reads them
    checked = 0
    for e in _step_trees(rng):
        walked = _walked_steps(e)
        memo = rewrite._Memo()
        assert _listed_steps(e, memo) == walked
        for step in walked[:4]:
            successor = step[-1]
            assert _listed_steps(successor, memo) == _walked_steps(successor)
        assert _listed_steps(e, memo) == walked
        # a finite slack drops the dearer steps and keeps the order
        assert _listed_steps(e, rewrite._Memo(), slack=0) == [s for s in walked if s[4] <= 0]
        checked += len(walked)
    assert checked > 500


def test_compiled_matchers_match_the_reference(rng):
    # every rule side, in the order and with the bindings of the recursive
    # matcher, on every subtree of random trees
    labels, names = ["alpha", "beta"], ["v0", "v1"]
    sides = [rule.lhs for rule in RULES]
    sides += [side for rule in RULES for side in children(rule.lhs) if not isinstance(side, EVar)]
    found = 0
    for _ in range(60):
        e = random_expr(rng, labels, names, depth=5)
        for node in expr.postorder(e):
            for side in sides:
                want = list(_reference_match(side, node, {}))
                assert rewrite.match(side, node, {}) == want
                found += len(want)
    assert found > 1000


def test_unary_tower_costs_quadratic_builds(monkeypatch):
    # every rewrite of a clip tower gives the same tree, one clip shorter.
    # Rebuilding each from the root made the search cubic in the depth; a
    # successor below the root is built once and read after, so doubling
    # the depth about quadruples the nodes built
    build = expr.build
    counts = []
    for depth in (100, 200):
        e = parse("clip(" * depth + "A[x]" + ")" * depth)
        target = parse("A[x]")
        calls = [0]

        def counting(*args):
            calls[0] += 1
            return build(*args)

        monkeypatch.setattr(expr, "build", counting)
        monkeypatch.setattr(rewrite, "build", counting)
        out, trace = simplify(e)
        monkeypatch.undo()
        assert out is target and len(trace) == depth
        counts.append(calls[0])
    assert counts[1] <= 4.2 * counts[0]
