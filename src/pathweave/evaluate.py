"""The tree interpreter: evaluation, planning, and rule verification.

Every walk over an expression runs on ``expr.fold`` or an explicit queue, so
depth is bounded by memory rather than the recursion limit. ``run`` is the
one mapping from operators to kernels: ``evaluate`` gives it a leaf resolver
for slices and name-addressed filters of a tensor, and ``verify_rule`` one
for pattern operands bound to concrete matrices and integer indices.
``fold`` visits each distinct subtree once, so ``run`` computes a shared
subtree once and hands its matrix to every parent, which is safe because
no kernel writes into an operand. The plan's steps and flop estimates
count every occurrence.

Every node but the root is computed as its kernel computes it. A root that
is a product of two stored int64 matrices, alone or under a mask whose
pattern lies on the diagonal (``& not(I)``, ``& not(E(v,v))``), is returned
factored (see ``kernels``): the analyses read it from its factors, and the
product is built only when something reads its stored matrix.

Planning moves masks and cannot change the result: a row (column) filter
applied to a product is pushed onto the left (right) factor, using the
planner-only commutations from the rule set. Products are evaluated in the
association written; the simplifier already writes chains left-associated.

The plan also records the representation each node will take, which is how
`not(I)`-style complements stay unmaterialized through an evaluation, and
each product's flops as estimated from nnz row/column profiles. Those
estimates are computed when first read (``EvalPlan.steps``, ``est_flops``,
``naive_flops``); ``plan`` itself only moves masks and checks every slice
label and filter vertex name, so ``evaluate``, which reads only the plan's
tree, estimates nothing.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .errors import EvalError
from .expr import (
    Add,
    Clip,
    Filter,
    Hadamard,
    MatMul,
    Not,
    Scale,
    SliceRef,
    Transpose,
    VIn,
    VOut,
    children,
    fold,
    format_expr,
    postorder,
    with_children,
)
from .rewrite import (
    RULES_BY_NAME,
    RewriteRule,
    _pattern_vars,
    instantiate,
)

# indexed by the product side each rule moves its mask onto
_PUSH_RULES = (RULES_BY_NAME["row-mask-into-product"], RULES_BY_NAME["col-mask-into-product"])

# operator -> kernel name; resolved on the kernels module at each call
_KERNELS = {
    MatMul: "matmul",
    Hadamard: "hadamard",
    Add: "add",
    Transpose: "transpose",
    Not: "not_",
    Clip: "clip",
    VOut: "vertex_out",
    VIn: "vertex_in",
    Scale: "scale",
}


def _root_product(e):
    """The product node that `e` may hold factored: `e` itself when it is a
    product, else the first product operand of a `&` at the root."""
    if isinstance(e, MatMul):
        return e
    if isinstance(e, Hadamard):
        return next((kid for kid in children(e) if isinstance(kid, MatMul)), None)
    return None


def run(e, leaf) -> kernels.PathMatrix:
    """Apply each operator's kernel bottom-up; `leaf(node)` maps every node
    that is not an operator to a path matrix. A root `X . Y`, or `X . Y`
    under a mask at the root, is kept factored where the kernels allow it
    (`kernels.factored_matmul`, `kernels.factored_mask`)."""
    product = _root_product(e)

    def visit(node, args):
        name = _KERNELS.get(type(node))
        if name is None:
            return leaf(node)
        if node is product:
            return kernels.factored_matmul(*args)
        if node is e and product is not None:
            return kernels.factored_mask(*args)
        params = (getattr(node, f) for f in type(node)._scalars)
        return getattr(kernels, name)(*args, *params)

    return fold(e, visit)


def _filter_spec(node: Filter, tensor) -> kernels.FilterSpec:
    def resolve(name):
        if name is None:
            return None
        idx = tensor.vertices.index.get(str(name))
        if idx is None:
            raise EvalError(f"unknown vertex name {name!r} in filter")
        return idx

    return kernels.FilterSpec(node.kind, resolve(node.a), resolve(node.b))


def _tensor_leaf(tensor):
    def leaf(node):
        if isinstance(node, SliceRef):
            return tensor.matrix(node.label)
        if isinstance(node, Filter):
            return kernels.materialize_filter(_filter_spec(node, tensor), tensor.n)
        raise EvalError(f"cannot evaluate {node!r}")

    return leaf


def evaluate(e, tensor, use_plan: bool = True) -> kernels.PathMatrix:
    """Evaluate an expression to a path matrix; identical with or without
    planning. A product root may come back factored (see `run`); its stored
    matrix is built when first read."""
    if use_plan:
        e = plan(e, tensor).tree
    return run(e, _tensor_leaf(tensor))


# -- planning -----------------------------------------------------------------


@dataclass(frozen=True)
class PlanStep:
    op: str
    node: object
    repr: str
    est_flops: float

    @cached_property
    def detail(self) -> str:
        """The step's subtree as text, rendered when first read: rendering
        every step up front holds O(depth^2) text for a deep tree."""
        return format_expr(self.node)


@dataclass(frozen=True)
class EvalPlan:
    """The tree `evaluate` runs, with masks on product factors. Its
    estimates are computed when first read: `steps` by one estimating fold
    over `tree`, which `est_flops` sums, and `naive_flops` by one over
    `source`. Reading only `tree` estimates nothing."""

    tree: object
    source: object = field(repr=False, compare=False)
    tensor: object = field(repr=False, compare=False)

    @cached_property
    def steps(self) -> tuple:
        """One step per node occurrence, deepest level first, each with its
        representation and the estimated flops of its own product."""
        # one fold estimates every distinct node, and the steps read each
        # node's estimate from it
        facts = {}

        def note(node, kids):
            facts[node] = fact = _estimate(node, kids, self.tensor)
            return fact

        fold(self.tree, note)
        # level order, left to right, then reversed: deepest level first
        order, queue = [], deque([self.tree])
        while queue:
            node = queue.popleft()
            order.append(node)
            queue.extend(children(node))
        steps = []
        for node in reversed(order):
            _, rep, est, _ = facts[node]
            op = type(node).__name__.lower() if children(node) else "load"
            steps.append(PlanStep(op, node, rep, est))
        return tuple(steps)

    @cached_property
    def est_flops(self) -> float:
        """Estimated flops of the planned tree: the sum over its steps."""
        return sum((step.est_flops for step in self.steps), 0.0)

    @cached_property
    def naive_flops(self) -> float:
        """Estimated flops of the expression as given."""
        return fold(self.source, lambda node, kids: _estimate(node, kids, self.tensor))[3]


def _repr_of(e, kids) -> str:
    """Fold visitor: the representation the kernels will choose for this
    node's value, given its children's."""
    if isinstance(e, Not):
        return "sparse" if kids[0] == "complement" else "complement"
    if isinstance(e, Filter) and e.kind == "ones":
        return "complement"
    if isinstance(e, (Transpose, Clip)):
        return kids[0]
    if isinstance(e, Hadamard):
        return "complement" if kids == ("complement", "complement") else "sparse"
    if isinstance(e, Scale):
        return kids[0] if e.coef == 1 else "sparse"
    return "sparse"


def _profile(e, kids, tensor):
    """Fold visitor: estimated per-row/per-column nonzero counts of this node,
    given its children's; never evaluated."""
    n = tensor.n
    if isinstance(e, SliceRef):
        mat = tensor.slice(e.label)
        rows = np.bincount(mat.tails, minlength=n).astype(float)
        cols = np.bincount(mat.heads, minlength=n).astype(float)
        return rows, cols
    if isinstance(e, Filter):
        spec = _filter_spec(e, tensor)
        rows = np.zeros(n)
        cols = np.zeros(n)
        if spec.kind == "row":
            rows[spec.i] = n
            cols[:] = 1.0
        elif spec.kind == "col":
            cols[spec.i] = n
            rows[:] = 1.0
        elif spec.kind == "entry":
            rows[spec.i] = 1.0
            cols[spec.j] = 1.0
        elif spec.kind == "identity":
            rows[:] = 1.0
            cols[:] = 1.0
        elif spec.kind == "ones":
            rows[:] = n
            cols[:] = n
        return rows, cols
    if isinstance(e, Transpose):
        rows, cols = kids[0]
        return cols, rows
    if isinstance(e, (Clip, Scale)):
        return kids[0]
    if isinstance(e, Not):
        rows, cols = kids[0]
        return n - rows, n - cols
    if isinstance(e, (VOut, VIn)):
        rows, cols = kids[0]
        if isinstance(e, VOut):
            selected = rows > 0
            return np.where(selected, float(n), 0.0), np.full(n, float(selected.sum()))
        selected = cols > 0
        return np.full(n, float(selected.sum())), np.where(selected, float(n), 0.0)
    if isinstance(e, Hadamard):
        (lr, lc), (rr, rc) = kids
        return np.minimum(lr, rr), np.minimum(lc, rc)
    if isinstance(e, Add):
        (lr, lc), (rr, rc) = kids
        return np.minimum(lr + rr, n), np.minimum(lc + rc, n)
    if isinstance(e, MatMul):
        return _product_profile(kids[0], kids[1], n)
    raise EvalError(f"cannot profile {e!r}")


def _product_profile(left, right, n):
    lrows, lcols = left
    rrows, rcols = right
    # a product row can hold at most one entry per nonzero column of the
    # right factor, and a column at most one per nonzero row of the left
    mean_right = max(float(rrows.sum()) / n if n else 0.0, 1.0)
    nz_cols_right = float((rcols > 0).sum())
    rows = np.where(
        lrows > 0, np.minimum(np.minimum(lrows * mean_right, nz_cols_right), n), 0.0
    )
    mean_left = max(float(lcols.sum()) / n if n else 0.0, 1.0)
    nz_rows_left = float((lrows > 0).sum())
    cols = np.where(
        rcols > 0, np.minimum(np.minimum(rcols * mean_left, nz_rows_left), n), 0.0
    )
    return rows, cols


def _pair_flops(left, right):
    lcols = left[1]
    rrows = right[0]
    return float(np.dot(lcols, rrows))


def _estimate(node, kids, tensor):
    """Fold visitor: the node's (profile, representation, estimated flops of
    its own product, estimated flops of its whole subtree as written)."""
    profile = _profile(node, [k[0] for k in kids], tensor)
    rep = _repr_of(node, tuple(k[1] for k in kids))
    own = _pair_flops(kids[0][0], kids[1][0]) if isinstance(node, MatMul) else 0.0
    return profile, rep, own, sum((k[3] for k in kids), 0.0) + own


def _sink_filter(node):
    """Apply the planner commutations at the root of `node`, whose children
    are already settled: a row (column) mask on a product moves onto its left
    (right) factor, and from there down that side of the chain."""
    spine = []
    while True:
        for side, rule in enumerate(_PUSH_RULES):
            outs = rule.apply(node)
            if outs:
                out = outs[0]
                break
        else:
            break
        spine.append((out, side))
        node = children(out)[side]
    for product, side in reversed(spine):
        kids = list(children(product))
        kids[side] = node
        node = with_children(product, tuple(kids))
    return node


def _push_filters(e):
    """Apply the planner commutations bottom-up: masking a product's rows or
    columns becomes masking the matching factor."""
    return fold(e, lambda node, kids: _sink_filter(with_children(node, kids)))


def plan(e, tensor) -> EvalPlan:
    """Move row and column masks onto product factors, and refuse an unknown
    slice label or filter vertex name; the estimates wait until read."""
    tree = _push_filters(e)
    for node in postorder(tree):
        if isinstance(node, SliceRef):
            tensor.slice(node.label)
        elif isinstance(node, Filter):
            _filter_spec(node, tensor)
    return EvalPlan(tree=tree, source=e, tensor=tensor)


# -- empirical rule verification ----------------------------------------------


def _pattern_leaf(n, operands):
    """Leaf resolver for an instantiated pattern: each matrix metavariable is
    bound to a slice named after it, which stands for its operand in
    `operands`, and filters carry integer indices."""

    def leaf(node):
        if isinstance(node, SliceRef):
            return operands[node.label]
        if isinstance(node, Filter):
            return kernels.materialize_filter(kernels.FilterSpec(node.kind, node.a, node.b), n)
        raise TypeError(f"cannot evaluate pattern node {node!r}")

    return leaf


def _sides_equal(rule, bnd, n) -> bool:
    operands = {name: v for name, v in bnd.items() if isinstance(v, kernels.PathMatrix)}
    bnd = {**bnd, **{name: SliceRef(name) for name in operands}}
    leaf = _pattern_leaf(n, operands)
    lhs = run(instantiate(rule.lhs, bnd), leaf).to_dense().astype(float)
    rhs = run(instantiate(rule.rhs, bnd), leaf).to_dense().astype(float)
    return np.allclose(lhs, rhs, rtol=0, atol=1e-9)


# how a scalar metavariable's value is drawn, by the field it fills, in draw
# order: a filter's vertex names, then thresholds, then scale factors
_DRAWS = (
    (("a", "b"), lambda n, rng: int(rng.integers(0, n))),
    (("p",), lambda n, rng: int(rng.integers(0, 3))),
    (("coef",), lambda n, rng: float(rng.choice([0.0, 0.5, 1.0, 2.0]))),
)


def verify_rule(rule: RewriteRule, trials: int = 200, rng=None) -> bool:
    """Empirical soundness: the two sides evaluate identically on random
    operands satisfying the guard; exhaustive over 2x2 boolean matrices when
    the pattern has at most two matrix metavariables."""
    rng = rng if rng is not None else np.random.default_rng(7)
    acc = _pattern_vars(rule.lhs)
    evars = [v for v, field in acc.values() if field is None]
    draws = [(name, draw) for fields, draw in _DRAWS for name, (_, f) in acc.items() if f in fields]

    def scalar_rounds(n, rng):
        return {name: draw(n, rng) for name, draw in draws}

    if len(evars) <= 2:
        mats = [
            kernels.PathMatrix.from_dense(np.array(bits, dtype=np.int64).reshape(2, 2))
            for bits in itertools.product((0, 1), repeat=4)
        ]
        n = 2
        for combo in itertools.product(mats, repeat=len(evars)):
            bnd = scalar_rounds(n, rng)
            for var, mat in zip(evars, combo):
                bnd[var.name] = mat
            if rule.guard is not None and not rule.guard(bnd):
                continue
            if not _sides_equal(rule, bnd, n):
                return False
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        bnd = scalar_rounds(n, rng)
        for var in evars:
            if var.boolean or rng.random() < 0.5:
                arr = (rng.random((n, n)) < 0.35).astype(np.int64)
            else:
                arr = rng.random((n, n)) * (rng.random((n, n)) < 0.35)
            bnd[var.name] = kernels.PathMatrix.from_dense(arr)
        if rule.guard is not None and not rule.guard(bnd):
            continue
        if not _sides_equal(rule, bnd, n):
            return False
    return True
