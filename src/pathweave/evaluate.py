"""The tree interpreter: evaluation, planning, and rule verification.

Every walk over an expression runs on ``expr.fold`` or an explicit queue, so
depth is bounded by memory rather than the recursion limit. ``run`` is the
one mapping from operators to kernels, and ``_resolve`` the one reading of
a leaf: a slice ``A[label]`` is the matrix the caller's lookup gives, and a
filter ``kernels.materialize_filter``'s, its vertex names mapped to indices.
``evaluate`` resolves through a tensor, ``verify_rule`` through pattern
operands bound to concrete matrices and integer indices. ``fold`` visits
each distinct subtree once, so ``run`` computes a shared subtree once and
hands its matrix to every parent, which is safe because no kernel writes
into an operand.

Every node but the root is computed as its kernel computes it. A root that
is a product of two stored int64 matrices, alone or under a mask whose
pattern lies on the diagonal (``& not(I)``, ``& not(E(v,v))``), is returned
factored (see ``kernels``): the analyses read it from its factors, and the
product is built only when something reads its stored matrix.

Planning moves masks and cannot change the result: a row (column) filter
applied to a product is pushed onto the left (right) factor, using the
planner-only commutations from the rule set. Products are evaluated in the
association written; the simplifier already writes chains left-associated.

The plan also estimates the flops of its products from nnz row/column
profiles, before and after moving masks (``EvalPlan.est_flops``,
``naive_flops``): a leaf's are the exact counts of the matrix ``_resolve``
gives it, and every other node's are estimated from its children's, so no
product is evaluated. A shared subtree is estimated once, and its
products count once per occurrence. The estimates are computed when first
read; ``plan`` only moves masks and looks up every slice label and filter
vertex name (``_lookup``, building nothing), so ``evaluate``, which reads
only the plan's tree, estimates nothing.
"""

from __future__ import annotations

import itertools
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


def _lookup(node, slices, index):
    """What leaf `node` names, looked up, not built: a slice `A[label]` is
    `slices(label)`, a filter its `kernels.FilterSpec` with each vertex name
    mapped through `index` (no `index`: the names are the indices). An
    unknown label, vertex name or filter raises EvalError."""
    if isinstance(node, SliceRef):
        return slices(node.label)
    if not isinstance(node, Filter):
        raise EvalError(f"cannot evaluate {node!r}")

    def vertex(name):
        if name is None or index is None:
            return name
        idx = index.get(str(name))
        if idx is None:
            raise EvalError(f"unknown vertex name {name!r} in filter")
        return idx

    return kernels.FilterSpec(node.kind, vertex(node.a), vertex(node.b))


def _resolve(node, slices, index, n) -> kernels.PathMatrix:
    """The one leaf resolver: the order-`n` matrix of what `_lookup` finds,
    a slice's as `slices` gives it and a filter's from the kernels."""
    found = _lookup(node, slices, index)
    if isinstance(found, kernels.FilterSpec):
        return kernels.materialize_filter(found, n)
    return found


def evaluate(e, tensor, use_plan: bool = True) -> kernels.PathMatrix:
    """Evaluate an expression to a path matrix; identical with or without
    planning. A product root may come back factored (see `run`); its stored
    matrix is built when first read."""
    if use_plan:
        e = plan(e, tensor).tree
    return run(e, lambda node: _resolve(node, tensor.matrix, tensor.vertices.index, tensor.n))


# -- planning -----------------------------------------------------------------


@dataclass(frozen=True)
class EvalPlan:
    """The tree `evaluate` runs, with masks on product factors. Its flop
    estimates are computed when first read, each by one estimating fold:
    `est_flops` over `tree` and `naive_flops` over `source`. Reading only
    `tree` estimates nothing."""

    tree: object
    source: object = field(repr=False, compare=False)
    tensor: object = field(repr=False, compare=False)

    @cached_property
    def est_flops(self) -> float:
        """Estimated flops of the planned tree."""
        return _flops(self.tree, self.tensor)

    @cached_property
    def naive_flops(self) -> float:
        """Estimated flops of the expression as given."""
        return _flops(self.source, self.tensor)


def _flops(e, tensor) -> float:
    """Estimated flops of the products in `e`, each counted once per
    occurrence: the fold estimates a shared subtree once, and every parent
    adds its subtree total."""
    return fold(e, lambda node, kids: _estimate(node, kids, tensor))[1]


def _profile(e, kids, tensor):
    """Fold visitor: per-row/per-column nonzero counts of this node, given
    its children's. A leaf's are the exact counts of the matrix `_resolve`
    gives it; every other node's are estimated, and never evaluated."""
    n = tensor.n
    if not kids:
        # a slice's held matrix, read past `tensor.matrix`, whose calls
        # the benchmark counts as evaluation's slice loads
        leaf = _resolve(e, lambda label: tensor.slice(label).to_matrix(), tensor.vertices.index, n)
        rows = np.diff(leaf.mat.indptr).astype(float)
        cols = np.bincount(leaf.mat.indices, minlength=n).astype(float)
        return (n - rows, n - cols) if leaf.complement else (rows, cols)
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


def _estimate(node, kids, tensor):
    """Fold visitor: the node's (profile, estimated flops of its subtree as
    written)."""
    profiles = [k[0] for k in kids]
    profile = _profile(node, profiles, tensor)
    # a product's flops: each entry in the left factor's column k meets each
    # entry in the right factor's row k
    own = float(np.dot(profiles[0][1], profiles[1][0])) if isinstance(node, MatMul) else 0.0
    return profile, sum((k[1] for k in kids), 0.0) + own


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


def _push_filters(e, tensor):
    """Apply the planner commutations bottom-up: masking a product's rows or
    columns becomes masking the matching factor. Every leaf is checked on
    the way, so an unknown slice label or filter vertex name is refused."""

    def visit(node, kids):
        if isinstance(node, (SliceRef, Filter)):
            _lookup(node, tensor.slice, tensor.vertices.index)
        return _sink_filter(with_children(node, kids))

    return fold(e, visit)


def plan(e, tensor) -> EvalPlan:
    """Move row and column masks onto product factors, and refuse an unknown
    slice label or filter vertex name; the estimates wait until read."""
    return EvalPlan(tree=_push_filters(e, tensor), source=e, tensor=tensor)


# -- empirical rule verification ----------------------------------------------


def _sides_equal(rule, bnd, n) -> bool:
    operands = {name: v for name, v in bnd.items() if isinstance(v, kernels.PathMatrix)}
    bnd = {**bnd, **{name: SliceRef(name) for name in operands}}
    # each matrix metavariable stands for a slice named after it
    leaf = lambda node: _resolve(node, operands.__getitem__, None, n)
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

    def scalars(n):
        return {name: draw(n, rng) for name, draw in draws}

    def bindings():
        # (order, binding) pairs, each drawn from `rng` only when taken
        if len(evars) <= 2:
            mats = [
                kernels.PathMatrix.from_dense(np.array(bits, dtype=np.int64).reshape(2, 2))
                for bits in itertools.product((0, 1), repeat=4)
            ]
            for combo in itertools.product(mats, repeat=len(evars)):
                yield 2, {**scalars(2), **{var.name: mat for var, mat in zip(evars, combo)}}
        for _ in range(trials):
            n = int(rng.integers(2, 9))
            bnd = scalars(n)
            for var in evars:
                if var.boolean or rng.random() < 0.5:
                    arr = (rng.random((n, n)) < 0.35).astype(np.int64)
                else:
                    arr = rng.random((n, n)) * (rng.random((n, n)) < 0.35)
                bnd[var.name] = kernels.PathMatrix.from_dense(arr)
            yield n, bnd

    return all(
        _sides_equal(rule, bnd, n)
        for n, bnd in bindings()
        if rule.guard is None or rule.guard(bnd)
    )
