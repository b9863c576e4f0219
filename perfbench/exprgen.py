"""Random tensors and random well-formed path expressions for the
`expr-corpus` workload.

This is the benchmark's own copy of the grammar the rewriter soundness
criterion uses (`not` only over syntactically {0,1}-valued subtrees, dyadic
scale coefficients so reassociation stays exact). It is copied rather than
imported so that edits to the test helpers cannot change the benchmark's
inputs: a seed must name the same corpus on every commit.
"""

import numpy as np

from pathweave.expr import (
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
)
from pathweave.tensor import MultiRelTensor

DYADIC_COEFS = (0.5, 1.0, 1.5, 2.0, 0.25)


def random_tensor(rng, n, labels, names, density=0.25):
    edges = {}
    for label in labels:
        mask = rng.random((n, n)) < density
        if not mask.any():
            mask[rng.integers(0, n), rng.integers(0, n)] = True
        tails, heads = np.nonzero(mask)
        edges[label] = (tails, heads)
    return MultiRelTensor.from_edges(names, edges)


def random_bool_expr(rng, labels, names, depth):
    """A random expression that is syntactically {0,1}-valued."""
    if depth <= 0 or rng.random() < 0.3:
        roll = rng.random()
        if roll < 0.5:
            return SliceRef(labels[rng.integers(0, len(labels))])
        if roll < 0.65:
            return Filter("identity")
        if roll < 0.75:
            return Filter("row", names[rng.integers(0, len(names))])
        if roll < 0.85:
            return Filter("col", names[rng.integers(0, len(names))])
        if roll < 0.95:
            i = names[rng.integers(0, len(names))]
            j = names[rng.integers(0, len(names))]
            return Filter("entry", i, j)
        return Filter("ones") if rng.random() < 0.5 else Filter("zeros")
    roll = rng.random()
    if roll < 0.2:
        return Not(random_bool_expr(rng, labels, names, depth - 1))
    if roll < 0.4:
        return Clip(random_expr(rng, labels, names, depth - 1))
    if roll < 0.55:
        return VOut(random_expr(rng, labels, names, depth - 1), int(rng.integers(0, 3)))
    if roll < 0.7:
        return VIn(random_expr(rng, labels, names, depth - 1), int(rng.integers(0, 3)))
    if roll < 0.85:
        return Transpose(random_bool_expr(rng, labels, names, depth - 1))
    return Hadamard(
        random_bool_expr(rng, labels, names, depth - 1),
        random_bool_expr(rng, labels, names, depth - 1),
    )


def random_expr(rng, labels, names, depth):
    """A random well-formed expression of bounded depth."""
    if depth <= 0 or rng.random() < 0.22:
        return random_bool_expr(rng, labels, names, 0)
    roll = rng.random()
    if roll < 0.22:
        return MatMul(
            random_expr(rng, labels, names, depth - 1),
            random_expr(rng, labels, names, depth - 1),
        )
    if roll < 0.44:
        return Hadamard(
            random_expr(rng, labels, names, depth - 1),
            random_expr(rng, labels, names, depth - 1),
        )
    if roll < 0.56:
        return Add(
            random_expr(rng, labels, names, depth - 1),
            random_expr(rng, labels, names, depth - 1),
        )
    if roll < 0.66:
        return Transpose(random_expr(rng, labels, names, depth - 1))
    if roll < 0.74:
        return Not(random_bool_expr(rng, labels, names, depth - 1))
    if roll < 0.82:
        return Clip(random_expr(rng, labels, names, depth - 1))
    if roll < 0.88:
        return Scale(
            float(DYADIC_COEFS[rng.integers(0, len(DYADIC_COEFS))]),
            random_expr(rng, labels, names, depth - 1),
        )
    if roll < 0.94:
        return VOut(random_expr(rng, labels, names, depth - 1), int(rng.integers(0, 3)))
    return VIn(random_expr(rng, labels, names, depth - 1), int(rng.integers(0, 3)))
