"""Cost-directed rewriting of path expressions using the algebra's identities.

Rules are (lhs, rhs) pattern pairs over the expression AST with
metavariables for subexpressions, vertex names, thresholds, and scale
factors. This module is purely syntactic: matching, substitution, the rule
table, and the search. Every rule is semantics preserving under its guard;
``pathweave.evaluate.verify_rule`` checks that by running both sides through
the evaluator's interpreter. Substitution fills each node's scalar fields
from ``expr._SCALAR_FIELDS`` and rebuilds it through ``expr.with_children``,
so it has no code per node type.

Each identity is written once. Matching is commutative at the filter
product ``&`` and the merge ``+`` (the rules ``had-commute`` and
``add-commute`` verify that it may be), so a pattern matches either operand
order and a rule can rewrite a node in more than one way. An identity the
search uses in both directions names its reverse (``back=``), and the rule
table registers the reversed rule right after it.

``simplify`` runs a best-first search over single-step rewrites, bounded by
a rule-application budget of at most node_count^2 and a small cost
allowance above the input (several derivations pass through a one-step
hill, e.g. rewriting a row filter to a transposed column filter before
fusing transposes). The returned expression always costs no more than the
input under the weighted node count (matrix product 4, filter product 2,
everything else 1); ties prefer more shared subtrees, then the shorter
rendering, so chains come out left-associated. Within one ``simplify`` call
each distinct subtree is matched against the rules once (its root rewrites
are memoised), and a successor's cost is the current cost minus the
rewritten subtree's plus its replacement's, so no candidate is re-walked to
be costed.

Boolean-valuedness guards are syntactic: slices, filters, and the
clip/not/vout/vin results count as {0,1}-valued; products, sums, and
scalings do not, even if their value happens to be boolean.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace

from .expr import (
    Add,
    Clip,
    Filter,
    Hadamard,
    MatMul,
    Not,
    Scale,
    Transpose,
    VIn,
    VOut,
    _SCALAR_FIELDS,
    children,
    format_expr,
    is_boolean_expr,
    node_count,
    replace_at,
    subexpr_at,
    walk,
    weighted_cost,
    with_children,
)

# -- pattern metavariables ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class EVar:
    """Matches any subexpression; with boolean=True only syntactically
    {0,1}-valued ones."""

    name: str
    boolean: bool = False


@dataclass(frozen=True, slots=True)
class NVar:
    """Matches a vertex name inside a row/col/entry filter."""

    name: str


@dataclass(frozen=True, slots=True)
class PVar:
    """Matches a vertex-function threshold."""

    name: str


@dataclass(frozen=True, slots=True)
class LVar:
    """Matches a scale factor."""

    name: str


def _bind_scalars(pat, e, bnd):
    """`bnd` extended by matching the scalar fields of two nodes of the same
    type, or None when they disagree."""
    for field in _SCALAR_FIELDS.get(type(pat), ()):
        p, v = getattr(pat, field), getattr(e, field)
        if isinstance(p, (NVar, PVar, LVar)):
            if p.name not in bnd:
                bnd = {**bnd, p.name: v}
                continue
            p = bnd[p.name]
        if p != v:
            return None
    return bnd


def match(pat, e, bnd):
    """Yield each extension of the binding `bnd` under which `pat` matches
    `e`; repeated metavariables must bind equal values.

    `&` and `+` commute: the subject's operands are tried as written, then
    swapped. Swapping the subject rather than the pattern keeps each
    metavariable's first binding, and so its boolean guard, where the
    pattern puts it."""
    if isinstance(pat, EVar):
        if pat.name in bnd:
            if bnd[pat.name] == e:
                yield bnd
        elif not pat.boolean or is_boolean_expr(e):
            yield {**bnd, pat.name: e}
        return
    if type(pat) is not type(e):
        return
    bnd = _bind_scalars(pat, e, bnd)
    if bnd is None:
        return
    kids = children(e)
    yield from _match_each(children(pat), kids, bnd)
    if isinstance(e, (Hadamard, Add)):
        yield from _match_each(children(pat), kids[::-1], bnd)


def _match_each(pats, subjects, bnd):
    """Yield each extension of `bnd` matching every pattern to its subject."""
    if not pats:
        yield bnd
        return
    for first in match(pats[0], subjects[0], bnd):
        yield from _match_each(pats[1:], subjects[1:], first)


def instantiate(template, bnd):
    """Substitute bindings into a pattern; a callable template builds the
    result from the bindings itself."""
    if callable(template) and not isinstance(template, type):
        return template(bnd)
    if isinstance(template, EVar):
        return bnd[template.name]
    for field in _SCALAR_FIELDS.get(type(template), ()):
        var = getattr(template, field)
        if isinstance(var, (NVar, PVar, LVar)):
            template = replace(template, **{field: bnd[var.name]})
    kids = children(template)
    if not kids:
        return template
    return with_children(template, tuple([instantiate(kid, bnd) for kid in kids]))


@dataclass(frozen=True)
class RewriteRule:
    """One algebraic identity, oriented; `guard` further constrains bindings
    (e.g. distinct filter indices, zero threshold). `search=False` rules are
    kept for the evaluator's planner and for verification but stay out of
    the simplifier's search."""

    name: str
    cite: str
    lhs: object
    rhs: object
    guard: object = None
    search: bool = True

    def apply(self, e) -> list:
        """Every distinct rewrite of `e` at its root, in match order."""
        out = []
        for bnd in match(self.lhs, e, {}):
            if self.guard is None or self.guard(bnd):
                new = instantiate(self.rhs, bnd)
                if new not in out:
                    out.append(new)
        return out


# -- the rule set ---------------------------------------------------------------

_a, _b, _c = EVar("a"), EVar("b"), EVar("c")
_A, _B = EVar("a", boolean=True), EVar("b", boolean=True)
_z = EVar("z")
_i, _j = NVar("i"), NVar("j")
_p, _q = PVar("p"), PVar("q")
_l, _m = LVar("l"), LVar("m")
_ONES, _ZERO, _I = Filter("ones"), Filter("zeros"), Filter("identity")
_R = Filter("row", _i)
_C = Filter("col", _i)
_E = Filter("entry", _i, _j)


def _rules():
    r = []

    def rule(name, cite, lhs, rhs, guard=None, search=True, back=None):
        r.append(RewriteRule(name, cite, lhs, rhs, guard, search))
        if back is not None:
            r.append(RewriteRule(back, cite, rhs, lhs, guard, search))

    # Hadamard properties
    rule("had-unit", "A o 1 = A", Hadamard(_a, _ONES), _a)
    rule("had-zero", "A o 0 = 0", Hadamard(_a, _ZERO), _ZERO)
    # verified but not searched: free commuting floods the frontier with
    # equal-cost permutations. `match` tries both operand orders of `&` and
    # `+` instead; this rule and add-commute are what make that sound
    rule("had-commute", "A o B = B o A", Hadamard(_a, _b), Hadamard(_b, _a), search=False)
    rule(
        "had-distribute",
        "A o (B + C) = (A o B) + (A o C)",
        Hadamard(_a, Add(_b, _c)),
        Add(Hadamard(_a, _b), Hadamard(_a, _c)),
    )
    rule(
        "had-factor",
        "A o (B + C) = (A o B) + (A o C)",
        Add(Hadamard(_a, _c), Hadamard(_b, _c)),
        Hadamard(Add(_a, _b), _c),
    )
    rule(
        "had-scalar-out",
        "A o lB = l(A o B)",
        Hadamard(_a, Scale(_l, _b)),
        Scale(_l, Hadamard(_a, _b)),
    )
    rule(
        "scale-into-had",
        "A o lB = l(A o B)",
        Scale(_l, Hadamard(_a, _b)),
        Hadamard(Scale(_l, _a), _b),
    )
    rule(
        "had-transpose-fuse",
        "A' o B' = (A o B)'",
        Hadamard(Transpose(_a), Transpose(_b)),
        Transpose(Hadamard(_a, _b)),
        back="transpose-over-had",
    )
    rule("had-idempotent", "A o A = A for boolean A", Hadamard(_A, EVar("a")), _a)
    rule(
        "had-assoc",
        "entrywise product is associative",
        Hadamard(Hadamard(_a, _b), _c),
        Hadamard(_a, Hadamard(_b, _c)),
        back="had-assoc-left",
    )

    # not
    rule("not-not", "n(n(A)) = A", Not(Not(_A)), _a)
    rule("had-not-zero", "A o n(A) = 0", Hadamard(_A, Not(EVar("a"))), _ZERO)

    # clip
    rule("clip-boolean", "c(A) = A for boolean A", Clip(_A), _a)
    rule(
        "clip-split",
        "c(Y o Z) = c(Y) o c(Z)",
        Clip(Hadamard(_a, _b)),
        Hadamard(Clip(_a), Clip(_b)),
        back="clip-merge",
    )
    rule(
        "clip-split-boolean",
        "c(Y o B) = c(Y) o B for boolean B",
        Clip(Hadamard(_a, _B)),
        Hadamard(Clip(_a), _b),
    )
    rule(
        "demorgan-and",
        "n(A o B) = c(n(A) + n(B))",
        Not(Hadamard(_A, _B)),
        Clip(Add(Not(_A), Not(_B))),
        back="demorgan-and-merge",
    )
    rule(
        "demorgan-or",
        "n(c(A + B)) = n(A) o n(B)",
        Not(Clip(Add(_A, _B))),
        Hadamard(Not(_a), Not(_b)),
    )
    # verified but kept out of the search: merging two complement filters
    # into one clip-of-sum is cheaper under the cost weights, which would
    # steer the simplifier away from the canonical two-filter forms
    rule(
        "demorgan-or-merge",
        "n(c(A + B)) = n(A) o n(B)",
        Hadamard(Not(_A), Not(_B)),
        Not(Clip(Add(_a, _b))),
        search=False,
    )
    # fused: outside B's support the complement of A o B agrees with the
    # complement of A; chains the clip product rule, c(B) = B,
    # distributivity, and A o n(A) = 0
    rule(
        "not-masked",
        "n(A o B) o B = n(A) o B (clip product rule, De Morgan, A o n(A) = 0)",
        Hadamard(Not(Hadamard(_A, _B)), EVar("b")),
        Hadamard(Not(_a), _b),
    )

    # vertex-specific filters
    distinct = lambda bnd: bnd["i"] != bnd["j"]
    rule(
        "row-row-zero",
        "R_i o R_j = 0 for i != j",
        Hadamard(Filter("row", _i), Filter("row", _j)),
        _ZERO,
        guard=distinct,
    )
    rule(
        "col-col-zero",
        "C_i o C_j = 0 for i != j",
        Hadamard(Filter("col", _i), Filter("col", _j)),
        _ZERO,
        guard=distinct,
    )
    rule(
        "row-col-entry",
        "R_i o C_j = E_ij",
        Hadamard(Filter("row", _i), Filter("col", _j)),
        Filter("entry", _i, _j),
    )
    rule("row-transpose", "R_i = C_i'", Transpose(_C), _R, back="row-intro-transpose")
    rule("col-transpose", "C_i = R_i'", Transpose(_R), _C, back="col-intro-transpose")
    rule("entry-transpose", "E_ij = E_ji'", Transpose(_E), Filter("entry", _j, _i))
    rule("identity-transpose", "I' = I", Transpose(_I), _I)
    rule("ones-transpose", "1' = 1", Transpose(_ONES), _ONES)
    rule("zeros-transpose", "0' = 0", Transpose(_ZERO), _ZERO)

    # vertex functions
    zerop = lambda bnd: bnd["p"] == 0
    rule("vout-row", "v-(R_i) = R_i", VOut(_R, _p), _R, guard=zerop)
    rule("vin-col", "v+(C_i) = C_i", VIn(_C, _p), _C, guard=zerop)
    rule(
        "vin-vout-entry",
        "v+(E_ij) o v-(E_ij) = E_ij",
        Hadamard(VIn(_E, _p), VOut(Filter("entry", _i, _j), _q)),
        _E,
        guard=lambda bnd: bnd["p"] == 0 and bnd["q"] == 0,
    )
    rule(
        "vout-row-mask",
        "v-(Z o R_i) = v-(Z) o R_i",
        VOut(Hadamard(_z, _R), _p),
        Hadamard(VOut(_z, _p), _R),
    )
    rule(
        "vin-col-mask",
        "v+(Z o C_i) = v+(Z) o C_i",
        VIn(Hadamard(_z, _C), _p),
        Hadamard(VIn(_z, _p), _C),
    )
    # vin first, so transpose-vout precedes transpose-vin among Transpose rules
    rule(
        "vin-transpose",
        "v+(Z', p) = v-(Z, p)'",
        VIn(Transpose(_z), _p),
        Transpose(VOut(_z, _p)),
        back="transpose-vout",
    )
    rule(
        "vout-transpose",
        "v-(Z', p) = v+(Z, p)'",
        VOut(Transpose(_z), _p),
        Transpose(VIn(_z, _p)),
        back="transpose-vin",
    )

    # transpose, merge, scale plumbing (guard-free standard identities)
    rule("transpose-transpose", "(A')' = A", Transpose(Transpose(_a)), _a)
    rule(
        "transpose-over-matmul",
        "(A . B)' = B' . A'",
        Transpose(MatMul(_a, _b)),
        MatMul(Transpose(_b), Transpose(_a)),
        back="matmul-transpose-fuse",
    )
    rule(
        "add-transpose-fuse",
        "(A + B)' = A' + B'",
        Add(Transpose(_a), Transpose(_b)),
        Transpose(Add(_a, _b)),
    )
    rule("add-zero", "A + 0 = A", Add(_a, _ZERO), _a)
    rule("add-commute", "A + B = B + A", Add(_a, _b), Add(_b, _a), search=False)
    rule("matmul-zero", "A . 0 = 0", MatMul(_a, _ZERO), _ZERO)
    rule("matmul-zero-left", "0 . A = 0", MatMul(_ZERO, _a), _ZERO)
    rule("matmul-identity", "A . I = A", MatMul(_a, _I), _a)
    rule("matmul-identity-left", "I . A = A", MatMul(_I, _a), _a)
    rule("scale-one", "1A = A", Scale(_l, _a), _a, guard=lambda bnd: bnd["l"] == 1)
    rule("scale-zero", "0A = 0", Scale(_l, _a), _ZERO, guard=lambda bnd: bnd["l"] == 0)
    rule(
        "scale-fuse",
        "l(mA) = (lm)A",
        Scale(_l, Scale(_m, _a)),
        lambda bnd: Scale(bnd["l"] * bnd["m"], bnd["a"]),
    )

    # planner-only commutations: masking a product's rows (columns) equals
    # masking the left (right) factor first
    rule(
        "row-mask-into-product",
        "(A . B) o R_i = (A o R_i) . B",
        Hadamard(MatMul(_a, _b), Filter("row", _i)),
        MatMul(Hadamard(_a, Filter("row", _i)), _b),
        search=False,
    )
    rule(
        "col-mask-into-product",
        "(A . B) o C_j = A . (B o C_j)",
        Hadamard(MatMul(_a, _b), Filter("col", _j)),
        MatMul(_a, Hadamard(_b, Filter("col", _j))),
        search=False,
    )
    return tuple(r)


RULES = _rules()
RULES_BY_NAME = {r.name: r for r in RULES}


# -- the trace -------------------------------------------------------------------


@dataclass(frozen=True)
class TraceStep:
    rule: str
    cite: str
    path: tuple
    before: object
    after: object


@dataclass(frozen=True)
class RuleTrace:
    steps: tuple

    def replay(self, start):
        """Re-apply the recorded steps; returns the final expression."""
        e = start
        for step in self.steps:
            if subexpr_at(e, step.path) != step.before:
                raise ValueError(f"trace does not replay at step {step.rule!r}")
            e = replace_at(e, step.path, step.after)
        return e

    def __len__(self):
        return len(self.steps)


def derivation_table(start, trace: RuleTrace):
    """Two-column derivation rows: (whole expression, justification)."""
    rows = [(format_expr(start), "")]
    e = start
    for step in trace.steps:
        e = replace_at(e, step.path, step.after)
        rows.append((format_expr(e), f"{step.rule}: {step.cite}"))
    return rows


# -- simplification ---------------------------------------------------------------


def _dag_size(e) -> int:
    return len({node for _, node in walk(e)})


def _tie_key(e, cost):
    # ties prefer shared subtrees, then shorter renderings (left-assoc
    # chains need no parentheses); remaining ties keep the first-discovered
    # expression, i.e. the one fewest steps from the input
    return (cost, _dag_size(e), len(format_expr(e)))


def _rules_by_root(rules):
    grouped: dict = {}
    for rule in rules:
        grouped.setdefault(type(rule.lhs), []).append(rule)
    return grouped


def _single_steps(e, grouped_rules, rewrites):
    """All (rule, path, before, after) single-step rewrites of `e`, in
    deterministic preorder/rule order.

    `rewrites` memoises each subtree's root rewrites, [(rule, after), ...]
    in rule order: a successor shares every subtree off its rewritten path
    with its parent, so most nodes were matched before."""
    for path, node in walk(e):
        found = rewrites.get(node)
        if found is None:
            found = rewrites[node] = [
                (rule, new_sub)
                for rule in grouped_rules.get(type(node), ())
                for new_sub in rule.apply(node)
                if new_sub != node
            ]
        for rule, new_sub in found:
            yield rule, path, node, new_sub


HILL_ALLOWANCE = 2


def simplify(e, budget: int | None = None):
    """Rewrite toward minimal weighted cost; returns (expression, RuleTrace).

    Never worse than the input; terminates within node_count^2 retained rule
    applications (or the supplied budget).
    """
    grouped = _rules_by_root([r for r in RULES if r.search])
    if budget is None:
        budget = min(node_count(e) ** 2, 400)
    # per-call memos: each subtree's root rewrites and weighted cost
    rewrites: dict = {}
    costs: dict = {}

    def cost_of(sub):
        c = costs.get(sub)
        if c is None:
            c = costs[sub] = weighted_cost(sub)
        return c

    start_cost = weighted_cost(e)
    cap = start_cost + HILL_ALLOWANCE
    seen = {e: None}
    best, best_key = e, _tie_key(e, start_cost)
    counter = 0
    frontier = [(start_cost, counter, e)]
    applications = 0
    while frontier and applications < budget:
        current_cost, _, current = heapq.heappop(frontier)
        for rule, path, before, after in _single_steps(current, grouped, rewrites):
            # the cost is additive over nodes and replace_at keeps every
            # ancestor's type, so only the rewritten subtree's share changes
            cost = current_cost - cost_of(before) + cost_of(after)
            if cost > cap:
                continue
            new_expr = replace_at(current, path, after)
            if new_expr in seen:
                continue
            applications += 1
            seen[new_expr] = (current, rule, path, before, after)
            counter += 1
            heapq.heappush(frontier, (cost, counter, new_expr))
            # the key's tie-breakers walk and render the tree: skip them for a
            # candidate whose cost alone already loses
            if cost <= best_key[0]:
                key = _tie_key(new_expr, cost)
                if key < best_key:
                    best, best_key = new_expr, key
            if applications >= budget:
                break
    steps = []
    node = best
    while seen[node] is not None:
        parent, rule, path, before, after = seen[node]
        steps.append(TraceStep(rule.name, rule.cite, path, before, after))
        node = parent
    return best, RuleTrace(tuple(reversed(steps)))
