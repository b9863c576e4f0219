"""Cost-directed rewriting of path expressions using the algebra's identities.

Rules are (lhs, rhs) pattern pairs over the expression AST with
metavariables for subexpressions (``EVar``) and for scalar fields
(``SVar``: a vertex name, a threshold or a scale factor). This module is
purely syntactic: matching, substitution, the rule table, and the search.
Every rule is semantics preserving under its guard;
``pathweave.evaluate.verify_rule`` checks that by running both sides through
the evaluator's interpreter. Patterns are nodes like any other, so matching
and substitution read a node's scalar fields from its type's ``_scalars``
and its children from ``children``, and substitution builds each node
through ``expr.build``: neither has code per node type.

Each identity is written once. Matching is commutative at the filter
product ``&`` and the merge ``+`` (the rules ``had-commute`` and
``add-commute`` verify that it may be), so a pattern matches either operand
order and a rule can rewrite a node in more than one way. An identity the
search uses in both directions names its reverse (``back=``), and the rule
table registers the reversed rule right after it.

No searched rule reassociates. The search holds each ``&`` and ``+`` chain,
flattened through its nested nodes of the same operator, as a list of
operands, and at the chain's top node also rewrites any two operands as a
pair: a rule rooted at the chain's operator applies to them as if they were
one node. Pairs are found by matching each side of the rule's pattern
against each operand alone and joining the bindings on shared
metavariables, never by trying every pair (associative-commutative matching
with an extension; S. Eker, Computer Journal 38(5), 1995). The result takes
the earlier operand's place, the chain is rebuilt left-associated, and the
laws ``had-assoc`` and ``add-assoc`` verify that this may be done.

``simplify`` runs a best-first search over single-step rewrites, bounded by
a rule-application budget of at most node_count^2 and a small cost
allowance above the input (several derivations pass through a one-step
hill, e.g. rewriting a row filter to a transposed column filter before
fusing transposes). The returned expression always costs no more than the
input under the weighted node count (matrix product 4, filter product 2,
everything else 1); ties prefer more shared subtrees, then the shorter
rendering, so chains come out left-associated.

Expression nodes are interned (see ``expr``), so a subtree hashes and
compares in O(1) and carries its cost. Within one ``simplify`` call each
distinct subtree is matched against the rules once, each chain's pairs are
found once, and each subtree keeps its list of single-step rewrites (all
memoised by node, with the change in cost each rewrite makes; a chain node
under a chain of its own operator has no pair rewrites, so it is listed
apart). A node's list is its own rewrites, then each child's in turn, so
listing a successor costs only the new nodes on the rewritten path: every
other subtree recurs, with its list. The subtree each step gives is built
when the search first asks for it, around the one its child gives, and
kept, so no successor is rebuilt from the root and no candidate is walked
to be costed; the index path of a step is found only for the steps the
trace keeps. A node is matched only against the rules whose lhs has its
shape (its type, or its kind at a filter) and its direct children's, in
either operand order at ``&`` and ``+``; that shape index is built once,
over the searched rules. Each pattern side and each template is compiled
once into a function, so matching runs no generator per pattern node. The
tie-breakers count a candidate's distinct nodes and measure its rendering
from its nodes' lengths, which the tied candidates share, so none is
rendered.

Filter products come from one function, ``_meet``. A filter keeps the
cells (i, j) with i = a, j = b or i = j, so two filters meet in a filter or
ZERO, decided by which vertex names are equal: distinct names are distinct
vertices. One generated rule per pair of filter kinds calls it.

Boolean-valuedness guards are syntactic: slices, filters, and the
clip/not/vout/vin results count as {0,1}-valued; products, sums, and
scalings do not, even if their value happens to be boolean.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import itemgetter

from .expr import (
    Add,
    Clip,
    FILTER_KINDS,
    Filter,
    Hadamard,
    MatMul,
    Not,
    Scale,
    Transpose,
    VIn,
    VOut,
    _scalar_values,
    build,
    children,
    format_expr,
    format_length,
    node_count,
    postorder,
    replace_at,
    subexpr_at,
    walk,
    weighted_cost,
)

# -- pattern metavariables ----------------------------------------------------


@dataclass(frozen=True, slots=True)
class EVar:
    """Matches any subexpression; with boolean=True only syntactically
    {0,1}-valued ones."""

    name: str
    boolean: bool = False

    # a metavariable stands where a subexpression does when a pattern is
    # built: a leaf that counts as one node, boolean when it matches only
    # booleans
    _kids = ()
    _cost = 1

    @property
    def _boolean(self):
        return self.boolean


@dataclass(frozen=True, slots=True)
class SVar:
    """Matches the value of a scalar field: a filter's vertex name, a
    vertex-function threshold or a scale factor."""

    name: str


def _pattern_vars(pat) -> dict:
    """Metavariables of a pattern by name, first occurrence in preorder:
    name -> (the metavariable, the scalar field it fills, or None for an
    `EVar`)."""
    acc: dict = {}
    for _, node in walk(pat):
        if isinstance(node, EVar):
            acc.setdefault(node.name, (node, None))
            continue
        for field in type(node)._scalars:
            var = getattr(node, field)
            if isinstance(var, SVar):
                acc.setdefault(var.name, (var, field))
    return acc


# a metavariable's value when it has none yet; bound values may be falsy
_UNBOUND = object()


def _compile(pat):
    """`pat` as a function (e, bnd) -> the list of extensions of the binding
    `bnd` under which `pat` matches `e`, in `match`'s order; the function of
    each child pattern is made once, here."""
    if isinstance(pat, EVar):
        name, boolean = pat.name, pat.boolean

        def var(e, bnd):
            bound = bnd.get(name, _UNBOUND)
            if bound is _UNBOUND:
                return [{**bnd, name: e}] if not boolean or e._boolean else []
            return [bnd] if bound is e else []

        return var
    op = type(pat)
    # each scalar field: its position, and the metavariable's name or the
    # value it must have
    fields = tuple(
        (k, v.name, True) if isinstance(v, SVar) else (k, v, False)
        for k, v in enumerate(_scalar_values(pat))
    )
    kids = tuple(_compile(kid) for kid in children(pat))
    commutes = op is Hadamard or op is Add

    def node(e, bnd):
        if type(e) is not op:
            return []
        if fields:
            values = _scalar_values(e)
            for k, want, is_var in fields:
                value = values[k]
                if is_var:
                    bound = bnd.get(want, _UNBOUND)
                    if bound is _UNBOUND:
                        bnd = {**bnd, want: value}
                        continue
                    want = bound
                if want != value:
                    return []
        if not kids:
            return [bnd]
        subjects = e._kids
        if len(kids) == 1:
            return kids[0](subjects[0], bnd)
        first, second = kids
        left, right = subjects
        out = [both for one in first(left, bnd) for both in second(right, one)]
        if commutes:
            out += [both for one in first(right, bnd) for both in second(left, one)]
        return out

    return node


# pattern -> its compiled function, made on first use; the rule table
# compiles every side when it is built
_MATCHERS: dict = {}


def _matcher(pat):
    found = _MATCHERS.get(pat)
    if found is None:
        found = _MATCHERS[pat] = _compile(pat)
    return found


def match(pat, e, bnd) -> list:
    """Each extension of the binding `bnd` under which `pat` matches `e`, in
    order; repeated metavariables must bind equal values.

    `&` and `+` commute: the subject's operands are tried as written, then
    swapped. Swapping the subject rather than the pattern keeps each
    metavariable's first binding, and so its boolean guard, where the
    pattern puts it. Each pattern is compiled once into a function over
    subjects (`_compile`)."""
    return _matcher(pat)(e, bnd)


def _compile_template(template):
    """`template` as a function from bindings to the node it builds."""
    if callable(template) and not isinstance(template, type):
        return template
    if isinstance(template, EVar):
        return itemgetter(template.name)
    op = type(template)
    scalars = _scalar_values(template)
    named = tuple((k, v.name) for k, v in enumerate(scalars) if isinstance(v, SVar))
    kids = tuple(_compile_template(kid) for kid in children(template))

    def node(bnd):
        values = scalars
        if named:
            values = list(scalars)
            for k, name in named:
                values[k] = bnd[name]
            values = tuple(values)
        return build(op, values, tuple([kid(bnd) for kid in kids]))

    return node


# template -> its compiled function, made on first use
_BUILDERS: dict = {}


def instantiate(template, bnd):
    """Substitute bindings into a pattern; a callable template builds the
    result from the bindings itself. Each template is compiled once into a
    function over bindings (`_compile_template`)."""
    found = _BUILDERS.get(template)
    if found is None:
        found = _BUILDERS[template] = _compile_template(template)
    return found(bnd)


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

    def __post_init__(self):
        # the lhs compiled once, when the rule table is built
        object.__setattr__(self, "_match", _matcher(self.lhs))

    def apply(self, e) -> list:
        """Every distinct rewrite of `e` at its root, in match order."""
        out = []
        for bnd in self._match(e, {}):
            if self.guard is None or self.guard(bnd):
                new = instantiate(self.rhs, bnd)
                if new not in out:
                    out.append(new)
        return out


# -- the rule set ---------------------------------------------------------------

_a, _b, _c = EVar("a"), EVar("b"), EVar("c")
_A, _B = EVar("a", boolean=True), EVar("b", boolean=True)
_z = EVar("z")
_i, _j = SVar("i"), SVar("j")
_p, _q = SVar("p"), SVar("q")
_l, _m = SVar("l"), SVar("m")
_ONES, _ZERO, _I = Filter("ones"), Filter("zeros"), Filter("identity")
_R = Filter("row", _i)
_C = Filter("col", _i)
_E = Filter("entry", _i, _j)
_k, _n = SVar("k"), SVar("n")


def _constraints(f) -> tuple:
    """The (row, col, diagonal) constraints of the cells (i, j) a row,
    column, entry or identity filter keeps: the name i must be, the name j
    must be (None when free), and whether i = j."""
    kinds = {"row": (f.a, None), "col": (None, f.a), "entry": (f.a, f.b), "identity": (None, None)}
    return (*kinds[f.kind], f.kind == "identity")


def _meet(f, g):
    """The filter of the cells both `f` and `g` keep, or ZERO."""
    (r, c, d), (r2, c2, d2) = _constraints(f), _constraints(g)
    if None not in (r, r2) and r != r2 or None not in (c, c2) and c != c2:
        return _ZERO
    r, c = (r if r is not None else r2), (c if c is not None else c2)
    if d or d2:
        if None not in (r, c) and r != c:
            return _ZERO
        r = c = r if r is not None else c
        if r is None:
            return _I
    if r is None:
        return Filter("col", c)
    return Filter("row", r) if c is None else Filter("entry", r, c)


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
    # verified but not searched, like the commutation laws: the search
    # regroups `&` and `+` chains itself, by rewriting any two operands of a
    # chain as a pair (see `_pair_rewrites`); this rule and add-assoc are
    # what make that sound
    rule(
        "had-assoc",
        "entrywise product is associative",
        Hadamard(Hadamard(_a, _b), _c),
        Hadamard(_a, Hadamard(_b, _c)),
        search=False,
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

    # vertex-specific filters: one rule per pair of the kinds `_meet` takes,
    # in a fixed order (ONES and ZERO meet through had-unit and had-zero)
    kinds = ("row", "col", "entry", "identity")
    for x, k1 in enumerate(kinds):
        for k2 in kinds[x:]:
            lhs = Hadamard(
                Filter(k1, *(_i, _j)[: FILTER_KINDS[k1]]),
                Filter(k2, *(_k, _n)[: FILTER_KINDS[k2]]),
            )
            rule(
                f"meet-{k1}-{k2}",
                "F o G keeps the cells both keep; distinct names are distinct vertices",
                lhs,
                lambda bnd, lhs=lhs: _meet(*children(instantiate(lhs, bnd))),
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
    rule(
        "add-assoc",
        "merge is associative",
        Add(Add(_a, _b), _c),
        Add(_a, Add(_b, _c)),
        search=False,
    )
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
        # a product that overflows would print as `inf`, which does not parse
        guard=lambda bnd: math.isfinite(bnd["l"] * bnd["m"]),
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


# -- the shape index ---------------------------------------------------------------
#
# Candidate rules are picked by the top symbols of the subject before any
# full match (term indexing; W. McCune, "Experiments with discrimination-tree
# indexing and path indexing for term retrieval", JAR 9(2), 1992). A node's
# top is its shape and its direct children's; a rule fits a top when each
# shape its lhs needs there is the one the node has. Most rules fail on
# that alone, and `match` is never run for them.

_SEARCHED = tuple(rule for rule in RULES if rule.search)


def _shape(node):
    """A node's type, or its kind when it is a filter; None for a
    metavariable, which takes any shape."""
    op = type(node)
    if op is Filter:
        return node.kind
    return None if op is EVar else op


def _top(node) -> tuple:
    return (_shape(node), *map(_shape, children(node)))


_NEEDS = tuple((rule, _top(rule.lhs)) for rule in _SEARCHED)

# top -> the searched rules that fit it, in rule order; filled as tops are
# met, of which there are finitely many
_BY_TOP: dict = {}


def _fits(need, top) -> bool:
    # a root's shape fixes how many children it has
    return all(n is None or n == s for n, s in zip(need, top))


def _root_rules(node) -> tuple:
    """The searched rules whose lhs can match `node`'s top, in rule order.
    At `&` and `+` a rule fits either operand order, as `match` commutes."""
    top = _top(node)
    rules = _BY_TOP.get(top)
    if rules is None:
        tops = [top]
        if top[0] is Hadamard or top[0] is Add:
            tops.append((top[0], top[2], top[1]))
        rules = tuple(rule for rule, need in _NEEDS if any(_fits(need, t) for t in tops))
        _BY_TOP[top] = rules
    return rules


# -- chains ------------------------------------------------------------------------


def _operands(op, e) -> list:
    """`e` read as a chain of `op`: its operands left to right, through every
    nested `op` node; [e] when `e` is no `op` node."""
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        if type(node) is op:
            stack += reversed(children(node))
        else:
            out.append(node)
    return out


def _pair_rules(rules):
    """`&` or `+` -> [(rule, left side, right side, shared names, the sides'
    shapes), ...] for the rules whose pattern is rooted at that operator, in
    rule order. Both operators are associative and commutative (had-assoc,
    add-assoc, had-commute, add-commute)."""
    grouped: dict = {}
    for rule in rules:
        if isinstance(rule.lhs, (Hadamard, Add)):
            left, right = children(rule.lhs)
            shared = tuple(sorted(_pattern_vars(left).keys() & _pattern_vars(right).keys()))
            _matcher(left), _matcher(right)  # compiled here, once
            entry = (rule, left, right, shared, _shape(left), _shape(right))
            grouped.setdefault(type(rule.lhs), []).append(entry)
    return grouped


_PAIR_RULES = _pair_rules(_SEARCHED)


def _pair_rewrites(op, operands) -> list:
    """[(rule, at, drop, result, cost change), ...]: each rewrite of two
    `operands` of an `op` chain into `result`, which takes the place of
    the earlier one, at position `at` of its operands, while the later
    one, at `drop`, leaves the chain; in rule order, without repeats.

    A chain of two operands is one node, whose root rewrites cover it. In a
    longer one, each side of a rule's pattern is matched against each
    operand of the shape it needs, and the two sides' bindings are joined
    on their shared metavariables, so the work grows with the operands and
    the matches, not with all pairs of operands. A rule skips the chain when
    it has no operand of a shape one side needs. Either operand may take
    either side, as `match` commutes."""
    if len(operands) < 3:
        return []
    every = list(enumerate(operands))
    by_shape: dict = {}
    for j, operand in every:
        by_shape.setdefault(_shape(operand), []).append((j, operand))
    out, made = [], set()
    for rule, left, right, shared, left_shape, right_shape in _PAIR_RULES[op]:
        lefts = every if left_shape is None else by_shape.get(left_shape)
        rights = every if right_shape is None else by_shape.get(right_shape)
        if not lefts or not rights:
            continue
        index: dict = {}
        for j, operand in rights:
            for bnd in match(right, operand, {}):
                index.setdefault(tuple([bnd[v] for v in shared]), []).append((j, bnd))
        if not index:
            continue
        for i, operand in lefts:
            for bnd in match(left, operand, {}):
                for j, other in index.get(tuple([bnd[v] for v in shared]), ()):
                    both = {**other, **bnd}
                    if j == i or (rule.guard is not None and not rule.guard(both)):
                        continue
                    result = instantiate(rule.rhs, both)
                    at, drop = sorted((i, j))
                    # a result equal to the earlier operand only removes the
                    # later one: the same successor whatever the earlier was
                    key = drop if result == operands[at] else (at, drop, result)
                    if key not in made:
                        made.add(key)
                        pair = op(operand, operands[j])
                        change = weighted_cost(result) - weighted_cost(pair)
                        out.append((rule, at, drop, result, change))
    return out


def _regrouped(op, operands, at, drop, result):
    """The `op` chain of `operands` with `result`, its own operands spliced
    in, in place of the operand at `at`, and without the one at `drop`;
    rebuilt left-associated."""
    kept = []
    for k, operand in enumerate(operands):
        if k == at:
            kept += _operands(op, result)
        elif k != drop:
            kept.append(operand)
    chain = kept[0]
    for operand in kept[1:]:
        chain = build(op, (), (chain, operand))
    return chain


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


def _tie_key(e, cost, lengths):
    # ties prefer shared subtrees, then shorter renderings (left-assoc
    # chains need no parentheses); remaining ties keep the first-discovered
    # expression, i.e. the one fewest steps from the input. `lengths`
    # memoises rendered lengths across the tied candidates
    return (cost, len(postorder(e)), format_length(e, lengths))


def _root_rewrites(node) -> list:
    """[(rule, after, cost change), ...]: each rewrite of `node` at its root,
    in rule order."""
    found = [(rule, new) for rule in _root_rules(node) for new in rule.apply(node) if new != node]
    cost = weighted_cost(node) if found else 0
    return [(rule, new, weighted_cost(new) - cost) for rule, new in found]


class _Memo:
    """What one `simplify` call memoises, by node: each subtree's root
    rewrites, each chain's pair rewrites, and each subtree's `_Steps`, under
    whether it tops its chain (`lists[True]`, also every node that is no
    chain operator) or not (`lists[False]`)."""

    __slots__ = ("rewrites", "pairs", "lists")

    def __init__(self):
        self.rewrites: dict = {}
        self.pairs: dict = {}
        self.lists = ({}, {})


def _tops(op, kid) -> bool:
    """Whether `kid`, a child of an `op` node, is read on its own rather than
    as part of its parent's chain: only a chain's top node regroups pairs."""
    return type(kid) is not op or op not in _PAIR_RULES


def _own_steps(node, top, memo) -> tuple:
    """(`node`'s root rewrites, and its chain's (operands, pair rewrites)
    when it tops an `&` or `+` chain, else None), each memoised."""
    rewrites = memo.rewrites.get(node)
    if rewrites is None:
        rewrites = memo.rewrites[node] = _root_rewrites(node)
    op = type(node)
    if not top or op not in _PAIR_RULES:
        return rewrites, None
    pairs = memo.pairs.get(node)
    if pairs is None:
        operands = _operands(op, node)
        pairs = memo.pairs[node] = (operands, _pair_rewrites(op, operands))
    return rewrites, pairs


def _own_rule(rewrites, pairs, i):
    """The rule of a node's own step i: its root rewrites come first."""
    return rewrites[i][0] if i < len(rewrites) else pairs[1][i - len(rewrites)][0]


class _Steps:
    """The single-step rewrites of one subtree, in preorder/rule order: its
    root rewrites, then its pair rewrites when it tops a chain, then each
    child's steps in turn. Step i changes the cost by `changes[i]`, and
    `succs[i]` is the subtree with step i applied, built when first asked
    for (`_successor`) and kept. The first `own` steps are the node's own,
    and the second child's begin at `cut`. A step's rule, path, before and
    after are found by descending (`_locate`), so a level holds two
    references per step, not a tuple."""

    __slots__ = ("node", "rewrites", "pairs", "own", "cut", "kids", "changes", "succs")


# the steps of every subtree that has none
_NO_STEPS = _Steps()
_NO_STEPS.changes = _NO_STEPS.succs = ()


def _listed(node, top, kids, memo) -> _Steps:
    """`node`'s `_Steps`, given its children's."""
    rewrites, pairs = _own_steps(node, top, memo)
    if pairs is not None and not pairs[1]:
        pairs = None
    if not rewrites and pairs is None:
        for kid in kids:
            if kid is not _NO_STEPS:
                break
        else:
            return _NO_STEPS
    steps = _Steps()
    steps.node, steps.kids, steps.rewrites, steps.pairs = node, kids, rewrites, pairs
    changes = [change for _, _, change in rewrites]
    succs = [after for _, after, _ in rewrites]
    if pairs is not None:
        changes += [pair[4] for pair in pairs[1]]
    steps.own = len(changes)
    for kid in kids[:1]:
        changes += kid.changes
    steps.cut = len(changes)
    for kid in kids[1:]:
        changes += kid.changes
    succs += [None] * (len(changes) - len(succs))
    steps.changes, steps.succs = changes, succs
    return steps


def _steps(node, top, memo) -> _Steps:
    """`node`'s `_Steps`, made after its children's, on an explicit stack."""
    lists = memo.lists
    found = lists[top].get(node)
    if found is not None:
        return found
    stack = [(node, top)]
    while stack:
        node, top = stack[-1]
        if node in lists[top]:  # a shared subtree, listed since it was pushed
            stack.pop()
            continue
        op = type(node)
        kids = children(node)
        # `_tops`, inlined: this loop runs once or twice for every new node
        chain = op in _PAIR_RULES
        pending = False
        for kid in kids:
            flag = not chain or type(kid) is not op
            if kid not in lists[flag]:
                stack.append((kid, flag))
                pending = True
        if pending:
            continue
        stack.pop()
        lists[top][node] = _listed(
            node,
            top,
            tuple([lists[not chain or type(kid) is not op][kid] for kid in kids]),
            memo,
        )
    return lists[top][node]


def _around(node, k, new):
    """`node` with its child k replaced by `new`."""
    kids = children(node)
    kids = (new,) if len(kids) == 1 else (new, kids[1]) if k == 0 else (kids[0], new)
    return build(type(node), _scalar_values(node), kids)


def _successor(steps, i):
    """`steps.succs[i]`, built first if it is not yet: down to the level
    that holds it or the step, then each level's successor around the one
    below, on an explicit stack."""
    trail = []
    new = steps.succs[i]
    while new is None:
        if i < steps.own:  # a pair rewrite's chain, regrouped
            operands, found = steps.pairs
            _, at, drop, result, _ = found[i - len(steps.rewrites)]
            new = steps.succs[i] = _regrouped(type(steps.node), operands, at, drop, result)
            break
        k = 0 if i < steps.cut else 1
        trail.append((steps, i, k))
        steps, i = steps.kids[k], i - (steps.cut if k else steps.own)
        new = steps.succs[i]
    for steps, i, k in reversed(trail):
        new = steps.succs[i] = _around(steps.node, k, new)
    return new


def _single_steps(e, slack, memo):
    """Yield (cost change, successor, k, i) for each single-step rewrite of
    `e` that changes its cost by at most `slack`, in deterministic
    preorder/rule order: `e`'s own root and pair rewrites (k None, i their
    index), then those of child k, step i of its `_Steps`. The weighted cost
    is additive over nodes and a step keeps every ancestor's type, so a
    step changes the cost of `e` by the change at the rewritten node.

    Each child's steps come from `memo`: a successor shares every subtree
    off its rewritten path with its parent, so only the new nodes on that
    path are matched and listed, and a successor below `e` that was built
    before is read, not rebuilt. `e`'s own list is not kept: its steps are
    produced as they are read, so a caller that stops early never lists the
    children after."""
    op = type(e)
    rewrites, pairs = _own_steps(e, True, memo)
    for i, (_, after, change) in enumerate(rewrites):
        if change <= slack:
            yield change, after, None, i
    if pairs is not None:
        operands, found = pairs
        for j, (_, at, drop, result, change) in enumerate(found):
            if change <= slack:
                yield change, _regrouped(op, operands, at, drop, result), None, len(rewrites) + j
    scalars, kids = _scalar_values(e), children(e)
    for k, kid in enumerate(kids):
        steps = _steps(kid, _tops(op, kid), memo)
        succs = steps.succs
        for i, change in enumerate(steps.changes):
            if change <= slack:
                new = succs[i] or _successor(steps, i)
                # `_around`, inlined
                new = (kids[0], new) if k else (new, kids[1]) if len(kids) == 2 else (new,)
                yield change, build(op, scalars, new), k, i


def _locate(e, k, i, memo) -> tuple:
    """(rule, path, before, after) of the step `_single_steps(e, ...)` gave
    as (k, i): the index path is built here, for a step the trace keeps."""
    if k is None:
        rewrites, pairs = _own_steps(e, True, memo)
        if i < len(rewrites):
            after = rewrites[i][1]
        else:
            _, at, drop, result, _ = pairs[1][i - len(rewrites)]
            after = _regrouped(type(e), pairs[0], at, drop, result)
        return _own_rule(rewrites, pairs, i), (), e, after
    kid = children(e)[k]
    steps, path = memo.lists[_tops(type(e), kid)][kid], [k]
    while i >= steps.own:
        k = 0 if i < steps.cut else 1
        path.append(k)
        steps, i = steps.kids[k], i - (steps.cut if k else steps.own)
    rule = _own_rule(steps.rewrites, steps.pairs, i)
    return rule, tuple(path), steps.node, _successor(steps, i)


HILL_ALLOWANCE = 2


def simplify(e):
    """Rewrite toward minimal weighted cost; returns (expression, RuleTrace).

    Never worse than the input; terminates within min(node_count^2, 400)
    retained rule applications.
    """
    budget = min(node_count(e) ** 2, 400)
    memo = _Memo()
    start_cost = weighted_cost(e)
    cap = start_cost + HILL_ALLOWANCE
    # each expression found -> (the one it was found from, and where in that
    # one's steps: see `_single_steps`)
    seen = {e: None}
    # the expressions at the lowest cost so far, in discovery order; the
    # tie-breakers walk and render a tree, so they run at the end, and only
    # on the expressions still tied then
    best_cost, ties = start_cost, [e]
    counter = 0
    frontier = [(start_cost, counter, e)]
    applications = 0
    while frontier and applications < budget:
        current_cost, _, current = heapq.heappop(frontier)
        for change, new_expr, k, i in _single_steps(current, cap - current_cost, memo):
            if new_expr in seen:
                continue
            applications += 1
            cost = current_cost + change
            seen[new_expr] = (current, k, i)
            counter += 1
            heapq.heappush(frontier, (cost, counter, new_expr))
            if cost < best_cost:
                best_cost, ties = cost, [new_expr]
            elif cost == best_cost:
                ties.append(new_expr)
            if applications >= budget:
                break
    lengths: dict = {}
    best = min(ties, key=lambda x: _tie_key(x, best_cost, lengths))
    steps = []
    node = best
    while seen[node] is not None:
        parent, k, i = seen[node]
        rule, path, before, after = _locate(parent, k, i, memo)
        steps.append(TraceStep(rule.name, rule.cite, path, before, after))
        node = parent
    return best, RuleTrace(tuple(reversed(steps)))
