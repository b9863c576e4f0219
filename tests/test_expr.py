import copy
import gc
import pickle
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathweave import expr
from pathweave.cli import main
from pathweave.errors import ExprSyntaxError, PathweaveError
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
    build,
    check_signatures,
    children,
    fold,
    format_expr,
    format_length,
    is_boolean_expr,
    node_count,
    parse,
    parse_program,
    postorder,
    replace_at,
    weighted_cost,
    with_children,
)

from pathweave.rewrite import EVar, SVar
from util import random_expr


COAUTHOR = "A[authored] . A[authored]' & not(I)"
MERGE = (
    "0.6 * (A[authored] . A[authored]' & not(I)) + "
    "0.4 * (A[developed] . A[developed]' & not(I))"
)


def test_parse_coauthorship_shape():
    tree = parse(COAUTHOR)
    expected = Hadamard(
        MatMul(SliceRef("authored"), Transpose(SliceRef("authored"))),
        Not(Filter("identity")),
    )
    assert tree == expected


def test_parse_weighted_merge_shape():
    tree = parse(MERGE)
    assert isinstance(tree, Add)
    assert isinstance(tree.left, Scale) and tree.left.coef == 0.6
    assert isinstance(tree.right, Scale) and tree.right.coef == 0.4
    assert isinstance(tree.left.child, Hadamard)


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("A[authored .")
    assert err.value.pos == 11
    assert "offset 11" in str(err.value)


def test_unknown_function():
    with pytest.raises(ExprSyntaxError, match="unknown function 'frob'"):
        parse("frob(A[x])")


def test_filters_and_thresholds():
    assert parse("R(marko)") == Filter("row", "marko")
    assert parse("E(a,b)'") == Transpose(Filter("entry", "a", "b"))
    assert parse("vout(A[x], 2)") == VOut(SliceRef("x"), 2)
    assert parse("vin(A[x])") == VIn(SliceRef("x"), 0)
    with pytest.raises(ExprSyntaxError, match="nonnegative integer"):
        parse("vout(A[x], 1.5)")


@pytest.mark.parametrize("text, pos", [("1e999 * A[x]", 0), ("A[x] + 2e400 * A[y]", 7)])
def test_non_finite_scale_factor_is_a_syntax_error(text, pos, capsys):
    # it would parse as inf, which prints as a name that does not parse back
    with pytest.raises(ExprSyntaxError, match="out of range") as err:
        parse(text)
    assert err.value.pos == pos
    assert main(["simplify", "--expr", text]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "out of range" in out.err


@pytest.mark.parametrize("coef", [float("inf"), float("-inf"), float("nan"), -1.0, -2])
def test_scale_refuses_a_factor_the_kernel_refuses(coef):
    # `inf * A[x]` would print as a name that does not parse back, and a nan
    # factor, unequal to itself, would be a new node at every call
    x = SliceRef("x")
    for make in (lambda: Scale(coef, x), lambda: Scale(child=x, coef=coef)):
        with pytest.raises(PathweaveError, match="scale factor must be a finite nonnegative real"):
            make()
    assert Scale(0.0, x) is Scale(0, x)


def test_precedence():
    # `.` tighter than `&` tighter than `+`
    tree = parse("A[a] . A[b] & A[c] + A[d]")
    assert tree == Add(
        Hadamard(MatMul(SliceRef("a"), SliceRef("b")), SliceRef("c")), SliceRef("d")
    )
    # scale binds the following unary expression
    tree = parse("2 * A[a] . A[b]")
    assert tree == MatMul(Scale(2.0, SliceRef("a")), SliceRef("b"))


@pytest.mark.parametrize(
    "coef, label",
    [(np.float64(2.0), "np-float64"), (np.float32(2.0), "np-float32"), (np.int64(3), "np-int64")],
)
def test_numpy_scale_factors_print_as_numbers(coef, label):
    # each label is fresh, so interning cannot hand back a node whose factor
    # is a Python float
    e = Scale(coef, SliceRef(label))
    assert format_expr(e) == f"{float(coef)!r} * A[{label}]"
    assert parse(format_expr(e)) is e


def test_format_round_trips_worked_examples():
    for text in (COAUTHOR, MERGE):
        tree = parse(text)
        assert parse(format_expr(tree)) == tree
    assert format_expr(Filter("identity")) == "I"
    nested = Scale(0.5, Add(SliceRef("x"), Scale(0.25, SliceRef("y"))))
    assert parse(format_expr(nested)) == nested


def test_round_trip_1000_random_trees(rng):
    labels = ["authored", "cites", "x-y"]
    names = ["v0", "v1", "marko"]
    for _ in range(1000):
        tree = random_expr(rng, labels, names, depth=8)
        assert parse(format_expr(tree)) == tree


def test_parser_total_on_fuzz(rng):
    """Every input yields a tree or a positioned syntax error, never a crash."""
    alphabet = list("A[]()&.+*'RCEIv not,clip=0123456789\t\n\\\"~%$") + ["λ", "∘"]
    for _ in range(100_000):
        k = int(rng.integers(0, 24))
        text = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=k))
        try:
            parse(text)
        except ExprSyntaxError as err:
            assert 0 <= err.pos <= len(text)


@given(st.text(max_size=30))
@settings(max_examples=300, deadline=None)
def test_parser_total_hypothesis(text):
    try:
        parse(text)
    except ExprSyntaxError as err:
        assert 0 <= err.pos <= len(text)


def test_parse_program_let_bindings():
    program = """
# coauthorship with a binding
let coauth = A[authored] . A[authored]' & not(I)
let weighted = 0.6 * coauth
"""
    tree = parse_program(program)
    assert isinstance(tree, Scale)
    assert tree.child == parse(COAUTHOR)


def test_parse_program_trailing_expression():
    assert parse_program("# c\nA[x] & I\n") == Hadamard(SliceRef("x"), Filter("identity"))
    with pytest.raises(ExprSyntaxError):
        parse_program("# only a comment\n")


@pytest.mark.parametrize(
    "text, pos",
    [
        ("# a comment\nA[x] + )\n", 19),
        ("let y = A[x]\r\n# c\r\ny + ]\r\n", 23),
        ("A[x]\u2028# c\u2029A[y] ~", 14),
        ("# c\r\nlet y = A[x] +\r\n", 21),
    ],
    ids=["comment", "crlf", "unicode-breaks", "end-of-input"],
)
def test_program_error_offsets_index_the_text_as_given(text, pos):
    with pytest.raises(ExprSyntaxError) as err:
        parse_program(text)
    assert err.value.pos == pos
    # the offset names the offending character, or the end of the input
    assert pos == len(text) or not text[pos].isspace()


# written out rather than read from the parser's tables, so that a spelling
# dropped from a table shows here
RESERVED_NAMES = ("I", "ONES", "ZERO", "R", "C", "E", "A", "let", "not", "clip", "vout", "vin")
ATOM_TEXTS = ("I", "ONES", "ZERO", "R(v)", "E(a,b)", "not(A[x])", "clip(A[x])", "vout(A[x], 2)", "vin(A[x])")


@pytest.mark.parametrize("name", RESERVED_NAMES)
def test_reserved_name_is_not_a_let_name(name):
    with pytest.raises(ExprSyntaxError, match="binding name"):
        parse_program(f"let {name} = A[x]\n{name}\n")


@pytest.mark.parametrize("text", ATOM_TEXTS)
def test_atom_round_trips(text):
    assert format_expr(parse(text)) == text


def test_cost_and_count():
    tree = parse(COAUTHOR)
    assert node_count(tree) == 7
    # Hadamard 2 + MatMul 4 + slice/slice/transpose/not/I at 1 each
    assert weighted_cost(tree) == 11


def test_signatures_author_citation(fixture1_signed):
    report = check_signatures(parse("A[authored] . A[cites] . A[authored]'"), fixture1_signed)
    assert report.ok
    assert report.derived == ("H", "H")


def test_signatures_violation(fixture1_signed):
    report = check_signatures(parse("A[cites] . A[authored]"), fixture1_signed)
    assert not report.ok
    assert report.violations[0].expected == "A"
    assert report.violations[0].found == "H"


def test_signatures_polymorphic_filters(fixture1_signed):
    report = check_signatures(parse("R(h1) & not(I)"), fixture1_signed)
    assert report.ok
    assert report.derived == (None, None)
    # filters adapt to the signed operand
    report = check_signatures(parse("A[authored] & ONES"), fixture1_signed)
    assert report.ok and report.derived == ("H", "A")


def test_signature_violations_render_when_read(fixture1_signed, monkeypatch):
    k = 3000
    chain = parse(" . ".join(["A[authored]"] * k))
    calls = []
    real = expr.format_expr
    monkeypatch.setattr(expr, "format_expr", lambda e: calls.append(e) or real(e))
    report = check_signatures(chain, fixture1_signed)
    # every product composes authored's range A with its domain H
    assert len(report.violations) == k - 1
    assert calls == []
    first, last = report.violations[0], report.violations[-1]
    assert (first.subexpr, first.expected, first.found) == ("A[authored] . A[authored]", "A", "H")
    assert last.subexpr == " . ".join(["A[authored]"] * k)
    assert len(calls) == 2


def test_signatures_absent_means_unknown(fixture1):
    report = check_signatures(parse("A[cites] . A[authored]"), fixture1)
    assert report.ok
    assert report.derived == (None, None)


def test_fold_is_post_order_and_not_bounded_by_recursion():
    order = []
    fold(parse("A[a] . A[b]' + I"), lambda node, kids: order.append(format_expr(node)))
    assert order == ["A[a]", "A[b]", "A[b]'", "A[a] . A[b]'", "I", "A[a] . A[b]' + I"]
    deep = SliceRef("x")
    for _ in range(10_000):
        deep = Transpose(deep)
    assert fold(deep, lambda node, kids: 1 + sum(kids)) == 10_001


def test_postorder_lists_each_distinct_node_once():
    e = parse("A[a] . A[a]' + A[b] & A[a] . A[a]'")
    order = [format_expr(node) for node in postorder(e)]
    assert order == [
        "A[a]",
        "A[a]'",
        "A[a] . A[a]'",
        "A[b]",
        "A[b] & A[a] . A[a]'",
        "A[a] . A[a]' + A[b] & A[a] . A[a]'",
    ]
    # a subtree in `done` is neither listed nor entered
    done = {parse("A[a] . A[a]'")}
    assert [format_expr(node) for node in postorder(e, done)] == order[3:]
    assert postorder(e, {e}) == []


def test_fold_visits_a_shared_subtree_once_and_drops_its_value_after_its_last_parent():
    class Value:  # a fold value that a weak reference can watch
        pass

    e = parse("A[a] . A[a]' + A[b]")
    refs, visits = {}, []

    def visit(node, kids):
        live = {format_expr(n) for n, ref in refs.items() if ref() is not None}
        visits.append((format_expr(node), live))
        value = Value()
        refs[node] = weakref.ref(value)
        return value

    root = fold(e, visit)
    assert visits == [
        ("A[a]", set()),
        ("A[a]'", {"A[a]"}),
        # A[a] is read by the transpose and the product: held until the product
        ("A[a] . A[a]'", {"A[a]", "A[a]'"}),
        ("A[b]", {"A[a] . A[a]'"}),
        ("A[a] . A[a]' + A[b]", {"A[a] . A[a]'", "A[b]"}),
    ]
    assert refs[e]() is root


def test_signatures_report_a_shared_mistyped_product_once(fixture1_signed):
    report = check_signatures(
        parse("A[cites] . A[authored] + A[cites] . A[authored]"), fixture1_signed
    )
    assert [(v.subexpr, v.expected, v.found) for v in report.violations] == [
        ("A[cites] . A[authored]", "A", "H")
    ]


def test_is_boolean_expr_not_bounded_by_recursion():
    chain = parse(" & ".join(["A[x]"] * 3000))
    assert is_boolean_expr(chain) is True
    # a product anywhere in the filter chain makes it non-boolean
    assert is_boolean_expr(Hadamard(chain, MatMul(SliceRef("x"), SliceRef("x")))) is False
    assert is_boolean_expr(Transpose(Hadamard(Not(SliceRef("x")), Filter("row", "v")))) is True


DEEP = 20_000


@pytest.mark.parametrize(
    "opener, closer, wrap",
    [
        ("(", ")", lambda e: e),
        ("clip(", ")", Clip),
        ("vout(", ", 1)", lambda e: VOut(e, 1)),
        ("1 * ", "", lambda e: Scale(1, e)),
    ],
    ids=["parentheses", "clip", "vout", "factor"],
)
def test_nesting_depth_is_not_bounded_by_recursion(opener, closer, wrap):
    # the parser runs on explicit stacks: this was "nested too deeply"
    # beyond about 247 levels
    text = opener * DEEP + "A[x]" + closer * DEEP
    expected = SliceRef("x")
    for _ in range(DEEP):
        expected = wrap(expected)
    assert parse(text) is expected
    assert parse_program("# deep\nlet y = " + text + "\ny\n") is expected
    assert parse(format_expr(expected)) is expected


# -- interning -------------------------------------------------------------------


def test_equal_text_parses_to_one_object():
    assert parse(MERGE) is parse(MERGE)
    assert parse(COAUTHOR).left is parse("A[authored] . A[authored]'")


def test_constructed_trees_are_their_parsed_renderings():
    rng = np.random.default_rng(11)
    for _ in range(300):
        e = random_expr(rng, ("alpha", "beta"), ["v0", "v1", "v2"], 5)
        assert parse(format_expr(e)) is e


def test_rendered_length_is_measured_from_the_children():
    rng = np.random.default_rng(12)
    lengths = {}  # shared, as the tie-breakers share it across candidates
    for _ in range(300):
        e = random_expr(rng, ("alpha", "beta"), ["v0", "v1", "v2"], 5)
        assert format_length(e, lengths) == len(format_expr(e))
        assert format_length(e, {}) == len(format_expr(e))
    deep = parse(" + ".join(["A[x] & I"] * 3000))
    assert format_length(deep, lengths) == len(format_expr(deep))


def test_keyword_default_and_equal_scalar_arguments_give_one_node():
    x = SliceRef("x")
    assert Filter(kind="row", a="v") is Filter("row", "v")
    assert Filter("identity") is Filter("identity", None, None)
    assert Scale(2, x) is Scale(2.0, x)
    assert VOut(x) is VOut(x, 0) is VOut(child=x, p=0)
    assert VIn(x, 1) is not VOut(x, 1)


_x, _y, _z = SliceRef("x"), SliceRef("y"), SliceRef("z")

# one node of each type: (type, positional arguments, which may leave
# defaults out, and every field by keyword)
LAYOUTS = [
    (SliceRef, ("x",), {"label": "x"}),
    (Filter, ("identity",), {"kind": "identity", "a": None, "b": None}),
    (Filter, ("row", "v"), {"kind": "row", "a": "v", "b": None}),
    (Filter, ("entry", "v", "w"), {"b": "w", "a": "v", "kind": "entry"}),
    (MatMul, (_x, _y), {"right": _y, "left": _x}),
    (Hadamard, (_x, _y), {"left": _x, "right": _y}),
    (Add, (_y, _x), {"left": _y, "right": _x}),
    (Transpose, (_x,), {"child": _x}),
    (Not, (_x,), {"child": _x}),
    (Clip, (_x,), {"child": _x}),
    (VOut, (_x,), {"child": _x, "p": 0}),
    (VIn, (_x, 2), {"p": 2, "child": _x}),
    (Scale, (2, _x), {"child": _x, "coef": 2.0}),
]


@pytest.mark.parametrize(
    "op, args, kwargs", LAYOUTS, ids=[f"{op.__name__}{len(args)}" for op, args, _ in LAYOUTS]
)
def test_every_node_type_is_its_scalars_and_children(op, args, kwargs):
    e = op(*args)
    assert op(**kwargs) is e
    assert op(*[kwargs[f] for f in op._fields]) is e
    scalars = tuple(getattr(e, f) for f in op._scalars)
    kids = tuple(kwargs[f] for f in op._fields if f not in op._scalars)
    assert children(e) == kids
    assert build(op, scalars, kids) is e
    assert with_children(e, children(e)) is e
    for k, kid in enumerate(kids):
        assert replace_at(e, (k,), kid) is e
        # a new child keeps the others and the scalars
        other = replace_at(e, (k,), _z)
        assert children(other) == kids[:k] + (_z,) + kids[k + 1 :]
        assert type(other) is op and tuple(getattr(other, f) for f in op._scalars) == scalars
    assert pickle.loads(pickle.dumps(e)) is e


@pytest.mark.parametrize(
    "call, problem",
    [
        (lambda: Filter(), "missing required argument 'kind'"),
        (lambda: Scale(2.0), "missing required argument 'child'"),
        (lambda: VIn(p=1), "missing required argument 'child'"),
        (lambda: SliceRef(name="x"), "unexpected keyword argument 'name'"),
        (lambda: VOut(_x, q=1), "unexpected keyword argument 'q'"),
        (lambda: SliceRef("x", label="x"), "multiple values for argument 'label'"),
        (lambda: MatMul(_x, _y, left=_x), "multiple values for argument 'left'"),
        (lambda: Not(_x, _y), "takes 1 arguments but 2 were given"),
        (lambda: Filter("entry", "v", "w", "u"), "takes 3 arguments but 4 were given"),
    ],
)
def test_constructors_bind_their_arguments_as_a_signature_would(call, problem):
    with pytest.raises(TypeError, match=problem):
        call()


def test_pickle_and_copies_return_the_interned_node():
    e = parse(MERGE + " + vout(E(a,b), 2)'")
    assert pickle.loads(pickle.dumps(e)) is e
    assert copy.copy(e) is e
    assert copy.deepcopy(e) is e
    assert copy.deepcopy({"tree": e})["tree"] is e


def test_deep_chains_pickle_and_print_without_recursion():
    e = parse(" . ".join(["A[x]"] * 3000))
    assert pickle.loads(pickle.dumps(e)) is e
    # the text the recursive repr wrote, one level at a time
    want = "SliceRef(label='x')"
    for _ in range(2999):
        want = f"MatMul(left={want}, right=SliceRef(label='x'))"
    assert repr(e) == want


def test_pickle_lays_out_each_shared_node_once():
    e = SliceRef("x")
    for _ in range(64):
        e = MatMul(e, e)  # 2**64 leaves as a tree, 65 nodes as written
    data = pickle.dumps(e)
    assert len(data) < 4000
    assert pickle.loads(data) is e


def test_patterns_pickle_and_print_with_their_metavariables():
    pat = Hadamard(MatMul(EVar("x"), EVar("y", boolean=True)), Scale(SVar("c"), EVar("x")))
    assert pickle.loads(pickle.dumps(pat)) is pat
    assert repr(pat) == (
        "Hadamard(left=MatMul(left=EVar(name='x', boolean=False), "
        "right=EVar(name='y', boolean=True)), "
        "right=Scale(coef=SVar(name='c'), child=EVar(name='x', boolean=False)))"
    )


def test_nodes_cannot_be_changed():
    e = parse("A[x] . A[y]")
    with pytest.raises(AttributeError):
        e.left = SliceRef("z")
    with pytest.raises(AttributeError):
        del e.right
    with pytest.raises(AttributeError):
        setattr(SliceRef("x"), "label", "y")
    assert format_expr(e) == "A[x] . A[y]"


def test_table_keeps_no_dead_tree():
    # no cyclic collection runs in between, so only this tree's nodes come
    # and go
    gc.collect()
    gc.disable()
    try:
        baseline = len(expr._TABLE)
        tree = parse(" . ".join(f"A[dropped{k}]" for k in range(50)) + " & not(R(dropped))")
        # 50 slices, 49 products, and the filter, its complement and the `&`
        assert len(expr._TABLE) == baseline + 50 + 49 + 3
        ref = weakref.ref(tree)
        del tree
        assert ref() is None
        assert len(expr._TABLE) == baseline
    finally:
        gc.enable()


def test_threads_building_the_same_trees_share_every_node():
    count, workers = 500, 4

    def tree(k):
        return Hadamard(
            MatMul(SliceRef(f"shared{k}"), Transpose(SliceRef(f"shared{k + 1}"))),
            Not(Filter("row", f"w{k}")),
        )

    built = [None] * workers
    start = threading.Barrier(workers, timeout=30)

    def build(slot):
        start.wait()
        built[slot] = [tree(k) for k in range(count)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    for k in range(count):
        first = built[0][k]
        assert all(trees[k] is first for trees in built[1:])
        assert first is tree(k)
    # neighbouring trees share a slice, whichever thread built each
    assert all(built[0][k].left.right.child is built[1][k + 1].left.left for k in range(count - 1))
