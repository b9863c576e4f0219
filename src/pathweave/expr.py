"""Textual DSL for path expressions: AST, parser, printer, signature checker.

The grammar is written once, in the tables of the grammar section below,
and the parser, the printer and the rewriter read it there: `_INFIX` ranks
the binary operators (`+` merges, `&` is the entrywise filter product, `.`
the matrix product), `_ATOMS` spells the filters and functions,
`FILTER_KINDS` counts each filter's vertex names (`kernels.FilterSpec`
checks the same table), and `_SCALAR_FIELDS` names each node's fields that
are not expressions. `NUMBER *` scales, postfix `'` transposes, and
`A[label]` names a slice. Vertex names resolve through the dictionary at
evaluation time, keeping expressions portable across ingests.

Infix `.` and `&` replace the overloaded composition symbol of the printed
notation so products and filters can never be confused.

Nodes are hash-consed: every constructor returns the one live node with
its type, its scalar fields (by value, so `Scale(2, x) is Scale(2.0, x)`)
and its children, so equal trees are one object. `==` and hashing are
identity, O(1) however deep the tree, and each node records its weighted
cost and whether it is syntactically {0,1}-valued when it is built. Nodes
cannot be changed; pickling and copying return the interned node. The
table holds its nodes weakly, so it keeps no tree alive.
"""

from __future__ import annotations

import re
import weakref
from _weakref import _remove_dead_weakref
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property, wraps

from .errors import EvalError, ExprSyntaxError


# -- the node model --------------------------------------------------------------
#
# Hash-consing (J.-C. Filliatre and S. Conchon, "Type-safe modular
# hash-consing", ML Workshop 2006). Every node is built through `_TABLE`,
# keyed on its type, its scalar fields and its children themselves, which
# compare and hash by identity. The table maps each key to a weak reference
# whose callback is the key itself, so the entry goes when the node dies; a
# key holds the node's children, which the node holds anyway.
#
# Every table operation is one dict call, atomic under the interpreter lock:
# a thread that loses the race to publish a node takes the winner's, and
# the callback removes an entry only while it is still the dead one.

_TABLE: dict = {}

# nodes refuse `setattr`, so their constructors write slots through object's
_set = object.__setattr__


class _Key(tuple):
    """A table key that is also its entry's weakref callback: when the node
    dies, the key removes its entry, unless a live node's has replaced it."""

    __slots__ = ()

    def __call__(self, ref, table=_TABLE, remove=_remove_dead_weakref):
        remove(table, self)


# dead at once: `_TABLE.get(key, _ABSENT)()` reads a missing entry as a dead one
_ABSENT = weakref.ref(set())


def _publish(node, key):
    """Record what `node` derives from its children, then make it the node
    interned under `key`; returns the node that holds the key, which is
    another thread's when that thread published first."""
    node._derive()
    key = _Key(key)
    ref = weakref.ref(node, key)
    while True:
        held = _TABLE.setdefault(key, ref)
        if held is ref:
            return node
        found = held()
        if found is not None:
            return found
        _remove_dead_weakref(_TABLE, key)  # a dead entry whose callback is pending


class _Node:
    """An immutable expression node. Equality and hashing are identity,
    since equal trees are one object. `_cost` is the tree's weighted cost
    and `_boolean` whether it is syntactically {0,1}-valued (see
    `is_boolean_expr`), both recorded when the node is built. `_fields`
    names the constructor's arguments in order."""

    __slots__ = ("_cost", "__weakref__")
    _fields: tuple = ()
    _weight = 1
    # a constant of each type, but a slot derived from the children where
    # that depends on them (Hadamard, Transpose)
    _boolean = True

    def _derive(self):
        _set(self, "_cost", 1)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # unpickling calls the constructor, so it returns the interned node
        return type(self), tuple([getattr(self, f) for f in self._fields])

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"


class SliceRef(_Node):
    __slots__ = ("label",)
    _fields = ("label",)

    def __new__(cls, label):
        key = (cls, label)
        node = _TABLE.get(key, _ABSENT)()
        if node is None:
            node = object.__new__(cls)
            _set(node, "label", label)
            node = _publish(node, key)
        return node


class Filter(_Node):
    __slots__ = ("kind", "a", "b")
    _fields = ("kind", "a", "b")

    def __new__(cls, kind, a=None, b=None):
        key = (cls, kind, a, b)
        node = _TABLE.get(key, _ABSENT)()
        if node is None:
            node = object.__new__(cls)
            _set(node, "kind", kind)
            _set(node, "a", a)
            _set(node, "b", b)
            node = _publish(node, key)
        return node


class _Binary(_Node):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def __new__(cls, left, right):
        key = (cls, left, right)
        node = _TABLE.get(key, _ABSENT)()
        if node is None:
            node = object.__new__(cls)
            _set(node, "left", left)
            _set(node, "right", right)
            node = _publish(node, key)
        return node

    def _derive(self):
        _set(self, "_cost", self._weight + self.left._cost + self.right._cost)


class MatMul(_Binary):
    __slots__ = ()
    _weight = 4
    _boolean = False


class Hadamard(_Binary):
    __slots__ = ("_boolean",)
    _weight = 2

    def _derive(self):
        super()._derive()
        _set(self, "_boolean", self.left._boolean and self.right._boolean)


class Add(_Binary):
    __slots__ = ()
    _boolean = False


class _Unary(_Node):
    __slots__ = ("child",)
    _fields = ("child",)

    def __new__(cls, child):
        key = (cls, child)
        node = _TABLE.get(key, _ABSENT)()
        if node is None:
            node = object.__new__(cls)
            _set(node, "child", child)
            node = _publish(node, key)
        return node

    def _derive(self):
        _set(self, "_cost", 1 + self.child._cost)


class Transpose(_Unary):
    __slots__ = ("_boolean",)

    def _derive(self):
        super()._derive()
        _set(self, "_boolean", self.child._boolean)


class Not(_Unary):
    __slots__ = ()


class Clip(_Unary):
    __slots__ = ()


class _Vertex(_Unary):
    __slots__ = ("p",)
    _fields = ("child", "p")

    def __new__(cls, child, p=0):
        key = (cls, p, child)
        node = _TABLE.get(key, _ABSENT)()
        if node is None:
            node = object.__new__(cls)
            _set(node, "child", child)
            _set(node, "p", p)
            node = _publish(node, key)
        return node


class VOut(_Vertex):
    __slots__ = ()


class VIn(_Vertex):
    __slots__ = ()


class Scale(_Unary):
    __slots__ = ("coef",)
    _fields = ("coef", "child")
    _boolean = False

    def __new__(cls, coef, child):
        key = (cls, coef, child)
        node = _TABLE.get(key, _ABSENT)()
        if node is None:
            node = object.__new__(cls)
            _set(node, "coef", coef)
            _set(node, "child", child)
            node = _publish(node, key)
        return node


_BINARY = (MatMul, Hadamard, Add)
_UNARY = (Transpose, Not, Clip, VOut, VIn, Scale)
# the node types above are never subclassed, so a node's type decides its shape
_BINARY_TYPES, _UNARY_TYPES = frozenset(_BINARY), frozenset(_UNARY)


def children(e) -> tuple:
    op = type(e)
    if op in _BINARY_TYPES:
        return (e.left, e.right)
    if op in _UNARY_TYPES:
        return (e.child,)
    return ()


def with_children(e, kids: tuple):
    op = type(e)
    if op in _BINARY_TYPES:
        return op(kids[0], kids[1])
    if op is Scale:
        return Scale(e.coef, kids[0])
    if op is VOut or op is VIn:
        return op(kids[0], e.p)
    if op in _UNARY_TYPES:
        return op(kids[0])
    return e


def build(op, scalars, kids):
    """The node of type `op` with the values of its `_SCALAR_FIELDS`, in
    that order, and its children."""
    values = dict(zip(_SCALAR_FIELDS.get(op, ()), scalars))
    kids = iter(kids)
    return op(*[values[f] if f in values else next(kids) for f in op._fields])


def walk(e):
    """Preorder iterator of (path, node)."""
    stack = [((), e)]
    while stack:
        path, node = stack.pop()
        yield path, node
        kids = children(node)
        for idx in range(len(kids) - 1, -1, -1):
            stack.append((path + (idx,), kids[idx]))


def fold(e, visit):
    """Post-order fold: `visit(node, kid_values)` gives each node's value from
    its children's (an empty tuple at a leaf); returns the root's value.

    Runs on an explicit stack, so depth is bounded by memory rather than the
    recursion limit. Children are visited left to right."""
    values, stack = [], [(e, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None:
            kids = children(node)
            stack.append((node, kids))
            stack.extend((kid, None) for kid in reversed(kids))
        else:
            start = len(values) - len(kids)
            value = visit(node, tuple(values[start:]))
            del values[start:]  # children's values die here, not at the next visit
            values.append(value)
    return values[0]


def subexpr_at(e, path: tuple):
    for idx in path:
        e = children(e)[idx]
    return e


def replace_at(e, path: tuple, new):
    """`e` with the subtree at `path` replaced by `new`; every node along the
    path is rebuilt, on an explicit stack, so depth is bounded by memory."""
    spine = []
    for idx in path:
        spine.append(e)
        e = children(e)[idx]
    for node, idx in zip(reversed(spine), reversed(path)):
        op = type(node)
        if op in _BINARY_TYPES:
            new = op(new, node.right) if idx == 0 else op(node.left, new)
        else:
            new = with_children(node, (new,))
    return new


def node_count(e) -> int:
    count, stack = 0, [e]
    while stack:
        count += 1
        stack += children(stack.pop())
    return count


def weighted_cost(e) -> int:
    """Node count with matrix products weighted 4 and filter products 2;
    recorded when the node is built."""
    return e._cost


def is_boolean_expr(e) -> bool:
    """Conservative syntactic {0,1}-valuedness, recorded when a node is built.

    Slices are boolean by construction of the tensor; filters and the
    clip/not/vout/vin results are boolean by definition; a product of
    booleans is not (counts exceed 1), nor is a sum or a scaling.
    Transposes and filter products are boolean when all their operands are.
    """
    return e._boolean


# -- the grammar ---------------------------------------------------------------

# node type -> its non-expression fields: label, filter kind and vertex
# names, scale factor, threshold
_SCALAR_FIELDS = {
    SliceRef: ("label",),
    Filter: ("kind", "a", "b"),
    Scale: ("coef",),
    VOut: ("p",),
    VIn: ("p",),
}

# filter kind -> the number of vertex indices it takes
FILTER_KINDS = {"row": 1, "col": 1, "entry": 2, "identity": 0, "ones": 0, "zeros": 0}

# the word of a slice reference, `A[label]`
_SLICE = "A"

# atom spelling -> a filter kind or a function's node type. A filter that
# takes no index is the bare word; one that takes k is the word applied to
# k vertex names, `R(v)`, `E(a,b)`. A function applies to one expression,
# and one with a threshold field takes an optional integer after it,
# `vout(e, 2)`.
_ATOMS = {
    "I": "identity",
    "ONES": "ones",
    "ZERO": "zeros",
    "R": "row",
    "C": "col",
    "E": "entry",
    "not": Not,
    "clip": Clip,
    "vout": VOut,
    "vin": VIn,
}
_SPELLING = {meaning: word for word, meaning in _ATOMS.items()}

# binary operators from loosest to tightest. An operator's level is its
# position here, and its right operand needs the next level, so a chain of
# one operator associates left. `NUMBER *` scaling binds tighter than all
# three, and postfix `'` tightest.
_INFIX = ((Add, "+"), (Hadamard, "&"), (MatMul, "."))
# operator text -> its level, and operator node type -> its printed text and level
_LEVEL = {text: level for level, (_, text) in enumerate(_INFIX)}
_INFIX_TEXT = {op: (f" {text} ", level) for level, (op, text) in enumerate(_INFIX)}
_LEVEL_SCALE, _LEVEL_POSTFIX = len(_INFIX), len(_INFIX) + 1


# -- parsing -----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_\-]*)
      | (?P<op>['.&+*()\[\],=])
    """,
    re.VERBOSE,
)

_RESERVED = {_SLICE, "let", *_ATOMS}


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(_Token("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token], env: dict | None):
        self.toks = tokens
        self.i = 0
        self.env = env or {}

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect(self, value: str) -> _Token:
        tok = self.peek()
        if tok.kind == "op" and tok.value == value:
            return self.take()
        shown = tok.value or "end of input"
        raise ExprSyntaxError(f"expected {value!r}, found {shown!r}", tok.pos)

    def at_op(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.value == value

    def parse_infix(self, level: int = 0):
        """Operands joined by the operators at `level` and tighter, by
        precedence climbing: each operator takes as its right operand what
        binds tighter than itself, so chains associate left."""
        node = self.parse_unary()
        while True:
            tok = self.peek()
            own = _LEVEL.get(tok.value) if tok.kind == "op" else None
            if own is None or own < level:
                return node
            self.take()
            node = _INFIX[own][0](node, self.parse_infix(own + 1))

    def parse_unary(self):
        tok = self.peek()
        if tok.kind == "number":
            self.take()
            self.expect("*")
            return Scale(float(tok.value), self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self):
        node = self.parse_atom()
        while self.at_op("'"):
            self.take()
            node = Transpose(node)
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "op" and tok.value == "(":
            self.take()
            node = self.parse_infix()
            self.expect(")")
            return node
        if tok.kind != "ident":
            shown = tok.value or "end of input"
            raise ExprSyntaxError(f"expected an expression, found {shown!r}", tok.pos)
        name = tok.value
        follows = self.toks[self.i + 1].value
        if name == _SLICE and follows == "[":
            self.take()
            self.take()
            label = self.peek()
            if label.kind != "ident":
                raise ExprSyntaxError("expected a slice label", label.pos)
            self.take()
            self.expect("]")
            return SliceRef(label.value)
        meaning = _ATOMS.get(name)
        if isinstance(meaning, str) and FILTER_KINDS[meaning] == 0:
            self.take()
            return Filter(meaning)
        if meaning is not None and follows == "(":
            self.take()
            self.take()
            if isinstance(meaning, str):
                names = [self._vertex_name()]
                while len(names) < FILTER_KINDS[meaning]:
                    self.expect(",")
                    names.append(self._vertex_name())
                node = Filter(meaning, *names)
            else:
                inner = self.parse_infix()
                # a function with a scalar field, the threshold, takes `, p` too
                args = (inner, self._threshold()) if meaning in _SCALAR_FIELDS else (inner,)
                node = meaning(*args)
            self.expect(")")
            return node
        if follows == "(":
            raise ExprSyntaxError(f"unknown function {name!r}", tok.pos)
        if name in self.env:
            self.take()
            return self.env[name]
        raise ExprSyntaxError(f"unknown name {name!r}", tok.pos)

    def _vertex_name(self) -> str:
        tok = self.peek()
        if tok.kind not in ("ident", "number"):
            raise ExprSyntaxError("expected a vertex name", tok.pos)
        self.take()
        return tok.value

    def _threshold(self) -> int:
        """A vertex function's optional `, p` after its operand; 0 when absent."""
        if not self.at_op(","):
            return 0
        self.take()
        tok = self.peek()
        if tok.kind != "number" or not tok.value.isdigit():
            raise ExprSyntaxError("vertex threshold must be a nonnegative integer", tok.pos)
        self.take()
        return int(tok.value)


def _depth_guarded(parser):
    """The parser descends once per parenthesis or call level, so input
    nested deeper than the recursion limit allows raises EvalError, the
    error the CLI reports as exit 1, not a bare RecursionError."""

    @wraps(parser)
    def guarded(*args, **kwargs):
        try:
            return parser(*args, **kwargs)
        except RecursionError:
            raise EvalError("input is nested too deeply to process") from None

    return guarded


@_depth_guarded
def parse(text: str, env: dict | None = None):
    """Parse one expression; raises ExprSyntaxError with the failing offset."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text), env)
    node = parser.parse_infix()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {tok.value!r}", tok.pos)
    return node


@_depth_guarded
def parse_program(text: str):
    """Parse an expression file: `#` comments, optional `let name = expr`
    bindings, last binding (or a trailing bare expression) is the result."""
    stripped = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = _tokenize(stripped)
    parser = _Parser(tokens, {})
    result = None
    while parser.peek().kind != "eof":
        tok = parser.peek()
        if tok.kind == "ident" and tok.value == "let":
            parser.take()
            name_tok = parser.take()
            if name_tok.kind != "ident" or name_tok.value in _RESERVED:
                raise ExprSyntaxError("expected a binding name after 'let'", name_tok.pos)
            eq = parser.take()
            if eq.value != "=":
                raise ExprSyntaxError("expected '=' in let binding", eq.pos)
            bound = parser.parse_infix()
            parser.env[name_tok.value] = bound
            result = bound
        else:
            result = parser.parse_infix()
            tail = parser.peek()
            if tail.kind == "eof":
                break
            if not (tail.kind == "ident" and tail.value == "let"):
                raise ExprSyntaxError(f"unexpected trailing input {tail.value!r}", tail.pos)
    if result is None:
        raise ExprSyntaxError("empty expression file", 0)
    return result


# -- printing ----------------------------------------------------------------


def _fmt_number(x) -> str:
    if isinstance(x, float) and x.is_integer() and abs(x) < 1e15:
        return repr(x)
    return repr(float(x))


def format_expr(e) -> str:
    """Render so that parse(format_expr(e)) reproduces the tree exactly."""
    return fold(e, format_node)[0]


def format_length(e, memo: dict) -> int:
    """``len(format_expr(e))``, without building the text. A node's rendered
    length is its own text's, rendered around empty children, plus its
    children's lengths; `memo` maps each node measured to its (length,
    level), so trees sharing most of their nodes cost only their new ones.
    A node with no scalar fields renders the same around children of the
    same levels, so `memo` also keeps that text's (length, level) under
    (type, children's levels)."""
    stack = [e]
    while stack:
        node = stack[-1]
        kids = children(node)
        pending = [kid for kid in kids if kid not in memo]
        if pending:
            stack += pending
            continue
        stack.pop()
        if node in memo:  # pushed twice, as both children of one node
            continue
        shapes = [memo[kid] for kid in kids]
        frame = (type(node), *[level for _, level in shapes])
        own = memo.get(frame)
        if own is None:
            text, level = format_node(node, tuple([("", level) for _, level in shapes]))
            own = (len(text), level)
            if type(node) not in _SCALAR_FIELDS:
                memo[frame] = own
        memo[node] = (own[0] + sum([length for length, _ in shapes]), own[1])
    return memo[e][0]


def _at(kid, level: int) -> str:
    """A rendered child in a position that needs `level`: parenthesised when
    the child binds more loosely."""
    text, own = kid
    return f"({text})" if level > own else text


def format_node(e, kids) -> tuple:
    """Fold visitor behind ``format_expr``: the node's (text, level), given
    its children's; the text is what ``format_expr`` gives for the node alone,
    the level how tightly that text binds."""
    if isinstance(e, SliceRef):
        return f"{_SLICE}[{e.label}]", _LEVEL_POSTFIX
    if isinstance(e, Filter) and e.kind in FILTER_KINDS:
        word, count = _SPELLING[e.kind], FILTER_KINDS[e.kind]
        if count == 0:
            return word, _LEVEL_POSTFIX
        return (f"{word}({e.a})" if count == 1 else f"{word}({e.a},{e.b})"), _LEVEL_POSTFIX
    if isinstance(e, _BINARY):
        text, own = _INFIX_TEXT[type(e)]
        return f"{_at(kids[0], own)}{text}{_at(kids[1], own + 1)}", own
    if isinstance(e, Scale):
        return f"{_fmt_number(e.coef)} * {_at(kids[0], _LEVEL_SCALE)}", _LEVEL_SCALE
    if isinstance(e, Transpose):
        return f"{_at(kids[0], _LEVEL_POSTFIX)}'", _LEVEL_POSTFIX
    word = _SPELLING.get(type(e))
    if word is not None:  # a function, with its threshold (a scalar field) unless 0
        if type(e) in _SCALAR_FIELDS and e.p != 0:
            return f"{word}({kids[0][0]}, {e.p})", _LEVEL_POSTFIX
        return f"{word}({kids[0][0]})", _LEVEL_POSTFIX
    raise TypeError(f"not a path expression: {e!r}")


# -- signature checking --------------------------------------------------------


@dataclass(frozen=True)
class SignatureViolation:
    node: object
    expected: str
    found: str

    @cached_property
    def subexpr(self) -> str:
        """The offending subtree as text, rendered when first read: rendering
        every violation up front is quadratic in a mistyped chain's length."""
        return format_expr(self.node)


@dataclass(frozen=True)
class SignatureReport:
    ok: bool
    derived: tuple
    violations: tuple

    def __bool__(self):
        return self.ok


def check_signatures(e, tensor) -> SignatureReport:
    """Derive the (domainClass, rangeClass) of an expression and collect
    violations where a product composes a range with a mismatched domain or
    a merge/filter combines unequal signatures.

    Advisory only: a mis-typed composition evaluates to zero paths rather
    than failing, so violations are reported as data.
    """
    violations: list[SignatureViolation] = []

    def sig(node, kids):
        if isinstance(node, SliceRef):
            s = tensor.slices.get(node.label)
            return s.signature if s is not None and s.signature else (None, None)
        if isinstance(node, Filter):
            return (None, None)
        if isinstance(node, Transpose):
            d, r = kids[0]
            return (r, d)
        if isinstance(node, (Not, Clip, VOut, VIn, Scale)):
            return kids[0]
        if isinstance(node, MatMul):
            (ld, lr), (rd, rr) = kids
            if lr is not None and rd is not None and lr != rd:
                violations.append(SignatureViolation(node, lr, rd))
            return (ld, rr)
        if isinstance(node, (Hadamard, Add)):
            left, right = kids
            if None in left:
                return right if None not in right else tuple(
                    l if l is not None else r for l, r in zip(left, right)
                )
            if None not in right and left != right:
                violations.append(
                    SignatureViolation(node, f"{left[0]}->{left[1]}", f"{right[0]}->{right[1]}")
                )
            return left
        raise TypeError(f"not a path expression: {node!r}")

    derived = fold(e, sig)
    return SignatureReport(ok=not violations, derived=derived, violations=tuple(violations))
