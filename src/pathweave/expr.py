"""Textual DSL for path expressions: AST, parser, printer, signature checker.

The grammar is written once, in the tables of the grammar section below,
and the parser, the printer and the rewriter read it there: `_INFIX` ranks
the binary operators (`+` merges, `&` is the entrywise filter product, `.`
the matrix product), `_ATOMS` spells the filters and functions, and
`FILTER_KINDS` counts each filter's vertex names (`kernels.FilterSpec`
checks the same table). Each node type names its own fields that are not
expressions, `_scalars`. `NUMBER *` scales, postfix `'` transposes, and
`A[label]` names a slice. Vertex names resolve through the dictionary at
evaluation time, keeping expressions portable across ingests.

Infix `.` and `&` replace the overloaded composition symbol of the printed
notation so products and filters can never be confused.

The parser reads an expression in one loop on explicit stacks, so input of
any nesting depth parses, bounded by memory rather than the recursion
limit. `parse_program` reads each `#` comment as spaces, so the offset of a
syntax error in an expression file indexes the file's text as given.

Every node is its type, its scalar fields and a tuple of its children,
and is hash-consed: every constructor, and `build` under them, returns the
one live node with its type, its scalar fields (by value, so
`Scale(2, x) is Scale(2.0, x)`) and its children, so equal trees are one
object. `==` and hashing are identity, O(1) however deep the tree, and
each node records its weighted cost and whether it is syntactically
{0,1}-valued when it is built. Nodes cannot be changed; pickling and
copying return the interned node. The table holds its nodes weakly, so it
keeps no tree alive. Every walk over a tree's distinct nodes reads
`postorder`, `fold` included, so a subtree that occurs twice is folded once.
"""

from __future__ import annotations

import math
import numbers
import re
import weakref
from _weakref import _remove_dead_weakref
from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from operator import attrgetter

from .errors import EvalError, ExprSyntaxError


# -- the node model --------------------------------------------------------------
#
# Hash-consing (J.-C. Filliatre and S. Conchon, "Type-safe modular
# hash-consing", ML Workshop 2006). Every node is its type, its scalar
# fields and the tuple of its children, and `build` makes it through
# `_TABLE`, keyed on those three, (type, children, *scalars); the children
# compare and hash by identity. The table maps each key to a weak reference
# whose callback is the key itself, so the entry goes when the node dies.
# A node keeps its key, which shares the node's tuple of children, so
# rebuilding it around new children reads its scalars in one slice.
#
# Every table operation is one dict call, atomic under the interpreter lock:
# a thread that loses the race to publish a node takes the winner's, and
# the callback removes an entry only while it is still the dead one.

_TABLE: dict = {}

# nodes refuse `setattr`, so `build` writes their slots through object's
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
    """Make `node` the node interned under `key`; returns the node that holds
    the key, which is another thread's when that thread published first."""
    key = _Key(key)
    _set(node, "_key", key)
    ref = weakref.ref(node, key)
    while True:
        held = _TABLE.setdefault(key, ref)
        if held is ref:
            return node
        found = held()
        if found is not None:
            return found
        _remove_dead_weakref(_TABLE, key)  # a dead entry whose callback is pending


def build(op, scalars: tuple, kids: tuple):
    """The node of type `op` with the values of its `_scalars`, in that
    order, and the children `kids`: the live one if there is one, else a new
    one, which records what it derives from its children. Every node is
    built here."""
    key = (op, kids) + scalars
    node = _TABLE.get(key, _ABSENT)()
    if node is None:
        node = object.__new__(op)
        _set(node, "_kids", kids)
        for name, value in zip(op._scalars, scalars):
            _set(node, name, value)
        cost, boolean = op._weight, True
        for kid in kids:
            cost += kid._cost
            boolean = boolean and kid._boolean
        _set(node, "_cost", cost)
        if op._boolean_kids:
            _set(node, "_boolean", boolean)
        node = _publish(node, key)
    return node


def _layout(e) -> tuple:
    """The distinct nodes of `e` in `postorder`, as (type, scalar values,
    positions of the children) each; a child that is not a node (a
    pattern's metavariable) is an entry (None, itself, ()). Each pickled
    node carries its own layout, so nodes that share subtrees, pickled
    together in one container, lay those subtrees out once each: every
    prefix of a k-factor chain in one list takes O(k^2) entries."""
    order = postorder(e)
    pos = {node: k for k, node in enumerate(order)}
    return tuple(
        (type(node), _scalar_values(node), tuple([pos[kid] for kid in children(node)]))
        if isinstance(node, _Node)
        else (None, node, ())
        for node in order
    )


def _rebuild(layout):
    """The node `_layout` laid out, built bottom-up through `build`."""
    nodes = []
    for op, scalars, kids in layout:
        nodes.append(scalars if op is None else build(op, scalars, tuple(nodes[k] for k in kids)))
    return nodes[-1]


def _scalar_values(e) -> tuple:
    """The values of `e`'s `_scalars`, in order, read from its key."""
    return e._key[2:]


def _bind(op, args: tuple, kwargs: dict) -> tuple:
    """The values of `op`'s fields, in order, from a constructor call's
    positional and keyword arguments and the fields' defaults; raises
    TypeError where a written-out signature would."""
    fields, name = op._fields, op.__name__
    if len(args) > len(fields):
        raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
    rest = fields[len(args) :]
    for field in kwargs:
        if field in rest:
            continue
        if field in fields:
            raise TypeError(f"{name}() got multiple values for argument {field!r}")
        raise TypeError(f"{name}() got an unexpected keyword argument {field!r}")
    values = list(args)
    for field in rest:
        if field in kwargs:
            values.append(kwargs[field])
        elif field in op._defaults:
            values.append(op._defaults[field])
        else:
            raise TypeError(f"{name}() missing required argument {field!r}")
    return tuple(values)


class _Node:
    """An immutable expression node: its type, the scalar fields its type
    names in `_scalars` (slots of those names) and its children, the tuple
    `_kids`. Equality and hashing are identity, since equal trees are one
    object. `_cost` is the tree's weighted cost and `_boolean` whether it is
    syntactically {0,1}-valued (see `is_boolean_expr`), both recorded when
    the node is built.

    A type names its constructor's arguments in order (`_fields`), which of
    them are scalars (`_scalars`, one run before or after the children) and
    their defaults (`_defaults`). The other fields are the children, in
    order, each readable by its name. A constructor call binds its
    arguments to the fields, lets the type refuse its scalars
    (`_check_scalars`) and builds the node through `build`."""

    __slots__ = ("_kids", "_key", "_cost", "__weakref__")
    _fields: tuple = ()
    _scalars: tuple = ()
    _defaults: dict = {}
    _weight = 1
    # a constant of each type, but a slot holding whether every child is
    # boolean where `_boolean_kids` is set (Hadamard, Transpose)
    _boolean = True
    _boolean_kids = False
    # refuses a constructor call's scalar values, in order, that a type
    # cannot hold; `build` does not call it
    _check_scalars = None

    def __init_subclass__(cls):
        kids = tuple(f for f in cls._fields if f not in cls._scalars)
        # a call's arguments, bound in field order, hold the scalars and the
        # children each as one run, sliced out by `_scalar_run`, `_kid_run`
        runs = []
        for names in (cls._scalars, kids):
            start = cls._fields.index(names[0]) if names else 0
            if cls._fields[start : start + len(names)] != names:
                raise TypeError(f"{cls.__name__}: scalars must precede or follow the children")
            runs.append(slice(start, start + len(names)))
        cls._scalar_run, cls._kid_run = runs
        for k, name in enumerate(kids):
            setattr(cls, name, property(lambda self, k=k: self._kids[k]))

    def __new__(cls, *args, **kwargs):
        if kwargs or len(args) != len(cls._fields):
            args = _bind(cls, args, kwargs)
        scalars = args[cls._scalar_run]
        if cls._check_scalars is not None:
            cls._check_scalars(*scalars)
        return build(cls, scalars, args[cls._kid_run])

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # a flat layout, so a deep tree pickles without recursion;
        # unpickling builds each node, so it returns the interned one
        return _rebuild, (_layout(self),)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __repr__(self):
        # `Type(field=value, ...)` with each child's repr in its field,
        # written from a stack of pending pieces: a string is text as it
        # stands, anything else is a node to expand or a leaf to `repr`
        parts, stack = [], [self]
        while stack:
            item = stack.pop()
            if type(item) is str:
                parts.append(item)
            elif not isinstance(item, _Node):
                parts.append(repr(item))
            else:
                pieces = [f"{type(item).__name__}("]
                for k, field in enumerate(item._fields):
                    value = getattr(item, field)
                    scalar = field in item._scalars
                    pieces.append(f"{', ' if k else ''}{field}=")
                    pieces.append(repr(value) if scalar else value)
                pieces.append(")")
                stack.extend(reversed(pieces))
        return "".join(parts)


class SliceRef(_Node):
    __slots__ = _fields = _scalars = ("label",)


class Filter(_Node):
    __slots__ = _fields = _scalars = ("kind", "a", "b")
    _defaults = {"a": None, "b": None}


class _Binary(_Node):
    __slots__ = ()
    _fields = ("left", "right")


class MatMul(_Binary):
    __slots__ = ()
    _weight = 4
    _boolean = False


class Hadamard(_Binary):
    __slots__ = ("_boolean",)
    _weight = 2
    _boolean_kids = True


class Add(_Binary):
    __slots__ = ()
    _boolean = False


class _Unary(_Node):
    __slots__ = ()
    _fields = ("child",)


class Transpose(_Unary):
    __slots__ = ("_boolean",)
    _boolean_kids = True


class Not(_Unary):
    __slots__ = ()


class Clip(_Unary):
    __slots__ = ()


class _Vertex(_Unary):
    __slots__ = _scalars = ("p",)
    _fields = ("child", "p")
    _defaults = {"p": 0}


class VOut(_Vertex):
    __slots__ = ()


class VIn(_Vertex):
    __slots__ = ()


class Scale(_Unary):
    __slots__ = _scalars = ("coef",)
    _fields = ("coef", "child")
    _boolean = False

    @staticmethod
    def _check_scalars(coef):
        # a factor the kernel would refuse is refused here: `inf` prints as a
        # name that does not parse, and `nan` (unequal to itself) defeats
        # interning; a pattern's metavariable is not a number and passes
        if isinstance(coef, numbers.Real) and not (math.isfinite(coef) and coef >= 0):
            raise EvalError(f"scale factor must be a finite nonnegative real, got {float(coef)!r}")


# a node's children, in order; attribute access is the hot path of every walk
children = attrgetter("_kids")


def with_children(e, kids: tuple):
    """`e` rebuilt around the tuple of children `kids`."""
    return build(type(e), _scalar_values(e), kids)


def walk(e):
    """Preorder iterator of (path, node)."""
    stack = [((), e)]
    while stack:
        path, node = stack.pop()
        yield path, node
        kids = children(node)
        for idx in range(len(kids) - 1, -1, -1):
            stack.append((path + (idx,), kids[idx]))


def postorder(e, done=()) -> list:
    """The distinct nodes of `e` that are not in `done`, each after its
    children, left to right, and `e` last; a subtree in `done` is not
    entered. Runs on an explicit stack, so depth is bounded by memory."""
    order, entered, stack = [], set(), [(e, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            order.append(node)
        elif node not in entered and node not in done:
            entered.add(node)
            stack.append((node, True))
            stack.extend([(kid, False) for kid in reversed(children(node))])
    return order


def fold(e, visit):
    """Post-order fold: `visit(node, kid_values)` gives each node's value from
    its children's (an empty tuple at a leaf); returns the root's value.

    Each distinct subtree is visited once, in `postorder`, and its value is
    read by every parent that shares it, then dropped after the last."""
    order = postorder(e)
    uses = Counter(kid for node in order for kid in children(node))
    values = {}
    for node in order:
        kids = children(node)
        values[node] = visit(node, tuple([values[kid] for kid in kids]))
        for kid in kids:
            uses[kid] -= 1
            if not uses[kid]:
                del values[kid]
    return values[e]


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
        kids = children(node)
        # a node has one or two children; building their tuple outright is
        # cheaper than slicing it
        kids = (new,) if len(kids) == 1 else (new, kids[1]) if idx == 0 else (kids[0], new)
        new = with_children(node, kids)
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
    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.i = 0
        # names bound by `let`, which `parse_program` fills
        self.env = {}

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

    def parse_infix(self):
        """One expression, read in one loop on explicit stacks, so nesting
        depth is bounded by memory. `ops` holds the pending infix levels and
        `NUMBER *` factors, and `operands` the left operands of those
        levels; each open `(` or call keeps a frame of its function (None
        for a bare group) and the enclosing stacks. An infix operator first
        applies the pending ones of its own level or tighter, so chains
        associate left."""
        frames, operands, ops = [], [], []
        while True:
            node = self.parse_atom()
            if isinstance(node, float):
                ops.append(node)
                continue
            if not isinstance(node, _Node):
                frames.append((node, operands, ops))
                operands, ops = [], []
                continue
            while True:  # `node` completes an operand
                while self.at_op("'"):
                    self.take()
                    node = Transpose(node)
                while ops and isinstance(ops[-1], float):
                    node = Scale(ops.pop(), node)
                tok = self.peek()
                level = _LEVEL.get(tok.value) if tok.kind == "op" else None
                while ops and (level is None or ops[-1] >= level):
                    node = _INFIX[ops.pop()][0](operands.pop(), node)
                if level is not None:
                    self.take()
                    operands.append(node)
                    ops.append(level)
                    break
                if not frames:
                    return node
                func, operands, ops = frames.pop()
                if func is not None:
                    # a function with a scalar field, the threshold, takes `, p` too
                    node = func(node, self._threshold()) if func._scalars else func(node)
                self.expect(")")

    def parse_atom(self):
        """What starts an operand: an atom, a `NUMBER *` scale factor, or
        the opener of a group, which is None for `(` and the function's node
        type for `not(`, `clip(`, `vout(` and `vin(`."""
        tok = self.take()
        if tok.kind == "number":
            coef = float(tok.value)
            # an overflowing factor reads as inf, which would print as a name
            if not math.isfinite(coef):
                raise ExprSyntaxError(f"scale factor {tok.value} is out of range", tok.pos)
            self.expect("*")
            return coef
        if tok.kind == "op" and tok.value == "(":
            return None
        if tok.kind != "ident":
            shown = tok.value or "end of input"
            raise ExprSyntaxError(f"expected an expression, found {shown!r}", tok.pos)
        name, follows = tok.value, self.peek().value
        if name == _SLICE and follows == "[":
            self.take()
            label = self.peek()
            if label.kind != "ident":
                raise ExprSyntaxError("expected a slice label", label.pos)
            self.take()
            self.expect("]")
            return SliceRef(label.value)
        meaning = _ATOMS.get(name)
        if isinstance(meaning, str) and FILTER_KINDS[meaning] == 0:
            return Filter(meaning)
        if meaning is not None and follows == "(":
            self.take()
            if not isinstance(meaning, str):
                return meaning
            names = [self._vertex_name()]
            while len(names) < FILTER_KINDS[meaning]:
                self.expect(",")
                names.append(self._vertex_name())
            self.expect(")")
            return Filter(meaning, *names)
        if follows == "(":
            raise ExprSyntaxError(f"unknown function {name!r}", tok.pos)
        if name in self.env:
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


def parse(text: str):
    """Parse one expression; raises ExprSyntaxError with the failing offset."""
    if not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(text))
    node = parser.parse_infix()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ExprSyntaxError(f"unexpected trailing input {tok.value!r}", tok.pos)
    return node


# a `#` comment runs to the end of its line, which ends at any break that
# `str.splitlines` splits on
_COMMENT_RE = re.compile(r"#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")


def parse_program(text: str):
    """Parse an expression file: `#` comments, optional `let name = expr`
    bindings, last binding (or a trailing bare expression) is the result.
    Error offsets index `text` as given: each comment reads as spaces."""
    parser = _Parser(_tokenize(_COMMENT_RE.sub(lambda m: " " * len(m.group()), text)))
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
    for node in postorder(e, memo):
        shapes = [memo[kid] for kid in children(node)]
        frame = (type(node), *[level for _, level in shapes])
        own = memo.get(frame)
        if own is None:
            text, level = format_node(node, tuple([("", level) for _, level in shapes]))
            own = (len(text), level)
            if not type(node)._scalars:
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
    infix = _INFIX_TEXT.get(type(e))
    if infix is not None:
        text, own = infix
        return f"{_at(kids[0], own)}{text}{_at(kids[1], own + 1)}", own
    if isinstance(e, Scale):
        return f"{float(e.coef)!r} * {_at(kids[0], _LEVEL_SCALE)}", _LEVEL_SCALE
    if isinstance(e, Transpose):
        return f"{_at(kids[0], _LEVEL_POSTFIX)}'", _LEVEL_POSTFIX
    word = _SPELLING.get(type(e))
    if word is not None:  # a function, with its threshold (a scalar field) unless 0
        if type(e)._scalars and e.p != 0:
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
