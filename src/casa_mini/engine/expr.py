"""Vectorized expression language over event columns.

Grammar, loosest binding first:

    expr    :=  and ( "||" and )*
    and     :=  not ( "&&" not )*
    not     :=  "!" not | cmp
    cmp     :=  add ( ("<" | "<=" | ">" | ">=" | "==" | "!=") add )*
    add     :=  mul ( ("+" | "-") mul )*
    mul     :=  unary ( ("*" | "/") unary )*
    unary   :=  "-" unary | primary
    primary :=  NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

Values are f64: comparisons and logical operators produce 1.0/0.0, any
comparison with a NaN operand yields 0.0, a value is true when it is not
0.0 (NaN is true), and domain errors (sqrt/log of negatives) propagate as
NaN.  Columns are 1-D f64 vectors of one length, as ColumnBatch makes them.
An expression is compiled once into nested closures; comparisons and logic
stay bool arrays and become f64 only where arithmetic, a function or the
caller needs a number, and other operators write into an operand's own
temporary, never into a column (see _ufunc).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, Union

import numpy as np

FUNCTIONS = {"sqrt": 1, "abs": 1, "log": 1, "exp": 1, "min": 2, "max": 2}

_CMP_OPS = ("<=", ">=", "==", "!=", "<", ">")


class ExprError(ValueError):
    pass


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class ExprEvalError(ExprError):
    pass


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Col:
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "-" or "!"
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Expr", ...]


Expr = Union[Num, Col, Unary, Bin, Call]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>&&|\|\||<=|>=|==|!=|[-+*/<>!(),]))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stray = pos + len(text[pos:]) - len(text[pos:].lstrip())
            if stray >= len(text):
                break
            raise ExprSyntaxError(f"unexpected character {text[stray]!r}", stray)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(f"expected {op!r}", offset)
        self.next()

    def parse(self) -> Expr:
        node = self.or_expr()
        kind, value, offset = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected {value!r}", offset)
        return node

    def or_expr(self) -> Expr:
        node = self.and_expr()
        while self._at_op("||"):
            self.next()
            node = Bin("||", node, self.and_expr())
        return node

    def and_expr(self) -> Expr:
        node = self.not_expr()
        while self._at_op("&&"):
            self.next()
            node = Bin("&&", node, self.not_expr())
        return node

    def not_expr(self) -> Expr:
        if self._at_op("!"):
            self.next()
            return Unary("!", self.not_expr())
        return self.cmp_expr()

    def cmp_expr(self) -> Expr:
        node = self.add_expr()
        while any(self._at_op(op) for op in _CMP_OPS):
            _, op, _ = self.next()
            node = Bin(op, node, self.add_expr())
        return node

    def add_expr(self) -> Expr:
        node = self.mul_expr()
        while self._at_op("+") or self._at_op("-"):
            _, op, _ = self.next()
            node = Bin(op, node, self.mul_expr())
        return node

    def mul_expr(self) -> Expr:
        node = self.unary_expr()
        while self._at_op("*") or self._at_op("/"):
            _, op, _ = self.next()
            node = Bin(op, node, self.unary_expr())
        return node

    def unary_expr(self) -> Expr:
        if self._at_op("-"):
            self.next()
            return Unary("-", self.unary_expr())
        return self.primary()

    def primary(self) -> Expr:
        kind, value, offset = self.next()
        if kind == "num":
            return Num(float(value))
        if kind == "ident":
            if self._at_op("("):
                if value not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {value!r}", offset)
                self.next()
                args = [self.or_expr()]
                while self._at_op(","):
                    self.next()
                    args.append(self.or_expr())
                self.expect_op(")")
                if len(args) != FUNCTIONS[value]:
                    raise ExprSyntaxError(
                        f"{value} takes {FUNCTIONS[value]} argument(s), got {len(args)}", offset
                    )
                return Call(value, tuple(args))
            return Col(value)
        if kind == "op" and value == "(":
            node = self.or_expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"expected an operand, got {value!r}" if value else "unexpected end of input", offset)

    def _at_op(self, op: str) -> bool:
        kind, value, _ = self.peek()
        return kind == "op" and value == op


def parse_expr(text: str) -> Expr:
    return _Parser(text).parse()


def needed_columns(expr: Expr) -> set[str]:
    """Identifiers the expression reads."""
    out: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Col):
            out.add(node.name)
        elif isinstance(node, Unary):
            stack.append(node.operand)
        elif isinstance(node, Bin):
            stack.extend((node.left, node.right))
        elif isinstance(node, Call):
            stack.extend(node.args)
    return out


Evaluator = Callable[[Mapping[str, np.ndarray]], np.ndarray]


def _not_equal(a, b):
    # false when either side is NaN, as numpy already makes every other comparison
    return np.less(a, b) | np.greater(a, b)


def _first_unless(beats):
    # min or max as on floats: a unless b beats it, so min(-0.0, 0.0) is -0.0
    # (np.minimum gives 0.0); NaN on either side gives NaN
    return lambda a, b: np.where(beats(b, a) | np.isnan(b), b, a)


_BINARY = {
    "+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide,
    "<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal, "==": np.equal, "!=": _not_equal,
    "&&": np.logical_and, "||": np.logical_or,
}
_CALLS = {
    "sqrt": np.sqrt, "abs": np.abs, "log": np.log, "exp": np.exp,
    "min": _first_unless(np.less), "max": _first_unless(np.greater),
}
_BOOL_OPS = frozenset(_CMP_OPS) | {"&&", "||", "!"}


def _is_bool(node: Expr) -> bool:
    return isinstance(node, (Bin, Unary)) and node.op in _BOOL_OPS


def _ufunc(op, operands: list[Evaluator], nodes: list[Expr]) -> Evaluator:
    """op of the operands' values, written into the first operand that is a
    new 1-D array of its own: a Unary, Bin or Call node over a column, never
    a column, nor a 0-d value of constants alone."""
    own = [isinstance(node, (Unary, Bin, Call)) and bool(needed_columns(node)) for node in nodes]
    if len(operands) == 1:
        (arg,) = operands
        if own[0]:
            return lambda cols: op(a := arg(cols), out=a)
        return lambda cols: op(arg(cols))
    left, right = operands
    if own[0]:
        return lambda cols: op(a := left(cols), right(cols), out=a)
    if own[1]:
        return lambda cols: op(left(cols), b := right(cols), out=b)
    return lambda cols: op(left(cols), right(cols))


def compile_number(expr: Expr) -> Evaluator:
    """Compile to a function of the columns giving f64 values (or an f64
    scalar for a constant); comparisons and logic give 1.0/0.0."""
    evaluate = _compile(expr)
    if not _is_bool(expr):
        return evaluate
    return lambda cols: evaluate(cols).astype(np.float64)


def compile_truth(expr: Expr) -> Evaluator:
    """Compile to a function of the columns giving the bool mask `expr != 0`
    (NaN is true).  Comparisons and logic never pass through f64."""
    evaluate = _compile(expr)
    if _is_bool(expr):
        return evaluate
    return lambda cols: evaluate(cols) != 0.0


def _compile(node: Expr) -> Evaluator:
    """Bool-valued nodes (see _is_bool) give bool arrays, the rest f64."""
    if isinstance(node, Num):
        value = np.float64(node.value)
        return lambda cols: value
    if isinstance(node, Col):
        name = node.name

        def column(cols):
            try:
                return cols[name]
            except KeyError:
                raise ExprEvalError(f"unknown identifier {name!r}") from None

        return column
    if isinstance(node, Unary):
        if node.op == "!":
            return _ufunc(np.invert, [compile_truth(node.operand)], [node.operand])
        return _ufunc(np.negative, [compile_number(node.operand)], [node.operand])
    if isinstance(node, Bin):
        if node.op in ("&&", "||"):
            left, right = compile_truth(node.left), compile_truth(node.right)
        elif node.op in _CMP_OPS:  # bool operands compare as 0/1, as their f64 values would
            left, right = _compile(node.left), _compile(node.right)
        else:
            left, right = compile_number(node.left), compile_number(node.right)
        op = _BINARY[node.op]
        if node.op in _CMP_OPS:  # a bool result, which no f64 operand can hold
            return lambda cols: op(left(cols), right(cols))
        return _ufunc(op, [left, right], [node.left, node.right])
    if isinstance(node, Call):
        fn = _CALLS[node.fn]
        args = [compile_number(a) for a in node.args]
        if len(args) == 1:
            return _ufunc(fn, args, list(node.args))
        return lambda cols: fn(*[arg(cols) for arg in args])
    raise TypeError(f"not an expression node: {node!r}")


def broadcast(values, n_events: int) -> np.ndarray:
    """values as an f64 vector of n_events; a scalar is repeated."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != (n_events,):
        values = np.full(n_events, float(values))
    return values


def eval_expr(expr: Expr, columns, n_events: int | None = None) -> np.ndarray:
    """Evaluate elementwise against a ColumnBatch or a plain column mapping."""
    cols = columns.columns if hasattr(columns, "columns") else columns
    if n_events is None:
        n_events = next(iter(cols.values())).shape[0] if cols else 0
    with np.errstate(all="ignore"):
        return broadcast(compile_number(expr)(cols), n_events)
