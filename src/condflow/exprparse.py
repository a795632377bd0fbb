"""Parser and evaluator for drift/diffusion coefficient expressions.

Grammar (binding tightest last):

    expr   := term  (('+' | '-') term)*          left-associative
    term   := unary (('*' | '/') unary)*         left-associative
    unary  := '-' unary | power
    power  := atom ('^' unary)?                  right-associative
    atom   := NUMBER | 'y' | NAME '(' expr (',' expr)? ')' | '(' expr ')'

so '^' binds tighter than unary minus, which binds tighter than '*' and '/',
which bind tighter than '+' and '-'.  Recognized function names: exp, log,
sqrt (one argument), min, max (two arguments).  The only variable is y.

Evaluation accepts a scalar or a numpy array and is strict about domains:
division by zero, log/sqrt outside their domain, and non-finite results all
raise EvalDomainError instead of propagating inf/nan.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError

__all__ = ["CoeffExpr", "ParseError", "parse_expr"]


class ParseError(ValueError):
    """Syntax or name error; `offset` is the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# --- AST ------------------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    name: str  # exp log sqrt min max
    args: tuple["Node", ...]


Node = Num | Var | Neg | BinOp | Call

_FUNCTIONS = {"exp": 1, "log": 1, "sqrt": 1, "min": 2, "max": 2}

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(source) - len(stripped))
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, text, offset = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", offset)
        self.advance()

    def parse_expr(self) -> Node:
        node = self.parse_term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = BinOp(text, node, self.parse_term())
            else:
                return node

    def parse_term(self) -> Node:
        node = self.parse_unary()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = BinOp(text, node, self.parse_unary())
            else:
                return node

    def parse_unary(self) -> Node:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Node:
        base = self.parse_atom()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            return BinOp("^", base, self.parse_unary())
        return base

    def parse_atom(self) -> Node:
        kind, text, offset = self.advance()
        if kind == "num":
            return Num(float(text))
        if kind == "name":
            if text == "y":
                return Var()
            if text in _FUNCTIONS:
                self.expect_op("(")
                args = [self.parse_expr()]
                for _ in range(_FUNCTIONS[text] - 1):
                    self.expect_op(",")
                    args.append(self.parse_expr())
                self.expect_op(")")
                return Call(text, tuple(args))
            raise ParseError(f"unknown identifier {text!r}", offset)
        if kind == "op" and text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", offset)


# --- printing (inverse of parsing up to number formatting) -----------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _to_source(node: Node, min_prec: int = 0) -> str:
    if isinstance(node, Num):
        text = repr(node.value)
        return text if node.value >= 0 else f"({text})"
    if isinstance(node, Var):
        return "y"
    if isinstance(node, Neg):
        text = "-" + _to_source(node.operand, _PREC_UNARY)
        return f"({text})" if min_prec > _PREC_UNARY else text
    if isinstance(node, Call):
        return f"{node.name}({', '.join(_to_source(a) for a in node.args)})"
    if node.op in "+-":
        prec = _PREC_ADD
        text = f"{_to_source(node.left, prec)} {node.op} {_to_source(node.right, prec + 1)}"
    elif node.op in "*/":
        prec = _PREC_MUL
        text = f"{_to_source(node.left, prec)}{node.op}{_to_source(node.right, prec + 1)}"
    else:  # '^' is right-associative and its base must be an atom
        prec = _PREC_POW
        text = f"{_to_source(node.left, _PREC_ATOM)}^{_to_source(node.right, _PREC_UNARY)}"
    return f"({text})" if min_prec > prec else text


# --- evaluation -------------------------------------------------------------


def _uses_y(node: Node) -> bool:
    if isinstance(node, Var):
        return True
    if isinstance(node, Num):
        return False
    if isinstance(node, Neg):
        return _uses_y(node.operand)
    if isinstance(node, Call):
        return any(_uses_y(a) for a in node.args)
    return _uses_y(node.left) or _uses_y(node.right)


def _eval(node: Node, y):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return y
    if isinstance(node, Neg):
        return -_eval(node.operand, y)
    if isinstance(node, Call):
        args = [_eval(a, y) for a in node.args]
        if node.name == "exp":
            with np.errstate(over="ignore"):
                return np.exp(args[0])
        if node.name == "log":
            if np.any(np.asarray(args[0]) <= 0):
                raise EvalDomainError("log of a nonpositive value")
            return np.log(args[0])
        if node.name == "sqrt":
            if np.any(np.asarray(args[0]) < 0):
                raise EvalDomainError("sqrt of a negative value")
            return np.sqrt(args[0])
        if node.name == "min":
            return np.minimum(args[0], args[1])
        return np.maximum(args[0], args[1])
    left = _eval(node.left, y)
    right = _eval(node.right, y)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        if np.any(np.asarray(right) == 0):
            raise EvalDomainError("division by zero")
        return left / right
    with np.errstate(invalid="ignore", over="ignore"):
        return np.power(left, right)


@dataclass(frozen=True)
class CoeffExpr:
    """A parsed coefficient expression; immutable and safe to share."""

    source: str
    ast: Node

    @property
    def uses_y(self) -> bool:
        """Whether the tree reads y; one without y is a constant."""
        return _uses_y(self.ast)

    def to_source(self) -> str:
        """Render the tree back to text; reparsing yields an equal tree."""
        return _to_source(self.ast)

    def eval(self, y):
        """Evaluate at a scalar or numpy array y.

        Raises EvalDomainError on domain violations or non-finite results.
        """
        value = _eval(self.ast, y)
        value = np.asarray(value, dtype=np.float64)
        if not np.all(np.isfinite(value)):
            raise EvalDomainError(f"non-finite value in {self.source!r}")
        if np.ndim(y) == 0:
            return float(value)
        if value.shape != np.shape(y):
            return np.broadcast_to(value, np.shape(y)).copy()
        return value

    __call__ = eval


def parse_expr(source: str) -> CoeffExpr:
    """Parse a coefficient expression; raises ParseError with a byte offset."""
    if not source.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    ast = parser.parse_expr()
    kind, text, offset = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {text!r}", offset)
    return CoeffExpr(source=source, ast=ast)
