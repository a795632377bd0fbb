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
A NUMBER is ASCII digits with an optional fraction and exponent (`2`, `1.`,
`.5e3`); a whole number with a leading zero, such as `007`, is refused.

With '^' read as '**' this is Python's expression grammar, so the parser is
`ast.parse` behind a whitelist of characters and tree nodes.  Parsing builds
the evaluator once, as nested closures; the source never reaches `compile`,
`eval` or `exec`.

Evaluation accepts a scalar or a numpy array and is strict about domains:
division by zero, log/sqrt outside their domain, and non-finite results all
raise EvalDomainError instead of propagating inf/nan.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import EvalDomainError

__all__ = ["CoeffExpr", "ParseError", "parse_expr"]


class ParseError(ValueError):
    """Syntax or name error; `offset` is the byte offset into the source."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


_STRAY = re.compile(r"[^A-Za-z0-9_.+\-*/^(),\s]")
_NUMBER = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?", re.ASCII)


# --- evaluators: each maps its operands' evaluators to a function of y ------


def _apply2(op):
    return lambda f, g: lambda y: op(f(y), g(y))


def _checked(op, outside, message: str):
    """`op` of the operand's value, refused where `outside` holds anywhere."""
    def build(f):
        def evaluate(y):
            x = f(y)
            if np.any(outside(np.asarray(x))):
                raise EvalDomainError(message)
            return op(x)
        return evaluate
    return build


def _divide(f, g):
    def evaluate(y):
        left, right = f(y), g(y)
        if np.any(np.asarray(right) == 0):
            raise EvalDomainError("division by zero")
        return left / right
    return evaluate


_BINARY = {ast.Add: _apply2(operator.add), ast.Sub: _apply2(operator.sub),
           ast.Mult: _apply2(operator.mul), ast.Div: _divide, ast.Pow: _apply2(np.power)}

# name: (arity, evaluator)
_FUNCTIONS = {
    "exp": (1, lambda f: lambda y: np.exp(f(y))),
    "log": (1, _checked(np.log, lambda x: x <= 0, "log of a nonpositive value")),
    "sqrt": (1, _checked(np.sqrt, lambda x: x < 0, "sqrt of a negative value")),
    "min": (2, _apply2(np.minimum)), "max": (2, _apply2(np.maximum)),
}


# deepest tree `_build` accepts: evaluation takes a frame per level, and 200
# leaves most of the recursion limit (1,000) to callers such as compute_scale
_MAX_DEPTH = 200


def _build(node: ast.AST, source: str, origin: list[int], depth: int = 0) -> Callable:
    """The evaluator of a parsed tree, a function of y.  A node outside the
    grammar is a ParseError at its offset in `source`, where `origin[i]` is
    the offset of the parsed text's character i."""
    if depth > _MAX_DEPTH:
        raise ParseError("expression nests too deeply", 0)
    at = origin[node.col_offset]
    text = source[at:origin[node.end_col_offset]]
    if isinstance(node, ast.Name) and node.id == "y":
        return lambda y: y
    if text.isidentifier():  # any other name, True, False or None
        message = (f"{text} takes {_FUNCTIONS[text][0]} argument(s)"
                   if text in _FUNCTIONS else f"unknown identifier {text!r}")
        raise ParseError(message, at)
    if isinstance(node, ast.Constant) and _NUMBER.fullmatch(text):
        value = float(text)
        return lambda y: value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        f = _build(node.operand, source, origin, depth + 1)
        return lambda y: -f(y)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        return _BINARY[type(node.op)](_build(node.left, source, origin, depth + 1),
                                      _build(node.right, source, origin, depth + 1))
    # a call names its function bare: not `(exp)(y)`
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.col_offset == node.col_offset and node.func.id in _FUNCTIONS):
        arity, build = _FUNCTIONS[node.func.id]
        # the grammar has no trailing comma: `exp(y,)` is refused
        if (len(node.args) != arity or node.keywords
                or "," in source[origin[node.args[-1].end_col_offset]:origin[node.end_col_offset]]):
            raise ParseError(f"{node.func.id} takes {arity} argument(s)", at)
        return build(*(_build(a, source, origin, depth + 1) for a in node.args))
    if isinstance(node, ast.Call):
        _build(node.func, source, origin)  # an unknown name is refused as one
    raise ParseError(f"unexpected {text!r}", at)


@dataclass(frozen=True)
class CoeffExpr:
    """A parsed coefficient expression; immutable and safe to share."""

    source: str
    uses_y: bool  # whether the expression reads y; one without y is a constant
    _evaluate: Callable = field(repr=False, compare=False)

    def eval(self, y):
        """Evaluate at a scalar or numpy array y.

        Raises EvalDomainError on domain violations or non-finite results.
        """
        # an overflow or invalid value is reported by the finiteness check
        with np.errstate(all="ignore"):
            value = self._evaluate(y)
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
    stray = _STRAY.search(source)
    if stray:
        raise ParseError(f"unexpected character {stray.group()!r}", stray.start())
    if "**" in source:
        raise ParseError("unexpected token '*'", source.index("**") + 1)
    # Python ends an expression at a newline and refuses an indent, so
    # whitespace becomes spaces; origin[i] is the offset in source of text[i]
    lead = len(source) - len(source.lstrip())
    text = re.sub(r"\s", " ", source[lead:]).replace("^", "**")
    origin = [i for i, ch in enumerate(source) if i >= lead for _ in ch.replace("^", "**")]
    origin.append(len(source))
    try:
        tree = ast.parse(text, mode="eval")
        evaluate = _build(tree.body, source, origin)
    except SyntaxError as exc:
        # Python reports an error at the end of the input as offset 0
        offset = exc.offset - 1 if exc.offset else len(text)
        raise ParseError(exc.msg, origin[min(offset, len(text))]) from None
    except (RecursionError, MemoryError):
        # deep nesting without parentheses: Python's parser stack (MemoryError)
        # or the recursion limit in ast.parse; _build stops at _MAX_DEPTH
        raise ParseError("expression nests too deeply", 0) from None
    uses_y = any(isinstance(node, ast.Name) and node.id == "y" for node in ast.walk(tree))
    return CoeffExpr(source, uses_y, evaluate)
