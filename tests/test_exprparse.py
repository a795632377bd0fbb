import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condflow.errors import EvalDomainError
from condflow.exprparse import ParseError, parse_expr
from condflow.model import Const, DiffusionSpec, Interval
from condflow.scale import GridConfig, Normalization, compute_scale


def test_constant_zero():
    expr = parse_expr("0")
    assert expr.eval(3.7) == 0.0


def test_division():
    assert parse_expr("1/y").eval(2.0) == 0.5


def test_power():
    assert parse_expr("y^2").eval(3.0) == 9.0


def test_polynomial():
    assert parse_expr("y^2 - 2*y + 1").eval(3.0) == 4.0


def test_exp_at_zero():
    assert parse_expr("exp(y)").eval(0.0) == 1.0


def test_division_by_zero_is_domain_error():
    with pytest.raises(EvalDomainError):
        parse_expr("1/y").eval(0.0)


def test_log_domain_error():
    with pytest.raises(EvalDomainError):
        parse_expr("log(y)").eval(-1.0)


def test_sqrt_domain_error():
    with pytest.raises(EvalDomainError):
        parse_expr("sqrt(y)").eval(-4.0)


def test_overflow_reported():
    with pytest.raises(EvalDomainError):
        parse_expr("exp(exp(y))").eval(100.0)


def test_precedence_mul_over_add():
    assert parse_expr("2+3*4").eval(0.0) == 14.0


def test_power_right_associative():
    assert parse_expr("2^3^2").eval(0.0) == 512.0


def test_power_binds_tighter_than_unary_minus():
    assert parse_expr("-y^2").eval(2.0) == -4.0
    assert parse_expr("(-y)^2").eval(2.0) == 4.0


def test_unary_minus_in_exponent():
    assert parse_expr("y^-2").eval(2.0) == 0.25


def test_min_max():
    assert parse_expr("min(y, 2)").eval(5.0) == 2.0
    assert parse_expr("max(y, 2)").eval(5.0) == 5.0


def test_unknown_identifier_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("2 * frob(y)")
    assert err.value.offset == 4


def test_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse_expr("1 + * 2")
    assert err.value.offset == 4


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse_expr("1 + 2 )")


def test_empty_source_rejected():
    with pytest.raises(ParseError):
        parse_expr("   ")


def test_unbalanced_paren():
    with pytest.raises(ParseError):
        parse_expr("(1 + y")


@pytest.mark.parametrize("source", [
    "-" * 1000 + "y",      # past the recursion limit while building the evaluator
    "-" * 3000 + "y",      # past it inside ast.parse
    "+".join(["y"] * 5001),
    "^".join(["y"] * 3001),  # Python's parser stack: a MemoryError
], ids=["neg1000", "neg3000", "sum5001", "pow3000"])
def test_deep_nesting_is_a_parse_error(source):
    with pytest.raises(ParseError, match="nests too deeply") as err:
        parse_expr(source)
    assert err.value.offset == 0


@pytest.mark.parametrize("source, refused", [
    ("-" * 200 + "y", False), ("-" * 201 + "y", True),
    (" + ".join(["0*y"] * 200), False), (" + ".join(["0*y"] * 201), True),
], ids=["neg200", "neg201", "sum200", "sum201"])
def test_tree_depth_is_bounded_at_200(source, refused):
    # Python's own limit on nested parentheses; below the root, a sum of n
    # products is n levels deep
    if refused:
        with pytest.raises(ParseError, match="nests too deeply"):
            parse_expr(source)
    else:
        assert parse_expr(source).eval(2.0) in (2.0, 0.0)


def test_long_sum_evaluates_inside_compute_scale():
    # compute_scale calls the evaluator deep in its own stack; 990 terms
    # overflowed it there before the depth bound refused them at parse
    b = parse_expr(" + ".join(["0*y"] * 150))
    spec = DiffusionSpec(Interval(0.0, math.inf), b.eval, Const(1.0))
    s = compute_scale(spec, 1.0, GridConfig(y_min=1e-2, y_max=10.0), Normalization.L)
    assert s(np.array([0.5, 2.0])) == pytest.approx([0.5, 2.0], rel=1e-6)


def test_array_evaluation_broadcasts():
    ys = np.array([1.0, 2.0, 4.0])
    np.testing.assert_allclose(parse_expr("y^2").eval(ys), [1.0, 4.0, 16.0])
    constant = parse_expr("3").eval(ys)
    assert constant.shape == ys.shape
    np.testing.assert_allclose(constant, 3.0)


def test_determinism_bitwise():
    expr = parse_expr("exp(y) / (1 + y^2)")
    a = expr.eval(0.7312)
    b = parse_expr("exp(y) / (1 + y^2)").eval(0.7312)
    assert a == b and np.float64(a).tobytes() == np.float64(b).tobytes()


@pytest.mark.parametrize("source, uses_y", [
    ("0", False), ("-2*exp(1)", False), ("max(1, 2)^0.5", False),
    ("y", True), ("0*y", True), ("min(1, sqrt(y))", True), ("-(1 - y^2)", True),
])
def test_uses_y_reads_the_tree(source, uses_y):
    assert parse_expr(source).uses_y is uses_y




@pytest.mark.parametrize("source", ["y^-2", "0*exp(y)", "exp(y)-exp(y)"])
def test_domain_failure_is_an_error_not_a_warning(source):
    # y^-2 at 0 divides by zero in the power, and exp(1000) overflows to an
    # inf that 0*inf and inf-inf make nan: the finiteness check reports all three
    y = 0.0 if source == "y^-2" else 1000.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalDomainError, match="non-finite value"):
            parse_expr(source).eval(y)
        with pytest.raises(EvalDomainError, match="non-finite value"):
            parse_expr(source).eval(np.array([1.0, y]))


# (source, offset of its refusal or None, value at y = 1.5 as float.hex()),
# recorded with the hand-written tokenizer and recursive-descent parser
# that the ast-based one replaced
_RECORDED = [
    ("  y", None, "0x1.8000000000000p+0"),
    ("\ty\t", None, "0x1.8000000000000p+0"),
    ("\n1 +\ny", None, "0x1.4000000000000p+1"),
    (" \t 2 * y \n", None, "0x1.8000000000000p+1"),
    ("y\xa0+ 1", None, "0x1.4000000000000p+1"),
    ("# y", 0, None),
    ("y # c", 2, None),
    ("'y'", 0, None),
    ('"1"', 0, None),
    ("é", 0, None),
    ("y·2", 1, None),
    ("٣", None, "0x1.8000000000000p+1"),
    ("007", None, "0x1.c000000000000p+2"),
    ("00", None, "0x0.0p+0"),
    ("1_0", 1, None),
    ("0x1", 1, None),
    ("1j", 1, None),
    ("1.", None, "0x1.0000000000000p+0"),
    (".5e3", None, "0x1.f400000000000p+8"),
    ("2.5E-3", None, "0x1.47ae147ae147bp-9"),
    ("00.5", None, "0x1.0000000000000p-1"),
    ("y**2", 2, None),
    ("+y", 0, None),
    ("--y", None, "0x1.8000000000000p+0"),
    ("y^-y^2", None, "0x1.9b3d438ada293p-2"),
    ("y//2", 2, None),
    ("sqrt(^y)", 5, None),
    ("...", 0, None),
    ("y.real", 1, None),
    ("y[0]", 1, None),
    ("1<2", 1, None),
    ("True", 0, None),
    ("x", 0, None),
    ("exp", 3, None),
    ("min(y)", 5, None),
    ("min(y,2,3)", 7, None),
    ("max(a=1,b=2)", 5, None),
    ("exp(y,)", 5, None),
    ("(exp)(y)", 4, None),
    ("2(y)", 1, None),
    ("y(2)", 1, None),
    ("2 y", 2, None),
    ("2 * frob(y)", 4, None),
    ("1 + * 2", 4, None),
    ("1 + 2 )", 6, None),
    ("(1 + y", 6, None),
    ("1 +", 3, None),
    ("()", 1, None),
    ("1,2", 1, None),
]

# where the ast-based parser differs, the offset it refuses at: a refusal
# of a node points at the node's start, an unclosed '(' at the '(' itself,
# and Python refuses a whole number with a leading zero and non-ASCII digits
_MOVED = {
    "٣": 0, "007": 0, "1_0": 0, "0x1": 0, "1j": 0, "y//2": 0, "sqrt(^y)": 0,
    "y.real": 0, "exp": 0, "min(y)": 0, "min(y,2,3)": 0, "exp(y,)": 0,
    "(exp)(y)": 1, "2(y)": 0, "y(2)": 0, "(1 + y": 0, "()": 0, "1,2": 0,
}


@pytest.mark.parametrize("source, offset, value", _RECORDED)
def test_acceptance_and_offsets_match_the_recorded_table(source, offset, value):
    offset = _MOVED.get(source, offset)
    if offset is not None:
        with pytest.raises(ParseError) as err:
            parse_expr(source)
        assert err.value.offset == offset
    else:
        assert parse_expr(source).eval(1.5).hex() == value


# printed trees: a tree printed with minimal parentheses evaluates as the tree

_numbers = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                     allow_infinity=False).map(lambda v: ("num", round(v, 6)))


def _trees(depth: int):
    leaves = st.one_of(_numbers, st.just(("y",)))
    if depth == 0:
        return leaves
    sub = _trees(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(st.just("neg"), sub),
        st.tuples(st.sampled_from("+-*/^"), sub, sub),
        st.tuples(st.sampled_from(["exp", "log", "sqrt"]), sub),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub),
    )


_ADD, _MUL, _UNARY, _POW, _ATOM = 1, 2, 3, 4, 5


def _print(tree, min_prec: int = 0) -> str:
    kind = tree[0]
    if kind == "num":
        return repr(tree[1])
    if kind == "y":
        return "y"
    if kind == "neg":
        text, prec = "-" + _print(tree[1], _UNARY), _UNARY
    elif kind in ("+", "-"):
        text, prec = f"{_print(tree[1], _ADD)} {kind} {_print(tree[2], _ADD + 1)}", _ADD
    elif kind in ("*", "/"):
        text, prec = f"{_print(tree[1], _MUL)}{kind}{_print(tree[2], _MUL + 1)}", _MUL
    elif kind == "^":  # right-associative, and its base is an atom
        text, prec = f"{_print(tree[1], _ATOM)}^{_print(tree[2], _UNARY)}", _POW
    else:
        return f"{kind}({', '.join(_print(a) for a in tree[1:])})"
    return f"({text})" if min_prec > prec else text


def _direct(tree, y):
    """The tree's value by numpy, checked as CoeffExpr.eval checks."""
    kind, args = tree[0], [_direct(a, y) for a in tree[1:] if isinstance(a, tuple)]
    if kind == "num":
        return tree[1]
    if kind == "y":
        return y
    if kind == "neg":
        return -args[0]
    if kind == "log" and np.any(np.asarray(args[0]) <= 0):
        raise EvalDomainError("log of a nonpositive value")
    if kind == "sqrt" and np.any(np.asarray(args[0]) < 0):
        raise EvalDomainError("sqrt of a negative value")
    if kind == "/" and np.any(np.asarray(args[1]) == 0):
        raise EvalDomainError("division by zero")
    ops = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide, "^": np.power,
           "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "min": np.minimum, "max": np.maximum}
    return ops[kind](*args)


@settings(max_examples=300, deadline=None)
@given(_trees(4))
def test_print_parse_round_trip(tree):
    text = _print(tree)
    expr = parse_expr(text)
    for y in (np.array([0.0, 0.25, 1.5, 7.0]), 0.5, 3.0):
        try:
            with np.errstate(all="ignore"):
                want = np.asarray(_direct(tree, y), dtype=np.float64)
            if not np.all(np.isfinite(want)):
                raise EvalDomainError(f"non-finite value in {text!r}")
        except EvalDomainError as exc:
            with pytest.raises(EvalDomainError) as err:
                expr.eval(y)
            assert str(err.value) == str(exc)
            continue
        got = expr.eval(y)
        assert type(got) is (float if np.ndim(y) == 0 else np.ndarray)
        assert np.asarray(got).tobytes() == np.broadcast_to(want, np.shape(y)).tobytes()
