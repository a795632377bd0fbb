import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condflow.errors import EvalDomainError
from condflow.exprparse import BinOp, Call, Neg, Num, ParseError, Var, parse_expr


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


# round-trip property: printing a tree and reparsing reproduces it exactly

_numbers = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                     allow_infinity=False).map(lambda v: Num(round(v, 6)))


def _trees(depth: int):
    if depth == 0:
        return st.one_of(_numbers, st.just(Var()))
    sub = _trees(depth - 1)
    return st.one_of(
        _numbers,
        st.just(Var()),
        st.builds(Neg, sub),
        st.builds(BinOp, st.sampled_from("+-*/^"), sub, sub),
        st.builds(lambda f, x: Call(f, (x,)), st.sampled_from(["exp", "log", "sqrt"]), sub),
        st.builds(lambda f, x, z: Call(f, (x, z)), st.sampled_from(["min", "max"]), sub, sub),
    )


@pytest.mark.parametrize("source, uses_y", [
    ("0", False), ("-2*exp(1)", False), ("max(1, 2)^0.5", False),
    ("y", True), ("0*y", True), ("min(1, sqrt(y))", True), ("-(1 - y^2)", True),
])
def test_uses_y_reads_the_tree(source, uses_y):
    assert parse_expr(source).uses_y is uses_y


@settings(max_examples=300, deadline=None)
@given(_trees(4))
def test_print_parse_round_trip(tree):
    from condflow.exprparse import CoeffExpr

    printed = CoeffExpr(source="", ast=tree).to_source()
    assert parse_expr(printed).ast == tree
