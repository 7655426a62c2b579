import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casa_mini.engine.expr import (
    Bin,
    Call,
    Col,
    ExprEvalError,
    ExprSyntaxError,
    Num,
    Unary,
    eval_expr,
    needed_columns,
    parse_expr,
)

from .oracles import scalar_eval


def test_parse_precedence_and_functions():
    tree = parse_expr("pt > 20 && abs(eta) < 2.4")
    assert tree == Bin("&&", Bin(">", Col("pt"), Num(20.0)), Bin("<", Call("abs", (Col("eta"),)), Num(2.4)))


def test_parse_nested_call():
    tree = parse_expr("sqrt(px*px + py*py)")
    assert tree == Call("sqrt", (Bin("+", Bin("*", Col("px"), Col("px")), Bin("*", Col("py"), Col("py"))),))


def test_parse_unary_and_not():
    assert parse_expr("-a * b") == Bin("*", Unary("-", Col("a")), Col("b"))
    # '!' binds looser than comparisons
    assert parse_expr("!a > b") == Unary("!", Bin(">", Col("a"), Col("b")))


def test_syntax_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("pt >")
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse_expr("pt > 20 junk")
    with pytest.raises(ExprSyntaxError, match="unexpected character"):
        parse_expr("a @ b")


def test_unknown_function():
    with pytest.raises(ExprSyntaxError, match="unknown function"):
        parse_expr("cos(a)")
    with pytest.raises(ExprSyntaxError, match="argument"):
        parse_expr("min(a)")


def test_eval_basic():
    cols = {"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}
    assert np.array_equal(eval_expr(parse_expr("a+b"), cols), [4.0, 6.0])
    assert np.array_equal(eval_expr(parse_expr("a>1"), {"a": np.array([0.0, 1.0, 2.0])}), [0.0, 0.0, 1.0])


def test_eval_domain_conventions():
    out = eval_expr(parse_expr("sqrt(a)"), {"a": np.array([-1.0])})
    assert math.isnan(out[0])
    out = eval_expr(parse_expr("log(a)"), {"a": np.array([-1.0, 0.0])})
    assert math.isnan(out[0]) and out[1] == -math.inf


def test_eval_nan_comparisons_zero():
    cols = {"a": np.array([math.nan]), "b": np.array([1.0])}
    for op in ("<", "<=", ">", ">=", "==", "!="):
        assert eval_expr(parse_expr(f"a {op} b"), cols)[0] == 0.0


def test_comparison_used_as_a_number():
    nan = math.nan
    cols = {"a": np.array([1.0, 2.0, 3.0, nan, 1.0, nan]), "b": np.array([2.0, 2.0, 1.0, 1.0, nan, nan])}
    out = eval_expr(parse_expr("(a<b)*2 + (a!=b)"), cols)
    assert out.dtype == np.float64
    assert out.tolist() == [3.0, 0.0, 1.0, 0.0, 0.0, 0.0]
    assert eval_expr(parse_expr("-(a<b)"), cols).tolist() == [-1.0, -0.0, -0.0, -0.0, -0.0, -0.0]
    assert np.signbit(eval_expr(parse_expr("-(a<b)"), cols)).all()
    assert eval_expr(parse_expr("sqrt(a==b) + min(a>b, 0.5)"), cols).tolist() == [0.0, 1.0, 0.5, 0.0, 0.0, 0.0]


def test_min_max_keep_the_first_of_equal_arguments():
    # as min(a, b) and max(a, b) on floats: the sign of a tied zero comes from
    # the first argument, and NaN on either side gives NaN
    cols = {"a": np.array([-0.0, 0.0, math.nan, 1.0]), "b": np.array([0.0, -0.0, 1.0, math.nan])}
    for fn in ("min", "max"):
        out = eval_expr(parse_expr(f"{fn}(a, b)"), cols)
        assert np.signbit(out[:2]).tolist() == [True, False]
        assert np.isnan(out[2:]).all()
    assert eval_expr(parse_expr("1/min(a, 0)"), cols)[0] == -math.inf


def test_eval_constant_broadcast():
    out = eval_expr(parse_expr("0"), {"a": np.array([1.0, 2.0, 3.0])})
    assert np.array_equal(out, [0.0, 0.0, 0.0])


def test_eval_unknown_identifier():
    with pytest.raises(ExprEvalError, match="unknown identifier 'mass'"):
        eval_expr(parse_expr("mass"), {"a": np.array([1.0])})


def test_needed_columns():
    assert needed_columns(parse_expr("pt > 20 && abs(eta) < 2.4 || min(px, 3)")) == {"pt", "eta", "px"}


# ---- vector evaluator vs independent per-event interpreter -------------------

_names = ("a", "b", "c")


def exprs(depth: int):
    leaf = st.one_of(
        st.sampled_from(_names).map(Col),
        st.floats(min_value=-100, max_value=100, allow_nan=False).map(Num),
        st.just(Num(0.0)),
    )
    if depth == 0:
        return leaf
    sub = exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from("+-*/"), sub, sub).map(lambda t: Bin(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(["<", "<=", ">", ">=", "==", "!=", "&&", "||"]), sub, sub).map(
            lambda t: Bin(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from("-!"), sub).map(lambda t: Unary(t[0], t[1])),
        st.tuples(st.sampled_from(["sqrt", "abs", "log", "exp"]), sub).map(lambda t: Call(t[0], (t[1],))),
        st.tuples(st.sampled_from(["min", "max"]), sub, sub).map(lambda t: Call(t[0], (t[1], t[2]))),
    )


@settings(max_examples=150, deadline=None)
@given(
    expr=exprs(3),
    rows=st.lists(
        st.tuples(
            st.floats(allow_nan=True, allow_infinity=True, width=32),
            st.floats(allow_nan=True, allow_infinity=True, width=32),
            st.floats(allow_nan=True, allow_infinity=True, width=32),
        ),
        min_size=0,
        max_size=8,
    ),
)
def test_eval_matches_scalar_oracle(expr, rows):
    cols = {name: np.array([row[i] for row in rows], dtype=np.float64) for i, name in enumerate(_names)}
    vector = eval_expr(expr, cols, n_events=len(rows))
    for i, row in enumerate(rows):
        expected = scalar_eval(expr, dict(zip(_names, row)))
        got = vector[i]
        if math.isnan(expected):
            assert math.isnan(got), f"row {i}: expected nan, got {got}"
        else:
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0) or got == expected, (
                f"row {i}: expected {expected}, got {got}"
            )
