"""Expression language: grammar, round-trip, symbolic derivative vs FD."""

import math

import numpy as np
import pytest

from needlecheck.exprs import (
    Add,
    DifferentiationError,
    EvalDomainError,
    ExprAst,
    ExprError,
    IndexOutOfRangeError,
    ParseError,
    UnknownIdentifierError,
    Var,
    admitted_variables,
    differentiate,
    eval_expr,
    parse_expr,
    parse_lagrangian,
)

from reference import fd_partial


def test_admitted_variables_order():
    assert admitted_variables(1) == ("t", "x1", "y1", "dx1", "dy1")
    assert admitted_variables(2) == (
        "t", "x1", "x2", "y1", "y2", "dx1", "dx2", "dy1", "dy2")


def test_basic_arithmetic_and_precedence():
    vs = admitted_variables(1)
    pt = {"t": 2.0, "x1": 3.0, "y1": 5.0, "dx1": 7.0, "dy1": 11.0}
    cases = [
        ("1 + 2*3", 7.0),
        ("(1 + 2)*3", 9.0),
        ("2*x1^2", 18.0),            # power binds tighter than *
        ("-x1^2", -9.0),             # unary minus applies to the power
        ("x1 - y1 - t", -4.0),       # left-assoc subtraction
        ("12/3/2", 2.0),
        ("2^3", 8.0),
        ("x1^-2", 1.0 / 9.0),
        ("dx1*dy1 + dx1/dy1", 77.0 + 7.0 / 11.0),
    ]
    for src, want in cases:
        expr = parse_expr(src, vs, dim=1)
        assert eval_expr(expr, pt) == pytest.approx(want, abs=1e-14), src


def test_functions_evaluate():
    vs = ("t",)
    pt = {"t": 0.7}
    for src, want in [
        ("sin(t)", math.sin(0.7)),
        ("cos(t)", math.cos(0.7)),
        ("exp(t)", math.exp(0.7)),
        ("log(t)", math.log(0.7)),
        ("sqrt(t)", math.sqrt(0.7)),
        ("abs(-t)", 0.7),
    ]:
        assert eval_expr(parse_expr(src, vs), pt) == pytest.approx(want, abs=1e-15)


def test_round_trip_through_str():
    vs = admitted_variables(2)
    sources = [
        "(1 - x1)*dx1^2 - (1 + y1)*dy1^2 + dx1*dy1",
        "sin(t)*x2 - exp(dx2) + sqrt(1 + y2^2)",
        "-(x1 + x2)^3/(1 + t^2)",
        "2.5*dx1 - 0.125",
    ]
    for src in sources:
        expr = parse_expr(src, vs, dim=2)
        again = parse_expr(str(expr), vs, dim=2)
        assert again.root.emit() == expr.root.emit()


def test_parse_errors_carry_position():
    vs = admitted_variables(1)
    with pytest.raises(ParseError) as ei:
        parse_expr("1 + * 2", vs)
    assert ei.value.position == 4
    with pytest.raises(ParseError) as ei:
        parse_expr("(1 + 2", vs)
    assert str(ei.value).startswith("'(' was never closed at position 0")
    assert ei.value.position == 0
    with pytest.raises(UnknownIdentifierError) as ei:
        parse_expr("x1 + bogus", vs, dim=1)
    assert ei.value.position == 5
    with pytest.raises(IndexOutOfRangeError):
        parse_expr("x5", vs, dim=1)
    with pytest.raises(UnknownIdentifierError):
        parse_expr("tan(t)", vs, dim=1)  # not an admitted function
    with pytest.raises(ParseError):
        parse_expr("x1^t", vs, dim=1)  # exponent must be constant


def test_eval_requires_all_variables_bound():
    expr = parse_expr("x1 + t", admitted_variables(1), dim=1)
    with pytest.raises(ExprError, match="unbound"):
        eval_expr(expr, {"t": 1.0})


def test_eval_domain_errors_name_subexpression():
    vs = ("t",)
    with pytest.raises(EvalDomainError, match="log"):
        eval_expr(parse_expr("log(t)", vs), {"t": -1.0})
    with pytest.raises(EvalDomainError, match="sqrt"):
        eval_expr(parse_expr("sqrt(t)", vs), {"t": -4.0})
    with pytest.raises(EvalDomainError, match="zero base"):
        eval_expr(parse_expr("t^-1", vs), {"t": 0.0})
    with pytest.raises(ExprError):
        eval_expr(parse_expr("1/t", vs), {"t": 0.0})


def test_float_overflow_names_its_subexpression():
    # OverflowError and ValueError of float math, at the node that raised
    vs = ("t",)
    cases = [("t^2", 1e300, "overflow in subexpression 't^2'"),
             ("exp(1000*t)", 1.0,
              "exp out of range in subexpression 'exp(1000 * t)'"),
             ("sin(t)", math.inf, "sin undefined at inf in subexpression "
              "'sin(t)'")]
    for source, t, message in cases:
        with pytest.raises(EvalDomainError) as info:
            eval_expr(parse_expr(source, vs), {"t": t})
        assert str(info.value) == message


def test_a_folded_infinity_compiles():
    # 1e300*1e300 folds to inf, which the kernel source prints as inf
    expr = differentiate(parse_expr("1e300*t*1e300", ("t",)), "t")
    assert str(expr) == "inf"
    assert expr.compiled()(0.5) == math.inf


def test_differentiate_rejects_bad_cases():
    vs = admitted_variables(1)
    expr = parse_expr("x1^2", vs, dim=1)
    with pytest.raises(ExprError):
        differentiate(expr, "z9")
    with pytest.raises(DifferentiationError):
        differentiate(parse_expr("abs(x1)", vs, dim=1), "x1")


def test_too_deep_a_tree_is_an_expr_error():
    # built node by node: the reader itself stops near a thousand levels
    root = Var("x1")
    for _ in range(5000):
        root = Add(root, Var("t"))
    expr = ExprAst(root, admitted_variables(1))
    with pytest.raises(ExprError, match="nested too deeply to differentiate"):
        differentiate(expr, "x1")
    with pytest.raises(ExprError, match="nested too deeply to compile"):
        expr.compiled()


def test_symbolic_derivative_matches_fd():
    vs = admitted_variables(2)
    sources = [
        "(1 - x1)*dx1^2 - (1 + y1)*dy1^2 + dx1*dy1",
        "sin(x1*t) + cos(dx2)^2",
        "exp(x2 - y2)*dy1",
        "sqrt(1 + dx1^2 + dx2^2)",
        "log(2 + x1^2)/(1 + y1^2)",
        "x1^3 - 2*x1*x2 + dy2^4",
    ]
    rng = np.random.default_rng(11)
    for src in sources:
        expr = parse_expr(src, vs, dim=2)
        for var in vs:
            d = differentiate(expr, var)
            for _ in range(10):
                pt = {v: float(rng.uniform(-1.5, 1.5)) for v in vs}
                sym = eval_expr(d, pt)
                num = fd_partial(expr, var, pt)
                assert sym == pytest.approx(num, abs=1e-6 * (1 + abs(sym))), \
                    (src, var, pt)


def test_compiled_matches_tree_walk():
    vs = admitted_variables(1)
    sources = [
        "(1 - x1)*dx1^2 - (1 + y1)*dy1^2 + dx1*dy1",
        "sin(t) + exp(x1)*cos(dy1)",
        "(x1 + 2)^3 - y1/(1 + t^2)",
    ]
    rng = np.random.default_rng(3)
    for src in sources:
        expr = parse_expr(src, vs, dim=1)
        fn = expr.compiled()
        pts = {v: rng.uniform(-2, 2, size=64) for v in vs}
        fast = np.asarray(fn(*(pts[v] for v in vs)), dtype=float)
        for i in range(64):
            slow = eval_expr(expr, {v: float(pts[v][i]) for v in vs})
            assert fast[i] == pytest.approx(slow, abs=1e-12 * (1 + abs(slow)))


def test_parse_lagrangian_builds_all_partials():
    lag = parse_lagrangian("(1 - x1)*dx1^2 - (1 + y1)*dy1^2 + dx1*dy1", 1)
    assert lag.dim == 1
    assert set(lag.partials) == {"x1", "y1", "dx1", "dy1"}
    pt = {"t": 0.0, "x1": 0.0, "y1": 0.0, "dx1": 2.0, "dy1": 3.0}
    # d/d(dx1) = 2(1-x1)dx1 + dy1, d/d(x1) = -dx1^2
    assert eval_expr(lag.partial("dx1"), pt) == pytest.approx(7.0, abs=1e-14)
    assert eval_expr(lag.partial("x1"), pt) == pytest.approx(-4.0, abs=1e-14)
    assert eval_expr(lag.partial("y1"), pt) == pytest.approx(-9.0, abs=1e-14)
    assert eval_expr(lag.partial("dy1"), pt) == pytest.approx(-4.0, abs=1e-14)


def test_higher_partials_are_built_once():
    lag = parse_lagrangian("t*x1*dx1^2 + exp(0.1*t)*dy1", 1)
    pt = {"t": 2.0, "x1": 3.0, "y1": 0.0, "dx1": 0.5, "dy1": 1.0}
    # d/dt of Ldx1 = 2*t*x1*dx1 is 2*x1*dx1; d/ddy1 then d/dt is 0.1*exp(0.1*t)
    assert eval_expr(lag.partial("dx1", "t"), pt) == 3.0
    assert eval_expr(lag.partial("dy1", "t"), pt) == \
        pytest.approx(0.1 * np.exp(0.2), rel=1e-15)
    assert eval_expr(lag.partial("dx1", "x1", "dx1"), pt) == 2.0 * 2.0
    assert lag.partial("dx1", "t") is lag.partial("dx1", "t")
    assert lag.partial("dx1") is lag.partials["dx1"]


def test_parse_lagrangian_rejects_out_of_range_index():
    with pytest.raises(IndexOutOfRangeError):
        parse_lagrangian("dx2^2", 1)


@pytest.mark.parametrize("source, dx, dy", [
    ("(dx1 + x1)^2", 2.0, 0.0),
    ("exp(x1)*dx1*dx2", 2.0, 0.0),
    ("dx1^3", 3.0, 0.0),
    ("dx1^2.5", math.inf, 0.0),
    ("1/dx1", math.inf, 0.0),
    ("sqrt(dx1^2)", math.inf, 0.0),
    ("dx1/(1 + x1)", 1.0, 0.0),
    ("sin(t)*dy2^2 - dx1*dy1 + 4", 1.0, 2.0),
    ("(dx1 - dy1)^0 + exp(dy1)", 0.0, math.inf),
])
def test_degree_in_a_slope_block(source, dx, dy):
    # the polynomial degree in dx1, dx2 (and in dy1, dy2): what the scan
    # reads to evaluate one radius and scale the others by r^2
    lag = parse_lagrangian(source, 2)
    assert (lag.degree("dx"), lag.degree("dy")) == (dx, dy)
