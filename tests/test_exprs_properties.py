"""Expression text, fuzzed and pinned: any source either reads or fails as a
ParseError inside it; the printer's kernel source has the evaluation order
of the tree, its display text reads back to the same kernel source, and the
symbolic derivative agrees with sympy's."""

import ast
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from needlecheck.exprs import (FUNCTIONS, Add, Call, Const, Div, ExprAst, Mul,
                               Neg, ParseError, Pow, Sub, Var,
                               admitted_variables, differentiate, eval_expr,
                               parse_expr)

from reference import emit_parenthesized

VS = admitted_variables(2)

# any text, and text made of the pieces an expression is spelled with
_SOURCE = st.one_of(
    st.text(),
    st.lists(st.sampled_from(
        list("0123456789.eEjx_+-*/^() \t#") + list(VS) + list(FUNCTIONS)
        + ["**", "//", "0x1F", "1_000", "01", "1e400", "x9", "tan", "None"]),
        max_size=24).map("".join))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(source=_SOURCE)
def test_any_source_reads_or_fails_inside_it(source):
    for variables, dim in ((VS, 2), (("t",), None)):
        try:
            parse_expr(source, variables, dim)
        except ParseError as exc:
            assert 0 <= exc.position <= len(source)


def _trees(constants, exponents, functions):
    leaves = st.one_of(constants.map(Const), st.sampled_from(VS).map(Var))

    def extend(children):
        return st.one_of(
            st.builds(lambda cls, a, b: cls(a, b),
                      st.sampled_from([Add, Sub, Mul, Div]), children,
                      children),
            st.builds(Neg, children),
            st.builds(Pow, children, exponents),
            st.builds(Call, st.sampled_from(functions), children))
    return st.recursive(leaves, extend, max_leaves=10)


_SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, -2.5, 0.1, 1e-300, -1e-300, 1e300,
            -1e300, 1e16, -7.0]
_TREES = _trees(
    st.one_of(st.sampled_from(_SPECIAL),
              st.floats(allow_nan=False, allow_infinity=False)),
    st.sampled_from([2.0, -1.0, 0.5, 0.0, -0.0, 3.0, -2.5, 1e300]),
    FUNCTIONS)


def _kernel_ast(source: str) -> str:
    return ast.dump(ast.parse(source, mode="eval"))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(tree=_TREES)
@example(tree=Neg(Neg(Var("x1"))))
@example(tree=Add(Var("x1"), Add(Var("x2"), Var("t"))))
@example(tree=Mul(Var("x1"), Mul(Var("x2"), Const(-3.0))))
@example(tree=Pow(Neg(Var("dx1")), -2.0))
@example(tree=Pow(Const(-0.0), 2.0))
@example(tree=Sub(Const(-0.0), Neg(Const(-1e300))))
def test_printer_keeps_the_tree(tree):
    code = _kernel_ast(tree.emit())
    assert code == _kernel_ast(emit_parenthesized(tree))
    again = parse_expr(str(tree), VS, dim=2).root
    assert _kernel_ast(again.emit()) == code


_SMOOTH = _trees(st.sampled_from([0.5, 1.0, 2.0, 3.0, 0.25, -1.5, 0.0]),
                 st.sampled_from([2.0, 3.0, -1.0, 0.5, 1.5, -2.0]),
                 tuple(f for f in FUNCTIONS if f != "abs"))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(tree=_SMOOTH)
def test_derivative_matches_sympy(tree):
    sp = pytest.importorskip("sympy")
    symbols = sp.symbols(VS)
    body = sp.sympify(str(tree).replace("^", "**"),
                      locals=dict(zip(VS, symbols)))
    expr = ExprAst(tree, VS)
    rng = np.random.default_rng(5)
    points = [dict(zip(VS, rng.uniform(-2.0, 2.0, len(VS)).tolist()))
              for _ in range(5)]
    for var, symbol in zip(VS, symbols):
        mine = differentiate(expr, var)
        theirs = sp.lambdify(symbols, sp.diff(body, symbol), "math")
        for point in points:
            try:
                want = float(theirs(*point.values()))
                got = eval_expr(mine, point)
            except (ArithmeticError, ValueError, TypeError):
                continue  # outside a domain: log, sqrt, x^0.5, 1/0, complex
            if math.isfinite(want) and math.isfinite(got):
                assert abs(got - want) <= 1e-10 * (1 + abs(want))
