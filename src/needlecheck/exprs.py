"""Expression language for Lagrangians and trajectory segments.

Grammar (whitespace-insensitive infix):

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?        # exponent must fold to a numeric constant
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Admitted variables for a Lagrangian of dimension n are
t, x1..xn, y1..yn, dx1..dxn, dy1..dyn (1-based indices); trajectory
segments admit only t.  Functions: sin, cos, exp, log, sqrt, abs.

Evaluation is deterministic (pure tree walk over math-module floats);
identical inputs give bit-identical outputs.  Hot paths use compiled()
to obtain a numpy-broadcast callable with the same operation order.
"""

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt", "abs")

_NUMPY_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_MATH_FUNCS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
    "abs": abs,
}


class ExprError(ValueError):
    """Base class for expression-language errors."""


class ParseError(ExprError):
    """Syntax error with source position and the expected tokens."""

    def __init__(self, message: str, source: str, position: int,
                 expected: Tuple[str, ...] = ()):
        self.source = source
        self.position = position
        self.expected = expected
        detail = f"{message} at position {position}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        detail += f": {source!r}"
        super().__init__(detail)


class UnknownIdentifierError(ParseError):
    """Identifier not in the admitted symbol set."""


class IndexOutOfRangeError(ParseError):
    """Variable index exceeds the declared dimension."""


class EvalDomainError(ExprError):
    """Domain violation during evaluation, carrying the offending subexpression."""

    def __init__(self, message: str, subexpression: str):
        self.subexpression = subexpression
        super().__init__(f"{message} in subexpression {subexpression!r}")


class DifferentiationError(ExprError):
    """Requested derivative does not exist in the admitted language."""


# ---------------------------------------------------------------------------
# AST nodes

class Node:
    __slots__ = ()

    def eval(self, env: Dict[str, float]) -> float:
        raise NotImplementedError

    def diff(self, var: str) -> "Node":
        raise NotImplementedError

    def emit(self) -> str:
        """Source fragment for the compiled callable (numpy namespace)."""
        raise NotImplementedError

    def precedence(self) -> int:
        raise NotImplementedError

    def __str__(self) -> str:
        raise NotImplementedError


def _fmt_const(value: float) -> str:
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


class Const(Node):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def eval(self, env):
        return self.value

    def diff(self, var):
        return Const(0.0)

    def emit(self):
        return repr(self.value)

    def precedence(self):
        return 5 if self.value >= 0 else 3

    def __str__(self):
        return _fmt_const(self.value)


class Var(Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def eval(self, env):
        return env[self.name]

    def diff(self, var):
        return Const(1.0) if var == self.name else Const(0.0)

    def emit(self):
        return self.name

    def precedence(self):
        return 5

    def __str__(self):
        return self.name


class _Binary(Node):
    __slots__ = ("a", "b")
    op = ""
    _prec = 0

    def __init__(self, a: Node, b: Node):
        self.a = a
        self.b = b

    def precedence(self):
        return self._prec

    def _wrap(self, child: Node, right: bool) -> str:
        p = child.precedence()
        if p < self._prec:
            return f"({child})"
        # left-associative: parenthesize a right child of equal precedence
        # under the non-commutative operators
        if right and p == self._prec and self.op in ("-", "/"):
            return f"({child})"
        return str(child)

    def __str__(self):
        return f"{self._wrap(self.a, False)} {self.op} {self._wrap(self.b, True)}"

    def _emit_wrap(self) -> Tuple[str, str]:
        return f"({self.a.emit()})", f"({self.b.emit()})"


class Add(_Binary):
    op = "+"
    _prec = 1

    def eval(self, env):
        return self.a.eval(env) + self.b.eval(env)

    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))

    def emit(self):
        ea, eb = self._emit_wrap()
        return f"{ea} + {eb}"


class Sub(_Binary):
    op = "-"
    _prec = 1

    def eval(self, env):
        return self.a.eval(env) - self.b.eval(env)

    def diff(self, var):
        return sub(self.a.diff(var), self.b.diff(var))

    def emit(self):
        ea, eb = self._emit_wrap()
        return f"{ea} - {eb}"


class Mul(_Binary):
    op = "*"
    _prec = 2

    def eval(self, env):
        return self.a.eval(env) * self.b.eval(env)

    def diff(self, var):
        return add(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))

    def emit(self):
        ea, eb = self._emit_wrap()
        return f"{ea} * {eb}"


class Div(_Binary):
    op = "/"
    _prec = 2

    def eval(self, env):
        denom = self.b.eval(env)
        if denom == 0.0:
            raise EvalDomainError("division by zero", str(self))
        return self.a.eval(env) / denom

    def diff(self, var):
        # (a/b)' = a'/b - a b' / b^2
        return sub(div(self.a.diff(var), self.b),
                   div(mul(self.a, self.b.diff(var)), mul(self.b, self.b)))

    def emit(self):
        ea, eb = self._emit_wrap()
        return f"{ea} / {eb}"


class Pow(Node):
    """base ^ exponent with a numeric-constant exponent."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Node, exponent: float):
        self.base = base
        self.exponent = float(exponent)

    def eval(self, env):
        b = self.base.eval(env)
        p = self.exponent
        if b == 0.0 and p < 0.0:
            raise EvalDomainError("zero base with negative exponent", str(self))
        if b < 0.0 and p != int(p):
            raise EvalDomainError("negative base with fractional exponent", str(self))
        return b ** p

    def diff(self, var):
        p = self.exponent
        if p == 0.0:
            return Const(0.0)
        return mul(mul(Const(p), powc(self.base, p - 1.0)), self.base.diff(var))

    def emit(self):
        return f"({self.base.emit()}) ** {repr(self.exponent)}"

    def precedence(self):
        return 4

    def __str__(self):
        b = str(self.base)
        if self.base.precedence() < 5:
            b = f"({b})"
        e = _fmt_const(self.exponent)
        if self.exponent < 0:
            e = f"({e})"
        return f"{b}^{e}"


class Neg(Node):
    __slots__ = ("a",)

    def __init__(self, a: Node):
        self.a = a

    def eval(self, env):
        return -self.a.eval(env)

    def diff(self, var):
        return neg(self.a.diff(var))

    def emit(self):
        return f"-({self.a.emit()})"

    def precedence(self):
        return 3

    def __str__(self):
        s = str(self.a)
        if self.a.precedence() < 3:
            s = f"({s})"
        return f"-{s}"


class Call(Node):
    __slots__ = ("fn", "a")

    def __init__(self, fn: str, a: Node):
        self.fn = fn
        self.a = a

    def eval(self, env):
        v = self.a.eval(env)
        if self.fn == "log":
            if v <= 0.0:
                raise EvalDomainError("log of non-positive value", str(self))
            return math.log(v)
        if self.fn == "sqrt":
            if v < 0.0:
                raise EvalDomainError("sqrt of negative value", str(self))
            return math.sqrt(v)
        return _MATH_FUNCS[self.fn](v)

    def diff(self, var):
        inner = self.a.diff(var)
        if self.fn == "sin":
            return mul(Call("cos", self.a), inner)
        if self.fn == "cos":
            return neg(mul(Call("sin", self.a), inner))
        if self.fn == "exp":
            return mul(self, inner)
        if self.fn == "log":
            return div(inner, self.a)
        if self.fn == "sqrt":
            return div(inner, mul(Const(2.0), self))
        raise DifferentiationError(
            "abs is admitted for modeling only; it is not differentiable "
            "and cannot appear in an expression that is differentiated")

    def emit(self):
        return f"{self.fn}({self.a.emit()})"

    def precedence(self):
        return 5

    def __str__(self):
        return f"{self.fn}({self.a})"


# ---------------------------------------------------------------------------
# Smart constructors: constant folding and 0/1 identities only (no CAS).

def _const_val(n: Node) -> Optional[float]:
    if isinstance(n, Const):
        return n.value
    if isinstance(n, Neg):
        v = _const_val(n.a)
        return None if v is None else -v
    return None


def add(a: Node, b: Node) -> Node:
    va, vb = _const_val(a), _const_val(b)
    if va is not None and vb is not None:
        return Const(va + vb)
    if va == 0.0:
        return b
    if vb == 0.0:
        return a
    return Add(a, b)


def sub(a: Node, b: Node) -> Node:
    va, vb = _const_val(a), _const_val(b)
    if va is not None and vb is not None:
        return Const(va - vb)
    if vb == 0.0:
        return a
    if va == 0.0:
        return neg(b)
    return Sub(a, b)


def mul(a: Node, b: Node) -> Node:
    va, vb = _const_val(a), _const_val(b)
    if va is not None and vb is not None:
        return Const(va * vb)
    if va == 0.0 or vb == 0.0:
        return Const(0.0)
    if va == 1.0:
        return b
    if vb == 1.0:
        return a
    return Mul(a, b)


def div(a: Node, b: Node) -> Node:
    va, vb = _const_val(a), _const_val(b)
    if vb is not None and vb != 0.0:
        if va is not None:
            return Const(va / vb)
        if vb == 1.0:
            return a
    if va == 0.0 and (vb is None or vb != 0.0):
        return Const(0.0)
    return Div(a, b)


def powc(base: Node, exponent: float) -> Node:
    if exponent == 0.0:
        return Const(1.0)
    if exponent == 1.0:
        return base
    vb = _const_val(base)
    if vb is not None and not (vb == 0.0 and exponent < 0) \
            and not (vb < 0.0 and exponent != int(exponent)):
        return Const(vb ** exponent)
    return Pow(base, exponent)


def neg(a: Node) -> Node:
    va = _const_val(a)
    if va is not None:
        return Const(-va)
    if isinstance(a, Neg):
        return a.a
    return Neg(a)


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[+\-*/^()]))")

_VAR_RE = re.compile(r"^(t|(dx|dy|x|y)([0-9]+))$")


@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | end
    text: str
    pos: int


def _tokenize(source: str) -> List[_Token]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad = n - len(stripped)
            raise ParseError(f"unexpected character {source[bad]!r}", source, bad)
        if m.group("num") is not None:
            tokens.append(_Token("num", m.group("num"), m.start("num")))
        elif m.group("ident") is not None:
            tokens.append(_Token("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(_Token("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


# variable blocks after t, in argument order; y = x(t-h), dy = xdot(t-h)
BLOCKS = ("x", "y", "dx", "dy")


def admitted_variables(dim: int) -> Tuple[str, ...]:
    """Symbol set {t, x1..xn, y1..yn, dx1..dxn, dy1..dyn} for dimension n."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    names = ["t"]
    for prefix in BLOCKS:
        names.extend(f"{prefix}{i}" for i in range(1, dim + 1))
    return tuple(names)


class _Parser:
    def __init__(self, source: str, variables: Tuple[str, ...], dim: Optional[int]):
        self.source = source
        self.variables = frozenset(variables)
        self.dim = dim
        self.tokens = _tokenize(source)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"unexpected token {tok.text!r}" if tok.kind != "end"
                             else "unexpected end of input",
                             self.source, tok.pos, expected=(repr(text),))
        self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected token {tok.text!r}", self.source, tok.pos,
                             expected=("operator", "end of input"))
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.term()
                node = Add(node, rhs) if tok.text == "+" else Sub(node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.factor()
                node = Mul(node, rhs) if tok.text == "*" else Div(node, rhs)
            else:
                return node

    def factor(self) -> Node:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.peek()
            exponent = self.factor()
            value = _const_val(exponent)
            if value is None:
                raise ParseError("exponent must be a numeric constant",
                                 self.source, exp_tok.pos, expected=("number",))
            return Pow(base, value)
        return base

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownIdentifierError(
                        f"unknown function {tok.text!r}", self.source, tok.pos,
                        expected=FUNCTIONS)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg)
            return self.variable(tok)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {tok.text!r}" if tok.kind != "end"
                         else "unexpected end of input",
                         self.source, tok.pos,
                         expected=("number", "identifier", "'('", "'-'"))

    def variable(self, tok: _Token) -> Node:
        name = tok.text
        if name in self.variables:
            return Var(name)
        m = _VAR_RE.match(name)
        if m and self.dim is not None and m.group(3) is not None:
            index = int(m.group(3))
            if index < 1 or index > self.dim:
                raise IndexOutOfRangeError(
                    f"variable {name!r} out of range for dimension {self.dim}",
                    self.source, tok.pos)
        raise UnknownIdentifierError(
            f"unknown identifier {name!r}", self.source, tok.pos,
            expected=tuple(sorted(self.variables)))


# ---------------------------------------------------------------------------
# Public expression objects

class ExprAst:
    """Immutable expression over a fixed admitted variable set."""

    __slots__ = ("root", "variables", "_compiled")

    def __init__(self, root: Node, variables: Tuple[str, ...]):
        self.root = root
        self.variables = tuple(variables)
        self._compiled = None

    def __str__(self):
        return str(self.root)

    @property
    def is_zero(self) -> bool:
        """Folded to the constant 0, as a partial in an absent variable is."""
        return isinstance(self.root, Const) and self.root.value == 0.0

    def compiled(self) -> Callable:
        """Numpy-broadcast callable with positional args in variables order."""
        if self._compiled is None:
            self._compiled = _compile(self.root, self.variables)
        return self._compiled


def _compile(root: Node, params: Iterable[str]) -> Callable:
    return _compile_source(tuple(params), root.emit())


# Distinct expression objects often emit the same source: trajectory
# segments rebuilt by split_at or a needle variation share their
# derivatives, so most compiles of a run repeat an earlier one.
@functools.lru_cache(maxsize=1024)
def _compile_source(params: Tuple[str, ...], body: str) -> Callable:
    src = f"def _compiled({', '.join(params)}):\n    return {body}\n"
    namespace = dict(_NUMPY_FUNCS)
    exec(src, namespace)  # noqa: S102 - generated from the validated AST only
    return namespace["_compiled"]


def parse_expr(source: str, variables: Tuple[str, ...],
               dim: Optional[int] = None) -> ExprAst:
    """Parse an expression admitting exactly the given variables."""
    root = _Parser(source, variables, dim).parse()
    return ExprAst(root, variables)


def eval_expr(expr: ExprAst, point: Dict[str, float]) -> float:
    """Evaluate with every admitted variable bound; deterministic tree walk."""
    missing = [v for v in expr.variables if v not in point]
    if missing:
        raise ExprError(f"unbound variables: {', '.join(missing)}")
    return float(expr.root.eval(point))


def differentiate(expr: ExprAst, var: str) -> ExprAst:
    """Symbolic derivative, constant-folded; rejects non-admitted variables."""
    if var not in expr.variables:
        raise ExprError(f"cannot differentiate with respect to {var!r}; "
                        f"admitted: {', '.join(expr.variables)}")
    return ExprAst(expr.root.diff(var), expr.variables)


class LagrangianExpr:
    """Parsed Lagrangian with its symbolic partials.

    partial(*names) differentiates the body in the admitted variables
    names (t included), in order.  Each partial is built once, so it
    compiles once; partials holds them, keyed by the name for a first
    partial and by the name tuple otherwise.  The 4n first partials in
    x1..dyn are built at construction, so a body that cannot be
    differentiated fails there.  They agree with central finite
    differences of the body (mixed tolerance 1e-6), which the test suite
    enforces.  A config's problem gets its one LagrangianExpr from
    config.build_problem, through parse_lagrangian; parsing the config
    only parses the body.
    """

    __slots__ = ("dim", "source", "body", "partials")

    def __init__(self, dim: int, source: str, body: ExprAst):
        self.dim = dim
        self.source = source
        self.body = body
        self.partials: Dict[object, ExprAst] = {}
        for var in self.variables[1:]:
            self.partial(var)

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.body.variables

    def partial(self, *names: str) -> ExprAst:
        key = names if len(names) > 1 else names[0]
        if key not in self.partials:
            inner = self.partial(*names[:-1]) if len(names) > 1 else self.body
            self.partials[key] = differentiate(inner, names[-1])
        return self.partials[key]


def parse_lagrangian(source: str, dim: int) -> LagrangianExpr:
    """Parse L(t, x, y, dx, dy) text and build all 4n symbolic partials."""
    body = parse_expr(source, admitted_variables(dim), dim=dim)
    return LagrangianExpr(dim, source, body)
