"""Expression language for Lagrangians and trajectory segments.

The grammar is Python's expression grammar, read by Python's own parser,
restricted to numbers, variables, the binary operators + - * /, unary -,
`^` for power (`**` too) with an exponent that folds to a numeric
constant, parentheses and one-argument calls of the admitted functions.
Spaces and tabs separate tokens.

Admitted variables for a Lagrangian of dimension n are
t, x1..xn, y1..yn, dx1..dxn, dy1..dyn (1-based indices); trajectory
segments admit only t.  Functions: sin, cos, exp, log, sqrt, abs.

Evaluation is deterministic (pure tree walk over math-module floats);
identical inputs give bit-identical outputs.  Hot paths use compiled()
to obtain a numpy-broadcast callable with the same operation order.
"""

import ast
import functools
import math
import re
import warnings
from typing import Callable, Dict, Optional, Tuple

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
    """Error in expression text at a character index of its source, with
    the expected tokens where there is a short list of them; a syntax
    error carries Python's message."""

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
    # binding strength: 1 for + -, 2 for * /, 3 for unary -, 4 for ^, 5 atoms
    prec = 5

    def eval(self, env: Dict[str, float]) -> float:
        raise NotImplementedError

    def diff(self, var: str) -> "Node":
        raise NotImplementedError

    def text(self, code: bool) -> str:
        """Source text, parenthesized only where precedence needs it: the
        kernel source (`**`, repr constants) when code, else display text
        (`^`, integral constants without `.0`)."""
        raise NotImplementedError

    def emit(self) -> str:
        """Source fragment for the compiled callable (numpy namespace)."""
        return self.text(True)

    def __str__(self) -> str:
        return self.text(False)


def _group(text: str, parens: bool) -> str:
    return f"({text})" if parens else text


def _fmt_const(value: float) -> str:
    if value.is_integer() and abs(value) < 1e16:
        return f"{value:.0f}"  # keeps the sign of -0.0
    return repr(value)


class Const(Node):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def eval(self, env):
        return self.value

    def diff(self, var):
        return Const(0.0)

    @property
    def prec(self):
        return 3 if math.copysign(1.0, self.value) < 0.0 else 5

    def text(self, code):
        return repr(self.value) if code else _fmt_const(self.value)


class Var(Node):
    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def eval(self, env):
        return env[self.name]

    def diff(self, var):
        return Const(1.0) if var == self.name else Const(0.0)

    def text(self, code):
        return self.name


class _Binary(Node):
    """Left-associative: a right child of equal precedence keeps its
    parentheses, as float + and * are not associative either."""

    __slots__ = ("a", "b")
    op = ""

    def __init__(self, a: Node, b: Node):
        self.a = a
        self.b = b

    def text(self, code):
        return (f"{_group(self.a.text(code), self.a.prec < self.prec)} "
                f"{self.op} "
                f"{_group(self.b.text(code), self.b.prec <= self.prec)}")


class Add(_Binary):
    op = "+"
    prec = 1

    def eval(self, env):
        return self.a.eval(env) + self.b.eval(env)

    def diff(self, var):
        return add(self.a.diff(var), self.b.diff(var))


class Sub(_Binary):
    op = "-"
    prec = 1

    def eval(self, env):
        return self.a.eval(env) - self.b.eval(env)

    def diff(self, var):
        return sub(self.a.diff(var), self.b.diff(var))


class Mul(_Binary):
    op = "*"
    prec = 2

    def eval(self, env):
        return self.a.eval(env) * self.b.eval(env)

    def diff(self, var):
        return add(mul(self.a.diff(var), self.b), mul(self.a, self.b.diff(var)))


class Div(_Binary):
    op = "/"
    prec = 2

    def eval(self, env):
        denom = self.b.eval(env)
        if denom == 0.0:
            raise EvalDomainError("division by zero", str(self))
        return self.a.eval(env) / denom

    def diff(self, var):
        # (a/b)' = a'/b - a b' / b^2
        return sub(div(self.a.diff(var), self.b),
                   div(mul(self.a, self.b.diff(var)), mul(self.b, self.b)))


class Pow(Node):
    """base ^ exponent with a numeric-constant exponent."""

    __slots__ = ("base", "exponent")
    prec = 4

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
        try:
            return b ** p
        except OverflowError:
            raise EvalDomainError("overflow", str(self)) from None

    def diff(self, var):
        p = self.exponent
        if p == 0.0:
            return Const(0.0)
        return mul(mul(Const(p), powc(self.base, p - 1.0)), self.base.diff(var))

    def text(self, code):
        exponent = Const(self.exponent)
        return (_group(self.base.text(code), self.base.prec < 5)
                + (" ** " if code else "^")
                + _group(exponent.text(code), exponent.prec < 5))


class Neg(Node):
    __slots__ = ("a",)
    prec = 3

    def __init__(self, a: Node):
        self.a = a

    def eval(self, env):
        return -self.a.eval(env)

    def diff(self, var):
        return neg(self.a.diff(var))

    def text(self, code):
        return "-" + _group(self.a.text(code), self.a.prec < 3)


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
        try:
            return _MATH_FUNCS[self.fn](v)
        except OverflowError:
            raise EvalDomainError(f"{self.fn} out of range", str(self)) from None
        except ValueError:  # sin or cos of an infinity
            raise EvalDomainError(f"{self.fn} undefined at {v!r}",
                                  str(self)) from None

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

    def text(self, code):
        return f"{self.fn}({self.a.text(code)})"


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
# Reader

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


_OUTSIDE_ALPHABET = re.compile(r"[^A-Za-z0-9_.+\-*/^() \t]")
_BINARY = {ast.Add: Add, ast.Sub: Sub, ast.Mult: Mul, ast.Div: Div}
_INDEXED_RE = re.compile(r"(?:dx|dy|x|y)([0-9]+)")


def _read(source: str, variables: Tuple[str, ...], dim: Optional[int]) -> Node:
    """The tree of source, read by Python's expression parser with `^` for
    `**`, node for node and unfolded; every error is a ParseError at a
    character index of source."""
    bad = _OUTSIDE_ALPHABET.search(source)  # `#` would start a comment
    if bad:
        raise ParseError(f"unexpected character {bad[0]!r}", source,
                         bad.start())
    text = source.lstrip(" \t")
    code = text.replace("^", "**")

    def at(k: int) -> int:
        """The index in source of character k of code (a `^` is two)."""
        table = [i for i in range(len(source) - len(text), len(source))
                 for _ in range(1 + (source[i] == "^"))] + [len(source)]
        return table[min(max(k, 0), len(code))]

    def err(message: str, k: int, cls=ParseError, expected=()) -> ParseError:
        return cls(message, source, at(k), expected)

    def walk(node: ast.expr) -> Node:
        k = node.col_offset
        match node:
            case ast.BinOp(left=a, op=ast.Pow(), right=b):
                base = walk(a)
                exponent = _const_val(walk(b))
                if exponent is None:
                    raise err("exponent must be a numeric constant",
                              b.col_offset, expected=("number",))
                return Pow(base, exponent)
            case ast.BinOp(left=a, op=op, right=b) if type(op) in _BINARY:
                return _BINARY[type(op)](walk(a), walk(b))
            case ast.UnaryOp(op=ast.USub(), operand=a):
                return Neg(walk(a))
            case ast.Constant(value=int() | float() as v) if not isinstance(
                    v, bool):
                value = float(str(v))  # a huge int is inf, not an error
                if not math.isfinite(value):
                    raise err(f"number {segment(node)} is out of range", k)
                return Const(value)
            case ast.Call(func=ast.Name(id=fn, col_offset=c), args=args,
                          keywords=[]) if c == k:  # not `(sin)(t)`
                if fn not in FUNCTIONS:
                    raise err(f"unknown function {fn!r}", k,
                              UnknownIdentifierError, FUNCTIONS)
                if len(args) == 1:
                    return Call(fn, walk(args[0]))
            case ast.Name(id=name) if name in variables:
                return Var(name)
            case ast.Name(id=name):
                m = _INDEXED_RE.fullmatch(name)
                if m and dim is not None and not 1 <= int(m[1]) <= dim:
                    raise err(f"variable {name!r} out of range for dimension "
                              f"{dim}", k, IndexOutOfRangeError)
                raise err(f"unknown identifier {name!r}", k,
                          UnknownIdentifierError, tuple(sorted(variables)))
        raise err(f"unexpected {segment(node)!r}", k)

    def segment(node: ast.expr) -> str:
        return source[at(node.col_offset):at(node.end_col_offset)]

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # as `1if t else 2` warns
            tree = ast.parse(code, mode="eval")
        return walk(tree.body)
    except SyntaxError as exc:  # an offset of 0 or None: at the end
        raise err(exc.msg, exc.offset - 1 if exc.offset else len(code)) \
            from exc
    except RecursionError as exc:
        raise err("expression nested too deeply", 0) from exc


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
            try:
                self._compiled = _compile_source(self.variables,
                                                 self.root.emit())
            except (RecursionError, SyntaxError) as exc:  # 200 parentheses
                raise ExprError("expression nested too deeply to compile") \
                    from exc
        return self._compiled


# Distinct expression objects often emit the same source.  In the benchmark
# workloads (seed 0), 34 of convex5_verdict's 57 compiles emit `0.0` (the
# zero history and candidate components and their derivatives), and in
# sinh_needles history and candidate share 0.5*(exp(t) - exp(-t)) and its
# derivative.
@functools.lru_cache(maxsize=1024)
def _compile_source(params: Tuple[str, ...], body: str) -> Callable:
    src = f"def _compiled({', '.join(params)}):\n    return {body}\n"
    # a folded constant may print as inf or nan
    namespace = dict(_NUMPY_FUNCS, inf=math.inf, nan=math.nan)
    exec(src, namespace)  # noqa: S102 - generated from the validated AST only
    return namespace["_compiled"]


def parse_expr(source: str, variables: Tuple[str, ...],
               dim: Optional[int] = None) -> ExprAst:
    """Parse an expression admitting exactly the given variables."""
    return ExprAst(_read(source, variables, dim), variables)


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
    try:
        return ExprAst(expr.root.diff(var), expr.variables)
    except RecursionError as exc:
        raise ExprError("expression nested too deeply to differentiate") \
            from exc


def _degree(node: Node, names: frozenset) -> float:
    """The polynomial degree of node in the variables names, math.inf
    where node is no polynomial in them: a quotient by, a function of, or a
    power other than a non-negative integer one of an expression that
    depends on them."""
    match node:
        case Var(name=name):
            return float(name in names)
        case Add(a=a, b=b) | Sub(a=a, b=b):
            return max(_degree(a, names), _degree(b, names))
        case Mul(a=a, b=b):
            return _degree(a, names) + _degree(b, names)
        case Div(a=a, b=b):
            return _degree(a, names) if _degree(b, names) == 0 else math.inf
        case Pow(base=base, exponent=p):
            d = _degree(base, names)
            if d == 0 or p == 0:
                return 0.0
            return p * d if p > 0 and p.is_integer() else math.inf
        case Neg(a=a):
            return _degree(a, names)
        case Call(a=a):
            return 0.0 if _degree(a, names) == 0 else math.inf
    return 0.0  # a constant


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
    differentiates the body only once, in t, to place an abs error.
    degree(block) is the body's polynomial degree in one variable block.
    """

    __slots__ = ("dim", "source", "body", "partials", "_degrees")

    def __init__(self, dim: int, source: str, body: ExprAst):
        self.dim = dim
        self.source = source
        self.body = body
        self.partials: Dict[object, ExprAst] = {}
        self._degrees: Dict[str, float] = {}
        for var in self.variables[1:]:
            self.partial(var)

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.body.variables

    def degree(self, block: str) -> float:
        """The polynomial degree of the body in the variables of block (one
        of BLOCKS: dx for the slopes an x-slot excess perturbs, dy for the
        y slot's), math.inf where the body is no polynomial in them; one
        walk of the body per block."""
        if block not in self._degrees:
            names = frozenset(f"{block}{i}" for i in range(1, self.dim + 1))
            self._degrees[block] = _degree(self.body.root, names)
        return self._degrees[block]

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
