"""Test-only reference helpers: a constant history, the central finite
difference that the symbolic partials are checked against, the kernel
source with every operand parenthesized that the printer's is checked
against, the first variation of a variation trajectory that the needle's
is checked against (with its own quadrature driver of a function of
time), the Q_1/excess equivalence of Remark 6.1, and the plain-JSON
conversion whose json.dumps text the CLI's report writer is checked
against."""

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from needlecheck.analysis import AnalysisError, _validate_point_args
from needlecheck.conditions import (AnalysisSettings, ConditionsError,
                                    ExcessPoint, _dot, paired_slope, q_k,
                                    xi_sample_set)
from needlecheck.exprs import (Call, Const, ExprAst, Neg, Node, Pow, Var,
                               eval_expr)
from needlecheck.problem import (CandidateExtremal, DelayProblem, along,
                                 partials_vec)
from needlecheck.quadrature import panel_nodes, panel_plan
from needlecheck.trajectory import BREAK_TOL, HistorySpec, Segment, Trajectory

_FD_STEP_BASE = float(np.cbrt(np.finfo(float).eps))


def constant_history(t_start: float, t_end: float,
                     values: Sequence[float]) -> HistorySpec:
    """History identically equal to a constant vector, terminal equal to
    it too; to override the terminal point, construct HistorySpec
    directly."""
    comps = [ExprAst(Const(float(v)), ("t",)) for v in values]
    phi = Trajectory([Segment(t_start, t_end, tuple(comps))])
    return HistorySpec(phi=phi, x1=np.asarray(values, dtype=float))


def fd_partial(expr: ExprAst, var: str, point: Dict[str, float]) -> float:
    """Central finite difference in var with step cbrt(eps)*(1+|value|)."""
    h = _FD_STEP_BASE * (1.0 + abs(point[var]))
    hi = dict(point)
    lo = dict(point)
    hi[var] = point[var] + h
    lo[var] = point[var] - h
    return (eval_expr(expr, hi) - eval_expr(expr, lo)) / (2.0 * h)


def emit_parenthesized(node: Node) -> str:
    """Kernel source of node with every operand in parentheses: the printer
    must give the same Python AST, so the same evaluation order."""
    match node:
        case Const(value=v):
            return repr(v)
        case Var(name=name):
            return name
        case Pow(base=base, exponent=p):
            return f"({emit_parenthesized(base)}) ** {p!r}"
        case Neg(a=a):
            return f"-({emit_parenthesized(a)})"
        case Call(fn=fn, a=a):
            return f"{fn}({emit_parenthesized(a)})"
    a, b = emit_parenthesized(node.a), emit_parenthesized(node.b)
    return f"({a}) {node.op} ({b})"


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              breaks: Sequence[float] = (), order: Optional[int] = None) -> float:
    """Composite Gauss-Legendre integral of f over [a, b] with panel splits.

    f is called once, with the nodes of every panel as one flat array of
    times, and must return the sampled values (scalar results broadcast).
    The integral is the fsum of the panels' Gauss sums; 0 when a == b.
    """
    panels = panel_plan(a, b, breaks)
    if not panels:
        return 0.0
    grid, weights = panel_nodes(*np.array(panels).T, order)
    ts = grid.ravel()
    vals = np.broadcast_to(np.asarray(f(ts), dtype=float), ts.shape)
    return math.fsum(float(np.dot(ws, v))
                     for ws, v in zip(weights, vals.reshape(grid.shape)))


def _variation_breaks(p: DelayProblem, *trajs: Trajectory) -> List[float]:
    pts = {p.t1 - p.h}
    for traj in trajs:
        for bp in (traj.a,) + traj.breakpoints + (traj.b,):
            pts.update((bp, bp - p.h, bp + p.h))
    return [x for x in pts if p.t0 < x < p.t1]


def _variation_integral(p: DelayProblem, cand: CandidateExtremal, a: float,
                        b: float, breaks, q_qdot) -> float:
    """Integral over [a, b] of [Lx(t)+Ly(t+h)]^T q(t) + [Ldx(t)+Ldy(t+h)]^T
    q_dot(t), with q_qdot(ts) giving (q, q_dot) at the nodes ts, each of
    shape (n, len(ts)), and the panels split at breaks."""
    def g(ts: np.ndarray) -> np.ndarray:
        at_t = along(p, cand, ts, "right")
        at_th = along(p, cand, ts + p.h, "right")
        force = partials_vec(p, "x", at_t) + partials_vec(p, "y", at_th)
        rho = partials_vec(p, "dx", at_t) + partials_vec(p, "dy", at_th)
        q, q_dot = q_qdot(ts)
        return _dot(force, q.T) + _dot(rho, q_dot.T)
    return integrate(g, a, b, breaks)


def first_variation(p: DelayProblem, cand: CandidateExtremal,
                    delta: Trajectory) -> float:
    """Integral of [Lx(t)+Ly(t+h)]^T dx(t) + [Ldx(t)+Ldy(t+h)]^T dxdot(t)
    over [t0, t1] for an admissible variation dx (zero history, zero at t1)."""
    if delta.a > p.t0 + BREAK_TOL or delta.b < p.t1 - BREAK_TOL:
        raise ConditionsError(
            f"variation domain [{delta.a}, {delta.b}] must cover [{p.t0}, {p.t1}]")
    t_chk = np.linspace(max(delta.a, p.t0 - p.h), p.t0, 5)
    nonzero = np.flatnonzero(np.abs(delta.value(t_chk)).max(0) > 1e-9)
    if nonzero.size:
        raise ConditionsError(
            f"variation must vanish on the history interval; "
            f"nonzero at t={float(t_chk[nonzero[0]])}")
    if float(np.max(np.abs(delta.value(p.t1)))) > 1e-9:
        raise ConditionsError("variation must vanish at t1")
    return _variation_integral(
        p, cand, p.t0, p.t1, _variation_breaks(p, cand.traj, delta),
        lambda ts: (delta.value(ts), delta.deriv(ts)))


@dataclass(frozen=True)
class EquivalenceRecord:
    """Q_1 sum = 0 iff both paired excess sums = 0, checked numerically."""

    theta: float
    side: str
    q1_sum: float
    e_sum_direction: float
    e_sum_paired: float
    weierstrass_min: float
    tol_deg: float
    tol_w: float
    zero_q1: bool
    zero_e: bool
    passed: bool


def remark_6_1_equivalence(p: DelayProblem, cand: CandidateExtremal,
                           theta: float, side: str, lam_bar: float,
                           eta: np.ndarray,
                           settings: AnalysisSettings = AnalysisSettings()
                           ) -> EquivalenceRecord:
    """Check that the Q_1 sum vanishes exactly when both excess sums do.

    Valid for candidates satisfying the pointwise excess condition at
    theta, which is spot-checked over the sample set first; the Q_1 sum is
    a convex combination of the two excess sums, so with both nonnegative
    it vanishes iff both vanish.  The arguments are validated as the point
    checks validate them, for one side.
    """
    if side not in ("right", "left"):
        raise AnalysisError(f"side must be 'right' or 'left', got {side!r}")
    eta = _validate_point_args(p, theta, side, lam_bar, eta)
    s = settings.resolved(p, cand)
    tw, td = s.tol_w, s.tol_deg

    pt = ExcessPoint(p, cand, theta, side)
    samples = xi_sample_set(p.dim, s.radii, s.seed)
    wmin = min(pt.e_sum(samples)[0].tolist())
    if wmin < -tw:
        raise AnalysisError(
            f"pointwise excess condition fails at theta={theta} "
            f"(min {wmin} < -{tw}); the equivalence applies to candidates "
            f"that satisfy it")
    e1, e2 = pt.e_sum([eta, paired_slope(lam_bar, eta)])[0].tolist()
    q1 = q_k(1, lam_bar, e1, e2)
    zero_q1 = abs(q1) <= td
    zero_e = abs(e1) <= td and abs(e2) <= td
    return EquivalenceRecord(
        theta=theta, side=side, q1_sum=q1, e_sum_direction=e1,
        e_sum_paired=e2, weierstrass_min=wmin, tol_deg=td, tol_w=tw,
        zero_q1=zero_q1, zero_e=zero_e, passed=zero_q1 == zero_e)


def _jsonable(obj):
    """obj as plain JSON values: a dataclass as the dict of its fields, a
    numpy array as nested lists, numpy scalars as numbers, tuples as lists,
    dict keys as strings, and a non-finite float as the string of its
    repr.  The CLI prints json.dumps(_jsonable(payload), indent=2,
    sort_keys=True), byte for byte."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (tuple, list)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj
