"""Test-only reference helpers: a constant history, the central finite
difference that the symbolic partials are checked against, the first
variation of a variation trajectory that the needle's is checked against,
the Q_1/excess equivalence of Remark 6.1, and the plain-JSON conversion
whose json.dumps text the CLI's report writer is checked against."""

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from needlecheck.analysis import AnalysisError, _validate_point_args
from needlecheck.conditions import (AnalysisSettings, ConditionsError,
                                    ExcessPoint, _variation_breaks,
                                    _variation_integral, paired_slope, q_k,
                                    xi_sample_set)
from needlecheck.exprs import Const, ExprAst, eval_expr
from needlecheck.problem import CandidateExtremal, DelayProblem
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
