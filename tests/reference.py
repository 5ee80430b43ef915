"""Test-only reference helpers: a constant history and the central
finite difference that the symbolic partials are checked against."""

from typing import Dict, Sequence

import numpy as np

from needlecheck.exprs import Const, ExprAst, eval_expr
from needlecheck.trajectory import HistorySpec, Segment, Trajectory

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
