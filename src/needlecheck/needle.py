"""Two-sided needle variations: compactly supported triangular perturbations.

A needle is parameterized by (theta, lambda, xi, side).  On the right it
rises with slope xi on [theta, theta+lambda*eps) and returns to zero with
slope (lambda/(lambda-1))*xi on [theta+lambda*eps, theta+eps); the left
needle mirrors this on [theta-eps, theta].  The two slopes are balanced so
the perturbation vanishes at both support ends, keeping varied trajectories
admissible.  Values are continuous; only the derivative is side-sensitive,
so interval-edge conventions are realized through one-sided evaluation.

This module owns the admissibility of (theta, side, lambda, xi): NeedleSpec
checks each value, `check_point_range` theta's range per side, and
`window_for` xi's dimension and the validity window, the one eps bound of
each side; every needle and point check calls window_for.

`perturbation` gives the needle as numbers, for the quadrature oracle;
`vary`, the symbolic varied trajectory, is the reference it is tested on.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .exprs import Const, ExprAst, Var, mul, sub, add
from .problem import CandidateExtremal, DelayProblem
from .trajectory import BREAK_TOL, Segment, Trajectory


class NeedleError(ValueError):
    """An inadmissible needle or point.  A message about one value begins
    with its name: theta, lambda, xi, eps or side."""


def paired_slope(lam, xi: np.ndarray) -> np.ndarray:
    """The needle's second slope (lambda/(lambda-1))*xi, broadcast."""
    return (lam / (lam - 1.0)) * xi


@dataclass(frozen=True)
class NeedleSpec:
    theta: float
    lam: float
    xi: np.ndarray
    side: str  # "right" | "left"

    def __post_init__(self):
        object.__setattr__(self, "xi",
                           np.atleast_1d(np.asarray(self.xi, dtype=float)))
        if not math.isfinite(self.theta):
            raise NeedleError(f"theta must be finite, got {self.theta}")
        if not 0.0 < self.lam < 1.0:
            raise NeedleError(f"lambda must be strictly inside (0,1), got {self.lam}")
        if not np.all(np.isfinite(self.xi)):
            raise NeedleError(f"xi must be finite, got {self.xi.tolist()}")
        if float(np.max(np.abs(self.xi))) == 0.0:
            raise NeedleError("xi must be nonzero")
        if self.side not in ("right", "left"):
            raise NeedleError(f"side must be 'right' or 'left', got {self.side!r}")

    @property
    def dim(self) -> int:
        return self.xi.size

    @property
    def outer_slope(self) -> np.ndarray:
        return paired_slope(self.lam, self.xi)

    def corners(self, eps: float) -> Tuple[float, float, float]:
        """Support corners in increasing order."""
        if self.side == "right":
            return (self.theta, self.theta + self.lam * eps, self.theta + eps)
        return (self.theta - eps, self.theta - self.lam * eps, self.theta)


def check_point_range(p: DelayProblem, theta: float, side: str) -> None:
    """The admissible range of a point: t0 <= theta < t1 from the right,
    t0 < theta <= t1 from the left, t0 < theta < t1 for both sides."""
    lo_ok = theta > p.t0 + BREAK_TOL or side == "right"
    hi_ok = theta < p.t1 - BREAK_TOL or side == "left"
    if not (p.t0 - BREAK_TOL <= theta <= p.t1 + BREAK_TOL and lo_ok and hi_ok):
        raise NeedleError(
            f"theta={theta} outside the admissible range for side {side!r}")


def window_for(p: DelayProblem, spec: NeedleSpec) -> float:
    """The validity window, the largest admissible eps of the needle's
    side: min{h, theta-t0} on the left; on the right min{h, t1-h-theta} for
    theta < t1-h, else min{h, t1-theta} (the tail, whose delayed region lies
    beyond t1).  Raises when xi does not have the problem's dimension or
    theta is outside the side's range; inside it the window is positive."""
    if spec.dim != p.dim:
        raise NeedleError(f"xi dimension {spec.dim} != problem dimension {p.dim}")
    check_point_range(p, spec.theta, spec.side)
    if spec.side == "left":
        return min(p.h, spec.theta - p.t0)
    if spec.theta < p.t1 - p.h - BREAK_TOL:
        return min(p.h, p.t1 - p.h - spec.theta)
    return min(p.h, p.t1 - spec.theta)


def check_eps(p: DelayProblem, spec: NeedleSpec, eps: float) -> None:
    """window_for holds and eps lies in the side's validity window, which
    keeps the support inside [t0, t1]; else NeedleError."""
    limit = window_for(p, spec)
    if not 0.0 < eps < limit:
        raise NeedleError(
            f"eps={eps} outside validity window (0, {limit}) for "
            f"{spec.side} needle at theta={spec.theta}")


# ---------------------------------------------------------------------------
# the perturbation as numbers

def perturbation(spec: NeedleSpec, eps, ts,
                 right) -> Tuple[np.ndarray, np.ndarray]:
    """(q, q_dot) at each time of ts, each of shape (n, len(ts)), of the
    needle of width eps (one width, or one per time): slope * (t - anchor)
    and slope on the inner branch (xi, anchored at theta) and the outer
    one (outer_slope, at theta +- eps), zero outside the support.  Each
    time takes the branch of its one-sided limit from its side, given as
    a boolean right-mask (True from the right, False from the left; one
    for every time, or one per time); within BREAK_TOL of a corner it
    snaps on."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    right = np.asarray(right)
    if right.dtype != bool:
        raise NeedleError(f"side mask must be boolean, got {right.dtype}")
    corners = spec.corners(np.asarray(eps, dtype=float))
    # piece 1 is [c0, c1], piece 2 is [c1, c2]; 0 and 3 lie outside: the
    # corners a time has passed, from its side
    piece = sum(np.where(right, ts >= c - BREAK_TOL, ts > c + BREAK_TOL)
                for c in corners)
    if spec.side == "right":
        inner, outer, outer_anchor = piece == 1, piece == 2, corners[2]
    else:
        inner, outer, outer_anchor = piece == 2, piece == 1, corners[0]
    anchor = np.where(inner, spec.theta, np.where(outer, outer_anchor, 0.0))
    slope = np.where(inner, spec.xi[:, None],
                     np.where(outer, spec.outer_slope[:, None], 0.0))
    return (ts - anchor) * slope, slope


# ---------------------------------------------------------------------------
# the symbolic varied trajectory

def _branch_expr(base: ExprAst, anchor: float, slope: float) -> ExprAst:
    """base(t) + slope*(t - anchor) as an expression in t."""
    bump = mul(sub(Var("t"), Const(anchor)), Const(slope))
    return ExprAst(add(base.root, bump), base.variables)


def vary(cand: CandidateExtremal, spec: NeedleSpec, eps: float) -> Trajectory:
    """Candidate plus needle: breakpoints of the candidate plus the three
    needle corners; remains admissible because the needle vanishes outside
    its support, which must stay inside the problem interval."""
    p = cand.problem
    check_eps(p, spec, eps)
    c0, c1, c2 = spec.corners(eps)
    split = cand.traj.split_at([c0, c1, c2])
    if spec.side == "right":
        inner = (c0, c1, spec.theta, spec.xi)
        outer = (c1, c2, spec.theta + eps, spec.outer_slope)
    else:
        inner = (c1, c2, spec.theta, spec.xi)
        outer = (c0, c1, spec.theta - eps, spec.outer_slope)
    segments = []
    for seg in split.segments:
        mid = 0.5 * (seg.t_start + seg.t_end)
        exprs_out = seg.value_exprs
        for lo, hi, anchor, slope in (inner, outer):
            if lo - BREAK_TOL < mid < hi + BREAK_TOL and hi - lo > BREAK_TOL:
                exprs_out = tuple(
                    _branch_expr(e, anchor, float(slope[i]))
                    for i, e in enumerate(seg.value_exprs))
                break
        segments.append(Segment(seg.t_start, seg.t_end, exprs_out))
    return Trajectory(segments)

