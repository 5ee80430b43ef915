"""Piecewise-C1 vector trajectories with breakpoints and one-sided derivatives.

A trajectory is a list of contiguous segments, each defined per component
by an expression in t, so values and derivatives are exact per segment and
quadrature can treat every panel as smooth.  Values are continuous across
breakpoints; derivatives may jump (checked at construction).

Every lookup (value, deriv, second_deriv) locates each time by _locate and
evaluates each segment used once on all of its times; the shape follows
the input: one time gives (dim,), an array of times (dim, len(ts)).
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .exprs import ExprAst, differentiate

# absolute tolerance for comparing times against breakpoints
BREAK_TOL = 1e-12
# relative scale for the value-continuity check at breakpoints
CONT_TOL = 1e-12


class TrajectoryError(ValueError):
    """segment, where the error is one segment's or a join's, is the index
    of that segment (of the later one at a join) in its trajectory."""

    def __init__(self, message: str, segment: Optional[int] = None):
        super().__init__(message)
        self.segment = segment


class Segment:
    """One smooth piece: per-component value expressions in t on [t_start, t_end]."""

    __slots__ = ("t_start", "t_end", "value_exprs", "deriv_exprs",
                 "_compiled")

    def __init__(self, t_start: float, t_end: float, value_exprs: Tuple[ExprAst, ...]):
        if not t_end > t_start:
            raise TrajectoryError(
                f"segment must have t_start < t_end, got [{t_start}, {t_end}]")
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.value_exprs = tuple(value_exprs)
        self.deriv_exprs = tuple(differentiate(e, "t") for e in value_exprs)
        self._compiled = {}

    @property
    def dim(self) -> int:
        return len(self.value_exprs)

    def _fns(self, which: str):
        """Compiled components of the value, deriv or second derivative,
        built on first use."""
        if which not in self._compiled:
            exprs_ = self.value_exprs if which == "value" else self.deriv_exprs
            if which == "second":
                exprs_ = tuple(differentiate(e, "t") for e in exprs_)
            self._compiled[which] = tuple(e.compiled() for e in exprs_)
        return self._compiled[which]

    def rows(self, which: str, ts: np.ndarray) -> np.ndarray:
        """The "value", "deriv" or "second" rows at the times of the 1-D
        array ts: shape (dim, len(ts)).  Non-finite entries pass through
        without numpy warnings; each caller checks or reports them."""
        with np.errstate(all="ignore"):
            return np.vstack([np.broadcast_to(f(ts), ts.shape)
                              for f in self._fns(which)])


class Trajectory:
    """Piecewise-smooth vector function on [a, b] with interior breakpoints."""

    __slots__ = ("dim", "a", "b", "breakpoints", "segments", "_joins")

    def __init__(self, segments: Sequence[Segment]):
        if not segments:
            raise TrajectoryError("trajectory needs at least one segment")
        self.dim = segments[0].dim
        for k, seg in enumerate(segments):
            if seg.dim != self.dim:
                raise TrajectoryError(
                    f"segment dimension {seg.dim} != first segment "
                    f"dimension {self.dim}", k)
        self.segments = tuple(segments)
        self.a = segments[0].t_start
        self.b = segments[-1].t_end
        self.breakpoints = tuple(seg.t_start for seg in segments[1:])
        self._joins = (self.a,) + self.breakpoints + (self.b,)
        # both ends of every segment, from that segment: columns 2k, 2k+1
        ends = np.array([t for seg in segments for t in (seg.t_start, seg.t_end)])
        idx = np.repeat(np.arange(len(segments)), 2)
        v = self.on_segments("value", ends, idx)
        d = self.on_segments("deriv", ends, idx)
        for k, (prev, nxt) in enumerate(zip(segments, segments[1:])):
            if abs(prev.t_end - nxt.t_start) > BREAK_TOL:
                raise TrajectoryError(
                    f"segments not contiguous: [{prev.t_start}, {prev.t_end}] "
                    f"then [{nxt.t_start}, {nxt.t_end}]", k + 1)
            left, right = v[:, 2 * k + 1], v[:, 2 * k + 2]
            scale = 1.0 + float(np.max(np.abs(left)))
            gap = float(np.max(np.abs(left - right)))
            if gap > CONT_TOL * scale:
                raise TrajectoryError(
                    f"value discontinuity at t={prev.t_end}: "
                    f"left {left.tolist()} vs right {right.tolist()} (gap {gap:g})",
                    k + 1)
        bad = np.flatnonzero(~(np.isfinite(v).all(0) & np.isfinite(d).all(0)))
        if bad.size:
            raise TrajectoryError(
                f"non-finite segment value/derivative at t={ends[bad[0]]}",
                int(idx[bad[0]]))

    # -- location -----------------------------------------------------------

    def _locate(self, t: float, side: Optional[str] = None) -> Tuple[float, int]:
        """The segment-choice rule at t: (t_eff, segment index).

        A time within BREAK_TOL of a join snaps onto it.  At a join the
        segment is the one governing the one-sided limit from the side;
        without a side it is the segment of the value, the right one except
        at the domain end.  Elsewhere it is the segment containing t.
        """
        if not self.a - BREAK_TOL <= t <= self.b + BREAK_TOL:  # NaN too
            raise TrajectoryError(
                f"t={t} outside trajectory domain [{self.a}, {self.b}]")
        if side not in (None, "left", "right"):
            raise TrajectoryError(f"side must be 'left' or 'right', got {side!r}")
        joins = self._joins
        i = bisect_left(joins, t)
        for j in (i - 1, i):
            if 0 <= j < len(joins) and abs(joins[j] - t) <= BREAK_TOL:
                if side is None:
                    return joins[j], min(j, len(self.segments) - 1)
                if side == "right":
                    if j == len(self.segments):
                        raise TrajectoryError(f"no right limit at domain end t={t}")
                    return joins[j], j
                if j == 0:
                    raise TrajectoryError(f"no left limit at domain start t={t}")
                return joins[j], j - 1
        return t, bisect_right(joins, t) - 1

    def segment_index(self, t: float, side: str) -> int:
        """Index of the smooth segment governing the one-sided limit at t."""
        return self._locate(t, side)[1]

    def _lookup(self, which: str, ts, sides=None) -> np.ndarray:
        """The "value", "deriv" or "second" rows at one time, shape (dim,),
        or at each time of an array, shape (dim, len(ts)).  Each time is
        located by _locate from its side (None, one side, or one per time)."""
        arr = np.atleast_1d(np.asarray(ts, dtype=float))
        if sides is None or isinstance(sides, str):
            sides = [sides] * arr.size
        located = [self._locate(t, s) for t, s in zip(arr.tolist(), sides)]
        out = self.on_segments(which, np.array([t for t, _ in located]),
                               np.array([k for _, k in located]))
        return out if np.ndim(ts) else out[:, 0]

    def on_segments(self, which: str, ts: np.ndarray,
                    idx: np.ndarray) -> np.ndarray:
        """The "value", "deriv" or "second" rows at each time of ts from
        the segment idx names for it: shape (dim, len(ts)), one array call
        per segment used."""
        out = np.empty((self.dim, ts.size))
        for k in sorted(set(idx.tolist())):
            sel = idx == k
            out[:, sel] = self.segments[k].rows(which, ts[sel])
        return out

    # -- evaluation ----------------------------------------------------------

    def value(self, ts) -> np.ndarray:
        """x at a time or an array of times; at a breakpoint, the common
        (continuous) value."""
        return self._lookup("value", ts)

    def deriv(self, ts, sides="right") -> np.ndarray:
        """One-sided derivative at a time or an array of times, from its
        side (one side or one per time)."""
        return self._lookup("deriv", ts, sides)

    def second_deriv(self, ts, sides) -> np.ndarray:
        """One-sided second derivative at a time or an array of times, from
        its side.  It is the symbolic derivative of the segment's
        derivative, so exact per segment; a C1 trajectory may have an
        unbounded one at a segment end, where it is inf."""
        return self._lookup("second", ts, sides)

    # -- structure -----------------------------------------------------------

    def split_at(self, points: Sequence[float]) -> "Trajectory":
        """Same function with extra breakpoints inserted (values unchanged)."""
        cuts = sorted(set(float(p) for p in points))
        segments: List[Segment] = []
        for seg in self.segments:
            inner = [p for p in cuts
                     if seg.t_start + BREAK_TOL < p < seg.t_end - BREAK_TOL]
            lo = seg.t_start
            for p in inner:
                segments.append(Segment(lo, p, seg.value_exprs))
                lo = p
            segments.append(Segment(lo, seg.t_end, seg.value_exprs))
        return Trajectory(segments)


@dataclass(frozen=True)
class HistorySpec:
    """Boundary data: C1 history phi on [t0-h, t0] and the terminal point
    x1.  Their dimensions are the problem's, which DelayProblem checks."""

    phi: Trajectory
    x1: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x1", np.asarray(self.x1, dtype=float).reshape(-1))
        if self.phi.breakpoints:
            raise TrajectoryError(
                "history must be C1 (no interior breakpoints)", 1)
        if not np.all(np.isfinite(self.x1)):
            raise TrajectoryError("terminal point x1 not finite")
