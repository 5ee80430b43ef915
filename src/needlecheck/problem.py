"""Delay variational problem assembly and cost evaluation.

Bundles S(x) = integral over [t0, t1] of L(t, x(t), x(t-h), xdot(t), xdot(t-h)) dt
with boundary data x = phi on [t0-h, t0], x(t1) = x1, under the convention
that L and all its partials are identically zero for t > t1.  The convention
is implemented by gating on t at evaluation time, never by editing the AST,
so the partials stay mutually consistent beyond t1.

This module alone knows the argument layout.  An argument set is a
sequence of the rows (t, x1..xn, y1..yn, dx1..dxn, dy1..dyn), the
admitted-variable order of the Lagrangian, where y = x(t-h) and
dy = xdot(t-h).  The rows broadcast to one batch shape, one evaluation per
cell; a 2-D array (rows, T) is one such set.  `along` builds the set of an
array of times, `rates` its time derivative, and `shift_slopes` adds a
stack of slope perturbations to a set: the base rows stay (T, 1) views and
only the perturbed block is (T, m), so a (1+4n, T, m) array is never
built.  Callers that sweep a time grid against a slope stack split the
grid into blocks to bound the cells of one call (conditions.ExcessPoint).
`eval_L` and `partials_vec` run the compiled Lagrangian, or each compiled
partial, once over the whole batch; `time_rate` contracts higher partials
with a rate set to give exact time derivatives by the chain rule.  Values
at t > t1 are exactly 0; `live_times` is that rule, which lets a caller
skip the rows it would zero.  Any other non-finite value is a domain error:
the tree walk reruns at the first bad cell of the broadcast rows, so the
EvalDomainError names the offending subexpression.

`integrate_nodes`, the one quadrature along a trajectory, calls an
integrand once at the Gauss nodes of a batch of intervals, each with its
own breaks and optional additive perturbation (bump) of the trajectory;
`integrate_L` integrates L(args + bumps), and `eval_S` is L on [t0, t1].
"""

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .exprs import (BLOCKS, EvalDomainError, ExprAst, LagrangianExpr,
                    eval_expr)
from .trajectory import BREAK_TOL, HistorySpec, Trajectory
from . import quadrature


class ProblemError(ValueError):
    """field, where a DelayProblem rule is broken, is the path of the value
    it rejects: "h", "lagrangian", "hist.phi" or "hist.x1"."""

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class DelayProblem:
    t0: float
    t1: float
    h: float
    dim: int
    lagrangian: LagrangianExpr
    hist: HistorySpec

    def __post_init__(self):
        if self.h <= 0:
            raise ProblemError(f"delay h must be positive, got {self.h}", "h")
        if not self.t1 - self.t0 > self.h:
            raise ProblemError(
                f"t1 - t0 must exceed h, got t1-t0={self.t1 - self.t0}, "
                f"h={self.h}", "h")
        if self.lagrangian.dim != self.dim:
            raise ProblemError(
                f"Lagrangian dimension {self.lagrangian.dim} != problem dim "
                f"{self.dim}", "lagrangian")
        if self.hist.phi.dim != self.dim:
            raise ProblemError(
                f"history dimension {self.hist.phi.dim} != problem dim "
                f"{self.dim}", "hist.phi")
        if self.hist.x1.size != self.dim:
            raise ProblemError(
                f"terminal dimension {self.hist.x1.size} != problem dim "
                f"{self.dim}", "hist.x1")
        if abs(self.hist.phi.a - (self.t0 - self.h)) > BREAK_TOL or \
                abs(self.hist.phi.b - self.t0) > BREAK_TOL:
            raise ProblemError(
                f"history domain [{self.hist.phi.a}, {self.hist.phi.b}] must be "
                f"[t0-h, t0] = [{self.t0 - self.h}, {self.t0}]", "hist.phi")


class CandidateExtremal:
    """Admissible candidate: full trajectory on [t0-h, t1] honoring the boundary data."""

    __slots__ = ("problem", "traj")

    def __init__(self, problem: DelayProblem, traj: Trajectory):
        if abs(traj.a - (problem.t0 - problem.h)) > BREAK_TOL or \
                abs(traj.b - problem.t1) > BREAK_TOL:
            raise ProblemError(
                f"candidate domain [{traj.a}, {traj.b}] must be "
                f"[{problem.t0 - problem.h}, {problem.t1}]")
        scale = 1.0 + float(np.max(np.abs(problem.hist.x1)))
        ts = np.linspace(problem.t0 - problem.h, problem.t0, 17)
        gaps = np.abs(traj.value(ts) - problem.hist.phi.value(ts)).max(0)
        off = np.flatnonzero(gaps > 1e-9 * scale)
        if off.size:
            raise ProblemError(f"candidate differs from history at "
                               f"t={ts[off[0]]} (gap {gaps[off[0]]:g})")
        x_t1 = traj.value(problem.t1)
        gap1 = float(np.max(np.abs(x_t1 - problem.hist.x1)))
        if gap1 > 1e-9 * scale:
            raise ProblemError(
                f"candidate misses terminal point: x(t1)={x_t1.tolist()} "
                f"vs x1={problem.hist.x1.tolist()} (gap {gap1:g})")
        self.problem = problem
        self.traj = traj


# ---------------------------------------------------------------------------
# the evaluator

def _rows(p: DelayProblem, block: str) -> slice:
    """Rows of one argument block in the layout."""
    if block not in BLOCKS:
        raise ProblemError(f"unknown partial block {block!r}")
    k = BLOCKS.index(block)
    return slice(1 + k * p.dim, 1 + (k + 1) * p.dim)


def _batch_shape(*row_sets) -> Tuple[int, ...]:
    """The shape all rows of the given argument sets broadcast to, from the
    set of their distinct shapes."""
    return np.broadcast_shapes(*{np.shape(r) for rows in row_sets
                                 for r in rows})


def live_times(p: DelayProblem, t) -> np.ndarray:
    """Where L and all its partials are evaluated: the extended-zero
    convention makes them exactly 0 at t > t1.  The one copy of the rule;
    callers use it to skip rows that would read 0."""
    # written as a negation so that a NaN time stays live, as it reaches
    # the kernel and fails there
    return ~(np.asarray(t) > p.t1)


def _evaluate(p: DelayProblem, expr: ExprAst, args) -> np.ndarray:
    """expr at an argument set (rows broadcasting to one batch shape),
    gated to exactly 0 where t > t1.  Returns a new array of the batch
    shape: a kernel value that is an argument row itself (L = dx1) or
    smaller than the batch is copied out, and the gate is applied only
    when some cell is dead."""
    shape = _batch_shape(args)
    with np.errstate(all="ignore"):
        vals = expr.compiled()(*args)
        if np.shape(vals) != shape or any(vals is a for a in args):
            vals = np.array(np.broadcast_to(vals, shape), dtype=float)
        live = live_times(p, args[0])
        if not live.all():
            vals = np.where(live, vals, 0.0)
    if not np.isfinite(vals).all():
        bad = int(np.argmax(~np.isfinite(vals.ravel())))
        cell = [float(np.broadcast_to(r, shape).flat[bad]) for r in args]
        eval_expr(expr, dict(zip(expr.variables, cell)))
        raise EvalDomainError("non-finite value", str(expr))
    return vals


def eval_L(p: DelayProblem, args) -> np.ndarray:
    """The Lagrangian at an argument set."""
    return _evaluate(p, p.lagrangian.body, args)


def time_rate(p: DelayProblem, names: Tuple[str, ...], args,
              rate) -> np.ndarray:
    """d/dt of the partial of L in names (L itself for no names) along a
    path through args whose time derivative is rate (an argument set of
    the same layout), by the chain rule: the sum over arguments v of
    d_v(partial) * rate_v.  An argument contributes exactly 0 where its
    rate is 0, and everywhere if the partial does not depend on it; its
    partial is then not evaluated, so neither a partial that is singular
    in a frozen argument nor an unbounded rate of an absent one can spoil
    the sum.  The one-partial case of _time_rates, which decides which
    arguments move once per rate set."""
    return _time_rates(p, [names], args, rate)[0]


def _time_rates(p: DelayProblem, partials: Sequence[Tuple[str, ...]], args,
                rate) -> np.ndarray:
    """time_rate of each partial (a tuple of names), stacked on a new
    leading axis.  Liveness is decided once per rate set, before anything
    is broadcast: a rate row that is 0 everywhere is dropped, and the
    live rows, their nonzero cells and the argument cells are built once
    and shared by every partial.  A partial folded to 0 is skipped."""
    shape = _batch_shape(args, rate)
    out = np.zeros((len(partials),) + shape)
    movers = [(v, row) for v, row in zip(p.lagrangian.variables, rate)
              if np.any(row)]
    cells, moving = None, {}
    for k, names in enumerate(partials):
        for v, row in movers:
            d_v = p.lagrangian.partial(*names, v)
            if d_v.is_zero:
                continue
            if v not in moving:
                if cells is None:
                    cells = [np.broadcast_to(a, shape) for a in args]
                row = np.broadcast_to(row, shape)
                nz = row != 0.0
                moving[v] = (nz, row[nz], [c[nz] for c in cells])
            nz, v_rate, at = moving[v]
            out[k][nz] += v_rate * _evaluate(p, d_v, at)
    return out


def partials_vec(p: DelayProblem, block: str, args,
                 rate=None) -> np.ndarray:
    """Gradient block (one of x|y|dx|dy) at an argument set, with the n
    partials on a new leading axis: shape (n,) + batch shape.  Given the
    path's rate set, the time derivative of the block along it instead."""
    names = p.lagrangian.variables[_rows(p, block)]
    if rate is None:
        return np.array([_evaluate(p, p.lagrangian.partial(v), args)
                         for v in names])
    return _time_rates(p, [(v,) for v in names], args, rate)


def shift_slopes(p: DelayProblem, args: np.ndarray, block: str,
                 xis: np.ndarray) -> List[np.ndarray]:
    """The argument set of args (rows, T) with each row of the slope stack
    xis (m, n) added to the dx or dy block: the rows of that block are
    (T, m), every other row a (T, 1) view of args."""
    moved = _rows(p, block)
    rows = [a[:, None] for a in args]
    rows[moved] = [a[:, None] + xi for a, xi in zip(args[moved], xis.T)]
    return rows


def _slots(p: DelayProblem, traj: Trajectory, ts: np.ndarray, sides):
    """The times t (clamped to t1) and t-h that the x and y slots read at
    ts, each with one side per time (sides: one side, or one per time): at
    a domain end of traj, the side facing its interior."""
    te = np.minimum(ts, p.t1)
    sides = [sides] * ts.size if isinstance(sides, str) else sides
    return [(tt, ["left" if u >= traj.b - BREAK_TOL else
                  "right" if u <= traj.a + BREAK_TOL else s
                  for u, s in zip(tt.tolist(), sides)])
            for tt in (te, te - p.h)]


def along(p: DelayProblem, cand: CandidateExtremal, ts, sides) -> np.ndarray:
    """Argument set (t, x(t), x(t-h), xdot(t), xdot(t-h)) along the
    candidate at each time of ts, shape (1+4n, len(ts)), with one-sided
    derivatives from each time's side (sides: one side, or one per time).

    Valid for t in [t0, t1+h].  For t > t1 the trajectory lookups clamp to
    t1: the values are irrelevant there because every Lagrangian term is
    gated to zero by the extended-zero convention; clamping just keeps the
    set finite and deterministic.  A non-finite value or slope of the
    candidate is a ProblemError naming the earliest trajectory time where
    it occurs, before any Lagrangian evaluation could blame L for it.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    # written as a negation so that a NaN time counts as outside
    outside = ~((ts >= p.t0 - BREAK_TOL) & (ts <= p.t1 + p.h + BREAK_TOL))
    if outside.any():
        raise ProblemError(
            f"t={float(ts[outside][0])} outside [{p.t0}, {p.t1 + p.h}] "
            f"for along()")
    traj = cand.traj
    (te, s_e), (td, s_d) = _slots(p, traj, ts, sides)
    args = np.vstack((ts[None], traj.value(te), traj.value(td),
                      traj.deriv(te, s_e), traj.deriv(td, s_d)))
    # finite per block (x, y, dx, dy) and time
    x, y, dx, dy = np.isfinite(args[1:]).reshape(4, p.dim, -1).all(1)
    bad = np.concatenate((te[~(x & dx)], td[~(y & dy)]))
    if bad.size:
        raise ProblemError(f"candidate has a non-finite value or slope at "
                           f"t={float(bad.min())}")
    return args


def rates(p: DelayProblem, cand: CandidateExtremal, args: np.ndarray,
          sides) -> np.ndarray:
    """The exact time derivative (1, xdot(t), xdot(t-h), xddot(t),
    xddot(t-h)) of the argument set args = along(p, cand, ts, sides): the
    slope rows of args as they are, and second derivatives from the same
    sides."""
    second = [cand.traj.second_deriv(tt, s)
              for tt, s in _slots(p, cand.traj, args[0], sides)]
    return np.vstack([np.ones((1, args.shape[1])), args[1 + 2 * p.dim:]]
                     + second)


# ---------------------------------------------------------------------------
# cost functional

class Interval(NamedTuple):
    """L over [lo, hi], clipped to [t0, t1], on panels split also at
    breaks.  bump, if any, maps a width per time (the interval's eps at its
    nodes), times and a right-mask (True where a time is read from the
    right, False from the left) to an additive (q, q_dot) of the
    trajectory, each (n, len(times)), zero off its support; intervals that
    share a bump differ only in eps."""

    lo: float
    hi: float
    breaks: Tuple[float, ...] = ()
    bump: Optional[Callable] = None
    eps: float = 0.0


def integrate_nodes(p: DelayProblem, traj: Trajectory,
                    intervals: Sequence[Interval], integrand: Callable,
                    order: Optional[int] = None) -> List[float]:
    """Integral of integrand(args, bumps) over each interval, from one
    call at the nodes of all of them.

    The node plan: panels split at the interval's breaks, traj's
    breakpoints and their +h shifts, with Gauss nodes.  args is the
    argument set along traj at every node: a panel reads x, xdot from the
    segment around its midpoint and y, ydot from the one around the
    midpoint - h.  bumps holds each node's interval bump in the same
    layout: (q, q_dot) at t on the x, dx rows and at t - h on the y, dy
    rows, from the side facing the panel's interior.  Off a bump it is
    -0.0, so that args + bumps is args there bit for bit (x + -0.0 is x
    for every x) and a rate of time_rate drops it.  integrand returns one
    value per node; it is not called when no interval has a panel.  An
    integral is the fsum of its panels' Gauss sums.

    Each bump is called once, on the nodes of its intervals (a boolean
    mask per interval, read at each node's owner) at t and at t - h, with
    each node's side as a boolean right-mask, and its values are
    scattered into the rows by broadcast integer indices: nothing here
    reaches for numpy's set or index-trick routines, which a cold command
    would pay for on first use."""
    own = [b for bp in traj.breakpoints for b in (bp, bp + p.h)]
    panels = []
    for k, iv in enumerate(intervals):
        lo = max(iv.lo, p.t0)
        panels += [(k, a, b) for a, b in quadrature.panel_plan(
            lo, max(min(iv.hi, p.t1), lo), list(iv.breaks) + own)]
    sums = [[] for _ in intervals]
    if panels:
        owner, p0, p1 = (np.array(c) for c in zip(*panels))
        grid, weights = quadrature.panel_nodes(p0, p1, order)
        mids = 0.5 * (p0 + p1)
        t, td, m = grid.ravel(), grid.ravel() - p.h, grid.shape[1]
        seg_x, seg_y = (np.repeat([traj.segment_index(c, "right")
                                   for c in cs.tolist()], m)
                        for cs in (mids, mids - p.h))
        args = np.vstack((t, traj.on_segments("value", t, seg_x),
                          traj.on_segments("value", td, seg_y),
                          traj.on_segments("deriv", t, seg_x),
                          traj.on_segments("deriv", td, seg_y)))
        bumps = np.full(args.shape, -0.0)
        x, dx = _rows(p, "x"), _rows(p, "dx")
        x_rows = np.array([*range(x.start, x.stop), *range(dx.start, dx.stop)])
        right = t < np.repeat(mids, m)
        at_node = np.repeat(owner, m)
        eps = np.array([iv.eps for iv in intervals])[at_node]
        users = {}
        for k, iv in enumerate(intervals):
            if iv.bump is not None:
                users.setdefault(iv.bump, []).append(k)
        for bump, ks in users.items():
            # one call per bump, at t and at t - h of every node it moves
            mine = np.zeros(len(intervals), dtype=bool)
            mine[ks] = True
            at = np.flatnonzero(mine[at_node])
            q = np.vstack(bump(np.concatenate((eps[at], eps[at])),
                               np.concatenate((t[at], td[at])),
                               np.concatenate((right[at], right[at]))))
            for part, rows in ((q[:, :at.size], x_rows),
                               (q[:, at.size:], x_rows + p.dim)):
                live = part.any(0)
                bumps[rows[:, None], at[live]] = part[:, live]
        vals = np.reshape(integrand(args, bumps), grid.shape)
        for k, ws, v in zip(owner.tolist(), weights, vals):
            sums[k].append(float(np.dot(ws, v)))
    return [math.fsum(s) for s in sums]


def integrate_L(p: DelayProblem, traj: Trajectory,
                intervals: Sequence[Interval],
                order: Optional[int] = None) -> List[float]:
    """Integral of L along traj, plus each interval's bump, over each
    interval: integrate_nodes of L(args + bumps)."""
    return integrate_nodes(p, traj, intervals,
                           lambda args, bumps: eval_L(p, args + bumps), order)


def eval_S(p: DelayProblem, traj: Trajectory, order: Optional[int] = None) -> float:
    """Cost functional S(x) by breakpoint-aware Gauss-Legendre quadrature."""
    if traj.a > p.t0 - p.h + BREAK_TOL or traj.b < p.t1 - BREAK_TOL:
        raise ProblemError(
            f"trajectory domain [{traj.a}, {traj.b}] does not cover "
            f"[{p.t0 - p.h}, {p.t1}]")
    return integrate_L(p, traj, [Interval(p.t0, p.t1)], order)[0]
