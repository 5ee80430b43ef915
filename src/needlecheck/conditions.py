"""First- and second-order condition functionals along a candidate.

Everything here is built from evaluations of the Lagrangian and its
symbolic partials along the candidate, one batched call per block of grid
times and slot over a stack of slopes, in the paired form characteristic of
the delayed problem: each quantity at t combines the direct term at t with
the delay-shifted term at t+h, and the shifted term vanishes for t+h > t1
by the extended-zero convention, which collapses the two regimes
(t <= t1-h paired, t > t1-h single-term) into one code path.

ExcessPoint is the one way to evaluate the excess machinery: the scan grid
(whose rows the Euler residual, degeneracy detection and the interval
checks read too) and a single point (one row per side) are both grids of
times, and every stack of slopes (scaled directions, their paired slopes)
is evaluated at once.  It gives the slot excesses, their sum, the M
functionals, the exact time rate of the excess sum and the second-order
bracket lam*(M sum) + d/dt(Q_2 sum); q_k is the one Q_k rule, lam^k *
E(xi) + (1-lam^k) * E(pair).

AnalysisSettings holds what every stage reads (the scan grid, slope
samples, lambdas, scale ladder, tolerances, eps sweep) and every range
rule; its resolved() is the one tolerance rule.

euler_residual is the exact time rate of the momentum Ldx(t)+Ldy(t+h)
minus the force Lx(t)+Ly(t+h), from the two slots' argument sets and
their rate sets (_residual).

The slope-slot perturbation notation: a value "at (t, xi)" evaluates the
functional with xdot(t) replaced by xdot(t)+xi (xdot slot) or with
xdot(t-h) replaced by xdot(t-h)+xi (ydot slot, evaluated at nu = t+h).
"""
import functools
import math
from dataclasses import dataclass, replace
from statistics import NormalDist
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .needle import paired_slope
from .problem import (CandidateExtremal, DelayProblem, along, eval_L,
                      live_times, partials_vec, rates, shift_slopes,
                      time_rate)
from .trajectory import BREAK_TOL


class ConditionsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Weierstrass excess and the Q_k / M functionals

# slot -> (slope block it perturbs, state block of its M functional)
SLOTS = {"x": ("dx", "x"), "y": ("dy", "y")}


def q_k(k: int, lam, at_xi, at_pair):
    """Q_k = lam^k * (value at xi) + (1 - lam^k) * (value at the paired
    slope), of excesses or of their rates, elementwise."""
    return lam ** k * at_xi + (1.0 - lam ** k) * at_pair


def _dot(g: np.ndarray, xis: np.ndarray) -> np.ndarray:
    """g^T xi for each slope of the stack xis (m, n), with the n components
    of g on its leading axis: g[i] broadcasts against the slopes, e.g. one
    value per time (T, 1) or per time and slope (T, m).  Summed elementwise
    in component order, so a value depends neither on the stack or block
    it came in nor on the BLAS kernel that a matrix product would pick."""
    out = np.zeros(np.broadcast_shapes(g.shape[1:], xis.shape[:1]))
    for i in range(xis.shape[1]):
        out = out + g[i] * xis[:, i]
    return out


# Cells (times x slopes) per kernel call of a grid.  A block's perturbed
# rows and the kernel's temporaries are a few arrays of this many float64
# (128 kB each), so they stay in cache and peak memory stays flat; one
# unblocked dim-5 scan grid (200 x 640 cells) ran barely faster and added
# about 20% to the process's peak RSS.
_BLOCK_CELLS = 2 ** 14


class ExcessPoint:
    """The excess machinery over an array of times ts, each with its side
    (sides: one side, or one per time; kept as a list with one per time);
    a point is a grid of one row, or of two, ExcessPoint(p, cand, [theta,
    theta], ["right", "left"]).  Caches per slot the argument set, and on
    first use L and its slope gradient (base), shared by every slope, and
    the rate sets (rate_sets).  Slot "x" perturbs
    xdot(t) at t; slot "y" perturbs xdot(t-h) at nu = t+h.  Every method
    takes a stack of slopes (m, n), or one slope (n,), and returns shape
    (len(ts), m): one row per time, one value per slope.  The kernel runs
    only on a slot's live rows (problem.live_times of its argument times):
    a y-slot row with nu > t1 is exactly +0.0 in excess, m and e_sum_rate,
    as the gate would make it.  The live rows are swept in blocks of at
    most _BLOCK_CELLS cells per kernel call."""

    __slots__ = ("p", "cand", "ts", "sides", "args", "live", "_base",
                 "_rates")

    def __init__(self, p: DelayProblem, cand: CandidateExtremal, ts, sides):
        self.ts = np.atleast_1d(np.asarray(ts, dtype=float))
        self.p, self.cand = p, cand
        self.sides = ([sides] * len(self.ts) if isinstance(sides, str)
                      else list(sides))
        self.args = {"x": along(p, cand, self.ts, sides),
                     "y": along(p, cand, self.ts + p.h, sides)}
        self.live = {s: np.flatnonzero(live_times(p, a[0]))
                     for s, a in self.args.items()}
        self._base, self._rates = {}, None

    def rows(self, index) -> "ExcessPoint":
        """The rows index (an integer array) of this grid as a grid of its
        own, with their argument sets and whatever L and slope gradients
        are built: nothing is evaluated again."""
        out = object.__new__(ExcessPoint)
        out.p, out.cand, out.ts, out._rates = (self.p, self.cand,
                                               self.ts[index], None)
        out.sides = [self.sides[i] for i in index.tolist()]
        out.args = {s: a[:, index] for s, a in self.args.items()}
        out._base = {s: (L[index], grad[:, index])
                     for s, (L, grad) in self._base.items()}
        out.live = {s: np.flatnonzero(live_times(self.p, a[0]))
                    for s, a in out.args.items()}
        return out

    def base(self, slot: str) -> Tuple[np.ndarray, np.ndarray]:
        """L and its slope gradient at every row of slot, shapes (T,) and
        (n, T), built on first use and kept: a caller that reads only the
        argument and rate sets (the Euler residual) never evaluates them.
        They are evaluated on the live rows only; a dead row reads +0.0,
        as the gate would make it."""
        if slot not in self._base:
            live = self.live[slot]
            L = np.zeros(len(self.ts))
            grad = np.zeros((self.p.dim, len(self.ts)))
            if live.size:
                a = self.args[slot][:, live]
                L[live] = eval_L(self.p, a)
                grad[:, live] = partials_vec(self.p, SLOTS[slot][0], a)
            self._base[slot] = (L, grad)
        return self._base[slot]

    def rate_sets(self) -> dict:
        """The exact time derivative of each slot's argument set
        (_rate_sets), built on first use and kept."""
        if self._rates is None:
            self._rates = _rate_sets(self.p, self.cand, self.args, self.sides)
        return self._rates

    def _blocks(self, slot: str, width: int) -> List[np.ndarray]:
        """Indices of the live times of slot, in blocks of at most
        _BLOCK_CELLS / width."""
        live = self.live[slot]
        step = max(1, _BLOCK_CELLS // max(1, width))
        return [live[i:i + step] for i in range(0, len(live), step)]

    def _slopes(self, xis) -> np.ndarray:
        """xis as a stack (m, n) of slopes in the problem's dimension n."""
        xis = np.atleast_2d(np.asarray(xis, dtype=float))
        if xis.ndim != 2 or xis.shape[1] != self.p.dim:
            raise ConditionsError(f"slope stack of shape {xis.shape}, "
                                  f"expected (m, {self.p.dim})")
        return xis

    def _shifted(self, slot: str, b: np.ndarray, xis: np.ndarray) -> list:
        return shift_slopes(self.p, self.args[slot][:, b], SLOTS[slot][0],
                            xis)

    def excess(self, slot: str, xis) -> np.ndarray:
        """L(..., slope+xi, ...) - L - Lslope^T xi in one slot; 0 beyond t1."""
        xis = self._slopes(xis)
        out = np.zeros((len(self.ts), len(xis)))
        blocks = self._blocks(slot, len(xis))
        if blocks:
            L, grad = self.base(slot)
        for b in blocks:
            L_pert = eval_L(self.p, self._shifted(slot, b, xis))
            out[b] = L_pert - L[b, None] - _dot(grad[:, b, None], xis)
        return out

    def e_sum(self, xis) -> np.ndarray:
        return self.excess("x", xis) + self.excess("y", xis)

    def m(self, slot: str, lam: float, xis) -> np.ndarray:
        """lam*[Lz(xi)-Lz]^T xi + (1-lam)*[Lz(pair)-Lz]^T xi, with z the
        slot's state block (x at t, y at nu) and its slope perturbed."""
        xis = self._slopes(xis)
        state = SLOTS[slot][1]
        both = np.concatenate((xis, paired_slope(lam, xis)))
        out = np.zeros((len(self.ts), len(xis)))
        for b in self._blocks(slot, len(both)):
            base = partials_vec(self.p, state, self.args[slot][:, b])
            moved = partials_vec(self.p, state, self._shifted(slot, b, both))
            diff = moved - base[..., None]
            out[b] = (lam * _dot(diff[..., :len(xis)], xis)
                      + (1.0 - lam) * _dot(diff[..., len(xis):], xis))
        return out

    def m_sum(self, lam: float, xis) -> np.ndarray:
        return self.m("x", lam, xis) + self.m("y", lam, xis)

    def e_sum_rate(self, xis) -> np.ndarray:
        """Exact one-sided d/dt of the excess sum map t -> E_x(t) + E_y(t)
        at each time, from its side.  The slope shift is fixed in t, so the
        shifted arguments move at the base rate and the chain rule runs
        through base and shifted columns alike."""
        xis = self._slopes(xis)
        # column 0 is the unshifted base, the others carry one slope each
        stack = np.vstack((np.zeros(self.p.dim), xis))
        out = np.zeros((len(self.ts), len(xis)))
        for slot, rate in self.rate_sets().items():
            for b in self._blocks(slot, len(stack)):
                args = self._shifted(slot, b, stack)
                r = [v[:, None] for v in rate[:, b]]
                dL = time_rate(self.p, (), args, r)
                dgrad = partials_vec(self.p, SLOTS[slot][0],
                                     [a[:, :1] for a in args], r)
                out[b] += dL[:, 1:] - dL[:, :1] - _dot(dgrad, xis)
        return out

    def second_order(self, lam: float, xis) -> np.ndarray:
        """lam*(M_x + M_y) + d/dt(Q_2 sum) at each time and slope: the
        eps^2 bracket of a needle's increment and the 6.1(i) quantity."""
        xis = self._slopes(xis)
        m = self.m_sum(lam, xis)
        rate = self.e_sum_rate(np.concatenate((xis, paired_slope(lam, xis))))
        return lam * m + q_k(2, lam, rate[:, :len(xis)], rate[:, len(xis):])


# ---------------------------------------------------------------------------
# the Euler residual

def _rate_sets(p: DelayProblem, cand: CandidateExtremal, args: dict,
               sides) -> dict:
    """The rate set (problem.rates) of each slot's argument set."""
    return {s: rates(p, cand, a, sides) for s, a in args.items()}


def _residual(p: DelayProblem, args: dict, rate: dict) -> np.ndarray:
    """The Euler residual d/dt[Ldx(t)+Ldy(t+h)] - [Lx(t)+Ly(t+h)] from the
    argument sets args["x"] (at t) and args["y"] (at t+h) and their rate
    sets, shape (n, len(t))."""
    force = partials_vec(p, "x", args["x"]) + partials_vec(p, "y", args["y"])
    drho = (partials_vec(p, "dx", args["x"], rate["x"])
            + partials_vec(p, "dy", args["y"], rate["y"]))
    return drho - force


def euler_residual(p: DelayProblem, cand: CandidateExtremal, t,
                   side="right") -> np.ndarray:
    """d/dt[Ldx(t)+Ldy(t+h)] - [Lx(t)+Ly(t+h)] at one time t, shape (n,),
    or at each time of an array t, shape (n, len(t)), one batch; side is
    one side or one per time.  The time derivative is exact: the chain rule
    through the symbolic second partials of L and the candidate's exact
    one-sided first and second derivatives.  The extended-zero convention
    supplies the single-term regime on (t1-h, t1] with the same formula."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    args = {"x": along(p, cand, ts, side), "y": along(p, cand, ts + p.h, side)}
    res = _residual(p, args, _rate_sets(p, cand, args, side))
    return res if np.ndim(t) else res[:, 0]


# ---------------------------------------------------------------------------
# direction sampling and the Weierstrass scan

def direction_set(dim: int, seed: int = 0) -> List[np.ndarray]:
    """Deterministic low-discrepancy unit directions: +-1 for dim 1, evenly
    spaced angles for dim 2, a Fibonacci sphere for dim 3, and a Kronecker
    sequence pushed through the normal quantile for higher dimensions.
    Each (dim, seed) is computed once per process, as one read-only
    (m, dim) array; the list of its rows is new on every call."""
    return list(_directions(dim, seed))


@functools.lru_cache(maxsize=32)
def _directions(dim: int, seed: int) -> np.ndarray:
    count = 64 if dim <= 3 else 32 * dim
    if dim == 1:
        out = [np.array([1.0]), np.array([-1.0])]
    elif dim == 2:
        angles = [2.0 * math.pi * k / count for k in range(count)]
        out = [np.array([math.cos(a), math.sin(a)]) for a in angles]
    elif dim == 3:
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        out = []
        for k in range(count):
            z = 1.0 - (2.0 * k + 1.0) / count
            r = math.sqrt(max(0.0, 1.0 - z * z))
            a = 2.0 * math.pi * k / golden
            out.append(np.array([r * math.cos(a), r * math.sin(a), z]))
    else:
        nd = NormalDist()
        primes: List[int] = []   # the first dim primes, by trial division
        q = 1
        while len(primes) < dim:
            q += 1
            if all(q % r for r in primes):
                primes.append(q)
        alphas = [math.sqrt(q) % 1.0 for q in primes]
        out = []
        for k in range(count):
            u = [((k + 1 + seed) * a) % 1.0 for a in alphas]
            g = np.array([nd.inv_cdf(min(max(v, 1e-12), 1.0 - 1e-12))
                          for v in u])
            length = math.sqrt(g @ g)
            out.append(g / (length if length > 0 else 1.0))
    out = np.array(out)
    out.flags.writeable = False
    return out


def xi_sample_set(dim: int, radii: Sequence[float],
                  seed: int = 0) -> np.ndarray:
    """The sample slopes of the scan, shape (len(radii) * m, dim): the m
    directions of direction_set scaled by each radius in turn, radius by
    radius.  The radius sweep catches excess functions that are not
    homogeneous in xi."""
    dirs = _directions(dim, seed)
    return (np.asarray(radii, dtype=float)[:, None, None] * dirs).reshape(
        -1, dim)


@dataclass(frozen=True)
class ScanEntry:
    t: float
    side: str
    regime: str  # "paired" for t <= t1-h, "single" beyond
    min_excess: float
    min_excess_unit: float
    violation: bool
    degenerate_directions: Tuple[Tuple[float, ...], ...]


@dataclass(frozen=True)
class DegenerateSlope:
    """A sample slope with |E_sum| <= tol_deg at some scan row: at how many
    rows (cells), and the times of the first and the last."""

    slope: Tuple[float, ...]
    cells: int
    t_first: float
    t_last: float


@dataclass(frozen=True)
class ScanSummary:
    """What a verdict reports of the scan: the smallest excess sum and
    where it is (time, side, sample slope), the entry of every violating
    row, every slope that is degenerate somewhere, and the tolerances."""

    overall_min: float
    min_t: float
    min_side: str
    min_xi: Tuple[float, ...]
    has_violation: bool
    violations: Tuple[ScanEntry, ...]
    degenerate_slopes: Tuple[DegenerateSlope, ...]
    tol_w: float
    tol_deg: float


class WeierstrassScanReport:
    """The excess sum at every scan row (time, side) and sample slope,
    reduced to arrays: overall_min and has_violation are read off them.
    pt is the scan grid and unit its excess sums at the unit directions
    (direction_set), which degeneracy detection reads.  The values at the
    whole sample stack are never kept: weierstrass_scan reduces each
    radius block as it is made, to the row minima (mins) with their first
    columns and the boolean mask of degenerate cells (degenerate, one
    column per slope of stack).  entries, one ScanEntry per row, is built
    on first use; table() is the weierstrass command's report of them, and
    summary() the verdict's, which builds the entries of the violating
    rows only."""

    __slots__ = ("pt", "unit", "ts", "sides", "regimes", "stack", "mins",
                 "unit_mins", "violating", "degenerate", "tol_w", "tol_deg",
                 "overall_min", "has_violation", "_argmin", "_entries")

    def __init__(self, pt: ExcessPoint, unit: np.ndarray, stack: np.ndarray,
                 mins: np.ndarray, cols: np.ndarray, degenerate: np.ndarray,
                 tol_w: float, tol_deg: float):
        """mins holds the smallest excess sum of each row of pt over the
        slopes of stack and cols its first column; degenerate, shape
        (len(pt.ts), len(stack)), marks the cells with |E_sum| <= tol_deg;
        unit holds the values at the unit directions, one column per
        direction."""
        p = pt.p
        self.pt, self.unit, self.stack = pt, unit, stack
        self.ts, self.sides = pt.ts.tolist(), list(pt.sides)
        self.regimes = ["paired" if t <= p.t1 - p.h + BREAK_TOL else "single"
                        for t in self.ts]
        self.tol_w, self.tol_deg = tol_w, tol_deg
        self.mins, self.degenerate = mins, degenerate
        self.unit_mins = _first_min(unit)[0]
        self.violating = self.mins < -tol_w
        k = int(np.argmin(self.mins))
        self._argmin = (k, int(cols[k]))
        self.overall_min = float(self.mins[k])
        self.has_violation = bool(self.violating.any())
        self._entries = None

    def _entries_of(self, rows: np.ndarray) -> Tuple[ScanEntry, ...]:
        """The entries of the given rows, in order."""
        slopes = [tuple(x) for x in self.stack.tolist()]
        at, cols = (a.tolist() for a in np.nonzero(self.degenerate[rows]))
        ends = np.searchsorted(at, np.arange(len(rows) + 1)).tolist()
        mins, unit_mins, violating = (a[rows].tolist() for a in (
            self.mins, self.unit_mins, self.violating))
        return tuple(ScanEntry(
            t=self.ts[k], side=self.sides[k], regime=self.regimes[k],
            min_excess=mins[i], min_excess_unit=unit_mins[i],
            violation=violating[i],
            degenerate_directions=tuple(slopes[j]
                                        for j in cols[ends[i]:ends[i + 1]]))
            for i, k in enumerate(rows.tolist()))

    @property
    def entries(self) -> Tuple[ScanEntry, ...]:
        if self._entries is None:
            self._entries = self._entries_of(np.arange(len(self.ts)))
        return self._entries

    def table(self) -> dict:
        """The full scan report: every entry, with the overall minimum,
        whether some row violates, and the tolerances."""
        return {"entries": self.entries, "has_violation": self.has_violation,
                "overall_min": self.overall_min, "tol_deg": self.tol_deg,
                "tol_w": self.tol_w}

    def summary(self) -> ScanSummary:
        row, col = self._argmin
        cells = self.degenerate.sum(axis=0)
        first = np.argmax(self.degenerate, axis=0)
        last = len(self.ts) - 1 - np.argmax(self.degenerate[::-1], axis=0)
        return ScanSummary(
            overall_min=self.overall_min, min_t=self.ts[row],
            min_side=self.sides[row], min_xi=tuple(self.stack[col].tolist()),
            has_violation=self.has_violation,
            violations=self._entries_of(np.flatnonzero(self.violating)),
            degenerate_slopes=tuple(
                DegenerateSlope(tuple(self.stack[j].tolist()), int(cells[j]),
                                self.ts[first[j]], self.ts[last[j]])
                for j in np.flatnonzero(cells).tolist()),
            tol_w=self.tol_w, tol_deg=self.tol_deg)


def _first_min(a: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The minimum of each row of a and its column: the first one, as
    Python's min() picks between 0.0 and -0.0."""
    cols = np.argmin(a, axis=1)
    return a[np.arange(len(a)), cols], cols


def lagrangian_scale(p: DelayProblem, cand: CandidateExtremal) -> float:
    """Coarse |L| scale along the candidate, used to scale tolerances."""
    ts = np.linspace(p.t0, p.t1, 16)
    # L on the candidate and with every slope raised by 1
    xis = np.outer([0.0, 1.0], np.ones(p.dim))
    args = along(p, cand, ts, ["right" if t < p.t1 else "left" for t in ts])
    return float(np.abs(eval_L(p, shift_slopes(p, args, "dx", xis)))
                 .max(initial=0.0))


class SettingsError(ConditionsError):
    """A setting outside its range; key names the field (its config key),
    rule the range it breaks."""

    def __init__(self, key: str, rule: str):
        super().__init__(f"key '{key}': {rule}")
        self.key, self.rule = key, rule


# the tolerances that scale as floor * (1 + |L| scale), with their floors
_TOL_FLOORS = {"tol_w": 1e-9, "tol_deg": 1e-9, "tol_euler": 1e-8}


@dataclass(frozen=True)
class AnalysisSettings:
    """The grid, samples, scale ladder, tolerances and sweep of every
    stage: the [analysis] table of a config, with its defaults.  scan_grid
    sizes the one grid of times (_excess_grid) that the Euler residual,
    the scan, degeneracy detection and the interval checks read.  Each
    stage builds what it needs from these, and every range rule is checked
    here, for config files and library callers alike."""

    scan_grid: int = 200
    radii: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0)
    lambdas: Tuple[float, ...] = (0.5, 0.25, 0.75)
    scales: Tuple[float, ...] = (1.0, 0.5, 0.25, 0.125)
    tol_w: Optional[float] = None
    tol_deg: Optional[float] = None
    tol_eq: Optional[float] = None
    tol_euler: Optional[float] = None
    sweep_levels: int = 8
    sweep_ratio: float = 0.5
    quad_order: Optional[int] = None
    seed: int = 0

    def __post_init__(self):
        if self.scan_grid < 1:
            raise SettingsError("scan_grid", "grid size must be >= 1")
        for key in ("tol_w", "tol_deg", "tol_eq", "tol_euler"):
            v = getattr(self, key)
            if v is not None and not v > 0:  # NaN too
                raise SettingsError(key, "tolerance must be positive")
        if self.sweep_levels < 4:
            raise SettingsError("sweep_levels", "must be >= 4")
        if not 0.0 < self.sweep_ratio < 1.0:
            raise SettingsError("sweep_ratio", "must be inside (0, 1)")
        if self.quad_order is not None and self.quad_order < 1:
            raise SettingsError("quad_order", "must be >= 1")
        for key, ok, rule in (
                ("radii", lambda r: r > 0, "must all be positive"),
                ("lambdas", lambda l: 0.0 < l < 1.0,
                 "must all be inside (0, 1)"),
                ("scales", lambda s: s > 0, "must all be positive")):
            if not getattr(self, key):
                raise SettingsError(key, "must be nonempty")
            if not all(map(ok, getattr(self, key))):
                raise SettingsError(key, rule)

    def resolved(self, p: DelayProblem,
                 cand: CandidateExtremal) -> "AnalysisSettings":
        """The one tolerance rule: these settings with every unset
        |L|-scaled tolerance set to its floor * (1 + |L| scale along the
        candidate).  The scale is computed once, and only when some of
        those tolerances is unset."""
        unset = [k for k in _TOL_FLOORS if getattr(self, k) is None]
        if not unset:
            return self
        scale = lagrangian_scale(p, cand)
        return replace(self, **{k: _TOL_FLOORS[k] * (1.0 + scale)
                                for k in unset})


def _excess_grid(p: DelayProblem, cand: CandidateExtremal,
                 settings: AnalysisSettings) -> ExcessPoint:
    """The scan grid, the one grid of times of every grid stage: the Euler
    residual, the scan, degeneracy detection and the interval checks.  It
    is scan_grid times on [t0, t1], plus t1-h when no grid time lies within
    BREAK_TOL of it; a time is evaluated from the right, at t1 from the
    left, and from both sides at a candidate breakpoint and at t1-h, where
    the paired regime ends."""
    edge = p.t1 - p.h
    grid = np.linspace(p.t0, p.t1, settings.scan_grid).tolist()
    if all(abs(t - edge) > BREAK_TOL for t in grid):
        grid = sorted(grid + [edge])
    bps = set(cand.traj.breakpoints) | {edge}
    ts, sides = [], []
    for t in grid:
        if abs(t - p.t0) <= BREAK_TOL:
            at = ("right",)
        elif abs(t - p.t1) <= BREAK_TOL:
            at = ("left",)
        else:
            at = ("right", "left") if any(abs(t - b) <= BREAK_TOL
                                          for b in bps) else ("right",)
        ts += [t] * len(at)
        sides += at
    return ExcessPoint(p, cand, ts, sides)


def weierstrass_scan(p: DelayProblem, cand: CandidateExtremal,
                     settings: AnalysisSettings = AnalysisSettings(),
                     grid: Optional[ExcessPoint] = None
                     ) -> WeierstrassScanReport:
    """The paired excess sum over the sample set (xi_sample_set: the
    directions crossed with the radii) at every row of the scan grid
    (grid, else _excess_grid); flags violations below -tol_w and records
    slopes with |E_sum| <= tol_deg.

    The unit directions are evaluated once, and each radius block is built
    from them where it can be: the radius-1 block is that evaluation
    itself; when L is a polynomial of degree at most 2 in the slopes of
    each slot (LagrangianExpr.degree of dx and of dy), E_sum(t, r*xi) =
    r^2 * E_sum(t, xi) exactly, so a block is r*r times it.  Any other
    block, and a scaled block with a non-finite cell (so that a domain
    error names its subexpression), is evaluated directly.

    One radius block, (rows x directions), is held at a time: each is
    reduced as it is made to its row minima and their first columns, and
    its degenerate cells are written into the report's mask.  A later
    block replaces a row's minimum only where it is strictly smaller (or
    a number replaces a NaN), so a tie keeps the earlier column, as an
    argmin over the whole row of the sample stack does."""
    s = settings.resolved(p, cand)
    pt = _excess_grid(p, cand, s) if grid is None else grid
    dirs = _directions(p.dim, s.seed)
    unit = pt.e_sum(dirs)
    quadratic = max(p.lagrangian.degree("dx"),
                    p.lagrangian.degree("dy")) <= 2
    m = len(dirs)
    mins, cols = np.full(len(pt.ts), np.inf), np.zeros(len(pt.ts), int)
    degenerate = np.empty((len(pt.ts), len(s.radii) * m), dtype=bool)
    for j, r in enumerate(s.radii):
        with np.errstate(over="ignore"):
            block = unit if r == 1.0 else (r * r) * unit if quadratic else None
        if block is None or not np.isfinite(block).all():
            block = pt.e_sum(r * dirs)
        b_mins, b_cols = _first_min(block)
        better = (b_mins < mins) | ((b_mins != b_mins) & (mins == mins))
        mins = np.where(better, b_mins, mins)
        cols = np.where(better, b_cols + j * m, cols)
        degenerate[:, j * m:(j + 1) * m] = np.abs(block) <= s.tol_deg
    stack = xi_sample_set(p.dim, s.radii, s.seed)
    return WeierstrassScanReport(pt, unit, stack, mins, cols, degenerate,
                                 s.tol_w, s.tol_deg)
