"""Degeneracy detection and minimality verdicts.

A candidate that passes the pointwise excess scan can still fail to be a
minimum where the scan degenerates: where the excess sum vanishes both in a
direction eta and in its paired direction (lam/(lam-1))*eta.  At such
points second-order information takes over.  This module locates the
degeneracies and applies the equality and inequality conditions that a
strong or weak local minimum must then satisfy.  Detection and every check
certify a degeneracy alike (_certifies): the paired direction is evaluated
only where eta itself degenerates.

Checks are labeled by the condition identifiers used throughout the report
schema: 5.1 for a degeneracy interval (parts (i) strong / (ii) weak), 6.1
for a single degenerate point (parts (i) one-sided inequality / (ii)
interior equality), and 6.2 for the small-ball weak-minimum versions of
6.1.  A verdict of FAILS_STRONG means the candidate cannot be a strong
local minimum; FAILS_WEAK means it cannot even be a weak one; CONSISTENT
means the tested necessary condition did not reject it.  A full report is
INCONCLUSIVE, short of a failure, when some of its evidence is missing or
contradicts itself: a stage after the excess scan raised, or the needle
cross-check disagrees with the predicted expansion.
"""

import math
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import conditions
from .conditions import (AnalysisSettings, ExcessPoint,
                         WeierstrassScanReport, direction_set, paired_slope)
from .increments import IncrementRecord, verify_expansion
from .needle import (NeedleError, NeedleSpec, check_point_range,
                     window_for)
from .problem import CandidateExtremal, DelayProblem, along, partials_vec
from .trajectory import BREAK_TOL

DEFAULT_TOL_EQ = 1e-7

_RANK = {"CONSISTENT": 0, "INCONCLUSIVE": 1, "FAILS_STRONG": 2,
         "FAILS_WEAK": 3}


class AnalysisError(ValueError):
    pass


def _judged(value: float, tol_eq: Optional[float], sign: int = 0):
    """(value, tol, violated, None) of a quantity that must be = 0 (sign
    0), >= 0 (sign 1) or <= 0 (sign -1) within tol: tol_eq, or 1e-7 scaled
    by |value|."""
    tol = DEFAULT_TOL_EQ * (1.0 + abs(value)) if tol_eq is None else tol_eq
    return value, tol, (-sign * value if sign else abs(value)) > tol, None


# ---------------------------------------------------------------------------
# degeneracy detection

@dataclass(frozen=True, eq=False)
class DegeneracyFinding:
    """A location where the excess sum vanishes along a paired direction.

    kind "interval": every grid point of (t_lo, t_hi) certifies with the
    same (direction, lam); kind "point": an isolated grid point, with side
    recording which one-sided evaluations certify.  direction and lam are
    the representative certified pair; certified_pairs lists every sampled
    (eta, lam) that certifies the same extent.  evidence holds the worst
    |E sum| at eta and at its paired direction over the extent.
    """

    kind: str  # "interval" | "point"
    t_lo: float
    t_hi: float
    side: str  # "both" for intervals; "right" | "left" | "both" for points
    direction: np.ndarray
    lam: float
    evidence: Tuple[float, float]
    tol_deg: float
    certified_pairs: Tuple[Tuple[Tuple[float, ...], float], ...] = ()

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.t_lo + self.t_hi)


def _certifies(pt: ExcessPoint, etas, lams: Sequence[float], tol_deg: float,
               e_eta: Optional[np.ndarray] = None
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degeneracy certification at every time of pt of every eta (rows of
    etas) paired under every lam: (ok, |E(eta)|, |E(pair)|), each of shape
    (times, etas, lams).  e_eta is |E(eta)| at pt when it has been
    evaluated already, else it is evaluated here.  A cell certifies only
    where |E(eta)| <= tol_deg too, so the paired slopes are evaluated only
    for the etas that are degenerate at some time of pt; the others certify
    nowhere, and their |E(pair)| reads inf."""
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    lams = np.asarray(lams, dtype=float)
    pairs = paired_slope(lams[None, :, None], etas[:, None, :]).reshape(
        -1, etas.shape[1])
    if e_eta is None:
        e_eta = np.abs(pt.e_sum(etas))
    paired = np.repeat((e_eta <= tol_deg).any(axis=0), len(lams))
    e_pair = np.full((len(e_eta), len(pairs)), np.inf)
    if paired.any():
        e_pair[:, paired] = np.abs(pt.e_sum(pairs[paired]))
    e1 = np.repeat(e_eta[:, :, None], len(lams), axis=2)
    e2 = e_pair.reshape(len(e_eta), len(etas), len(lams))
    return (e1 <= tol_deg) & (e2 <= tol_deg), e1, e2


def _in_range(p: DelayProblem, theta: float, side: str) -> bool:
    """Whether theta is an admissible point for side (check_point_range)."""
    try:
        check_point_range(p, theta, side)
    except NeedleError:
        return False
    return True


def _right_rows(pt: ExcessPoint, lo: float, hi: float) -> np.ndarray:
    """The indices of the right-side rows of pt with lo - BREAK_TOL <= t <=
    hi + BREAK_TOL."""
    return np.flatnonzero(np.array([s == "right" for s in pt.sides], bool)
                          & (pt.ts >= lo - BREAK_TOL)
                          & (pt.ts <= hi + BREAK_TOL))


def detect_degeneracy(p: DelayProblem, cand: CandidateExtremal,
                      settings: AnalysisSettings = AnalysisSettings(),
                      scan: Optional[WeierstrassScanReport] = None
                      ) -> List[DegeneracyFinding]:
    """Scan the right-side rows of the scan grid on [t0, t1-h] (t1-h is
    one) for paired-direction degeneracies of the excess sum, over the
    seeded unit directions and the lambdas.  The excess sums at the unit
    directions are read from scan, weierstrass_scan(p, cand, settings),
    or without it evaluated on those rows of the scan grid alone, with no
    radius block.

    Contiguous grid runs certified by the same (eta, lam) merge into
    interval findings; distinct certified pairs sharing the exact same run
    merge into one finding carrying all of them.  Isolated single-point
    runs become point findings tagged with the sides that certify.  The
    paired slopes of a direction are evaluated, on those rows only, when
    its excess sum vanishes somewhere on them (_certifies): a direction
    that is nowhere degenerate certifies nowhere, whatever its pairs give.
    """
    s = settings.resolved(p, cand)
    td = s.tol_deg
    pt = conditions._excess_grid(p, cand, s) if scan is None else scan.pt
    rows = _right_rows(pt, p.t0, p.t1 - p.h)
    grid = pt.ts[rows].tolist()
    directions = direction_set(p.dim, s.seed)
    pairs = [(eta, float(lam)) for eta in directions for lam in s.lambdas]
    ok, e1, e2 = (a.reshape(len(grid), len(pairs)) for a in _certifies(
        pt.rows(rows), directions, s.lambdas, td,
        None if scan is None else np.abs(scan.unit[rows])))

    # maximal certified runs of each pair, grouped by their exact grid
    # extent; a run of pair k starts at grid index i where run[k, i] holds
    # and run[k, i - 1] does not, and ends at j where run[k, j + 1] does not
    run = ok.T
    first, last = run.copy(), run.copy()
    first[:, 1:] &= ~run[:, :-1]
    last[:, :-1] &= ~run[:, 1:]
    ks, starts = (a.tolist() for a in np.nonzero(first))
    extents = {}
    for k, i, j in zip(ks, starts, np.nonzero(last)[1].tolist()):
        eta, lam = pairs[k]
        extents.setdefault((i, j), []).append(
            (eta, lam, float(e1[i:j + 1, k].max()),
             float(e2[i:j + 1, k].max())))

    findings = []
    for (i0, i1), certified in sorted(extents.items()):
        eta, lam = certified[0][0], certified[0][1]
        ev = (max(c[2] for c in certified), max(c[3] for c in certified))
        pairs_out = tuple((tuple(float(c) for c in e), l)
                          for e, l, _, _ in certified)
        # an interval is "both"; the grid certified a point from the right,
        # and a grid row equals the one-time point bit for bit: only the
        # left side is open
        both = i1 > i0 or (_in_range(p, grid[i0], "left") and _certifies(
            ExcessPoint(p, cand, grid[i0], "left"), eta, [lam], td)[0].all())
        findings.append(DegeneracyFinding(
            kind="interval" if i1 > i0 else "point", t_lo=grid[i0],
            t_hi=grid[i1], side="both" if both else "right", direction=eta,
            lam=lam, evidence=ev, tol_deg=td, certified_pairs=pairs_out))
    return findings


# ---------------------------------------------------------------------------
# verdicts

@dataclass(frozen=True)
class Verdict:
    """Outcome of one necessary-condition check with its numeric evidence."""

    theorem: str     # "5.1(i)" | "5.1(ii)" | "6.1(i)" | "6.1(ii)" | "6.2(i)" | "6.2(ii)"
    conclusion: str  # "FAILS_STRONG" | "FAILS_WEAK" | "CONSISTENT"
    quantity: str
    value: float
    tolerance: float
    location: Tuple[float, float]
    note: str = ""


@dataclass(frozen=True)
class _Rung:
    """One direction of a scale ladder: whether degeneracy (and any
    smoothness hypothesis) certifies at it, and if so the tested quantity,
    its tolerance and whether it violates the condition."""

    scale: float
    certified: bool
    violated: bool
    value: float
    tol: float


def _ladder(settings: AnalysisSettings) -> List[float]:
    """The scale ladder: distinct scales, largest first."""
    return sorted(set(settings.scales), reverse=True)


def _judge_ladder(theorems: Tuple[str, str], quantities: Tuple[str, str],
                  location: Tuple[float, float], rungs: Sequence[_Rung],
                  tail: str = "") -> Tuple[Verdict, Verdict]:
    """The strong and small-ball verdicts (5.1(i) and (ii), 6.1 and 6.2)
    of a ladder whose first rung is the unscaled direction.

    The strong form fails when that rung violates.  The small-ball form,
    judged on the other rungs, fails (FAILS_WEAK) only when every one of
    them certifies and violates; a rung that does not certify makes it
    CONSISTENT, since the condition no longer applies in that smaller
    ball.  Its evidence is the smallest certified rung, else the unscaled
    direction's.
    """
    unit, *ladder = rungs
    strong = Verdict(
        theorem=theorems[0], quantity=quantities[0],
        conclusion="FAILS_STRONG" if unit.violated else "CONSISTENT",
        value=unit.value, tolerance=unit.tol, location=location, note=tail)
    note = "; ".join(
        [f"scale {r.scale:g}: " + ("violated" if r.violated else "holds"
                                   if r.certified else "not certified")
         for r in ladder] + ([tail] if tail else []))
    certified = [r for r in ladder if r.certified]
    evidence = certified[-1] if certified else unit
    if len(certified) < len(ladder):
        note = f"degeneracy not certified in small ball; {note}"
    conclusion = ("FAILS_WEAK" if all(r.certified and r.violated
                                      for r in ladder) else "CONSISTENT")
    return strong, Verdict(
        theorem=theorems[1], conclusion=conclusion, quantity=quantities[1],
        value=evidence.value, tolerance=evidence.tol, location=location,
        note=note)


def _rungs(pt: ExcessPoint, lam: float, eta: np.ndarray,
           settings: AnalysisSettings, judge) -> List[_Rung]:
    """The rungs of eta and of eta at every ladder scale, paired under lam,
    on the rows (time, side) of pt.  A direction certifies where every row
    certifies it (_certifies: a pair is evaluated only where its direction
    degenerates), else it fails at its first failing row.  judge runs once,
    on the certified directions, and gives each (value, tol, violated,
    failure), failure naming a further hypothesis that fails, else None.
    eta itself must pass, else AnalysisError carries its failure."""
    ladder = _ladder(settings)
    etas = np.array([eta] + [k * eta for k in ladder])
    td = settings.tol_deg
    ok, e1, e2 = (a[..., 0] for a in _certifies(pt, etas, [lam], td))
    live = ok.all(axis=0)
    judged = iter(judge(etas[live]) if live[0] else ())
    rungs = []
    for j, k in enumerate([1.0] + ladder):
        if live[j]:
            value, tol, violated, failure = next(judged)
        else:
            r = int(np.argmin(ok[:, j]))
            what = (f"|E(eta)| = {e1[r, j]}" if not e1[r, j] <= td
                    else f"|E(pair)| = {e2[r, j]}")
            failure = (f"degeneracy not certified at theta={pt.ts[r]} from "
                       f"the {pt.sides[r]}: {what} exceeds {td}")
        if failure is not None:
            if j == 0:
                raise AnalysisError(failure)
            value, tol, violated = math.nan, math.nan, False
        rungs.append(_Rung(k, failure is None, violated, value, tol))
    return rungs


def theorem_5_1_check(p: DelayProblem, cand: CandidateExtremal,
                      finding: DegeneracyFinding,
                      settings: AnalysisSettings = AnalysisSettings(),
                      scan: Optional[WeierstrassScanReport] = None
                      ) -> Tuple[Verdict, Verdict]:
    """Interval-degeneracy conditions: the M sum must vanish on the interval.

    Part (i) tests the equality D(t) = M_x + M_y = 0 with the finding's
    (eta, lam) on the right-side rows of the scan grid (scan.pt, else
    conditions._excess_grid) in [t_lo, t_hi], both ends included: the rows
    that detection certified.  Any violation beyond tolerance rejects a
    strong local minimum.  Part (ii) tests eta down the scale ladder,
    judged by _judge_ladder.  Both come from one _rungs call; a finding
    whose interval fails re-certification, or holds no grid row, is
    rejected with an error rather than judged.
    """
    if finding.kind != "interval":
        raise AnalysisError("an interval finding is required")
    s = settings.resolved(p, cand)
    lam = finding.lam
    pt = conditions._excess_grid(p, cand, s) if scan is None else scan.pt
    rows = _right_rows(pt, finding.t_lo, finding.t_hi)
    if not rows.size:
        raise AnalysisError(
            f"no scan grid row lies in the interval [{finding.t_lo}, "
            f"{finding.t_hi}] (scan_grid = {s.scan_grid})")
    pts = pt.rows(rows)

    def judge(etas: np.ndarray):
        # the worst D(t) = M_x + M_y of each direction
        return [_judged(max(d, key=abs), s.tol_eq)
                for d in pts.m_sum(lam, etas).T.tolist()]

    return _judge_ladder(
        ("5.1(i)", "5.1(ii)"),
        ("max |M_x + M_y| over the degeneracy interval",
         "max |M_x + M_y| over the interval at the smallest certified scale"),
        (finding.t_lo, finding.t_hi), _rungs(pts, lam, finding.direction, s,
                                             judge))


def _point_quantity(pt: ExcessPoint, theta: float, side: str, lam: float,
                    tol_eq: Optional[float]):
    """(description, judge for _rungs) of the 6.1-style point checks at
    theta, on pt (one row per side).  One-sided: the second-order bracket
    and its sign rule.  Two-sided: the M sum must vanish, where the
    one-sided M sums agree and then where both excess-sum maps are
    stationary, each hypothesis tested only at the directions still live.
    """
    if side != "both":
        # the one-sided bracket: twice the eps^2 coefficient of the needle,
        # with the left one's sign flipped
        sign = 1 if side == "right" else -1
        return (f"lam*(M_x+M_y) + d/dt(Q_2 sum) from the {side} "
                f"({'>= 0' if sign > 0 else '<= 0'} required)",
                lambda etas: [_judged(b, tol_eq, sign) for b in
                              pt.second_order(lam, etas)[0].tolist()])

    def judge(etas: np.ndarray):
        # interior two-sided point: equality of the M sum
        out = []
        for m_r, m_l in pt.m_sum(lam, etas).T.tolist():
            value, tol, violated, _ = _judged(m_r, tol_eq)
            out.append((value, tol, violated, None if abs(m_r - m_l) <= tol
                        else f"one-sided M sums disagree at theta={theta} "
                        f"({m_r} vs {m_l}): two-sided smoothness hypothesis "
                        f"fails"))
        js = [j for j, o in enumerate(out) if o[3] is None]
        # excess-sum rates per side: rows 0..len(js)-1 at the live etas,
        # the rest at their paired slopes
        rate = pt.e_sum_rate(np.concatenate(
            (etas[js], paired_slope(lam, etas[js])))).T.tolist() if js else []
        for i, j in enumerate(js):
            # interior-minimum stationarity cross-check: at a degenerate
            # interior point of a candidate satisfying the excess condition,
            # both excess-sum maps are minimized, so their one-sided time
            # derivatives vanish
            fermat_tol = 100.0 * out[j][1]
            out[j] = out[j][:3] + (next((
                f"excess sum map not stationary at theta={theta} from the "
                f"{s} (slope {v}): interior-minimum hypothesis fails"
                for d in (rate[i], rate[len(js) + i])
                for s, v in zip(pt.sides, d) if abs(v) > fermat_tol), None),)
        return out
    return "M_x + M_y at the interior degenerate point (= 0 required)", judge


def _validate_point_args(p: DelayProblem, theta: float, side: str,
                         lam: float, eta: np.ndarray) -> np.ndarray:
    """eta as an array, once the needle of each side read at theta
    (right and left for "both") passes window_for."""
    if side not in ("right", "left", "both"):
        raise AnalysisError(
            f"side must be 'right', 'left' or 'both', got {side!r}")
    for s in ("right", "left") if side == "both" else (side,):
        spec = NeedleSpec(theta, lam, eta, s)
        window_for(p, spec)
    return spec.xi


def theorem_6_1_check(p: DelayProblem, cand: CandidateExtremal, theta: float,
                      side: str, lam_bar: float, eta: np.ndarray,
                      settings: AnalysisSettings = AnalysisSettings()
                      ) -> Verdict:
    """Point-degeneracy conditions at theta: the 6.1 verdict of
    theorem_6_2_check, with no ladder below eta itself."""
    return theorem_6_2_check(p, cand, theta, side, lam_bar, eta,
                             replace(settings, scales=(1.0,)))[0]


def theorem_6_2_check(p: DelayProblem, cand: CandidateExtremal, theta: float,
                      side: str, lam_bar: float, eta: np.ndarray,
                      settings: AnalysisSettings = AnalysisSettings()
                      ) -> Tuple[Verdict, Verdict]:
    """Point-degeneracy conditions at theta and their small-ball versions,
    (6.1 verdict, 6.2 verdict), from one _rungs call on eta and the ladder.

    side "right"/"left" (part (i)): the one-sided second-order bracket
    lam*(M_x+M_y) + d/dt(Q_2 sum) must be >= 0 from the right, <= 0 from
    the left.  side "both" (part (ii)): at an interior point degenerate
    from both sides, the M sum must vanish; one-sided M sums must agree
    and the excess-sum maps must be stationary.  6.1 tests eta itself,
    which must meet these hypotheses, else an error is raised instead of
    a verdict; 6.2 tests eta down the ladder (_judge_ladder).
    """
    eta = _validate_point_args(p, theta, side, lam_bar, eta)
    s = settings.resolved(p, cand)
    rows = ("right", "left") if side == "both" else (side,)
    pt = ExcessPoint(p, cand, [theta] * len(rows), rows)
    desc, judge = _point_quantity(pt, theta, side, lam_bar, s.tol_eq)
    part = "(ii)" if side == "both" else "(i)"
    tail = ("tail regime: delayed-slot contributions vanish beyond t1"
            if theta > p.t1 - p.h + BREAK_TOL else "")
    return _judge_ladder(
        ("6.1" + part, "6.2" + part), (desc, desc + " across the scale ladder"),
        (theta, theta), _rungs(pt, lam_bar, eta, s, judge), tail)


# ---------------------------------------------------------------------------
# the full pipeline

@dataclass(frozen=True)
class EulerStage:
    grid_size: int
    max_residual: float
    argmax_t: float
    tolerance: float
    max_jump: float
    jump_t: Optional[float]
    extremal: bool


@dataclass(frozen=True)
class AnalysisReport:
    """Evidence from every pipeline stage plus the final conclusion.

    overall is NOT_EXTREMAL when the Euler stage rejects the candidate
    (later stages are skipped), ERROR when the Euler stage or the excess
    scan could not run (its message is in stage_errors; nothing later
    runs), otherwise the worst conclusion across the scan and the verdict
    list, and at least INCONCLUSIVE when a later stage raised or an
    expansion cross-check disagrees with its prediction.
    """

    euler: Optional[EulerStage]
    overall: str
    weierstrass: Optional[WeierstrassScanReport] = None
    findings: Tuple[DegeneracyFinding, ...] = ()
    verdicts: Tuple[Verdict, ...] = ()
    expansion_checks: Tuple[IncrementRecord, ...] = ()
    notes: Tuple[str, ...] = ()
    stage_errors: Tuple[Tuple[str, str], ...] = ()


def euler_stage(p: DelayProblem, cand: CandidateExtremal,
                settings: AnalysisSettings = AnalysisSettings(),
                grid: Optional[ExcessPoint] = None) -> EulerStage:
    """The Euler residual at every row (time, side) of the scan grid (grid,
    else conditions._excess_grid), in one batch on its argument sets, and
    the momentum jumps at the times where the momentum can jump.  An
    extremal needs both within tol_euler: the integral form of the Euler
    equation makes the momentum P(t) = Ldx(t) + Ldy(t+h) continuous on
    (t0, t1)."""
    if grid is None:
        grid = conditions._excess_grid(p, cand, settings)
    vals = np.max(np.abs(conditions._residual(p, grid.args,
                                              grid.rate_sets())), axis=0)
    worst = int(np.argmax(vals))
    tol = settings.resolved(p, cand).tol_euler
    jump, jump_t = _momentum_jump(p, cand)
    return EulerStage(grid_size=settings.scan_grid,
                      max_residual=float(vals[worst]),
                      argmax_t=float(grid.ts[worst]),
                      tolerance=tol, max_jump=jump, jump_t=jump_t,
                      extremal=float(vals[worst]) <= tol and jump <= tol)


def _momentum_jump(p: DelayProblem, cand: CandidateExtremal
                   ) -> Tuple[float, Optional[float]]:
    """The largest |P(t+) - P(t-)| and its time over the times where the
    momentum can jump: each breakpoint b of the candidate and b +- h,
    inside (t0, t1); (0.0, None) when there are none.  t1 - h is left
    out: the delayed slot at t1 is read as live from the right too (the
    t1 gate is not side-aware), so a jump measured there would be wrong."""
    times = np.array(sorted({
        t for b in cand.traj.breakpoints for t in (b - p.h, b, b + p.h)
        if p.t0 + BREAK_TOL < t < p.t1 - BREAK_TOL
        and abs(t - (p.t1 - p.h)) > BREAK_TOL}))
    if not times.size:
        return 0.0, None
    ts = np.concatenate((times, times))
    sides = ["right"] * times.size + ["left"] * times.size
    momentum = (partials_vec(p, "dx", along(p, cand, ts, sides))
                + partials_vec(p, "dy", along(p, cand, ts + p.h, sides)))
    jumps = np.max(np.abs(momentum[:, :times.size]
                          - momentum[:, times.size:]), axis=0)
    k = int(np.argmax(jumps))
    return float(jumps[k]), float(times[k])


def _expansion_spots(p: DelayProblem,
                     settings: AnalysisSettings) -> List[NeedleSpec]:
    theta = 0.5 * (p.t0 + (p.t1 - p.h))
    xi = direction_set(p.dim, settings.seed)[0]
    lam = settings.lambdas[0]
    return [NeedleSpec(theta=theta, lam=lam, xi=xi, side="right"),
            NeedleSpec(theta=theta, lam=lam, xi=xi, side="left")]


def full_report(p: DelayProblem, cand: CandidateExtremal,
                settings: AnalysisSettings = AnalysisSettings()
                ) -> AnalysisReport:
    """Run every stage in order and collect the evidence.

    Pipeline: Euler residual -> pointwise excess scan -> degeneracy
    detection -> interval and point condition checks -> increment
    expansion spot checks.  Every grid stage reads the one scan grid,
    built once.  A non-extremal candidate stops the pipeline
    after the first stage; a pointwise excess violation records the
    strong-minimum failure and skips the degeneracy machinery, whose
    hypotheses no longer hold.  Deterministic for fixed settings.
    """
    notes: List[str] = []
    errors: List[Tuple[str, str]] = []
    verdicts: List[Verdict] = []
    findings: List[DegeneracyFinding] = []
    expansion: List[IncrementRecord] = []

    try:
        # the |L| scale behind every unset tolerance, resolved once
        settings = settings.resolved(p, cand)
        grid = conditions._excess_grid(p, cand, settings)
        euler = euler_stage(p, cand, settings, grid)
    except (ValueError, ArithmeticError) as exc:
        return AnalysisReport(euler=None, overall="ERROR",
                              stage_errors=(("euler", str(exc)),))
    if not euler.extremal:
        reason = (f"Euler residual {euler.max_residual} at "
                  f"t={euler.argmax_t}"
                  if not euler.max_residual <= euler.tolerance else
                  f"momentum jump {euler.max_jump} at t={euler.jump_t}")
        return AnalysisReport(euler=euler, overall="NOT_EXTREMAL", notes=(
            f"{reason} exceeds {euler.tolerance}: not an extremal; later "
            f"stages skipped",))

    try:
        scan = conditions.weierstrass_scan(p, cand, settings, grid)
    except (ValueError, ArithmeticError) as exc:
        return AnalysisReport(euler=euler, overall="ERROR",
                              stage_errors=(("weierstrass", str(exc)),))

    overall_rank = 0
    if scan.has_violation:
        overall_rank = _RANK["FAILS_STRONG"]
        notes.append(
            "pointwise excess condition violated; degeneracy analysis "
            "skipped (its hypotheses require the condition to hold)")
    else:
        try:
            findings = detect_degeneracy(p, cand, settings, scan)
        except (ValueError, ArithmeticError) as exc:
            errors.append(("degeneracy", str(exc)))

        for finding in findings:
            # the point checks run at the finding's midpoint: the point of
            # a point finding, the middle of an interval (side "both")
            theta, side = finding.midpoint, finding.side
            if finding.kind == "interval":
                try:
                    verdicts.extend(
                        theorem_5_1_check(p, cand, finding, settings, scan))
                except (ValueError, ArithmeticError) as exc:
                    errors.append(("theorem5", str(exc)))
            try:
                verdicts.extend(theorem_6_2_check(
                    p, cand, theta, side, finding.lam, finding.direction,
                    settings))
            except (ValueError, ArithmeticError) as exc:
                notes.append(f"6.1/6.2 checks skipped at t={theta}: {exc}")

    specs = _expansion_spots(p, settings)
    try:
        expansion = verify_expansion(p, cand, specs, settings=settings)
    except (ValueError, ArithmeticError):
        # one needle at a time, so that each error is its own needle's
        for spec in specs:
            try:
                expansion += verify_expansion(p, cand, [spec],
                                              settings=settings)
            except (ValueError, ArithmeticError) as exc:
                errors.append((f"increment[{spec.side}]", str(exc)))
    for record in expansion:
        if not record.passed:
            spec = record.spec
            notes.append(
                f"increment expansion mismatch for the {spec.side} "
                f"needle at theta={spec.theta}: fitted "
                f"({record.c1_fitted}, {record.c2_fitted}) vs predicted "
                f"({record.c1_predicted}, {record.c2_predicted})")

    for v in verdicts:
        overall_rank = max(overall_rank, _RANK[v.conclusion])
    if errors or not all(r.passed for r in expansion):
        overall_rank = max(overall_rank, _RANK["INCONCLUSIVE"])
    overall = next(k for k, r in _RANK.items() if r == overall_rank)
    return AnalysisReport(
        euler=euler, weierstrass=scan, findings=tuple(findings),
        verdicts=tuple(verdicts), expansion_checks=tuple(expansion),
        overall=overall, notes=tuple(notes), stage_errors=tuple(errors))
