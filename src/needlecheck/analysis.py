"""Degeneracy detection and minimality verdicts.

A candidate that passes the pointwise excess scan can still fail to be a
minimum where the scan degenerates: where the excess sum vanishes both in a
direction eta and in its paired direction (lam/(lam-1))*eta.  At such
points second-order information takes over.  This module locates the
degeneracies and applies the equality and inequality conditions that a
strong or weak local minimum must then satisfy.

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
from .problem import CandidateExtremal, DelayProblem
from .trajectory import BREAK_TOL

DEFAULT_TOL_EQ = 1e-7

_RANK = {"CONSISTENT": 0, "INCONCLUSIVE": 1, "FAILS_STRONG": 2,
         "FAILS_WEAK": 3}


class AnalysisError(ValueError):
    pass


def _eq_tol(tol_eq: Optional[float], magnitude: float) -> float:
    """Equality tolerance: explicit, or 1e-7 scaled by the tested magnitude."""
    if tol_eq is not None:
        return tol_eq
    return DEFAULT_TOL_EQ * (1.0 + abs(magnitude))


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


def _certifies(pt: ExcessPoint, etas, lams: Sequence[float],
               tol_deg: float, every_pair: bool = True
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degeneracy certification at every time of pt of every eta (rows of
    etas) paired under every lam: (ok, |E(eta)|, |E(pair)|), each of shape
    (times, etas, lams).  A cell certifies only where |E(eta)| <= tol_deg
    too, so without every_pair the paired slopes are evaluated only for
    the etas that are degenerate at some time of pt; the others certify
    nowhere, and their |E(pair)| reads inf."""
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    lams = np.asarray(lams, dtype=float)
    pairs = paired_slope(lams[None, :, None], etas[:, None, :]).reshape(
        -1, etas.shape[1])
    if every_pair:
        vals = np.abs(pt.e_sum(np.concatenate((etas, pairs))))
        e_eta, e_pair = vals[:, :len(etas)], vals[:, len(etas):]
    else:
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


def detect_degeneracy(p: DelayProblem, cand: CandidateExtremal,
                      settings: AnalysisSettings = AnalysisSettings()
                      ) -> List[DegeneracyFinding]:
    """Scan the degeneracy grid on [t0, t1-h] for paired-direction
    degeneracies of the excess sum, over the seeded unit directions and
    the lambdas.

    Contiguous grid runs certified by the same (eta, lam) merge into
    interval findings; distinct certified pairs sharing the exact same run
    merge into one finding carrying all of them.  Isolated single-point
    runs become point findings tagged with the sides that certify.  The
    paired slopes of a direction are evaluated only when its excess sum
    vanishes somewhere on the grid (_certifies without every_pair): a
    direction that is nowhere degenerate certifies nowhere, whatever its
    pairs give.
    """
    s = settings.resolved(p, cand)
    td = s.tol_deg
    grid = np.linspace(p.t0, p.t1 - p.h, s.degeneracy_grid).tolist()
    directions = direction_set(p.dim, s.seed)
    pairs = [(eta, float(lam)) for eta in directions for lam in s.lambdas]
    ok, e1, e2 = (a.reshape(len(grid), len(pairs)) for a in _certifies(
        ExcessPoint(p, cand, grid, "right"), directions, s.lambdas, td,
        every_pair=False))

    # maximal certified runs of each pair, grouped by their exact grid
    # extent; edges[k, i] is +1 where a run of pair k starts at grid index
    # i and -1 where one ends just before it
    edges = np.diff(np.pad(ok.T.astype(np.int8), ((0, 0), (1, 1))), axis=1)
    extents = {}
    for (k, i), (_, j) in zip(np.argwhere(edges == 1).tolist(),
                              np.argwhere(edges == -1).tolist()):
        eta, lam = pairs[k]
        extents.setdefault((i, j - 1), []).append(
            (eta, lam, float(e1[i:j, k].max()), float(e2[i:j, k].max())))

    findings = []
    for (i0, i1), certified in sorted(extents.items()):
        eta, lam = certified[0][0], certified[0][1]
        ev = (max(c[2] for c in certified), max(c[3] for c in certified))
        pairs_out = tuple((tuple(float(c) for c in e), l)
                          for e, l, _, _ in certified)
        if i1 > i0:
            findings.append(DegeneracyFinding(
                kind="interval", t_lo=grid[i0], t_hi=grid[i1], side="both",
                direction=eta, lam=lam, evidence=ev, tol_deg=td,
                certified_pairs=pairs_out))
            continue
        theta = grid[i0]
        sides = [side for side in ("right", "left")
                 if _in_range(p, theta, side)]
        ok = _certifies(ExcessPoint(p, cand, [theta] * len(sides), sides),
                        eta, [lam], td, every_pair=False)[0][:, 0, 0]
        sides = [s for s, c in zip(sides, ok.tolist()) if c]
        side = "both" if len(sides) == 2 else (sides[0] if sides else "right")
        findings.append(DegeneracyFinding(
            kind="point", t_lo=theta, t_hi=theta, side=side,
            direction=eta, lam=lam, evidence=ev, tol_deg=td,
            certified_pairs=pairs_out))
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


def theorem_5_1_check(p: DelayProblem, cand: CandidateExtremal,
                      finding: DegeneracyFinding,
                      settings: AnalysisSettings = AnalysisSettings()
                      ) -> Tuple[Verdict, Verdict]:
    """Interval-degeneracy conditions: the M sum must vanish on the interval.

    Part (i) tests the equality D(t) = M_x + M_y = 0 with the finding's
    (eta, lam) on interval_points interior points; any violation beyond
    tolerance rejects a strong local minimum.  Part (ii) rescales eta by
    the scale ladder, re-certifying degeneracy at each scale, and is
    judged by _judge_ladder.  A finding whose interval fails
    re-certification is rejected with an error rather than judged.
    """
    if finding.kind != "interval":
        raise AnalysisError("an interval finding is required")
    s = settings.resolved(p, cand)
    eta, lam, td = finding.direction, finding.lam, s.tol_deg
    ts = np.linspace(finding.t_lo, finding.t_hi,
                     s.interval_points + 2)[1:-1].tolist()
    ladder = _ladder(s)
    # one stack: the finding's own direction, then the ladder
    s_etas = np.array([eta] + [k * eta for k in ladder])
    pts = ExcessPoint(p, cand, ts, "right")

    # certification per point (rows) and direction (columns)
    ok, e1, e2 = (a[..., 0] for a in _certifies(pts, s_etas, [lam], td))
    if not ok[:, 0].all():
        i = int(np.argmin(ok[:, 0]))
        raise AnalysisError(
            f"interval not degenerate for the finding's direction at "
            f"t={ts[i]}: |E sums| = ({e1[i, 0]}, {e2[i, 0]}) exceed {td}")
    certified = ok.all(axis=0)

    # the worst D(t) = M_x + M_y of every certified direction
    d_vals = iter(pts.m_sum(lam, s_etas[certified]).T.tolist())
    rungs = []
    for k, cert in zip([1.0] + ladder, certified.tolist()):
        worst = max(next(d_vals), key=abs) if cert else math.nan
        tol = _eq_tol(s.tol_eq, worst)
        rungs.append(_Rung(k, cert, abs(worst) > tol, worst, tol))

    return _judge_ladder(
        ("5.1(i)", "5.1(ii)"),
        ("max |M_x + M_y| over the degeneracy interval",
         "max |M_x + M_y| over the interval at the smallest certified scale"),
        (finding.t_lo, finding.t_hi), rungs)


def _point_quantity(p: DelayProblem, cand: CandidateExtremal, theta: float,
                    side: str, lam: float, etas: np.ndarray, td: float,
                    tol_eq: Optional[float]):
    """Shared engine of the 6.1-style point checks, for every direction of
    the stack etas (k, n) at once, on one ExcessPoint with a row per side.

    Returns (quantity description, one (value, tol, violated, failure) per
    direction).  failure is None when the direction certifies, else the
    message of the first hypothesis that fails at it, in this order:
    degeneracy certification from each side, then, at a two-sided point,
    agreement of the one-sided M sums and stationarity of both excess-sum
    maps.  Each quantity is evaluated only at the directions that passed
    every check before it.
    """
    rows = ("right", "left") if side == "both" else (side,)
    pt = ExcessPoint(p, cand, [theta] * len(rows), rows)
    ok, e1, e2 = (a[..., 0].T.tolist()
                  for a in _certifies(pt, etas, [lam], td))
    failure = [next((f"degeneracy not certified at theta={theta} from the "
                     f"{s}: |E sums| = ({a}, {b}) exceed {td}"
                     for s, c, a, b in zip(rows, *cols) if not c), None)
               for cols in zip(ok, e1, e2)]
    out = [(math.nan, math.nan, False)] * len(etas)

    def live() -> List[int]:
        return [j for j, f in enumerate(failure) if f is None]

    js = live()
    if side != "both":
        # the one-sided bracket: twice the eps^2 coefficient of the needle,
        # with the left one's sign flipped
        brackets = pt.second_order(lam, etas[js])[0].tolist() if js else []
        for j, bracket in zip(js, brackets):
            tol = _eq_tol(tol_eq, bracket)
            violated = (bracket < -tol) if side == "right" else (bracket > tol)
            out[j] = (bracket, tol, violated)
        desc = (f"lam*(M_x+M_y) + d/dt(Q_2 sum) from the {side} "
                f"({'>= 0' if side == 'right' else '<= 0'} required)")
    else:
        # interior two-sided point: equality of the M sum
        m_sums = pt.m_sum(lam, etas[js]).T.tolist() if js else []
        for j, (m_r, m_l) in zip(js, m_sums):
            tol = _eq_tol(tol_eq, m_r)
            out[j] = (m_r, tol, abs(m_r) > tol)
            if abs(m_r - m_l) > tol:
                failure[j] = (
                    f"one-sided M sums disagree at theta={theta} ({m_r} vs "
                    f"{m_l}): two-sided smoothness hypothesis fails")
        js = live()
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
            failure[j] = next((
                f"excess sum map not stationary at theta={theta} from the "
                f"{s} (slope {v}): interior-minimum hypothesis fails"
                for d in (rate[i], rate[len(js) + i])
                for s, v in zip(rows, d) if abs(v) > fermat_tol), None)
        desc = "M_x + M_y at the interior degenerate point (= 0 required)"
    return desc, [o + (None,) if f is None else (math.nan, math.nan, False, f)
                  for o, f in zip(out, failure)]


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
    (6.1 verdict, 6.2 verdict), from one engine call on eta and the ladder.

    side "right"/"left" (part (i)): the one-sided second-order bracket
    lam*(M_x+M_y) + d/dt(Q_2 sum) must be >= 0 from the right, <= 0 from
    the left.  side "both" (part (ii)): at an interior point degenerate
    from both sides, the M sum must vanish; one-sided M sums must agree
    and the excess-sum maps must be stationary.  6.1 tests eta itself,
    which must meet these hypotheses, else an error is raised instead of
    a verdict.  6.2 tests eta scaled down the ladder, re-certifying the
    hypotheses at each scale, and is judged by _judge_ladder.
    """
    eta = _validate_point_args(p, theta, side, lam_bar, eta)
    s = settings.resolved(p, cand)
    ladder = _ladder(s)
    desc, results = _point_quantity(
        p, cand, theta, side, lam_bar,
        np.array([eta] + [k * eta for k in ladder]), s.tol_deg, s.tol_eq)
    if results[0][3] is not None:
        raise AnalysisError(results[0][3])
    part = "(ii)" if side == "both" else "(i)"
    tail = ("tail regime: delayed-slot contributions vanish beyond t1"
            if theta > p.t1 - p.h + BREAK_TOL else "")
    return _judge_ladder(
        ("6.1" + part, "6.2" + part), (desc, desc + " across the scale ladder"),
        (theta, theta),
        [_Rung(k, failure is None, violated, value, tol)
         for k, (value, tol, violated, failure) in zip([1.0] + ladder, results)],
        tail)


# ---------------------------------------------------------------------------
# the full pipeline

@dataclass(frozen=True)
class EulerStage:
    grid_size: int
    max_residual: float
    argmax_t: float
    tolerance: float
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
                settings: AnalysisSettings = AnalysisSettings()) -> EulerStage:
    ts = np.linspace(p.t0, p.t1, settings.euler_grid)
    # one batch: every grid point from the right, the endpoint t1 from the left
    sides = ["right" if t < p.t1 - BREAK_TOL else "left" for t in ts]
    vals = np.max(np.abs(conditions.euler_residual(p, cand, ts, sides)), axis=0)
    worst = int(np.argmax(vals))
    tol = settings.resolved(p, cand).tol_euler
    return EulerStage(grid_size=settings.euler_grid,
                      max_residual=float(vals[worst]),
                      argmax_t=float(ts[worst]),
                      tolerance=tol,
                      extremal=float(vals[worst]) <= tol)


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

    Pipeline: Euler residual grid -> pointwise excess scan -> degeneracy
    detection -> interval and point condition checks -> increment
    expansion spot checks.  A non-extremal candidate stops the pipeline
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
        euler = euler_stage(p, cand, settings)
    except (ValueError, ArithmeticError) as exc:
        return AnalysisReport(euler=None, overall="ERROR",
                              stage_errors=(("euler", str(exc)),))
    if not euler.extremal:
        return AnalysisReport(euler=euler, overall="NOT_EXTREMAL", notes=(
            f"Euler residual {euler.max_residual} at t={euler.argmax_t} "
            f"exceeds {euler.tolerance}: not an extremal; later stages "
            f"skipped",))

    try:
        scan = conditions.weierstrass_scan(p, cand, settings)
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
            findings = detect_degeneracy(p, cand, settings)
        except (ValueError, ArithmeticError) as exc:
            errors.append(("degeneracy", str(exc)))

        for finding in findings:
            # the point checks run at the finding's midpoint: the point of
            # a point finding, the middle of an interval (side "both")
            theta, side = finding.midpoint, finding.side
            if finding.kind == "interval":
                try:
                    verdicts.extend(
                        theorem_5_1_check(p, cand, finding, settings))
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
