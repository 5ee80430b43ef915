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
from .conditions import (DEFAULT_LAMBDAS, DEFAULT_RADII, DEFAULT_TOL_DEG,
                         DEFAULT_TOL_W, ExcessPoint, WeierstrassScanReport,
                         direction_set, paired_slope, resolve_tols,
                         xi_sample_set)
from .increments import IncrementRecord, verify_expansion
from .needle import NeedleSpec
from .problem import CandidateExtremal, DelayProblem
from .trajectory import BREAK_TOL

DEFAULT_SCALES = (1.0, 0.5, 0.25, 0.125)
DEFAULT_TOL_EQ = 1e-7
DEFAULT_TOL_EULER = 1e-8
DEFAULT_DEGENERACY_GRID = 200
DEFAULT_INTERVAL_POINTS = 50

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
    def theta(self) -> float:
        if self.kind != "point":
            raise AnalysisError("theta is defined for point findings only")
        return self.t_lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.t_lo + self.t_hi)


def _certifies(pt: ExcessPoint, etas, lams: Sequence[float],
               tol_deg: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Degeneracy certification at every time of pt of every eta (rows of
    etas) paired under every lam: (ok, |E(eta)|, |E(pair)|), each of shape
    (times, etas, lams)."""
    etas = np.atleast_2d(np.asarray(etas, dtype=float))
    lams = np.asarray(lams, dtype=float)
    pairs = paired_slope(lams[None, :, None], etas[:, None, :])
    vals = np.abs(pt.e_sum(np.concatenate(
        (etas, pairs.reshape(-1, etas.shape[1])))))
    e1 = np.repeat(vals[:, :len(etas), None], len(lams), axis=2)
    e2 = vals[:, len(etas):].reshape(len(vals), len(etas), len(lams))
    return (e1 <= tol_deg) & (e2 <= tol_deg), e1, e2


def detect_degeneracy(p: DelayProblem, cand: CandidateExtremal,
                      t_grid: Optional[Sequence[float]] = None,
                      direction_samples: Optional[Sequence[np.ndarray]] = None,
                      lam_grid: Sequence[float] = DEFAULT_LAMBDAS,
                      tol_deg: Optional[float] = None
                      ) -> List[DegeneracyFinding]:
    """Scan a time grid for paired-direction degeneracies of the excess sum.

    Contiguous grid runs certified by the same (eta, lam) merge into
    interval findings; distinct certified pairs sharing the exact same run
    merge into one finding carrying all of them.  Isolated single-point
    runs become point findings tagged with the sides that certify.
    """
    if t_grid is None:
        t_grid = np.linspace(p.t0, p.t1 - p.h, DEFAULT_DEGENERACY_GRID)
    grid = [float(t) for t in t_grid]
    if not grid:
        raise AnalysisError("empty degeneracy grid")
    if any(t < p.t0 - BREAK_TOL or t > p.t1 + BREAK_TOL for t in grid):
        raise AnalysisError("degeneracy grid escapes [t0, t1]")
    if direction_samples is None:
        direction_samples = direction_set(p.dim)
    directions = [np.atleast_1d(np.asarray(d, dtype=float))
                  for d in direction_samples]
    if not directions or not lam_grid:
        raise AnalysisError("direction and lambda grids must be nonempty")
    for d in directions:
        if float(np.max(np.abs(d))) == 0.0:
            raise AnalysisError("degeneracy directions must be nonzero")
    for lam in lam_grid:
        if not 0.0 < lam < 1.0:
            raise AnalysisError(f"lambda grid entry {lam} outside (0,1)")
    td, = resolve_tols(p, cand, (tol_deg, DEFAULT_TOL_DEG))

    pairs = [(eta, float(lam)) for eta in directions for lam in lam_grid]
    sides = ["left" if t >= p.t1 - BREAK_TOL else "right" for t in grid]
    ok, e1, e2 = (a.reshape(len(grid), len(pairs)) for a in _certifies(
        ExcessPoint(p, cand, grid, sides), directions, lam_grid, td))

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
        sides = [s for s, inside in (("right", theta < p.t1 - BREAK_TOL),
                                     ("left", theta > p.t0 + BREAK_TOL))
                 if inside]
        ok = _certifies(ExcessPoint(p, cand, [theta] * len(sides), sides),
                        eta, [lam], td)[0][:, 0, 0]
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


def _check_scales(scales: Sequence[float]) -> None:
    bad = [s for s in scales if not 0.0 < s < math.inf]
    if bad:
        raise AnalysisError(f"scales must be positive and finite, got {bad[0]}")


def theorem_5_1_check(p: DelayProblem, cand: CandidateExtremal,
                      finding: DegeneracyFinding,
                      n_points: int = DEFAULT_INTERVAL_POINTS,
                      scales: Sequence[float] = DEFAULT_SCALES,
                      tol_deg: Optional[float] = None,
                      tol_eq: Optional[float] = None) -> Tuple[Verdict, Verdict]:
    """Interval-degeneracy conditions: the M sum must vanish on the interval.

    Part (i) tests the equality D(t) = M_x + M_y = 0 with the finding's
    (eta, lam) on an interior grid; any violation beyond tolerance rejects
    a strong local minimum.  Part (ii) rescales eta by the given scale
    ladder, re-certifying degeneracy at each scale; if the equality fails
    at every certified scale the candidate cannot even be a weak local
    minimum.  A finding whose interval fails re-certification is rejected
    with an error rather than judged.
    """
    if finding.kind != "interval":
        raise AnalysisError("an interval finding is required")
    if n_points < 3:
        raise AnalysisError(f"need at least 3 interior points, got {n_points}")
    eta, lam = finding.direction, finding.lam
    td, = resolve_tols(p, cand, (tol_deg, DEFAULT_TOL_DEG))
    ts = [float(t) for t in
          np.linspace(finding.t_lo, finding.t_hi, n_points + 2)[1:-1]]
    scale_list = sorted({float(s) for s in scales} | {1.0}, reverse=True)
    _check_scales(scale_list)
    s_etas = np.array([s * eta for s in scale_list])
    pts = ExcessPoint(p, cand, ts, "right")

    # certification per point (rows) and scale (columns, in scale_list order)
    ok, e1, e2 = (a[..., 0] for a in _certifies(pts, s_etas, [lam], td))
    unit = scale_list.index(1.0)
    if not ok[:, unit].all():
        i = int(np.argmin(ok[:, unit]))
        raise AnalysisError(
            f"interval not degenerate for the finding's direction at "
            f"t={ts[i]}: |E sums| = ({e1[i, unit]}, {e2[i, unit]}) "
            f"exceed {td}")
    certified = ok.all(axis=0)

    # D(t) = M_x + M_y at every certified scale
    d_vals = iter(pts.m_sum(lam, s_etas[certified]).T.tolist())
    outcomes = []
    for s, cert in zip(scale_list, certified.tolist()):
        if not cert:
            outcomes.append((s, False, False, 0.0, 0.0))
            continue
        d_s = next(d_vals)
        worst = max(d_s, key=abs)
        tol_s = _eq_tol(tol_eq, max(abs(v) for v in d_s))
        outcomes.append((s, True, abs(worst) > tol_s, worst, tol_s))

    loc = (finding.t_lo, finding.t_hi)
    s1 = next(o for o in outcomes if o[0] == 1.0)
    verdict_i = Verdict(
        theorem="5.1(i)",
        conclusion="FAILS_STRONG" if s1[2] else "CONSISTENT",
        quantity="max |M_x + M_y| over the degeneracy interval",
        value=s1[3], tolerance=s1[4], location=loc)

    all_fail = all(cert and vio for _, cert, vio, _, _ in outcomes)
    broken = [s for s, cert, _, _, _ in outcomes if not cert]
    if all_fail:
        conclusion, note = "FAILS_WEAK", "equality fails at every tested scale"
        smallest = outcomes[-1]
    elif broken:
        conclusion = "CONSISTENT"
        note = ("degeneracy not certified in small ball "
                f"(scales {', '.join(f'{s:g}' for s in sorted(broken))})")
        smallest = s1
    else:
        holds = [s for s, cert, vio, _, _ in outcomes if cert and not vio]
        conclusion = "CONSISTENT"
        note = f"equality holds at scale {min(holds):g}"
        smallest = outcomes[-1]
    verdict_ii = Verdict(
        theorem="5.1(ii)",
        conclusion=conclusion,
        quantity="max |M_x + M_y| over the interval at the smallest "
                 "certified scale",
        value=smallest[3], tolerance=smallest[4], location=loc, note=note)
    return verdict_i, verdict_ii


def _tail_note(p: DelayProblem, theta: float) -> str:
    if theta > p.t1 - p.h + BREAK_TOL:
        return "tail regime: delayed-slot contributions vanish beyond t1"
    return ""


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
    m_sums = pt.m_sum(lam, etas[js]).T.tolist() if js else []
    if side == "both":
        # interior two-sided point: equality of the M sum
        for j, (m_r, m_l) in zip(js, m_sums):
            tol = _eq_tol(tol_eq, m_r)
            out[j] = (m_r, tol, abs(m_r) > tol)
            if abs(m_r - m_l) > tol:
                failure[j] = (
                    f"one-sided M sums disagree at theta={theta} "
                    f"({m_r} vs {m_l}): two-sided smoothness hypothesis fails")
        js = live()
    # excess-sum rates per side: rows 0..len(js)-1 at the live etas, the
    # rest at their paired slopes
    rate = pt.e_sum_rate(np.concatenate(
        (etas[js], paired_slope(lam, etas[js])))).T.tolist() if js else []
    for i, j in enumerate(js):
        at_eta, at_pair = rate[i], rate[len(js) + i]
        if side != "both":
            bracket = lam * m_sums[i][0] + (
                lam ** 2 * at_eta[0] + (1.0 - lam ** 2) * at_pair[0])
            tol = _eq_tol(tol_eq, bracket)
            violated = (bracket < -tol) if side == "right" else (bracket > tol)
            out[j] = (bracket, tol, violated)
            continue
        # interior-minimum stationarity cross-check: at a degenerate interior
        # point of a candidate satisfying the excess condition, both excess-
        # sum maps are minimized, so their one-sided time derivatives vanish
        fermat_tol = 100.0 * out[j][1]
        failure[j] = next((
            f"excess sum map not stationary at theta={theta} from the {s} "
            f"(slope {v}): interior-minimum hypothesis fails"
            for d in (at_eta, at_pair) for s, v in zip(rows, d)
            if abs(v) > fermat_tol), None)
    if side == "both":
        desc = "M_x + M_y at the interior degenerate point (= 0 required)"
    else:
        desc = (f"lam*(M_x+M_y) + d/dt(Q_2 sum) from the {side} "
                f"({'>= 0' if side == 'right' else '<= 0'} required)")
    return desc, [o + (None,) if f is None else (math.nan, math.nan, False, f)
                  for o, f in zip(out, failure)]


def _validate_point_args(p: DelayProblem, theta: float, side: str,
                         lam: float, eta: np.ndarray,
                         sides: Tuple[str, ...] = ("right", "left", "both")
                         ) -> np.ndarray:
    if side not in sides:
        names = ", ".join(map(repr, sides[:-1])) + f" or {sides[-1]!r}"
        raise AnalysisError(f"side must be {names}, got {side!r}")
    if not 0.0 < lam < 1.0:
        raise AnalysisError(f"lambda must be in (0,1), got {lam}")
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if not np.all(np.isfinite(eta)):
        raise AnalysisError(f"direction eta must be finite, got {eta.tolist()}")
    if float(np.max(np.abs(eta))) == 0.0:
        raise AnalysisError("direction eta must be nonzero")
    if eta.size != p.dim:
        raise AnalysisError(f"eta dimension {eta.size} != problem dimension {p.dim}")
    check_point_range(p, theta, side)
    return eta


def check_point_range(p: DelayProblem, theta: float, side: str,
                      name: str = "theta") -> None:
    """The admissible range of a point: t0 <= theta < t1 from the right,
    t0 < theta <= t1 from the left, t0 < theta < t1 for both sides."""
    lo_ok = theta > p.t0 + BREAK_TOL or side == "right"
    hi_ok = theta < p.t1 - BREAK_TOL or side == "left"
    if not (p.t0 - BREAK_TOL <= theta <= p.t1 + BREAK_TOL and lo_ok and hi_ok):
        raise AnalysisError(
            f"{name}={theta} outside the admissible range for side {side!r}")


def theorem_6_1_check(p: DelayProblem, cand: CandidateExtremal, theta: float,
                      side: str, lam_bar: float, eta: np.ndarray,
                      tol_deg: Optional[float] = None,
                      tol_eq: Optional[float] = None) -> Verdict:
    """Point-degeneracy conditions at theta.

    side "right"/"left" (part (i)): the one-sided second-order bracket
    lam*(M_x+M_y) + d/dt(Q_2 sum) must be >= 0 from the right, <= 0 from
    the left.  side "both" (part (ii)): at an interior point degenerate
    from both sides, the M sum must vanish; one-sided M sums must agree
    and the excess-sum maps must be stationary, else the smoothness
    hypotheses are not met and an error is raised instead of a verdict.
    """
    eta = _validate_point_args(p, theta, side, lam_bar, eta)
    td, = resolve_tols(p, cand, (tol_deg, DEFAULT_TOL_DEG))
    desc, [(value, tol, violated, failure)] = _point_quantity(
        p, cand, theta, side, lam_bar, eta[None], td, tol_eq)
    if failure is not None:
        raise AnalysisError(failure)
    label = "6.1(ii)" if side == "both" else "6.1(i)"
    return Verdict(
        theorem=label,
        conclusion="FAILS_STRONG" if violated else "CONSISTENT",
        quantity=desc, value=value, tolerance=tol,
        location=(theta, theta), note=_tail_note(p, theta))


def theorem_6_2_check(p: DelayProblem, cand: CandidateExtremal, theta: float,
                      side: str, lam_bar: float, eta: np.ndarray,
                      scales: Sequence[float] = DEFAULT_SCALES,
                      tol_deg: Optional[float] = None,
                      tol_eq: Optional[float] = None) -> Verdict:
    """Small-ball versions of the point checks.

    Re-runs the 6.1 quantity at eta scaled down the given ladder,
    re-certifying degeneracy at each scale.  FAILS_WEAK only when every
    scale certifies and violates; a scale that fails certification (or the
    smoothness hypotheses) makes the check CONSISTENT with an explanatory
    note, since the condition no longer applies in the smaller ball.
    """
    eta = _validate_point_args(p, theta, side, lam_bar, eta)
    scale_list = sorted({float(s) for s in scales}, reverse=True)
    if not scale_list:
        raise AnalysisError("scales list must be nonempty")
    _check_scales(scale_list)
    td, = resolve_tols(p, cand, (tol_deg, DEFAULT_TOL_DEG))
    # one engine call: the unscaled direction, then the ladder; the
    # unscaled direction must certify, the precondition shared with the
    # pointwise check
    desc, results = _point_quantity(
        p, cand, theta, side, lam_bar,
        np.array([eta] + [s * eta for s in scale_list]), td, tol_eq)
    base = results[0]
    if base[3] is not None:
        raise AnalysisError(base[3])
    outcomes = [(s, failure is None, violated, value, tol)
                for s, (value, tol, violated, failure)
                in zip(scale_list, results[1:])]

    label = "6.2(ii)" if side == "both" else "6.2(i)"
    parts = []
    for s, cert, vio, _, _ in outcomes:
        word = "violated" if vio else ("holds" if cert else "not certified")
        parts.append(f"scale {s:g}: {word}")
    summary = "; ".join(parts)
    tail = _tail_note(p, theta)
    if tail:
        summary = f"{summary}; {tail}"

    certified = [o for o in outcomes if o[1]]
    # evidence comes from the smallest certified scale, falling back to the
    # unscaled precondition values when no ladder scale certifies
    evidence = certified[-1] if certified else (1.0, True, False, base[0], base[1])
    if len(certified) == len(outcomes) and all(o[2] for o in outcomes):
        conclusion = "FAILS_WEAK"
    elif len(certified) < len(outcomes):
        conclusion = "CONSISTENT"
        summary = f"degeneracy not certified in small ball; {summary}"
    else:
        conclusion = "CONSISTENT"
    return Verdict(
        theorem=label, conclusion=conclusion,
        quantity=desc + " across the scale ladder",
        value=evidence[3], tolerance=evidence[4],
        location=(theta, theta), note=summary)


# ---------------------------------------------------------------------------
# the equivalence shortcut

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
                           tol_w: Optional[float] = None,
                           tol_deg: Optional[float] = None,
                           radii: Sequence[float] = DEFAULT_RADII,
                           seed: int = 0) -> EquivalenceRecord:
    """Check that the Q_1 sum vanishes exactly when both excess sums do.

    Valid for candidates satisfying the pointwise excess condition at
    theta, which is spot-checked over the sample set first; the Q_1 sum is
    a convex combination of the two excess sums, so with both nonnegative
    it vanishes iff both vanish.  This gives a one-evaluation test for
    degeneracy in place of two.
    """
    eta = _validate_point_args(p, theta, side, lam_bar, eta,
                               sides=("right", "left"))
    tw, td = resolve_tols(p, cand, (tol_w, DEFAULT_TOL_W),
                          (tol_deg, DEFAULT_TOL_DEG))

    pt = ExcessPoint(p, cand, theta, side)
    samples = xi_sample_set(p.dim, radii, seed)
    wmin = min(pt.e_sum(samples)[0].tolist())
    if wmin < -tw:
        raise AnalysisError(
            f"pointwise excess condition fails at theta={theta} "
            f"(min {wmin} < -{tw}); the equivalence applies to candidates "
            f"that satisfy it")
    e1, e2 = pt.e_sum([eta, paired_slope(lam_bar, eta)])[0].tolist()
    q1 = lam_bar * e1 + (1.0 - lam_bar) * e2
    zero_q1 = abs(q1) <= td
    zero_e = abs(e1) <= td and abs(e2) <= td
    return EquivalenceRecord(
        theta=theta, side=side, q1_sum=q1, e_sum_direction=e1,
        e_sum_paired=e2, weierstrass_min=wmin, tol_deg=td, tol_w=tw,
        zero_q1=zero_q1, zero_e=zero_e, passed=zero_q1 == zero_e)


# ---------------------------------------------------------------------------
# the full pipeline

@dataclass(frozen=True)
class AnalysisSettings:
    """Grids, tolerances and sampling knobs for the full pipeline."""

    euler_grid: int = 100
    scan_grid: int = 200
    degeneracy_grid: int = DEFAULT_DEGENERACY_GRID
    interval_points: int = DEFAULT_INTERVAL_POINTS
    radii: Tuple[float, ...] = DEFAULT_RADII
    lambdas: Tuple[float, ...] = DEFAULT_LAMBDAS
    scales: Tuple[float, ...] = DEFAULT_SCALES
    tol_w: Optional[float] = None
    tol_deg: Optional[float] = None
    tol_eq: Optional[float] = None
    tol_euler: Optional[float] = None
    sweep_levels: int = 8
    sweep_ratio: float = 0.5
    quad_order: Optional[int] = None
    seed: int = 0


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
    weierstrass: Optional[WeierstrassScanReport]
    findings: Tuple[DegeneracyFinding, ...]
    verdicts: Tuple[Verdict, ...]
    expansion_checks: Tuple[IncrementRecord, ...]
    overall: str
    notes: Tuple[str, ...] = ()
    stage_errors: Tuple[Tuple[str, str], ...] = ()


def euler_stage(p: DelayProblem, cand: CandidateExtremal,
                 config: AnalysisSettings) -> EulerStage:
    ts = np.linspace(p.t0, p.t1, config.euler_grid)
    # one batch: every grid point from the right, the endpoint t1 from the left
    sides = ["right" if t < p.t1 - BREAK_TOL else "left" for t in ts]
    vals = np.max(np.abs(conditions.euler_residual(p, cand, ts, sides)), axis=0)
    worst = int(np.argmax(vals))
    tol, = resolve_tols(p, cand, (config.tol_euler, DEFAULT_TOL_EULER))
    return EulerStage(grid_size=config.euler_grid,
                      max_residual=float(vals[worst]),
                      argmax_t=float(ts[worst]),
                      tolerance=tol,
                      extremal=float(vals[worst]) <= tol)


def _expansion_spots(p: DelayProblem, cand: CandidateExtremal,
                     config: AnalysisSettings) -> List[NeedleSpec]:
    theta = 0.5 * (p.t0 + (p.t1 - p.h))
    xi = direction_set(p.dim, config.seed)[0]
    lam = config.lambdas[0] if config.lambdas else 0.5
    return [NeedleSpec(theta=theta, lam=lam, xi=xi, side="right"),
            NeedleSpec(theta=theta, lam=lam, xi=xi, side="left")]


def full_report(p: DelayProblem, cand: CandidateExtremal,
                config: AnalysisSettings = AnalysisSettings()) -> AnalysisReport:
    """Run every stage in order and collect the evidence.

    Pipeline: Euler residual grid -> pointwise excess scan -> degeneracy
    detection -> interval and point condition checks -> increment
    expansion spot checks.  A non-extremal candidate stops the pipeline
    after the first stage; a pointwise excess violation records the
    strong-minimum failure and skips the degeneracy machinery, whose
    hypotheses no longer hold.  Deterministic for a fixed config.
    """
    notes: List[str] = []
    errors: List[Tuple[str, str]] = []
    verdicts: List[Verdict] = []
    findings: List[DegeneracyFinding] = []
    expansion: List[IncrementRecord] = []

    try:
        # the |L| scale behind every unset tolerance, resolved once
        tw, td, te = resolve_tols(
            p, cand, (config.tol_w, DEFAULT_TOL_W),
            (config.tol_deg, DEFAULT_TOL_DEG),
            (config.tol_euler, DEFAULT_TOL_EULER))
        config = replace(config, tol_w=tw, tol_deg=td, tol_euler=te)
        euler = euler_stage(p, cand, config)
    except (ValueError, ArithmeticError) as exc:
        return AnalysisReport(
            euler=None, weierstrass=None, findings=(), verdicts=(),
            expansion_checks=(), overall="ERROR", notes=tuple(notes),
            stage_errors=(("euler", str(exc)),))
    if not euler.extremal:
        notes.append(
            f"Euler residual {euler.max_residual} at t={euler.argmax_t} "
            f"exceeds {euler.tolerance}: not an extremal; later stages skipped")
        return AnalysisReport(
            euler=euler, weierstrass=None, findings=(), verdicts=(),
            expansion_checks=(), overall="NOT_EXTREMAL", notes=tuple(notes),
            stage_errors=())

    try:
        scan = conditions.weierstrass_scan(
            p, cand,
            t_grid=np.linspace(p.t0, p.t1, config.scan_grid),
            xi_samples=xi_sample_set(p.dim, config.radii, config.seed),
            tol_w=config.tol_w, tol_deg=config.tol_deg)
    except (ValueError, ArithmeticError) as exc:
        return AnalysisReport(
            euler=euler, weierstrass=None, findings=(), verdicts=(),
            expansion_checks=(), overall="ERROR", notes=tuple(notes),
            stage_errors=(("weierstrass", str(exc)),))

    overall_rank = 0
    if scan.has_violation:
        overall_rank = _RANK["FAILS_STRONG"]
        notes.append(
            "pointwise excess condition violated; degeneracy analysis "
            "skipped (its hypotheses require the condition to hold)")
    else:
        try:
            findings = detect_degeneracy(
                p, cand,
                t_grid=np.linspace(p.t0, p.t1 - p.h, config.degeneracy_grid),
                direction_samples=direction_set(p.dim, config.seed),
                lam_grid=config.lambdas, tol_deg=config.tol_deg)
        except (ValueError, ArithmeticError) as exc:
            errors.append(("degeneracy", str(exc)))

        for finding in findings:
            if finding.kind == "interval":
                try:
                    v1, v2 = theorem_5_1_check(
                        p, cand, finding, n_points=config.interval_points,
                        scales=config.scales, tol_deg=config.tol_deg,
                        tol_eq=config.tol_eq)
                    verdicts.extend((v1, v2))
                except (ValueError, ArithmeticError) as exc:
                    errors.append(("theorem5", str(exc)))
                spots = [(finding.midpoint, "both")]
            else:
                spots = [(finding.theta, finding.side)]
            for theta, side in spots:
                try:
                    verdicts.append(theorem_6_1_check(
                        p, cand, theta, side, finding.lam, finding.direction,
                        tol_deg=config.tol_deg, tol_eq=config.tol_eq))
                except (ValueError, ArithmeticError) as exc:
                    notes.append(f"6.1 check skipped at t={theta}: {exc}")
                try:
                    verdicts.append(theorem_6_2_check(
                        p, cand, theta, side, finding.lam, finding.direction,
                        scales=config.scales, tol_deg=config.tol_deg,
                        tol_eq=config.tol_eq))
                except (ValueError, ArithmeticError) as exc:
                    notes.append(f"6.2 check skipped at t={theta}: {exc}")

    for spec in _expansion_spots(p, cand, config):
        try:
            record = verify_expansion(
                p, cand, spec, levels=config.sweep_levels,
                ratio=config.sweep_ratio, order=config.quad_order)
            expansion.append(record)
            if not record.passed:
                notes.append(
                    f"increment expansion mismatch for the {spec.side} "
                    f"needle at theta={spec.theta}: fitted "
                    f"({record.c1_fitted}, {record.c2_fitted}) vs predicted "
                    f"({record.c1_predicted}, {record.c2_predicted})")
        except (ValueError, ArithmeticError) as exc:
            errors.append((f"increment[{spec.side}]", str(exc)))

    for v in verdicts:
        overall_rank = max(overall_rank, _RANK[v.conclusion])
    if errors or not all(r.passed for r in expansion):
        overall_rank = max(overall_rank, _RANK["INCONCLUSIVE"])
    overall = next(k for k, r in _RANK.items() if r == overall_rank)
    return AnalysisReport(
        euler=euler, weierstrass=scan, findings=tuple(findings),
        verdicts=tuple(verdicts), expansion_checks=tuple(expansion),
        overall=overall, notes=tuple(notes), stage_errors=tuple(errors))
