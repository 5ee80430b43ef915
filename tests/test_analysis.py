"""Degeneracy findings, the numbered condition checks, and the pipeline."""

import importlib.util
import os

import numpy as np
import pytest

from needlecheck import analysis, increments
from needlecheck.analysis import (
    AnalysisError,
    AnalysisSettings,
    DegeneracyFinding,
    detect_degeneracy,
    euler_stage,
    full_report,
    theorem_5_1_check,
    theorem_6_1_check,
    theorem_6_2_check,
)
from needlecheck.conditions import (ExcessPoint, SettingsError, euler_residual,
                                   paired_slope, weierstrass_scan)
from needlecheck.exprs import ExprAst
from needlecheck.needle import NeedleError, NeedleSpec
from needlecheck.config import build_candidate, build_problem, parse_config
from needlecheck.problem import CandidateExtremal, eval_S
from needlecheck.trajectory import Trajectory

from conftest import SAMPLE_L, make_candidate, make_problem
from reference import remark_6_1_equivalence

# E = xi^2 (xi^2 - 1)^2 along zero: degenerate only at |xi| = 1, which pins
# lam to 1/2; the M sum is -1 there, and the degeneracy does not survive
# scaling eta below 1.
QUARTIC_WELL_L = "dx1^6 - 2*dx1^4 + dx1^2 - x1*dx1^2"


@pytest.fixture(scope="module")
def quartic_well():
    p = make_problem(QUARTIC_WELL_L)
    return p, make_candidate(p)


def _cert(pt, eta, lam, tol):
    e1 = abs(pt.e_sum(np.atleast_1d(eta)))
    e2 = abs(pt.e_sum(paired_slope(lam, np.atleast_1d(eta))))
    return e1 <= tol and e2 <= tol


# -- detect_degeneracy ------------------------------------------------------

def test_detect_interval_on_sample(sample_problem, sample_cand):
    findings = detect_degeneracy(sample_problem, sample_cand,
                                 AnalysisSettings(scan_grid=31))
    assert len(findings) == 1
    f = findings[0]
    assert f.kind == "interval"
    assert f.side == "both"
    assert f.t_lo == pytest.approx(0.0) and f.t_hi == pytest.approx(2.0)
    assert f.midpoint == pytest.approx(1.0)
    # two directions x three lambdas all certify the same extent
    assert len(f.certified_pairs) == 6
    lams = sorted(set(l for _, l in f.certified_pairs))
    assert lams == [0.25, 0.5, 0.75]
    assert max(f.evidence) <= f.tol_deg


def test_detect_nothing_on_strictly_convex():
    p = make_problem("dx1^2 + dy1^2")
    cand = make_candidate(p)
    settings = AnalysisSettings(scan_grid=31)
    assert detect_degeneracy(p, cand, settings) == []


def test_detect_interior_point_finding():
    # excess sum (t-1)^2 xi^2 vanishes at t = 1 only
    p = make_problem("(t - 1)^2*dx1^2")
    cand = make_candidate(p)
    findings = detect_degeneracy(p, cand, AnalysisSettings(scan_grid=31))
    assert len(findings) == 1
    f = findings[0]
    assert f.kind == "point"
    assert f.t_lo == f.t_hi == pytest.approx(1.0)
    assert f.side == "both"


def test_detect_edge_point_finding():
    # excess sum t*xi^2 vanishes at t = 0 only; only the right side exists
    p = make_problem("t*dx1^2")
    cand = make_candidate(p)
    findings = detect_degeneracy(p, cand, AnalysisSettings(scan_grid=31))
    assert len(findings) == 1
    assert findings[0].kind == "point"
    assert findings[0].t_lo == findings[0].t_hi == pytest.approx(0.0)
    assert findings[0].side == "right"


def test_detect_validates_inputs(sample_problem, sample_cand):
    # the scan grid's rows on [t0, t1 - h] and the unit directions are
    # built from the settings, which reject an empty grid and lambdas
    # outside (0, 1)
    with pytest.raises(SettingsError, match="key 'scan_grid'"):
        AnalysisSettings(scan_grid=0)
    with pytest.raises(SettingsError, match="key 'lambdas': must all be"):
        AnalysisSettings(lambdas=(0.5, 1.5))
    with pytest.raises(SettingsError, match="key 'lambdas': must be nonempty"):
        AnalysisSettings(lambdas=())
    # a one-time scan grid is t0 alone, and t1 - h joins it
    [f] = detect_degeneracy(sample_problem, sample_cand,
                            AnalysisSettings(scan_grid=1))
    assert (f.kind, f.t_lo, f.t_hi, f.side) == ("interval", 0.0, 2.0,
                                                "both")


def test_grid_stages_make_the_same_kernel_calls_at_any_grid_size(monkeypatch):
    # one block holds a 50- or a 200-point grid of the bundled problem, so
    # the Euler residual, the scan, degeneracy detection and the interval
    # check make the same compiled-kernel calls for both; a per-time
    # evaluation would scale with the grid
    calls = []
    compiled = ExprAst.compiled

    def counting(expr):
        kernel = compiled(expr)

        def count(*args):
            calls.append(expr)
            return kernel(*args)
        return count

    monkeypatch.setattr(ExprAst, "compiled", counting)
    p = make_problem(SAMPLE_L)   # built here, so its segments count too
    cand = make_candidate(p)

    def kernel_calls(stage, n):
        del calls[:]
        stage(p, cand, AnalysisSettings(scan_grid=n))
        return len(calls)

    finding = DegeneracyFinding(
        kind="interval", t_lo=0.0, t_hi=2.0, side="both",
        direction=np.array([1.0]), lam=0.5, evidence=(0.0, 0.0),
        tol_deg=1e-9, certified_pairs=(((1.0,), 0.5),))
    for stage in (euler_stage, weierstrass_scan, detect_degeneracy,
                  lambda p, cand, s: theorem_5_1_check(p, cand, finding, s)):
        assert kernel_calls(stage, 50) == kernel_calls(stage, 200) > 0


def test_certification_closed_under_pairing(quartic_well):
    # if (eta, lam) certifies then so does (paired eta, 1 - lam); the
    # pairing map is an involution across the lambda complement
    p, cand = quartic_well
    pt = ExcessPoint(p, cand, 1.0, "right")
    tol = 1e-9
    cases = [(1.0, 0.5), (-1.0, 0.5), (1.0, 0.25), (0.7, 0.5), (1.0, 0.75)]
    seen_true = seen_false = False
    for eta, lam in cases:
        a = _cert(pt, eta, lam, tol)
        partner = float(paired_slope(lam, np.array([eta]))[0])
        b = _cert(pt, partner, 1.0 - lam, tol)
        assert a == b, (eta, lam)
        seen_true |= a
        seen_false |= not a
    assert seen_true and seen_false  # the fixture exercises both outcomes
    back = paired_slope(0.75, paired_slope(0.25, np.array([2.0])))
    np.testing.assert_allclose(back, [2.0], atol=1e-15)


# -- interval conditions ----------------------------------------------------

def test_interval_check_on_sample(sample_problem, sample_cand):
    finding = detect_degeneracy(sample_problem, sample_cand,
                                AnalysisSettings(scan_grid=31))[0]
    v1, v2 = theorem_5_1_check(sample_problem, sample_cand, finding)
    assert v1.theorem == "5.1(i)" and v2.theorem == "5.1(ii)"
    assert v1.conclusion == "FAILS_STRONG"
    assert v1.value == pytest.approx(-2.0, abs=1e-9)
    assert v1.tolerance == pytest.approx(3e-7, rel=1e-6)
    assert v1.location == (finding.t_lo, finding.t_hi)
    assert v2.conclusion == "FAILS_WEAK"
    assert v2.value == pytest.approx(-2.0 * 0.125 ** 3, abs=1e-9)
    assert v2.note == ("scale 1: violated; scale 0.5: violated; "
                       "scale 0.25: violated; scale 0.125: violated")


def test_interval_check_consistent_case():
    # L = x1 + y1 + dx1*dy1 has identically zero excess and zero M sums
    p = make_problem("x1 + y1 + dx1*dy1")
    cand = make_candidate(p)
    finding = DegeneracyFinding(
        kind="interval", t_lo=0.3, t_hi=1.7, side="both",
        direction=np.array([1.0]), lam=0.5, evidence=(0.0, 0.0),
        tol_deg=1e-9, certified_pairs=(((1.0,), 0.5),))
    v1, v2 = theorem_5_1_check(p, cand, finding)
    assert v1.conclusion == "CONSISTENT"
    assert v2.conclusion == "CONSISTENT"
    assert v2.note == ("scale 1: holds; scale 0.5: holds; "
                       "scale 0.25: holds; scale 0.125: holds")


def test_interval_check_small_ball_escape(quartic_well):
    # degeneracy needs |eta| = 1 exactly, so scaled directions decertify
    p, cand = quartic_well
    finding = DegeneracyFinding(
        kind="interval", t_lo=0.2, t_hi=1.8, side="both",
        direction=np.array([1.0]), lam=0.5, evidence=(0.0, 0.0),
        tol_deg=1e-9, certified_pairs=(((1.0,), 0.5),))
    v1, v2 = theorem_5_1_check(p, cand, finding)
    assert v1.conclusion == "FAILS_STRONG"
    assert v1.value == pytest.approx(-1.0, abs=1e-9)
    assert v2.conclusion == "CONSISTENT"
    assert "not certified in small ball" in v2.note
    assert "0.5" in v2.note


@pytest.mark.parametrize("scales", [(2.0, 1.0, 0.5), (0.5, 2.0)])
def test_interval_check_scale_order(quartic_well, scales):
    # 2*eta is not degenerate here; the interval check must still gate on
    # the finding's own direction, wherever scale 1 falls in the scale list
    # or whether it is there at all, and judge exactly the given scales
    p, cand = quartic_well
    finding = DegeneracyFinding(
        kind="interval", t_lo=0.2, t_hi=1.8, side="both",
        direction=np.array([1.0]), lam=0.5, evidence=(0.0, 0.0),
        tol_deg=1e-9, certified_pairs=(((1.0,), 0.5),))
    v1, v2 = theorem_5_1_check(p, cand, finding,
                               AnalysisSettings(scales=scales))
    assert v1 == theorem_5_1_check(p, cand, finding)[0]
    assert v2.conclusion == "CONSISTENT"
    words = {2.0: "not certified", 1.0: "violated", 0.5: "not certified"}
    assert v2.note == "degeneracy not certified in small ball; " + "; ".join(
        f"scale {s:g}: {words[s]}" for s in sorted(scales, reverse=True))


def test_interval_check_requires_scales():
    # the ladder of both checks comes from the settings, which reject an
    # empty or non-positive scale list
    with pytest.raises(SettingsError, match="key 'scales': must be nonempty"):
        AnalysisSettings(scales=())
    with pytest.raises(SettingsError, match="key 'scales': must all be posi"):
        AnalysisSettings(scales=(1.0, -0.5))


# E along zero vanishes at |xi| = 1 and 0.5 only, so eta = 1 certifies at
# scales 1 and 0.5 but not below; the M sum there is scale^3
BALL_L = "dx1^2*(dx1^2 - 1)^2*(dx1^2 - 0.25)^2 + x1*dx1^2"


def test_interval_and_point_ladders_are_judged_alike():
    p = make_problem(BALL_L)
    report = full_report(p, make_candidate(p))
    by_label = {v.theorem: v for v in report.verdicts}
    interval, point = by_label["5.1(ii)"], by_label["6.2(ii)"]
    assert interval.conclusion == point.conclusion == "CONSISTENT"
    assert interval.value == point.value == pytest.approx(0.125, abs=1e-12)
    assert interval.tolerance == point.tolerance
    assert interval.note == point.note == (
        "degeneracy not certified in small ball; scale 1: violated; "
        "scale 0.5: violated; scale 0.25: not certified; "
        "scale 0.125: not certified")


def test_interval_check_reads_the_scan_grid_rows(sample_problem, sample_cand):
    # with the scan, 5.1 reads its grid's right-side rows in [t_lo, t_hi],
    # both ends included, exactly as it does on a grid of its own
    p, cand = sample_problem, sample_cand
    scan = weierstrass_scan(p, cand)
    [finding] = detect_degeneracy(p, cand, scan=scan)
    assert (finding.t_lo, finding.t_hi) == (0.0, 2.0)
    assert theorem_5_1_check(p, cand, finding, scan=scan) \
        == theorem_5_1_check(p, cand, finding)


def test_interval_check_rejects_an_interval_without_grid_rows(sample_problem,
                                                             sample_cand):
    # the scan grid's step is 3/199 (0.015): no row lies in [1.001, 1.002]
    narrow = DegeneracyFinding(
        kind="interval", t_lo=1.001, t_hi=1.002, side="both",
        direction=np.array([1.0]), lam=0.5, evidence=(0.0, 0.0),
        tol_deg=1e-9, certified_pairs=(((1.0,), 0.5),))
    with pytest.raises(AnalysisError) as info:
        theorem_5_1_check(sample_problem, sample_cand, narrow)
    assert str(info.value) == ("no scan grid row lies in the interval "
                               "[1.001, 1.002] (scan_grid = 200)")


def test_interval_check_rejects_corrupted_finding(sample_problem, sample_cand):
    fake = DegeneracyFinding(
        kind="interval", t_lo=2.2, t_hi=2.8, side="both",
        direction=np.array([1.0]), lam=0.5, evidence=(0.0, 0.0),
        tol_deg=1e-9, certified_pairs=())
    # the shared certification message, from the first interior point
    with pytest.raises(AnalysisError) as info:
        theorem_5_1_check(sample_problem, sample_cand, fake)
    assert str(info.value) == (
        "degeneracy not certified at theta=2.201005025125628 from the right: "
        "|E(eta)| = 1.0 exceeds 2e-09")
    point = DegeneracyFinding(
        kind="point", t_lo=1.0, t_hi=1.0, side="both",
        direction=np.array([1.0]), lam=0.5, evidence=(0.0, 0.0), tol_deg=1e-9)
    with pytest.raises(AnalysisError, match="interval"):
        theorem_5_1_check(sample_problem, sample_cand, point)


# -- point conditions -------------------------------------------------------

def test_point_check_two_sided(sample_problem, sample_cand):
    v = theorem_6_1_check(sample_problem, sample_cand, 1.0, "both", 0.5,
                          np.array([1.0]))
    assert v.theorem == "6.1(ii)"
    assert v.conclusion == "FAILS_STRONG"
    assert v.value == pytest.approx(-2.0, abs=1e-9)
    assert v.note == ""


def test_point_check_one_sided_consistency(sample_problem, sample_cand):
    # the one-sided brackets agree at a smooth interior point, so at most
    # one of the two inequalities can fail
    vr = theorem_6_1_check(sample_problem, sample_cand, 1.0, "right", 0.5,
                           np.array([1.0]))
    vl = theorem_6_1_check(sample_problem, sample_cand, 1.0, "left", 0.5,
                           np.array([1.0]))
    assert vr.theorem == "6.1(i)" and vl.theorem == "6.1(i)"
    assert vr.value == pytest.approx(vl.value, abs=1e-7)
    assert vr.value == pytest.approx(-1.0, abs=1e-7)  # 0.5*(-2) + 0
    assert vr.conclusion == "FAILS_STRONG"  # >= 0 required from the right
    assert vl.conclusion == "CONSISTENT"    # <= 0 required from the left


def test_point_check_argument_validation(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    with pytest.raises(AnalysisError, match="side"):
        theorem_6_1_check(p, cand, 1.0, "up", 0.5, np.array([1.0]))
    with pytest.raises(NeedleError, match="nonzero"):
        theorem_6_1_check(p, cand, 1.0, "both", 0.5, np.array([0.0]))
    with pytest.raises(NeedleError, match="lambda"):
        theorem_6_1_check(p, cand, 1.0, "both", 1.2, np.array([1.0]))
    with pytest.raises(NeedleError, match="admissible"):
        theorem_6_1_check(p, cand, 0.0, "left", 0.5, np.array([1.0]))
    # not degenerate in the tail: certification is a precondition
    with pytest.raises(AnalysisError, match="not certified"):
        theorem_6_1_check(p, cand, 2.5, "right", 0.5, np.array([1.0]))


def test_point_check_one_sided_bracket_closed_form():
    # L = (t - 1)*dx1^2 along zero: E sum = (t - 1) xi^2 vanishes at 1 for
    # every slope, M = 0, and d/dt(Q_2 sum) = lam^2 xi^2 + (1 - lam^2) pair^2
    # = 2 lam^2 xi^2 / (1 - lam) from either side
    p = make_problem("(t - 1)*dx1^2")
    cand = make_candidate(p)
    lam, xi = 0.25, 1.5
    want = 2.0 * lam ** 2 * xi ** 2 / (1.0 - lam)
    vr = theorem_6_1_check(p, cand, 1.0, "right", lam, np.array([xi]))
    vl = theorem_6_1_check(p, cand, 1.0, "left", lam, np.array([xi]))
    assert vr.value == pytest.approx(want, rel=1e-12)
    assert vl.value == pytest.approx(want, rel=1e-12)
    assert (vr.conclusion, vl.conclusion) == ("CONSISTENT", "FAILS_STRONG")
    v1, v2 = theorem_6_2_check(p, cand, 1.0, "left", lam, np.array([xi]),
                               AnalysisSettings(scales=(1.0, 0.5)))
    assert v1 == vl
    assert v2.conclusion == "FAILS_WEAK"
    assert v2.value == pytest.approx(0.25 * want, rel=1e-12)


@pytest.mark.parametrize("lag", [
    SAMPLE_L, f"({SAMPLE_L})*(2 + sin(2*3.141592653589793*t))"],
    ids=["sample", "modulated"])
@pytest.mark.parametrize("theta", [0.5, 1.0, 1.3])
@pytest.mark.parametrize("eta", [1.0, -0.7])
def test_one_sided_bracket_is_twice_the_needle_c2(lag, theta, eta):
    # the 6.1(i) bracket at (theta, lam, eta) is the eps^2 coefficient of
    # the needle with the same (theta, lam, eta), doubled, with the left
    # one's sign flipped: the same evaluations, so bit-equal
    p = make_problem(lag)
    cand = make_candidate(p)
    lam = 0.5
    for side, sign in (("right", 2.0), ("left", -2.0)):
        v = theorem_6_1_check(p, cand, theta, side, lam, np.array([eta]))
        [(_, c2)] = increments.expansion_prediction(
            p, cand, [NeedleSpec(theta, lam, [eta], side)])
        assert v.value == sign * c2


def test_point_check_two_sided_hypotheses():
    # one-sided M sums that differ across the candidate's kink at 1
    p = make_problem(SAMPLE_L + " + x1*dx1^3")
    cand = CandidateExtremal.from_interior(p, Trajectory.from_segments([
        (0.0, 1.0, ["0.3*t*(1 - t)"]), (1.0, 3.0, ["0.2*(t - 1)*(3 - t)"])]))
    with pytest.raises(AnalysisError, match="M sums disagree at theta=1.0"):
        theorem_6_1_check(p, cand, 1.0, "both", 0.5, np.array([1.0]))
    # E sum = (t - 1)(xi^2 + xi^3): its rate xi^2 (1 + xi) vanishes at
    # eta = -1 and not at the paired slope 1
    p = make_problem("(t - 1)*(dx1^2 + dx1^3)")
    cand = make_candidate(p)
    with pytest.raises(AnalysisError, match=r"not stationary at theta=1.0 "
                                            r"from the right \(slope 2.0\)"):
        theorem_6_1_check(p, cand, 1.0, "both", 0.5, np.array([-1.0]))
    with pytest.raises(AnalysisError, match="not stationary"):
        theorem_6_2_check(p, cand, 1.0, "both", 0.5, np.array([-1.0]))


def test_point_certified_from_one_side_only():
    # L = dx1^2 (dx1^2 - 1)^2 along a candidate whose slope d drops from 1
    # to 0 at t = 1: at d = 0 the excess of xi = +-1 is exactly 0, so the
    # unit directions certify from the right with lam = 1/2 (pair -xi);
    # at d = 1 the excess of xi = 1 is 36, so nothing certifies from the
    # left, nor at the grid times 0 (d = 1) and 2 (d = -1/2)
    p = make_problem("dx1^2*(dx1^2 - 1)^2")
    cand = CandidateExtremal.from_interior(p, Trajectory.from_segments([
        (0.0, 1.0, ["t"]), (1.0, 3.0, ["1 - 0.25*(t - 1)^2"])]))
    [finding] = detect_degeneracy(p, cand, AnalysisSettings(scan_grid=4))
    assert (finding.kind, finding.t_lo, finding.side) == ("point", 1.0,
                                                          "right")
    assert finding.certified_pairs == (((1.0,), 0.5), ((-1.0,), 0.5))
    eta = finding.direction
    theorem_6_1_check(p, cand, 1.0, "right", 0.5, eta)
    with pytest.raises(AnalysisError,
                       match="not certified at theta=1.0 from the left"):
        theorem_6_1_check(p, cand, 1.0, "both", 0.5, eta)


def test_small_ball_check_fails_weak(sample_problem, sample_cand):
    _, v = theorem_6_2_check(sample_problem, sample_cand, 1.0, "both", 0.5,
                             np.array([1.0]))
    assert v.theorem == "6.2(ii)"
    assert v.conclusion == "FAILS_WEAK"
    assert v.value == pytest.approx(-2.0 * 0.125 ** 3, abs=1e-9)
    assert v.note == ("scale 1: violated; scale 0.5: violated; "
                      "scale 0.25: violated; scale 0.125: violated")


def test_small_ball_check_decertifies(quartic_well):
    p, cand = quartic_well
    v61, v = theorem_6_2_check(p, cand, 1.0, "both", 0.5, np.array([1.0]),
                               AnalysisSettings(scales=(1.0, 0.5)))
    assert v.theorem == "6.2(ii)"
    assert v.conclusion == "CONSISTENT"
    assert v.note.startswith("degeneracy not certified in small ball")
    assert "scale 1: violated" in v.note
    assert "scale 0.5: not certified" in v.note
    # the pointwise check still fails at the unscaled direction
    assert v61 == theorem_6_1_check(p, cand, 1.0, "both", 0.5,
                                    np.array([1.0]))
    assert v61.conclusion == "FAILS_STRONG"
    assert v61.value == pytest.approx(-1.0, abs=1e-9)


def test_small_ball_check_is_one_engine_call_at_any_ladder_length(
        monkeypatch):
    # the whole ladder rides on one ExcessPoint: the midpoint of the
    # bundled interval certifies at every scale, from both sides, so every
    # stage runs at every scale, and the kernel calls must not grow with
    # the number of scales
    calls, points = [], []
    compiled = ExprAst.compiled

    def counting(expr):
        kernel = compiled(expr)

        def count(*args):
            calls.append(expr)
            return kernel(*args)
        return count

    class Counted(ExcessPoint):
        __slots__ = ()

        def __init__(self, *args):
            points.append(args)
            super().__init__(*args)

    monkeypatch.setattr(ExprAst, "compiled", counting)
    monkeypatch.setattr(analysis, "ExcessPoint", Counted)
    p = make_problem(SAMPLE_L)
    cand = make_candidate(p)

    def engine_use(scales):
        del calls[:], points[:]
        _, v = theorem_6_2_check(p, cand, 1.0, "both", 0.5, np.array([1.0]),
                                 AnalysisSettings(scales=scales))
        assert v.conclusion == "FAILS_WEAK"
        return len(points), len(calls)

    two = engine_use((1.0, 0.5))
    assert two[0] == 1
    assert engine_use((1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)) == two


def test_small_ball_check_one_sided_label(sample_problem, sample_cand):
    v61, v = theorem_6_2_check(sample_problem, sample_cand, 1.0, "right",
                               0.5, np.array([1.0]),
                               AnalysisSettings(scales=(1.0, 0.5)))
    assert v61.theorem == "6.1(i)"
    assert v.theorem == "6.2(i)"
    assert v.conclusion == "FAILS_WEAK"


def test_small_ball_check_requires_scales(sample_problem, sample_cand):
    # the ladder of both checks is the settings' scales, nonempty and
    # positive (test_interval_check_requires_scales), under one rule:
    # distinct scales, largest first
    with pytest.raises(SettingsError, match="key 'scales'"):
        AnalysisSettings(scales=())
    p, cand = sample_problem, sample_cand
    _, v = theorem_6_2_check(p, cand, 1.0, "both", 0.5, np.array([1.0]),
                             AnalysisSettings(scales=(0.25, 1.0, 0.25)))
    assert v.note == "scale 1: violated; scale 0.25: violated"
    [finding] = detect_degeneracy(p, cand,
                                  AnalysisSettings(scan_grid=31))
    _, v = theorem_5_1_check(p, cand, finding,
                             AnalysisSettings(scales=(0.25, 1.0, 0.25)))
    assert v.note == "scale 1: violated; scale 0.25: violated"


def test_tail_note_present():
    # the zero Lagrangian stays degenerate in the tail, where the checks
    # annotate that the delayed slot has been zeroed out
    p = make_problem("0")
    cand = make_candidate(p)
    v61 = theorem_6_1_check(p, cand, 2.5, "right", 0.5, np.array([1.0]))
    assert v61.conclusion == "CONSISTENT"
    assert v61.note == "tail regime: delayed-slot contributions vanish beyond t1"
    v, v62 = theorem_6_2_check(p, cand, 2.5, "right", 0.5, np.array([1.0]),
                               AnalysisSettings(scales=(1.0,)))
    assert v == v61
    assert v62.conclusion == "CONSISTENT"
    assert v62.note == ("scale 1: holds; "
                        "tail regime: delayed-slot contributions vanish beyond t1")
    interior = theorem_6_1_check(p, cand, 1.0, "right", 0.5, np.array([1.0]))
    assert interior.note == ""


# -- equivalence ------------------------------------------------------------

def test_equivalence_co_occurs_on_degenerate_stretch(sample_problem, sample_cand):
    rec = remark_6_1_equivalence(sample_problem, sample_cand, 1.0, "right",
                                 0.5, np.array([1.0]))
    assert rec.zero_q1 and rec.zero_e and rec.passed
    assert rec.q1_sum == pytest.approx(0.0, abs=rec.tol_deg)


def test_equivalence_co_fails_in_tail(sample_problem, sample_cand):
    rec = remark_6_1_equivalence(sample_problem, sample_cand, 2.5, "right",
                                 0.5, np.array([1.0]))
    assert not rec.zero_q1 and not rec.zero_e and rec.passed
    assert rec.q1_sum == pytest.approx(1.0, abs=1e-9)


def test_equivalence_preconditions(sample_problem, sample_cand):
    with pytest.raises(NeedleError, match="nonzero"):
        remark_6_1_equivalence(sample_problem, sample_cand, 1.0, "right",
                               0.5, np.array([0.0]))
    p = make_problem("-dx1^2")
    cand = make_candidate(p)
    with pytest.raises(AnalysisError, match="excess condition"):
        remark_6_1_equivalence(p, cand, 1.0, "right", 0.5, np.array([1.0]))


def test_equivalence_validates_like_the_point_checks(sample_problem,
                                                     sample_cand):
    # a direction of the wrong dimension, and a right-sided theta = t1,
    # where no right needle fits
    with pytest.raises(NeedleError, match="dimension"):
        remark_6_1_equivalence(sample_problem, sample_cand, 1.0, "right",
                               0.5, np.array([1.0, 2.0]))
    with pytest.raises(NeedleError, match="admissible range"):
        remark_6_1_equivalence(sample_problem, sample_cand, 3.0, "right",
                               0.5, np.array([1.0]))
    with pytest.raises(AnalysisError, match="'right' or 'left', got 'both'"):
        remark_6_1_equivalence(sample_problem, sample_cand, 1.0, "both",
                               0.5, np.array([1.0]))


# -- the pipeline -----------------------------------------------------------

def test_euler_stage_on_sample(sample_problem, sample_cand):
    stage = euler_stage(sample_problem, sample_cand, AnalysisSettings())
    assert stage.grid_size == 200
    assert stage.extremal
    assert stage.max_residual <= 1e-8


def test_euler_stage_reads_the_scan_grid():
    # x = sin(pi t / 3) off the extremal x = 0 of dx1^2: the residual
    # 2x'' peaks at t = 1.5, a time of the 31-point scan grid, where the
    # stage finds it
    p = make_problem("dx1^2")
    cand = make_candidate(p, ["sin(1.0471975511965976*t)"])
    stage = euler_stage(p, cand, AnalysisSettings(scan_grid=31))
    assert not stage.extremal and stage.grid_size == 31
    assert stage.argmax_t == np.linspace(0.0, 3.0, 31)[15] == 1.5
    assert stage.max_residual == np.max(np.abs(
        euler_residual(p, cand, np.array([1.5]))))


SINH = "0.5*(exp(t) - exp(-t))"


@pytest.mark.parametrize("k", [1.0, 1e3, 1e6])
def test_euler_stage_passes_the_sinh_extremal_at_any_scale(k):
    # x = sinh t solves x'' = x, the Euler equation of k*(dx1^2 + x1^2)
    # (no delayed terms), so it is an extremal whatever the factor k
    p = make_problem(f"{k!r}*(dx1^2 + x1^2)", phi=[SINH], x1=[np.sinh(3.0)])
    stage = euler_stage(p, make_candidate(p, [SINH]), AnalysisSettings())
    assert stage.extremal
    assert stage.max_residual <= 1e-8


@pytest.mark.parametrize("k", [1.0, 1e6])
def test_euler_tolerance_scales_with_the_lagrangian(k):
    # a 1e-12 bump leaves residual 2k*1e-12*(t^2 - 3t - 2): the candidate is
    # as close to an extremal at k = 1e6 as at k = 1, relative to |L|
    p = make_problem(f"{k!r}*(dx1^2 + x1^2)", phi=[SINH], x1=[np.sinh(3.0)])
    cand = make_candidate(p, [SINH + " + 1e-12*t*(3 - t)"])
    stage = euler_stage(p, cand, AnalysisSettings())
    assert 0.0 < stage.max_residual
    assert stage.extremal
    assert stage.tolerance > 1e-8 * k
    # an explicit tolerance is used as given
    fixed = euler_stage(p, cand, AnalysisSettings(tol_euler=1e-8))
    assert fixed.tolerance == 1e-8 and fixed.extremal == (k == 1.0)


@pytest.mark.parametrize("lag", ["dx1^2 + x1^1.5", "dx1^2 + (x1 + dx1)^1.5"])
def test_euler_stage_skips_partials_of_frozen_arguments(lag):
    # along the zero candidate only t moves; d/dx1 and d/ddx1 of
    # Ldx1 = 2*dx1 + 1.5*(x1 + dx1)^0.5 are infinite there, and with rate 0
    # they must contribute exactly 0 rather than 0*inf
    p = make_problem(lag)
    stage = euler_stage(p, make_candidate(p), AnalysisSettings())
    assert stage.max_residual == 0.0
    assert stage.extremal


def test_euler_stage_reports_an_unbounded_second_derivative():
    # x = t^1.5 is C1 with xddot = 0.75/sqrt(t), unbounded at t0 = 0: the
    # residual 2*xddot there is inf.  The delayed slot at t0 + h carries
    # dy = xdot(t0) with the same infinite rate, but Ldy = 0 does not
    # depend on dy, so it must add nothing rather than 0*inf = nan
    p = make_problem("dx1^2", x1=[3.0 ** 1.5])
    stage = euler_stage(p, make_candidate(p, ["t^1.5"]), AnalysisSettings())
    assert stage.max_residual == np.inf
    assert stage.argmax_t == 0.0
    assert not stage.extremal



def _tent(p):
    return CandidateExtremal.from_interior(p, Trajectory.from_segments(
        [(0.0, 1.5, ["t"]), (1.5, 3.0, ["3 - t"])]))


def test_a_momentum_jump_rejects_a_candidate_with_zero_residual():
    # each piece of the tent solves the Euler equation, but the momentum
    # P = Ldx1(t) + Ldy1(t+1) = 4*xdot(t) for t <= 2 jumps from 4 to -4 at
    # the corner; the tent is no minimum: S = 5 against 0 at x = 0
    p = make_problem("dx1^2 + dy1^2")
    cand = _tent(p)
    assert eval_S(p, cand.traj) == pytest.approx(5.0, abs=1e-12)
    stage = euler_stage(p, cand, AnalysisSettings())
    assert stage.max_residual == 0.0
    assert (stage.max_jump, stage.jump_t) == (8.0, 1.5)
    assert not stage.extremal
    report = full_report(p, cand)
    assert report.overall == "NOT_EXTREMAL"
    assert report.notes[0].startswith("momentum jump 8.0 at t=1.5 exceeds ")


def test_momentum_is_continuous_across_a_break_of_an_extremal():
    # the sinh extremal split at t = 1.3: its momentum times 1.3 +- 1 and
    # 1 (the history joint plus h) all read a jump of exactly 0
    p = make_problem("1000.0*(dx1^2 + x1^2)", phi=[SINH], x1=[np.sinh(3.0)])
    cand = CandidateExtremal.from_interior(p, Trajectory.from_segments(
        [(0.0, 1.3, [SINH]), (1.3, 3.0, [SINH])]))
    stage = euler_stage(p, cand, AnalysisSettings())
    assert stage.max_jump == 0.0 and stage.extremal
    assert full_report(p, cand).overall == "CONSISTENT"


def test_a_candidate_without_breakpoints_in_range_reports_no_jump_time():
    # the only break of the spliced candidate is t0, and t0 + h = t1 - h
    # is left out until the t1 gate is side-aware, so no time is checked
    p = make_problem("dx1^2", t1=2.0)
    stage = euler_stage(p, make_candidate(p), AnalysisSettings())
    assert (stage.max_jump, stage.jump_t) == (0.0, None)
    assert stage.extremal


def test_the_workload_candidates_have_no_momentum_jump(sample_problem,
                                                      sample_cand):
    stage = euler_stage(sample_problem, sample_cand, AnalysisSettings())
    assert (stage.max_jump, stage.jump_t) == (0.0, 1.0)
    assert full_report(sample_problem, sample_cand).overall == "FAILS_WEAK"
    cfg = parse_config(_workloads().convex5_config(0))
    p = build_problem(cfg)
    cand = build_candidate(cfg, p)
    stage = euler_stage(p, cand, cfg.analysis)
    assert (stage.max_jump, stage.jump_t) == (0.0, 1.0)
    assert full_report(p, cand, cfg.analysis).overall == "CONSISTENT"


def _workloads():
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

def test_settings_defaults():
    s = AnalysisSettings()
    assert s.scan_grid == 200
    assert not hasattr(s, "degeneracy_grid")
    assert s.scales == (1.0, 0.5, 0.25, 0.125)
    assert s.sweep_levels == 8 and s.sweep_ratio == 0.5


def test_full_report_on_sample(sample_problem, sample_cand):
    report = full_report(sample_problem, sample_cand)
    assert report.overall == "FAILS_WEAK"
    assert report.euler.extremal
    assert not report.weierstrass.has_violation
    assert len(report.findings) == 1
    f = report.findings[0]
    assert (f.kind, f.t_lo, f.t_hi) == ("interval", 0.0, 2.0)
    labels = [v.theorem for v in report.verdicts]
    assert labels == ["5.1(i)", "5.1(ii)", "6.1(ii)", "6.2(ii)"]
    conclusions = {v.theorem: v.conclusion for v in report.verdicts}
    assert conclusions == {"5.1(i)": "FAILS_STRONG", "5.1(ii)": "FAILS_WEAK",
                           "6.1(ii)": "FAILS_STRONG", "6.2(ii)": "FAILS_WEAK"}
    assert len(report.expansion_checks) == 2
    assert all(r.passed for r in report.expansion_checks)
    assert report.stage_errors == ()


def test_full_report_resolves_the_lagrangian_scale_once(monkeypatch):
    import importlib.resources as res

    from needlecheck import conditions
    from needlecheck.config import build_candidate, build_problem, parse_config

    cfg = parse_config((res.files("needlecheck") / "configs" /
                        "example_7_1.cfg").read_text(encoding="utf-8"))
    p = build_problem(cfg)
    calls = []
    scale = conditions.lagrangian_scale
    monkeypatch.setattr(conditions, "lagrangian_scale",
                        lambda *a: calls.append(a) or scale(*a))
    report = full_report(p, build_candidate(cfg, p), cfg.analysis)
    assert report.overall == "FAILS_WEAK" and report.verdicts
    assert len(calls) == 1


def test_full_report_builds_the_argument_rows_of_each_grid_once(
        sample_problem, sample_cand, monkeypatch):
    # the candidate's argument rows (problem.along): one call for the |L|
    # scale, and a pair (at t and t + h) for each of the scan grid, which
    # the Euler residual, the scan, detection and 5.1 share, the momentum
    # jump's times, the 6.1/6.2 point and the expansion needles' point
    from needlecheck import conditions, problem
    calls = []

    def counting(*args):
        calls.append(args)
        return problem.along(*args)
    for module in (conditions, analysis):
        monkeypatch.setattr(module, "along", counting)
    report = full_report(sample_problem, sample_cand)
    assert report.overall == "FAILS_WEAK"
    assert len(calls) == 9


def test_verdict_builds_second_partials_only_in_moving_arguments():
    # zero candidate and zero history: only t moves along the candidate, so
    # every time rate needs d/dt of L and of its slope partials, nothing else
    n = 5
    p = make_problem(" + ".join(
        f"(2 + sin(t))*dx{i}^2 + dy{i}^2 + x{i}^2 + 0.25*dx{i}*dy{i}"
        for i in range(1, n + 1)), dim=n)
    full_report(p, make_candidate(p), AnalysisSettings(scan_grid=20))
    built = [k for k in p.lagrangian.partials if isinstance(k, tuple)]
    assert all(k[-1] == "t" for k in built)
    assert len(p.lagrangian.partials) == 4 * n + 1 + 2 * n


def test_full_report_makes_one_point_engine_call_per_spot(
        sample_problem, sample_cand, monkeypatch):
    calls = []
    real = analysis._point_quantity
    monkeypatch.setattr(analysis, "_point_quantity",
                        lambda *a: calls.append(a) or real(*a))
    report = full_report(sample_problem, sample_cand)
    assert [v.theorem for v in report.verdicts][2:] == ["6.1(ii)", "6.2(ii)"]
    assert len(calls) == 1


def test_full_report_skips_a_failing_spot_with_one_note(
        sample_problem, sample_cand, monkeypatch):
    def fail(*args):
        raise AnalysisError("hypothesis fails")
    monkeypatch.setattr(analysis, "_point_quantity", fail)
    report = full_report(sample_problem, sample_cand)
    assert [v.theorem for v in report.verdicts] == ["5.1(i)", "5.1(ii)"]
    assert [n for n in report.notes if "skipped" in n] == [
        "6.1/6.2 checks skipped at t=1.0: hypothesis fails"]


def test_full_report_stops_on_non_extremal():
    p = make_problem(SAMPLE_L)
    cand = make_candidate(p, ["0.1*t*(3 - t)"])
    report = full_report(p, cand)
    assert report.overall == "NOT_EXTREMAL"
    assert report.weierstrass is None
    assert report.findings == () and report.verdicts == ()
    assert any("not an extremal" in n for n in report.notes)


def test_full_report_stops_on_scan_error():
    # slope -1 and below take 1 + dx1 outside the domain of ^1.5
    p = make_problem("(1 + dx1)^1.5")
    report = full_report(p, make_candidate(p))
    assert report.overall == "ERROR"
    assert report.euler.extremal and report.weierstrass is None
    assert report.findings == () and report.verdicts == ()
    assert report.expansion_checks == ()
    (stage, msg), = report.stage_errors
    assert stage == "weierstrass" and "'(1 + dx1)^1.5'" in msg


def test_full_report_keeps_evidence_after_a_later_stage_error(
        sample_problem, sample_cand, monkeypatch):
    def fail(*args, **kwargs):
        raise AnalysisError("stage failed")
    monkeypatch.setattr(analysis, "theorem_5_1_check", fail)
    monkeypatch.setattr(analysis, "verify_expansion", fail)
    report = full_report(sample_problem, sample_cand)
    assert [v.theorem for v in report.verdicts] == ["6.1(ii)", "6.2(ii)"]
    assert report.overall == "FAILS_WEAK"
    assert len(report.findings) == 1 and report.expansion_checks == ()
    assert [s for s, _ in report.stage_errors] == [
        "theorem5", "increment[right]", "increment[left]"]


def test_full_report_is_inconclusive_when_the_cross_check_fails(monkeypatch):
    p = make_problem("dx1^2 + dy1^2")
    real = increments.expansion_prediction
    # the verdict predicts both needles in one batched call
    monkeypatch.setattr(increments, "expansion_prediction",
                        lambda *a: [(c1, c2 + 1.0) for c1, c2 in real(*a)])
    report = full_report(p, make_candidate(p))
    assert report.overall == "INCONCLUSIVE"
    assert [r.passed for r in report.expansion_checks] == [False, False]
    assert report.findings == () and report.verdicts == ()


def test_full_report_is_inconclusive_after_a_later_stage_error(monkeypatch):
    def fail(*args, **kwargs):
        raise AnalysisError("stage failed")
    monkeypatch.setattr(analysis, "verify_expansion", fail)
    p = make_problem("dx1^2 + dy1^2")
    report = full_report(p, make_candidate(p))
    assert report.overall == "INCONCLUSIVE"
    assert [s for s, _ in report.stage_errors] == [
        "increment[right]", "increment[left]"]


def test_full_report_flags_excess_violation():
    p = make_problem("-dx1^2")
    cand = make_candidate(p)
    report = full_report(p, cand)
    assert report.overall == "FAILS_STRONG"
    assert report.weierstrass.has_violation
    assert report.findings == ()  # degeneracy machinery skipped
    assert any("excess condition violated" in n for n in report.notes)


def test_full_report_consistent_candidate():
    p = make_problem("dx1^2 + dy1^2")
    cand = make_candidate(p)
    report = full_report(p, cand)
    assert report.overall == "CONSISTENT"
    assert report.findings == () and report.verdicts == ()
    assert all(r.passed for r in report.expansion_checks)


def test_full_report_quartic_well(quartic_well):
    p, cand = quartic_well
    report = full_report(p, cand)
    assert report.overall == "FAILS_STRONG"  # strong fails, weak survives
    conclusions = {v.theorem: v.conclusion for v in report.verdicts}
    assert conclusions["5.1(i)"] == "FAILS_STRONG"
    assert conclusions["5.1(ii)"] == "CONSISTENT"
    assert conclusions["6.2(ii)"] == "CONSISTENT"
    ball_notes = [v.note for v in report.verdicts
                  if "not certified in small ball" in v.note]
    assert len(ball_notes) >= 2


def test_full_report_deterministic(sample_problem, sample_cand):
    a = full_report(sample_problem, sample_cand)
    b = full_report(sample_problem, sample_cand)
    assert [(v.theorem, v.conclusion, v.value, v.tolerance, v.note)
            for v in a.verdicts] == \
        [(v.theorem, v.conclusion, v.value, v.tolerance, v.note)
         for v in b.verdicts]
    assert a.weierstrass.overall_min == b.weierstrass.overall_min
    assert [(f.t_lo, f.t_hi) for f in a.findings] == \
        [(f.t_lo, f.t_hi) for f in b.findings]


def _paired_slope_cells(monkeypatch, p, cand, settings):
    """Kernel cells of detect_degeneracy whose perturbed slope (the dx
    block of the x slot, the dy block of the y slot; the candidate is zero,
    so the other block is 0) has a norm of a paired unit direction under
    lam 0.25 or 0.75, that is 1/3 or 3."""
    cells = []
    compiled = ExprAst.compiled
    n = p.dim

    def counting(expr):
        kernel = compiled(expr)

        def count(*args):
            shape = np.broadcast_shapes(*map(np.shape, args))
            rows = [np.broadcast_to(a, shape) for a in args]
            for block in (rows[1 + 2 * n:1 + 3 * n], rows[1 + 3 * n:]):
                norm = np.sqrt(sum(r * r for r in block))
                cells.append(int(np.sum(np.isclose(norm, 1 / 3)
                                        | np.isclose(norm, 3.0))))
            return kernel(*args)
        return count

    monkeypatch.setattr(ExprAst, "compiled", counting)
    detect_degeneracy(p, cand, settings)
    return sum(cells)


def test_paired_slopes_are_evaluated_only_where_a_direction_degenerates(
        monkeypatch):
    settings = AnalysisSettings(scan_grid=31, lambdas=(0.25, 0.75))
    # strictly convex: no direction degenerates anywhere, no pair is built
    p = make_problem("dx1^2 + dx2^2 + 0.5*dy1^2 + dy2^2 + 0.1*dx1*dy2",
                     dim=2)
    assert _paired_slope_cells(monkeypatch, p, make_candidate(p),
                               settings) == 0
    # bundled: both directions degenerate on [0, 2], so every pair is
    # evaluated in both slots at every right-side scan row there, the 21
    # times 0.1*k, and nowhere else
    p = make_problem(SAMPLE_L)
    assert _paired_slope_cells(monkeypatch, p, make_candidate(p),
                               settings) == 2 * 21 * 2 * 2


def test_full_report_evaluates_the_unit_directions_once(monkeypatch):
    # the scan evaluates the unit directions at each of its rows, and its
    # other radii are scaled from them (L is quadratic in the slopes);
    # detection reads those values and adds only the cells of the paired
    # slopes (norm 1/3 or 3 under lam 0.25 and 0.75) at the 21 right-side
    # rows on [0, 2], in both slots
    from needlecheck import conditions
    cells = {}
    stage = [None]
    compiled = ExprAst.compiled

    def counting(expr):
        kernel = compiled(expr)

        def count(*args):
            if len(args) != 5:  # a segment of the candidate, of t alone
                return kernel(*args)
            shape = np.broadcast_shapes(*map(np.shape, args))
            # zero candidate: the dx and dy rows hold the perturbation
            norm = np.abs(np.broadcast_to(args[3], shape)) \
                + np.abs(np.broadcast_to(args[4], shape))
            for kind, hit in (("base", norm == 0.0),
                              ("unit", np.isclose(norm, 1.0)),
                              ("paired", np.isclose(norm, 1 / 3)
                               | np.isclose(norm, 3.0))):
                cells[stage[0], kind] = cells.get((stage[0], kind), 0) \
                    + int(hit.sum())
            cells[stage[0], "all"] = cells.get((stage[0], "all"), 0) \
                + norm.size
            return kernel(*args)
        return count

    def during(name, fn):
        def run(*args):
            stage[0] = name
            try:
                return fn(*args)
            finally:
                stage[0] = None
        return run

    p = make_problem(SAMPLE_L)
    cand = make_candidate(p)
    monkeypatch.setattr(ExprAst, "compiled", counting)
    monkeypatch.setattr(conditions, "weierstrass_scan",
                        during("scan", conditions.weierstrass_scan))
    monkeypatch.setattr(analysis, "detect_degeneracy",
                        during("detect", analysis.detect_degeneracy))
    settings = AnalysisSettings(scan_grid=31, lambdas=(0.25, 0.75))
    report = full_report(p, cand, settings)
    assert report.overall == "FAILS_WEAK"
    rows = len(report.weierstrass.ts)
    live_y = sum(t + 1.0 <= 3.0 for t in report.weierstrass.ts)
    assert (rows, live_y) == (32, 22)
    # the scan: the base arguments and the unit directions, once
    assert cells["scan", "unit"] == (rows + live_y) * 2
    assert cells["scan", "all"] == cells["scan", "base"] \
        + cells["scan", "unit"]
    # detection: the paired slopes, and nothing else
    assert cells["detect", "paired"] == cells["detect", "all"] \
        == 2 * 21 * 2 * 2
    # the same findings as detection with a scan grid of its own
    [alone] = detect_degeneracy(p, cand, settings.resolved(p, cand))
    [f] = report.findings
    assert (f.kind, f.t_lo, f.t_hi, f.side, f.certified_pairs) == (
        alone.kind, alone.t_lo, alone.t_hi, alone.side, alone.certified_pairs)


def test_lazy_pairs_certify_as_every_pair_does():
    # the same cells certify as with every pair evaluated, and a certified
    # cell reads the same |E(pair)|
    p = make_problem(QUARTIC_WELL_L)
    pt = ExcessPoint(p, make_candidate(p), np.linspace(0.0, 2.0, 9), "right")
    etas = np.array([[1.0], [-1.0], [0.5], [2.0]])
    lams = [0.5, 0.25]
    pairs = paired_slope(np.array(lams)[None, :, None], etas[:, None, :])
    e1 = np.repeat(np.abs(pt.e_sum(etas))[:, :, None], len(lams), axis=2)
    e2 = np.abs(pt.e_sum(pairs.reshape(-1, 1))).reshape(e1.shape)
    ok = (e1 <= 1e-9) & (e2 <= 1e-9)
    lazy_ok, lazy_e1, lazy_e2 = analysis._certifies(pt, etas, lams, 1e-9)
    assert ok.any() and not ok.all()
    assert np.array_equal(ok, lazy_ok) and np.array_equal(e1, lazy_e1)
    assert np.array_equal(e2[ok], lazy_e2[ok])
    # the nowhere-degenerate etas 0.5 and 2 had no pair evaluated
    assert np.isinf(lazy_e2[:, 2:]).all() and np.isfinite(lazy_e2[:, :2]).all()


def test_a_ladder_rung_nowhere_degenerate_skips_its_pair():
    # E along zero vanishes at dx1 = 0 and +-1, so eta = 1 certifies on the
    # interval [0, 2] and 2*eta nowhere; the pair of 2*eta under lam = 0.5
    # is -2, outside the domain of sqrt(1.5 + dx1).  L >= 0 = L(0), so the
    # zero candidate is a minimum and every verdict holds
    p = make_problem("dx1^2*(dx1^2 - 1)^2 + x1^2*sqrt(1.5 + dx1)")
    report = full_report(p, make_candidate(p), AnalysisSettings(
        radii=(0.25, 0.5, 1.0), lambdas=(0.5,), scales=(2.0, 1.0, 0.5)))
    assert report.overall == "CONSISTENT" and report.stage_errors == ()
    assert [v.theorem for v in report.verdicts] == [
        "5.1(i)", "5.1(ii)", "6.1(ii)", "6.2(ii)"]
    assert all(v.conclusion == "CONSISTENT" for v in report.verdicts)
    assert report.verdicts[1].note == (
        "degeneracy not certified in small ball; scale 2: not certified; "
        "scale 1: holds; scale 0.5: not certified")


def test_verdict_integrates_its_needles_in_one_batch(monkeypatch):
    # both expansion needles: one ExcessPoint for the predictions, one
    # integrate_L call for both sweeps
    from needlecheck import conditions, problem
    built, integrals = [], []

    class Counted(conditions.ExcessPoint):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    real = problem.integrate_L
    monkeypatch.setattr(conditions, "ExcessPoint", Counted)
    monkeypatch.setattr(problem, "integrate_L",
                        lambda *a: integrals.append(a) or real(*a))
    p = make_problem("dx1^2 + dy1^2")
    report = full_report(p, make_candidate(p))
    assert report.overall == "CONSISTENT"
    assert [r.spec.side for r in report.expansion_checks] == ["right",
                                                              "left"]
    assert len(integrals) == 1
    needles = [a for a in built if list(a[3]) == ["right", "left"]]
    assert len(needles) == 1 and list(needles[0][2]) == [1.0, 1.0]


def test_an_inadmissible_expansion_needle_errors_alone(monkeypatch):
    p = make_problem("dx1^2 + dy1^2")
    good = NeedleSpec(theta=1.0, lam=0.5, xi=np.array([1.0]), side="right")
    # a left needle has no room at t0
    bad = NeedleSpec(theta=0.0, lam=0.5, xi=np.array([1.0]), side="left")
    monkeypatch.setattr(analysis, "_expansion_spots", lambda *a: [bad, good])
    report = full_report(p, make_candidate(p))
    assert report.overall == "INCONCLUSIVE"
    (stage, msg), = report.stage_errors
    assert stage == "increment[left]" and "theta=0.0" in msg
    (record,) = report.expansion_checks
    assert record.spec is good and record.passed
