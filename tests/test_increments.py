"""Increment expansions: direct quadrature vs the excess-functional path.

Closed forms for the bundled problem along the zero candidate:
  right needle at theta=1, lam=1/2, xi=1:  Delta S(eps) = -eps^2/2
  left  needle at theta=1.5, same (lam,xi): Delta S(eps) = +eps^2/2
  right needle at theta=2.5 (tail, delayed slot gone): eps - eps^2/4
"""

import math

import numpy as np
import pytest

import needlecheck.conditions
import needlecheck.problem
import needlecheck.trajectory
from needlecheck.conditions import AnalysisSettings
from needlecheck.increments import (
    delta_S_direct,
    expansion_prediction,
    needle_first_variation,
    verify_expansion,
)
from needlecheck.needle import NeedleError, NeedleSpec, vary, window_for
from needlecheck.problem import Interval, integrate_L
from needlecheck.quadrature import geometric_sweeps

from conftest import make_candidate, make_problem
from reference import first_variation, from_interior, from_segments

RIGHT = NeedleSpec(theta=1.0, lam=0.5, xi=np.array([1.0]), side="right")
LEFT = NeedleSpec(theta=1.5, lam=0.5, xi=np.array([1.0]), side="left")
TAIL = NeedleSpec(theta=2.5, lam=0.5, xi=np.array([1.0]), side="right")
# the sweep of verify_expansion under the default settings
SWEEP = AnalysisSettings()


def test_direct_increment_right_fixture(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    for eps in (0.25, 0.125, 0.01):
        got = delta_S_direct(p, cand, [RIGHT], [eps])[0]
        assert abs(got - (-0.5 * eps * eps)) <= 1e-12


def test_direct_increment_left_fixture(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    for eps in (0.25, 0.0625):
        got = delta_S_direct(p, cand, [LEFT], [eps])[0]
        assert abs(got - (0.5 * eps * eps)) <= 1e-12


def test_direct_increment_tail_fixture(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    for eps in (0.125, 0.03125):
        got = delta_S_direct(p, cand, [TAIL], [eps])[0]
        assert abs(got - (eps - 0.25 * eps * eps)) <= 1e-12


def test_prediction_right(sample_problem, sample_cand):
    [(c1, c2)] = expansion_prediction(sample_problem, sample_cand, [RIGHT])
    assert c1 == pytest.approx(0.0, abs=1e-9)
    assert c2 == pytest.approx(-0.5, abs=1e-7)


def test_prediction_left_flips_second_order(sample_problem, sample_cand):
    [(c1, c2)] = expansion_prediction(sample_problem, sample_cand, [LEFT])
    assert c1 == pytest.approx(0.0, abs=1e-9)
    assert c2 == pytest.approx(0.5, abs=1e-7)


def test_prediction_tail(sample_problem, sample_cand):
    [(c1, c2)] = expansion_prediction(sample_problem, sample_cand, [TAIL])
    assert c1 == pytest.approx(1.0, abs=1e-9)
    assert c2 == pytest.approx(-0.25, abs=1e-7)


def test_verify_expansion_fixtures(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    for spec, want in ((RIGHT, (0.0, -0.5)), (LEFT, (0.0, 0.5)),
                       (TAIL, (1.0, -0.25))):
        [rec] = verify_expansion(p, cand, [spec])
        assert rec.passed
        assert rec.c1_fitted == pytest.approx(want[0], abs=1e-8)
        assert rec.c2_fitted == pytest.approx(want[1], abs=1e-6)
        assert rec.fit_residual <= 1e-6
        assert len(rec.sweep.eps) == 8
        assert rec.sweep.eps[0] == rec.eps_max


def test_default_eps_max(sample_problem, sample_cand):
    # a quarter of the validity window, capped at 1/4
    for spec, want in ((RIGHT, 0.25), (LEFT, 0.25), (TAIL, 0.125)):
        [rec] = verify_expansion(sample_problem, sample_cand, [spec])
        assert rec.eps_max == pytest.approx(want)


def test_eps_window_enforced(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    with pytest.raises(NeedleError):
        delta_S_direct(p, cand, [RIGHT], [1.0])
    with pytest.raises(NeedleError):
        delta_S_direct(p, cand, [RIGHT], [-0.1])


@pytest.mark.parametrize("xi", [[1.0], [1.0, 1.0, 1.0]])
def test_prediction_rejects_a_slope_of_the_wrong_width(xi):
    p = make_problem("dx1^2 + dx2^2 + dy1*dy2", dim=2)
    spec = NeedleSpec(theta=1.0, lam=0.5, xi=xi, side="right")
    with pytest.raises(NeedleError, match="dimension 2"):
        expansion_prediction(p, make_candidate(p), [spec])


def test_direct_path_ignores_excess_machinery(sample_problem, sample_cand,
                                              monkeypatch):
    # delta_S_direct must not call into the excess functionals
    p, cand = sample_problem, sample_cand

    def boom(*args, **kwargs):
        raise AssertionError("excess machinery invoked by the direct path")

    monkeypatch.setattr(needlecheck.conditions.ExcessPoint, "e_sum_rate",
                        boom)
    monkeypatch.setattr(needlecheck.conditions, "ExcessPoint", boom)
    monkeypatch.setattr(needlecheck.problem, "time_rate", boom)
    monkeypatch.setattr(needlecheck.trajectory.Trajectory, "second_deriv",
                        boom)
    [sweep] = geometric_sweeps(lambda e: delta_S_direct(p, cand, [RIGHT], e),
                               [0.25], SWEEP.sweep_levels, SWEEP.sweep_ratio)
    assert len(sweep.eps) == 8
    for eps, got in zip(sweep.eps, sweep.values):
        assert abs(got - (-0.5 * eps ** 2)) <= 1e-12


def test_prediction_path_never_integrates(sample_problem, sample_cand,
                                          monkeypatch):
    # expansion_prediction must not evaluate the cost integral
    p, cand = sample_problem, sample_cand

    def boom(*args, **kwargs):
        raise AssertionError("cost integral invoked by the prediction path")

    monkeypatch.setattr(needlecheck.problem, "integrate_L", boom)
    monkeypatch.setattr(needlecheck.problem, "eval_S", boom)
    [(c1, c2)] = expansion_prediction(p, cand, [RIGHT])
    assert c1 == pytest.approx(0.0, abs=1e-9)
    assert c2 == pytest.approx(-0.5, abs=1e-7)


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("lam", [0.25, 0.75])
def test_prediction_closed_forms_on_time_weighted_lagrangian(lam, side):
    # L = t*dx1^2 + 0.5*t*dy1^2 along zero: the excess sum at theta is
    # g(theta) xi^2 with g(t) = t + 0.5*(t + h), M = 0, so
    # c1 = g lam/(1-lam) xi^2 and c2 = +-g' lam^2/(1-lam) xi^2; L is linear
    # in t, so the direct increment is exactly quadratic in eps
    p = make_problem("t*dx1^2 + 0.5*t*dy1^2")
    cand = make_candidate(p)
    theta, xi = 1.0, 1.5
    spec = NeedleSpec(theta=theta, lam=lam, xi=np.array([xi]), side=side)
    [(c1, c2)] = expansion_prediction(p, cand, [spec])
    sign = 1.0 if side == "right" else -1.0
    assert c1 == pytest.approx(2.0 * lam / (1.0 - lam) * xi ** 2, rel=1e-12)
    assert c2 == pytest.approx(sign * 1.5 * lam ** 2 / (1.0 - lam) * xi ** 2,
                               rel=1e-12)
    assert verify_expansion(p, cand, [spec])[0].passed


def _convex5(seed):
    # strictly convex dim-5 problem along zero: 4 a_i b_i > d_i^2 keeps every
    # excess positive, and sin(t), exp(0.1*y1) make the increment a full
    # power series in eps
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(0.5, 2.0, (2, 5)).tolist()
    c, d = rng.uniform(0.0, 1.0, 5).tolist(), rng.uniform(-0.5, 0.5, 5).tolist()
    ix = range(1, 6)
    lag = " + ".join(
        [f"(2 + sin(t))*{a[i - 1]!r}*dx{i}^2" for i in ix]
        + [f"exp(0.1*y1)*{b[i - 1]!r}*dy{i}^2" for i in ix]
        + [f"{c[i - 1]!r}*x{i}^2 + {d[i - 1]!r}*dx{i}*dy{i}" for i in ix])
    p = make_problem(lag, dim=5)
    return p, make_candidate(p)


SINH = "0.5*(exp(t) - exp(-t))"


@pytest.fixture(scope="module")
def sinh_k1e3():
    # x = sinh t is an exact extremal of k*(dx1^2 + x1^2), and a needle's
    # Delta S = k xi^2 (eps lam/(1-lam) + lam^2 eps^3/3) has an eps^3 term
    p = make_problem("1000.0*(dx1^2 + x1^2)", phi=[SINH], x1=[math.sinh(3.0)])
    return p, make_candidate(p, [SINH])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("side", ["right", "left"])
def test_cross_check_passes_on_convex5(seed, side):
    p, cand = _convex5(seed)
    xi = needlecheck.conditions.direction_set(5, seed)[0]
    spec = NeedleSpec(theta=1.0, lam=0.5, xi=xi, side=side)
    [rec] = verify_expansion(p, cand, [spec])
    assert rec.passed, (rec.c1_fitted, rec.c2_fitted,
                        rec.c1_predicted, rec.c2_predicted)


@pytest.mark.parametrize("theta, side, lam, xi", [
    (0.4, "right", 0.3, 1.2), (1.6, "right", 0.7, -0.6),
    (0.5, "left", 0.25, -1.8), (1.3, "left", 0.6, 0.9),
    (2.1, "right", 0.45, 1.5), (2.7, "right", 0.8, -1.0),
    (2.2, "left", 0.2, -0.7), (2.75, "left", 0.55, 2.0)])
def test_cross_check_passes_on_sinh_needles(sinh_k1e3, theta, side, lam, xi):
    p, cand = sinh_k1e3
    spec = NeedleSpec(theta=theta, lam=lam, xi=np.array([xi]), side=side)
    [rec] = verify_expansion(p, cand, [spec])
    k2 = 1000.0 * xi * xi
    assert rec.c1_predicted == pytest.approx(k2 * lam / (1.0 - lam), rel=1e-9)
    assert rec.passed, (rec.c1_fitted, rec.c2_fitted,
                        rec.c1_predicted, rec.c2_predicted)


# -- the batched sweep against the symbolic varied trajectory ---------------

# dim-2 problem whose candidate has breakpoints inside the supports and the
# +h shifts of the needles below, and a transcendental component
KINKS = (1.0013, 2.0017, 2.0993, 2.5004)
NEEDLES = (
    NeedleSpec(theta=1.0, lam=0.3, xi=np.array([0.7, -1.3]), side="right"),
    NeedleSpec(theta=1.0021, lam=0.6, xi=np.array([-0.4, 1.1]), side="left"),
    # tail regime: the shift of the support lies beyond t1
    NeedleSpec(theta=2.5, lam=0.45, xi=np.array([1.2, 0.5]), side="right"),
    # left needle past t1 - h: t1 clips the shifts of the two largest supports
    NeedleSpec(theta=2.1, lam=0.25, xi=np.array([0.9, 0.8]), side="left"),
)


def _kinked_candidate(p):
    """Continuous candidate on [0, 3], zero at both ends, whose slope jumps
    at each of KINKS."""
    edges = (0.0,) + KINKS + (3.0,)
    jumps = ((0.2, -0.3), (-0.5, 0.4), (0.3, 0.25), (-0.15, -0.6))
    specs = []
    for i, (a, b) in enumerate(zip(edges, edges[1:])):
        comps = ["0.3*t*(3 - t)", "0.1*sin(2*t)*t*(3 - t)"]
        for c in range(2):
            end = sum(j[c] * (3.0 - k) for j, k in zip(jumps, KINKS))
            comps[c] += f" - {end!r}*t/3"
            for j, k in zip(jumps[:i], KINKS):
                comps[c] += f" + {j[c]!r}*(t - {k!r})"
        specs.append((a, b, comps))
    return from_interior(p, from_segments(specs))


def _symbolic_increment(p, cand, spec, eps):
    """The increment from the symbolic varied trajectory: four single-interval
    integrals (varied and base, on the support and on its shift), fsum."""
    varied = vary(cand, spec, eps)
    corners = spec.corners(eps)
    extra = corners + tuple(c + p.h for c in corners)
    pieces = []
    for lo, hi in ((corners[0], corners[2]),
                   (corners[0] + p.h, corners[2] + p.h)):
        pieces.append(integrate_L(p, varied, [Interval(lo, hi, extra)])[0])
        pieces.append(-integrate_L(p, cand.traj, [Interval(lo, hi, extra)])[0])
    return math.fsum(pieces)


def test_batched_sweep_matches_symbolic_needles_bit_for_bit():
    p = make_problem("(1 + x1^2)*dx1^2 - (1 + y2)*dy1^2 + dx1*dy2"
                     " + sin(x2)*dx2^2 + exp(0.2*y1)*dy2^2 + t*x1*y2", dim=2)
    cand = _kinked_candidate(p)
    for spec in NEEDLES:
        [sweep] = geometric_sweeps(
            lambda e: e, [min(window_for(p, spec), 1.0) / 4.0],
            SWEEP.sweep_levels, SWEEP.sweep_ratio)
        eps = np.array(sweep.eps)
        [got] = delta_S_direct(p, cand, [spec], [eps])
        want = [_symbolic_increment(p, cand, spec, e) for e in eps.tolist()]
        assert got.shape == (8,)
        assert np.array_equal(got, want), spec
        assert delta_S_direct(p, cand, [spec], [float(eps[3])])[0] == want[3]
        # panels so thin that their outer nodes lie within the corner
        # tolerance: each node must keep its own panel's branch
        tiny = np.array([6e-11, 4e-11])
        assert np.array_equal(
            delta_S_direct(p, cand, [spec], [tiny])[0],
            [_symbolic_increment(p, cand, spec, e) for e in tiny.tolist()])


def test_a_batch_of_needles_is_one_point_and_one_integral(
        sample_problem, sample_cand, monkeypatch):
    # three needles with two distinct (lam, xi), a tail one among them:
    # each record equals its needle's own, bit for bit, from one
    # ExcessPoint and one integrate_L call
    p, cand = sample_problem, sample_cand
    other = NeedleSpec(theta=0.4, lam=0.25, xi=np.array([-2.0]), side="left")
    specs = [RIGHT, other, TAIL]
    alone = [verify_expansion(p, cand, [spec])[0] for spec in specs]
    built, integrals = [], []

    class Counted(needlecheck.conditions.ExcessPoint):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    real = needlecheck.problem.integrate_L
    monkeypatch.setattr(needlecheck.conditions, "ExcessPoint", Counted)
    monkeypatch.setattr(needlecheck.problem, "integrate_L",
                        lambda *a: integrals.append(a) or real(*a))
    batch = verify_expansion(p, cand, specs)
    assert len(built) == 1 and len(integrals) == 1
    for got, want in zip(batch, alone):
        assert got.spec is want.spec
        assert (got.c1_predicted, got.c2_predicted, got.c1_fitted,
                got.c2_fitted, got.fit_residual, got.eps_max, got.sweep,
                got.tolerance, got.passed) == (
            want.c1_predicted, want.c2_predicted, want.c1_fitted,
            want.c2_fitted, want.fit_residual, want.eps_max, want.sweep,
            want.tolerance, want.passed)
    assert expansion_prediction(p, cand, specs) == [
        (r.c1_predicted, r.c2_predicted) for r in alone]


def test_batched_direct_increments_take_one_eps_entry_per_needle(
        sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    got = delta_S_direct(p, cand, [RIGHT, LEFT], [0.25, 0.125])
    assert got.shape == (2,)
    assert got.tolist() == [delta_S_direct(p, cand, [RIGHT], [0.25])[0],
                            delta_S_direct(p, cand, [LEFT], [0.125])[0]]
    levels = np.array([[0.25, 0.125], [0.1, 0.05]])
    got = delta_S_direct(p, cand, [RIGHT, TAIL], levels)
    assert np.array_equal(got[1],
                          delta_S_direct(p, cand, [TAIL], [levels[1]])[0])
    with pytest.raises(NeedleError, match="1 eps entries for 2 needles"):
        delta_S_direct(p, cand, [RIGHT, LEFT], [0.25])
    with pytest.raises(NeedleError, match="validity window"):
        delta_S_direct(p, cand, [RIGHT, LEFT], [0.25, 1.5])


# -- the first variation, batched on integrate_L's nodes ---------------------

def test_batched_first_variation_equals_each_needle_alone(sample_problem,
                                                          monkeypatch):
    # right and left needles, paired and tail regimes, each with its own
    # two levels, along a non-extremal candidate: one pass over the node
    # plan, and each value equals its needle's own, bit for bit
    p = sample_problem
    bent = make_candidate(p, ["0.1*t*(3 - t)"])
    specs = [NeedleSpec(0.7, 0.35, [1.3], "right"),
             NeedleSpec(1.4, 0.6, [-0.8], "left"),
             NeedleSpec(2.3, 0.25, [2.0], "right"),
             NeedleSpec(2.8, 0.5, [0.9], "left")]
    levels = np.array([[0.5, 0.125], [0.25, 0.2], [0.4, 0.1], [0.6, 0.3]])
    alone = [needle_first_variation(p, bent, [spec], [row])[0]
             for spec, row in zip(specs, levels)]
    calls = []
    real = needlecheck.problem.integrate_nodes
    monkeypatch.setattr(needlecheck.problem, "integrate_nodes",
                        lambda *a, **k: calls.append(a) or real(*a, **k))
    got = needle_first_variation(p, bent, specs, levels)
    assert len(calls) == 1 and got.shape == (4, 2)
    assert np.array_equal(got, alone)
    assert (got != 0.0).all()
    for spec, row, want in zip(specs, levels.tolist(), got.tolist()):
        assert [needle_first_variation(p, bent, [spec], [e])[0]
                for e in row] == want
    with pytest.raises(NeedleError, match="1 eps entries for 4 needles"):
        needle_first_variation(p, bent, specs, [0.25])


def test_batched_first_variation_on_a_kinked_candidate():
    # the candidate's kinks lie inside the supports and their +h shifts;
    # each needle's first variation agrees with the reference integral of
    # the needle as a trajectory
    p = make_problem("(1 + x1^2)*dx1^2 - (1 + y2)*dy1^2 + dx1*dy2"
                     " + sin(x2)*dx2^2 + exp(0.2*y1)*dy2^2 + t*x1*y2", dim=2)
    cand = _kinked_candidate(p)
    eps = [min(window_for(p, spec), 1.0) / 4.0 for spec in NEEDLES]
    got = needle_first_variation(p, cand, NEEDLES, eps)
    zero = make_candidate(p)
    for spec, e, value in zip(NEEDLES, eps, got.tolist()):
        want = first_variation(p, cand, vary(zero, spec, e))
        assert abs(value - want) <= 1e-12 * abs(want), spec


# Along the bundled zero candidate, a paired-regime needle (right with
# theta + eps <= t1 - h, left with theta <= t1 - h) has its support and its
# +h shift inside [t0, t1] and disjoint: the dy^2 term over the shift is
# the integral of (1 + q)*q_dot^2 over the support, the cross term
# vanishes, and Delta S(eps) = -2 * int q*q_dot^2 = -+xi^3*lam^2*eps^2/(1-lam),
# with - for a right needle and + for a left one.  Not covered: the right
# needle at theta = t1 - h, whose sweep fits (1, -1/4) while the prediction
# is (0, -1/2) because the delayed slot at t1 is read as live.
@pytest.mark.parametrize("theta, side, lam, xi", [
    (theta, side, lam, xi) for theta in (0.3, 1.0, 1.7)
    for side in ("right", "left")
    for lam, xi in ((0.5, 1.0), (0.25, -0.5), (0.75, 2.0), (0.6, -1.5))
] + [(2.0, "left", 0.5, 1.0), (2.0, "left", 0.3, -2.0)])
def test_paired_needles_of_the_bundled_problem_follow_the_closed_form(
        sample_problem, sample_cand, theta, side, lam, xi):
    p, cand = sample_problem, sample_cand
    spec = NeedleSpec(theta=theta, lam=lam, xi=np.array([xi]), side=side)
    c2 = (-1.0 if side == "right" else 1.0) * xi ** 3 * lam ** 2 / (1 - lam)
    [(c1_pred, c2_pred)] = expansion_prediction(p, cand, [spec])
    assert abs(c1_pred) <= 1e-12
    assert abs(c2_pred - c2) <= 1e-12 * (1 + abs(c2))
    [record] = verify_expansion(p, cand, [spec])
    assert record.passed
    assert abs(record.c2_fitted - c2) <= 1e-9 * (1 + abs(c2))
    assert abs(record.c1_fitted) <= 1e-10
    # every sweep level, to 1e-8 relative above a rounding floor: the
    # integrands are O(xi^2) and the four pieces are differenced
    eps = np.array(record.sweep.eps)
    direct = delta_S_direct(p, cand, [spec], [eps])[0]
    assert np.all(np.abs(direct - c2 * eps ** 2)
                  <= 1e-8 * abs(c2) * eps ** 2 + 1e-14 * xi ** 2)
