"""Problem assembly, zero-extension past t1, and the cost integral."""

import numpy as np
import pytest

from needlecheck.exprs import EvalDomainError, parse_lagrangian
from needlecheck.problem import (
    CandidateExtremal,
    DelayProblem,
    ProblemError,
    along,
    eval_L,
    eval_S,
    Interval,
    integrate_L,
    partials_vec,
    rates,
    shift_slopes,
    time_rate,
)
from needlecheck.trajectory import Trajectory

from conftest import SAMPLE_L, make_candidate, make_problem
from reference import constant_history


def test_problem_validation():
    lag = parse_lagrangian("dx1^2", 1)
    hist = constant_history(-1.0, 0.0, [0.0])
    with pytest.raises(ProblemError, match="positive"):
        DelayProblem(0.0, 3.0, -1.0, 1, lag, hist)
    with pytest.raises(ProblemError, match="exceed"):
        DelayProblem(0.0, 1.0, 1.0, 1, lag, hist)  # t1 - t0 == h
    with pytest.raises(ProblemError, match="dimension"):
        DelayProblem(0.0, 3.0, 1.0, 2, lag, constant_history(-1.0, 0.0, [0.0, 0.0]))
    with pytest.raises(ProblemError, match="history domain"):
        DelayProblem(0.0, 3.0, 1.0, 1, lag, constant_history(-2.0, 0.0, [0.0]))


def test_candidate_admissibility():
    p = make_problem("dx1^2")
    wrong_domain = Trajectory.from_segments([(0.0, 3.0, ["0"])])
    with pytest.raises(ProblemError, match="domain"):
        CandidateExtremal(p, wrong_domain)
    off_history = Trajectory.from_segments([(0.0, 3.0, ["0.5*t*(3 - t) + 1"])])
    with pytest.raises((ProblemError, Exception)):
        CandidateExtremal.from_interior(p, off_history)
    misses_terminal = Trajectory.from_segments([(0.0, 3.0, ["t"])])
    with pytest.raises(Exception, match="t1|terminal"):
        CandidateExtremal.from_interior(p, misses_terminal)
    ok = CandidateExtremal.from_interior(
        p, Trajectory.from_segments([(0.0, 3.0, ["0.1*t*(3 - t)"])]))
    assert ok.traj.a == -1.0 and ok.traj.b == 3.0


def test_candidate_names_the_first_time_it_leaves_the_history():
    # a bump on (-0.5, -0.3125) is nonzero at two of the 17 check times,
    # -0.4375 and -0.375: the error names the earlier one and its gap
    p = make_problem("dx1^2")
    traj = Trajectory.from_segments([
        (-1.0, -0.5, ["0"]),
        (-0.5, -0.3125, ["(t + 0.5)^2*(-0.3125 - t)"]),
        (-0.3125, 3.0, ["0"])])
    with pytest.raises(ProblemError) as err:
        CandidateExtremal(p, traj)
    assert str(err.value) == \
        "candidate differs from history at t=-0.4375 (gap 0.000488281)"


def test_candidate_must_reach_the_terminal_point():
    p = make_problem("dx1^2")
    traj = Trajectory.from_segments([(-1.0, 0.0, ["0"]), (0.0, 3.0, ["t"])])
    with pytest.raises(ProblemError) as err:
        CandidateExtremal(p, traj)
    assert str(err.value) == ("candidate misses terminal point: x(t1)=[3.0] "
                              "vs x1=[0.0] (gap 3)")
    # the same rule holds the spliced candidate's end
    interior = Trajectory.from_segments([(0.0, 3.0, ["t"])])
    with pytest.raises(ProblemError, match="misses terminal point"):
        CandidateExtremal.from_interior(p, interior)


def test_extended_zero_past_t1(sample_problem):
    p = sample_problem
    for t in (3.0 + 1e-6, 3.5, 10.0):
        args = np.array([t, 0.3, 0.3, 0.3, 0.3])  # (t, x1, y1, dx1, dy1)
        assert eval_L(p, args) == 0.0
        for block in ("x", "y", "dx", "dy"):
            np.testing.assert_array_equal(partials_vec(p, block, args),
                                          np.zeros(1))
    # exactly at t1 the integrand is still live
    assert eval_L(p, np.array([3.0, 0.0, 0.0, 1.0, 0.0])) == \
        pytest.approx(1.0, abs=1e-15)
    # the gate is per column of a batch
    batch = np.array([[2.0, 3.0, 3.5], [0.0] * 3, [0.0] * 3, [1.0] * 3,
                      [0.0] * 3])
    np.testing.assert_array_equal(eval_L(p, batch), [1.0, 1.0, 0.0])
    np.testing.assert_array_equal(partials_vec(p, "dx", batch),
                                  [[2.0, 2.0, 0.0]])


def test_along_reads_the_delayed_slot():
    p = make_problem(SAMPLE_L)
    cand = make_candidate(p, ["0.1*t*(3 - t)"])
    args = along(p, cand, [0.5, 1.5], "right")
    assert args.shape == (5, 2)   # (t, x1, y1, dx1, dy1) x times
    t, x1, y1, dx1, dy1 = args[:, 0]
    assert t == 0.5
    assert x1 == pytest.approx(0.125, abs=1e-14)
    assert dx1 == pytest.approx(0.2, abs=1e-13)
    assert y1 == 0.0            # reads history
    assert dy1 == 0.0
    t, x1, y1, dx1, dy1 = args[:, 1]
    assert y1 == pytest.approx(0.125, abs=1e-14)   # x(0.5)
    assert dy1 == pytest.approx(0.2, abs=1e-13)    # xdot(0.5)
    # one side per time: at t = 1 the delayed slot sits on t0, where the
    # history (slope 0) meets the interior (slope 0.3)
    np.testing.assert_allclose(
        along(p, cand, [1.0, 1.0], ["right", "left"])[4], [0.3, 0.0],
        atol=1e-15)
    # slope shifts land in the named block only, one column per slope; the
    # other rows stay (T, 1) views of the base rows
    shifted = shift_slopes(p, args, "dy", np.array([[1.0], [-2.0]]))
    assert len(shifted) == 5
    for row, base in zip(shifted[:4], args[:4]):
        assert row.shape == (2, 1) and np.shares_memory(row, args)
        np.testing.assert_array_equal(row[:, 0], base)
    np.testing.assert_allclose(shifted[4], [[1.0, -2.0], [1.2, -1.8]],
                               atol=1e-13)


def test_domain_error_in_the_last_cell_of_broadcast_rows():
    # rows of shapes (T, 1) and (1, m) broadcast to (3, 3); the base
    # 4 - t + dx1 is negative only in the last cell (t = 2.5, dx1 = -2),
    # so the tree walk must rerun there to name the subexpression
    p = make_problem("dx1^2 + (4 - t + dx1)^1.5")
    zero = np.zeros((1, 1))
    rows = [np.array([[0.0], [1.0], [2.5]]), zero, zero,
            np.array([[0.0, -1.0, -2.0]]), zero]
    assert np.isfinite(eval_L(p, [r[:, :2] for r in rows])).all()
    with pytest.raises(EvalDomainError, match="negative base") as err:
        eval_L(p, rows)
    assert err.value.subexpression == "(4 - t + dx1)^1.5"


def test_integrate_clips_to_problem_window(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    inner, past, empty = integrate_L(
        p, cand.traj, [Interval(2.5, 3.0), Interval(2.5, 8.0),
                       Interval(1.0, 1.0)])
    assert past == pytest.approx(inner, abs=1e-15)
    assert empty == 0.0
    assert integrate_L(p, cand.traj, [Interval(3.5, 8.0)]) == [0.0]


def test_integral_invariant_under_spurious_breakpoints():
    p = make_problem(SAMPLE_L)
    cand = make_candidate(p, ["0.1*t*(3 - t)"])
    [base] = integrate_L(p, cand.traj, [Interval(0.0, 3.0)])
    split = cand.traj.split_at([0.37, 1.11, 1.9, 2.71])
    [again] = integrate_L(p, split, [Interval(0.0, 3.0)])
    assert abs(again - base) <= 1e-12 * (1.0 + abs(base))


def test_integral_additivity():
    p = make_problem(SAMPLE_L)
    cand = make_candidate(p, ["0.1*t*(3 - t)"])
    [whole] = integrate_L(p, cand.traj, [Interval(0.0, 3.0)])
    for c in (0.4, 1.0, 1.7, 2.0, 2.9):
        parts = integrate_L(p, cand.traj,
                            [Interval(0.0, c), Interval(c, 3.0)])
        assert abs(sum(parts) - whole) <= 1e-13 * (1.0 + abs(whole))


def test_intervals_integrate_alone_or_batched_alike():
    # a batch returns, per interval, what that interval integrates to alone
    p = make_problem(SAMPLE_L)
    cand = make_candidate(p, ["0.1*t*(3 - t)"])

    def bump(ts, sides):
        q = np.where((ts > 0.5) & (ts < 0.8), (ts - 0.5) * (0.8 - ts), 0.0)
        return q[None], np.zeros((1, ts.size))

    batch = [Interval(0.0, 3.0), Interval(0.2, 1.7, (0.5, 0.8), bump),
             Interval(1.4, 1.9, (1.5, 1.8), bump), Interval(2.0, 2.0, (), bump)]
    alone = [integrate_L(p, cand.traj, [iv])[0] for iv in batch]
    assert integrate_L(p, cand.traj, batch) == alone
    assert alone[0] == eval_S(p, cand.traj)
    assert alone[3] == 0.0


def test_cost_zero_on_zero_candidate(sample_problem, sample_cand):
    assert eval_S(sample_problem, sample_cand.traj) == pytest.approx(0.0, abs=1e-15)


def test_cost_matches_trapezoid_oracle():
    # x(t) = 0.1 t (3 - t), phi = 0: piecewise-smooth integrand with a kink
    # at t = 1 where the delayed slot switches from history to interior.
    p = make_problem(SAMPLE_L)
    cand = make_candidate(p, ["0.1*t*(3 - t)"])

    def integrand(t, delayed_live):
        x = 0.1 * t * (3.0 - t)
        dx = 0.1 * (3.0 - 2.0 * t)
        y = 0.1 * (t - 1.0) * (4.0 - t) if delayed_live else 0.0 * t
        dy = 0.1 * (5.0 - 2.0 * t) if delayed_live else 0.0 * t
        return (1.0 - x) * dx ** 2 - (1.0 + y) * dy ** 2 + dx * dy

    # the delayed slot jumps at t = 1, so each panel takes its own one-sided
    # branch of the integrand
    oracle = 0.0
    for lo, hi, live in ((0.0, 1.0, False), (1.0, 3.0, True)):
        ts = np.linspace(lo, hi, 400001)
        oracle += float(np.trapezoid(integrand(ts, live), ts))
    got = eval_S(p, cand.traj)
    assert got == pytest.approx(oracle, abs=1e-9)


def test_rates_is_the_time_derivative_of_along():
    # x = 0.1*t*(3 - t) after the zero history: xdot = 0.3 - 0.2*t and
    # xddot = -0.2 on the interior, both 0 on the history; at t = 1 the
    # delayed slot sits on t0, where the sides differ
    p = make_problem(SAMPLE_L)
    cand = make_candidate(p, ["0.1*t*(3 - t)"])
    ts, sides = [0.5, 1.5, 1.0, 1.0], ["right", "right", "right", "left"]
    args = along(p, cand, ts, sides)
    got = rates(p, cand, args, sides)
    want = [[1.0, 1.0, 1.0, 1.0],
            [0.2, 0.0, 0.1, 0.1],     # xdot(t)
            [0.0, 0.2, 0.3, 0.0],     # xdot(t - h)
            [-0.2, -0.2, -0.2, -0.2],  # xddot(t)
            [0.0, -0.2, -0.2, 0.0]]   # xddot(t - h)
    np.testing.assert_allclose(got, want, atol=1e-15)
    # the slope rows are along's dx and dy rows, bit for bit
    np.testing.assert_array_equal(got[1:3], args[3:5])


def test_time_rate_never_builds_the_partial_of_a_frozen_argument():
    # d/dx1 of the dx1-partial is 0.5/sqrt(x1), singular at x1 = 0, but
    # x1's rate row is all 0: that partial is neither evaluated nor built
    p = make_problem("sqrt(x1)*dx1 + dx1^2")
    args = [np.linspace(0.0, 1.0, 4), np.zeros(4), np.zeros(4),
            np.ones(4), np.zeros(4)]
    rate = [np.ones(4), np.zeros(4), np.zeros(4), np.full(4, 0.5),
            np.zeros(4)]
    got = time_rate(p, ("dx1",), args, rate)
    np.testing.assert_array_equal(got, np.ones(4))
    assert ("dx1", "x1") not in p.lagrangian.partials
    assert ("dx1", "y1") not in p.lagrangian.partials


def test_time_rate_propagates_non_finite_rates_of_live_arguments():
    # d/dt of L = dx1^2 is 2*dx1 * rate(dx1): a NaN or an inf rate is kept
    p = make_problem("dx1^2")
    args = [np.linspace(0.0, 1.0, 4), np.zeros(4), np.zeros(4),
            np.ones(4), np.zeros(4)]
    rate = [np.ones(4), np.zeros(4), np.zeros(4),
            np.array([0.0, np.nan, np.inf, -np.inf]), np.zeros(4)]
    got = time_rate(p, (), args, rate)
    np.testing.assert_array_equal(got, [0.0, np.nan, np.inf, -np.inf])


@pytest.mark.parametrize("lag", ["dx1", "2.5", "t"])
def test_evaluate_returns_a_new_array_of_the_batch_shape(lag):
    # L = dx1 is its own argument row, a constant a scalar and L = t a row
    # narrower than the batch: each comes back as a fresh (3, 2) array,
    # gated beyond t1 only where some cell is dead
    p = make_problem(lag)
    for t in ([[1.0], [2.0], [2.5]], [[1.0], [2.0], [3.5]]):
        args = [np.array(t), np.zeros((1, 2)), np.zeros((1, 2)),
                np.ones((3, 2)), np.zeros((1, 2))]
        before = [a.copy() for a in args]
        got = eval_L(p, args)
        assert got.shape == (3, 2) and got.flags.writeable
        assert not any(np.shares_memory(got, a) for a in args)
        got[...] = -7.0
        assert all(np.array_equal(a, b) for a, b in zip(args, before))
        want = {"dx1": 1.0, "2.5": 2.5}.get(lag, np.array(t))
        want = np.where(np.array(t) > p.t1, 0.0, want) * np.ones((3, 2))
        assert np.array_equal(eval_L(p, args), want)
