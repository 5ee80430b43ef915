"""Piecewise trajectories: joins, one-sided limits, splitting, splicing."""

import numpy as np
import pytest

from needlecheck.trajectory import (
    HistorySpec,
    Segment,
    Trajectory,
    TrajectoryError,
)
from needlecheck.exprs import parse_expr, parse_lagrangian
from needlecheck.problem import DelayProblem, ProblemError

from reference import constant_history, from_segments


def _seg(a, b, *srcs):
    return Segment(a, b, tuple(parse_expr(s, ("t",)) for s in srcs))


def test_segment_value_deriv_vectorized():
    seg = _seg(0.0, 2.0, "t^2", "3*t")
    assert seg.dim == 2
    np.testing.assert_allclose(seg.rows("value", np.array([1.5]))[:, 0],
                               [2.25, 4.5], atol=1e-14)
    np.testing.assert_allclose(seg.rows("deriv", np.array([1.5]))[:, 0],
                               [3.0, 3.0], atol=1e-14)
    ts = np.linspace(0, 2, 9)
    np.testing.assert_allclose(seg.rows("value", ts)[0], ts ** 2, atol=1e-14)
    np.testing.assert_allclose(seg.rows("deriv", ts)[1], np.full(9, 3.0),
                               atol=1e-14)


def test_segment_rejects_empty_interval():
    with pytest.raises(TrajectoryError):
        _seg(1.0, 1.0, "t")


def test_trajectory_requires_contiguous_continuous_segments():
    with pytest.raises(TrajectoryError, match="contiguous"):
        Trajectory([_seg(0.0, 1.0, "t"), _seg(1.5, 2.0, "t")])
    with pytest.raises(TrajectoryError, match="discontinuity"):
        Trajectory([_seg(0.0, 1.0, "t"), _seg(1.0, 2.0, "t + 1")])


@pytest.mark.parametrize("segs, t_bad", [
    ([(0.0, 1.0, "sqrt(t)")], 0.0),
    ([(0.0, 1.0, "t"), (1.0, 2.0, "sqrt(2 - t)")], 2.0),
    ([(0.0, 1.0, "log(t)")], 0.0),   # the derivative 1/t divides by zero
    ([(-1.0, 0.0, "t^1.5")], -1.0),  # a fractional power of a negative time
])
def test_trajectory_rejects_a_non_finite_segment_end(segs, t_bad):
    with np.errstate(all="ignore"), pytest.raises(TrajectoryError) as err:
        Trajectory([_seg(a, b, src) for a, b, src in segs])
    assert str(err.value) == \
        f"non-finite segment value/derivative at t={t_bad}"


def test_one_sided_derivatives_at_kink():
    # |t - 1| shape: slope -1 then +1
    traj = Trajectory([_seg(0.0, 1.0, "1 - t"), _seg(1.0, 2.0, "t - 1")])
    assert traj.breakpoints == (1.0,)
    np.testing.assert_allclose(traj.value(1.0), [0.0], atol=1e-14)
    np.testing.assert_allclose(traj.deriv(1.0, "left"), [-1.0], atol=1e-14)
    np.testing.assert_allclose(traj.deriv(1.0, "right"), [1.0], atol=1e-14)
    # snapping: a hair inside the tolerance hits the same one-sided limits
    np.testing.assert_allclose(traj.deriv(1.0 + 1e-13, "left"), [-1.0], atol=1e-14)


def test_no_limit_past_domain_ends():
    traj = Trajectory([_seg(0.0, 1.0, "t")])
    with pytest.raises(TrajectoryError, match="right limit"):
        traj.deriv(1.0, "right")
    with pytest.raises(TrajectoryError, match="left limit"):
        traj.deriv(0.0, "left")
    with pytest.raises(TrajectoryError, match="domain"):
        traj.value(2.0)


def test_second_deriv_one_sided():
    traj = Trajectory([_seg(0.0, 1.0, "t^2"), _seg(1.0, 3.0, "2*t - 1")])
    np.testing.assert_array_equal(
        traj.second_deriv([0.5, 1.0, 1.0], ["right", "left", "right"]),
        [[2.0, 2.0, 0.0]])


def test_one_time_lookup_is_column_0_of_the_array_lookup():
    # at the join from both sides and at both domain ends
    traj = Trajectory([_seg(0.0, 1.0, "t^2", "sin(t)"),
                       _seg(1.0, 3.0, "2*t - 1", "sin(1) + exp(t - 1) - 1")])
    for t, side in ((0.0, "right"), (1.0, "left"), (1.0, "right"),
                    (3.0, "left"), (0.3, "right"), (2.2, "left")):
        one = traj.value(t)
        assert one.shape == (2,)
        np.testing.assert_array_equal(one, traj.value(np.array([t]))[:, 0])
        for lookup in (traj.deriv, traj.second_deriv):
            one = lookup(t, side)
            assert one.shape == (2,)
            np.testing.assert_array_equal(
                one, lookup(np.array([t]), side)[:, 0])
            np.testing.assert_array_equal(one, lookup([t, 0.5], side)[:, 0])
    assert traj.deriv(np.linspace(0.0, 2.5, 6)).shape == (2, 6)


def test_split_at_preserves_values():
    traj = Trajectory([_seg(0.0, 2.0, "t^3 - t")])
    split = traj.split_at([0.5, 1.25, 0.5, 2.0])  # dedup, endpoint ignored
    assert split.breakpoints == (0.5, 1.25)
    for t in np.linspace(0, 2, 41):
        np.testing.assert_allclose(split.value(t), traj.value(t), atol=1e-14)
        np.testing.assert_allclose(split.deriv(t, "right" if t < 2 else "left"),
                                   traj.deriv(t, "right" if t < 2 else "left"),
                                   atol=1e-14)


def test_from_segments_parses_strings():
    traj = from_segments([(0.0, 1.0, ["t", "sin(t)"]),
                          (1.0, 2.0, ["t", "sin(t)"])])
    assert traj.dim == 2
    np.testing.assert_allclose(traj.value(1.5), [1.5, np.sin(1.5)], atol=1e-14)


def test_history_spec_must_be_smooth():
    kinked = Trajectory([_seg(-1.0, -0.5, "0"), _seg(-0.5, 0.0, "0")])
    with pytest.raises(TrajectoryError, match="C1"):
        HistorySpec(kinked, np.array([0.0]))


def test_history_dimension_must_match_terminal():
    # the problem owns the dimension rule of its boundary data
    hist = HistorySpec(Trajectory([_seg(-1.0, 0.0, "0")]), np.array([0, 0]))
    with pytest.raises(ProblemError, match="terminal dimension 2") as err:
        DelayProblem(0.0, 3.0, 1.0, 1, parse_lagrangian("dx1^2", 1), hist)
    assert err.value.field == "hist.x1"


def test_history_and_interior_join_as_one_trajectory():
    # a candidate is the history's segments followed by the interior's;
    # the joined trajectory's join rules hold at t0, and the error names
    # the interior's segment
    hist = constant_history(-1.0, 0.0, [0.0]).phi.segments
    full = Trajectory(hist + (_seg(0.0, 3.0, "t*(3 - t)*0"),))
    assert full.a == -1.0 and full.b == 3.0
    assert 0.0 in full.breakpoints
    # x(t1) is checked by CandidateExtremal
    with pytest.raises(TrajectoryError, match="value discontinuity at t=0.0") \
            as err:
        Trajectory(hist + (_seg(0.0, 3.0, "1 + t*0"),))
    assert err.value.segment == 1
    with pytest.raises(TrajectoryError, match="not contiguous") as err:
        Trajectory(hist + (_seg(0.5, 3.0, "0"),))
    assert err.value.segment == 1


def test_constant_history_values():
    hist = constant_history(-1.0, 0.0, [2.0, -3.0])
    np.testing.assert_allclose(hist.phi.value(-0.3), [2.0, -3.0], atol=0)
    np.testing.assert_allclose(hist.x1, [2.0, -3.0], atol=0)
