"""Needle geometry: validity windows, the numeric perturbation, varied trajectories."""

import numpy as np
import pytest

from needlecheck.needle import (
    NeedleError,
    NeedleSpec,
    check_eps,
    perturbation,
    vary,
    window_for,
)

from conftest import make_candidate, make_problem, SAMPLE_L


@pytest.fixture(scope="module")
def prob():
    return make_problem(SAMPLE_L)


def test_spec_validation():
    with pytest.raises(NeedleError, match="lambda"):
        NeedleSpec(theta=1.0, lam=0.0, xi=np.array([1.0]), side="right")
    with pytest.raises(NeedleError, match="lambda"):
        NeedleSpec(theta=1.0, lam=1.0, xi=np.array([1.0]), side="right")
    with pytest.raises(NeedleError, match="xi"):
        NeedleSpec(theta=1.0, lam=0.5, xi=np.array([0.0]), side="right")
    with pytest.raises(NeedleError, match="side"):
        NeedleSpec(theta=1.0, lam=0.5, xi=np.array([1.0]), side="up")


def test_outer_slope_and_corners():
    spec = NeedleSpec(theta=1.0, lam=0.25, xi=np.array([2.0]), side="right")
    np.testing.assert_allclose(spec.outer_slope, [-2.0 / 3.0], atol=1e-15)
    assert spec.corners(0.4) == (1.0, 1.1, 1.4)
    left = NeedleSpec(theta=1.0, lam=0.25, xi=np.array([2.0]), side="left")
    assert left.corners(0.4) == (0.6, 0.9, 1.0)


def test_validity_window_regimes(prob):
    def window(theta, side):
        return window_for(prob, NeedleSpec(theta, 0.5, [1.0], side))

    # standard right regime: theta < t1 - h, min{h, t1 - h - theta}
    assert window(0.5, "right") == pytest.approx(1.0)
    assert window(0.5, "left") == pytest.approx(0.5)
    assert window(1.8, "right") == pytest.approx(0.2)
    # tail regime: theta in [t1 - h, t1), min{h, t1 - theta}
    assert window(2.5, "right") == pytest.approx(0.5)
    assert window(2.5, "left") == pytest.approx(1.0)
    # at the cut the right window switches formula: min{h, t1 - theta} = 1
    assert window(2.0, "right") == pytest.approx(1.0)


def test_window_for_and_check_eps(prob):
    xi = np.array([1.0])
    right = NeedleSpec(theta=1.0, lam=0.5, xi=xi, side="right")
    assert window_for(prob, right) == pytest.approx(1.0)
    check_eps(prob, right, 0.5)
    with pytest.raises(NeedleError, match="validity"):
        check_eps(prob, right, 1.0)  # open at the limit
    with pytest.raises(NeedleError, match="validity"):
        check_eps(prob, right, 0.0)
    left = NeedleSpec(theta=0.4, lam=0.5, xi=xi, side="left")
    assert window_for(prob, left) == pytest.approx(0.4)
    with pytest.raises(NeedleError):
        window_for(prob, NeedleSpec(theta=0.0, lam=0.5, xi=xi, side="left"))
    with pytest.raises(NeedleError):
        window_for(prob, NeedleSpec(theta=3.0, lam=0.5, xi=xi, side="right"))


def _at(spec, eps, t, side="right"):
    """(q, q_dot) at one time as two vectors."""
    q, q_dot = perturbation(spec, eps, [t], side)
    return q[:, 0], q_dot[:, 0]


def test_perturbation_shapes():
    spec = NeedleSpec(theta=1.0, lam=0.25, xi=np.array([3.0, -4.0]),
                      side="right")
    ts = np.linspace(0.5, 2.0, 7)
    q, q_dot = perturbation(spec, 0.4, ts, "right")
    assert q.shape == q_dot.shape == (2, 7)
    q, q_dot = perturbation(spec, 0.4, ts, ["left"] * 7)
    assert q.shape == q_dot.shape == (2, 7)
    q, q_dot = perturbation(spec, 0.4, 1.1, "left")
    assert q.shape == q_dot.shape == (2, 1)


def test_right_needle_shape():
    spec = NeedleSpec(theta=1.0, lam=0.5, xi=np.array([2.0]), side="right")
    eps = 0.5
    c0, c1, c2 = spec.corners(eps)
    for side in ("right", "left"):
        np.testing.assert_allclose(_at(spec, eps, c0, side)[0], [0.0], atol=0)
        np.testing.assert_allclose(_at(spec, eps, c1, side)[0],
                                   [spec.lam * eps * 2.0], atol=1e-15)
        np.testing.assert_allclose(_at(spec, eps, c2, side)[0], [0.0],
                                   atol=1e-15)
        np.testing.assert_array_equal(_at(spec, eps, c0 - 0.1, side)[0], [0.0])
        np.testing.assert_array_equal(_at(spec, eps, c2 + 0.1, side)[0], [0.0])
    # one-sided slopes at the three corners
    np.testing.assert_array_equal(_at(spec, eps, c0, "right")[1], [2.0])
    np.testing.assert_array_equal(_at(spec, eps, c0, "left")[1], [0.0])
    np.testing.assert_array_equal(_at(spec, eps, c1, "left")[1], [2.0])
    np.testing.assert_array_equal(_at(spec, eps, c1, "right")[1], [-2.0])
    np.testing.assert_array_equal(_at(spec, eps, c2, "left")[1], [-2.0])
    np.testing.assert_array_equal(_at(spec, eps, c2, "right")[1], [0.0])
    # a time within the corner tolerance snaps onto the corner
    np.testing.assert_array_equal(_at(spec, eps, c1 - 1e-13, "right")[1],
                                  [-2.0])


def test_left_needle_shape():
    spec = NeedleSpec(theta=1.5, lam=0.5, xi=np.array([1.0]), side="left")
    eps = 0.4
    c0, c1, c2 = spec.corners(eps)
    assert (c0, c1, c2) == (1.1, 1.3, 1.5)
    np.testing.assert_allclose(_at(spec, eps, c2)[0], [0.0], atol=1e-15)
    np.testing.assert_allclose(_at(spec, eps, c1)[0], [-spec.lam * eps],
                               atol=1e-15)
    np.testing.assert_allclose(_at(spec, eps, c0)[0], [0.0], atol=1e-15)
    # inner branch carries slope xi next to theta, outer next to theta-eps
    np.testing.assert_array_equal(_at(spec, eps, c2, "left")[1], [1.0])
    np.testing.assert_array_equal(_at(spec, eps, c2, "right")[1], [0.0])
    np.testing.assert_array_equal(_at(spec, eps, c1, "right")[1], [1.0])
    np.testing.assert_array_equal(_at(spec, eps, c1, "left")[1], [-1.0])
    np.testing.assert_array_equal(_at(spec, eps, c0, "right")[1], [-1.0])
    np.testing.assert_array_equal(_at(spec, eps, c0, "left")[1], [0.0])


def test_left_needle_mirrors_right():
    # the left needle (theta, lam, xi) coincides with the right needle
    # (theta-eps, 1-lam, paired xi), values and one-sided slopes alike
    rng = np.random.default_rng(5)
    for _ in range(25):
        theta = float(rng.uniform(1.0, 2.0))
        lam = float(rng.uniform(0.1, 0.9))
        xi = rng.uniform(-2, 2, size=2)
        if np.max(np.abs(xi)) < 1e-3:
            xi[0] = 1.0
        eps = float(rng.uniform(0.05, 0.5))
        left = NeedleSpec(theta=theta, lam=lam, xi=xi, side="left")
        mirrored = NeedleSpec(theta=theta - eps, lam=1.0 - lam,
                              xi=(lam / (lam - 1.0)) * xi, side="right")
        ts = np.concatenate((np.linspace(theta - eps - 0.1, theta + 0.1, 37),
                             left.corners(eps)))
        for side in ("right", "left"):
            q_l, q_dot_l = perturbation(left, eps, ts, side)
            q_r, q_dot_r = perturbation(mirrored, eps, ts, side)
            np.testing.assert_allclose(q_l, q_r, atol=1e-13)
            np.testing.assert_allclose(q_dot_l, q_dot_r, rtol=1e-13)


def test_vary_adds_needle_on_top_of_candidate(prob):
    cand = make_candidate(prob)
    spec = NeedleSpec(theta=1.0, lam=0.5, xi=np.array([1.0]), side="right")
    eps = 0.5
    varied = vary(cand, spec, eps)
    c0, c1, c2 = spec.corners(eps)
    for c in (c0, c1, c2):
        assert any(abs(b - c) <= 1e-12 for b in varied.breakpoints)
    for t in np.linspace(-1.0, 3.0, 101):
        want = cand.traj.value(t) + _at(spec, eps, float(t))[0]
        np.testing.assert_allclose(varied.value(t), want, atol=1e-13)
    # derivative matches the needle slopes inside the support
    np.testing.assert_allclose(varied.deriv(1.1, "right"), [1.0], atol=1e-13)
    np.testing.assert_allclose(varied.deriv(1.4, "right"), [-1.0], atol=1e-13)


def test_vary_on_curved_candidate_keeps_continuity(prob):
    cand = make_candidate(prob, ["0.1*t*(3 - t)"])
    spec = NeedleSpec(theta=1.3, lam=0.25, xi=np.array([0.7]), side="left")
    eps = 0.3
    varied = vary(cand, spec, eps)
    for b in varied.breakpoints:
        left_v, right_v = (
            varied.segments[varied.segment_index(b, side)].rows(
                "value", np.array([b]))[:, 0] for side in ("left", "right"))
        np.testing.assert_allclose(left_v, right_v, atol=1e-13)
    for t in np.linspace(0.0, 3.0, 61):
        want = cand.traj.value(t) + _at(spec, eps, float(t))[0]
        np.testing.assert_allclose(varied.value(t), want, atol=1e-13)


def test_vary_rejects_eps_outside_window(prob):
    cand = make_candidate(prob)
    spec = NeedleSpec(theta=1.9, lam=0.5, xi=np.array([1.0]), side="right")
    with pytest.raises(NeedleError):
        vary(cand, spec, 0.2)  # window is t1 - h - theta = 0.1


def test_norm_formulas():
    # sup |q| = lam*eps*|xi| and sup |q_dot| = max{1, lam/(1-lam)}*|xi|,
    # Euclidean, on the corners and a dense grid of the support
    for lam, xi, sup_qdot in ((0.25, [3.0, 4.0], 5.0), (0.75, [1.0], 3.0)):
        spec = NeedleSpec(theta=1.0, lam=lam, xi=np.array(xi), side="right")
        eps = 0.5
        c0, c1, c2 = spec.corners(eps)
        ts = np.concatenate(([c0, c1, c2], np.linspace(c0, c2, 1001)))
        for side in ("right", "left"):
            q, q_dot = perturbation(spec, eps, ts, side)
            assert np.max(np.linalg.norm(q, axis=0)) == pytest.approx(
                lam * eps * np.linalg.norm(xi), abs=1e-15)
            assert np.max(np.linalg.norm(q_dot, axis=0)) == pytest.approx(
                sup_qdot, abs=1e-15)
