"""Increment expansions: direct quadrature vs the excess-functional path.

Closed forms for the bundled problem along the zero candidate:
  right needle at theta=1, lam=1/2, xi=1:  Delta S(eps) = -eps^2/2
  left  needle at theta=1.5, same (lam,xi): Delta S(eps) = +eps^2/2
  right needle at theta=2.5 (tail, delayed slot gone): eps - eps^2/4
"""

import numpy as np
import pytest

import needlecheck.conditions
import needlecheck.problem
import needlecheck.trajectory
from needlecheck.increments import (
    IncrementError,
    default_eps_max,
    delta_S_direct,
    expansion_prediction,
    verify_expansion,
    verify_needle_first_variation_zero,
)
from needlecheck.needle import NeedleError, NeedleSpec

from conftest import SAMPLE_L, make_candidate, make_problem

RIGHT = NeedleSpec(theta=1.0, lam=0.5, xi=np.array([1.0]), side="right")
LEFT = NeedleSpec(theta=1.5, lam=0.5, xi=np.array([1.0]), side="left")
TAIL = NeedleSpec(theta=2.5, lam=0.5, xi=np.array([1.0]), side="right")


def test_direct_increment_right_fixture(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    for eps in (0.25, 0.125, 0.01):
        got = delta_S_direct(p, cand, RIGHT, eps)
        assert abs(got - (-0.5 * eps * eps)) <= 1e-12


def test_direct_increment_left_fixture(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    for eps in (0.25, 0.0625):
        got = delta_S_direct(p, cand, LEFT, eps)
        assert abs(got - (0.5 * eps * eps)) <= 1e-12


def test_direct_increment_tail_fixture(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    for eps in (0.125, 0.03125):
        got = delta_S_direct(p, cand, TAIL, eps)
        assert abs(got - (eps - 0.25 * eps * eps)) <= 1e-12


def test_prediction_right(sample_problem, sample_cand):
    c1, c2 = expansion_prediction(sample_problem, sample_cand, RIGHT)
    assert c1 == pytest.approx(0.0, abs=1e-9)
    assert c2 == pytest.approx(-0.5, abs=1e-7)


def test_prediction_left_flips_second_order(sample_problem, sample_cand):
    c1, c2 = expansion_prediction(sample_problem, sample_cand, LEFT)
    assert c1 == pytest.approx(0.0, abs=1e-9)
    assert c2 == pytest.approx(0.5, abs=1e-7)


def test_prediction_tail(sample_problem, sample_cand):
    c1, c2 = expansion_prediction(sample_problem, sample_cand, TAIL)
    assert c1 == pytest.approx(1.0, abs=1e-9)
    assert c2 == pytest.approx(-0.25, abs=1e-7)


def test_verify_expansion_fixtures(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    for spec, want in ((RIGHT, (0.0, -0.5)), (LEFT, (0.0, 0.5)),
                       (TAIL, (1.0, -0.25))):
        rec = verify_expansion(p, cand, spec)
        assert rec.passed
        assert rec.c1_fitted == pytest.approx(want[0], abs=1e-8)
        assert rec.c2_fitted == pytest.approx(want[1], abs=1e-6)
        assert rec.fit_residual <= 1e-6
        assert len(rec.sweep.eps) == 8
        assert rec.eps_max == pytest.approx(default_eps_max(p, spec))


def test_default_eps_max(sample_problem):
    assert default_eps_max(sample_problem, RIGHT) == pytest.approx(0.25)
    assert default_eps_max(sample_problem, TAIL) == pytest.approx(0.125)


def test_eps_window_enforced(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    with pytest.raises(NeedleError):
        delta_S_direct(p, cand, RIGHT, 1.0)
    with pytest.raises(NeedleError):
        delta_S_direct(p, cand, RIGHT, -0.1)
    with pytest.raises(IncrementError, match="eps_max"):
        verify_expansion(p, cand, RIGHT, eps_max=5.0)


def test_direct_path_ignores_excess_machinery(sample_problem, sample_cand,
                                              monkeypatch):
    # delta_S_direct must not call into the excess functionals
    p, cand = sample_problem, sample_cand

    def boom(*args, **kwargs):
        raise AssertionError("excess machinery invoked by the direct path")

    monkeypatch.setattr(needlecheck.conditions, "q_k", boom)
    monkeypatch.setattr(needlecheck.conditions, "m_term", boom)
    monkeypatch.setattr(needlecheck.conditions, "excess_E", boom)
    monkeypatch.setattr(needlecheck.conditions, "q2_sum_slope", boom)
    monkeypatch.setattr(needlecheck.problem, "time_rate", boom)
    monkeypatch.setattr(needlecheck.trajectory.Trajectory, "second_deriv", boom)
    got = delta_S_direct(p, cand, RIGHT, 0.25)
    assert abs(got - (-0.5 * 0.25 ** 2)) <= 1e-12


def test_prediction_path_never_integrates(sample_problem, sample_cand,
                                          monkeypatch):
    # expansion_prediction must not evaluate the cost integral
    p, cand = sample_problem, sample_cand

    def boom(*args, **kwargs):
        raise AssertionError("cost integral invoked by the prediction path")

    monkeypatch.setattr(needlecheck.problem, "integrate_L", boom)
    monkeypatch.setattr(needlecheck.problem, "eval_S", boom)
    c1, c2 = expansion_prediction(p, cand, RIGHT)
    assert c1 == pytest.approx(0.0, abs=1e-9)
    assert c2 == pytest.approx(-0.5, abs=1e-7)


def test_needle_first_variation_check(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    chk = verify_needle_first_variation_zero(p, cand, RIGHT, 0.25)
    assert chk.passed and abs(chk.value) <= chk.tolerance
    # a candidate that is not an extremal fails the check
    bent = make_candidate(make_problem(SAMPLE_L), ["0.1*t*(3 - t)"])
    chk2 = verify_needle_first_variation_zero(bent.problem, bent, RIGHT, 0.25)
    assert not chk2.passed
    assert abs(chk2.value) > 1e-3
