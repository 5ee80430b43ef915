"""Gauss-Legendre panels and the eps-expansion fit."""

import numpy as np
import pytest

from needlecheck.conditions import AnalysisSettings, SettingsError
from needlecheck.quadrature import (
    DEFAULT_ORDER,
    EpsSweep,
    QuadratureError,
    fit_expansion,
    gauss_rule,
    geometric_sweeps,
    panel_plan,
)

from reference import integrate

# the default sweep of the analysis settings: (levels, ratio)
SWEEP = (AnalysisSettings().sweep_levels, AnalysisSettings().sweep_ratio)


def test_gauss_rule_shapes_and_weights():
    for order in (1, 2, 5, 10):
        x, w = gauss_rule(order)
        assert x.shape == (order,) and w.shape == (order,)
        assert np.sum(w) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(QuadratureError):
        gauss_rule(0)


def test_polynomial_exactness_to_degree_2n_minus_1():
    for order in (2, 4, 10):
        for k in range(2 * order):
            got = integrate(lambda t, k=k: t ** k, 0.0, 1.0, order=order)
            assert got == pytest.approx(1.0 / (k + 1), abs=1e-14), (order, k)


def test_simple_pinned_integrals():
    assert integrate(lambda t: np.ones_like(t), 0.0, 3.0) == pytest.approx(3.0, abs=1e-14)
    assert integrate(lambda t: t ** 9, 0.0, 1.0) == pytest.approx(0.1, abs=1e-15)
    assert integrate(lambda t: t, 1.0, 1.0) == 0.0


def test_breakpoint_panels_handle_kinks():
    # integral of 1 - (t-1) on [1, 1.1] with a panel split at 1.05; the
    # antiderivative t - (t-1)^2/2 gives 1.095 - 1 = 0.095
    f = lambda t: 1.0 - (t - 1.0)
    got = integrate(f, 1.0, 1.1, breaks=[1.05])
    assert got == pytest.approx(0.095, abs=1e-15)
    # a genuine kink integrates exactly once split at it
    g = lambda t: np.abs(t - 0.5)
    assert integrate(g, 0.0, 1.0, breaks=[0.5]) == pytest.approx(0.25, abs=1e-15)


def test_integrand_is_called_once_on_every_node():
    calls = []

    def f(t):
        calls.append(t.shape)
        return np.cos(t)

    got = integrate(f, 0.0, 2.0, breaks=[0.5, 1.0, 1.5], order=6)
    assert calls == [(4 * 6,)]
    assert got == pytest.approx(np.sin(2.0), abs=1e-14)


def test_panel_plan_filters_breaks():
    assert panel_plan(0.0, 1.0, []) == [(0.0, 1.0)]
    assert panel_plan(0.0, 1.0, [0.5, -3.0, 2.0, 0.5]) == [(0.0, 0.5), (0.5, 1.0)]
    assert panel_plan(1.0, 1.0, [7.0]) == []
    with pytest.raises(QuadratureError, match="reversed"):
        panel_plan(1.0, 0.0, [])


def test_additivity():
    f = lambda t: np.exp(t) * np.sin(3.0 * t)
    whole = integrate(f, 0.0, 2.0)
    for c in (0.3, 1.0, 1.7):
        parts = integrate(f, 0.0, c) + integrate(f, c, 2.0)
        assert abs(parts - whole) <= 1e-13 * (1.0 + abs(whole))


def test_geometric_sweep_grid():
    [sweep] = geometric_sweeps(lambda e: 3.0 * e, [0.4], levels=5, ratio=0.5)
    assert sweep.eps == (0.4, 0.2, 0.1, 0.05, 0.025)
    assert sweep.values == tuple(3.0 * e for e in sweep.eps)
    with pytest.raises(QuadratureError, match="positive"):
        geometric_sweeps(lambda e: e, [0.0], levels=5, ratio=0.5)
    # the sweep's levels and ratio come from the analysis settings, whose
    # range rules reject fewer than 4 levels and a ratio outside (0, 1)
    with pytest.raises(SettingsError, match="key 'sweep_ratio'"):
        AnalysisSettings(sweep_ratio=1.5)
    with pytest.raises(SettingsError, match="key 'sweep_levels'"):
        AnalysisSettings(sweep_levels=3)


def test_sweep_validation():
    with pytest.raises(QuadratureError, match="length"):
        EpsSweep(eps=(0.1, 0.2), values=(1.0,))
    with pytest.raises(QuadratureError, match="positive"):
        EpsSweep(eps=(0.1, -0.2), values=(1.0, 2.0))
    with pytest.raises(QuadratureError, match="duplicate"):
        EpsSweep(eps=(0.1, 0.1), values=(1.0, 1.0))


def test_fit_recovers_exact_quadratic():
    [sweep] = geometric_sweeps(lambda e: -0.5 * e * e, [0.1], *SWEEP)
    c1, c2, residual = fit_expansion(sweep)
    assert abs(c1) <= 1e-9
    assert c2 == pytest.approx(-0.5, abs=1e-8)
    assert residual <= 1e-8


def test_fit_recovers_pure_linear():
    [sweep] = geometric_sweeps(lambda e: 3.0 * e, [0.2], *SWEEP)
    c1, c2, _ = fit_expansion(sweep)
    assert c1 == pytest.approx(3.0, abs=1e-9)
    assert abs(c2) <= 1e-7


def test_fit_tolerates_cubic_tail():
    # cubic contamination of the fit shrinks like eps_max^2 for c1 and
    # eps_max for c2, so a small sweep cap isolates the quadratic part
    [sweep] = geometric_sweeps(lambda e: e + e * e + e ** 3, [5e-4], *SWEEP)
    c1, c2, _ = fit_expansion(sweep)
    assert c1 == pytest.approx(1.0, abs=1e-6)
    assert c2 == pytest.approx(1.0, abs=1e-3)


def test_fit_separates_a_cubic_term_at_a_wide_sweep():
    # a needle increment has genuine eps^3 terms; they must not leak into c2
    # even where eps^3 is a quarter of eps^2
    [sweep] = geometric_sweeps(lambda e: e + e * e + e ** 3, [0.25], *SWEEP)
    c1, c2, residual = fit_expansion(sweep)
    assert c1 == pytest.approx(1.0, abs=1e-9)
    assert c2 == pytest.approx(1.0, abs=1e-9)
    assert residual <= 1e-12


def test_fit_requires_enough_levels():
    with pytest.raises(QuadratureError, match="levels"):
        fit_expansion(EpsSweep(eps=(0.1, 0.05, 0.025), values=(1.0, 0.5, 0.25)))


def _lstsq_fit(sweep):
    """(c1, c2) and the scale 1 + max|c| of the same least-squares fit by
    numpy.linalg.lstsq, with c the coefficients of the columns u^k, u =
    eps/eps_max."""
    eps, vals = np.array(sweep.eps), np.array(sweep.values)
    emax = eps.max()
    A = (eps / emax)[:, None] ** np.arange(1, 5)
    coef, _, rank, _ = np.linalg.lstsq(A, vals, rcond=None)
    assert rank == 4
    return coef[0] / emax, coef[1] / emax ** 2, 1.0 + np.abs(coef).max(), emax


def _assert_matches_lstsq(sweep):
    c1, c2, _ = fit_expansion(sweep)
    r1, r2, scale, emax = _lstsq_fit(sweep)
    # 1e-12 * (1 + |c|) on the coefficients of u^1 and u^2
    assert abs(c1 - r1) * emax <= 1e-12 * scale
    assert abs(c2 - r2) * emax ** 2 <= 1e-12 * scale


@pytest.mark.parametrize("seed", range(6))
def test_fit_matches_lstsq_on_polynomial_sweeps(seed):
    rng = np.random.default_rng(seed)
    for _ in range(40):
        levels = int(rng.integers(4, 13))
        ratio = float(rng.uniform(0.3, 0.8))
        c = rng.uniform(-2.0, 2.0, 4)
        [sweep] = geometric_sweeps(
            lambda e: sum(c[k] * e ** (k + 1) for k in range(4)),
            [float(rng.uniform(0.01, 0.25))], levels, ratio)
        _assert_matches_lstsq(sweep)


@pytest.mark.parametrize("levels", [4, 8, 12])
@pytest.mark.parametrize("ratio", [0.3, 0.5, 0.8])
def test_fit_matches_lstsq_on_the_sinh_closed_form(levels, ratio):
    # K*(dx^2 + x^2) along x = sinh t: Delta S = K xi^2 (eps lam/(1-lam)
    # + lam^2 eps^3/3), |c1| up to 1.2e4 and c2 = 0
    K = 1000.0
    for lam in (0.25, 0.5, 0.75):
        for xi in (0.5, 2.0):
            [sweep] = geometric_sweeps(
                lambda e: K * xi ** 2 * (e * lam / (1.0 - lam)
                                         + lam ** 2 * e ** 3 / 3.0),
                [0.25], levels, ratio)
            _assert_matches_lstsq(sweep)
            c1, c2, _ = fit_expansion(sweep)
            assert c1 == pytest.approx(K * xi ** 2 * lam / (1.0 - lam),
                                       rel=1e-12)
            assert abs(c2) <= 1e-9 * abs(c1)


@pytest.mark.parametrize("levels", [4, 8, 12])
def test_fit_rejects_near_coincident_levels(levels):
    # distinct levels a few ulps apart: the columns u, ..., u^4 are equal
    # to rounding, and the rank test refuses the fit, as lstsq's rank does
    for gap in (1e-15, 1e-13, 1e-10):
        eps = tuple(0.1 * (1.0 - k * gap) for k in range(levels))
        sweep = EpsSweep(eps=eps, values=tuple(e * e for e in eps))
        A = (np.array(eps) / max(eps))[:, None] ** np.arange(1, 5)
        assert np.linalg.lstsq(A, np.ones(levels), rcond=None)[2] < 4
        with pytest.raises(QuadratureError, match="ill-conditioned"):
            fit_expansion(sweep)


def test_default_order_is_ten():
    # degree-19 polynomial is the exactness edge for the default rule
    assert DEFAULT_ORDER == 10
    got = integrate(lambda t: t ** 19, 0.0, 1.0)
    assert got == pytest.approx(0.05, abs=1e-14)


def test_default_rule_is_leggauss_bit_for_bit():
    for order in (1, 3, 7, DEFAULT_ORDER, 20):
        got, want = gauss_rule(order), np.polynomial.legendre.leggauss(order)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
