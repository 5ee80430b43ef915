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
    geometric_sweep,
    integrate,
    panel_plan,
)

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


def test_non_finite_sample_reports_location():
    with pytest.raises(QuadratureError, match="non-finite .* at t="):
        integrate(lambda t: np.log(t - 1.0), 0.0, 0.5)


def test_geometric_sweep_grid():
    sweep = geometric_sweep(lambda e: 3.0 * e, eps_max=0.4, levels=5, ratio=0.5)
    assert sweep.eps == (0.4, 0.2, 0.1, 0.05, 0.025)
    assert sweep.values == tuple(3.0 * e for e in sweep.eps)
    with pytest.raises(QuadratureError, match="positive"):
        geometric_sweep(lambda e: e, eps_max=0.0, levels=5, ratio=0.5)
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
    sweep = geometric_sweep(lambda e: -0.5 * e * e, 0.1, *SWEEP)
    c1, c2, residual = fit_expansion(sweep)
    assert abs(c1) <= 1e-9
    assert c2 == pytest.approx(-0.5, abs=1e-8)
    assert residual <= 1e-8


def test_fit_recovers_pure_linear():
    sweep = geometric_sweep(lambda e: 3.0 * e, 0.2, *SWEEP)
    c1, c2, _ = fit_expansion(sweep)
    assert c1 == pytest.approx(3.0, abs=1e-9)
    assert abs(c2) <= 1e-7


def test_fit_tolerates_cubic_tail():
    # cubic contamination of the fit shrinks like eps_max^2 for c1 and
    # eps_max for c2, so a small sweep cap isolates the quadratic part
    sweep = geometric_sweep(lambda e: e + e * e + e ** 3, 5e-4, *SWEEP)
    c1, c2, _ = fit_expansion(sweep)
    assert c1 == pytest.approx(1.0, abs=1e-6)
    assert c2 == pytest.approx(1.0, abs=1e-3)


def test_fit_separates_a_cubic_term_at_a_wide_sweep():
    # a needle increment has genuine eps^3 terms; they must not leak into c2
    # even where eps^3 is a quarter of eps^2
    sweep = geometric_sweep(lambda e: e + e * e + e ** 3, 0.25, *SWEEP)
    c1, c2, residual = fit_expansion(sweep)
    assert c1 == pytest.approx(1.0, abs=1e-9)
    assert c2 == pytest.approx(1.0, abs=1e-9)
    assert residual <= 1e-12


def test_fit_requires_enough_levels():
    with pytest.raises(QuadratureError, match="levels"):
        fit_expansion(EpsSweep(eps=(0.1, 0.05, 0.025), values=(1.0, 0.5, 0.25)))


def test_default_order_is_ten():
    # degree-19 polynomial is the exactness edge for the default rule
    assert DEFAULT_ORDER == 10
    got = integrate(lambda t: t ** 19, 0.0, 1.0)
    assert got == pytest.approx(0.05, abs=1e-14)
