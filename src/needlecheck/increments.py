"""Cost increments under needle variations, two independent ways.

delta_S_direct adds the needle's (q, q_dot) to the candidate at the
quadrature nodes and integrates the Lagrangian difference, a whole eps
sweep in one batched integrate_L call; it never touches the excess
functionals.
expansion_prediction assembles the predicted first and second order
coefficients exclusively from one conditions.ExcessPoint at theta (Q_1 from
the slot excesses at xi and its pair, and the second-order bracket of the
M sum and the exact rate of the Q_2 sum); it never integrates the cost.
verify_expansion runs a geometric eps sweep of the direct increment, fits
it with a power series in eps, and compares the fitted first and second
order coefficients against the prediction.  Agreement of the two paths
is the point: each would miss a bug in the other.
"""

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import conditions, problem
from .conditions import AnalysisSettings
from .needle import NeedleSpec, check_eps, perturbation, window_for
from .problem import CandidateExtremal, DelayProblem
from .quadrature import EpsSweep, fit_expansion, geometric_sweep


def delta_S_direct(p: DelayProblem, cand: CandidateExtremal, spec: NeedleSpec,
                   eps, order: Optional[int] = None):
    """S(candidate + needle) - S(candidate) by direct quadrature, for one
    eps (a float) or for each level of an array of eps (an array).

    The integrand difference is supported on the needle support [c0, c2]
    (where the state and its slope change) and on its +h shift (where the
    delayed slots change).  eps < h keeps the two regions disjoint, so the
    difference is integrated only there, which avoids cancellation against
    the unperturbed bulk of the cost.  One integrate_L call gives every
    level's four pieces, varied (the needle's (q, q_dot) added at the
    nodes) and base, on the support and on its shift; a level is their fsum.
    """
    intervals = []
    for e in np.atleast_1d(np.asarray(eps, dtype=float)).tolist():
        check_eps(p, spec, e)
        c0, _, c2 = corners = spec.corners(e)
        extra = corners + tuple(c + p.h for c in corners)
        bump = functools.partial(perturbation, spec, e)
        for lo, hi in ((c0, c2), (c0 + p.h, c2 + p.h)):
            intervals += [problem.Interval(lo, hi, extra, bump),
                          problem.Interval(lo, hi, extra)]
    pieces = problem.integrate_L(p, cand.traj, intervals, order)
    deltas = [math.fsum((a, -b, c, -d))
              for a, b, c, d in np.reshape(pieces, (-1, 4)).tolist()]
    return deltas[0] if np.ndim(eps) == 0 else np.array(deltas)


def expansion_prediction(p: DelayProblem, cand: CandidateExtremal,
                         spec: NeedleSpec) -> tuple:
    """Predicted (c1, c2) of Delta S = c1*eps + c2*eps^2 + o(eps^2).

    c1 is the Q_1 sum at theta.  c2 is +-(1/2) * (lam * M sum + d/dt Q_2 sum),
    with + for right needles and - for left needles: the sweep toward t0
    flips the sign of the whole second-order bracket (ExcessPoint's
    second_order, from the needle's side).  Built entirely from the excess
    functionals; the cost integral is never evaluated here.
    """
    window_for(p, spec)  # validates xi and theta against the side's regime
    lam, slopes = spec.lam, [spec.xi, spec.outer_slope]
    pt = conditions.ExcessPoint(p, cand, spec.theta, spec.side)
    q1_x, q1_y = (conditions.q_k(1, lam, *pt.excess(s, slopes)[0].tolist())
                  for s in ("x", "y"))
    half = 0.5 if spec.side == "right" else -0.5
    return q1_x + q1_y, half * float(pt.second_order(lam, spec.xi)[0, 0])


@dataclass(frozen=True)
class IncrementRecord:
    """Side-by-side result of the sweep fit and the excess prediction."""

    spec: NeedleSpec
    eps_max: float
    sweep: EpsSweep
    c1_predicted: float
    c2_predicted: float
    c1_fitted: float
    c2_fitted: float
    fit_residual: float
    tolerance: float
    passed: bool


def verify_expansion(p: DelayProblem, cand: CandidateExtremal,
                     spec: NeedleSpec,
                     settings: AnalysisSettings = AnalysisSettings()
                     ) -> IncrementRecord:
    """Fit c1, c2 from a geometric eps sweep of the direct increment (the
    settings' sweep_levels, sweep_ratio and quad_order) and compare them
    with the excess-functional prediction.

    The sweep starts at eps_max, derived as a quarter of the validity
    window capped at 1/4.  The tolerance is max(1e-6, 1e-3 * scale) per
    coefficient, where scale is the magnitude of the predicted pair (at
    least 1)."""
    eps_max = min(window_for(p, spec), 1.0) / 4.0
    c1_pred, c2_pred = expansion_prediction(p, cand, spec)
    sweep = geometric_sweep(
        lambda e: delta_S_direct(p, cand, spec, e, settings.quad_order),
        eps_max, settings.sweep_levels, settings.sweep_ratio)
    c1_fit, c2_fit, residual = fit_expansion(sweep)
    tol = max(1e-6, 1e-3 * max(abs(c1_pred), abs(c2_pred), 1.0))
    passed = (abs(c1_fit - c1_pred) <= tol) and (abs(c2_fit - c2_pred) <= tol)
    return IncrementRecord(spec=spec, eps_max=eps_max, sweep=sweep,
                           c1_predicted=c1_pred, c2_predicted=c2_pred,
                           c1_fitted=c1_fit, c2_fitted=c2_fit,
                           fit_residual=residual, tolerance=tol, passed=passed)
