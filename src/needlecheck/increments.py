"""Cost increments under needle variations, two independent ways.

delta_S_direct adds the needle's (q, q_dot) to the candidate at the
quadrature nodes and integrates the Lagrangian difference, a whole eps
sweep in one batched integrate_L call; it never touches the excess
functionals.
expansion_prediction assembles the predicted first and second order
coefficients exclusively from one conditions.ExcessPoint at theta (Q_1 from
the slot excesses at xi and its pair, the M sum, and the time derivative
of Q_2 from the exact excess-sum rates); it never integrates the cost.
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
from .needle import NeedleSpec, check_eps, perturbation, window_for
from .problem import CandidateExtremal, DelayProblem
from .quadrature import (DEFAULT_SWEEP_LEVELS, DEFAULT_SWEEP_RATIO, EpsSweep,
                         fit_expansion, geometric_sweep)


class IncrementError(ValueError):
    pass


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
    flips the sign of the whole second-order bracket.  d/dt Q_2 sum is the
    exact one-sided chain rule from the needle's side.  Built entirely from
    the excess functionals; the cost integral is never evaluated here.
    """
    window_for(p, spec)  # validates theta against the side's regime
    lam, slopes = spec.lam, [spec.xi, spec.outer_slope]
    pt = conditions.ExcessPoint(p, cand, spec.theta, spec.side)
    (ex0, ex1), (ey0, ey1) = (pt.excess(s, slopes)[0].tolist()
                              for s in ("x", "y"))
    c1 = (lam * ex0 + (1.0 - lam) * ex1) + (lam * ey0 + (1.0 - lam) * ey1)
    m_sum = float(pt.m_sum(lam, spec.xi)[0, 0])
    r_xi, r_pair = pt.e_sum_rate(slopes)[0].tolist()
    q2_rate = lam ** 2 * r_xi + (1.0 - lam ** 2) * r_pair
    half = 0.5 if spec.side == "right" else -0.5
    return c1, half * (lam * m_sum + q2_rate)


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


def default_eps_max(p: DelayProblem, spec: NeedleSpec) -> float:
    """A quarter of the validity window, capped at 1/4."""
    return min(window_for(p, spec), 1.0) / 4.0


def verify_expansion(p: DelayProblem, cand: CandidateExtremal,
                     spec: NeedleSpec,
                     eps_max: Optional[float] = None,
                     levels: int = DEFAULT_SWEEP_LEVELS,
                     ratio: float = DEFAULT_SWEEP_RATIO,
                     order: Optional[int] = None,
                     tol: Optional[float] = None) -> IncrementRecord:
    """Fit c1, c2 from a geometric eps sweep of the direct increment and
    compare them with the excess-functional prediction.

    The default tolerance is max(1e-6, 1e-3 * scale) per coefficient, where
    scale is the magnitude of the predicted pair (at least 1)."""
    if eps_max is None:
        eps_max = default_eps_max(p, spec)
    limit = window_for(p, spec)
    if not 0.0 < eps_max < limit:
        raise IncrementError(
            f"eps_max={eps_max} outside the validity window (0, {limit})")
    c1_pred, c2_pred = expansion_prediction(p, cand, spec)
    sweep = geometric_sweep(
        lambda e: delta_S_direct(p, cand, spec, e, order), eps_max,
        levels=levels, ratio=ratio)
    c1_fit, c2_fit, residual = fit_expansion(sweep)
    if tol is None:
        scale = max(abs(c1_pred), abs(c2_pred), 1.0)
        tol = max(1e-6, 1e-3 * scale)
    passed = (abs(c1_fit - c1_pred) <= tol) and (abs(c2_fit - c2_pred) <= tol)
    return IncrementRecord(spec=spec, eps_max=eps_max, sweep=sweep,
                           c1_predicted=c1_pred, c2_predicted=c2_pred,
                           c1_fitted=c1_fit, c2_fitted=c2_fit,
                           fit_residual=residual, tolerance=tol, passed=passed)
