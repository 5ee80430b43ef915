"""Cost increments under needle variations, two independent ways, and
the first variation along a needle.

Each function takes a sequence of needles, which it batches, and returns
one result per needle.
delta_S_direct adds each needle's (q, q_dot) to the candidate at the
quadrature nodes and integrates the Lagrangian difference, every needle's
whole eps sweep in one batched integrate_L call; it never touches the
excess functionals.
expansion_prediction assembles the predicted first and second order
coefficients exclusively from one conditions.ExcessPoint with a row per
needle (Q_1 from the slot excesses at xi and its pair, and the
second-order bracket of the M sum and the exact rate of the Q_2 sum); it
never integrates the cost.
verify_expansion runs a geometric eps sweep of the direct increment, fits
it with a power series in eps, and compares the fitted first and second
order coefficients against the prediction.  Agreement of the two paths
is the point: each would miss a bug in the other.
needle_first_variation integrates, on the intervals and nodes of
delta_S_direct, the derivative of L in the direction of the needle's
(q, q_dot)."""

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import conditions, problem
from .conditions import AnalysisSettings
from .needle import (NeedleError, NeedleSpec, check_eps, perturbation,
                     window_for)
from .problem import CandidateExtremal, DelayProblem
from .quadrature import EpsSweep, fit_expansion, geometric_sweeps


def _intervals(p: DelayProblem, specs: Sequence[NeedleSpec], eps,
               base: bool) -> Tuple[List[problem.Interval], Tuple[int, ...]]:
    """The intervals that carry each needle's difference at each of its
    eps levels, needle by needle and level by level, and the shape of eps:
    the needle support [c0, c2] and its +h shift, each with the needle's
    bump and, with base, then without it.  eps has one entry per needle,
    a float or a row of levels."""
    eps = np.asarray(eps, dtype=float)
    given = len(eps) if eps.ndim else 0
    if given != len(specs):
        raise NeedleError(f"{given} eps entries for {len(specs)} needles")
    intervals = []
    for spec, levels in zip(specs, eps.reshape(len(specs), -1).tolist()):
        bump = functools.partial(perturbation, spec)
        for e in levels:
            check_eps(p, spec, e)
            c0, _, c2 = corners = spec.corners(e)
            extra = corners + tuple(c + p.h for c in corners)
            for lo, hi in ((c0, c2), (c0 + p.h, c2 + p.h)):
                intervals.append(problem.Interval(lo, hi, extra, bump, e))
                if base:
                    intervals.append(problem.Interval(lo, hi, extra))
    return intervals, eps.shape


def delta_S_direct(p: DelayProblem, cand: CandidateExtremal,
                   specs: Sequence[NeedleSpec], eps,
                   order: Optional[int] = None) -> np.ndarray:
    """S(candidate + needle) - S(candidate) by direct quadrature, for each
    needle and eps level: eps has one entry per needle, a float or a row
    of levels, and the result is an array of the shape of eps.

    The integrand difference is supported on the needle support [c0, c2]
    (where the state and its slope change) and on its +h shift (where the
    delayed slots change).  eps < h keeps the two regions disjoint, so the
    difference is integrated only there, which avoids cancellation against
    the unperturbed bulk of the cost.  One integrate_L call gives every
    needle's and level's four pieces, varied (the needle's (q, q_dot) added
    at the nodes) and base, on the support and on its shift; a level is
    their fsum.
    """
    intervals, shape = _intervals(p, specs, eps, base=True)
    pieces = problem.integrate_L(p, cand.traj, intervals, order)
    return np.reshape([math.fsum((a, -b, c, -d)) for a, b, c, d
                       in np.reshape(pieces, (-1, 4)).tolist()], shape)


def needle_first_variation(p: DelayProblem, cand: CandidateExtremal,
                           specs: Sequence[NeedleSpec], eps) -> np.ndarray:
    """The first variation along each needle, for each eps level (eps and
    the result as in delta_S_direct): the derivative of L in the direction
    of the needle's (q, q_dot), time_rate(p, (), args, bumps), integrated
    over delta_S_direct's intervals in one integrate_nodes call.  By the
    substitution t -> t - h on the shift this is the integral over the
    support of [Lx(t)+Ly(t+h)]^T q + [Ldx(t)+Ldy(t+h)]^T q_dot.  Zero
    (within quadrature tolerance) when the candidate is an extremal."""
    intervals, shape = _intervals(p, specs, eps, base=False)
    pieces = problem.integrate_nodes(
        p, cand.traj, intervals,
        lambda args, bumps: problem.time_rate(p, (), args, bumps))
    return np.reshape([math.fsum(pair) for pair
                       in np.reshape(pieces, (-1, 2)).tolist()], shape)


def expansion_prediction(p: DelayProblem, cand: CandidateExtremal,
                         specs: Sequence[NeedleSpec]
                         ) -> List[Tuple[float, float]]:
    """Predicted (c1, c2) of Delta S = c1*eps + c2*eps^2 + o(eps^2), one
    pair per needle.

    c1 is the Q_1 sum at theta.  c2 is +-(1/2) * (lam * M sum + d/dt Q_2 sum),
    with + for right needles and - for left needles: the sweep toward t0
    flips the sign of the whole second-order bracket (ExcessPoint's
    second_order, from the needle's side).  Built entirely from the excess
    functionals, on one ExcessPoint with a row per needle: needle k's xi
    and its pair are columns 2k and 2k+1 of the slope stack, there is one
    second_order call per distinct lam, and a needle reads its own row.
    The cost integral is never evaluated here.
    """
    for spec in specs:
        window_for(p, spec)  # validates xi and theta against the side's regime
    pt = conditions.ExcessPoint(p, cand, [s.theta for s in specs],
                                [s.side for s in specs])
    slopes = [x for spec in specs for x in (spec.xi, spec.outer_slope)]
    e_x, e_y = (pt.excess(slot, slopes).tolist() for slot in ("x", "y"))
    # needle k -> its second-order bracket at each row
    bracket = {}
    for lam in dict.fromkeys(spec.lam for spec in specs):
        ks = [k for k, spec in enumerate(specs) if spec.lam == lam]
        at = pt.second_order(lam, [specs[k].xi for k in ks])
        bracket.update(zip(ks, at.T.tolist()))
    out = []
    for k, spec in enumerate(specs):
        q1_x, q1_y = (conditions.q_k(1, spec.lam, *e[k][2 * k:2 * k + 2])
                      for e in (e_x, e_y))
        half = 0.5 if spec.side == "right" else -0.5
        out.append((q1_x + q1_y, half * bracket[k][k]))
    return out


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
                     specs: Sequence[NeedleSpec],
                     settings: AnalysisSettings = AnalysisSettings()
                     ) -> List[IncrementRecord]:
    """Fit c1, c2 from a geometric eps sweep of the direct increment (the
    settings' sweep_levels, sweep_ratio and quad_order) and compare them
    with the excess-functional prediction: one IncrementRecord per needle.
    Every prediction comes from one expansion_prediction call and every
    sweep from one delta_S_direct call.

    Each sweep starts at eps_max, derived as a quarter of the needle's
    validity window capped at 1/4.  The tolerance is max(1e-6, 1e-3 *
    scale) per coefficient, where scale is the magnitude of the predicted
    pair (at least 1)."""
    eps_max = [min(window_for(p, spec), 1.0) / 4.0 for spec in specs]
    predicted = expansion_prediction(p, cand, specs)
    sweeps = geometric_sweeps(
        lambda e: delta_S_direct(p, cand, specs, e, settings.quad_order),
        eps_max, settings.sweep_levels, settings.sweep_ratio)
    records = []
    for spec, e_max, (c1_pred, c2_pred), sweep in zip(specs, eps_max,
                                                      predicted, sweeps):
        c1_fit, c2_fit, residual = fit_expansion(sweep)
        tol = max(1e-6, 1e-3 * max(abs(c1_pred), abs(c2_pred), 1.0))
        passed = (abs(c1_fit - c1_pred) <= tol) and \
            (abs(c2_fit - c2_pred) <= tol)
        records.append(IncrementRecord(
            spec=spec, eps_max=e_max, sweep=sweep, c1_predicted=c1_pred,
            c2_predicted=c2_pred, c1_fitted=c1_fit, c2_fitted=c2_fit,
            fit_residual=residual, tolerance=tol, passed=passed))
    return records
