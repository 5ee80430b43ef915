"""Cost increments under needle variations, two independent ways.

Each function takes one needle or a sequence of needles, which it
batches.
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
is the point: each would miss a bug in the other."""

import functools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import conditions, problem
from .conditions import AnalysisSettings
from .needle import (NeedleError, NeedleSpec, check_eps, perturbation,
                     window_for)
from .problem import CandidateExtremal, DelayProblem
from .quadrature import EpsSweep, fit_expansion, geometric_sweeps


Needles = Union[NeedleSpec, Sequence[NeedleSpec]]


def _needles(specs: Needles) -> Tuple[List[NeedleSpec], bool]:
    """specs as a list, and whether it was one needle, not a sequence."""
    one = isinstance(specs, NeedleSpec)
    return ([specs] if one else list(specs)), one


def delta_S_direct(p: DelayProblem, cand: CandidateExtremal, specs: Needles,
                   eps, order: Optional[int] = None):
    """S(candidate + needle) - S(candidate) by direct quadrature.  For one
    needle, eps is one eps (a float, and so is the result) or an array of
    eps levels (one value each).  For a sequence of needles, eps has one
    entry per needle, a float or a row of levels, and the result is an
    array of the shape of eps.

    The integrand difference is supported on the needle support [c0, c2]
    (where the state and its slope change) and on its +h shift (where the
    delayed slots change).  eps < h keeps the two regions disjoint, so the
    difference is integrated only there, which avoids cancellation against
    the unperturbed bulk of the cost.  One integrate_L call gives every
    needle's and level's four pieces, varied (the needle's (q, q_dot) added
    at the nodes) and base, on the support and on its shift; a level is
    their fsum.
    """
    specs, one = _needles(specs)
    eps = np.asarray(eps, dtype=float)
    if not one and len(eps) != len(specs):
        raise NeedleError(f"{len(eps)} eps entries for {len(specs)} needles")
    intervals = []
    for spec, levels in zip(specs, eps.reshape(len(specs), -1).tolist()):
        for e in levels:
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
    return deltas[0] if eps.ndim == 0 else np.reshape(deltas, eps.shape)


def expansion_prediction(p: DelayProblem, cand: CandidateExtremal,
                         specs: Needles):
    """Predicted (c1, c2) of Delta S = c1*eps + c2*eps^2 + o(eps^2) of one
    needle, or a list of them, one per needle of a sequence.

    c1 is the Q_1 sum at theta.  c2 is +-(1/2) * (lam * M sum + d/dt Q_2 sum),
    with + for right needles and - for left needles: the sweep toward t0
    flips the sign of the whole second-order bracket (ExcessPoint's
    second_order, from the needle's side).  Built entirely from the excess
    functionals, on one ExcessPoint with a row per needle; each distinct
    (lam, xi) is evaluated once at every row, and a needle reads its own
    row.  The cost integral is never evaluated here.
    """
    specs, one = _needles(specs)
    for spec in specs:
        window_for(p, spec)  # validates xi and theta against the side's regime
    pt = conditions.ExcessPoint(p, cand, [s.theta for s in specs],
                                [s.side for s in specs])
    # each distinct (lam, xi) once, as column j of the slope stacks
    cols = {}
    for spec in specs:
        cols.setdefault((spec.lam, spec.xi.tobytes()), (len(cols), spec))
    firsts = [spec for _, spec in cols.values()]
    slopes = [x for spec in firsts for x in (spec.xi, spec.outer_slope)]
    e_x, e_y = (pt.excess(slot, slopes).tolist() for slot in ("x", "y"))
    # column j -> its second-order bracket at each row
    bracket = {}
    for lam in {spec.lam for spec in firsts}:
        js = [j for j, spec in enumerate(firsts) if spec.lam == lam]
        at = pt.second_order(lam, [firsts[j].xi for j in js])
        bracket.update(zip(js, at.T.tolist()))
    out = []
    for k, spec in enumerate(specs):
        j = cols[(spec.lam, spec.xi.tobytes())][0]
        q1_x, q1_y = (conditions.q_k(1, spec.lam, *e[k][2 * j:2 * j + 2])
                      for e in (e_x, e_y))
        half = 0.5 if spec.side == "right" else -0.5
        out.append((q1_x + q1_y, half * bracket[j][k]))
    return out[0] if one else out


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
                     specs: Needles,
                     settings: AnalysisSettings = AnalysisSettings()):
    """Fit c1, c2 from a geometric eps sweep of the direct increment (the
    settings' sweep_levels, sweep_ratio and quad_order) and compare them
    with the excess-functional prediction: the IncrementRecord of one
    needle, or a list of them, one per needle of a sequence.  Every
    prediction comes from one expansion_prediction call and every sweep
    from one delta_S_direct call.

    Each sweep starts at eps_max, derived as a quarter of the needle's
    validity window capped at 1/4.  The tolerance is max(1e-6, 1e-3 *
    scale) per coefficient, where scale is the magnitude of the predicted
    pair (at least 1)."""
    specs, one = _needles(specs)
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
    return records[0] if one else records
