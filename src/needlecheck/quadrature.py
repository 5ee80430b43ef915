"""Breakpoint-aware Gauss-Legendre panels and eps-sweep coefficient fitting.

Integrands here are piecewise-smooth with *known* breakpoints (trajectory
kinks, needle corners, delay shifts), so fixed-order panels split at those
points integrate them to machine precision; no adaptive subdivision.
The default 10-point rule is exact for polynomials up to degree 19.
panel_plan and panel_nodes are the panels and nodes of the one quadrature
along a trajectory, problem.integrate_nodes.
"""

import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .trajectory import BREAK_TOL

DEFAULT_ORDER = 10
# eps^1 .. eps^4 in the sweep fit
_FIT_TERMS = 4


class QuadratureError(ValueError):
    pass


# The default rule, digit for digit the repr of numpy's leggauss(10), so
# that a default run never imports numpy.polynomial (a lazy import that
# costs a cold command several milliseconds); tests compare the bytes.
_RULES = {DEFAULT_ORDER: (
    np.array([-0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
              -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
              0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
              0.9739065285171717]),
    np.array([0.06667134430868814, 0.1494513491505804, 0.219086362515982,
              0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
              0.2692667193099965, 0.219086362515982, 0.1494513491505804,
              0.06667134430868814]))}


def gauss_rule(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]: the built-in table for the default
    order, numpy's leggauss (computed once per order) for any other."""
    if order < 1:
        raise QuadratureError(f"quadrature order must be >= 1, got {order}")
    if order not in _RULES:
        _RULES[order] = np.polynomial.legendre.leggauss(order)
    return _RULES[order]


def panel_plan(a: float, b: float, breaks: Sequence[float]) -> List[Tuple[float, float]]:
    """Ordered panels covering [a, b], split at every interior breakpoint;
    a breakpoint within BREAK_TOL of a panel edge is a duplicate."""
    if b < a:
        raise QuadratureError(f"integration bounds reversed: [{a}, {b}]")
    if b == a:
        return []
    edges = [a]
    for p in sorted(float(x) for x in breaks):
        if a + BREAK_TOL < p < b - BREAK_TOL and p - edges[-1] > BREAK_TOL:
            edges.append(p)
    edges.append(b)
    return list(zip(edges[:-1], edges[1:]))


def panel_nodes(p0, p1,
                order: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Mapped nodes and weights for one panel, shape (order,), or for each
    panel of arrays of ends, shape (panels, order)."""
    x, w = gauss_rule(order or DEFAULT_ORDER)
    half = 0.5 * (np.asarray(p1) - p0)[..., None]
    mid = 0.5 * (np.asarray(p0) + p1)[..., None]
    return mid + half * x, half * w


# ---------------------------------------------------------------------------
# eps sweeps and the power-series fit

@dataclass(frozen=True)
class EpsSweep:
    """Geometric eps grid and the sampled values f(eps_k)."""

    eps: Tuple[float, ...]
    values: Tuple[float, ...]

    def __post_init__(self):
        if len(self.eps) != len(self.values):
            raise QuadratureError("eps grid and samples disagree in length")
        if any(e <= 0 for e in self.eps):
            raise QuadratureError("eps values must be positive")
        if len(set(self.eps)) != len(self.eps):
            raise QuadratureError("eps grid degenerate (duplicate levels)")


def geometric_sweeps(f: Callable[[np.ndarray], np.ndarray],
                     eps_maxes: Sequence[float], levels: int,
                     ratio: float) -> List[EpsSweep]:
    """One geometric sweep per eps_max, from one call of f: f takes the
    levels as an array (len(eps_maxes), levels) and returns one value per
    level, in the same shape."""
    eps = [tuple(m * ratio ** k for k in range(levels)) for m in eps_maxes]
    values = f(np.array(eps).reshape(len(eps), levels))
    return [EpsSweep(eps=e, values=tuple(float(v) for v in row))
            for e, row in zip(eps, values)]


def fit_expansion(sweep: EpsSweep) -> Tuple[float, float, float]:
    """Least-squares (c1, c2, residual) for the sweep, from one fit of
    f(eps) = c1*eps + c2*eps^2 + c3*eps^3 + c4*eps^4.

    A needle increment is a power series in eps with no constant term, and
    its eps^3 term is genuine (the sinh needle has K xi^2 lam^2 eps^3 / 3),
    so a model that stops at eps^2 would push it into c2.  Four terms absorb
    the eps^3 and eps^4 parts and still leave the default 8 levels
    overdetermined; at the allowed minimum of 4 levels the fit interpolates
    and the residual is 0.  The columns are powers of u = eps/eps_max, so
    they stay in (0, 1].  The residual is the largest relative deviation of
    the fitted model over all levels.

    The fit is a Householder QR of the (levels x 4) design in plain numpy
    (_solve_qr), with elementwise sums throughout: a cold command pays for
    neither LAPACK nor a BLAS matrix product on 32 numbers.
    """
    if len(sweep.eps) < _FIT_TERMS:
        raise QuadratureError(f"need >= {_FIT_TERMS} sweep levels, "
                              f"got {len(sweep.eps)}")
    eps = np.asarray(sweep.eps, dtype=float)
    vals = np.asarray(sweep.values, dtype=float)
    emax = float(np.max(eps))
    A = (eps / emax)[:, None] ** np.arange(1, _FIT_TERMS + 1)
    coef = _solve_qr(A, vals)
    residual = (np.abs(vals - (A * coef).sum(axis=1))
                / np.maximum(np.abs(vals), 1e-15))
    return (float(coef[0] / emax), float(coef[1] / emax ** 2),
            float(np.max(residual)))


def _solve_qr(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The least-squares solution of A c = b, A of shape (rows, cols) with
    rows >= cols: one Householder reflection per column, then back
    substitution on R.  A diagonal entry of R at or below rows * eps *
    max|R| is rank loss, numpy.linalg.lstsq's default rcond rule, and
    raises QuadratureError."""
    R, y = A.copy(), b.copy()
    rows, cols = R.shape
    for j in range(cols):
        v = R[j:, j].copy()
        alpha = -math.copysign(math.sqrt(float((v * v).sum())), v[0])
        v[0] -= alpha
        vv = float((v * v).sum())
        if vv > 0.0:
            R[j:, j:] -= v[:, None] * ((2.0 / vv) * (v[:, None] * R[j:, j:])
                                       .sum(axis=0))
            y[j:] -= v * ((2.0 / vv) * float((v * y[j:]).sum()))
    floor = rows * sys.float_info.epsilon * float(np.abs(R[:cols]).max())
    if not np.abs(R.diagonal()).min() > floor:
        raise QuadratureError("ill-conditioned expansion fit (degenerate eps grid)")
    coef = np.zeros(cols)
    for j in range(cols - 1, -1, -1):
        coef[j] = (y[j] - float((R[j, j + 1:] * coef[j + 1:]).sum())) / R[j, j]
    return coef
