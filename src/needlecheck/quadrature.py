"""Breakpoint-aware Gauss-Legendre quadrature and eps-sweep coefficient fitting.

Integrands here are piecewise-smooth with *known* breakpoints (trajectory
kinks, needle corners, delay shifts), so fixed-order panels split at those
points integrate them to machine precision; no adaptive subdivision.
The default 10-point rule is exact for polynomials up to degree 19.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

DEFAULT_ORDER = 10
DEFAULT_SWEEP_LEVELS = 8
DEFAULT_SWEEP_RATIO = 0.5

# panels thinner than this are dropped as duplicate breakpoints
_PANEL_TOL = 1e-12


class QuadratureError(ValueError):
    pass


_RULES = {}


def gauss_rule(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [-1, 1]."""
    if order < 1:
        raise QuadratureError(f"quadrature order must be >= 1, got {order}")
    if order not in _RULES:
        _RULES[order] = np.polynomial.legendre.leggauss(order)
    return _RULES[order]


def panel_plan(a: float, b: float, breaks: Sequence[float]) -> List[Tuple[float, float]]:
    """Ordered panels covering [a, b], split at every interior breakpoint."""
    if b < a:
        raise QuadratureError(f"integration bounds reversed: [{a}, {b}]")
    if b == a:
        return []
    edges = [a]
    for p in sorted(float(x) for x in breaks):
        if a + _PANEL_TOL < p < b - _PANEL_TOL and p - edges[-1] > _PANEL_TOL:
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


def integrate(f: Callable[[np.ndarray], np.ndarray], a: float, b: float,
              breaks: Sequence[float] = (), order: Optional[int] = None) -> float:
    """Composite Gauss-Legendre integral of f over [a, b] with panel splits.

    f receives an array of node times and must return the sampled values
    (scalar results broadcast).  Non-finite samples are reported with their
    location.  Returns 0 when a == b.
    """
    contributions = []
    for p0, p1 in panel_plan(a, b, breaks):
        ts, ws = panel_nodes(p0, p1, order)
        with np.errstate(all="ignore"):
            vals = np.asarray(f(ts), dtype=float)
        if vals.shape != ts.shape:
            vals = np.broadcast_to(vals, ts.shape)
        if not np.all(np.isfinite(vals)):
            bad = float(ts[int(np.argmax(~np.isfinite(vals)))])
            raise QuadratureError(f"non-finite integrand sample at t={bad}")
        contributions.append(float(np.dot(ws, vals)))
    return math.fsum(contributions)


# ---------------------------------------------------------------------------
# eps sweeps and the c1*eps + c2*eps^2 fit

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


def geometric_sweep(f: Callable[[np.ndarray], np.ndarray], eps_max: float,
                    levels: int = DEFAULT_SWEEP_LEVELS,
                    ratio: float = DEFAULT_SWEEP_RATIO) -> EpsSweep:
    """Sample f on eps_k = eps_max * ratio^k, k = 0..levels-1; f takes the
    array of all levels and returns one value per level."""
    if eps_max <= 0:
        raise QuadratureError(f"eps_max must be positive, got {eps_max}")
    if not 0 < ratio < 1:
        raise QuadratureError(f"sweep ratio must be in (0,1), got {ratio}")
    if levels < 4:
        raise QuadratureError(f"need at least 4 sweep levels, got {levels}")
    eps = tuple(eps_max * ratio ** k for k in range(levels))
    values = tuple(float(v) for v in f(np.array(eps)))
    return EpsSweep(eps=eps, values=values)


def _lstsq_c1_c2(eps: np.ndarray, vals: np.ndarray) -> Tuple[float, float]:
    # scale columns by eps_max so the normal system stays well conditioned
    emax = float(np.max(eps))
    u = eps / emax
    A = np.column_stack([u, u * u])
    coef, _, rank, _ = np.linalg.lstsq(A, vals, rcond=None)
    if rank < 2:
        raise QuadratureError("ill-conditioned expansion fit (degenerate eps grid)")
    return float(coef[0] / emax), float(coef[1] / emax ** 2)


def _fit_residual(eps: np.ndarray, vals: np.ndarray, c1: float, c2: float) -> float:
    """Max relative deviation on the two smallest eps levels."""
    idx = np.argsort(eps)[:2]
    devs = []
    for i in idx:
        model = c1 * eps[i] + c2 * eps[i] ** 2
        denom = max(abs(vals[i]), 1e-15)
        devs.append(abs(vals[i] - model) / denom)
    return max(devs)


def fit_expansion(sweep: EpsSweep) -> Tuple[float, float, float]:
    """Least-squares (c1, c2) for f(eps) = c1*eps + c2*eps^2 + o(eps^2).

    Residual is the max relative deviation on the two smallest levels; the
    fit is retried without the largest eps when that improves the residual
    tenfold (the largest level is the one most polluted by o(eps^2) terms).
    """
    if len(sweep.eps) < 4:
        raise QuadratureError(f"need >= 4 sweep levels, got {len(sweep.eps)}")
    eps = np.asarray(sweep.eps, dtype=float)
    vals = np.asarray(sweep.values, dtype=float)
    c1, c2 = _lstsq_c1_c2(eps, vals)
    residual = _fit_residual(eps, vals, c1, c2)
    keep = eps < np.max(eps)
    if np.count_nonzero(keep) >= 4:
        c1b, c2b = _lstsq_c1_c2(eps[keep], vals[keep])
        residual_b = _fit_residual(eps[keep], vals[keep], c1b, c2b)
        if residual_b <= residual / 10.0:
            return c1b, c2b, residual_b
    return c1, c2, residual
