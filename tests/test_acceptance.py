"""End-to-end acceptance checks with pinned tolerances.

Seven criteria: the bundled sample end to end, the increment-expansion
oracle, vanishing first variation on needles, symbolic-derivative fidelity
against finite differences, needle-geometry properties, the Q1/E
equivalence, and a strictly convex control problem.
"""

import time

import numpy as np
import pytest

import importlib.resources as res

from needlecheck.analysis import AnalysisSettings, full_report
from needlecheck.config import build_candidate, build_problem, parse_config
from needlecheck.exprs import (admitted_variables, differentiate, eval_expr,
                               parse_expr)
from needlecheck.increments import needle_first_variation, verify_expansion
from needlecheck.needle import NeedleSpec, perturbation, window_for

from conftest import make_candidate, make_problem
from reference import fd_partial, integrate, remark_6_1_equivalence


@pytest.fixture(scope="module")
def bundled():
    text = (res.files("needlecheck") / "configs" / "example_7_1.cfg") \
        .read_text(encoding="utf-8")
    cfg = parse_config(text, source="example_7_1.cfg")
    p = build_problem(cfg)
    return cfg, p, build_candidate(cfg, p)


# -- criterion 1: the bundled sample end to end ------------------------------

def test_bundled_sample_full_verdict(bundled):
    cfg, p, cand = bundled
    start = time.perf_counter()
    report = full_report(p, cand, cfg.analysis)
    elapsed = time.perf_counter() - start
    assert elapsed <= 10.0

    # (a) extremality on the 200-point scan grid
    assert report.euler.grid_size == 200
    assert report.euler.max_residual <= 1e-8

    # (b) excess scan: nonnegative everywhere, strictly positive with unit
    # slopes once the delayed slot is gone
    scan = report.weierstrass
    assert not scan.has_violation
    assert all(e.min_excess >= -1e-9 for e in scan.entries)
    tail = [e for e in scan.entries if 2.0 < e.t < 3.0]
    assert tail and all(e.min_excess_unit >= 0.999 for e in tail)

    # (c) one interval finding covering [0, 2]: the scan grid, whose rows
    # detection reads, holds both t0 and t1 - h
    intervals = [f for f in report.findings if f.kind == "interval"]
    assert len(intervals) == 1
    f = intervals[0]
    assert (f.t_lo, f.t_hi) == (0.0, 2.0)
    assert abs(float(f.direction[0])) == pytest.approx(1.0, abs=1e-12)
    assert f.lam == 0.5

    # (d) the interval equality fails strongly and at every scale
    verdicts = {v.theorem: v for v in report.verdicts}
    assert verdicts["5.1(i)"].conclusion == "FAILS_STRONG"
    assert abs(verdicts["5.1(i)"].value) >= 1.9
    assert verdicts["5.1(ii)"].conclusion == "FAILS_WEAK"
    assert report.overall == "FAILS_WEAK"


# -- criterion 2: increment-expansion oracle ---------------------------------

def test_increment_expansion_oracle(bundled):
    _, p, cand = bundled
    right = NeedleSpec(theta=1.0, lam=0.5, xi=np.array([1.0]), side="right")
    [rec] = verify_expansion(p, cand, [right])
    for eps, value in zip(rec.sweep.eps, rec.sweep.values):
        assert abs(value - (-0.5 * eps * eps)) <= 1e-12
    assert rec.passed
    assert abs(rec.c1_fitted - 0.0) <= 1e-8
    assert abs(rec.c2_fitted - (-0.5)) <= 1e-6

    left = NeedleSpec(theta=1.5, lam=0.5, xi=np.array([1.0]), side="left")
    [rec] = verify_expansion(p, cand, [left])
    for eps, value in zip(rec.sweep.eps, rec.sweep.values):
        assert abs(value - 0.5 * eps * eps) <= 1e-12
    assert rec.passed
    assert abs(rec.c1_fitted - 0.0) <= 1e-8
    assert abs(rec.c2_fitted - 0.5) <= 1e-6


# -- criterion 3: first variation vanishes on needles ------------------------

def _random_specs(p, count, seed):
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        theta = float(rng.uniform(p.t0 + 0.1, p.t1 - 0.1))
        side = "right" if rng.integers(2) == 0 else "left"
        lam = float(rng.uniform(0.1, 0.9))
        xi = float(rng.uniform(-2.0, 2.0))
        if abs(xi) < 1e-2:
            continue
        spec = NeedleSpec(theta=theta, lam=lam, xi=np.array([xi]), side=side)
        limit = window_for(p, spec)
        if limit <= 0.01:
            continue
        specs.append((spec, 0.4 * limit))
    return specs


def test_needle_first_variation_identity(bundled):
    _, p, cand = bundled
    specs = _random_specs(p, 50, seed=0)
    needles, eps = zip(*specs)
    for value in needle_first_variation(p, cand, needles, eps).tolist():
        assert abs(value) <= 1e-10

    bent = make_candidate(p, ["0.1*t*(3 - t)"])
    magnitudes = np.abs(needle_first_variation(p, bent, needles, eps))
    assert max(magnitudes) >= 1e-3  # negative control


# -- criterion 4: symbolic derivatives vs finite differences -----------------

def _random_lagrangian(rng):
    dim = int(rng.integers(1, 4))
    vs = admitted_variables(dim)
    terms = []
    for _ in range(int(rng.integers(2, 5))):
        coeff = round(float(rng.uniform(-2.0, 2.0)), 3) or 1.0
        factors = [repr(coeff)]
        for _ in range(int(rng.integers(1, 4))):
            v = vs[int(rng.integers(len(vs)))]
            kind = int(rng.integers(4))
            if kind == 0:
                factors.append(v)
            elif kind == 1:
                factors.append(f"{v}^2")
            elif kind == 2:
                factors.append(f"sin({v})")
            else:
                factors.append(f"cos({v})")
        terms.append("*".join(factors))
    return " + ".join(terms), dim


def test_symbolic_partials_match_fd():
    rng = np.random.default_rng(42)
    for _ in range(10):
        source, dim = _random_lagrangian(rng)
        vs = admitted_variables(dim)
        expr = parse_expr(source, vs, dim=dim)
        partials = {v: differentiate(expr, v) for v in vs}
        for _ in range(100):
            pt = {v: float(rng.uniform(-1.5, 1.5)) for v in vs}
            for v in vs:
                sym = eval_expr(partials[v], pt)
                num = fd_partial(expr, v, pt)
                assert abs(sym - num) <= 1e-6 * (1.0 + abs(sym)), (source, v)


# -- criterion 5: needle geometry properties ---------------------------------

def test_needle_geometry_properties(bundled):
    _, p, _ = bundled
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        theta = float(rng.uniform(0.2, 2.8))
        side = "right" if rng.integers(2) == 0 else "left"
        lam = float(rng.uniform(0.05, 0.95))
        xi = rng.uniform(-2.0, 2.0, size=2)
        if float(np.max(np.abs(xi))) < 1e-2:
            continue
        # xi has two components on this 1-D problem: the window is read
        # from a 1-D needle at the same (theta, lam, side)
        limit = window_for(p, NeedleSpec(theta, lam, [1.0], side))
        if limit <= 0.02:
            continue
        eps = float(rng.uniform(0.3, 0.9)) * min(limit, 1.0)
        spec = NeedleSpec(theta=theta, lam=lam, xi=xi, side=side)
        c0, c1, c2 = spec.corners(eps)

        # continuity at the two endpoints and the peak, per branch formula
        inner_peak = (c1 - c0) * xi if side == "right" else (c1 - c2) * xi
        outer_peak = (c1 - c2) * spec.outer_slope if side == "right" \
            else (c1 - c0) * spec.outer_slope
        assert float(np.max(np.abs(inner_peak - outer_peak))) <= 1e-13
        from_left, _ = perturbation(spec, eps, [c0, c1, c2], "left")
        from_right, _ = perturbation(spec, eps, [c0, c1, c2], "right")
        assert float(np.max(np.abs(from_left - from_right))) <= 1e-13
        assert float(np.max(np.abs(from_left[:, [0, 2]]))) <= 1e-13

        # integral of the slope over the support is exactly zero
        for comp in range(2):
            total = integrate(
                lambda ts: perturbation(spec, eps, ts, "right")[1][comp],
                c0, c2, breaks=[c1])
            assert abs(total) <= 1e-13

        # support containment is exact
        outside = [c0 - 0.05, c2 + 0.05, p.t0 - 0.5, p.t1 + 0.5]
        for one_side in ("right", "left"):
            q, q_dot = perturbation(spec, eps, outside, one_side)
            assert not q.any() and not q_dot.any()

        # the sup norms, on the corners and a dense grid of the support
        ts = np.concatenate(([c0, c1, c2], np.linspace(c0, c2, 1001)))
        xi_norm = float(np.linalg.norm(xi))
        for one_side in ("right", "left"):
            q, q_dot = perturbation(spec, eps, ts, one_side)
            sup_q = float(np.max(np.linalg.norm(q, axis=0)))
            sup_qdot = float(np.max(np.linalg.norm(q_dot, axis=0)))
            assert abs(sup_q - lam * eps * xi_norm) <= 1e-13
            assert abs(sup_qdot - max(1.0, lam / (1.0 - lam)) * xi_norm) \
                <= 1e-13 * sup_qdot
        checked += 1


# -- criterion 6: the Q1/E equivalence ---------------------------------------

def test_equivalence_co_occurs_and_co_fails(bundled):
    _, p, cand = bundled
    eta = np.array([1.0])
    for theta in np.linspace(0.0, 2.0, 202)[1:-1]:
        rec = remark_6_1_equivalence(p, cand, float(theta), "right", 0.5, eta,
                                     AnalysisSettings(tol_deg=1e-9))
        assert rec.passed and rec.zero_q1 and rec.zero_e, theta
    for theta in np.linspace(2.0, 3.0, 102)[1:-1]:
        rec = remark_6_1_equivalence(p, cand, float(theta), "right", 0.5, eta,
                                     AnalysisSettings(tol_deg=1e-9))
        assert rec.passed and not rec.zero_q1 and not rec.zero_e, theta


# -- criterion 7: strictly convex control ------------------------------------

def test_convex_control_is_consistent():
    p = make_problem("dx1^2 + dy1^2")
    cand = make_candidate(p)
    start = time.perf_counter()
    report = full_report(p, cand)
    elapsed = time.perf_counter() - start
    assert elapsed <= 5.0
    assert report.overall == "CONSISTENT"
    assert report.findings == ()
    assert report.verdicts == ()
