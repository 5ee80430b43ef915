"""Pointwise functionals: excess, Q_k, M, excess-sum rates, first
variation, Euler residual.

Closed forms along the zero candidate of the bundled problem:
  E_x(xi) = xi^2, E_y(xi) = -xi^2 while t+h <= t1, 0 beyond;
  Q1_x = lam/(1-lam) xi^2, Q2_x = 2 lam^2/(1-lam) xi^2 (and the y negatives);
  m_x = m_y = -lam/(1-lam) xi^3.
"""

import numpy as np
import pytest

from needlecheck.conditions import (
    AnalysisSettings,
    ConditionsError,
    ExcessPoint,
    SettingsError,
    direction_set,
    euler_residual,
    paired_slope,
    weierstrass_scan,
    xi_sample_set,
)
from needlecheck.analysis import _certifies
from needlecheck.exprs import eval_expr
from needlecheck.increments import needle_first_variation
from needlecheck.needle import NeedleError, NeedleSpec, vary
from needlecheck.problem import CandidateExtremal, eval_S
from needlecheck.trajectory import Trajectory

from conftest import SAMPLE_L, make_candidate, make_problem
from reference import first_variation, remark_6_1_equivalence


def test_paired_slope():
    np.testing.assert_allclose(paired_slope(0.5, np.array([1.0])), [-1.0])
    np.testing.assert_allclose(paired_slope(0.25, np.array([3.0])), [-1.0])


def _q(pt, lam, xi, k):
    """(Q_k x, Q_k y) at the point pt: lam^k * E(xi) + (1 - lam^k) * E(pair)
    in each slot, from the slot excesses at xi and its paired slope."""
    w = lam ** k
    return tuple(float(w * e[0] + (1.0 - w) * e[1])
                 for e in (pt.excess(s, [xi, paired_slope(lam, xi)])[0]
                           for s in ("x", "y")))


def test_excess_closed_forms(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    for t in (0.0, 0.7, 1.9):
        pt = ExcessPoint(p, cand, t, "right")
        for xi in (0.5, 1.0, -2.0):
            got_x = pt.excess("x", np.array([xi]))[0, 0]
            got_y = pt.excess("y", np.array([xi]))[0, 0]
            assert got_x == pytest.approx(xi * xi, abs=1e-13)
            assert got_y == pytest.approx(-xi * xi, abs=1e-13)
    # delayed slot dies once t + h > t1
    for t in (2.2, 2.9):
        pt = ExcessPoint(p, cand, t, "right")
        assert pt.excess("y", np.array([1.0]))[0, 0] == 0.0
        assert pt.excess("x", np.array([1.0]))[0, 0] == \
            pytest.approx(1.0, abs=1e-13)


def test_excess_side_independent_at_smooth_points(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    pt_r = ExcessPoint(p, cand, 1.3, "right")
    pt_l = ExcessPoint(p, cand, 1.3, "left")
    xi = np.array([0.8])
    assert pt_r.e_sum(xi) == pytest.approx(pt_l.e_sum(xi), abs=1e-13)


LAYOUT_L = ("sin(x1)*dx1^2 + exp(0.2*y2)*dy2^2 + dx1*dy3 + dx2*dy1"
            " + (1 + y1^2)*dy3^2 + x3*dx3^2 + exp(t)*dx2*dx3 + y3*dy1")


def _oracle_slot(p, traj, t, side, xis, lam, slope, state):
    """Excess and M in one slot, rebuilt by the tree walk on named dicts."""
    if t > p.t1:
        return np.zeros(len(xis)), np.zeros(len(xis))
    env = {"t": t}
    for block, comps in (("x", traj.value(t)), ("y", traj.value(t - p.h)),
                         ("dx", traj.deriv(t, side)),
                         ("dy", traj.deriv(t - p.h, side))):
        env.update({f"{block}{i + 1}": float(c) for i, c in enumerate(comps)})
    lag = p.lagrangian

    def at(xi, name=None):
        moved = dict(env, **{f"{slope}{i + 1}": env[f"{slope}{i + 1}"] + xi[i]
                             for i in range(p.dim)})
        if name is None:
            return eval_expr(lag.body, moved)
        return np.array([eval_expr(lag.partial(f"{name}{i + 1}"), moved)
                         for i in range(p.dim)])

    zero = np.zeros(p.dim)
    excess, m = [], []
    for xi in xis:
        excess.append(at(xi) - at(zero) - float(np.dot(at(zero, slope), xi)))
        pair = paired_slope(lam, xi)
        m.append(lam * np.dot(at(xi, state) - at(zero, state), xi)
                 + (1 - lam) * np.dot(at(pair, state) - at(zero, state), xi))
    return np.array(excess), np.array(m)


def test_batched_slots_match_tree_walk_on_named_arguments():
    # dim 3 and a breakpoint at 1.5 (and at 0, where history meets the
    # interior), so a slot or block offset mix-up changes the values
    p = make_problem(LAYOUT_L, dim=3, phi=["0.5*t", "sin(t)", "t^2"],
                     x1=[2.25, 0.375, 0.75])
    cand = CandidateExtremal.from_interior(p, Trajectory.from_segments([
        (0.0, 1.5, ["t", "0.3*t^2", "-t"]),
        (1.5, 3.0, ["1.5 + 0.5*(t - 1.5)", "0.675 - 0.2*(t - 1.5)",
                    "-1.5 + (t - 1.5)^2"])]))
    xis = np.random.default_rng(5).uniform(-1.5, 1.5, (7, 3))
    lam = 0.3
    # smooth paired points (0.2, 1.7); 1.5 puts the x slot on the
    # candidate breakpoint and 0.5 puts the y slot (at t+h) there; at 1.0
    # the delayed argument x(t-h) sits where history meets the interior;
    # at 2.5 the y slot is beyond t1
    for t in (0.2, 0.5, 1.0, 1.5, 1.7, 2.5):
        for side in ("right", "left"):
            pt = ExcessPoint(p, cand, t, side)
            for slot, slope, state, u in (("x", "dx", "x", t),
                                          ("y", "dy", "y", t + p.h)):
                want_e, want_m = _oracle_slot(p, cand.traj, u, side, xis,
                                              lam, slope, state)
                np.testing.assert_allclose(pt.excess(slot, xis)[0], want_e,
                                           rtol=1e-13, atol=1e-13)
                np.testing.assert_allclose(pt.m(slot, lam, xis)[0], want_m,
                                           rtol=1e-13, atol=1e-13)
                if u > p.t1:
                    assert not pt.excess(slot, xis).any()
                    assert not pt.m(slot, lam, xis).any()


def test_grid_matches_one_time_points_bit_for_bit():
    # the grid path (blocks of times per kernel call) against one-time
    # ExcessPoints, over a breakpoint (1.5), the tail past t1 - h = 2, t1
    # itself, and both sides of every time; enough slopes that the times
    # span several blocks
    p = make_problem(LAYOUT_L, dim=3, phi=["0.5*t", "sin(t)", "t^2"],
                     x1=[2.25, 0.375, 0.75])
    cand = CandidateExtremal.from_interior(p, Trajectory.from_segments([
        (0.0, 1.5, ["t", "0.3*t^2", "-t"]),
        (1.5, 3.0, ["1.5 + 0.5*(t - 1.5)", "0.675 - 0.2*(t - 1.5)",
                    "-1.5 + (t - 1.5)^2"])]))
    times = [(t, side) for t in (0.2, 0.5, 1.0, 1.5, 2.0, 2.3, 2.9, 3.0)
             for side in ("right", "left")]
    rng = np.random.default_rng(11)
    xis = rng.uniform(-1.5, 1.5, (2400, 3))
    etas, lams, lam = xis[:800], [0.5, 0.25], 0.3
    grid = ExcessPoint(p, cand, [t for t, _ in times],
                       [side for _, side in times])
    assert len(grid._blocks("x", len(xis))) >= 3
    e_sum, m_sum = grid.e_sum(xis), grid.m_sum(lam, xis)
    cert = _certifies(grid, etas, lams, 2.0)
    assert cert[0].any() and not cert[0].all()
    for k, (t, side) in enumerate(times):
        one = ExcessPoint(p, cand, t, side)
        assert np.array_equal(e_sum[k], one.e_sum(xis)[0]), (t, side)
        assert np.array_equal(m_sum[k], one.m_sum(lam, xis)[0]), (t, side)
        # a pair is evaluated where its eta degenerates at some time of the
        # point, so |E(pair)| is compared on the certified cells only
        ok, e1, e2 = _certifies(one, etas, lams, 2.0)
        assert np.array_equal(cert[0][k], ok[0]), (t, side)
        assert np.array_equal(cert[1][k], e1[0]), (t, side)
        assert np.array_equal(cert[2][k][ok[0]], e2[0][ok[0]]), (t, side)


POINT_L = ("sin(x1)*dx1^2 + exp(0.2*y2)*dy2^2 + dx1*dy1 + (1 + y1^2)*dx2^2"
           " - dy1^2 + 0.3*dx1 + x2*dx2*dy2 + t*dx2^3")


def test_point_ladder_stacks_match_one_slope_points_bit_for_bit():
    # the point checks stack a scale ladder and its paired slopes on one
    # ExcessPoint with a row per side; each value must equal that of a
    # one-row point at the one slope.  dim 2, L with a nonzero slope
    # gradient, a candidate kinked at 1.5; theta at a smooth paired point,
    # at the kink, with the y slot at the kink (0.5), and in the tail
    p = make_problem(POINT_L, dim=2, phi=["0.5*t", "sin(t)"], x1=[1.0, 0.2])
    cand = CandidateExtremal.from_interior(p, Trajectory.from_segments([
        (0.0, 1.5, ["t", "0.3*t^2"]),
        (1.5, 3.0, ["1.5 - (t - 1.5)/3", "0.675 - 0.95*(t - 1.5)/3"])]))
    eta, lam, td = np.array([0.8, -0.6]), 0.3, 1e-3
    etas = np.array([s * eta for s in (2.0, 1.0, 0.5, 0.25, 0.125, 0.01)])
    slopes = np.concatenate((etas, paired_slope(lam, etas)))
    sides = ["right", "left"]
    certified = []
    for theta in (0.5, 0.7, 1.5, 2.5):
        pt = ExcessPoint(p, cand, [theta, theta], sides)
        cert = _certifies(pt, etas, [lam], td)
        m_sum, rate = pt.m_sum(lam, etas), pt.e_sum_rate(slopes)
        assert rate.any() and m_sum.any()
        certified += cert[0].ravel().tolist()
        for r, side in enumerate(sides):
            one = ExcessPoint(p, cand, theta, side)
            for j, xi in enumerate(slopes):
                assert np.array_equal(rate[r, j], one.e_sum_rate(xi)[0, 0])
                if j >= len(etas):
                    continue
                assert np.array_equal(m_sum[r, j], one.m_sum(lam, xi)[0, 0])
                for got, want in zip(cert, _certifies(one, xi, [lam], td)):
                    assert np.array_equal(got[r, j], want[0, 0])
    assert any(certified) and not all(certified)


def test_q_k_closed_forms(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    pt = ExcessPoint(p, cand, 1.0, "right")
    for lam in (0.5, 0.25, 0.75):
        for xi in (1.0, -1.5):
            q1x, q1y = _q(pt, lam, np.array([xi]), 1)
            r = lam / (1.0 - lam)
            assert q1x == pytest.approx(r * xi * xi, abs=1e-12)
            assert q1y == pytest.approx(-r * xi * xi, abs=1e-12)
            q2x, q2y = _q(pt, lam, np.array([xi]), 2)
            assert q2x == pytest.approx(2.0 * lam * lam / (1.0 - lam) * xi * xi,
                                        abs=1e-12)
            assert q2x == pytest.approx(-q2y, abs=1e-12)
    # lambda = 1 has no paired slope: the consumers of Q_1 reject it
    with pytest.raises(NeedleError):
        NeedleSpec(theta=1.0, lam=1.0, xi=np.array([1.0]), side="right")
    with pytest.raises(NeedleError, match="lambda"):
        remark_6_1_equivalence(p, cand, 1.0, "right", 1.0, np.array([1.0]))


def test_q1_swap_identity(sample_problem, sample_cand):
    # Q1 is invariant under (lam, xi) -> (1-lam, paired xi)
    p, cand = sample_problem, sample_cand
    rng = np.random.default_rng(2)
    for _ in range(40):
        lam = float(rng.uniform(0.05, 0.95))
        xi = np.array([float(rng.uniform(-2, 2)) or 1.0])
        t = float(rng.uniform(0.0, 2.9))
        pt = ExcessPoint(p, cand, t, "right")
        a = _q(pt, lam, xi, 1)
        b = _q(pt, 1.0 - lam, paired_slope(lam, xi), 1)
        assert a[0] == pytest.approx(b[0], abs=1e-13 * (1 + abs(a[0])))
        assert a[1] == pytest.approx(b[1], abs=1e-13 * (1 + abs(a[1])))


def test_m_term_closed_forms(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    pt = ExcessPoint(p, cand, 1.0, "right")
    for lam, xi in ((0.5, 1.0), (0.25, 2.0), (0.75, -1.0)):
        want = -lam / (1.0 - lam) * xi ** 3
        got_x = pt.m("x", lam, np.array([xi]))[0, 0]
        got_y = pt.m("y", lam, np.array([xi]))[0, 0]
        assert got_x == pytest.approx(want, abs=1e-12)
        assert got_y == pytest.approx(want, abs=1e-12)
    assert ExcessPoint(p, cand, 0.5, "right").m_sum(
        0.5, np.array([1.0]))[0, 0] == pytest.approx(-2.0, abs=1e-12)


def test_first_variation_zero_on_extremal(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    delta = Trajectory.from_segments([(0.0, 3.0, ["t*(3 - t)"])])
    assert abs(first_variation(p, cand, delta)) <= 1e-12


def test_first_variation_matches_fd_oracle():
    # dS(x + s*delta)/ds at s=0 along a non-extremal candidate
    p = make_problem(SAMPLE_L)
    cand = make_candidate(p, ["0.1*t*(3 - t)"])
    delta = Trajectory.from_segments([(0.0, 3.0, ["t*(3 - t)"])])
    got = first_variation(p, cand, delta)

    def big_s(shift):
        c = make_candidate(p, [f"(0.1 + {shift!r})*t*(3 - t)"])
        return eval_S(p, c.traj)

    s = 1e-4
    fd = (big_s(s) - big_s(-s)) / (2.0 * s)
    assert got == pytest.approx(fd, abs=1e-6 * (1.0 + abs(got)))
    assert abs(got) > 1e-3  # the candidate is genuinely non-extremal


def test_first_variation_rejects_inadmissible_variations(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    not_zero_at_end = Trajectory.from_segments([(0.0, 3.0, ["t"])])
    with pytest.raises(ConditionsError, match="t1"):
        first_variation(p, cand, not_zero_at_end)
    short = Trajectory.from_segments([(0.5, 3.0, ["(t - 0.5)*(3 - t)"])])
    with pytest.raises(ConditionsError, match="domain"):
        first_variation(p, cand, short)


def test_first_variation_names_the_first_nonzero_history_time(
        sample_problem, sample_cand):
    # nonzero at the check times -0.5 and -0.25 of [-1, 0]
    delta = Trajectory.from_segments([(-1.0, -0.75, ["0"]),
                                      (-0.75, 0.0, ["(t + 0.75)*(-t)"]),
                                      (0.0, 3.0, ["0"])])
    with pytest.raises(ConditionsError) as err:
        first_variation(sample_problem, sample_cand, delta)
    assert str(err.value) == ("variation must vanish on the history "
                              "interval; nonzero at t=-0.5")


def test_needle_first_variation_zero_on_extremal(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    for theta, side in ((0.5, "right"), (1.0, "right"), (1.5, "left"), (2.5, "right")):
        spec = NeedleSpec(theta=theta, lam=0.5, xi=np.array([1.0]), side=side)
        assert abs(needle_first_variation(p, cand, [spec], [0.25])[0]) <= 1e-10


@pytest.mark.parametrize("theta, side", [
    (0.7, "right"), (1.4, "left"),   # the delay shift of the support inside
    (2.3, "right"), (2.8, "left"),   # the tail: the shift lies beyond t1
])
def test_needle_first_variation_is_first_variation_of_the_needle(
        sample_problem, sample_cand, theta, side):
    # the needle as a trajectory: the symbolic reference added to zero
    p = sample_problem
    bent = make_candidate(p, ["0.1*t*(3 - t)"])
    spec = NeedleSpec(theta=theta, lam=0.35, xi=np.array([1.3]), side=side)
    delta = vary(sample_cand, spec, 0.5)
    want = first_variation(p, bent, delta)
    [got] = needle_first_variation(p, bent, [spec], [0.5])
    assert abs(want) > 1e-3  # a non-extremal candidate
    assert abs(got - want) <= 1e-12 * abs(want)


def test_needle_first_variation_checks_the_needle_dimension():
    p = make_problem("dx1^2 + dx2^2 + x1*dx2", dim=2)
    cand = make_candidate(p, ["0.1*t*(3 - t)", "t*(3 - t)"])
    spec = NeedleSpec(theta=1.0, lam=0.5, xi=np.array([1.0]), side="right")
    with pytest.raises(NeedleError, match="dimension"):
        needle_first_variation(p, cand, [spec], [0.3])


def test_euler_residual_zero_on_extremal(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    for t in (0.0, 0.5, 1.5, 2.5):
        r = euler_residual(p, cand, t, "right")
        assert float(np.max(np.abs(r))) <= 1e-9
    r = euler_residual(p, cand, 3.0, "left")
    assert float(np.max(np.abs(r))) <= 1e-9


def test_euler_residual_nonzero_on_perturbed_candidate():
    # hand-expanded residual at t=1.5 for x(t) = 0.1 t (3 - t) is -0.22
    p = make_problem(SAMPLE_L)
    cand = make_candidate(p, ["0.1*t*(3 - t)"])
    r = euler_residual(p, cand, 1.5, "right")
    assert r[0] == pytest.approx(-0.22, abs=1e-12)


def _q2_rate(pt, lam, xi):
    """d/dt of the Q_2 sum at each time of pt, from the excess-sum rates."""
    r_xi, r_pair = pt.e_sum_rate([xi, paired_slope(lam, xi)]).T
    return lam ** 2 * r_xi + (1.0 - lam ** 2) * r_pair


def test_slope_helpers_on_time_weighted_lagrangian():
    # L = t*dx1^2 along zero: e_sum(t) = t*xi^2, Q2_sum(t) = t*(lam^2*xi^2
    # + (1-lam^2)*pair^2); the chain rule gives the t coefficients exactly.
    p = make_problem("t*dx1^2")
    cand = make_candidate(p)
    pt = ExcessPoint(p, cand, [1.0, 1.0], ["right", "left"])
    assert pt.e_sum_rate(np.array([1.0]))[0, 0] == \
        pytest.approx(1.0, rel=1e-14)
    assert pt.e_sum_rate(np.array([2.0]))[1, 0] == \
        pytest.approx(4.0, rel=1e-14)
    assert _q2_rate(pt, 0.5, np.array([1.0]))[0] == \
        pytest.approx(1.0, rel=1e-14)
    lam = 0.25
    pair = lam / (lam - 1.0)
    want = lam ** 2 + (1.0 - lam ** 2) * pair ** 2
    assert _q2_rate(pt, lam, np.array([1.0]))[0] == \
        pytest.approx(want, rel=1e-14)


CHAIN_L = "t*x1*dy1^2 + sin(y1)*dx1^2 + x1^2*dx1*dy1 + exp(0.1*t)*dx1^2"
# C1 history on [-1, 0], then two interior pieces: the derivative jumps at
# t0 = 0 and at 1.3, and the second derivative jumps at both as well
CHAIN_PIECES = (("-1", "0", "0.2*t + 0.1*t^2"),
                ("0", "1.3", "0.5*t^2 - 0.3*t"),
                ("1.3", "3", "0.455 + 0.8*(t - 1.3) - 0.2*(t - 1.3)^2"))


def _sympy_time_slopes(theta, side, lam, xi):
    """(e_sum slope, Q_2 sum slope, Euler residual) at theta from the side,
    by sympy's derivative of the composed map t -> f(t, x(t), x(t-h),
    xdot(t), xdot(t-h)) on the pieces governing the one-sided limits."""
    sp = pytest.importorskip("sympy")
    s = sp.Symbol("s")
    names = ("t", "x1", "y1", "dx1", "dy1")
    sym = {n: sp.Symbol(n) for n in names}
    body = sp.sympify(CHAIN_L.replace("^", "**"), locals=sym, rational=True)
    pieces = [(sp.Rational(a), sp.Rational(b),
               sp.sympify(f.replace("^", "**"), locals={"t": s}, rational=True))
              for a, b, f in CHAIN_PIECES]
    theta = sp.Rational(repr(theta))

    def piece(u):
        for a, b, f in pieces:
            if (a <= u < b) if side == "right" else (a < u <= b):
                return f
        return pieces[0][2] if u == pieces[0][0] else pieces[-1][2]

    def args(shift):
        """Argument map of the slot evaluated at s + shift."""
        now = piece(theta + shift).subs(s, s + shift)
        delayed = piece(theta + shift - 1).subs(s, s + shift - 1)
        return {sym["t"]: s + shift, sym["x1"]: now, sym["y1"]: delayed,
                sym["dx1"]: sp.diff(now, s), sym["dy1"]: sp.diff(delayed, s)}

    # the y slot sits at nu = t + h and vanishes beyond t1 = 3
    slots = [("dx1", "x1", args(0))]
    if theta + 1 <= 3:
        slots.append(("dy1", "y1", args(1)))

    def slope(f):
        return float(sp.diff(f, s).subs(s, theta).evalf(30))

    def e_sum(z):
        return sum(body.xreplace({**a, sym[v]: a[sym[v]] + z})
                   - body.xreplace(a) - sp.diff(body, sym[v]).xreplace(a) * z
                   for v, _, a in slots)

    xi, lam = sp.Rational(repr(xi)), sp.Rational(repr(lam))
    pair = lam / (lam - 1) * xi
    momentum = sum(sp.diff(body, sym[v]).xreplace(a) for v, _, a in slots)
    force = sum(sp.diff(body, sym[w]).xreplace(a) for _, w, a in slots)
    return (slope(e_sum(xi)),
            slope(lam ** 2 * e_sum(xi) + (1 - lam ** 2) * e_sum(pair)),
            slope(momentum) - float(force.subs(s, theta).evalf(30)))


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("theta", [0.3, 0.7, 1.0, 1.3, 2.3, 2.5])
def test_time_slopes_match_sympy_chain_rule(theta, side):
    # 0.7 is a smooth paired point; the breakpoint 1.3 is at the x slot for
    # theta 1.3, at the y slot (t+h) for 0.3 and at x(t-h) for 2.3; at 1.0
    # x(t-h) sits where history meets the interior; 2.3 and 2.5 are in the
    # tail, where the y slot is gated off
    p = make_problem(CHAIN_L, phi=[CHAIN_PIECES[0][2]],
                     x1=[0.455 + 0.8 * 1.7 - 0.2 * 1.7 ** 2])
    cand = CandidateExtremal.from_interior(
        p, Trajectory.from_segments([(float(a), float(b), [f])
                                     for a, b, f in CHAIN_PIECES[1:]]))
    lam, xi = 0.3, 0.8
    want_e, want_q2, want_r = _sympy_time_slopes(theta, side, lam, xi)
    rel = pytest.approx
    pt = ExcessPoint(p, cand, theta, side)
    assert pt.e_sum_rate(np.array([xi]))[0, 0] == rel(want_e, rel=1e-12)
    assert _q2_rate(pt, lam, np.array([xi]))[0] == rel(want_q2, rel=1e-12)
    assert euler_residual(p, cand, theta, side)[0] == rel(want_r, rel=1e-12)


def test_direction_set_deterministic_unit_norm():
    for dim in (1, 2, 3, 4):
        a = direction_set(dim, seed=0)
        b = direction_set(dim, seed=0)
        assert len(a) == len(b) >= 2
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)
            assert u.shape == (dim,)
            assert float(np.linalg.norm(u)) == pytest.approx(1.0, abs=1e-12)
    one_d = direction_set(1)
    np.testing.assert_allclose(sorted(float(d[0]) for d in one_d), [-1.0, 1.0])


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_direction_set_is_read_only_and_a_new_list_each_call(dim):
    a = direction_set(dim, seed=1)
    assert all(not d.flags.writeable for d in a)
    with pytest.raises(ValueError):
        a[0][0] = 7.0
    want = [d.copy() for d in a]
    a.reverse()
    a.append(np.zeros(dim))
    b = direction_set(dim, seed=1)
    assert len(b) == len(want)
    for u, v in zip(b, want):
        np.testing.assert_array_equal(u, v)


@pytest.mark.parametrize("dim", [17, 24])
def test_direction_set_beyond_sixteen_dimensions(dim):
    dirs = direction_set(dim)
    assert len(dirs) == 32 * dim
    for u in dirs:
        assert u.shape == (dim,)
        assert float(np.linalg.norm(u)) == pytest.approx(1.0, abs=1e-12)


def test_xi_sample_set_scales_radii():
    samples = xi_sample_set(1, (0.5, 2.0))
    norms_seen = sorted(set(round(float(np.linalg.norm(s)), 12) for s in samples))
    assert norms_seen == [0.5, 2.0]
    assert len(samples) == 4  # two directions x two radii


def test_weierstrass_scan_clean_problem(sample_problem, sample_cand):
    p, cand = sample_problem, sample_cand
    radii = AnalysisSettings().radii
    report = weierstrass_scan(p, cand, AnalysisSettings(scan_grid=31))
    # the grid time t1 - h = 2 is read from both sides
    grid = np.linspace(0.0, 3.0, 31).tolist()
    assert [e.t for e in report.entries] == grid[:21] + grid[20:]
    assert [e.side for e in report.entries[20:22]] == ["right", "left"]
    assert not report.has_violation
    assert [e for e in report.entries if e.violation] == []
    assert report.overall_min == pytest.approx(0.0, abs=1e-12)
    for e in report.entries:
        assert e.regime == ("paired" if e.t <= 2.0 else "single")
        if e.t < 2.0 + 1e-9:
            assert e.min_excess == pytest.approx(0.0, abs=1e-12)
            assert len(e.degenerate_directions) > 0
        else:
            assert e.min_excess == pytest.approx(min(radii) ** 2, abs=1e-12)
            assert e.min_excess_unit == pytest.approx(1.0, abs=1e-12)
            assert e.degenerate_directions == ()
    assert report.entries[0].side == "right"
    assert report.entries[-1].side == "left"


def test_min_excess_unit_reads_the_unit_directions(sample_problem,
                                                  sample_cand):
    # past t1 - h, E_sum(t, xi) = xi^2: 1 at the unit directions, which are
    # evaluated whatever the radii, and 0.25 at the smallest radius
    report = weierstrass_scan(sample_problem, sample_cand,
                              AnalysisSettings(radii=(0.5, 2.0)))
    [e] = [e for e in report.entries if e.t == 2.2613065326633164]
    assert (e.min_excess, e.min_excess_unit) == (0.25, 1.0)


def test_weierstrass_scan_flags_violation():
    p = make_problem("-dx1^2")
    cand = make_candidate(p)
    report = weierstrass_scan(p, cand, AnalysisSettings(scan_grid=11))
    assert report.has_violation
    # the 11 grid times, and t1 - h = 2 (between grid times) from both sides
    assert sum(e.violation for e in report.entries) == 13
    assert report.overall_min == pytest.approx(
        -max(AnalysisSettings().radii) ** 2, abs=1e-12)


# set tolerances: no |L| scale is evaluated
TOLS = {"tol_w": 1e-9, "tol_deg": 1e-9, "tol_euler": 1e-8}


def _scan_cells(monkeypatch, p, cand, settings):
    """The scan of settings, and the cells of its kernel calls on a slope
    stack (a 2-D batch): the perturbed evaluations, counted as
    test_grid_stages_make_the_same_kernel_calls_at_any_grid_size counts
    calls."""
    from needlecheck.exprs import ExprAst
    cells = []
    compiled = ExprAst.compiled

    def counting(expr):
        kernel = compiled(expr)

        def count(*args):
            shape = np.broadcast_shapes(*map(np.shape, args))
            if len(shape) == 2:
                cells.append(shape[0] * shape[1])
            return kernel(*args)
        return count

    with monkeypatch.context() as m:
        m.setattr(ExprAst, "compiled", counting)
        report = weierstrass_scan(p, cand, settings)
    return report, sum(cells)


def _direct_values(p, cand, report, settings):
    """The excess sum of every scan row at every sample slope, evaluated
    on the whole stack at once."""
    return ExcessPoint(p, cand, [e.t for e in report.entries],
                       [e.side for e in report.entries]).e_sum(
        xi_sample_set(p.dim, settings.radii, settings.seed))


@pytest.mark.parametrize("lag", ["dx1^4 + dx1^2 + dy1^2",
                                 "exp(dx1) - dx1 + dy1^2"])
def test_scan_of_a_non_quadratic_l_evaluates_every_radius(monkeypatch, lag):
    p = make_problem(lag)
    cand = make_candidate(p)
    s = AnalysisSettings(scan_grid=21, **TOLS)
    report, cells = _scan_cells(monkeypatch, p, cand, s)
    # the x slot at every row (the 21 grid times, and t1 - h = 2 from both
    # sides), the y slot at the rows with t + h <= t1, each at the unit
    # directions, which are the radius-1 block, and at the other radii
    assert len(report.entries) == 23
    live_y = sum(e.t + 1.0 <= 3.0 for e in report.entries)
    assert cells == (23 + live_y) * len(xi_sample_set(1, s.radii))
    vals = _direct_values(p, cand, report, s)
    assert [e.min_excess for e in report.entries] == vals.min(1).tolist()
    assert report.overall_min == vals.min()


def test_a_quadratic_dim5_scan_evaluates_one_radius(monkeypatch):
    # E_sum(t, r*xi) = r^2 * E_sum(t, xi): the directions are evaluated
    # once, a quarter of the cells of the four default radii
    n = 5
    lag = ("(2 + sin(t))*(" + " + ".join(f"dx{i}^2" for i in range(1, n + 1))
           + ") + exp(0.1*y1)*(dy1^2 + dy5^2) + dx2*dy2 - x3^2")
    p = make_problem(lag, dim=n)
    cand = make_candidate(p, [f"0.1*t*(3 - t)*{i}" for i in range(n)])
    s = AnalysisSettings(scan_grid=15, **TOLS)
    report, cells = _scan_cells(monkeypatch, p, cand, s)
    m = len(direction_set(n))
    live_y = sum(e.t + 1.0 <= 3.0 for e in report.entries)
    assert cells == (len(report.entries) + live_y) * m
    vals = _direct_values(p, cand, report, s)
    assert cells * 4 == (len(report.entries) + live_y) * vals.shape[1]
    mins = np.array([e.min_excess for e in report.entries])
    assert np.all(np.abs(mins - vals.min(1)) <= 1e-12 * (1 + np.abs(mins)))


def test_scaled_and_direct_scan_values_agree_on_a_moving_candidate():
    # radii that are not powers of two, on a candidate whose slope is not
    # zero: r*r*E(xi) and E(r*xi) differ only by rounding
    p = make_problem("(1 + x1^2)*dx1^2 + 0.5*dx1*dy1 + (2 + t)*dy1^2")
    cand = make_candidate(p, ["0.2*t*(3 - t)"])
    s = AnalysisSettings(scan_grid=40, radii=(0.3, 0.7, 1.0, 1.7),
                         tol_w=1e-9, tol_deg=1e-9)
    report = weierstrass_scan(p, cand, s)
    vals = _direct_values(p, cand, report, s)
    unit = np.abs(np.linalg.norm(xi_sample_set(1, s.radii), axis=1) - 1) \
        <= 1e-12
    for e, row in zip(report.entries, vals):
        assert abs(e.min_excess - row.min()) <= 1e-12 * (1 + abs(row.min()))
        assert e.min_excess_unit == row[unit].min()
    assert abs(report.overall_min - vals.min()) \
        <= 1e-12 * (1 + abs(vals.min()))


def test_a_scaled_block_that_overflows_is_evaluated_directly():
    # E_sum(t, xi) = 1e308 at the unit slopes, and 4 times that overflows:
    # the radius-2 block is evaluated, and its L overflows there too; the
    # tail rows, with the y slot dead, give the smallest value 5e307 / 16
    from needlecheck.exprs import EvalDomainError
    p = make_problem("5e307*dx1^2 + 5e307*dy1^2")
    with pytest.raises(EvalDomainError, match="non-finite value"):
        weierstrass_scan(p, make_candidate(p),
                         AnalysisSettings(scan_grid=5, **TOLS))
    s = AnalysisSettings(scan_grid=5, radii=(0.25, 1.0), **TOLS)
    assert weierstrass_scan(p, make_candidate(p), s).overall_min == 3.125e306


def test_weierstrass_scan_validates_inputs():
    # the scan grid and the sample radii come from the settings, which
    # reject an empty grid and a zero radius (a zero slope sample)
    with pytest.raises(SettingsError, match="key 'scan_grid': grid size"):
        AnalysisSettings(scan_grid=0)
    with pytest.raises(SettingsError, match="key 'radii': must all be posi"):
        AnalysisSettings(radii=(1.0, 0.0))
    with pytest.raises(SettingsError, match="key 'radii': must be nonempty"):
        AnalysisSettings(radii=())


def test_nan_tolerance_is_rejected():
    # no comparison with a NaN tolerance holds: a NaN tol_w let the scan of
    # -dx1^2 (test_weierstrass_scan_flags_violation) report no violation
    for key in ("tol_w", "tol_deg", "tol_eq", "tol_euler"):
        with pytest.raises(SettingsError,
                           match=f"key '{key}': tolerance must be positive"):
            AnalysisSettings(**{key: float("nan")})


@pytest.mark.parametrize("xi", [[1.0], [1.0, 1.0, 1.0]])
def test_scan_rejects_a_slope_of_the_wrong_width(xi):
    # the scan's samples are built in the problem's dimension; a slope stack
    # of another width is rejected by the excess engine itself
    p = make_problem("dx1^2 + dx2^2 + dy1*dy2", dim=2)
    pt = ExcessPoint(p, make_candidate(p), [0.5, 1.0], "right")
    with pytest.raises(ConditionsError, match=r"expected \(m, 2\)"):
        pt.e_sum([xi])


def test_default_lambda_grid_closed_under_complement():
    lams = AnalysisSettings().lambdas
    assert set(lams) == set(1.0 - l for l in lams)


def test_rows_beyond_t1_never_reach_the_kernel(monkeypatch):
    # the y slot of times 2.2 and 2.9 reads nu > t1 = 3: excess, m and
    # e_sum_rate give exactly +0.0 there without running any kernel on it
    from needlecheck.exprs import ExprAst
    p = make_problem(LAYOUT_L, dim=3, phi=["0.5*t", "sin(t)", "t^2"],
                     x1=[2.25, 0.375, 0.75])
    cand = CandidateExtremal.from_interior(p, Trajectory.from_segments([
        (0.0, 3.0, ["0.75*t", "0.125*t", "0.25*t"])]))
    ts = [0.5, 2.2, 1.5, 2.9]
    pt = ExcessPoint(p, cand, ts, "right")
    times = []
    compiled = ExprAst.compiled

    def recording(expr):
        kernel = compiled(expr)

        def record(*args):
            times.append(float(np.max(args[0])))
            return kernel(*args)
        return record

    monkeypatch.setattr(ExprAst, "compiled", recording)
    xis = np.random.default_rng(5).uniform(-1.0, 1.0, (7, 3))
    tail = [1, 3]
    for got in (pt.excess("y", xis), pt.m("y", 0.3, xis)):
        assert got[tail].tolist() == [[0.0] * 7] * 2
        assert not np.signbit(got[tail]).any()
    assert np.isfinite(pt.e_sum_rate(xis)).all()
    assert times and max(times) <= p.t1
    # the x slot and the live y rows are evaluated as before
    assert pt.excess("y", xis)[[0, 2]].any()
    assert np.array_equal(pt.e_sum(xis)[tail], pt.excess("x", xis)[tail])
