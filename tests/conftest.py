"""Shared builders and the bundled sample problem.

Most tests exercise the bundled quadratic-Lagrangian problem shipped as
configs/example_7_1.cfg: L = (1 - x1)dx1^2 - (1 + y1)dy1^2 + dx1 dy1 on
[0, 3] with delay h = 1, zero history, zero terminal point, and the zero
candidate.  Along the zero candidate the closed forms are simple enough
to pin by hand: E_x(xi) = xi^2, E_y(xi) = -xi^2 while the delayed slot is
live, and E_y = 0 once t + h > t1.
"""

import numpy as np
import pytest

from needlecheck.exprs import parse_lagrangian
from needlecheck.problem import DelayProblem
from needlecheck.trajectory import HistorySpec

from reference import from_interior, from_segments

SAMPLE_L = "(1 - x1)*dx1^2 - (1 + y1)*dy1^2 + dx1*dy1"


def make_problem(lag_src, dim=1, t0=0.0, t1=3.0, h=1.0, phi=None, x1=None):
    lag = parse_lagrangian(lag_src, dim)
    phi_exprs = list(phi) if phi is not None else ["0"] * dim
    hist_traj = from_segments([(t0 - h, t0, phi_exprs)])
    x1_vec = np.zeros(dim) if x1 is None else np.asarray(x1, dtype=float)
    return DelayProblem(t0, t1, h, dim, lag, HistorySpec(hist_traj, x1_vec))


def make_candidate(p, interior=None):
    exprs_ = list(interior) if interior is not None else ["0"] * p.dim
    inter = from_segments([(p.t0, p.t1, exprs_)])
    return from_interior(p, inter)


@pytest.fixture(scope="session")
def sample():
    p = make_problem(SAMPLE_L)
    return p, make_candidate(p)


@pytest.fixture(scope="session")
def sample_problem(sample):
    return sample[0]


@pytest.fixture(scope="session")
def sample_cand(sample):
    return sample[1]
