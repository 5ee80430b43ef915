"""Numerical verification of necessary optimality conditions for
variational problems with a constant delay.

Given a problem (Lagrangian in the state, the delayed state, and both
slopes; history and terminal data) and a candidate trajectory, the toolkit
evaluates the Euler residual, scans the paired Weierstrass excess, locates
degeneracies, applies the second-order equality and inequality conditions,
and independently cross-validates the increment expansion with real needle
variations and quadrature.
"""

from .analysis import (AnalysisError, AnalysisReport, DegeneracyFinding,
                       Verdict, detect_degeneracy, full_report,
                       theorem_5_1_check, theorem_6_1_check,
                       theorem_6_2_check)
from .conditions import (AnalysisSettings, ConditionsError, euler_residual,
                         weierstrass_scan)
from .config import (ConfigError, RunConfig, build_candidate, build_problem,
                     load_config, parse_config)
from .exprs import ExprError, parse_expr, parse_lagrangian
from .increments import (IncrementRecord, delta_S_direct,
                         expansion_prediction, needle_first_variation,
                         verify_expansion)
from .needle import NeedleSpec, NeedleError
from .problem import CandidateExtremal, DelayProblem, ProblemError, eval_S
from .quadrature import QuadratureError, fit_expansion
from .trajectory import HistorySpec, Segment, Trajectory, TrajectoryError

__version__ = "0.1.0"

__all__ = [
    "AnalysisError", "AnalysisReport", "AnalysisSettings",
    "CandidateExtremal", "ConditionsError", "ConfigError",
    "DegeneracyFinding", "DelayProblem", "ExprError", "HistorySpec",
    "IncrementRecord", "NeedleError", "NeedleSpec", "ProblemError",
    "QuadratureError", "RunConfig", "Segment", "Trajectory",
    "TrajectoryError", "Verdict", "build_candidate", "build_problem",
    "delta_S_direct", "detect_degeneracy", "euler_residual", "eval_S",
    "expansion_prediction", "fit_expansion", "full_report", "load_config",
    "needle_first_variation", "parse_config", "parse_expr",
    "parse_lagrangian", "theorem_5_1_check", "theorem_6_1_check",
    "theorem_6_2_check", "verify_expansion", "weierstrass_scan",
]
