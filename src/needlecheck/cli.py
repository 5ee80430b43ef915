"""Command-line interface: config in, schema-versioned JSON report out.

Every subcommand takes a config path (or the name of a bundled config) and
prints exactly one JSON document to stdout.  Exit code 0 means the tested
conditions hold, 2 means a necessary condition failed or a cross-check
disagreed (evidence is in the report), 1 means the tool itself could not
complete.  Reports carry no
timestamps and all sampling is seeded, so identical configs produce
byte-identical output.
"""

import dataclasses
import importlib.resources
import json
import math
import os
import sys
from typing import Optional, Tuple

import click
import numpy as np

from . import analysis, conditions, increments, problem
from .analysis import AnalysisError
from .config import ConfigError, RunConfig, load_config, parse_config
from .config import build_candidate, build_problem
from .needle import NeedleError, NeedleSpec, check_point_range, window_for
from .problem import CandidateExtremal, DelayProblem

SCHEMA_VERSION = "2"

_ERRORS = (ValueError, ArithmeticError)


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)) and not isinstance(obj, bool):
        return int(obj)
    if isinstance(obj, (tuple, list)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


def _emit(command: str, config_echo, result, status: str, code: int) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool": "needlecheck",
        "command": command,
        "config": _jsonable(config_echo),
        "result": _jsonable(result),
        "status": status,
        "exit_code": code,
    }
    click.echo(json.dumps(payload, indent=2, sort_keys=True))
    raise SystemExit(code)


def _load_all(config_arg: str) -> Tuple[RunConfig, DelayProblem,
                                        CandidateExtremal]:
    if os.path.exists(config_arg):
        cfg = load_config(config_arg)
    else:
        res = importlib.resources.files("needlecheck").joinpath(
            "configs", config_arg)
        if res.is_file():
            cfg = parse_config(res.read_text(encoding="utf-8"),
                               source=config_arg)
        else:
            raise ConfigError(f"config file not found: {config_arg}")
    p = build_problem(cfg)
    cand = build_candidate(cfg, p)
    return cfg, p, cand


def _run(command: str, config_arg: str, fn) -> None:
    """fn(cfg, p, cand) -> (result, failed); emits the report and exits."""
    cfg = None
    try:
        cfg, p, cand = _load_all(config_arg)
        result, failed = fn(cfg, p, cand)
    except _ERRORS as exc:
        echo = cfg if cfg is not None else {"path": config_arg}
        _emit(command, echo, {"error": str(exc)}, "error", 1)
        return
    _emit(command, cfg, result, "fail" if failed else "pass",
          2 if failed else 0)


def _finite(flag: str, values: Tuple[float, ...]) -> Tuple[float, ...]:
    if not all(map(math.isfinite, values)):
        raise AnalysisError(f"{flag} must be finite, got {list(values)}")
    return values


def _xi_or_default(xi: Tuple[float, ...], p: DelayProblem,
                   seed: int) -> np.ndarray:
    """The --xi direction, else the first seeded direction, the one the
    verdict's expansion checks use."""
    if xi:
        if len(xi) != p.dim:
            raise AnalysisError(
                f"--xi takes {p.dim} components for this problem, got {len(xi)}")
        return np.asarray(_finite("--xi", xi), dtype=float)
    return conditions.direction_set(p.dim, seed)[0]


@click.group()
def cli() -> None:
    """Verify necessary optimality conditions for delay variational problems."""


@cli.command()
@click.argument("config")
def validate(config: str) -> None:
    """Parse the config, build the problem and candidate, report shapes."""
    def body(cfg, p, cand):
        result = {
            "t0": p.t0, "t1": p.t1, "h": p.h, "dim": p.dim,
            "lagrangian": cfg.problem.lagrangian,
            "history_segments": len(cfg.problem.history),
            "candidate_segments": len(cfg.candidate.segments),
            "candidate_breakpoints": list(cand.traj.breakpoints),
            "cost": problem.eval_S(p, cand.traj,
                                   order=cfg.analysis.quad_order),
        }
        return result, False
    _run("validate", config, body)


@cli.command()
@click.argument("config")
def euler(config: str) -> None:
    """Extremality: max Euler residual over the time grid."""
    def body(cfg, p, cand):
        stage = analysis.euler_stage(p, cand, cfg.analysis)
        return stage, not stage.extremal
    _run("euler", config, body)


@cli.command()
@click.argument("config")
def weierstrass(config: str) -> None:
    """Pointwise excess scan over the time grid and slope sample set."""
    def body(cfg, p, cand):
        scan = conditions.weierstrass_scan(p, cand, cfg.analysis)
        return scan, scan.has_violation
    _run("weierstrass", config, body)


@cli.command()
@click.argument("config")
@click.option("--point", "point", type=float, required=True,
              help="Time at which to evaluate.")
@click.option("--side", type=click.Choice(["right", "left"]),
              default="right", show_default=True)
@click.option("--xi", type=float, multiple=True,
              help="Slope perturbation components (repeat per component).")
@click.option("--lambda", "lam", type=float, default=0.5, show_default=True)
def excess(config: str, point: float, side: str, xi: Tuple[float, ...],
           lam: float) -> None:
    """Excess, Q and M values at one point and slope direction."""
    def body(cfg, p, cand):
        check_point_range(p, point, side, name="--point")
        eta = _xi_or_default(xi, p, cfg.analysis.seed)
        try:
            spec = NeedleSpec(point, lam, eta, side)
            window_for(p, spec)
        except NeedleError as exc:
            # the needle's rules; their messages begin with the field name,
            # which is the flag's name here (--point is checked above)
            raise AnalysisError(f"--{exc}") from exc
        pt = conditions.ExcessPoint(p, cand, point, side)
        pair = spec.outer_slope
        tw = cfg.analysis.resolved(p, cand).tol_w
        e_x, e_y = (pt.excess(s, [eta, pair])[0].tolist() for s in ("x", "y"))
        # Q_k per slot: lam^k * E(xi) + (1 - lam^k) * E(pair)
        q1_x, q1_y = (lam * e[0] + (1.0 - lam) * e[1] for e in (e_x, e_y))
        q2_x, q2_y = (lam ** 2 * e[0] + (1.0 - lam ** 2) * e[1]
                      for e in (e_x, e_y))
        m_x, m_y = (float(pt.m(s, lam, eta)[0, 0]) for s in ("x", "y"))
        result = {
            "t": point, "side": side, "xi": eta, "lambda": lam,
            "paired_xi": pair,
            "e_x": e_x[0], "e_y": e_y[0], "e_sum": e_x[0] + e_y[0],
            "e_sum_paired": e_x[1] + e_y[1],
            "q1": {"x": q1_x, "y": q1_y, "sum": q1_x + q1_y},
            "q2": {"x": q2_x, "y": q2_y, "sum": q2_x + q2_y},
            "m": {"x": m_x, "y": m_y, "sum": m_x + m_y},
            "tol_w": tw,
        }
        failed = (q1_x + q1_y) < -tw
        return result, failed
    _run("excess", config, body)


@cli.command()
@click.argument("config")
def degeneracy(config: str) -> None:
    """Locate paired-direction degeneracies of the excess sum."""
    def body(cfg, p, cand):
        findings = analysis.detect_degeneracy(p, cand, cfg.analysis)
        return {"findings": findings, "count": len(findings)}, False
    _run("degeneracy", config, body)


@cli.command()
@click.argument("config")
def theorem5(config: str) -> None:
    """Interval-degeneracy equality checks (5.1 parts i and ii)."""
    def body(cfg, p, cand):
        a = cfg.analysis.resolved(p, cand)
        intervals = [f for f in analysis.detect_degeneracy(p, cand, a)
                     if f.kind == "interval"]
        verdicts = []
        for finding in intervals:
            verdicts.extend(analysis.theorem_5_1_check(p, cand, finding, a))
        result = {"interval_findings": intervals, "verdicts": verdicts}
        failed = any(v.conclusion != "CONSISTENT" for v in verdicts)
        return result, failed
    _run("theorem5", config, body)


@cli.command()
@click.argument("config")
@click.option("--point", "point", type=float, required=True,
              help="Degenerate point theta.")
@click.option("--side", type=click.Choice(["right", "left", "both"]),
              required=True)
@click.option("--lambda", "lam", type=float, default=0.5, show_default=True)
@click.option("--xi", type=float, multiple=True,
              help="Degenerate direction components (repeat per component).")
@click.option("--scales", type=float, multiple=True,
              help="Scale ladder; when given, also runs the small-ball check.")
def theorem6(config: str, point: float, side: str, lam: float,
             xi: Tuple[float, ...], scales: Tuple[float, ...]) -> None:
    """Point-degeneracy checks at theta (6.1, and 6.2 when --scales given)."""
    def body(cfg, p, cand):
        a = cfg.analysis
        eta = _xi_or_default(xi, p, a.seed)
        if scales:
            try:
                a = dataclasses.replace(a, scales=_finite("--scales", scales))
            except conditions.SettingsError as exc:
                raise AnalysisError(
                    f"--scales {exc.rule}, got {list(scales)}") from exc
            verdicts = analysis.theorem_6_2_check(
                p, cand, point, side, lam, eta, a)
        else:
            verdicts = [analysis.theorem_6_1_check(
                p, cand, point, side, lam, eta, a)]
        result = {"verdicts": verdicts}
        failed = any(v.conclusion != "CONSISTENT" for v in verdicts)
        return result, failed
    _run("theorem6", config, body)


@cli.command()
@click.argument("config")
@click.option("--theta", type=float, required=True)
@click.option("--lambda", "lam", type=float, default=0.5, show_default=True)
@click.option("--xi", type=float, multiple=True,
              help="Needle slope components (repeat per component).")
@click.option("--side", type=click.Choice(["right", "left"]), required=True)
@click.option("--eps", type=float, default=None,
              help="Evaluate the direct increment at one needle width.")
@click.option("--sweep", is_flag=True, default=False,
              help="Run the eps sweep and compare fit against prediction.")
def increment(config: str, theta: float, lam: float, xi: Tuple[float, ...],
              side: str, eps: Optional[float], sweep: bool) -> None:
    """Cost increment under a needle variation: direct value or sweep fit."""
    def body(cfg, p, cand):
        a = cfg.analysis
        spec = NeedleSpec(theta=theta, lam=lam,
                          xi=_xi_or_default(xi, p, a.seed), side=side)
        if (eps is None) == (not sweep):
            raise AnalysisError("choose exactly one of --eps or --sweep")
        if sweep:
            record = increments.verify_expansion(p, cand, spec, settings=a)
            return record, not record.passed
        delta = increments.delta_S_direct(p, cand, spec, eps,
                                          order=a.quad_order)
        c1, c2 = increments.expansion_prediction(p, cand, spec)
        result = {
            "spec": spec, "eps": eps, "delta_S_direct": delta,
            "c1_predicted": c1, "c2_predicted": c2,
            "predicted_delta": c1 * eps + c2 * eps * eps,
        }
        return result, False
    _run("increment", config, body)


@cli.command()
@click.argument("config")
def verdict(config: str) -> None:
    """Full pipeline: Euler, excess scan, degeneracy, condition checks."""
    def body(cfg, p, cand):
        report = analysis.full_report(p, cand, cfg.analysis)
        if report.overall == "ERROR":
            raise AnalysisError(
                "; ".join(f"{stage}: {msg}"
                          for stage, msg in report.stage_errors))
        return report, report.overall != "CONSISTENT"
    _run("verdict", config, body)


def main(argv=None) -> None:
    try:
        cli(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.Abort:
        sys.exit(1)
    except click.ClickException as exc:
        _emit(None, None, {"error": exc.format_message()}, "error", 1)


if __name__ == "__main__":
    main()
