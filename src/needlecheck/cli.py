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
import functools
import importlib.resources
import json
import math
import os
import re
import sys
from typing import Optional, Tuple

import click
import numpy as np

from . import analysis, conditions, increments, problem
from .analysis import AnalysisError
from .config import ConfigError, RunConfig, load_config, parse_config
from .config import build_candidate, build_problem
from .needle import NeedleError, NeedleSpec, window_for
from .problem import CandidateExtremal, DelayProblem

SCHEMA_VERSION = "4"

_ERRORS = (ValueError, ArithmeticError)


_STR = json.encoder.encode_basestring_ascii


@functools.lru_cache(maxsize=None)
def _fields(cls) -> Optional[Tuple[str, ...]]:
    """The field names of a dataclass type, sorted, else None."""
    if not dataclasses.is_dataclass(cls):
        return None
    return tuple(sorted(f.name for f in dataclasses.fields(cls)))


def _write(obj, out: list, pad: str) -> None:
    """Append the JSON text of obj to out, indented as json.dumps(...,
    indent=2, sort_keys=True) indents it at the depth of pad (a newline and
    the current indent): dataclasses are objects of their fields, numpy
    arrays nested lists, numpy scalars numbers, tuples lists, and a
    non-finite float the string of its repr."""
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        out.append(float.__repr__(v) if math.isfinite(v) else _STR(repr(v)))
    elif isinstance(obj, str):
        out.append(_STR(obj))
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = obj.tolist() if isinstance(obj, np.ndarray) else obj
        if not len(items):
            out.append("[]")
            return
        inner = pad + "  "
        out.append("[")
        for k, v in enumerate(items):
            out.append(inner if k == 0 else "," + inner)
            _write(v, out, inner)
        out.append(pad + "]")
    else:
        names = _fields(type(obj))
        if names is not None:
            items = [(n, getattr(obj, n)) for n in names]
        elif isinstance(obj, dict):
            items = sorted({str(k): v for k, v in obj.items()}.items())
        else:
            raise TypeError(f"Object of type {type(obj).__name__} is not "
                            f"JSON serializable")
        if not items:
            out.append("{}")
            return
        inner = pad + "  "
        out.append("{")
        for k, (key, v) in enumerate(items):
            out.append((inner if k == 0 else "," + inner) + _STR(key) + ": ")
            _write(v, out, inner)
        out.append(pad + "}")


def _emit(command: str, config_echo, result, status: str, code: int) -> None:
    """Print the report and exit with code.  The text is that of
    json.dumps(payload, indent=2, sort_keys=True) once the payload is
    converted to plain JSON values, written in one pass by _write: with an
    indent, json runs its pure-Python encoder, which with the conversion
    took about 2.5 times as long on the bundled verdict's 107 kB."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool": "needlecheck",
        "command": command,
        "config": config_echo,
        "result": result,
        "status": status,
        "exit_code": code,
    }
    out: list = []
    _write(payload, out, "\n")
    click.echo("".join(out))
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


def _message(command: str, exc: Exception) -> str:
    """str(exc), except that a NeedleError names the flag of the value it
    rejects in place of the value's name: theta is increment's --theta and
    the --point of excess and theorem6; lambda, xi and eps are --lambda,
    --xi and --eps."""
    name, rest = re.match(r"([a-z]*)(.*)", str(exc), re.S).groups()
    flags = {"theta": "--theta" if command == "increment" else "--point",
             "lambda": "--lambda", "xi": "--xi", "eps": "--eps"}
    if isinstance(exc, NeedleError) and name in flags:
        return flags[name] + rest
    return str(exc)


def _run(command: str, config_arg: str, fn) -> None:
    """fn(cfg, p, cand) -> (result, failed); emits the report and exits."""
    cfg = None
    try:
        cfg, p, cand = _load_all(config_arg)
        result, failed = fn(cfg, p, cand)
    except _ERRORS as exc:
        echo = cfg if cfg is not None else {"path": config_arg}
        _emit(command, echo, {"error": _message(command, exc)}, "error", 1)
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
    verdict's expansion checks use.  The needle's rules check --xi."""
    if xi:
        return np.asarray(xi, dtype=float)
    return conditions.direction_set(p.dim, seed)[0]


def _show_help(ctx: click.Context, param: click.Parameter,
               value: bool) -> None:
    if value and not ctx.resilient_parsing:
        click.echo(ctx.get_help(), color=ctx.color)
        ctx.exit()


class _HelpOption:
    """click's --help option, with its text as a literal: click's own
    help_option passes the text through gettext on every command, which
    imports locale and searches for message catalogs (about 3 ms of a
    cold command).  The help and usage bytes are click's."""

    def get_help_option(self, ctx: click.Context) -> Optional[click.Option]:
        names = self.get_help_option_names(ctx)
        if not names or not self.add_help_option:
            return None
        # one option per command: click orders eager callbacks by identity
        option = getattr(self, "_literal_help_option", None)
        if option is None:
            option = self._literal_help_option = click.Option(
                names, is_flag=True, expose_value=False, is_eager=True,
                help="Show this message and exit.", callback=_show_help)
        return option


class _Command(_HelpOption, click.Command):
    pass


class _Group(_HelpOption, click.Group):
    command_class = _Command


@click.group(cls=_Group)
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
        return scan.table(), scan.has_violation
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
        eta = _xi_or_default(xi, p, cfg.analysis.seed)
        spec = NeedleSpec(point, lam, eta, side)
        window_for(p, spec)
        pt = conditions.ExcessPoint(p, cand, point, side)
        pair = spec.outer_slope
        tw = cfg.analysis.resolved(p, cand).tol_w
        e_x, e_y = (pt.excess(s, [eta, pair])[0].tolist() for s in ("x", "y"))
        q1_x, q1_y = (conditions.q_k(1, lam, *e) for e in (e_x, e_y))
        q2_x, q2_y = (conditions.q_k(2, lam, *e) for e in (e_x, e_y))
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
            [record] = increments.verify_expansion(p, cand, [spec], a)
            return record, not record.passed
        [delta] = increments.delta_S_direct(p, cand, [spec], [eps],
                                            order=a.quad_order)
        [(c1, c2)] = increments.expansion_prediction(p, cand, [spec])
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
        # the report's fields, with the scan's summary in place of the
        # scan; the weierstrass command prints its table
        result = {f.name: getattr(report, f.name)
                  for f in dataclasses.fields(report)}
        if report.weierstrass is not None:
            result["weierstrass"] = report.weierstrass.summary()
        return result, report.overall != "CONSISTENT"
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
