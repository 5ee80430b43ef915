"""Plain-text run configuration: parsing, validation, builders.

Format: `[section]` headers, `key = value` lines, `#` comments.  Values
are Python literals: numbers, double-quoted strings, parenthesized tuples
of those.  The `history` key (problem section) and `segment` key (candidate
section) may repeat; each holds `(t_start, t_end, "expr1", ...)` with one
expression per component.  Everything else appears at most once.

Parsing fills in the analysis defaults, so a report always echoes the
exact settings it ran with.
"""

import ast
import math
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .conditions import AnalysisSettings, SettingsError
from .exprs import (ExprError, admitted_variables, differentiate,
                    parse_expr, parse_lagrangian)
from .problem import CandidateExtremal, DelayProblem
from .trajectory import HistorySpec, Trajectory


class ConfigError(ValueError):
    def __init__(self, message: str, source: str = "<config>",
                 line: Optional[int] = None, column: Optional[int] = None):
        prefix = source
        if line is not None:
            prefix += f":{line}"
            if column is not None:
                prefix += f":{column}"
        super().__init__(f"{prefix}: {message}")
        self.source = source
        self.line = line
        self.column = column


Value = Union[float, str, Tuple["Value", ...]]


@dataclass(frozen=True)
class SegmentSpec:
    t_start: float
    t_end: float
    exprs: Tuple[str, ...]


@dataclass(frozen=True)
class ProblemConfig:
    t0: float
    t1: float
    h: float
    dim: int
    lagrangian: str
    x1: Tuple[float, ...]
    history: Tuple[SegmentSpec, ...]


@dataclass(frozen=True)
class CandidateConfig:
    segments: Tuple[SegmentSpec, ...]


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemConfig
    candidate: CandidateConfig
    analysis: AnalysisSettings


# ---------------------------------------------------------------------------
# value parsing

def _read_value(value: str, err) -> Value:
    """One `key = value` value, read by Python's literal parser: a tuple of
    values, a number (an int or float literal under at most one sign) or a
    double-quoted string.  err(message, k) is the error at character k."""
    text = value.lstrip(" \t")
    lead = len(value) - len(text)
    if not text:
        raise err("missing value", lead)
    try:
        raw = text.encode()  # the node offsets count UTF-8 bytes
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an invalid escape is an error
            tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:  # its offset may be None, 0 or past the end
        offset = min(max(exc.offset or 1, 1), len(text) + 1) - 1
        raise err(exc.msg.partition(" (detected")[0], lead + offset) from exc
    except (RecursionError, UnicodeError) as exc:  # ~3000 signs; a surrogate
        raise err(f"unreadable value: {exc}", lead) from exc

    def read(node: ast.expr) -> Value:
        source = raw[node.col_offset:node.end_col_offset].decode()
        at = lead + len(raw[:node.col_offset].decode())
        match node:
            case ast.Tuple(elts=items):
                return tuple(read(item) for item in items)
            case ast.Constant(value=str(string)) if source[0] == "\"":
                return string
            case ast.Constant(value=int() | float() as number) | ast.UnaryOp(
                    op=ast.UAdd() | ast.USub(),
                    operand=ast.Constant(value=int() | float() as number)
                    ) if not isinstance(number, bool):
                number = float(str(number))  # a huge int: inf, no raise
                if not math.isfinite(number):
                    raise err(f"number {source} is out of range", at)
                return -number if source[0] == "-" else number
        raise err(f"expected a number, string or tuple, got {source!r}", at)

    return read(tree.body)


def _strip_comment(line: str) -> str:
    in_string = False
    for i, c in enumerate(line):
        if c == "\"":
            in_string = not in_string
        elif c == "#" and not in_string:
            return line[:i]
    return line


# ---------------------------------------------------------------------------
# key table

def _as_int(value: Value, key: str, err) -> int:
    if not isinstance(value, float) or value != int(value):
        raise err(f"key '{key}' expects an integer")
    return int(value)


def _as_grid_size(value: Value, key: str, err) -> int:
    size = _as_int(value, key, err)
    if size < 1:
        raise err(f"key '{key}': grid size must be >= 1")
    return size


def _as_float(value: Value, key: str, err) -> float:
    if not isinstance(value, float):
        raise err(f"key '{key}' expects a number")
    return float(value)


def _as_string(value: Value, key: str, err) -> str:
    if not isinstance(value, str):
        raise err(f"key '{key}' expects a quoted string")
    return value


def _as_float_tuple(value: Value, key: str, err) -> Tuple[float, ...]:
    if isinstance(value, float):
        return (value,)
    if isinstance(value, tuple) and value \
            and all(isinstance(v, float) for v in value):
        return tuple(float(v) for v in value)
    raise err(f"key '{key}' expects a nonempty tuple of numbers")


def _as_segment(value: Value, key: str, err) -> SegmentSpec:
    if not isinstance(value, tuple) or len(value) < 3:
        raise err(f"key '{key}' expects (t_start, t_end, \"expr\", ...)")
    if not all(isinstance(v, float) for v in value[:2]):
        raise err(f"key '{key}': first two entries must be numbers")
    if not all(isinstance(c, str) for c in value[2:]):
        raise err(f"key '{key}': components must be quoted expressions")
    return SegmentSpec(t_start=value[0], t_end=value[1], exprs=value[2:])


# section -> key -> converter.  Every [problem] and [candidate] key is
# required (checked in this order); the [analysis] keys are the fields of
# AnalysisSettings, which supplies the default of an absent one and checks
# the ranges.
_KEYS = {
    "problem": {"t0": _as_float, "t1": _as_float, "h": _as_float,
                "dim": _as_int, "lagrangian": _as_string,
                "x1": _as_float_tuple, "history": _as_segment},
    "candidate": {"segment": _as_segment},
    "analysis": {"scan_grid": _as_int, "radii": _as_float_tuple,
                 "lambdas": _as_float_tuple, "scales": _as_float_tuple,
                 "tol_w": _as_float, "tol_deg": _as_float,
                 "tol_eq": _as_float, "tol_euler": _as_float,
                 "sweep_levels": _as_int, "sweep_ratio": _as_float,
                 "quad_order": _as_int, "seed": _as_int},
}
# keys that may repeat; each keeps its (value, line) pairs in file order
_REPEATABLE = (("problem", "history"), ("candidate", "segment"))
# retired keys, with their converters: read and range-checked, then
# dropped.  degeneracy_grid and euler_grid went when degeneracy detection
# and the Euler residual moved onto the scan grid's rows; the SMALL_GRIDS
# fixture of perfbench/test_perfbench.py still sets both, until ROADMAP
# item 4 drops them there and makes each key an error that names
# scan_grid.
_RETIRED = {("analysis", "degeneracy_grid"): _as_grid_size,
            ("analysis", "euler_grid"): _as_grid_size}


def parse_config(text: str, source: str = "<config>") -> RunConfig:
    """Parse and validate; errors carry source:line:column."""
    section = None
    seen: Dict[Tuple[str, str], int] = {}
    values: Dict[str, dict] = {name: {} for name in _KEYS}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigError("malformed section header", source, line_no,
                                  raw.index("[") + 1)
            name = stripped[1:-1].strip()
            if name not in _KEYS:
                raise ConfigError(f"unknown section [{name}]", source, line_no, 1)
            section = name
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", source, line_no, 1)
        if section is None:
            raise ConfigError("key outside any [section]", source, line_no, 1)
        key_part, _, value_part = line.partition("=")
        key = key_part.strip()
        col0 = len(key_part) + 2
        slot = (section, key)
        convert = _KEYS[section].get(key) or _RETIRED.get(slot)
        if convert is None:
            raise ConfigError(f"unknown key '{key}' in [{section}]",
                              source, line_no, 1)
        value = _read_value(value_part, lambda msg, k: ConfigError(
            msg, source, line_no, col0 + k))
        if slot not in _REPEATABLE and slot in seen:
            raise ConfigError(
                f"duplicate key '{key}' in [{section}] "
                f"(first at line {seen[slot]})", source, line_no, 1)
        value = convert(value, key,
                        lambda msg: ConfigError(msg, source, line_no))
        if slot in _REPEATABLE:
            values[section].setdefault(key, []).append((value, line_no))
        else:
            seen[slot] = line_no
            if slot not in _RETIRED:
                values[section][key] = value

    for sec in ("problem", "candidate"):
        for key in _KEYS[sec]:
            if key not in values[sec]:
                raise ConfigError(f"[{sec}] missing required key '{key}'",
                                  source)

    pv = values["problem"]
    t0, t1, h, dim, x1 = pv["t0"], pv["t1"], pv["h"], pv["dim"], pv["x1"]
    if h <= 0:
        raise ConfigError(f"h must be positive, got {h}", source,
                          seen[("problem", "h")])
    if not t1 - t0 > h:
        raise ConfigError(
            f"t1 - t0 must exceed h, got t1-t0={t1 - t0}, h={h}", source,
            seen[("problem", "h")])
    if dim < 1:
        raise ConfigError(f"dim must be >= 1, got {dim}", source,
                          seen[("problem", "dim")])
    if len(x1) != dim:
        raise ConfigError(
            f"x1 has {len(x1)} components, expected dim={dim}", source,
            seen[("problem", "x1")])
    # a derivative in t raises for an abs exactly where the partials built
    # with the problem and candidate would (each visits the same nodes), so
    # the error carries the key's line
    try:
        differentiate(parse_expr(pv["lagrangian"], admitted_variables(dim),
                                 dim=dim), "t")
    except ExprError as exc:
        raise ConfigError(f"key 'lagrangian': {exc}", source,
                          seen[("problem", "lagrangian")]) from exc
    for sec, key in _REPEATABLE:
        for spec, ln in values[sec][key]:
            _check_segment_spec(spec, dim, key, source, ln)

    try:
        analysis = AnalysisSettings(**values["analysis"])
    except SettingsError as exc:
        raise ConfigError(str(exc), source,
                          seen.get(("analysis", exc.key))) from exc

    return RunConfig(
        problem=ProblemConfig(**dict(
            pv, history=tuple(s for s, _ in pv["history"]))),
        candidate=CandidateConfig(segments=tuple(
            s for s, _ in values["candidate"]["segment"])),
        analysis=analysis)


def _check_segment_spec(spec: SegmentSpec, dim: int, key: str, source: str,
                        line: int) -> None:
    if spec.t_end <= spec.t_start:
        raise ConfigError(
            f"key '{key}': t_end must exceed t_start, got "
            f"({spec.t_start}, {spec.t_end})", source, line)
    if len(spec.exprs) != dim:
        raise ConfigError(
            f"key '{key}': {len(spec.exprs)} component expressions, "
            f"expected dim={dim}", source, line)
    for e in spec.exprs:
        try:
            differentiate(parse_expr(e, ("t",)), "t")
        except ExprError as exc:
            raise ConfigError(f"key '{key}': {exc}", source, line) from exc


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    return parse_config(text, source=str(path))


# ---------------------------------------------------------------------------
# builders

def build_problem(cfg: RunConfig) -> DelayProblem:
    """The problem of a parsed config.  Its LagrangianExpr is built here,
    the one place the config's partials of L are built; parse_config has
    already rejected a body that cannot be differentiated."""
    pc = cfg.problem
    lag = parse_lagrangian(pc.lagrangian, pc.dim)
    phi = Trajectory.from_segments(
        [(s.t_start, s.t_end, list(s.exprs)) for s in pc.history])
    hist = HistorySpec(phi=phi, x1=np.asarray(pc.x1, dtype=float))
    return DelayProblem(t0=pc.t0, t1=pc.t1, h=pc.h, dim=pc.dim,
                        lagrangian=lag, hist=hist)


def build_candidate(cfg: RunConfig, p: DelayProblem) -> CandidateExtremal:
    interior = Trajectory.from_segments(
        [(s.t_start, s.t_end, list(s.exprs)) for s in cfg.candidate.segments])
    return CandidateExtremal.from_interior(p, interior)
