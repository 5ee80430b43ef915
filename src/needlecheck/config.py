"""Plain-text run configuration: the reader and the builders.

Format: `[section]` headers, `key = value` lines, `#` comments.  Values
are Python literals: numbers, double-quoted strings, parenthesized tuples
of those.  The `history` key (problem section) and `segment` key (candidate
section) may repeat; each holds `(t_start, t_end, "expr1", ...)` with one
expression per component.  Everything else appears at most once.

parse_config reads what belongs to one value: sections, keys, literals
and their types, duplicates, required keys, dim >= 1, the retired keys,
and the [analysis] table through AnalysisSettings, which fills in the
defaults, so a report always echoes the exact settings it ran with.  It
records the source and the lines of each key on the RunConfig.

build_problem and build_candidate build the model once, segment by
segment.  Every rule that relates values (h > 0, t1 - t0 > h, the
dimensions, segment order and joins, the candidate's ends, and what an
expression may be) belongs to the model's constructors and the
expression reader; the builders re-raise each of their errors as a
ConfigError at the line of its key.
"""

import ast
import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .conditions import AnalysisSettings, SettingsError
from .exprs import ExprError, parse_expr, parse_lagrangian
from .problem import CandidateExtremal, DelayProblem, ProblemError
from .trajectory import HistorySpec, Segment, Trajectory, TrajectoryError


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
    # where it was read: the source, and the lines of each key in file
    # order, for the builders' errors; not part of the run, so neither
    # echoed in reports nor compared
    source: str = field(default="<config>", compare=False)
    lines: Mapping[str, Tuple[int, ...]] = field(default_factory=dict,
                                                 compare=False)


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


def _as_dim(value: Value, key: str, err) -> int:
    dim = _as_int(value, key, err)
    if dim < 1:
        raise err(f"dim must be >= 1, got {dim}")
    return dim


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
                "dim": _as_dim, "lagrangian": _as_string,
                "x1": _as_float_tuple, "history": _as_segment},
    "candidate": {"segment": _as_segment},
    "analysis": {"scan_grid": _as_int, "radii": _as_float_tuple,
                 "lambdas": _as_float_tuple, "scales": _as_float_tuple,
                 "tol_w": _as_float, "tol_deg": _as_float,
                 "tol_eq": _as_float, "tol_euler": _as_float,
                 "sweep_levels": _as_int, "sweep_ratio": _as_float,
                 "quad_order": _as_int, "seed": _as_int},
}
# keys that may repeat; each keeps its values in file order
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
    """Read a config; errors carry source:line[:column].  The rules that
    relate values are checked by the builders."""
    section = None
    headers: Dict[str, int] = {}  # the line of each section's header
    lines: Dict[str, List[int]] = {}
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
            headers.setdefault(name, line_no)
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
        if slot not in _REPEATABLE and key in lines:
            raise ConfigError(
                f"duplicate key '{key}' in [{section}] "
                f"(first at line {lines[key][0]})", source, line_no, 1)
        value = convert(value, key,
                        lambda msg: ConfigError(msg, source, line_no))
        lines.setdefault(key, []).append(line_no)
        if slot in _REPEATABLE:
            values[section].setdefault(key, []).append(value)
        elif slot not in _RETIRED:
            values[section][key] = value

    for sec in ("problem", "candidate"):
        for key in _KEYS[sec]:
            if key not in values[sec]:
                raise ConfigError(f"[{sec}] missing required key '{key}'",
                                  source, headers.get(sec))

    try:
        analysis = AnalysisSettings(**values["analysis"])
    except SettingsError as exc:
        raise ConfigError(str(exc), source, lines[exc.key][0]) from exc

    pv = values["problem"]
    return RunConfig(
        problem=ProblemConfig(**dict(pv, history=tuple(pv["history"]))),
        candidate=CandidateConfig(
            segments=tuple(values["candidate"]["segment"])),
        analysis=analysis, source=source,
        lines={key: tuple(at) for key, at in lines.items()})


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path)) from exc
    return parse_config(text, source=str(path))


# ---------------------------------------------------------------------------
# builders

# the config key of each field path a ProblemError names
_FIELD_KEYS = {"h": "h", "lagrangian": "lagrangian", "hist.phi": "history",
               "hist.x1": "x1"}


@contextmanager
def _building(cfg: RunConfig, key: str, k: int = -1, first: int = 0):
    """Re-raise each model error of the body as a ConfigError prefixed
    `key '…': `, at the line of the k-th occurrence of key (by default its
    last, where a candidate's far end is).  A ProblemError that names a
    field is that field's key's; a TrajectoryError that names segment i
    is at occurrence i - first."""
    try:
        yield
    except (ExprError, ProblemError, TrajectoryError) as exc:
        key = _FIELD_KEYS.get(getattr(exc, "field", None), key)
        if getattr(exc, "segment", None) is not None:
            k = exc.segment - first
        at = cfg.lines.get(key, ())
        line = at[k] if -len(at) <= k < len(at) else None
        raise ConfigError(f"key '{key}': {exc}", cfg.source, line) from exc


def _segments(cfg: RunConfig, key: str,
              specs: Tuple[SegmentSpec, ...]) -> List[Segment]:
    """The Segment of each occurrence of key, each built at its line."""
    segments = []
    for k, spec in enumerate(specs):
        with _building(cfg, key, k):
            segments.append(Segment(spec.t_start, spec.t_end, tuple(
                parse_expr(e, ("t",)) for e in spec.exprs)))
    return segments


def build_problem(cfg: RunConfig) -> DelayProblem:
    """The problem of a read config.  Its LagrangianExpr is built here,
    the one place the config's partials of L are built."""
    pc = cfg.problem
    with _building(cfg, "lagrangian"):
        lag = parse_lagrangian(pc.lagrangian, pc.dim)
    phi = _segments(cfg, "history", pc.history)
    with _building(cfg, "history"):
        hist = HistorySpec(phi=Trajectory(phi), x1=pc.x1)
        return DelayProblem(t0=pc.t0, t1=pc.t1, h=pc.h, dim=pc.dim,
                            lagrangian=lag, hist=hist)


def build_candidate(cfg: RunConfig, p: DelayProblem) -> CandidateExtremal:
    """The candidate of a read config: its segments after the history's,
    one trajectory."""
    head = p.hist.phi.segments
    tail = _segments(cfg, "segment", cfg.candidate.segments)
    with _building(cfg, "segment", first=len(head)):
        return CandidateExtremal(p, Trajectory(head + tuple(tail)))
