"""Config text format: parsing, validation diagnostics, canonical emission."""

import pytest

from needlecheck.config import (
    ConfigError,
    RunConfig,
    build_candidate,
    build_problem,
    load_config,
    parse_config,
)

MINIMAL = """\
[problem]
t0 = 0.0
t1 = 3.0
h = 1.0
dim = 1
lagrangian = "(1 - x1)*dx1^2 - (1 + y1)*dy1^2 + dx1*dy1"
x1 = (0.0)
history = (-1.0, 0.0, "0")

[candidate]
segment = (0.0, 3.0, "0")
"""


def test_parse_minimal_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.problem.t0 == 0.0 and cfg.problem.t1 == 3.0
    assert cfg.problem.h == 1.0 and cfg.problem.dim == 1
    assert cfg.problem.x1 == (0.0,)
    assert len(cfg.problem.history) == 1
    assert cfg.problem.history[0].exprs == ("0",)
    assert len(cfg.candidate.segments) == 1
    assert cfg.analysis.scan_grid == 200       # defaults filled
    assert cfg.analysis.tol_w is None
    assert cfg.analysis.tol_euler is None


def test_round_trip_with_analysis_overrides():
    text = MINIMAL + """
[analysis]
scan_grid = 80
degeneracy_grid = 64
radii = (0.5, 1.0)
lambdas = (0.5)
tol_eq = 1e-6
sweep_levels = 6
seed = 3
"""
    cfg = parse_config(text)
    assert cfg.analysis.scan_grid == 80
    assert cfg.analysis.radii == (0.5, 1.0)
    assert cfg.analysis.lambdas == (0.5,)
    assert cfg.analysis.tol_eq == 1e-6
    assert cfg.analysis.seed == 3


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n" + MINIMAL.replace(
        "h = 1.0", "h = 1.0  # the delay")
    cfg = parse_config(text)
    assert cfg.problem.h == 1.0


def test_hash_inside_quotes_is_not_a_comment():
    text = MINIMAL.replace('segment = (0.0, 3.0, "0")',
                           'segment = (0.0, 3.0, "0*1 # 0")')
    with pytest.raises(ConfigError):
        parse_config(text)  # '#' reaches the expression parser and fails


def test_missing_required_key_named():
    text = "\n".join(l for l in MINIMAL.splitlines() if not l.startswith("h ="))
    with pytest.raises(ConfigError, match=r"\[problem\] missing required key 'h'"):
        parse_config(text)
    with pytest.raises(ConfigError, match="missing required key 'segment'"):
        parse_config(MINIMAL.split("[candidate]")[0])


def test_delay_must_fit_inside_interval():
    with pytest.raises(ConfigError, match="exceed"):
        parse_config(MINIMAL.replace("h = 1.0", "h = 3.0"))  # h == t1 - t0
    with pytest.raises(ConfigError, match="positive"):
        parse_config(MINIMAL.replace("h = 1.0", "h = -1.0"))


def test_duplicate_key_rejected_with_first_line():
    text = MINIMAL.replace("t1 = 3.0", "t1 = 3.0\nt1 = 4.0")
    with pytest.raises(ConfigError, match="duplicate key 't1'.*line 3"):
        parse_config(text)


def test_unknown_section_and_key():
    with pytest.raises(ConfigError, match=r"unknown section \[misc\]"):
        parse_config("[misc]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown key 'colour'"):
        parse_config(MINIMAL + "colour = 1\n")
    with pytest.raises(ConfigError, match=r":14:1: unknown key "
                       r"'interval_points' in \[analysis\]"):
        parse_config(MINIMAL + "\n[analysis]\ninterval_points = 50\n")
    with pytest.raises(ConfigError, match="outside any"):
        parse_config("t0 = 0.0\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("[problem]\njust words\n")


def test_value_errors_carry_line_and_column():
    bad = MINIMAL.replace("t1 = 3.0", "t1 = oops")
    with pytest.raises(ConfigError) as ei:
        parse_config(bad, source="demo.cfg")
    assert ei.value.source == "demo.cfg"
    assert ei.value.line == 3
    assert ei.value.column is not None
    assert str(ei.value).startswith("demo.cfg:3:")


@pytest.mark.parametrize("old, new, line, column", [
    ("dim = 1", "dim = 1e999", 5, 7),
    ("t1 = 3.0", "t1 = -1e999", 3, 6),
    ("", "\n[analysis]\neuler_grid = 1e999", 14, 14),
    ("", "\n[analysis]\ntol_w = 1e999", 14, 9),
], ids=["dim", "t1", "euler_grid", "tol_w"])
def test_overflowing_number_is_reported_at_its_position(old, new, line,
                                                        column):
    text = MINIMAL.replace(old, new) if old else MINIMAL + new + "\n"
    with pytest.raises(ConfigError, match="out of range") as ei:
        parse_config(text, source="big.cfg")
    assert (ei.value.line, ei.value.column) == (line, column)


def test_unterminated_string_reported():
    bad = MINIMAL.replace('segment = (0.0, 3.0, "0")', 'segment = (0.0, 3.0, "0)')
    with pytest.raises(ConfigError, match="string|quote"):
        parse_config(bad)


def test_component_count_must_match_dim():
    bad = MINIMAL.replace('x1 = (0.0)', 'x1 = (0.0, 0.0)')
    with pytest.raises(ConfigError, match="components"):
        parse_config(bad)
    bad = MINIMAL.replace('segment = (0.0, 3.0, "0")',
                          'segment = (0.0, 3.0, "0", "0")')
    with pytest.raises(ConfigError, match="component|dim"):
        parse_config(bad)


def test_segment_needs_increasing_interval():
    bad = MINIMAL.replace('segment = (0.0, 3.0, "0")',
                          'segment = (3.0, 0.0, "0")')
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_lagrangian_must_parse():
    bad = MINIMAL.replace(
        'lagrangian = "(1 - x1)*dx1^2 - (1 + y1)*dy1^2 + dx1*dy1"',
        'lagrangian = "dz7 + *"')
    with pytest.raises(ConfigError, match="lagrangian"):
        parse_config(bad)


def test_analysis_range_validation():
    with pytest.raises(ConfigError, match="euler_grid"):
        parse_config(MINIMAL + "\n[analysis]\neuler_grid = 0\n")
    with pytest.raises(ConfigError, match="lambdas"):
        parse_config(MINIMAL + "\n[analysis]\nlambdas = (1.5)\n")
    with pytest.raises(ConfigError, match="sweep_ratio"):
        parse_config(MINIMAL + "\n[analysis]\nsweep_ratio = 2.0\n")
    with pytest.raises(ConfigError, match="tol_w"):
        parse_config(MINIMAL + "\n[analysis]\ntol_w = -1.0\n")
    with pytest.raises(ConfigError, match="tol_euler"):
        parse_config(MINIMAL + "\n[analysis]\ntol_euler = 0.0\n")
    assert parse_config(MINIMAL + "\n[analysis]\ntol_euler = 1e-6\n") \
        .analysis.tol_euler == 1e-6


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="config"):
        load_config(str(tmp_path / "nope.cfg"))


def test_load_config_and_build(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL)
    cfg = load_config(str(path))
    assert isinstance(cfg, RunConfig)
    p = build_problem(cfg)
    cand = build_candidate(cfg, p)
    assert p.dim == 1 and p.h == 1.0
    assert cand.traj.a == -1.0 and cand.traj.b == 3.0


def test_bundled_sample_config_parses():
    import importlib.resources as res
    text = (res.files("needlecheck") / "configs" / "example_7_1.cfg") \
        .read_text(encoding="utf-8")
    cfg = parse_config(text, source="example_7_1.cfg")
    assert cfg.problem.t0 == 0.0 and cfg.problem.t1 == 3.0
    assert cfg.problem.h == 1.0 and cfg.problem.dim == 1
    assert cfg.problem.lagrangian == \
        "(1 - x1)*dx1^2 - (1 + y1)*dy1^2 + dx1*dy1"
    assert cfg.problem.x1 == (0.0,)
    assert cfg.candidate.segments[0].exprs == ("0",)
    p = build_problem(cfg)
    cand = build_candidate(cfg, p)
    assert cand.traj.value(1.7).tolist() == [0.0]
