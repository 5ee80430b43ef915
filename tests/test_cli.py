"""CLI: JSON report schema, exit-code contract, reproducible bytes."""

import json
import os
import subprocess
import sys

import pytest

CFG = "example_7_1.cfg"
GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "example_7_1.verdict.json")
PAYLOAD_KEYS = ["command", "config", "exit_code", "result", "schema_version",
                "status", "tool"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def run_cli(*args, env_extra=None):
    # the child imports needlecheck from this checkout, like the test process;
    # a numpy RuntimeWarning that leaks out of the program is an error there
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c",
         "from needlecheck.cli import main; main()", *args],
        capture_output=True, env=env)
    return proc


def run_json(*args, env_extra=None):
    proc = run_cli(*args, env_extra=env_extra)
    payload = json.loads(proc.stdout.decode("utf-8"))
    assert proc.stderr == b""
    return proc.returncode, payload


def test_validate_bundled_config():
    code, payload = run_json("validate", CFG)
    assert code == 0
    assert sorted(payload) == PAYLOAD_KEYS
    assert payload["schema_version"] == "4"
    assert payload["tool"] == "needlecheck"
    assert payload["command"] == "validate"
    assert payload["status"] == "pass"
    assert payload["exit_code"] == 0
    assert payload["result"]["dim"] == 1
    assert abs(payload["result"]["cost"]) <= 1e-12
    assert payload["config"]["problem"]["h"] == 1.0


def test_validate_config_from_disk(tmp_path):
    src = (tmp_path / "copy.cfg")
    import importlib.resources as res
    src.write_text((res.files("needlecheck") / "configs" / CFG)
                   .read_text(encoding="utf-8"))
    code, payload = run_json("validate", str(src))
    assert code == 0 and payload["status"] == "pass"


def test_euler_passes_on_extremal():
    code, payload = run_json("euler", CFG)
    assert code == 0
    r = payload["result"]
    assert r["extremal"] is True
    assert r["grid_size"] == 200
    assert abs(r["max_residual"]) <= 1e-8
    assert r["tolerance"] == 2e-8  # 1e-8 * (1 + |L| scale 1)



TENT_CFG = """\
[problem]
t0 = 0.0
t1 = 3.0
h = 1.0
dim = 1
lagrangian = "dx1^2 + dy1^2"
x1 = (0.0)
history = (-1.0, 0.0, "0")

[candidate]
segment = (0.0, 1.5, "t")
segment = (1.5, 3.0, "3 - t")
"""


def test_verdict_rejects_a_momentum_jump(tmp_path):
    # a zero Euler residual on each piece, and a momentum jump of 8 at the
    # corner: not an extremal, with the jump named in the payload
    path = tmp_path / "tent.cfg"
    path.write_text(TENT_CFG)
    code, payload = run_json("verdict", str(path))
    assert code == 2 and payload["status"] == "fail"
    r = payload["result"]
    assert r["overall"] == "NOT_EXTREMAL"
    assert r["euler"]["max_residual"] == 0.0
    assert (r["euler"]["max_jump"], r["euler"]["jump_t"]) == (8.0, 1.5)
    assert r["euler"]["extremal"] is False

def test_verdict_sees_a_violation_at_t1_minus_h(tmp_path):
    # E_sum(t, xi) = xi^2 * (2 - 3*exp(-((t - 2)/0.002)^2)) on [0, 2]: -xi^2
    # at t1 - h = 2 and positive a grid step away, so only a scan row at
    # t1 - h sees the violation (at radius 2, -4)
    path = tmp_path / "window.cfg"
    path.write_text(TENT_CFG.replace(
        '"dx1^2 + dy1^2"', '"dx1^2*(1 - 3*exp(-((t - 2)/0.002)^2)) + dy1^2"')
        .replace('segment = (0.0, 1.5, "t")\nsegment = (1.5, 3.0, "3 - t")',
                 'segment = (0.0, 3.0, "0")'))
    code, payload = run_json("verdict", str(path))
    assert code == 2 and payload["status"] == "fail"
    r = payload["result"]
    assert r["overall"] == "FAILS_STRONG"
    scan = r["weierstrass"]
    assert (scan["overall_min"], scan["min_t"]) == (-4.0, 2.0)
    assert [v["t"] for v in scan["violations"]] == [2.0, 2.0]


@pytest.mark.parametrize("key", ["degeneracy_grid", "euler_grid"])
def test_retired_degeneracy_grid_key_is_read_and_dropped(tmp_path, key):
    # degeneracy detection and the Euler residual read the scan grid's
    # rows; a config that still sets degeneracy_grid or euler_grid runs as
    # one without it, the key absent from the echo, and the key is still
    # range-checked at its line
    import importlib.resources as res
    text = (res.files("needlecheck") / "configs" / CFG).read_text(
        encoding="utf-8")
    path = tmp_path / "retired.cfg"
    path.write_text(text + f"{key} = 10\n")
    code, payload = run_json("validate", str(path))
    _, bundled = run_json("validate", CFG)
    assert code == 0 and payload == bundled
    assert key not in payload["config"]["analysis"]
    path.write_text(text + f"{key} = 0\n")
    code, payload = run_json("validate", str(path))
    assert code == 1
    assert f"retired.cfg:{text.count(chr(10)) + 1}: key '{key}': " \
        "grid size must be >= 1" in payload["result"]["error"]


def test_weierstrass_scan_clean():
    code, payload = run_json("weierstrass", CFG)
    assert code == 0
    r = payload["result"]
    assert r["has_violation"] is False
    # the 200 grid times, and t1 - h = 2 (between grid times) from both
    # sides
    assert len(r["entries"]) == 202
    assert r["overall_min"] >= -r["tol_w"]
    entry = r["entries"][0]
    for key in ("t", "side", "regime", "min_excess", "min_excess_unit",
                "violation", "degenerate_directions"):
        assert key in entry


def test_excess_point_values():
    code, payload = run_json("excess", CFG, "--point", "1.0",
                             "--lambda", "0.5", "--xi", "1.0")
    assert code == 0
    r = payload["result"]
    assert r["e_x"] == pytest.approx(1.0, abs=1e-12)
    assert r["e_y"] == pytest.approx(-1.0, abs=1e-12)
    assert r["e_sum"] == pytest.approx(0.0, abs=1e-12)
    assert r["q1"]["sum"] == pytest.approx(0.0, abs=1e-12)
    assert r["q2"]["sum"] == pytest.approx(0.0, abs=1e-12)
    assert r["m"]["sum"] == pytest.approx(-2.0, abs=1e-12)
    assert r["paired_xi"] == [-1.0]
    assert "tol_w" in r


def test_excess_q_k_closed_forms():
    # along zero at t = 1 with lam = 1/4: pair = -xi/3, E_x = xi^2 and
    # E_y = -xi^2 at any slope, so Q1_x = lam/(1-lam) xi^2,
    # Q2_x = 2 lam^2/(1-lam) xi^2, the y values their negatives, and
    # m_x = m_y = -lam/(1-lam) xi^3
    lam, xi = 0.25, 1.5
    code, payload = run_json("excess", CFG, "--point", "1.0",
                             f"--lambda={lam}", f"--xi={xi}")
    assert code == 0
    r = payload["result"]
    q1, q2, m = (lam / (1 - lam) * xi ** 2, 2 * lam ** 2 / (1 - lam) * xi ** 2,
                 -lam / (1 - lam) * xi ** 3)
    assert r["e_sum_paired"] == pytest.approx(0.0, abs=1e-12)
    for key, want in (("q1", q1), ("q2", q2)):
        assert r[key]["x"] == pytest.approx(want, abs=1e-12)
        assert r[key]["y"] == pytest.approx(-want, abs=1e-12)
    assert r["m"]["x"] == pytest.approx(m, abs=1e-12)
    assert r["m"]["y"] == pytest.approx(m, abs=1e-12)


@pytest.mark.parametrize("point, side", [
    ("3.0", "right"), ("0.0", "left"), ("3.5", "right")])
def test_excess_rejects_a_point_outside_its_side_range(point, side):
    # right needs t0 <= point < t1, left needs t0 < point <= t1
    code, payload = run_json("excess", CFG, "--point", point, "--side", side,
                             "--xi", "1.0")
    assert code == 1 and payload["status"] == "error"
    assert payload["result"]["error"] == (
        f"--point={float(point)} outside the admissible range for side {side!r}")


def test_degeneracy_reports_interval():
    code, payload = run_json("degeneracy", CFG)
    assert code == 0
    r = payload["result"]
    assert r["count"] == 1
    f = r["findings"][0]
    assert f["kind"] == "interval"
    assert f["t_lo"] == 0.0 and f["t_hi"] == 2.0
    assert len(f["certified_pairs"]) == 6


def test_theorem5_flags_failures():
    code, payload = run_json("theorem5", CFG)
    assert code == 2
    assert payload["status"] == "fail"
    verdicts = payload["result"]["verdicts"]
    assert [v["theorem"] for v in verdicts] == ["5.1(i)", "5.1(ii)"]
    assert verdicts[0]["conclusion"] == "FAILS_STRONG"
    assert verdicts[0]["value"] == pytest.approx(-2.0, abs=1e-9)
    assert verdicts[1]["conclusion"] == "FAILS_WEAK"
    for v in verdicts:
        assert "tolerance" in v and v["tolerance"] > 0


def test_theorem6_point_and_scales():
    code, payload = run_json("theorem6", CFG, "--point", "1.0",
                             "--side", "both", "--xi", "1.0")
    assert code == 2
    verdicts = payload["result"]["verdicts"]
    assert len(verdicts) == 1
    assert verdicts[0]["theorem"] == "6.1(ii)"
    assert verdicts[0]["conclusion"] == "FAILS_STRONG"

    code, payload = run_json("theorem6", CFG, "--point", "1.0",
                             "--side", "both", "--xi", "1.0",
                             "--scales", "1.0", "--scales", "0.5")
    assert code == 2
    labels = [v["theorem"] for v in payload["result"]["verdicts"]]
    assert labels == ["6.1(ii)", "6.2(ii)"]


def test_theorem6_names_the_scales_flag_not_the_config_key():
    code, payload = run_json("theorem6", CFG, "--point", "1", "--side",
                             "both", "--xi", "1", "--scales", "0")
    assert code == 1 and payload["status"] == "error"
    assert payload["result"]["error"] == (
        "--scales must all be positive, got [0.0]")


def test_increment_single_eps():
    code, payload = run_json("increment", CFG, "--theta", "1.0",
                             "--lambda", "0.5", "--xi", "1.0",
                             "--side", "right", "--eps", "0.25")
    assert code == 0
    r = payload["result"]
    assert r["delta_S_direct"] == pytest.approx(-0.03125, abs=1e-12)
    assert r["predicted_delta"] == pytest.approx(-0.03125, abs=1e-7)
    assert r["c2_predicted"] == pytest.approx(-0.5, abs=1e-7)


def test_increment_sweep():
    code, payload = run_json("increment", CFG, "--theta", "1.0",
                             "--lambda", "0.5", "--xi", "1.0",
                             "--side", "right", "--sweep")
    assert code == 0
    r = payload["result"]
    assert r["passed"] is True
    assert abs(r["c1_fitted"]) <= 1e-8
    assert r["c2_fitted"] == pytest.approx(-0.5, abs=1e-6)
    assert r["tolerance"] > 0
    assert len(r["sweep"]["eps"]) == 8


def test_increment_requires_exactly_one_mode():
    code, payload = run_json("increment", CFG, "--theta", "1.0",
                             "--side", "right", "--xi", "1.0")
    assert code == 1
    assert payload["status"] == "error"
    assert "exactly one" in payload["result"]["error"]
    code, payload = run_json("increment", CFG, "--theta", "1.0",
                             "--side", "right", "--xi", "1.0",
                             "--eps", "0.1", "--sweep")
    assert code == 1


def test_verdict_full_pipeline():
    code, payload = run_json("verdict", CFG)
    assert code == 2
    assert payload["status"] == "fail"
    r = payload["result"]
    assert r["overall"] == "FAILS_WEAK"
    assert r["euler"]["extremal"] is True
    conclusions = {v["theorem"]: v["conclusion"] for v in r["verdicts"]}
    assert conclusions["5.1(i)"] == "FAILS_STRONG"
    assert conclusions["5.1(ii)"] == "FAILS_WEAK"
    for v in r["verdicts"]:
        assert "tolerance" in v and "value" in v
    assert all(c["passed"] for c in r["expansion_checks"])


def test_verdict_is_inconclusive_when_the_cross_check_fails(
        tmp_path, monkeypatch, capsys):
    from needlecheck import cli, increments
    cfg = tmp_path / "convex.cfg"
    cfg.write_text(POW_CFG.replace("(1 + dx1)^1.5", "dx1^2 + dy1^2"))
    real = increments.expansion_prediction
    # the verdict predicts both needles in one batched call
    monkeypatch.setattr(increments, "expansion_prediction",
                        lambda *a: [(c1, c2 + 1.0) for c1, c2 in real(*a)])
    with pytest.raises(SystemExit) as exit_:
        cli.main(["verdict", str(cfg)])
    payload = json.loads(capsys.readouterr().out)
    assert exit_.value.code == 2 and payload["exit_code"] == 2
    assert payload["status"] == "fail"
    assert payload["result"]["overall"] == "INCONCLUSIVE"


def test_missing_config_is_a_tool_error():
    code, payload = run_json("verdict", "no_such_file.cfg")
    assert code == 1
    assert payload["status"] == "error"
    assert "not found" in payload["result"]["error"]
    assert payload["config"] == {"path": "no_such_file.cfg"}


def test_malformed_config_reports_position(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[problem]\nt0 = oops\n")
    code, payload = run_json("validate", str(bad))
    assert code == 1
    assert payload["status"] == "error"
    assert ":2:" in payload["result"]["error"]


@pytest.mark.parametrize("old, new, line, key", [
    ('"(1 - x1)*dx1^2 - (1 + y1)*dy1^2 + dx1*dy1"', '"abs(dx1) + dx1^2"', 11,
     "lagrangian"),
    ('(-1.0, 0.0, "0")', '(-1.0, 0.0, "abs(t)")', 13, "history"),
    ('(0.0, 3.0, "0")', '(0.0, 3.0, "abs(t - 1)")', 16, "segment"),
], ids=["lagrangian", "history", "segment"])
def test_abs_error_names_the_line_of_its_key(tmp_path, old, new, line, key):
    # abs parses but cannot be differentiated; the build would fail on it,
    # so the config reports it at the key's line
    import importlib.resources as res
    cfg = tmp_path / "abs.cfg"
    cfg.write_text((res.files("needlecheck") / "configs" / CFG)
                   .read_text(encoding="utf-8").replace(old, new))
    code, payload = run_json("validate", str(cfg))
    assert code == 1 and payload["status"] == "error"
    assert payload["result"]["error"].startswith(
        f"{cfg}:{line}: key '{key}': abs is admitted for modeling only")


BUNDLED_L = '"(1 - x1)*dx1^2 - (1 + y1)*dy1^2 + dx1*dy1"'


def _with_lagrangian(tmp_path, lagrangian: str) -> str:
    import importlib.resources as res
    cfg = tmp_path / "lag.cfg"
    cfg.write_text((res.files("needlecheck") / "configs" / CFG)
                   .read_text(encoding="utf-8")
                   .replace(BUNDLED_L, f'"{lagrangian}"'))
    return str(cfg)


def test_out_of_range_constant_names_the_line_of_its_key(tmp_path):
    # the literal reads as inf; the kernel source would name an undefined inf
    cfg = _with_lagrangian(tmp_path, "1e400*dx1^2")
    code, payload = run_json("validate", cfg)
    assert code == 1 and payload["status"] == "error"
    assert payload["result"]["error"] == (
        f"{cfg}:11: key 'lagrangian': number 1e400 is out of range at "
        f"position 0: '1e400*dx1^2'")


def test_a_long_sum_validates(tmp_path):
    # one parenthesis per term in the kernel source gave up at 200 terms
    cfg = _with_lagrangian(tmp_path, " + ".join(["0.01*dx1^2"] * 500))
    code, payload = run_json("validate", cfg)
    assert code == 0 and payload["result"]["cost"] == 0.0


@pytest.mark.parametrize("lagrangian", [
    " + ".join(["0.01*dx1^2"] * 1000),
    "-" * 1200 + "dx1^2",
    "dx1^2 + 0.001" + "*x1" * 400,  # its partial in x1 nests 400 deep
], ids=["sum-1000", "negation-1200", "product-400"])
def test_a_too_deep_expression_is_a_tool_error(tmp_path, lagrangian):
    code, payload = run_json("verdict", _with_lagrangian(tmp_path, lagrangian))
    assert code == 1 and payload["status"] == "error"
    assert "nested too deeply" in payload["result"]["error"]


def test_a_folded_infinity_is_a_tool_error(tmp_path):
    # the partial in x1 folds 1e300*1e300 to inf, which the kernel must
    # know by name; the non-finite value is then the Euler stage's error
    cfg = _with_lagrangian(tmp_path, "1e300*x1*1e300 + dx1^2")
    code, payload = run_json("validate", cfg)
    assert code == 0
    for command, prefix in (("euler", ""), ("verdict", "euler: ")):
        code, payload = run_json(command, cfg)
        assert code == 1 and payload["status"] == "error"
        assert payload["result"]["error"] == (
            prefix + "non-finite value in subexpression 'inf'")


def test_an_overflow_names_its_subexpression(tmp_path):
    cfg = _with_lagrangian(tmp_path, "exp(1000*dx1) + dx1^2")
    code, payload = run_json("verdict", cfg)
    assert code == 1 and payload["result"]["error"] == (
        "euler: exp out of range in subexpression 'exp(1000 * dx1)'")
    code, payload = run_json("increment", CFG, "--theta", "1", "--side",
                             "left", "--xi", "1e300", "--sweep")
    assert code == 1 and payload["result"]["error"] == (
        "overflow in subexpression 'dx1^2'")


def test_unknown_subcommand_is_a_tool_error():
    code, payload = run_json("frobnicate", CFG)
    assert code == 1
    assert payload["status"] == "error"


def test_bad_xi_arity_is_a_tool_error():
    code, payload = run_json("excess", CFG, "--point", "1.0",
                             "--xi", "1.0", "--xi", "2.0")
    assert code == 1
    assert "--xi" in payload["result"]["error"]


@pytest.mark.parametrize("lam", ["0", "1", "1.5", "-0.5"])
def test_excess_rejects_lambda_outside_the_open_unit_interval(lam):
    proc = run_cli("excess", CFG, "--point", "1.0", f"--lambda={lam}")
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    payload = json.loads(proc.stdout.decode("utf-8"))
    assert payload["status"] == "error"
    # the needle's own rule, named by the flag
    assert payload["result"]["error"] == (
        f"--lambda must be strictly inside (0,1), got {float(lam)}")


def test_excess_rejects_a_zero_xi_by_the_needle_rule():
    # the same rule as theorem6 and increment: a zero direction is no needle
    code, payload = run_json("excess", CFG, "--point", "1.0", "--xi", "0")
    assert code == 1 and payload["status"] == "error"
    assert payload["result"]["error"] == "--xi must be nonzero"



# each command that takes a needle, with the flag that sets its point
NEEDLE_COMMANDS = [
    (("excess", CFG, "--side", "right"), "--point"),
    (("theorem6", CFG, "--side", "right"), "--point"),
    (("increment", CFG, "--side", "right", "--eps", "0.1"), "--theta"),
]


@pytest.mark.parametrize("argv, point", NEEDLE_COMMANDS,
                         ids=["excess", "theorem6", "increment"])
@pytest.mark.parametrize("flags, error", [
    (("{}=1", "--xi=0"), "--xi must be nonzero"),
    (("{}=1", "--lambda=1.5"), "--lambda must be strictly inside (0,1), "
                               "got 1.5"),
    (("{}=3",), "{}=3.0 outside the admissible range for side 'right'"),
    (("{}=nan",), "{} must be finite, got nan"),
    (("{}=1", "--xi", "1", "--xi", "2"),
     "--xi dimension 2 != problem dimension 1"),
    (("{}=1", "--xi=nan"), "--xi must be finite, got [nan]"),
], ids=["xi", "lambda", "range", "nan", "xi-dim", "xi-nan"])
def test_needle_errors_name_the_flag(capsys, argv, point, flags, error):
    # one rule in every command: the needle's message, with the flag of
    # the rejected value in place of its name
    from needlecheck.cli import main

    with pytest.raises(SystemExit) as exit_info:
        main(list(argv) + [f.format(point) for f in flags])
    payload = json.loads(capsys.readouterr().out)
    assert exit_info.value.code == payload["exit_code"] == 1
    assert payload["result"]["error"] == error.format(point)


def test_increment_names_the_eps_flag(capsys):
    from needlecheck.cli import main

    with pytest.raises(SystemExit):
        main(["increment", CFG, "--theta", "1", "--side", "right",
              "--eps=-0.1"])
    assert json.loads(capsys.readouterr().out)["result"]["error"] == (
        "--eps=-0.1 outside validity window (0, 1.0) for right needle at "
        "theta=1.0")

POW_CFG = """\
[problem]
t0 = 0.0
t1 = 3.0
h = 1.0
dim = 1
lagrangian = "(1 + dx1)^1.5"
x1 = (0.0)
history = (-1.0, 0.0, "0")

[candidate]
segment = (0.0, 3.0, "0")
"""


@pytest.mark.parametrize("argv, lag", [
    # slope -2 takes the base 1 + dx1 to -1, outside the domain of ^1.5
    (("excess", "--point", "1", "--xi", "-2"), "(1 + dx1)^1.5"),
    (("verdict",), "(1 + dx1)^1.5"),
    # negative only for t > 2 at slope -2: late cells of the scan grid
    (("weierstrass",), "(4 - t + dx1)^1.5"),
], ids=["argv0", "argv1", "argv2"])
def test_domain_error_at_a_slope_is_a_tool_error(tmp_path, argv, lag):
    cfg = tmp_path / "pow.cfg"
    cfg.write_text(POW_CFG.replace("(1 + dx1)^1.5", lag))
    proc = run_cli(argv[0], str(cfg), *argv[1:])
    assert proc.returncode == 1
    assert b"Traceback" not in proc.stderr
    payload = json.loads(proc.stdout.decode("utf-8"))
    assert payload["status"] == "error"
    assert "negative base" in payload["result"]["error"]
    assert f"'{lag}'" in payload["result"]["error"]


@pytest.mark.parametrize("command, segment, error", [
    # log(t - 1)*(t - 1) is 0*(-inf) at t0 = 1
    ("validate", "log(t - 1)*(t - 1)*(4 - t)",
     "non-finite segment value/derivative at t=1.0"),
    # a pole at the grid time 2
    ("euler", "(t - 1)*(4 - t)/(t - 2)", "non-finite value"),
    ("verdict", "(t - 1)*(4 - t)/(t - 2)", "non-finite value"),
], ids=["log-validate", "pole-euler", "pole-verdict"])
def test_non_finite_candidate_is_a_tool_error_without_warnings(
        tmp_path, command, segment, error):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(POW_CFG.replace("(1 + dx1)^1.5", "dx1^2")
                   .replace("t0 = 0.0", "t0 = 1.0")
                   .replace("t1 = 3.0", "t1 = 4.0")
                   .replace("(-1.0, 0.0, \"0\")", "(0.0, 1.0, \"0\")")
                   .replace("(0.0, 3.0, \"0\")", f"(1.0, 4.0, \"{segment}\")"))
    code, payload = run_json(command, str(cfg))
    assert code == 1 and payload["status"] == "error"
    assert error in payload["result"]["error"]


POLE_CFG = POW_CFG.replace("(1 + dx1)^1.5", "dx1^2") \
    .replace("t1 = 3.0", "t1 = 4.0") \
    .replace('segment = (0.0, 3.0, "0")',
             'segment = (0.0, 1.0, "0")\n'
             'segment = (1.0, 4.0, "(t - 1)*(4 - t)/(t - 2)")') \
    + "\n[analysis]\neuler_grid = 101\nscan_grid = 101\n"


@pytest.mark.parametrize("command", ["weierstrass", "euler", "verdict"])
def test_singular_candidate_is_blamed_on_the_candidate(tmp_path, command):
    # the second segment has a pole at the grid time 2: the candidate's own
    # value and slope are not finite there, whatever L is
    cfg = tmp_path / "pole.cfg"
    cfg.write_text(POLE_CFG)
    code, payload = run_json(command, str(cfg))
    assert code == 1 and payload["status"] == "error"
    assert payload["result"]["error"].endswith(
        "candidate has a non-finite value or slope at t=2.0")


def test_default_direction_is_the_seeded_one(tmp_path):
    # dim 4 with seed 1: the seeded first direction differs from seed 0's,
    # and increment --sweep without --xi tests the needle of the verdict's
    # right-side expansion check
    from needlecheck.conditions import direction_set
    assert direction_set(4, 0)[0].tolist() != direction_set(4, 1)[0].tolist()
    segs = ", ".join(['"0"'] * 4)
    cfg = tmp_path / "dim4.cfg"
    cfg.write_text(
        "[problem]\nt0 = 0.0\nt1 = 3.0\nh = 1.0\ndim = 4\n"
        'lagrangian = "dx1^2 + dx2^2 + dx3^2 + dx4^2 + dy1*dy3"\n'
        f"x1 = (0.0, 0.0, 0.0, 0.0)\nhistory = (-1.0, 0.0, {segs})\n"
        f"[candidate]\nsegment = (0.0, 3.0, {segs})\n"
        "[analysis]\neuler_grid = 5\nscan_grid = 5\ndegeneracy_grid = 5\n"
        "seed = 1\n")
    _, verdict = run_json("verdict", str(cfg))
    right = verdict["result"]["expansion_checks"][0]
    assert right["spec"]["side"] == "right"
    assert right["spec"]["xi"] == direction_set(4, 1)[0].tolist()
    code, payload = run_json("increment", str(cfg), "--theta", "1.0",
                             "--side", "right", "--sweep")
    assert code == 0
    assert payload["result"] == right


def _summary_of(table, slopes):
    """The verdict's scan summary, built from the weierstrass command's
    table and the sample slopes in scan order, but for where the minimum
    is: the table names its row, not its slope."""
    first = next(e for e in table["entries"]
                 if e["min_excess"] == table["overall_min"])
    seen = {}
    for e in table["entries"]:
        for d in e["degenerate_directions"]:
            seen.setdefault(tuple(d), []).append(e["t"])
    return {
        "overall_min": table["overall_min"], "min_t": first["t"],
        "min_side": first["side"], "has_violation": table["has_violation"],
        "violations": [e for e in table["entries"] if e["violation"]],
        "degenerate_slopes": [
            {"slope": list(x), "cells": len(seen[x]), "t_first": seen[x][0],
             "t_last": seen[x][-1]} for x in map(tuple, slopes) if x in seen],
        "tol_w": table["tol_w"], "tol_deg": table["tol_deg"]}


def _scan_agrees(cfg, summary):
    """The verdict's scan summary of a dim-1 cfg with the default samples
    against its weierstrass table: the summary built from the table, and
    an excess sum of min_xi at the minimum's row equal to overall_min.
    Returns the table."""
    from needlecheck.conditions import AnalysisSettings, xi_sample_set
    table = run_json("weierstrass", cfg)[1]["result"]
    slopes = xi_sample_set(1, AnalysisSettings().radii).tolist()
    assert summary["min_xi"] in slopes
    assert {k: v for k, v in summary.items() if k != "min_xi"} \
        == _summary_of(table, slopes)
    at_min = run_json("excess", cfg, "--point", repr(summary["min_t"]),
                      "--side", summary["min_side"],
                      *(f"--xi={x!r}" for x in summary["min_xi"]))
    assert at_min[1]["result"]["e_sum"] == summary["overall_min"]
    return table


def test_stage_commands_agree_with_verdict():
    # each stage command reads the same settings as the verdict pipeline
    _, verdict = run_json("verdict", CFG)
    report = verdict["result"]
    assert run_json("euler", CFG)[1]["result"] == report["euler"]
    _scan_agrees(CFG, report["weierstrass"])
    assert run_json("degeneracy", CFG)[1]["result"]["findings"] \
        == report["findings"]
    _, theorem5 = run_json("theorem5", CFG)
    assert theorem5["result"]["verdicts"] == [
        v for v in report["verdicts"] if v["theorem"].startswith("5.1")]
    assert len(theorem5["result"]["verdicts"]) == 2


def test_scan_summary_shows_every_violation_and_degenerate_slope(tmp_path):
    # E_sum = (2 - t)*xi^2 up to t1 - h = 2 and (1 - t)*xi^2 beyond: every
    # slope degenerates at t = 2, on its two rows (the scan reads t1 - h
    # from both sides), and every row after it violates
    cfg = tmp_path / "turning.cfg"
    cfg.write_text(
        "[problem]\nt0 = 0.0\nt1 = 3.0\nh = 1.0\ndim = 1\n"
        'lagrangian = "(1 - t)*dx1^2 + dy1^2"\nx1 = (0.0)\n'
        'history = (-1.0, 0.0, "0")\n[candidate]\nsegment = (0.0, 3.0, "0")\n'
        "[analysis]\nscan_grid = 31\n")
    summary = run_json("verdict", str(cfg))[1]["result"]["weierstrass"]
    table = _scan_agrees(str(cfg), summary)
    violating = [e for e in table["entries"] if e["violation"]]
    assert [e["t"] for e in violating] == [e["t"] for e in table["entries"]
                                           if e["t"] > 2.0]
    assert summary["violations"] == violating and summary["has_violation"]
    degenerate = {tuple(d) for e in table["entries"]
                  for d in e["degenerate_directions"]}
    assert len(degenerate) == 8
    assert {tuple(d["slope"]) for d in summary["degenerate_slopes"]} \
        == degenerate
    assert all((d["cells"], d["t_first"], d["t_last"]) == (2, 2.0, 2.0)
               for d in summary["degenerate_slopes"])


@pytest.mark.parametrize("side, sign", [("right", 2.0), ("left", -2.0)])
def test_excess_theorem6_and_increment_agree(side, sign):
    # one formula per needle fact, seen through three commands: the Q_1 sum
    # of `excess` is the needle's c1 (one theta per regime), and the 6.1(i)
    # value of `theorem6` is twice its c2, sign-flipped on the left (theta
    # inside the degenerate interval, where 6.1 applies)
    def result(*argv):
        return run_json(*argv)[1]["result"]

    for theta in ("1.0", "2.5"):
        q1 = result("excess", CFG, "--point", theta, "--side", side)
        inc = result("increment", CFG, "--theta", theta, "--side", side,
                     "--eps", "0.1")
        assert q1["q1"]["sum"] == inc["c1_predicted"], theta
    for theta in ("0.5", "1.5"):
        v = result("theorem6", CFG, "--point", theta, "--side", side)
        inc = result("increment", CFG, "--theta", theta, "--side", side,
                     "--eps", "0.1")
        assert v["verdicts"][0]["value"] == sign * inc["c2_predicted"], theta


def test_verdict_beyond_sixteen_dimensions(tmp_path):
    # the Kronecker directions need one prime per dimension
    n = 17
    zeros = ", ".join(["0.0"] * n)
    segs = ", ".join(['"0"'] * n)
    cfg = tmp_path / "dim17.cfg"
    cfg.write_text(
        "[problem]\nt0 = 0.0\nt1 = 3.0\nh = 1.0\n"
        f"dim = {n}\n"
        f'lagrangian = "{" + ".join(f"dx{i}^2" for i in range(1, n + 1))}"\n'
        f"x1 = ({zeros})\nhistory = (-1.0, 0.0, {segs})\n"
        f"[candidate]\nsegment = (0.0, 3.0, {segs})\n"
        "[analysis]\neuler_grid = 5\nscan_grid = 5\ndegeneracy_grid = 5\n")
    code, payload = run_json("verdict", str(cfg))
    assert code == 0
    assert payload["result"]["overall"] == "CONSISTENT"


def test_theorem6_with_scales_is_one_engine_call(monkeypatch, capsys):
    from needlecheck import analysis, cli
    calls = []
    real = analysis._point_quantity
    monkeypatch.setattr(analysis, "_point_quantity",
                        lambda *a: calls.append(a) or real(*a))
    with pytest.raises(SystemExit):
        cli.main(["theorem6", CFG, "--point", "1.0", "--side", "both",
                  "--xi", "1.0", "--scales", "1.0", "--scales", "0.5"])
    verdicts = json.loads(capsys.readouterr().out)["result"]["verdicts"]
    assert [v["theorem"] for v in verdicts] == ["6.1(ii)", "6.2(ii)"]
    assert len(calls) == 1


def test_reports_are_byte_identical():
    a = run_cli("verdict", CFG)
    b = run_cli("verdict", CFG)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 2


# a test id, then a command line with {} in place of the tested flag's value
NUMERIC_FLAGS = [
    ("excess-point", "excess", "--point={}"),
    ("theorem6-point", "theorem6", "--point={}", "--side", "right"),
    ("increment-theta-eps", "increment", "--theta={}", "--side", "left",
     "--eps", "0.1"),
    ("increment-theta-sweep", "increment", "--theta={}", "--side", "right",
     "--sweep"),
    ("excess-xi", "excess", "--point", "1", "--xi={}"),
    ("theorem6-xi", "theorem6", "--point", "1", "--side", "right", "--xi={}"),
    ("increment-xi", "increment", "--theta", "1", "--side", "right", "--eps",
     "0.1", "--xi={}"),
    ("excess-lambda", "excess", "--point", "1", "--lambda={}"),
    ("theorem6-lambda", "theorem6", "--point", "1", "--side", "right",
     "--lambda={}"),
    ("increment-lambda", "increment", "--theta", "1", "--side", "right",
     "--eps", "0.1", "--lambda={}"),
    ("increment-eps", "increment", "--theta", "1", "--side", "right",
     "--eps={}"),
    ("theorem6-scales", "theorem6", "--point", "1", "--side", "right",
     "--scales={}"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("argv", [a[1:] for a in NUMERIC_FLAGS],
                         ids=[a[0] for a in NUMERIC_FLAGS])
def test_non_finite_flag_is_a_tool_error(capsys, recwarn, argv, value):
    # in process, so a traceback fails the test and a warning is recorded
    from needlecheck.cli import main

    command, *flags = argv
    with pytest.raises(SystemExit) as exit_info:
        main([command, CFG] + [f.format(value) for f in flags])
    out, err = capsys.readouterr()
    payload = json.loads(out)  # exactly one document
    assert exit_info.value.code == payload["exit_code"] == 1
    assert payload["status"] == "error"
    assert value in payload["result"]["error"]
    assert err == "" and not recwarn.list


def test_verdict_matches_golden_bytes():
    # the golden file is the bundled verdict as first released; any change
    # to a reported number or field shows up here
    proc = run_cli("verdict", CFG)
    with open(GOLDEN, "rb") as fh:
        assert proc.stdout == fh.read()
    assert proc.returncode == 2


def test_golden_fits_are_the_closed_form():
    # the bundled needles at theta = 1 have Delta S = -+ eps^2 / 2 exactly
    # (right, then left): the fitted coefficients differ from the closed
    # form in their last bits only
    with open(GOLDEN, "rb") as fh:
        checks = json.loads(fh.read())["result"]["expansion_checks"]
    assert [c["spec"]["side"] for c in checks] == ["right", "left"]
    for check, c2 in zip(checks, (-0.5, 0.5)):
        assert abs(check["c1_fitted"]) <= 1e-14
        assert abs(check["c2_fitted"] - c2) <= 1e-14


def test_default_quadrature_order_never_imports_numpy_polynomial():
    # the default Gauss rule is a built-in table; numpy.polynomial is a
    # lazy import worth milliseconds of every cold command
    script = (
        "import sys\n"
        "from needlecheck.cli import main\n"
        "for argv in (['increment', %r, '--theta', '1', '--side', 'right',\n"
        "              '--sweep'], ['verdict', %r]):\n"
        "    try:\n"
        "        main(argv)\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print('numpy.polynomial' in sys.modules)\n") % (CFG, CFG)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode("utf-8").splitlines()
    assert lines[-1] == "False"
    # both commands ran to a report: the increment passes, the verdict fails
    assert '"status": "pass"' in proc.stdout.decode("utf-8")
    assert '"status": "fail"' in proc.stdout.decode("utf-8")


CONVEX5_CFG = """\
[problem]
t0 = 0.0
t1 = 3.0
h = 1.0
dim = 5
lagrangian = "(2 + sin(t))*(dx1^2 + 1.5*dx2^2 + dx3^2 + 0.8*dx4^2 + 1.2*dx5^2)\
 + exp(0.1*y1)*(dy1^2 + 1.6*dy2^2 + dy3^2 + 1.2*dy4^2 + 1.3*dy5^2)\
 + x1^2 + 0.5*x2^2 + 0.3*x3^2 + 0.7*x4^2 + 0.6*x5^2 - 0.25*dx1*dy1\
 + 0.4*dx2*dy2"
x1 = (0.0, 0.0, 0.0, 0.0, 0.0)
history = (-1.0, 0.0, "0", "0", "0", "0", "0")

[candidate]
segment = (0.0, 3.0, "0", "0", "0", "0", "0")
"""


def test_commands_keep_to_numpys_array_core(tmp_path):
    # a cold command pays on first use for numpy.linalg (LAPACK), the set
    # routines and the index tricks; no op path may call them, so each is
    # replaced by a stub that records the call and raises
    cfg = tmp_path / "convex5.cfg"
    cfg.write_text(CONVEX5_CFG)
    script = (
        "import numpy\n"
        "from numpy import linalg\n"
        "called = []\n"
        "def refuse(name):\n"
        "    def stub(*args, **kwargs):\n"
        "        called.append(name)\n"
        "        raise AssertionError(name)\n"
        "    return stub\n"
        "class Refuse:\n"
        "    __getitem__ = staticmethod(refuse('r_'))\n"
        "for name in ('isin', 'ix_', 'tile', 'split', 'pad'):\n"
        "    setattr(numpy, name, refuse(name))\n"
        "numpy.r_ = Refuse()\n"
        "linalg.lstsq = refuse('linalg.lstsq')\n"
        "linalg.norm = refuse('linalg.norm')\n"
        "from needlecheck.cli import main\n"
        "for argv in (['verdict', %r], ['verdict', %r],\n"
        "             ['increment', %r, '--theta', '1', '--side', 'right',\n"
        "              '--sweep']):\n"
        "    try:\n"
        "        main(argv)\n"
        "    except SystemExit as exc:\n"
        "        print('exit', exc.code)\n"
        "print('called', called)\n") % (CFG, str(cfg), CFG)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.decode("utf-8").splitlines()
    assert lines[-1] == "called []"
    # bundled fails weak, convex5 is consistent, the needle passes
    assert [ln for ln in lines if ln.startswith("exit ")] == [
        "exit 2", "exit 0", "exit 0"]
    assert proc.stdout.decode("utf-8").count('"overall": "CONSISTENT"') == 1


def test_console_script_installed():
    import shutil
    exe = shutil.which("needlecheck")
    assert exe is not None
    proc = subprocess.run([exe, "euler", CFG], capture_output=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout.decode("utf-8"))["status"] == "pass"


def test_a_nowhere_degenerate_direction_skips_its_pair(tmp_path):
    # every scan slope keeps 2.5 + dx1 >= 0.5, but the pair of eta = 1
    # under lam = 0.75 is -3.  No direction degenerates, so neither
    # detection nor the point checks evaluate that pair: the point check
    # reports the failed certification of eta itself
    cfg = tmp_path / "sqrt.cfg"
    cfg.write_text(POW_CFG.replace("(1 + dx1)^1.5", "sqrt(2.5 + dx1)"))
    code, payload = run_json("degeneracy", str(cfg))
    assert code == 0 and payload["result"] == {"count": 0, "findings": []}
    code, payload = run_json("theorem6", str(cfg), "--point", "1", "--side",
                             "right", "--xi", "1", "--lambda", "0.75")
    assert code == 1
    assert payload["result"]["error"] == (
        "degeneracy not certified at theta=1.0 from the right: "
        "|E(eta)| = 0.026537902714057038 exceeds 2.8708286933869707e-09")


def test_a_command_never_imports_locale():
    # click's own help option translates its text through gettext, which
    # imports locale and searches for catalogs on every command
    script = ("import sys\n"
              "from needlecheck.cli import main\n"
              "try:\n"
              "    main(['verdict', %r])\n"
              "except SystemExit:\n"
              "    pass\n"
              "print('locale' in sys.modules)\n") % CFG
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.decode("utf-8")
    assert '"status": "fail"' in out
    assert out.splitlines()[-1] == "False"


@pytest.mark.parametrize("name", [None, "validate", "euler", "weierstrass",
                                  "excess", "degeneracy", "theorem5",
                                  "theorem6", "increment", "verdict"])
def test_help_is_clicks_own(name):
    # the literal help option renders the bytes of click's stock one
    import click
    from needlecheck import cli
    ours = cli.cli if name is None else cli.cli.commands[name]
    kind = click.Group if name is None else click.Command
    stock = kind(ours.name, params=list(ours.params), help=ours.help,
                 callback=ours.callback)
    if name is None:
        for sub in cli.cli.commands.values():
            stock.add_command(sub)
    argv = ["--help"] if name is None else [name, "--help"]
    got = run_cli(*argv)
    assert got.returncode == 0 and got.stderr == b""
    # the child runs `python -c`, so click names the program "-c"
    top = click.Context(stock if name is None else cli.cli, info_name="-c")
    ctx = top if name is None else click.Context(stock, info_name=name,
                                                 parent=top)
    want = stock.get_help(ctx)
    assert got.stdout.decode("utf-8") == want + "\n"


def test_usage_error_bytes():
    proc = run_cli("increment", "x", "--side", "up")
    assert proc.returncode == 1 and proc.stderr == b""
    assert proc.stdout.decode("utf-8") == """\
{
  "command": null,
  "config": null,
  "exit_code": 1,
  "result": {
    "error": "Invalid value for '--side': 'up' is not one of 'right', 'left'."
  },
  "schema_version": "4",
  "status": "error",
  "tool": "needlecheck"
}
"""
