"""Self-tests of the benchmark: each truth oracle accepts the program's real
output and rejects outputs that contradict the truth; inputs are seeded; a
traced op gives exact counts and the same stdout bytes as an untraced one.

Run with `PYTHONPATH=src python3 -m pytest perfbench` from the checkout root.
"""

import contextlib
import copy
import io
import json
import os

import pytest

import layers
import run
import workloads

CLI = run.load_program()

# small grids keep the convex5 self-test fast; the oracle's truth does not
# depend on grid size
SMALL_GRIDS = "\n[analysis]\neuler_grid = 10\nscan_grid = 10\ndegeneracy_grid = 10\n"


def run_in_process(argv):
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            CLI.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return json.loads(buf.getvalue()), code


def assert_rejects(op, report, code, mutate):
    bad = copy.deepcopy(report)
    bad_code = mutate(bad)
    problems, _, _ = op.check(bad, code if bad_code is None else bad_code)
    assert problems, "oracle accepted a contradicting output"


def set_path(report, path, value):
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def test_bundled_oracle(tmp_path):
    (op,) = workloads.make_inputs("bundled_verdict", 0, run.ROOT, str(tmp_path))
    report, code = run_in_process(op.argv)
    assert op.check(report, code) == ([], 2, 0)
    for path, value in [(("result", "overall"), "CONSISTENT"),
                        (("result", "findings", 0, "t_hi"), 1.5),
                        (("result", "findings", 0, "kind"), "point"),
                        (("result", "verdicts", 0, "conclusion"), "FAILS_WEAK"),
                        (("result", "stage_errors"), [["theorem5", "x"]]),
                        (("status",), "error")]:
        assert_rejects(op, report, code,
                       lambda r, p=path, v=value: set_path(r, p, v))
    assert_rejects(op, report, code, lambda r: r["result"]["verdicts"].pop())
    assert_rejects(op, report, code, lambda r: 0)


def test_convex5_oracle(tmp_path):
    (op,) = workloads.make_inputs("convex5_verdict", 3, run.ROOT, str(tmp_path))
    with open(op.argv[1], "a", encoding="utf-8") as fh:
        fh.write(SMALL_GRIDS)
    report, code = run_in_process(op.argv)
    problems, xchecks, xfails = op.check(report, code)
    assert problems == [] and xchecks == 2
    assert xfails == sum(not c["passed"]
                         for c in report["result"]["expansion_checks"])
    for path, value in [(("result", "overall"), "FAILS_WEAK"),
                        (("result", "euler", "max_residual"), 1e-12),
                        (("result", "weierstrass", "has_violation"), True),
                        (("result", "findings"), [{"kind": "point"}]),
                        (("result", "expansion_checks"), [])]:
        assert_rejects(op, report, code,
                       lambda r, p=path, v=value: set_path(r, p, v))
    assert_rejects(op, report, code, lambda r: 2)


@pytest.mark.parametrize("index", [0, 3, 4, 7])
def test_sinh_oracle(tmp_path, index):
    op = workloads.make_inputs("sinh_needles", 0, run.ROOT, str(tmp_path))[index]
    report, code = run_in_process(op.argv)
    problems, xchecks, xfails = op.check(report, code)
    assert problems == [] and xchecks == 1
    assert xfails == (0 if report["result"]["passed"] else 1)
    values = report["result"]["sweep"]["values"]
    for path, value in [(("result", "sweep", "values", 3), values[3] * (1 + 1e-6)),
                        (("result", "c1_predicted"),
                         report["result"]["c1_predicted"] * (1 + 1e-6)),
                        (("result", "c2_predicted"), 1e-3),
                        (("result", "spec", "side"), "other")]:
        assert_rejects(op, report, code,
                       lambda r, p=path, v=value: set_path(r, p, v))
    assert_rejects(op, report, code, lambda r: 1)


def test_inputs_are_seeded(tmp_path):
    def inputs(name, seed, sub):
        ops = workloads.make_inputs(name, seed, run.ROOT, str(tmp_path / sub))
        texts = [open(op.argv[1], encoding="utf-8").read() for op in ops]
        return [op.argv[2:] for op in ops], texts

    for name in ("convex5_verdict", "sinh_needles"):
        a, b = inputs(name, 5, "a"), inputs(name, 5, "b")
        assert a == b
        assert inputs(name, 6, "c") != a
    needles = workloads.sinh_needles(5)
    cut = workloads.SINH_T1 - workloads.SINH_H
    assert sorted((theta < cut, side) for theta, side, _, _ in needles) == \
        sorted([(True, "left"), (True, "right"), (False, "left"),
                (False, "right")] * workloads.SINH_DRAWS)


def test_traced_op_counts_repeat_and_keep_stdout(tmp_path):
    op = workloads.make_inputs("sinh_needles", 0, run.ROOT, str(tmp_path))[4]
    plain = run.run_op(CLI, op)
    first, second = run.run_op(CLI, op, True), run.run_op(CLI, op, True)
    for rec in (plain, first, second):
        assert rec["problems"] == []
    assert plain["digest"] == first["digest"] == second["digest"]
    counts = first["layers"]["counts"]
    assert counts == second["layers"]["counts"]
    assert counts["problem.integrate_L.count"] > 0
    assert counts["kernel.calls"] > 0 and counts["exprs.compile.count"] > 0
    assert first["layers"]["times"]["cli.self_s"] > 0


def test_tail_has_ten_ops_beyond():
    assert run.tail(list(range(20))) == (50, 9)
    assert run.tail(list(range(100)))[0] == 90
    assert run.tail(list(range(1000)))[0] == 99


def test_benchmark_json_matches_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert tuple(w["name"] for w in bench["workloads"]) == workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [m[:3] for m in layers.METRICS]
    assert [m["name"] for m in bench["end_to_end"]] == \
        ["setup_s", "op_s.p50", "peak_rss_mb"]
