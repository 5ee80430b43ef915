"""Benchmark workloads: seeded needlecheck commands and the truth each output must match.

A workload is a cycle of inputs.  Each input is the argv of one `needlecheck`
command plus a truth oracle.  The oracle reads the parsed JSON report and the
exit code and returns (problems, cross-checks, cross-check failures):

- problems: every way the output contradicts the truth; a non-empty list fails
  the op (it counts in `fail_ratio`);
- cross-checks: needle cross-checks in the output whose `passed` flag has a
  known true value (`expansion_checks[*]` of `verdict`, `passed` of
  `increment --sweep`); failures are those whose flag disagrees with it.
  They count in `xcheck_fail_ratio`, not in `fail_ratio`.  At the commit
  that introduced this benchmark, `quadrature.fit_expansion` fits only
  c1*eps + c2*eps^2 and absorbs genuine eps^3 terms, so every cross-check
  of `convex5_verdict` and `sinh_needles` disagrees (ratio 1.0).
"""

import math
import os
import random
from dataclasses import dataclass
from typing import Callable, List, Tuple

WORKLOADS = ("bundled_verdict", "convex5_verdict", "sinh_needles")

Check = Callable[[dict, int], Tuple[List[str], int, int]]

# sinh_needles problem: L = K*(dx1^2 + x1^2) on [0, 3], h = 1; x = sinh t
# solves x'' = x, so the first variation vanishes and
# Delta S = K * int(qdot^2 + q^2) = K xi^2 (eps lam/(1-lam) + lam^2 eps^3/3).
SINH_K = 1000.0
SINH_T0, SINH_T1, SINH_H = 0.0, 3.0, 1.0
SINH = "0.5*(exp(t) - exp(-t))"
# theta ranges that leave every needle a validity window of at least 0.2:
# "paired" is theta < t1 - h, "tail" is theta >= t1 - h.
SINH_THETA = {"paired": (0.2, 1.8), "tail": (2.05, 2.8)}
SINH_DRAWS = 2  # needles per (regime, side)

# relative tolerances of the closed forms; the program meets them to ~1e-13
SWEEP_RTOL = 1e-9
COEF_RTOL = 1e-9
# t_lo/t_hi of the bundled interval finding are grid points of [0, 2]
GRID_ATOL = 1e-9


@dataclass(frozen=True)
class Op:
    argv: Tuple[str, ...]
    check: Check


def make_inputs(name: str, seed: int, root: str, workdir: str) -> List[Op]:
    """The input cycle of a workload; config files are written under workdir."""
    if name == "bundled_verdict":
        path = os.path.join(root, "src", "needlecheck", "configs",
                            "example_7_1.cfg")
        return [Op(("verdict", path), check_bundled)]
    os.makedirs(workdir, exist_ok=True)
    if name == "convex5_verdict":
        path = _write(workdir, f"convex5-{seed}.cfg", convex5_config(seed))
        return [Op(("verdict", path), check_convex5)]
    if name == "sinh_needles":
        path = _write(workdir, "sinh.cfg", sinh_config())
        return [Op(("increment", path, "--theta", repr(theta), "--side", side,
                    f"--lambda={lam!r}", f"--xi={xi!r}", "--sweep"),
                   _sinh_check(theta, side, lam, xi))
                for theta, side, lam, xi in sinh_needles(seed)]
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _signed_sum(terms: List[Tuple[float, str]]) -> str:
    return " + ".join(f"{c:.4f}*{f}" for c, f in terms).replace("+ -", "- ")


def convex5_config(seed: int) -> str:
    """Strictly convex dim-5 problem with zero data and the zero candidate.

    L = (2+sin t) sum a_i dx_i^2 + exp(0.1 y1) sum b_i dy_i^2
        + sum c_i x_i^2 + sum d_i dx_i dy_i,
    a_i, b_i in [0.5, 2], c_i in [0, 1], |d_i| <= 0.5, so 4 a_i b_i > d_i^2
    and every excess is positive: CONSISTENT with no degeneracy findings.
    Grids are left at their defaults.
    """
    rng = random.Random(seed)
    n = 5
    a = [rng.uniform(0.5, 2.0) for _ in range(n)]
    b = [rng.uniform(0.5, 2.0) for _ in range(n)]
    c = [rng.uniform(0.0, 1.0) for _ in range(n)]
    d = [rng.uniform(-0.5, 0.5) for _ in range(n)]
    ix = range(1, n + 1)
    lag = (f"(2 + sin(t))*({_signed_sum([(a[i - 1], f'dx{i}^2') for i in ix])})"
           f" + exp(0.1*y1)*({_signed_sum([(b[i - 1], f'dy{i}^2') for i in ix])})"
           f" + {_signed_sum([(c[i - 1], f'x{i}^2') for i in ix])}"
           f" + {_signed_sum([(d[i - 1], f'dx{i}*dy{i}') for i in ix])}")
    zeros = ", ".join(["0.0"] * n)
    comps = ", ".join(['"0"'] * n)
    return (f"# convex5_verdict, seed {seed}\n"
            "[problem]\nt0 = 0.0\nt1 = 3.0\nh = 1.0\ndim = 5\n"
            f'lagrangian = "{lag}"\n'
            f"x1 = ({zeros})\n"
            f"history = (-1.0, 0.0, {comps})\n\n"
            f"[candidate]\nsegment = (0.0, 3.0, {comps})\n")


def sinh_config() -> str:
    x1 = repr(math.sinh(SINH_T1))
    return ("# sinh_needles: x = sinh t is an exact extremal\n"
            f"[problem]\nt0 = {SINH_T0!r}\nt1 = {SINH_T1!r}\nh = {SINH_H!r}\n"
            f'dim = 1\nlagrangian = "{SINH_K!r}*(dx1^2 + x1^2)"\n'
            f"x1 = ({x1})\n"
            f'history = ({SINH_T0 - SINH_H!r}, {SINH_T0!r}, "{SINH}")\n\n'
            f'[candidate]\nsegment = ({SINH_T0!r}, {SINH_T1!r}, "{SINH}")\n')


def sinh_needles(seed: int) -> List[Tuple[float, str, float, float]]:
    """(theta, side, lam, xi): half paired, half tail, both sides, both signs."""
    rng = random.Random(seed)
    out = []
    for regime in ("paired", "tail"):
        lo, hi = SINH_THETA[regime]
        for side in ("right", "left"):
            for _ in range(SINH_DRAWS):
                theta = round(rng.uniform(lo, hi), 6)
                lam = round(rng.uniform(0.2, 0.8), 6)
                xi = round(rng.choice((-1, 1)) * rng.uniform(0.5, 2.0), 6)
                out.append((theta, side, lam, xi))
    return out


# ---------------------------------------------------------------------------
# truth oracles

def _envelope(report: dict, code: int, command: str) -> List[str]:
    problems = []
    if report.get("tool") != "needlecheck" or report.get("command") != command:
        problems.append(f"not a needlecheck {command} report")
    if report.get("exit_code") != code:
        problems.append(f"report exit_code {report.get('exit_code')} "
                        f"!= process exit code {code}")
    if report.get("status") == "error":
        problems.append(f"error: {report.get('result', {}).get('error')}")
    return problems


def _expansion_xchecks(result: dict, problems: List[str]) -> Tuple[int, int]:
    checks = result.get("expansion_checks") or []
    if len(checks) != 2:
        problems.append(f"{len(checks)} expansion checks, expected 2")
    return len(checks), sum(1 for c in checks if c.get("passed") is not True)


def check_bundled(report: dict, code: int) -> Tuple[List[str], int, int]:
    """Bundled example 7.1: FAILS_WEAK with one interval finding on [0, 2]."""
    problems = _envelope(report, code, "verdict")
    if problems:
        return problems, 0, 0
    r = report["result"]
    if code != 2 or report["status"] != "fail":
        problems.append(f"exit {code} / status {report['status']}, "
                        "expected 2 / fail")
    if r["overall"] != "FAILS_WEAK":
        problems.append(f"overall {r['overall']}, expected FAILS_WEAK")
    got = [(v["theorem"], v["conclusion"]) for v in r["verdicts"]]
    want = [("5.1(i)", "FAILS_STRONG"), ("5.1(ii)", "FAILS_WEAK"),
            ("6.1(ii)", "FAILS_STRONG"), ("6.2(ii)", "FAILS_WEAK")]
    if got != want:
        problems.append(f"verdicts {got}, expected {want}")
    spans = [(f["kind"], f["t_lo"], f["t_hi"]) for f in r["findings"]]
    if (len(spans) != 1 or spans[0][0] != "interval"
            or abs(spans[0][1] - 0.0) > GRID_ATOL
            or abs(spans[0][2] - 2.0) > GRID_ATOL):
        problems.append(f"findings {spans}, expected one interval on [0, 2]")
    if r["stage_errors"]:
        problems.append(f"stage errors {r['stage_errors']}")
    xchecks, xfails = _expansion_xchecks(r, problems)
    return problems, xchecks, xfails


def check_convex5(report: dict, code: int) -> Tuple[List[str], int, int]:
    """Strictly convex problem: CONSISTENT, zero residual, nothing found."""
    problems = _envelope(report, code, "verdict")
    if problems:
        return problems, 0, 0
    r = report["result"]
    if code != 0 or report["status"] != "pass":
        problems.append(f"exit {code} / status {report['status']}, "
                        "expected 0 / pass")
    if r["overall"] != "CONSISTENT":
        problems.append(f"overall {r['overall']}, expected CONSISTENT")
    euler = r["euler"] or {}
    if euler.get("max_residual") != 0.0 or euler.get("extremal") is not True:
        problems.append(f"Euler stage {euler}, expected residual 0")
    scan = r["weierstrass"] or {}
    if scan.get("has_violation") is not False:
        problems.append("Weierstrass scan missing or reports a violation")
    for key in ("findings", "verdicts", "stage_errors"):
        if r[key]:
            problems.append(f"{key} not empty: {len(r[key])} entries")
    xchecks, xfails = _expansion_xchecks(r, problems)
    return problems, xchecks, xfails


def _sinh_check(theta: float, side: str, lam: float, xi: float) -> Check:
    def check(report: dict, code: int) -> Tuple[List[str], int, int]:
        return check_sinh(report, code, theta, side, lam, xi)
    return check


def check_sinh(report: dict, code: int, theta: float, side: str, lam: float,
               xi: float) -> Tuple[List[str], int, int]:
    """increment --sweep on the sinh extremal against the closed form."""
    problems = _envelope(report, code, "increment")
    if problems:
        return problems, 0, 0
    r = report["result"]
    spec = r["spec"]
    if (spec["theta"], spec["side"], spec["lam"], spec["xi"]) != \
            (theta, side, lam, [xi]):
        problems.append(f"needle {spec} is not the one requested")
    k2 = SINH_K * xi * xi
    eps, vals = r["sweep"]["eps"], r["sweep"]["values"]
    if len(eps) != len(vals) or len(eps) < 4:
        problems.append(f"sweep has {len(eps)} levels and {len(vals)} values")
    for e, v in zip(eps, vals):
        truth = k2 * (e * lam / (1.0 - lam) + lam * lam * e ** 3 / 3.0)
        if abs(v - truth) > SWEEP_RTOL * abs(truth):
            problems.append(f"Delta S({e}) = {v}, closed form {truth}")
    c1 = k2 * lam / (1.0 - lam)
    if abs(r["c1_predicted"] - c1) > COEF_RTOL * (1.0 + abs(c1)):
        problems.append(f"c1_predicted {r['c1_predicted']}, closed form {c1}")
    if abs(r["c2_predicted"]) > COEF_RTOL * (1.0 + k2):
        problems.append(f"c2_predicted {r['c2_predicted']}, closed form 0")
    passed = r["passed"]
    if code != (0 if passed else 2):
        problems.append(f"exit {code} disagrees with passed={passed}")
    return problems, 1, 0 if passed is True else 1
