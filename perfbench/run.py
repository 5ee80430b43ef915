"""needlecheck benchmark: end-to-end command timing and an outside-in layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of workloads.WORKLOADS, or `all` to run each in turn.  The load
is a closed loop with one client.  This process imports `needlecheck.cli`
once; each op is one `needlecheck` command, `cli.main(argv)`, run in a
child forked from it, one child at a time.  A CLI user starts cold on every
command, and so does each child: nothing one command caches outlives it.
The child captures stdout, checks it against the workload's truth oracle
and sends the verdict back through a pipe.  The second op reruns the first
input, and every op's stdout bytes must equal those of the first op with
the same input (the byte-determinism probe).

--trace 0 prints the end-to-end metrics: `setup_s`, the median wall time of
a fresh `python -c "import needlecheck.cli"`; `op_s.p50`, the median time
of one op in its child; `peak_rss_mb`, the largest max-RSS of an op child.
--trace 1 alternates untraced and traced ops over the same inputs and
prints the per-layer metrics of layers.METRICS.  The last line of stdout
is one JSON object with keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

import numpy

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

SETUP_RUNS = 5  # fresh interpreters per run for setup_s and setup.*
IMPORT_CMD = "import needlecheck.cli"
PACKAGES = ("numpy", "click", "needlecheck")


def load_program():
    """Import needlecheck.cli from this checkout's sources, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "needlecheck", "cli.py")):
        sys.exit(f"perfbench: no needlecheck sources under {SRC}")
    sys.path.insert(0, SRC)
    cli = importlib.import_module("needlecheck.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported needlecheck from {cli.__file__}, "
                 f"not from {SRC}")
    return cli


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def setup_times(runs: int = SETUP_RUNS):
    """Wall times of fresh interpreters that import needlecheck.cli."""
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_CMD], env=_env(),
                       check=True, timeout=120)
        out.append(time.perf_counter() - t0)
    return out


def import_self_times(runs: int = SETUP_RUNS):
    """Median self import time per package, from `python -X importtime`."""
    samples = {pkg: [] for pkg in PACKAGES}
    row = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)")
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORT_CMD],
            env=_env(), check=True, timeout=120, capture_output=True,
            text=True)
        totals = dict.fromkeys(PACKAGES, 0)
        for m in row.finditer(proc.stderr):
            top = m.group(2).split(".")[0]
            if top in totals:
                totals[top] += int(m.group(1))
        for pkg in PACKAGES:
            samples[pkg].append(totals[pkg] * 1e-6)
    return {pkg: statistics.median(v) for pkg, v in samples.items()}


def machine_facts():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            if not index.startswith("index"):
                continue
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(base, index, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            kind = {"Data": "d", "Instruction": "i"}.get(fields["type"], "")
            caches[f"L{fields['level']}{kind}"] = fields["size"]
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "caches": caches, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "click": importlib.metadata.version("click")}


# ---------------------------------------------------------------------------
# one op in a forked child

def _child(cli, op, traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = layers.Tracer()
        tracer.install()
    buf = io.BytesIO()
    sys.stdout = io.TextIOWrapper(buf, encoding="utf-8")
    t0 = time.perf_counter()
    try:
        cli.main(list(op.argv))
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    sys.stdout.flush()
    op_s = time.perf_counter() - t0
    out = buf.getvalue()
    try:
        report = json.loads(out)
    except ValueError:
        problems, xchecks, xfails = ["stdout is not one JSON document"], 0, 0
    else:
        problems, xchecks, xfails = op.check(report, code)
    rec = {"op_s": op_s, "exit": code, "digest": hashlib.sha256(out).hexdigest(),
           "problems": problems, "xchecks": xchecks, "xfails": xfails}
    if tracer is not None:
        rec["layers"] = tracer.op_metrics()
    return rec


def run_op(cli, op, traced: bool = False) -> dict:
    """Run one command in a child forked from this process; wait for it."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(r)
            try:
                rec = _child(cli, op, traced)
            except BaseException as exc:  # the op crashed: report, never raise
                rec = {"problems": [f"crashed: {type(exc).__name__}: {exc}"],
                       "xchecks": 0, "xfails": 0}
            with os.fdopen(w, "wb") as fh:
                fh.write(json.dumps(rec).encode())
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    try:
        rec = json.loads(data)
    except ValueError:
        rec = {"problems": [f"child ended with wait status {status} "
                            "and no result"], "xchecks": 0, "xfails": 0}
    rec["maxrss_kb"] = usage.ru_maxrss
    return rec


# ---------------------------------------------------------------------------
# the closed loop

def run_loop(cli, ops, seconds: float, trace: bool):
    """Run ops one at a time until the next one would end after `seconds`.

    Untraced: inputs 0, 0, 1, 2, ... cycling.  Traced: each input untraced,
    then traced, cycling.  At least the first input twice (untraced) or
    every input both ways (traced) runs, whatever `seconds` says.
    """
    k = len(ops)
    if trace:
        def slot(i):
            return (i // 2) % k, i % 2 == 1
        min_ops = 2 * k
    else:
        def slot(i):
            return max(i - 1, 0) % k, False
        min_ops = 2
    records, digests = [], {}
    start = time.perf_counter()
    last = 0.0
    while len(records) < min_ops or \
            time.perf_counter() - start + last <= seconds:
        idx, traced = slot(len(records))
        t0 = time.perf_counter()
        rec = run_op(cli, ops[idx], traced)
        last = time.perf_counter() - t0
        rec["input"], rec["traced"] = idx, traced
        if "digest" in rec:
            first = digests.setdefault(idx, rec["digest"])
            if rec["digest"] != first:
                rec["problems"].append(
                    "stdout bytes differ from the first run of this input")
        records.append(rec)
    return records


def tail(times):
    """(percentile, value): the highest percentile with >= 10 ops beyond it."""
    n = len(times)
    ordered = sorted(times)
    for permille in (999, 990, 950, 900, 750, 500):
        if n * (1000 - permille) >= 10000:
            return permille / 10, ordered[-(-n * permille // 1000) - 1]
    return None


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(records, lines):
    times = [r["op_s"] for r in records if "op_s" in r]
    setup = setup_times()
    metrics = {
        "setup_s": (_median(setup), "s"),
        "op_s.p50": (_median(times), "s"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in records) / 1024, "MB"),
    }
    lines.append(f"setup_s {metrics['setup_s'][0]:.4f} s "
                 f"(fresh interpreters={len(setup)})")
    lines.append(f"op_s.p50 {metrics['op_s.p50'][0]:.4f} s (ops={len(times)})")
    if len(times) >= 20:
        pct, value = tail(times)
        lines.append(f"op_s.p{pct:g} {value:.4f} s (ops={len(times)})")
    lines.append(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} MB "
                 f"(ops={len(records)})")
    return metrics


def per_layer(records, k, lines):
    traced = [r for r in records if r["traced"] and "layers" in r]
    plain = [r["op_s"] for r in records if not r["traced"] and "op_s" in r]
    # counts are exact: averaged over the first traced run of each input;
    # times are medians over every traced op
    cycle = [r["layers"]["counts"] for r in traced[:k]]

    def total(name):
        return sum(c.get(name, 0) for c in cycle)

    metrics = {}
    for name, unit, *_ in layers.METRICS:
        if unit == "count":
            metrics[name] = total(name) / max(len(cycle), 1)
        elif unit == "s":
            metrics[name] = _median([r["layers"]["times"].get(name, 0.0)
                                     for r in traced])
    metrics["kernel.points_per_call"] = \
        total("kernel.points") / max(total("kernel.calls"), 1)
    metrics["exprs.compile.unique_ratio"] = \
        total("exprs.compile.unique") / max(total("exprs.compile.count"), 1)
    op_s = metrics["trace.op_s"] = _median([r["op_s"] for r in traced])
    metrics["trace.overhead_ratio"] = op_s / _median(plain) if plain else 0.0
    for pkg, v in import_self_times().items():
        metrics[f"setup.{pkg}_s"] = v
    out = {name: (metrics[name], unit) for name, unit, *_ in layers.METRICS
           if name in metrics}
    shares = sorted(((v, name) for name, (v, unit) in out.items()
                     if unit == "s" and not name.startswith(("setup.", "trace."))
                     and name not in ("kernel.s", "trajectory.lookup_s")),
                    reverse=True)[:5]
    lines.append(f"traced ops={len(traced)} untraced ops={len(plain)}")
    lines.append("largest self-time shares of trace.op_s: " + ", ".join(
        f"{name} {v / op_s:.1%}" for v, name in shares if op_s > 0))
    return out


def measure(cli, name: str, seed: int, seconds: float, trace: bool):
    ops = workloads.make_inputs(name, seed, ROOT, WORK)
    records = run_loop(cli, ops, seconds, trace)
    lines = [f"workload={name} seed={seed} seconds={seconds:g} "
             f"trace={int(trace)} inputs={len(ops)}",
             "machine " + json.dumps(machine_facts(), sort_keys=True)]
    failed = [r for r in records if r["problems"]]
    xchecks = sum(r["xchecks"] for r in records)
    xfails = sum(r["xfails"] for r in records)
    fail_ratio = len(failed) / len(records)
    xcheck_fail_ratio = xfails / xchecks if xchecks else 0.0
    if trace:
        metrics = per_layer(records, len(ops), lines)
        for metric, (value, unit) in metrics.items():
            lines.append(f"{metric} {value:.6g} {unit}")
        metrics["fail_ratio"] = (fail_ratio, "ratio")
        metrics["xcheck_fail_ratio"] = (xcheck_fail_ratio, "ratio")
    else:
        metrics = end_to_end(records, lines)
    lines.append(f"fail_ratio {fail_ratio:g} ratio "
                 f"(failed={len(failed)} of ops={len(records)})")
    lines.append(f"xcheck_fail_ratio {xcheck_fail_ratio:g} ratio "
                 f"({xfails} of {xchecks} cross-checks disagree with the "
                 "truth)")
    for r in failed[:5]:
        lines.append(f"FAILED input {r.get('input')}: {r['problems'][:3]}")
    result = {"correct": not failed, "attempted": len(records),
              "failed": len(failed),
              "metrics": {m: {"value": v, "unit": u}
                          for m, (v, u) in metrics.items()}}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.environ.pop("NEEDLECHECK_THREADS", None)  # ops run single-threaded
    cli = load_program()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result, lines = measure(cli, name, args.seed, args.seconds,
                                bool(args.trace))
        for line in lines:
            print(line)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
