"""degparab benchmark: time whole CLI sessions end to end, or trace them
layer by layer.

    python3 bench/run.py --workload spectral-1d --seed 0 --seconds 35 --trace 0

Run it from anywhere inside a checkout; it builds nothing and imports
degparab from the checkout's `src/`.  The workload's configs are generated
from the seed into `.bench_work/`, and every measurement runs in a fresh
child process (bench/session.py) with BLAS/OpenMP capped at one thread.

With `--trace 0` it also starts set-up-only children, so `setup_s` is a
median over several set-ups, and prints the end-to-end metrics of
metrics.END_TO_END.  With `--trace 1` it prints the per-layer metrics of
metrics.PER_LAYER from a traced run.  Each metric line gives the median,
quartiles and sample count; the last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.  Exit status is
nonzero, with no result line, when no measurement could be made.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
from workloads import WORKLOADS, write_configs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_work"

SETUP_CHILDREN = 7          # plus the measuring child's own set-up
RUN_LIMIT_S = 170.0         # a run must end within 180 s
THREAD_CAP = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# ROADMAP baseline rows next to the metric of this benchmark that comes
# closest; the configs differ where the label says so.
ROADMAP_BASELINE = {
    "spectral-1d": (
        ("separate CLI processes solve / eps-sweep / oracle-compare on the "
         "README config (n 1024, K 128)", "0.67 / 1.23 / 2.99 s",
         ("solve_s", "eps_sweep_s", "oracle_compare_s")),
    ),
    "matrix-2d": (
        ("separate CLI processes solve / thm1 / eps-sweep on the 2D "
         "matrix([1+t, 0.5t]) config (K 128)", "9.9 / 7.9 / 30-35 s",
         ("solve_s", "checks_s", "eps_sweep_s")),
    ),
    "levelset-1d": (
        ('profile-check peak RSS with a quadrature-only expr("t") profile',
         "205 MB", ("peak_rss_mb",)),
    ),
}


def child(workload, seed, work, result, extra, timeout):
    """Run bench/session.py to completion; its JSON result, or None."""
    env = dict(os.environ, **THREAD_CAP)
    if result.exists():
        result.unlink()
    cmd = [sys.executable, str(BENCH / "session.py"), "--workload", workload,
           "--seed", str(seed), "--work", str(work), "--result", str(result)]
    with open(work / "child.log", "ab") as log:
        cmd += ["--spawned-at", repr(time.monotonic())] + extra
        proc = subprocess.Popen(cmd, stdout=log, stderr=log, env=env, cwd=ROOT)
        try:
            code = proc.wait(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"child timed out after {timeout:.0f} s", file=sys.stderr)
            return None
    if code != 0 or not result.exists():
        tail = (work / "child.log").read_text(errors="replace")[-2000:]
        print(f"child exited with {code}:\n{tail}", file=sys.stderr)
        return None
    return json.loads(result.read_text())


def summary(values):
    """(median, q1, q3, n) of a sample."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def print_metric(name, values, unit):
    med, q1, q3, n = summary(values)
    print(f"  {name:40s} {med:14.6g} {unit:6s} q1 {q1:.6g}  q3 {q3:.6g}  "
          f"n {n}")


def run_record(args):
    import numpy
    import scipy
    load = os.getloadavg()
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "loadavg_at_start": [round(x, 2) for x in load]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "degparab" / "__init__.py").is_file():
        print(f"no degparab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    record = run_record(args)
    workload = WORKLOADS[args.workload]
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    write_configs(work, workload, args.seed)

    def remaining():
        return RUN_LIMIT_S - (time.monotonic() - started)

    setups = []
    if not args.trace:
        for _ in range(SETUP_CHILDREN):
            res = child(args.workload, args.seed, work, work / "setup.json",
                        ["--setup-only"], remaining())
            if res is None:
                return 1
            setups.append(res["setup_s"])
    res = child(args.workload, args.seed, work, work / "result.json",
                ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                remaining())
    shutil.rmtree(work / "out", ignore_errors=True)  # snapshots, MBs a run
    if res is None or (args.trace and not res["traced_sessions"]):
        return 1
    setups.append(res["setup_s"])

    sessions = res["sessions"] + res["traced_sessions"]
    rows = [r for s in sessions for r in s["ops"]]
    attempted, failed = len(rows), sum(r["failed"] for r in rows)
    correct = not any(r["wrong"] for r in rows)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{len(res['sessions'])} untraced + {len(res['traced_sessions'])} "
          f"traced sessions")
    print("  run record: " + json.dumps(record))
    failures = collections.Counter(f"{r['op']}: {'; '.join(r['problems'])}"
                                   for r in rows if r["failed"])
    for text, count in failures.items():
        print(f"  FAILED {count}x {text}")

    reported = {}
    if args.trace:
        layer = res["layer_metrics"]
        untraced = statistics.median(s["session_s"] for s in res["sessions"])
        traced = statistics.median(s["session_s"]
                                   for s in res["traced_sessions"])
        for m in layer:
            m["trace.overhead_s"] = traced - untraced
        print("per-layer metrics (traced sessions):")
        for name, unit, _ in metrics.PER_LAYER:
            values = [m.get(name, 0.0) for m in layer]
            print_metric(name, values, unit)
            reported[name] = (statistics.median(values), unit)
    else:
        samples = {name: [s[name] for s in res["sessions"]]
                   for name in ("session_s", "solve_s", "checks_s",
                                "eps_sweep_s", "oracle_compare_s")}
        samples["setup_s"] = setups
        samples["peak_rss_mb"] = [res["peak_rss_kb"] / 1024.0]
        samples["error_rate"] = [failed / attempted]
        print("end-to-end metrics:")
        for name, unit, _, _ in metrics.END_TO_END:
            print_metric(name, samples[name], unit)
            reported[name] = (statistics.median(samples[name]), unit)
        for name, unit in metrics.REPORTED_ONLY:
            if any(samples[name]) or name == "error_rate":
                print_metric(name, samples[name], unit)
        print(f"  ({failed} of {attempted} operations failed)")
        for label, value, names in ROADMAP_BASELINE[args.workload]:
            ours = " / ".join(f"{statistics.median(samples[n]):.3g}"
                              for n in names)
            print(f"  ROADMAP baseline: {label}: {value}; "
                  f"here {' / '.join(names)} = {ours}")

    (work / "record.json").write_text(json.dumps(
        {"record": record, "setup_s": setups, "result": res}, indent=1))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
