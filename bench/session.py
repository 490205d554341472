"""One benchmark child process (started by bench/run.py).

It imports degparab from the checkout's `src/`, parses, validates and builds
the workload's inputs (the part set-up time measures), then runs the
workload's CLI sessions through `degparab.cli.run`, one operation at a time,
until another session would overrun `--seconds`.  It gates every output and
writes what it measured as JSON to `--result`.

With `--setup-only` it stops after set-up.  With `--trace 1` the first
session runs untraced and the later ones traced (see tracing.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import time
from pathlib import Path

import gate
from workloads import CHECK_SUBCOMMANDS, WORKLOADS, config_names

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE_DIR = BENCH / "reference"

# A normal operation takes seconds; one this slow has hung.
OP_TIMEOUT_S = 90.0


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException so cli.run's `except Exception`
    cannot turn it into exit code 1."""


def import_degparab():
    """degparab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import degparab
    if Path(degparab.__file__).resolve().parent != src / "degparab":
        raise SystemExit(f"imported degparab from {degparab.__file__}, "
                         f"not from {src}")
    return degparab


def setup(degparab, work, workload):
    """Parse, validate and build the inputs of every config of the workload."""
    cli = degparab.cli
    for name in config_names(workload):
        cfg = cli.parse_config((work / f"{name}.ini").read_text())
        diags = cli.validate_config(cfg)
        if diags:
            raise SystemExit(f"invalid benchmark config {name}: {diags}")
        grid = degparab.GridSpec(dim=cfg.dim, n=cfg.n, length=cfg.period)
        cli.build_initial(cfg.initial_spec, grid, cfg.p, cfg.seed)
        cli.build_forcing(cfg.forcing_spec, grid, cfg.p, cfg.seed)


def _alarm(signum, frame):
    raise OpTimeout()


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(base, f))
               for base, _, files in os.walk(path) for f in files)


def run_session(cli, work, workload, tracer=None):
    """Run the workload's operations once; returns (wall seconds, op rows).

    Each row has the op's name, subcommand, exit code (None on timeout) and
    wall time.  Stderr of each op is appended to work/stderr.log and its
    last line kept in the row.
    """
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    rows = []
    previous = signal.signal(signal.SIGALRM, _alarm)
    start = time.perf_counter()
    try:
        for op in workload.ops:
            err = io.StringIO()
            traced = (tracer.operation(op.name) if tracer
                      else contextlib.nullcontext())
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
            try:
                with contextlib.redirect_stderr(err), traced:
                    code = cli.run(op.subcommand, str(work / f"{op.config}.ini"),
                                   out=str(out / op.name))
            except OpTimeout:
                code = None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            rows.append({"op": op.name, "subcommand": op.subcommand,
                         "code": code, "s": time.perf_counter() - t0,
                         "stderr": err.getvalue().strip().splitlines()[-1:]})
            with open(work / "stderr.log", "a") as fh:
                fh.write(f"--- {op.name}\n{err.getvalue()}")
            if code is None:
                break
        wall = time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)
    for row in rows:
        row["output_bytes"] = _dir_bytes(out / row["op"])
    return wall, rows


def _summary_fails(path):
    if not path.exists():
        return []
    return [line for line in path.read_text().splitlines()
            if line.startswith("FAIL")]


def judge(rows, work, workload, reference, seed):
    """Mark each op row failed (timeout, exit code outside its expected set,
    or outputs off the reference) and wrong (outputs off the reference).

    An unexpected exit code alone is not a wrong answer: oracle-compare's
    Monte Carlo gate is a 3-standard-error test over 5 probes, which some
    config seeds fail by chance while every compared output is right.
    """
    expect = {op.name: op.expect for op in workload.ops}
    for row in rows:
        code = row["code"]
        if code is None:
            row["problems"] = [f"timeout after {OP_TIMEOUT_S} s"]
            row["failed"] = row["wrong"] = True
            continue
        off = []
        if reference is not None:
            off = gate.check(work / "out", row["op"], reference, seed,
                             workload.rtol)
        exit_problem = [] if code in expect[row["op"]] else \
            [f"exit code {code}"] + row["stderr"] + _summary_fails(
                work / "out" / row["op"] / "summary.txt")
        row["problems"] = exit_problem + off
        row["failed"] = bool(row["problems"])
        row["wrong"] = bool(off)


def session_record(wall, rows):
    def total(*names):
        return sum(r["s"] for r in rows if r["op"] in names)
    return {"session_s": wall, "solve_s": total("solve"),
            "checks_s": total(*CHECK_SUBCOMMANDS),
            "eps_sweep_s": total("eps-sweep"),
            "oracle_compare_s": total("oracle-compare"),
            "ops": rows}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    degparab = import_degparab()
    work = Path(args.work)
    workload = WORKLOADS[args.workload]
    setup(degparab, work, workload)
    result = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        result.update(measure(degparab, work, workload, args))
    Path(args.result).write_text(json.dumps(result))


def measure(degparab, work, workload, args):
    ref_path = REFERENCE_DIR / f"{workload.name}.json"
    reference = json.loads(ref_path.read_text()) if ref_path.exists() else None
    begin = time.perf_counter()
    sessions, traced = [], []

    def session(tracer=None):
        wall, rows = run_session(degparab.cli, work, workload, tracer)
        judge(rows, work, workload, reference, args.seed)
        (traced if tracer else sessions).append(session_record(wall, rows))
        return all(r["code"] is not None for r in rows)

    def time_left():
        last = (traced or sessions)[-1]["session_s"]
        return time.perf_counter() - begin + last <= args.seconds

    ok = session()
    layer_metrics = []
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        with tracer.installed(), open(work / "spans.jsonl", "w") as spans:
            while ok and (not traced or time_left()):
                ok = session(tracer)
                layer_metrics.append(tracer.metrics())
                layer_metrics[-1]["cli.output_bytes"] = sum(
                    r["output_bytes"] for r in traced[-1]["ops"])
                tracer.dump(spans)
                tracer.clear()
    else:
        while ok and time_left():
            ok = session()
    return {"sessions": sessions, "traced_sessions": traced,
            "layer_metrics": layer_metrics,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}

if __name__ == "__main__":
    main()
