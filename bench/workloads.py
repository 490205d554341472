"""The benchmark's workloads: configs, operation lists and output tolerances.

Each workload is one degparab CLI session run closed loop, one operation at
a time, in a single process.  The seed given on the command line goes into
the config's `[run] seed`; it drives `rough(...)` initial data and the Monte
Carlo stream, and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

# Subcommands whose times add up to checks_s.
CHECK_SUBCOMMANDS = ("check-thm1", "check-thm2", "check-classic",
                     "kernel-decay", "profile-check")

EDGE_SPEC = 'expr("1+sin(1/t)")'


@dataclass(frozen=True)
class Op:
    """One CLI call: `name` labels its output directory and its cli.<name>.s
    span; `config` picks the main or the probe config.  `expect` lists the
    exit codes that count as success."""

    name: str
    subcommand: str
    config: str = "main"
    expect: tuple = (0,)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sections: tuple  # ((section, ((key, value), ...)), ...)
    ops: tuple
    rtol: float  # output tolerance of the correctness gate (gate.py)
    probe_overrides: tuple = ()  # ((section, key, value), ...)


# Gate tolerances: ROADMAP's 1e-12 where a closed-form cumulative keeps
# quadrature out of the outputs; 1e-8 where outputs go through the
# rtol=1e-10 adaptive quadrature, which a faithful change of accumulation
# may move near 1e-10 (two decades of margin, still far below a wrong
# result).
EXACT_RTOL, QUADRATURE_RTOL = 1e-12, 1e-8

WORKLOADS = {w.name: w for w in (
    Workload(
        name="spectral-1d",
        why=("closed-form power(1) path with forcing: the O(K^2) Duhamel sum "
             "does the work, quadrature none; the only workload that runs the "
             "FD and Monte Carlo oracles"),
        sections=(
            ("grid", (("dim", "1"), ("n", "2048"), ("period", "32.0"))),
            ("partition", (("kind", "geometric"), ("steps", "128"),
                           ("horizon", "1.0"))),
            ("profile", (("spec", "power(1)"),)),
            ("coefficients", (("spec", "scalar(power(1))"),)),
            ("initial", (("spec", "gaussian(2.0)"),)),
            ("forcing", (("spec", 'separable("t", gaussian(1.5))'),)),
            ("params", (("p", "2.0"),)),
        ),
        ops=(Op("solve", "solve"), Op("check-thm1", "check-thm1"),
             Op("check-classic", "check-classic"),
             Op("eps-sweep", "eps-sweep"),
             Op("oracle-compare", "oracle-compare")),
        rtol=EXACT_RTOL,
    ),
    Workload(
        name="matrix-2d",
        why=("time-varying 2x2 matrix path with no closed form: per-node "
             "quadrature of a(t) from 0 dominates solve, check-thm1 and "
             "eps-sweep; 2D Hessian FFTs"),
        sections=(
            ("grid", (("dim", "2"), ("n", "128"), ("period", "16.0"))),
            ("partition", (("kind", "geometric"), ("steps", "32"),
                           ("horizon", "1.0"))),
            ("profile", (("spec", 'expr("0.5*t")'),)),
            ("coefficients", (("spec", 'matrix([["t", "0.5*t"], '
                                       '["0.5*t", "t"]])'),)),
            ("initial", (("spec", "gaussian(2.0)"),)),
            ("forcing", (("spec", 'separable("t", gaussian(1.5))'),)),
            ("params", (("p", "2.0"), ("k_max", "3"))),
        ),
        ops=(Op("solve", "solve"), Op("check-thm1", "check-thm1"),
             Op("kernel-decay", "kernel-decay"),
             Op("eps-sweep", "eps-sweep")),
        rtol=QUADRATURE_RTOL,
    ),
    Workload(
        name="levelset-1d",
        why=("homogeneous sqrt(t) path: many short scalar integrals from "
             "level-set bisection, the profile-check memory peak, and the "
             "1+sin(1/t) edge probe"),
        sections=(
            ("grid", (("dim", "1"), ("n", "1024"), ("period", "32.0"))),
            ("partition", (("kind", "geometric"), ("steps", "256"),
                           ("horizon", "1.0"))),
            ("profile", (("spec", 'expr("sqrt(t)")'),)),
            ("coefficients", (("spec", 'scalar(expr("sqrt(t)"))'),)),
            ("initial", (("spec", "rough(1.0)"),)),
            ("forcing", (("spec", "none"),)),
            ("params", (("p", "2.0"),)),
        ),
        # The edge probe passes validation and then exhausts the quadrature
        # budget (exit 1).  It succeeds once solve either completes (0) or
        # rejects the config as invalid (3); exit 1 always counts as failed.
        ops=(Op("profile-check", "profile-check"),
             Op("check-thm2", "check-thm2"), Op("solve", "solve"),
             Op("edge-probe", "solve", config="probe", expect=(0, 3))),
        rtol=QUADRATURE_RTOL,
        probe_overrides=(("profile", "spec", EDGE_SPEC),
                         ("coefficients", "spec", f"scalar({EDGE_SPEC})")),
    ),
)}


def config_text(workload, seed, config="main"):
    """INI text of one of the workload's configs; a pure function of
    (workload, seed, config)."""
    overrides = {}
    if config == "probe":
        overrides = {(s, k): v for s, k, v in workload.probe_overrides}
    elif config != "main":
        raise ValueError(f"unknown config {config!r}")
    lines = []
    for section, items in workload.sections + (("run", (("seed", ""),)),):
        lines.append(f"[{section}]")
        for key, value in items:
            if (section, key) == ("run", "seed"):
                value = str(int(seed))
            lines.append(f"{key} = {overrides.get((section, key), value)}")
        lines.append("")
    return "\n".join(lines)


def config_names(workload):
    return sorted({op.config for op in workload.ops})


def write_configs(work, workload, seed):
    """Write <work>/<config>.ini for each config the workload's ops use."""
    for name in config_names(workload):
        (work / f"{name}.ini").write_text(config_text(workload, seed, name))
