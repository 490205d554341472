"""Metric definitions: the end-to-end metrics of an untraced run, the
per-layer metrics of a traced run, and which end-to-end metric each layer
metric should move on which workload.  BENCHMARK.json lists the same names,
units and directions (bench/tests check that the two agree).
"""

from __future__ import annotations

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
# Timings get the largest bound allowed: on the 2-vCPU VM the benchmark was
# sized on, whole runs slow down by 10-40% for minutes at a time while
# CPU time and wall time stay equal (host contention, not steal), so the
# quartile spread of run medians over ten seeds reached 0.06-0.28.
END_TO_END = (
    ("session_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("solve_s", "s", "lower", 0.25),
    ("checks_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# Printed with quartiles where the workload runs them, but not end-to-end
# metrics of their own: each is 0 on a workload without that subcommand
# (error_rate is failed / attempted, also in the result line's counts).
REPORTED_ONLY = (
    ("eps_sweep_s", "s"),
    ("oracle_compare_s", "s"),
    ("error_rate", "ratio"),
)

_QUAD = ("solve_s, checks_s, eps_sweep_s, session_s on matrix-2d; checks_s, "
         "solve_s on levelset-1d; ~0 on spectral-1d (predicted no change)")
_LEVELSET_CHECKS = "checks_s on levelset-1d"
_SPECTRAL = "checks_s, eps_sweep_s on matrix-2d; small on 1D"
_DUHAMEL = ("solve_s, checks_s, eps_sweep_s, oracle_compare_s on spectral-1d;"
            " ~0 self time on levelset-1d (f=None goes to solve_homogeneous)")
_HOMOGENEOUS = "solve_s, checks_s on levelset-1d"
_ESTIMATES = "checks_s, eps_sweep_s on matrix-2d and spectral-1d"
_ORACLE = "oracle_compare_s on spectral-1d"
_CLI = "session_s on every workload"

# (name, unit, moves): every per-layer metric is better lower.
PER_LAYER = (
    ("quadrature.integrate_to.calls", "count", _QUAD),
    ("quadrature.integrate_to.self_s", "s", _QUAD),
    ("quadrature.integrand_points", "count", _QUAD),
    ("quadrature.errors", "count", "error_rate on levelset-1d"),
    ("quadrature.self_s", "s", _QUAD),
    ("degeneracy.integrand_s", "s", _QUAD),
    ("degeneracy.accumulate_path.calls", "count", _QUAD),
    ("degeneracy.accumulate_path.s", "s", _QUAD),
    ("degeneracy.inverse_cumulative.calls", "count", _LEVELSET_CHECKS),
    ("degeneracy.inverse_cumulative.s", "s", _LEVELSET_CHECKS),
    ("degeneracy.cumulative_delta.calls", "count", _LEVELSET_CHECKS),
    ("degeneracy.levelset_measure_scan.s", "s",
     "checks_s, peak_rss_mb on levelset-1d"),
    ("degeneracy.cumulative_delta_grid.s", "s",
     "checks_s, peak_rss_mb on levelset-1d"),
    ("degeneracy.self_s", "s", _QUAD),
    ("spectral.fft_calls", "count", _SPECTRAL),
    ("spectral.fft_points", "count", _SPECTRAL),
    ("spectral.fft_bytes_computed", "B", _SPECTRAL),
    ("spectral.hessian_lp_norm.calls", "count", _SPECTRAL),
    ("spectral.hessian_lp_norm.self_s", "s", _SPECTRAL),
    ("spectral.besov_norm.self_s", "s", _SPECTRAL),
    ("spectral.bessel_norm.self_s", "s", _SPECTRAL),
    ("spectral.self_s", "s", _SPECTRAL),
    ("solver.solve_duhamel.calls", "count", _DUHAMEL),
    ("solver.solve_duhamel.self_s", "s", _DUHAMEL),
    ("solver.solve_homogeneous.self_s", "s", _HOMOGENEOUS),
    ("solver.propagator_symbol.calls", "count", _HOMOGENEOUS),
    ("solver.weak_residual_profile.calls", "count",
     "solve_s on every workload (two calls per solve today)"),
    ("solver.weak_residual_profile.self_s", "s", "solve_s on every workload"),
    ("solver.save_report.self_s", "s", "solve_s on every workload"),
    ("solver.self_s", "s", _DUHAMEL),
    ("estimates.weighted_norm.calls", "count", _ESTIMATES),
    ("estimates.weighted_norm.self_s", "s", _ESTIMATES),
    ("estimates.check_kernel_decay.self_s", "s", "checks_s on matrix-2d"),
    ("estimates.epsilon_sweep.self_s", "s", _ESTIMATES),
    ("estimates.self_s", "s", _ESTIMATES),
    ("oracle.fd_solve.self_s", "s", _ORACLE),
    ("oracle.lu_factorizations", "count", _ORACLE),
    ("oracle.mc_solve.self_s", "s", _ORACLE),
    ("oracle.char_function_check.self_s", "s", _ORACLE),
    ("oracle.self_s", "s", _ORACLE),
    ("cli.solve.s", "s", "solve_s, session_s on every workload"),
    ("cli.check-thm1.s", "s", "checks_s on spectral-1d and matrix-2d"),
    ("cli.check-thm2.s", "s", "checks_s on levelset-1d"),
    ("cli.check-classic.s", "s", "checks_s on spectral-1d"),
    ("cli.kernel-decay.s", "s", "checks_s on matrix-2d"),
    ("cli.profile-check.s", "s", "checks_s on levelset-1d"),
    ("cli.eps-sweep.s", "s", "eps_sweep_s on spectral-1d and matrix-2d"),
    ("cli.oracle-compare.s", "s", _ORACLE),
    ("cli.edge-probe.s", "s", "session_s, error_rate on levelset-1d"),
    ("cli.self_s", "s", _CLI),
    ("cli.output_bytes", "B", _CLI),
    ("trace.overhead_s", "s",
     "none: traced minus untraced session_s, the cost of tracing"),
)
