"""Config-driven experiment runner.

Configs are flat typed key = value text in INI sections (see
ExperimentConfig for the schema and defaults).  Every subcommand reads
one config, writes CSV artifacts plus a plain-text summary into the
output directory, and exits 0 on pass, 2 when the hypothesis of the
inequality under test is inadmissible or the check fails, 3 on invalid
config, coefficients whose quadrature exhausts its budget, or NaN/inf
initial or forcing data, 1 on internal error.  CSV outputs are
byte-identical across reruns of the same config and seed; timestamps
appear only in the text summary.
"""

from __future__ import annotations

import argparse
import configparser
import datetime
import math
import os
import sys
import traceback
from dataclasses import dataclass, fields, replace

import numpy as np

from .degeneracy import (_SCAN_POINTS, _level_grid, check_domination,
                         cumulative_delta, empirical_bound, fit_beta_exponent,
                         levelset_measure_scan, parse_coefficients,
                         parse_profile)
from .estimates import (check_classic, check_kernel_decay, check_thm1,
                        check_thm2, epsilon_sweep, reports_to_csv)
from .oracle import (_fd_steps, _periodic_interp, _spline_coeffs,
                     char_function_check, compare_fields, convergence_orders,
                     mc_solve)
from .quadrature import QuadratureError
from .solver import (NonFiniteDataError, SeparableForcing, TimePartition,
                     save_report, solve_duhamel, solve_final)
from .spec import Call, compile_expr, read_call
from .spectral import (GridSpec, LPFamily, SpectralField, _freq_axes, _xi_sq,
                       gaussian_bump, lp_norm, mode_field)

THM1_TEXT = ("||u_xx||_bH^n_p(T,delta) <= N(d,p) * "
             "( ||f||_bH^n_p(T,delta^(1-p)) + ||u0||_B^(n+2-2/p)_p )")
THM2_TEXT = ("||u_xx||_bL_p(T) <= N * ||u0||_B^(2(1-1/(beta*p)))_p "
             "(homogeneous; needs the level-set condition "
             "|{t<=t0: h<=beta(t)<4h}| <= N0*h^(1/beta) and |a|<=Nbar0*delta)")
CLASSIC_TEXT = ("sup_t ||u(t)||_L_p <= N * ( ||f||_bL_p(T) + ||u0||_L_p )")
KERNEL_TEXT = ("||frac_lap^(gamma/2) block_k kernel(t)||_L1 "
               "<= N * 2^(k*gamma) * exp(-c * beta(t) * 4^k)")


class ConfigError(ValueError):
    def __init__(self, diagnostics):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = list(diagnostics)


@dataclass(frozen=True)
class ExperimentConfig:
    """Typed view of a config file; unset keys fall back to these defaults."""

    dim: int = 1
    n: int = 1024
    period: float = 32.0
    partition_kind: str = "geometric"
    steps: int = 128
    horizon: float = 1.0
    ratio: float = None
    profile_spec: str = "constant(1.0)"
    coefficients_spec: str = "scalar(constant(1.0))"
    initial_spec: str = "gaussian(1.0)"
    forcing_spec: str = "none"
    p: float = 2.0
    smoothness: float = 0.0
    gamma: float = 0.0
    eps_list: tuple = (0.1, 0.01, 0.001, 0.0001)
    k_min: int = 1
    k_max: int = 5
    t_count: int = 8
    t_lo: float = 0.001
    t_hi: float = None
    t0: float = None
    h_points: int = 9
    h_decades: float = 2.5
    beta_hat: float = None
    mc_samples: int = 20000
    mc_probes: int = 5
    seed: int = 0
    out: str = "out"


def _parse_eps(text):
    return tuple(float(v) for v in text.split(",") if v.strip())


# the section of every field outside [params]; a key is its field name
# without the "<section>_" prefix, read by the converter of its annotation
_SECTIONS = {"grid": "dim n period",
             "partition": "partition_kind steps horizon ratio",
             "profile": "profile_spec", "coefficients": "coefficients_spec",
             "initial": "initial_spec", "forcing": "forcing_spec",
             "run": "seed out"}
_SECTION_OF = {name: section for section, names in _SECTIONS.items()
               for name in names.split()}
_CONVERTERS = {"int": int, "float": float, "str": str, "tuple": _parse_eps}
_FIELD_MAP = {
    (section, f.name.removeprefix(section + "_")): (f.name,
                                                    _CONVERTERS[f.type])
    for f in fields(ExperimentConfig)
    for section in [_SECTION_OF.get(f.name, "params")]}

def parse_config(text):
    """ExperimentConfig from INI text; raises ConfigError with diagnostics."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError([f"syntax: {exc}"]) from None
    diagnostics = []
    values = {}
    for section in parser.sections():
        for key, raw in parser[section].items():
            spot = _FIELD_MAP.get((section, key))
            if spot is None:
                diagnostics.append(f"{section}.{key}: unknown key")
                continue
            name, conv = spot
            raw = raw.strip()
            if raw == "":
                continue
            try:
                values[name] = conv(raw)
            except ValueError:
                diagnostics.append(
                    f"{section}.{key}: cannot parse {raw!r} as {conv.__name__}")
    if diagnostics:
        raise ConfigError(diagnostics)
    return ExperimentConfig(**values)


def validate_config(cfg):
    """Semantic diagnostics ('section.key: problem'); empty means valid."""
    diags = []
    try:
        grid = GridSpec(dim=cfg.dim, n=cfg.n, length=cfg.period)
    except ValueError as exc:
        diags.append(f"grid: {exc}")
    else:
        if math.isfinite(cfg.smoothness):
            _check_frequencies(grid, cfg.smoothness + 2.0, diags)
    if cfg.partition_kind not in ("uniform", "geometric"):
        diags.append(f"partition.kind: must be uniform or geometric, "
                     f"got {cfg.partition_kind!r}")
    if cfg.steps < 2:
        diags.append(f"partition.steps: need >= 2, got {cfg.steps}")
    if not 0.0 < cfg.horizon < math.inf:
        diags.append(f"partition.horizon: must be positive and finite, "
                     f"got {cfg.horizon}")
    if cfg.ratio is not None and not 0.0 < cfg.ratio < 1.0:
        diags.append(f"partition.ratio: must lie in (0, 1), got {cfg.ratio}")
    if not any(d.startswith("partition.") for d in diags):
        try:
            _partition(cfg)
        except ValueError as exc:
            diags.append(f"partition: {exc}")
    try:
        parse_profile(cfg.profile_spec)
    except ValueError as exc:
        diags.append(f"profile.spec: {exc}")
    if not diags or "grid:" not in "".join(diags):
        try:
            parse_coefficients(cfg.coefficients_spec, cfg.dim)
        except ValueError as exc:
            diags.append(f"coefficients.spec: {exc}")
    grid_ok = not any(d.startswith("grid:") for d in diags)
    try:
        kind, nums = _initial(read_call(cfg.initial_spec, "initial"),
                              cfg.initial_spec)
        if kind == "rough" and grid_ok:
            _check_rough_scales(cfg, diags, "initial.spec")
        if kind == "mode" and len(nums) != cfg.dim:
            diags.append(f"initial.spec: mode(...) needs {cfg.dim} lattice "
                         f"indices for dim = {cfg.dim}, got {len(nums)}")
    except ValueError as exc:
        diags.append(f"initial.spec: {exc}")
    try:
        parsed = _forcing(cfg.forcing_spec)
        if parsed is not None and grid_ok and parsed[1].name == "rough":
            _check_rough_scales(cfg, diags, "forcing.spec")
    except ValueError as exc:
        diags.append(f"forcing.spec: {exc}")
    if not 1.0 < cfg.p < math.inf:
        diags.append(f"params.p: must lie in (1, inf), got {cfg.p}")
    if not math.isfinite(cfg.smoothness):
        diags.append(f"params.smoothness: must be finite, "
                     f"got {cfg.smoothness}")
    if not 0.0 <= cfg.gamma < math.inf:
        diags.append(f"params.gamma: must be finite and >= 0, got {cfg.gamma}")
    elif grid_ok:
        _check_gamma(grid, cfg.gamma, diags)
    if not cfg.eps_list:
        diags.append("params.eps_list: must list at least one eps, got []")
    elif not all(0.0 < e < math.inf for e in cfg.eps_list) or \
            any(b >= a for a, b in zip(cfg.eps_list, cfg.eps_list[1:])):
        diags.append(f"params.eps_list: must be positive, finite and "
                     f"decreasing, got {list(cfg.eps_list)}")
    if cfg.k_min < 1 or cfg.k_max < cfg.k_min:
        diags.append(f"params.k_min/k_max: need 1 <= k_min <= k_max, "
                     f"got {cfg.k_min}..{cfg.k_max}")
    if cfg.t0 is not None and not 0 <= cfg.t0 < math.inf:
        diags.append(f"params.t0: must be "
                     f"{'finite' if cfg.t0 >= 0 else '>= 0'}, got {cfg.t0}")
    if not 0.0 < cfg.t_lo < math.inf:
        diags.append(f"params.t_lo: must be finite and > 0, got {cfg.t_lo}")
    elif cfg.t_hi is not None and not cfg.t_lo < cfg.t_hi < math.inf:
        diags.append(f"params.t_hi: must be finite and > t_lo, got {cfg.t_hi}")
    if cfg.t_count < 1:
        diags.append(f"params.t_count: need >= 1, got {cfg.t_count}")
    if cfg.beta_hat is not None and not 0.0 < cfg.beta_hat < math.inf:
        diags.append(f"params.beta_hat: must be finite and > 0, "
                     f"got {cfg.beta_hat}")
    if cfg.h_points < 4:
        diags.append(f"params.h_points: need >= 4 for a fit, got {cfg.h_points}")
    if not 2.0 <= cfg.h_decades < math.inf:
        diags.append(f"params.h_decades: fit needs a finite >= 2 decades, "
                     f"got {cfg.h_decades}")
    if cfg.mc_samples < 1000:
        diags.append(f"params.mc_samples: need >= 1000, got {cfg.mc_samples}")
    if cfg.mc_probes < 1:
        diags.append(f"params.mc_probes: need >= 1, got {cfg.mc_probes}")
    return diags


def _check_frequencies(grid, s, diags):
    """The largest |xi|^4 (Hessian and H^2 weights) and Besov weight
    2^(2sj) of the grid must be floats; s = smoothness + 2 bounds every
    Besov order a check uses."""
    try:
        top = max((grid.dim * grid.nyquist ** 2) ** 2,
                  (2.0 ** (s * LPFamily.for_grid(grid).j_max)) ** 2)
    except OverflowError:
        top = math.inf
    if top == math.inf:
        diags.append(f"grid: frequencies up to {grid.nyquist:.3e} overflow "
                     f"|xi|^4 or the Besov weights 2^(2sj) at s = {s}; "
                     f"enlarge the period or lower n")


def _check_gamma(grid, gamma, diags):
    """kernel-decay weighs the lattice by |xi|^gamma, which must be a float
    at the largest |xi|, the lattice's corner; its block k <= j_max is then
    normalized by 2^(k gamma) < |xi|^gamma there, since 2^(j_max + 1) is
    at most the grid's Nyquist frequency."""
    corner = grid.dim * _freq_axes(grid)[0][grid.n // 2] ** 2
    with np.errstate(over="ignore"):
        if np.isfinite(corner ** (0.5 * gamma)):
            return
    diags.append(f"params.gamma: |xi|^gamma overflows at the grid's largest "
                 f"|xi| = {float(np.sqrt(corner)):.4g} for gamma = {gamma}; "
                 f"lower gamma or n, or enlarge the period")


def _check_rough_scales(cfg, diags, where):
    grid = GridSpec(dim=cfg.dim, n=cfg.n, length=cfg.period)
    j_max = LPFamily.for_grid(grid).j_max
    if j_max < 2:
        diags.append(f"{where}: rough(s) sums dyadic scales 1 <= j < j_max, "
                     f"but this grid only resolves scales up to "
                     f"j_max = {j_max}; refine n or shrink the period")


def _initial(call, text):
    """(kind, numbers) of an initial-data spec; ValueError if malformed."""
    name, nums = call
    if not all(isinstance(v, float) for v in nums):
        raise ValueError(f"initial spec arguments must be numbers: {text!r}")
    if name == "gaussian":
        if len(nums) != 1 or nums[0] <= 0:
            raise ValueError(f"gaussian(sigma) needs one positive width: {text!r}")
    elif name == "mode":
        if not nums:
            raise ValueError(f"mode(k, ...) needs lattice indices: {text!r}")
    elif name == "rough":
        if len(nums) not in (1, 2):
            raise ValueError(f"rough(s[, variant]) takes 1 or 2 args: {text!r}")
    else:
        raise ValueError(f"unknown initial data kind {name!r} in {text!r}")
    return name, nums


def _forcing(text):
    """None, or the compiled time factor and the checked spatial Call."""
    if text.strip() == "none":
        return None
    name, args = read_call(text, "forcing")
    if name != "separable" or len(args) != 2 or not isinstance(args[1], Call):
        raise ValueError(
            f'forcing spec must be none or separable("<expr in t>", '
            f'<spatial spec>): {text!r}')
    time_text, spatial = args
    if not isinstance(time_text, str):
        raise ValueError(f"separable time factor must be a string: {text!r}")
    coef = compile_expr(time_text)
    _initial(spatial, text)
    return coef, spatial


def rough_field(grid, s, p, seed, variant=0):
    """Sum over scales j of 2^(-s j) * sign_j * (unit-L_p band at scale j).

    Bands are random fields masked to the dyadic shell 2^(j-1) < |xi| <= 2^j
    and normalized to unit L_p; signs and phases are deterministic in
    (seed, variant, j).
    """
    fam = LPFamily.for_grid(grid)
    r = np.sqrt(_xi_sq(grid))
    total = np.zeros(grid.shape)
    for j in range(1, fam.j_max):
        mask = (r > 2.0 ** (j - 1)) & (r <= 2.0 ** j)
        if not mask.any():
            continue
        rng = np.random.default_rng([seed, variant, j])
        band = np.fft.ifftn(np.fft.fftn(rng.standard_normal(grid.shape))
                            * mask).real
        nrm = lp_norm(SpectralField(grid, band), p)
        if nrm == 0.0:
            continue
        sign = 1.0 if rng.random() < 0.5 else -1.0
        total += (2.0 ** (-s * j) * sign / nrm) * band
    return SpectralField(grid, total)


def build_initial(spec_text, grid, p, seed):
    return _initial_field(read_call(spec_text, "initial"), spec_text, grid, p,
                          seed)


def _initial_field(call, text, grid, p, seed):
    name, nums = _initial(call, text)
    if name == "mode" and len(nums) != grid.dim:
        raise ValueError(f"mode(...) needs {grid.dim} indices for this grid")
    with np.errstate(all="ignore"):
        if name == "gaussian":
            field = gaussian_bump(grid, width=nums[0])
        elif name == "mode":
            field = mode_field(grid, nums)
        else:
            variant = int(nums[1]) if len(nums) > 1 else 0
            try:
                field = rough_field(grid, nums[0], p, seed, variant)
            except OverflowError:  # a scale weight 2^(-s j) beyond floats
                raise NonFiniteDataError(f"{text}: field is NaN or inf") from None
    if not np.all(np.isfinite(field.samples)):
        raise NonFiniteDataError(f"{text}: field is NaN or inf")
    return field


def build_forcing(spec_text, grid, p, seed):
    """None, or the SeparableForcing of a separable("c(t)", S) spec."""
    parsed = _forcing(spec_text)
    if parsed is None:
        return None
    coef, spatial = parsed
    return SeparableForcing(
        coef, _initial_field(spatial, spec_text, grid, p, seed), spec_text)


def _partition(cfg):
    if cfg.partition_kind == "uniform":
        return TimePartition.uniform(cfg.steps, cfg.horizon)
    return TimePartition.geometric(cfg.steps, cfg.horizon, cfg.ratio)


def _build_all(cfg):
    grid = GridSpec(dim=cfg.dim, n=cfg.n, length=cfg.period)
    partition = _partition(cfg)
    profile = parse_profile(cfg.profile_spec)
    path = parse_coefficients(cfg.coefficients_spec, cfg.dim)
    u0 = build_initial(cfg.initial_spec, grid, cfg.p, cfg.seed)
    f = build_forcing(cfg.forcing_spec, grid, cfg.p, cfg.seed)
    return grid, partition, profile, path, u0, f


def _summary(outdir, command, lines):
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write(f"command: {command}\n")
        fh.write(f"finished: {stamp}\n")
        for line in lines:
            fh.write(line + "\n")


def _report_lines(rep):
    lines = [f"lhs = {float(rep.lhs)!r}"]
    for name, value in rep.rhs_components:
        lines.append(f"rhs[{name}] = {float(value)!r}")
    lines.append(f"observed constant N_hat = lhs / rhs = {float(rep.ratio)!r}")
    if rep.flags:
        lines.append(f"flags: {';'.join(rep.flags)}")
    return lines


def run_solve(cfg, outdir):
    grid, partition, profile, path, u0, f = _build_all(cfg)
    snapshots = solve_duhamel(u0, f, path, partition)
    residuals = save_report(snapshots, f, path, partition,
                            os.path.join(outdir, "report"), p=cfg.p)
    final = snapshots[-1]
    _summary(outdir, "solve", [
        f"grid: dim={cfg.dim} n={cfg.n} period={cfg.period}",
        f"partition: {cfg.partition_kind} steps={cfg.steps} "
        f"horizon={cfg.horizon}",
        f"coefficients: {path.spec}",
        f"final L_{cfg.p} norm = {lp_norm(final, cfg.p)!r}",
        f"max weak residual = {float(np.max(residuals))!r}",
    ])
    return 0


def run_check_thm1(cfg, outdir):
    grid, partition, profile, path, u0, f = _build_all(cfg)
    rep = check_thm1(u0, f, path, profile, cfg.smoothness, cfg.p, partition)
    reports_to_csv([rep], os.path.join(outdir, "thm1.csv"))
    _summary(outdir, "check-thm1", [
        f"inequality: {THM1_TEXT}",
        f"constants depend on: dim={cfg.dim}, p={cfg.p}; "
        f"independent of horizon and coefficient bound",
        f"profile: {profile.spec}",
        f"n (smoothness) = {cfg.smoothness}, p = {cfg.p}, "
        f"T = {partition.horizon}",
    ] + _report_lines(rep))
    return 0 if rep.admissible else 2


def run_check_thm2(cfg, outdir):
    grid, partition, profile, path, u0, f = _build_all(cfg)
    t0 = cfg.t0 if cfg.t0 is not None else partition.horizon
    h_grid = _level_grid(cumulative_delta(profile, t0), cfg.h_points,
                         cfg.h_decades)
    rep = check_thm2(u0, path, profile, cfg.p, partition, t0, h_grid,
                     beta_hat=cfg.beta_hat)
    reports_to_csv([rep], os.path.join(outdir, "thm2.csv"))
    ex = rep.extra
    _summary(outdir, "check-thm2", [
        f"inequality: {THM2_TEXT}",
        f"constants depend on: dim={ex['dim']}, p={cfg.p}, T={ex['horizon']}, "
        f"N0_hat={float(ex['n0_hat'])!r}, Nbar0={float(ex['nbar0'])!r}, "
        f"beta_hat={float(ex['beta_hat'])!r}, "
        f"kappa0=int_delta={float(ex['kappa0'])!r}",
        f"profile: {profile.spec}",
        f"Besov order 2(1-1/(beta*p)) = "
        f"{float(ex.get('besov_order', math.nan))!r}",
    ] + _report_lines(rep))
    return 0 if rep.admissible else 2


def run_check_classic(cfg, outdir):
    grid, partition, profile, path, u0, f = _build_all(cfg)
    rep = check_classic(u0, f, path, partition, cfg.p)
    reports_to_csv([rep], os.path.join(outdir, "classic.csv"))
    _summary(outdir, "check-classic", [
        f"inequality: {CLASSIC_TEXT}",
        f"p = {cfg.p}, T = {partition.horizon}",
    ] + _report_lines(rep))
    return 0 if rep.admissible else 2


def run_kernel_decay(cfg, outdir):
    grid, partition, profile, path, u0, f = _build_all(cfg)
    family = LPFamily.for_grid(grid)
    if cfg.k_min < family.j_min or cfg.k_max > family.j_max:
        key = "k_min" if cfg.k_min < family.j_min else "k_max"
        print(f"config error: params.{key}: blocks {cfg.k_min}..{cfg.k_max} lie "
              f"outside the grid's dyadic scales j_min = {family.j_min} to "
              f"j_max = {family.j_max}; change n or the period", file=sys.stderr)
        return 3
    t_hi = cfg.t_hi if cfg.t_hi is not None else cfg.horizon / 2.0
    ts = np.logspace(math.log10(cfg.t_lo), math.log10(t_hi), cfg.t_count)
    ks = range(cfg.k_min, cfg.k_max + 1)
    fit = check_kernel_decay(path, profile, cfg.gamma, ks, ts, grid)
    with open(os.path.join(outdir, "kernel_decay.csv"), "w") as fh:
        fh.write("k,t,beta,mass_ratio\n")
        for k, t, beta, ratio in fit.samples:
            fh.write(f"{k},{float(t)!r},{float(beta)!r},{float(ratio)!r}\n")
    _summary(outdir, "kernel-decay", [
        f"inequality: {KERNEL_TEXT}",
        f"gamma = {cfg.gamma}, blocks k = {cfg.k_min}..{cfg.k_max}, "
        f"{cfg.t_count} times in [{cfg.t_lo}, {t_hi}]",
        f"fitted decay rate c = {fit.c!r}",
        f"fitted constant N = {fit.n_const!r}",
        f"violations: {len(fit.violations)}",
    ])
    return 0 if not fit.violations else 2


def run_profile_check(cfg, outdir):
    grid, partition, profile, path, u0, f = _build_all(cfg)
    t0 = cfg.t0 if cfg.t0 is not None else cfg.horizon
    kappa0 = cumulative_delta(profile, t0)
    failures = []
    lines = [f"profile: {profile.spec}",
             f"t0 = {t0}, beta(t0) = {float(kappa0)!r}"]

    h_grid = _level_grid(kappa0, cfg.h_points, cfg.h_decades)
    fit, measures, scans = None, [], []
    if h_grid.size == 0:
        failures.append("beta(t0) vanishes; level-set fit impossible")
    else:
        try:
            fit = fit_beta_exponent(profile, t0, h_grid)
        except ValueError as exc:
            failures.append(f"level-set fit impossible: {exc}")
    if fit is not None:
        measures = fit.measures
        scans = levelset_measure_scan(profile, h_grid, t0)
        lines.append(f"beta_hat = {float(fit.beta_hat)!r}, "
                     f"N0_hat = {float(fit.n0_hat)!r}, "
                     f"fit residual = {float(fit.residual)!r}")
        width = t0 / _SCAN_POINTS
        for h, m, sc in zip(h_grid, measures, scans):
            if abs(m - sc) > 2.0 * width + 1e-12:
                failures.append(
                    f"level-set measure at h={float(h)!r} disagrees with scan: "
                    f"{m!r} vs {sc!r}")

    sample_times = np.linspace(0.0, cfg.horizon, 1025)
    nbar0 = check_domination(path, profile, sample_times)
    lines.append(f"domination constant Nbar0 = {float(nbar0)!r}")
    if math.isinf(nbar0):
        failures.append("coefficients are not dominated by the floor "
                        "(nonzero a where delta = 0)")

    deltas = np.asarray(profile.delta(sample_times[1:]), dtype=float)
    if np.any(deltas < 0):
        failures.append("delta takes negative values on samples")
    if profile.bound_M is not None and np.any(deltas > profile.bound_M + 1e-12):
        failures.append(f"delta exceeds its declared bound {profile.bound_M}")
    lines.append(f"sup delta on (0, T] ~= {empirical_bound(profile, cfg.horizon)!r}")

    if fit is not None:
        expected = None
        name, args = read_call(cfg.profile_spec, "profile")
        if name == "power":
            expected, tol = args[0] + 1.0, 0.02
        elif name == "constant":
            expected, tol = 1.0, 0.02
        elif name == "oscillatory":
            expected, tol = 1.0, 0.10
        if expected is not None:
            rel = abs(fit.beta_hat - expected) / expected
            lines.append(f"expected beta = {expected}, "
                         f"relative gap = {float(rel)!r}")
            if rel > tol:
                failures.append(
                    f"fitted beta_hat {float(fit.beta_hat)!r} is {rel:.2%} "
                    f"from the expected {expected} (tolerance {tol:.0%})")
        if name == "oscillatory":
            ts = np.linspace(1e-6, cfg.horizon, 1000)
            betas = cumulative_delta(profile, ts)
            ok = np.all((betas >= ts / 4.0 - 1e-12) & (betas <= 2.0 * ts + 1e-12))
            lines.append(f"bracket t/4 <= beta(t) <= 2t on 1000 samples: "
                         f"{'holds' if ok else 'FAILS'}")
            if not ok:
                failures.append("oscillatory cumulative leaves [t/4, 2t]")

    with open(os.path.join(outdir, "profile_check.csv"), "w") as fh:
        fh.write("h,measure,scan_measure\n")
        for h, m, sc in zip(h_grid, measures, scans):
            fh.write(f"{float(h)!r},{float(m)!r},{float(sc)!r}\n")
    for fail in failures:
        lines.append(f"FAIL: {fail}")
    lines.append(f"result: {'pass' if not failures else 'fail'}")
    _summary(outdir, "profile-check", lines)
    return 0 if not failures else 2


def run_eps_sweep(cfg, outdir):
    grid, partition, profile, path, u0, f = _build_all(cfg)
    reports = epsilon_sweep(u0, f, path, profile, cfg.eps_list, cfg.p,
                            partition, smoothness=cfg.smoothness)
    reports_to_csv(reports, os.path.join(outdir, "eps_sweep.csv"))
    ratios = [r.ratio for r in reports if r.admissible]
    lines = [f"inequality: {THM1_TEXT}",
             f"regularizations a + eps*I, delta + eps for eps in "
             f"{list(cfg.eps_list)}"]
    for rep in reports:
        lines.append(f"eps = {rep.extra['eps']!r}: ratio = {float(rep.ratio)!r}"
                     + (f" flags={';'.join(rep.flags)}" if rep.flags else ""))
    if ratios:
        lines.append(f"max ratio = {float(max(ratios))!r}")
    _summary(outdir, "eps-sweep", lines)
    return 0 if all(r.admissible for r in reports) else 2


def run_oracle_compare(cfg, outdir):
    grid, partition, profile, path, u0, f = _build_all(cfg)
    failures = []
    lines = []

    def fd_gap(scale):
        g = GridSpec(dim=cfg.dim, n=cfg.n * scale, length=cfg.period)
        part = TimePartition.uniform(cfg.steps * scale, cfg.horizon)
        u0s = build_initial(cfg.initial_spec, g, cfg.p, cfg.seed)
        fs = build_forcing(cfg.forcing_spec, g, cfg.p, cfg.seed)
        spectral = solve_final(u0s, fs, path, part)
        for difference in _fd_steps(u0s, fs, path, part.nodes):
            pass  # only the final field, one inverse transform
        return compare_fields(spectral, difference, 2.0)

    errors = [fd_gap(1), fd_gap(2)]
    order = float(convergence_orders(errors)[0])
    lines.append(f"fd vs spectral relative L2 gaps: {float(errors[0])!r} "
                 f"(base), {float(errors[1])!r} (doubled)")
    lines.append(f"observed fd convergence order = {order!r} (need >= 1.9)")
    if order < 1.9:
        failures.append(f"fd order {order!r} below 1.9")

    final = solve_final(u0, f, path, partition)
    probes = np.linspace(-cfg.period / 4.0, cfg.period / 4.0, cfg.mc_probes)
    pts = np.stack([probes] + [np.zeros_like(probes)] * (cfg.dim - 1), axis=1)
    est = mc_solve(u0, f, path, partition, pts, cfg.mc_samples, cfg.seed)
    est.to_csv(os.path.join(outdir, "mc_compare.csv"))
    exact = _periodic_interp(_spline_coeffs(final), grid, pts)
    gaps = np.abs(est.mean - exact)
    limit = 3.0 * np.maximum(est.stderr, 1e-30)
    lines.append(f"mc vs spectral at {cfg.mc_probes} probes, "
                 f"{cfg.mc_samples} samples: max |gap|/stderr = "
                 f"{float(np.max(gaps / np.maximum(est.stderr, 1e-30)))!r}")
    if np.any(gaps > limit):
        failures.append("mc estimate outside 3 standard errors of spectral")

    freqs = np.stack([np.linspace(0.2, 2.0, 10)]
                     + [np.zeros(10)] * (cfg.dim - 1), axis=1)
    rows = char_function_check(path, cfg.horizon, freqs,
                               max(cfg.mc_samples, 10000), cfg.seed)
    worst = 0.0
    for xi, re, im, exact_cf, se_re, se_im in rows:
        worst = max(worst, abs(re - exact_cf) / max(se_re, 1e-30))
    lines.append(f"characteristic function identity exp(-xi^T B xi): "
                 f"max |gap|/stderr = {worst!r} over {len(rows)} frequencies")
    if worst > 4.0:
        failures.append("characteristic function outside 4 standard errors")

    for fail in failures:
        lines.append(f"FAIL: {fail}")
    lines.append(f"result: {'pass' if not failures else 'fail'}")
    _summary(outdir, "oracle-compare", lines)
    return 0 if not failures else 2


RUNNERS = {
    "solve": run_solve,
    "check-thm1": run_check_thm1,
    "check-thm2": run_check_thm2,
    "check-classic": run_check_classic,
    "kernel-decay": run_kernel_decay,
    "profile-check": run_profile_check,
    "eps-sweep": run_eps_sweep,
    "oracle-compare": run_oracle_compare,
}


def run(subcommand, config, out=None, seed=None):
    """Load a config, validate it, dispatch one subcommand, return the
    exit code (0 pass, 2 check failed / inadmissible, 3 bad config, its
    coefficients' quadrature out of budget or NaN/inf data, 1 internal
    error).
    `config` is a path to an INI file."""
    if subcommand not in RUNNERS:
        raise ValueError(f"unknown subcommand {subcommand!r}; "
                         f"choose from {sorted(RUNNERS)}")
    try:
        with open(config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        for diag in exc.diagnostics:
            print(f"config error: {diag}", file=sys.stderr)
        return 3
    diags = validate_config(cfg)
    if diags:
        for diag in diags:
            print(f"config error: {diag}", file=sys.stderr)
        return 3
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    outdir = out if out is not None else cfg.out
    os.makedirs(outdir, exist_ok=True)
    try:
        return RUNNERS[subcommand](cfg, outdir)
    except QuadratureError as exc:
        print(f"quadrature error: {exc.spec}: "
              f"achieved error estimate {exc.error_estimate:.3e}, "
              f"target {exc.target:.3e}", file=sys.stderr)
        return 3
    except NonFiniteDataError as exc:
        print(f"non-finite data: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="degparab",
        description="Solve u_t = a^ij(t) u_xixj + f with possibly degenerate "
                    "coefficients and check the associated norm estimates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to an INI config")
        p.add_argument("--out", default=None, help="output directory "
                       "(default: the config's run.out)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    args = parser.parse_args(argv)
    return run(args.command, args.config, out=args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
