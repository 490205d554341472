"""Weighted norms and the inequality checkers built on them."""

import math

import numpy as np
import pytest

from degparab import (CSV_HEADER, GridSpec, SpectralField, TimePartition,
                      besov_norm, bessel_norm, check_classic,
                      check_kernel_decay, check_thm1, check_thm2, cli,
                      constant_profile, cumulative_delta, epsilon_sweep,
                      expr_matrix_path, expr_profile, gaussian_bump,
                      hessian_lp_norm, lp_block, lp_norm, mode_field,
                      oscillatory_profile, parse_profile, power_profile,
                      reports_to_csv, scalar_path, solve_duhamel,
                      weighted_norm)
from degparab.spectral import _xi_sq

GRID = GridSpec(dim=1, n=512, length=32.0)
HEAT = scalar_path(constant_profile(1.0), 1)


def constant_report(u0, profile, K=8, T=1.0):
    # solution frozen in time: propagate with zero coefficients
    path = scalar_path(constant_profile(0.0), 1)
    part = TimePartition.uniform(K, T)
    return part.nodes, solve_duhamel(u0, None, path, part)


def lp_norms(snapshots, p=2.0):
    return (lp_norm(u, p) for u in snapshots)


def test_weighted_norm_unit_profile_constant_solution():
    u0 = gaussian_bump(GRID, width=2.0)
    nodes, snaps = constant_report(u0, constant_profile(1.0), T=2.0)
    expected = 2.0 ** 0.5 * lp_norm(u0, 2.0)
    got = weighted_norm(nodes, lp_norms(snaps),
                        constant_profile(1.0), 2.0, 0.0)
    assert abs(got - expected) < 1e-10 * expected


def test_weighted_norm_linear_weight_closed_form():
    # delta = t, m = 1: (int_0^T t dt)^(1/p) ||u0||; trapezoid exact for t
    u0 = gaussian_bump(GRID, width=2.0)
    nodes, snaps = constant_report(u0, power_profile(1.0), T=1.0)
    expected = math.sqrt(0.5) * lp_norm(u0, 2.0)
    got = weighted_norm(nodes, lp_norms(snaps),
                        power_profile(1.0), 2.0, 1.0)
    assert abs(got - expected) < 1e-10 * expected


def test_weighted_norm_smoothness_uses_bessel():
    u0 = mode_field(GridSpec(dim=1, n=256, length=8.0 * math.pi), (4,))
    nodes, snaps = constant_report(u0, constant_profile(1.0), T=1.0)
    expected = bessel_norm(u0, 2.0, 2.0)  # T = 1 so the time factor is 1
    got = weighted_norm(nodes,
                        (bessel_norm(u, 2.0, 2.0) for u in snaps),
                        constant_profile(1.0), 2.0, 0.0)
    assert abs(got - expected) < 1e-10 * expected


def test_weighted_norm_zero_floor_positive_power_vanishes():
    u0 = gaussian_bump(GRID, width=2.0)
    nodes, snaps = constant_report(u0, constant_profile(0.0))
    assert weighted_norm(nodes, lp_norms(snaps),
                         constant_profile(0.0), 2.0, 1.0) == 0.0


def test_weighted_norm_zero_floor_negative_power_is_infinite():
    u0 = gaussian_bump(GRID, width=2.0)
    nodes, snaps = constant_report(u0, constant_profile(0.0))
    assert math.isinf(weighted_norm(nodes, lp_norms(snaps),
                                    constant_profile(0.0), 2.0, -1.0))


def test_weighted_norm_monotone_in_weight_power():
    # delta <= 1 profiles: larger m means smaller weight
    u0 = gaussian_bump(GRID, width=2.0)
    prof = parse_profile('expr("0.5 + 0.25 * t")')
    nodes, snaps = constant_report(u0, prof)
    vals = [weighted_norm(nodes, lp_norms(snaps), prof,
                          2.0, m) for m in (0.0, 1.0, 2.0)]
    assert vals[0] >= vals[1] >= vals[2]


def test_weighted_norm_rejects_p_outside_one_to_inf():
    with pytest.raises(ValueError):
        weighted_norm(np.array([0.0, 1.0]), [1.0, 1.0],
                      constant_profile(1.0), 1.0, 0.0)


@pytest.mark.parametrize("norm, delta, m", [
    (1e200, 1.0, 1.0),    # ||u||^p beyond the float range
    (1.0, 1e-300, -2.0),  # delta^m beyond the float range
])
def test_weighted_norm_is_infinite_when_a_power_overflows(norm, delta, m):
    assert weighted_norm(np.array([0.0, 1.0]), [norm, norm],
                         constant_profile(delta), 2.0, m) == math.inf


def test_weighted_norm_reads_no_floor_at_weight_power_zero():
    assert weighted_norm(np.array([0.0, 2.0]), [3.0, 3.0], None, 2.0,
                         0.0) == math.sqrt(18.0)


def test_thm1_zero_equation_zero_lhs():
    u0 = gaussian_bump(GRID, width=2.0)
    prof = constant_profile(0.0)
    path = scalar_path(prof, 1)
    rep = check_thm1(u0, None, path, prof, 0.0, 2.0,
                     TimePartition.uniform(8, 1.0))
    assert rep.lhs == 0.0
    assert rep.ratio == 0.0


def test_thm1_flags_forcing_outside_weighted_space():
    # A = 0 with f(0) != 0: the delta^(1-p) weight diverges
    u0 = gaussian_bump(GRID, width=2.0)
    shape = gaussian_bump(GRID, width=1.5)
    f = lambda t: SpectralField(GRID, (1.0 + t) * shape.samples)
    prof = constant_profile(0.0)
    path = scalar_path(prof, 1)
    rep = check_thm1(u0, f, path, prof, 0.0, 2.0,
                     TimePartition.uniform(8, 1.0))
    assert not rep.admissible
    assert any("weight" in flag for flag in rep.flags)
    assert rep.lhs == 0.0


def test_thm1_heat_ratio_stable_under_grid_refinement():
    ratios = []
    for n in (512, 1024):
        grid = GridSpec(dim=1, n=n, length=32.0)
        u0 = gaussian_bump(grid, width=2.0)
        shape = gaussian_bump(grid, width=1.5)
        f = lambda t: SpectralField(grid, t * shape.samples)
        prof = constant_profile(1.0)
        rep = check_thm1(u0, f, scalar_path(prof, 1), prof, 0.0, 2.0,
                         TimePartition.uniform(64, 1.0))
        assert rep.admissible
        ratios.append(rep.ratio)
    assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.10


def test_thm1_scale_invariance():
    u0 = gaussian_bump(GRID, width=2.0)
    shape = gaussian_bump(GRID, width=1.5)
    prof = power_profile(1.0)
    path = scalar_path(prof, 1)
    part = TimePartition.geometric(32, 1.0)
    lam = 37.5
    r1 = check_thm1(u0, lambda t: SpectralField(GRID, t * shape.samples),
                    path, prof, 0.0, 2.0, part)
    r2 = check_thm1(lam * u0,
                    lambda t: SpectralField(GRID, lam * t * shape.samples),
                    path, prof, 0.0, 2.0, part)
    assert abs(r2.ratio - r1.ratio) < 1e-10 * r1.ratio



def test_thm1_lhs_is_the_closed_form_at_p2():
    # a = delta I, f = None, smoothness 0: each mode decays as
    # exp(-|xi|^2 beta(t)), so int_0^T |xi|^4 |u_hat|^2 delta dt has the
    # closed form |xi|^4 |u0_hat|^2 (1 - exp(-2 |xi|^2 beta(T))) / (2 |xi|^2)
    # for every partition; by Parseval the L_2 norm squared is
    # cell_volume / N times the sum over the lattice.  The lhs^2 of
    # check_thm1 is a trapezoid in time, O(K^-2) off on a uniform partition:
    # quadrupling K divides the error by 16
    grid = GridSpec(dim=1, n=2048, length=32.0)
    u0 = gaussian_bump(grid, width=2.0)
    prof = power_profile(1.0)
    xi_sq, beta = _xi_sq(grid), cumulative_delta(prof, 1.0)
    modes = 0.5 * xi_sq * -np.expm1(-2.0 * xi_sq * beta) * np.abs(
        u0.spectrum) ** 2
    exact = float(np.sum(modes)) * grid.cell_volume / grid.n ** grid.dim
    rel = {}
    for K in (128, 512):
        rep = check_thm1(u0, None, scalar_path(prof, 1), prof, 0.0, 2.0,
                         TimePartition.uniform(K, 1.0))
        rel[K] = rep.lhs ** 2 / exact - 1.0
    assert abs(rel[512]) <= 2e-6
    assert 12.0 <= rel[128] / rel[512] <= 20.0

def test_thm2_heat_benchmark():
    u0 = gaussian_bump(GRID, width=2.0)
    prof = constant_profile(1.0)
    rep = check_thm2(u0, scalar_path(prof, 1), prof, 2.0,
                     TimePartition.uniform(32, 1.0))
    assert rep.admissible
    assert abs(rep.extra["beta_hat"] - 1.0) < 0.02
    assert 0.0 < rep.ratio < 10.0
    # constant echo: d, p, T, N0, Nbar0, beta, kappa0 all reported
    for key in ("dim", "horizon", "n0_hat", "nbar0", "beta_hat", "kappa0"):
        assert key in rep.extra


def test_thm2_inadmissible_domination():
    # coefficients do not vanish where the floor does
    u0 = gaussian_bump(GRID, width=2.0)
    prof = constant_profile(0.0)
    path = scalar_path(constant_profile(1.0), 1)
    rep = check_thm2(u0, path, prof, 2.0, TimePartition.uniform(8, 1.0))
    assert not rep.admissible
    assert any("domination" in flag for flag in rep.flags)
    assert math.isnan(rep.lhs)


def test_thm2_beta_hat_override():
    u0 = gaussian_bump(GRID, width=2.0)
    prof = power_profile(1.0)
    rep = check_thm2(u0, scalar_path(prof, 1), prof, 2.0,
                     TimePartition.geometric(32, 1.0), beta_hat=2.0)
    assert rep.extra["beta_hat"] == 2.0
    assert abs(rep.extra["besov_order"] - 1.5) < 1e-12


def test_thm2_power_profile_ratio_stable():
    ratios = []
    for n in (512, 1024):
        grid = GridSpec(dim=1, n=n, length=32.0)
        u0 = gaussian_bump(grid, width=2.0)
        prof = power_profile(1.0)
        rep = check_thm2(u0, scalar_path(prof, 1), prof, 2.0,
                         TimePartition.geometric(48, 1.0))
        assert rep.admissible
        ratios.append(rep.ratio)
    assert abs(ratios[1] - ratios[0]) / ratios[0] < 0.15


def test_classic_constant_solution_ratio_one():
    u0 = gaussian_bump(GRID, width=2.0)
    rep = check_classic(u0, None, scalar_path(constant_profile(0.0), 1),
                        TimePartition.uniform(8, 1.0), 2.0)
    assert abs(rep.ratio - 1.0) < 1e-12


def test_classic_heat_contraction():
    u0 = gaussian_bump(GRID, width=2.0)
    rep = check_classic(u0, None, HEAT, TimePartition.uniform(16, 1.0), 2.0)
    assert rep.ratio <= 1.0 + 1e-12


def test_classic_forced_growth_exact():
    # A = 0, u0 = 0, f = g: u(t) = t g, so lhs = T ||g|| and
    # rhs = (int_0^T ||g||^p)^{1/p} = T^{1/p} ||g||: ratio = T^{1-1/p}
    T, p = 2.0, 3.0
    g = gaussian_bump(GRID, width=1.5)
    u0 = SpectralField(GRID, np.zeros(GRID.shape))
    f = lambda t: g
    path = scalar_path(constant_profile(0.0), 1)
    rep = check_classic(u0, f, path, TimePartition.uniform(16, T), p)
    assert abs(rep.ratio - T ** (1.0 - 1.0 / p)) < 1e-10


def test_kernel_decay_heat_constant_near_quarter():
    grid = GridSpec(dim=1, n=1024, length=16.0)
    prof = constant_profile(1.0)
    ts = np.logspace(-3, math.log10(0.5), 8)
    fit = check_kernel_decay(scalar_path(prof, 1), prof, 0.0,
                             range(1, 7), ts, grid)
    assert not fit.violations
    assert 0.025 < fit.c < 2.5  # order of magnitude around 1/4
    assert math.isfinite(fit.n_const) and fit.n_const > 0
    # post hoc certificate: every sample obeys the fitted bound
    for k, t, beta, ratio in fit.samples:
        assert ratio <= fit.n_const * math.exp(-fit.c * beta * 4.0 ** k) \
            * (1.0 + 1e-9) + 1e-300


def test_kernel_decay_small_time_block_mass_finite():
    # t -> 0: the block of the kernel tends to the block of the Dirac mass,
    # whose L1 norm is the L1 norm of the block filter itself
    grid = GridSpec(dim=1, n=1024, length=16.0)
    prof = constant_profile(1.0)
    path = scalar_path(prof, 1)
    fit = check_kernel_decay(path, prof, 0.0, [3], [1e-8], grid)
    from degparab.spectral import LPFamily, _block_multiplier
    fam = LPFamily.for_grid(grid)
    filt = np.fft.ifftn(np.asarray(_block_multiplier(fam, grid, 3),
                                   dtype=complex)).real / grid.cell_volume
    filter_l1 = float(np.sum(np.abs(filt)) * grid.cell_volume)
    _, _, _, ratio = fit.samples[0]
    assert abs(ratio - filter_l1) < 0.01 * filter_l1


def test_kernel_decay_gamma_scaling():
    grid = GridSpec(dim=1, n=1024, length=16.0)
    prof = power_profile(1.0)
    ts = np.logspace(-2, math.log10(0.5), 6)
    fit = check_kernel_decay(scalar_path(prof, 1), prof, 1.0,
                             range(1, 7), ts, grid)
    assert not fit.violations
    assert fit.c > 0


def test_kernel_decay_rejects_out_of_range_blocks():
    grid = GridSpec(dim=1, n=256, length=16.0)
    prof = constant_profile(1.0)
    with pytest.raises(ValueError):
        check_kernel_decay(scalar_path(prof, 1), prof, 0.0, [40], [0.1], grid)


def test_eps_sweep_elliptic_insensitive():
    u0 = gaussian_bump(GRID, width=2.0)
    shape = gaussian_bump(GRID, width=1.5)
    f = lambda t: SpectralField(GRID, t * shape.samples)
    prof = constant_profile(1.0)
    reps = epsilon_sweep(u0, f, HEAT, prof, [1e-1, 1e-2, 1e-3], 2.0,
                         TimePartition.uniform(32, 1.0))
    ratios = [r.ratio for r in reps]
    assert max(ratios) / min(ratios) < 1.2


def test_eps_sweep_degenerate_within_factor_two():
    u0 = gaussian_bump(GRID, width=2.0)
    shape = gaussian_bump(GRID, width=1.5)
    f = lambda t: SpectralField(GRID, t * shape.samples)
    prof = power_profile(1.0)
    reps = epsilon_sweep(u0, f, scalar_path(prof, 1), prof,
                         [1e-1, 1e-2, 1e-3, 1e-4], 2.0,
                         TimePartition.geometric(64, 1.0))
    ratios = [r.ratio for r in reps]
    assert all(r.admissible for r in reps)
    assert max(ratios) <= 2.0 * ratios[0]
    assert min(ratios) >= ratios[0] / 2.0
    for rep, eps in zip(reps, (1e-1, 1e-2, 1e-3, 1e-4)):
        assert rep.extra["eps"] == eps


def test_eps_sweep_single_mode_closed_form():
    # A = 0, f = 0, u0 one mode: regularized solve is the eps-heat decay
    # of that mode, so the weighted norm has an elementary closed form
    grid = GridSpec(dim=1, n=256, length=8.0 * math.pi)
    u0 = mode_field(grid, (8,))  # xi = 2
    prof = constant_profile(0.0)
    path = scalar_path(prof, 1)
    T, p, xi2 = 1.0, 2.0, 4.0
    reps = epsilon_sweep(u0, None, path, prof, [1e-1, 1e-2], p,
                         TimePartition.uniform(512, T))
    base = lp_norm(u0, p)
    for rep, eps in zip(reps, (1e-1, 1e-2)):
        decay = 1.0 - math.exp(-p * eps * xi2 * T)
        expected = xi2 * base * (decay / (p * xi2)) ** (1.0 / p)
        assert abs(rep.lhs - expected) < 1e-4 * expected


@pytest.mark.parametrize("dim", [1, 2])
def test_p2_checks_make_no_inverse_transform(dim, monkeypatch):
    # at p = 2 every norm comes from the spectrum and no sample is read
    grid = GridSpec(dim=dim, n=32, length=16.0)
    u0 = gaussian_bump(grid, width=2.0)
    shape = gaussian_bump(grid, width=1.5)
    f = lambda t: SpectralField(grid, t * shape.samples)
    prof = expr_profile("0.5*t")
    path = (scalar_path(prof, 1) if dim == 1 else
            expr_matrix_path([["t", "0.5*t"], ["0.5*t", "t"]]))
    partition = TimePartition.geometric(8, 1.0)
    calls = []
    ifftn = np.fft.ifftn

    def spy(*args, **kwargs):
        calls.append(1)
        return ifftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", spy)
    check_thm1(u0, f, path, prof, 1.0, 2.0, partition)
    epsilon_sweep(u0, f, path, prof, [1e-1, 1e-2], 2.0, partition,
                  smoothness=1.0)
    assert calls == []


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_streamed_checks_agree_with_the_solve_reports(dim, p):
    # the checks read their snapshots from the O(K) recurrence; the same
    # reports computed from solve_duhamel's per-node snapshots agree within
    # 1e-12 relative, and the right-hand sides, which read no snapshot,
    # bit for bit
    grid = GridSpec(dim=dim, n=64 if dim == 1 else 32, length=16.0)
    u0 = gaussian_bump(grid, width=2.0)
    shape = gaussian_bump(grid, width=1.5)
    f = lambda t: SpectralField(grid, t * shape.samples)
    prof = expr_profile("0.5*t")
    path = (scalar_path(prof, 1) if dim == 1 else
            expr_matrix_path([["t", "0.5*t"], ["0.5*t", "t"]]))
    part = TimePartition.geometric(16, 1.0)
    nodes = part.nodes

    def agrees(rep, lhs, components):
        assert rep.admissible
        assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=0.0)
        assert rep.rhs_components == components
        rhs = sum(value for _, value in rep.rhs_components)
        assert rep.ratio == pytest.approx(lhs / rhs, rel=1e-12, abs=0.0)

    snaps = solve_duhamel(u0, f, path, part)
    agrees(check_thm1(u0, f, path, prof, 1.0, p, part),
           weighted_norm(nodes, [hessian_lp_norm(u, p, 1.0) for u in snaps],
                         prof, p, 1.0),
           (("forcing", weighted_norm(
               nodes, [bessel_norm(f(t), 1.0, p) for t in nodes], prof, p,
               1.0 - p)),
            ("initial", besov_norm(u0, 3.0 - 2.0 / p, p))))
    agrees(check_classic(u0, f, path, part, p),
           max(lp_norm(u, p) for u in snaps),
           (("forcing", weighted_norm(
               nodes, [lp_norm(f(t), p) for t in nodes], None, p, 0.0)),
            ("initial", lp_norm(u0, p))))
    dominated = scalar_path(prof, dim)
    rep = check_thm2(u0, dominated, prof, p, part)
    snaps = solve_duhamel(u0, None, dominated, part)
    agrees(rep, weighted_norm(nodes, [hessian_lp_norm(u, p) for u in snaps],
                              prof, p, 0.0),
           (("initial", besov_norm(u0, rep.extra["besov_order"], p)),))


MATRIX_2D = """
[grid]
dim = 2
n = 128
period = 16.0

[partition]
kind = geometric
steps = 32
horizon = 1.0

[profile]
spec = expr("0.5*t")

[coefficients]
spec = matrix([["t", "0.5*t"], ["0.5*t", "t"]])

[initial]
spec = gaussian(2.0)

[forcing]
spec = separable("t", gaussian(1.5))
"""


def test_check_thm1_transforms_each_forcing_field_once(monkeypatch):
    cfg = cli.parse_config(MATRIX_2D)
    assert len(cfg.eps_list) == 4
    fftn = np.fft.fftn
    for sweep in (False, True):
        _, partition, profile, path, u0, f = cli._build_all(cfg)
        calls = []

        def spy(*args, **kwargs):
            calls.append(1)
            return fftn(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fftn", spy)
        if sweep:
            epsilon_sweep(u0, f, path, profile, cfg.eps_list, cfg.p,
                          partition)
        else:
            check_thm1(u0, f, path, profile, cfg.smoothness, cfg.p,
                       partition)
        monkeypatch.setattr(np.fft, "fftn", fftn)
        # u0 alone, for one check and for the four of the sweep alike: each
        # forcing field is c(t) times the spectrum of its shape, transformed
        # once when the forcing was built.  Transforming each of the
        # K + 1 = 33 nodes took 34 per check, and through solve_duhamel's
        # snapshots 2 (K + 2) = 68
        assert len(calls) == 1


def test_eps_sweep_validates_ordering():
    u0 = gaussian_bump(GRID, width=2.0)
    prof = power_profile(1.0)
    with pytest.raises(ValueError):
        epsilon_sweep(u0, None, scalar_path(prof, 1), prof, [1e-2, 1e-1],
                      2.0, TimePartition.uniform(4, 1.0))
    with pytest.raises(ValueError):
        epsilon_sweep(u0, None, scalar_path(prof, 1), prof, [0.1, 0.0],
                      2.0, TimePartition.uniform(4, 1.0))


def test_reports_to_csv_round_trip(tmp_path):
    u0 = gaussian_bump(GRID, width=2.0)
    prof = power_profile(1.0)
    rep = check_thm2(u0, scalar_path(prof, 1), prof, 2.0,
                     TimePartition.geometric(16, 1.0))
    out = tmp_path / "reports.csv"
    reports_to_csv([rep], out)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert fields[0] == "thm2"
    assert float(fields[7]) == rep.lhs
    assert float(fields[10]) == rep.ratio
