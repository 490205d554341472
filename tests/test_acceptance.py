"""Acceptance gate: ten pinned-tolerance criteria, one test per criterion.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Tolerances are frozen here on purpose; loosening them
needs a written justification, not an edit in passing.
"""

import math

import numpy as np

from degparab import (GridSpec, SeparableForcing, SpectralField,
                      TimePartition, char_function_check,
                      check_kernel_decay, check_thm1, check_thm2,
                      compare_fields, constant_profile,
                      convergence_orders, cumulative_delta, epsilon_sweep,
                      fit_beta_exponent, gaussian_bump, kernel, lp_norm,
                      mc_solve, oscillatory_profile, parse_profile,
                      power_profile, rough_field, scalar_path, solve_duhamel)
from degparab.oracle import _fd_steps
from references import partition_defect, random_band_limited, time_change_solve

GRID_1024 = GridSpec(dim=1, n=1024, length=32.0)


def gaussian_heat_exact(grid, width, t):
    x = np.linspace(-grid.length / 2, grid.length / 2, grid.n, endpoint=False)
    var = width ** 2 + 2.0 * t
    amp = math.sqrt(width ** 2 / var)
    return SpectralField(grid, amp * np.exp(-x ** 2 / (2.0 * var)))


def test_criterion_01_heat_benchmark():
    # A = I, Gaussian u0, d=1, n=1024: every snapshot matches the analytic
    # solution with max relative L_inf error < 1e-8
    u0 = gaussian_bump(GRID_1024, width=2.0)
    path = scalar_path(constant_profile(1.0), 1)
    part = TimePartition.uniform(8, 0.5)
    worst = 0.0
    for t, snap in zip(part.nodes, solve_duhamel(u0, None, path, part)):
        exact = gaussian_heat_exact(GRID_1024, 2.0, float(t))
        scale = float(np.max(np.abs(exact.samples)))
        gap = float(np.max(np.abs(snap.samples - exact.samples))) / scale
        worst = max(worst, gap)
    assert worst < 1e-8


def test_criterion_02_kernel_mass():
    # grid integral of the kernel is 1 within 1e-6 whenever beta(t) > 0
    profiles = [constant_profile(1.0), power_profile(1.0),
                oscillatory_profile()]
    times = np.linspace(0.05, 0.75, 8)
    for prof in profiles:
        path = scalar_path(prof, 1)
        for t in times:
            assert cumulative_delta(prof, float(t)) > 0.0
            p = kernel(path, float(t), GRID_1024)
            mass = float(np.sum(p.samples)) * GRID_1024.cell_volume
            assert 1.0 - 1e-6 <= mass <= 1.0 + 1e-6


def test_criterion_03_littlewood_paley_reconstruction():
    # 20 random band-limited fields reassemble from S0 + sum of blocks
    from degparab import LPFamily, lp_block, s0_block
    fam = LPFamily.for_grid(GRID_1024)
    for i in range(20):
        u = random_band_limited(GRID_1024, np.random.default_rng(i))
        total = s0_block(u).samples.copy()
        for j in range(1, fam.j_max + 1):
            total += lp_block(u, j).samples
        gap = float(np.max(np.abs(u.samples - total)))
        assert gap < 1e-10
    assert partition_defect(GRID_1024) < 1e-12


def test_criterion_04_time_change_equivalence():
    # delta(t) = t + 0.1: rescaling time by beta reproduces the direct
    # solve at all shared snapshot times within 1e-8 in L_inf
    prof = parse_profile('expr("t + 0.1")')
    path = scalar_path(prof, 1)
    u0 = gaussian_bump(GRID_1024, width=2.0)
    partition = TimePartition.uniform(8, 1.0)
    direct = solve_duhamel(u0, None, path, partition)
    changed, _ = time_change_solve(u0, None, path, prof, partition)
    scale = float(np.max(np.abs(u0.samples)))
    for a, b in zip(direct, changed):
        assert float(np.max(np.abs(a.samples - b.samples))) / scale < 1e-8


def test_criterion_05_oracle_triangle():
    prof = oscillatory_profile()
    path = scalar_path(prof, 1)

    # spectral vs finite differences: observed order >= 1.9
    gaps = []
    for n, steps in ((512, 64), (1024, 128)):
        grid = GridSpec(dim=1, n=n, length=32.0)
        u0 = gaussian_bump(grid, width=2.0)
        part = TimePartition.uniform(steps, 0.5)
        spectral = solve_duhamel(u0, None, path, part)
        difference = list(_fd_steps(u0, None, path, part.nodes))
        gaps.append(compare_fields(spectral[-1], difference[-1], 2.0))
    order = float(convergence_orders(gaps)[0])
    assert order >= 1.9

    # spectral vs Monte Carlo: within 3 standard errors at 5 probes
    u0 = gaussian_bump(GRID_1024, width=2.0)
    t = 0.1
    spectral = solve_duhamel(u0, None, path, TimePartition.uniform(4, t))
    probes = np.linspace(-8.0, 8.0, 5)
    est = mc_solve(u0, None, path, t, probes, 100000, seed=0)
    idx = np.round((probes + GRID_1024.length / 2)
                   / GRID_1024.spacing).astype(int)
    exact = spectral[-1].samples[idx]
    assert np.all(np.abs(est.mean - exact) <= 3.0 * est.stderr)

    # characteristic-function identity: within 4 standard errors at 10 xi
    freqs = np.linspace(0.2, 2.0, 10)[:, None]
    rows = char_function_check(path, 0.0, 0.4, freqs, 100000, seed=0)
    for _, emp_re, _, exact_cf, se_re, _ in rows:
        assert abs(emp_re - exact_cf) <= 4.0 * se_re


def test_criterion_06_kernel_decay():
    # one (N, c) with c > 0 covers every block k in 1..6 and every time;
    # period 16 resolves dyadic scales up to j_max = 6
    grid = GridSpec(dim=1, n=1024, length=16.0)
    times = np.logspace(-3, math.log10(0.5), 8)
    for prof in (constant_profile(1.0), power_profile(1.0),
                 oscillatory_profile()):
        path = scalar_path(prof, 1)
        for gamma in (0.0, 1.0):
            fit = check_kernel_decay(path, prof, gamma, range(1, 7),
                                     times, grid)
            assert fit.c > 0.0
            assert len(fit.violations) == 0


def test_criterion_07_thm1_ratio_stability():
    # delta(t) = t, n=0: the observed constant is stable under refining
    # the grid and the partition, and under the epsilon regularization
    prof = power_profile(1.0)
    path = scalar_path(prof, 1)

    def ratio(n, steps, p):
        grid = GridSpec(dim=1, n=n, length=32.0)
        u0 = gaussian_bump(grid, width=2.0)
        shape = gaussian_bump(grid, width=1.5)
        f = SeparableForcing(lambda t: t, shape)
        rep = check_thm1(u0, f, path, prof, 0.0, p,
                         TimePartition.geometric(steps, 1.0))
        assert rep.admissible
        return rep.ratio

    for p in (2.0, 4.0):
        base = ratio(1024, 128, p)
        refined = ratio(2048, 256, p)
        assert abs(refined - base) / base < 0.10

        u0 = gaussian_bump(GRID_1024, width=2.0)
        shape = gaussian_bump(GRID_1024, width=1.5)
        f = SeparableForcing(lambda t: t, shape)
        reps = epsilon_sweep(u0, f, path, prof, [1e-1, 1e-2, 1e-3, 1e-4], p,
                             TimePartition.geometric(128, 1.0))
        anchor = reps[0].ratio
        for rep in reps:
            assert rep.admissible
            assert anchor / 2.0 <= rep.ratio <= anchor * 2.0


def test_criterion_08_thm2_single_constant_serves_family():
    # oscillatory floor, p=2, five rough(1) data: all lhs finite and the
    # observed constants agree within a factor 5 across the family
    prof = oscillatory_profile()
    path = scalar_path(prof, 1)
    partition = TimePartition.geometric(64, 1.0)
    ratios = []
    for variant in range(5):
        u0 = rough_field(GRID_1024, 1.0, 2.0, seed=0, variant=variant)
        rep = check_thm2(u0, path, prof, 2.0, partition)
        assert rep.admissible
        assert math.isfinite(rep.lhs)
        ratios.append(rep.ratio)
    assert max(ratios) / min(ratios) < 5.0


def test_criterion_09_degeneracy_fits():
    # power floors: fitted beta = alpha + 1 within 2%
    for alpha in (0.0, 1.0, 2.0):
        prof = power_profile(alpha)
        t0 = 1.0
        top = cumulative_delta(prof, t0) / 4.0
        h = np.logspace(math.log10(top) - 2.5, math.log10(top), 9)
        fit = fit_beta_exponent(prof, t0, h)
        expected = alpha + 1.0
        assert abs(fit.beta_hat - expected) / expected < 0.02

    # oscillatory floor: beta near 1 within 10%
    prof = oscillatory_profile()
    top = cumulative_delta(prof, 1.0) / 4.0
    h = np.logspace(math.log10(top) - 2.5, math.log10(top), 9)
    fit = fit_beta_exponent(prof, 1.0, h)
    assert abs(fit.beta_hat - 1.0) < 0.10

    # bracket t/4 <= beta(t) <= 2t at 1000 samples in (0, 1]
    ts = np.linspace(0.001, 1.0, 1000)
    betas = cumulative_delta(prof, ts)
    assert np.all(betas >= ts / 4.0 - 1e-12)
    assert np.all(betas <= 2.0 * ts + 1e-12)


def test_criterion_10_degenerate_limit():
    # A = 0: the Duhamel solve reduces to u0 + int f (affine-in-t forcing
    # is integrated exactly), and the lhs of the thm1 check vanishes
    prof = constant_profile(0.0)
    path = scalar_path(prof, 1)
    u0 = gaussian_bump(GRID_1024, width=2.0)
    g = gaussian_bump(GRID_1024, width=1.5)
    f = SeparableForcing(lambda t: 1.0 + 2.0 * t, g)
    final = solve_duhamel(u0, f, path, TimePartition.uniform(16, 1.0))[-1]
    expected = u0.samples + 2.0 * g.samples  # int_0^1 (1 + 2t) dt = 2
    gap = float(np.max(np.abs(final.samples - expected)))
    assert gap < 1e-10

    rep = check_thm1(u0, f, path, prof, 0.0, 2.0,
                     TimePartition.uniform(16, 1.0))
    assert rep.lhs == 0.0
