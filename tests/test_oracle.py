"""Cross-checks between the spectral route and its two independent oracles."""

import math

import numpy as np
import pytest

from degparab import (FDScheme, GridSpec, SpectralField, TimePartition,
                      char_function_check, compare_fields,
                      constant_matrix_path, constant_profile,
                      convergence_orders, cumulative_delta, fd_solve,
                      gaussian_bump, mc_solve, oscillatory_profile,
                      sample_increments, scalar_path, solve_duhamel,
                      solve_homogeneous)

GRID = GridSpec(dim=1, n=512, length=32.0)
HEAT = scalar_path(constant_profile(1.0), 1)


def heat_gaussian(grid, width, t):
    x = np.stack(np.meshgrid(
        *[np.linspace(-grid.length / 2, grid.length / 2, grid.n,
                      endpoint=False)] * grid.dim, indexing="ij"), axis=-1)
    var = width ** 2 + 2.0 * t
    amp = (width ** 2 / var) ** (grid.dim / 2.0)
    r2 = np.sum(x ** 2, axis=-1)
    return SpectralField(grid, amp * np.exp(-r2 / (2.0 * var)))


def test_scheme_validation():
    FDScheme(theta=0.5)
    FDScheme(theta=1.0)
    with pytest.raises(ValueError):
        FDScheme(theta=0.25)
    with pytest.raises(ValueError):
        FDScheme(theta=1.2)


def test_fd_heat_matches_exact():
    u0 = gaussian_bump(GRID, width=2.0)
    rep = fd_solve(u0, None, HEAT, TimePartition.uniform(512, 0.5))
    exact = heat_gaussian(GRID, 2.0, 0.5)
    err = compare_fields(exact, rep.snapshots[-1], math.inf)
    assert err < 1e-4


def test_fd_second_order_in_time():
    # self convergence against a fine-step run on the same grid, so the
    # fixed h^2 spatial error cancels and only the dt^2 term remains
    u0 = gaussian_bump(GRID, width=2.0)
    ref = fd_solve(u0, None, HEAT, TimePartition.uniform(2048, 0.5))
    errs = []
    for K in (64, 128, 256):
        rep = fd_solve(u0, None, HEAT, TimePartition.uniform(K, 0.5))
        errs.append(compare_fields(ref.snapshots[-1], rep.snapshots[-1],
                                   math.inf))
    orders = convergence_orders(errs)
    assert all(o > 1.9 for o in orders)


def test_fd_oscillatory_step_average_keeps_order():
    prof = oscillatory_profile()
    path = scalar_path(prof, 1)
    u0 = gaussian_bump(GRID, width=2.0)
    ref = fd_solve(u0, None, path, TimePartition.uniform(2048, 0.5))
    errs = []
    for K in (64, 128):
        rep = fd_solve(u0, None, path, TimePartition.uniform(K, 0.5))
        errs.append(compare_fields(ref.snapshots[-1], rep.snapshots[-1],
                                   math.inf))
    assert convergence_orders(errs)[0] > 1.9


def test_fd_backward_euler_converges():
    # theta = 1 is first order: halving dt should roughly halve the
    # self-convergence error
    u0 = gaussian_bump(GRID, width=2.0)
    scheme = FDScheme(theta=1.0)
    ref = fd_solve(u0, None, HEAT, TimePartition.uniform(2048, 0.5),
                   scheme=scheme)
    errs = []
    for K in (64, 128):
        rep = fd_solve(u0, None, HEAT, TimePartition.uniform(K, 0.5),
                       scheme=scheme)
        errs.append(compare_fields(ref.snapshots[-1], rep.snapshots[-1],
                                   math.inf))
    assert 0.8 < convergence_orders(errs)[0] < 1.3


def test_fd_zero_coefficients_affine_forcing_exact():
    # A = 0, f = (1 + 2t) g: theta-point forcing quadrature is exact
    # for affine integrands at theta = 1/2
    g = gaussian_bump(GRID, width=1.5)
    u0 = gaussian_bump(GRID, width=2.0)
    f = lambda t: SpectralField(GRID, (1.0 + 2.0 * t) * g.samples)
    path = scalar_path(constant_profile(0.0), 1)
    rep = fd_solve(u0, f, path, TimePartition.uniform(16, 1.0))
    expected = u0 + SpectralField(GRID, 2.0 * g.samples)  # int_0^1 (1+2t) = 2
    assert compare_fields(expected, rep.snapshots[-1], math.inf) < 1e-12


def test_fd_dim2_cross_terms():
    grid = GridSpec(dim=2, n=64, length=32.0)
    path = constant_matrix_path([[2.0, 1.0], [1.0, 2.0]])
    u0 = gaussian_bump(grid, width=2.0)
    rep = fd_solve(u0, None, path, TimePartition.uniform(32, 0.25))
    ref = solve_homogeneous(u0, path, TimePartition.uniform(2, 0.25))
    assert compare_fields(ref.snapshots[-1], rep.snapshots[-1],
                          math.inf) < 5e-3


def test_mc_frozen_solution_at_nodes():
    # A = 0, f = 0: X == 0, every sample returns u0(x) itself, so the
    # estimate at grid nodes is exact with zero spread
    u0 = gaussian_bump(GRID, width=2.0)
    path = scalar_path(constant_profile(0.0), 1)
    pts = np.array([-8.0, 0.0, GRID.spacing * 3])
    est = mc_solve(u0, None, path, 0.7, pts, 2000, seed=5)
    idx = np.round((pts + GRID.length / 2) / GRID.spacing).astype(int)
    exact = u0.samples[idx]
    assert np.max(np.abs(est.mean - exact)) < 1e-12
    assert np.max(est.stderr) < 1e-12


def test_mc_heat_within_three_sigma():
    u0 = gaussian_bump(GRID, width=2.0)
    t = 0.3
    pts = np.linspace(-6.0, 6.0, 5)
    est = mc_solve(u0, None, HEAT, t, pts, 40000, seed=11)
    exact = heat_gaussian(GRID, 2.0, t)
    idx = np.round((pts + GRID.length / 2) / GRID.spacing).astype(int)
    gaps = np.abs(est.mean - exact.samples[idx])
    assert np.all(gaps <= 3.0 * est.stderr + 1e-6)


def test_mc_oscillatory_within_three_sigma():
    prof = oscillatory_profile()
    path = scalar_path(prof, 1)
    u0 = gaussian_bump(GRID, width=2.0)
    t = 0.3
    var = 2.0 ** 2 + 2.0 * cumulative_delta(prof, t)
    pts = np.array([-3.0, 0.0, 2.0])
    est = mc_solve(u0, None, path, t, pts, 40000, seed=17)
    exact = np.exp(-pts ** 2 / (2.0 * var)) * math.sqrt(2.0 ** 2 / var)
    gaps = np.abs(est.mean - exact)
    assert np.all(gaps <= 3.0 * est.stderr + 1e-4)


def test_mc_deterministic_replay():
    u0 = gaussian_bump(GRID, width=2.0)
    a = mc_solve(u0, None, HEAT, 0.2, [0.0, 1.0], 5000, seed=3)
    b = mc_solve(u0, None, HEAT, 0.2, [0.0, 1.0], 5000, seed=3)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr, b.stderr)


def test_mc_chunking_consistency():
    # the chunk layout is part of the RNG key, so different layouts give
    # different draws; they must still agree statistically
    u0 = gaussian_bump(GRID, width=2.0)
    a = mc_solve(u0, None, HEAT, 0.2, [0.5], 20000, seed=9, chunk=20000)
    b = mc_solve(u0, None, HEAT, 0.2, [0.5], 20000, seed=9, chunk=1024)
    gap = abs(float(a.mean[0]) - float(b.mean[0]))
    assert gap <= 4.0 * (float(a.stderr[0]) + float(b.stderr[0]))


def test_mc_stderr_scaling():
    u0 = gaussian_bump(GRID, width=2.0)
    sizes = (4000, 8000, 16000)
    errs = [float(np.max(mc_solve(u0, None, HEAT, 0.3, [0.0], n,
                                  seed=21).stderr))
            for n in sizes]
    slopes = np.diff(np.log(errs)) / np.diff(np.log(sizes))
    assert np.all((-0.6 < slopes) & (slopes < -0.4))
    for a, b in zip(errs[1:], errs[:-1]):
        assert b / a < 1.5 + 1e-9


def test_mc_rejects_insufficient_samples():
    u0 = gaussian_bump(GRID, width=2.0)
    with pytest.raises(ValueError):
        mc_solve(u0, None, HEAT, 0.2, [0.0], 10, seed=0)


def test_mc_rejects_wrong_point_dim():
    grid = GridSpec(dim=2, n=32, length=16.0)
    u0 = gaussian_bump(grid, width=2.0)
    path = constant_matrix_path([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        mc_solve(u0, None, path, 0.1, np.zeros((3, 1)), 2000, seed=0)


def test_mc_forcing_matches_duhamel():
    g = gaussian_bump(GRID, width=1.5)
    u0 = gaussian_bump(GRID, width=2.0)
    f = lambda t: SpectralField(GRID, t * g.samples)
    part = TimePartition.uniform(32, 0.4)
    ref = solve_duhamel(u0, f, HEAT, part)
    pts = np.array([-2.0, 0.0, 3.0])
    est = mc_solve(u0, f, HEAT, 0.4, pts, 40000, seed=29, partition=part)
    idx = np.round((pts + GRID.length / 2) / GRID.spacing).astype(int)
    gaps = np.abs(est.mean - ref.snapshots[-1].samples[idx])
    assert np.all(gaps <= 3.0 * est.stderr + 1e-3)


def test_sample_increments_covariance():
    path = constant_matrix_path([[2.0, 0.5], [0.5, 1.0]])
    rng = np.random.default_rng(7)
    x = sample_increments(path, 0.0, 0.5, 200000, rng)
    cov = np.cov(x.T)
    expected = np.array([[2.0, 0.5], [0.5, 1.0]])  # 2 * 0.5 * a
    assert np.max(np.abs(cov - expected)) < 0.02


def test_sample_increments_rejects_non_psd():
    path = constant_matrix_path([[1.0, 3.0], [3.0, 1.0]])
    with pytest.raises(ValueError):
        sample_increments(path, 0.0, 1.0, 100, np.random.default_rng(0))


def test_char_function_identity():
    prof = oscillatory_profile()
    path = scalar_path(prof, 1)
    freqs = np.linspace(0.2, 2.0, 10)[:, None]
    rows = char_function_check(path, 0.0, 0.4, freqs, 200000, seed=13)
    for _, emp_re, emp_im, exact, se_re, se_im in rows:
        assert abs(emp_re - exact) <= 4.0 * se_re
        assert abs(emp_im) <= 4.0 * se_im  # symbol is real


def test_compare_fields_conventions():
    u = gaussian_bump(GRID, width=2.0)
    assert compare_fields(u, u, 2.0) == 0.0
    zero = SpectralField(GRID, np.zeros(GRID.shape))
    assert abs(compare_fields(u, zero, 2.0) - 1.0) < 1e-12
    other = gaussian_bump(GridSpec(dim=1, n=256, length=32.0), width=2.0)
    with pytest.raises(ValueError):
        compare_fields(u, other, 2.0)


def test_convergence_orders_exact_powers():
    orders = convergence_orders([1.0, 0.25, 0.0625])
    assert np.allclose(orders, [2.0, 2.0])


def test_mc_estimate_csv(tmp_path):
    u0 = gaussian_bump(GRID, width=2.0)
    est = mc_solve(u0, None, HEAT, 0.2, [0.0, 1.5], 2000, seed=3)
    out = tmp_path / "mc.csv"
    est.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x_0,mean,stderr,samples,seed"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert int(first[3]) == 2000
    assert int(first[4]) == 3
