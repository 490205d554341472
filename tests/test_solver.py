"""Exact Fourier propagator, Duhamel forcing, time change, weak residual."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degparab import (GridSpec, SeparableForcing, SpectralField,
                      TimePartition, accumulate_on, bessel_norm,
                      check_classic, check_thm1,
                      compare_fields, constant_matrix_path, constant_profile,
                      cumulative_delta, epsilon_regularize, gaussian_bump,
                      hessian_lp_norm, inner_product, lp_norm, mode_field,
                      oscillatory_profile, parse_coefficients, parse_profile,
                      power_profile, quadratic_form, save_report,
                      scalar_path, solve_duhamel, solve_final,
                      weak_residual_profile, x_grids)
from degparab import build_forcing, solver
from degparab.estimates import _trapezoid
from degparab.solver import (_duhamel_spectra, _duhamel_stream,
                             _quadratic_forms, _trapezoid_weights)
import references
from references import (DegenerateKernelError, cached_forcing,
                        check_thm2_at_horizon, kernel,
                        load_report, propagate, scaled_field,
                        time_change_solve, weak_residual_per_node)

GRID = GridSpec(dim=1, n=512, length=32.0)
HEAT = scalar_path(constant_profile(1.0), 1)


def accumulated(path, s, t):
    """B = int_s^t a dr from one accumulate_on pass."""
    b_s, b_t = accumulate_on(path, [s, t])
    return b_t - b_s


def zero_path(dim=1):
    return scalar_path(constant_profile(0.0), dim)


def heat_gaussian(grid, t, width=2.0):
    x = x_grids(grid)[0]
    s2 = width ** 2 + 2.0 * t
    return np.exp(-x ** 2 / (2.0 * s2)) * math.sqrt(width ** 2 / s2)


def test_partition_validation():
    with pytest.raises(ValueError):
        TimePartition(np.array([0.1, 0.5]))  # must start at 0
    with pytest.raises(ValueError):
        TimePartition(np.array([0.0, 0.5, 0.5]))  # strictly increasing
    part = TimePartition.uniform(4, 1.0)
    assert np.allclose(part.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])


def test_geometric_partition_smallest_node():
    part = TimePartition.geometric(64, 1.0)
    positive = part.nodes[part.nodes > 0]
    assert abs(positive[0] - 1e-6) < 1e-12
    assert abs(part.horizon - 1.0) < 1e-15


def test_accumulate_identity():
    B = accumulated(constant_matrix_path(np.eye(2)), 0.0, 0.5)
    assert np.allclose(B, 0.5 * np.eye(2), atol=1e-13)


def test_accumulate_empty_interval():
    B = accumulated(HEAT, 0.3, 0.3)
    assert np.all(B == 0.0)


def test_accumulate_oscillatory_matches_cumulative():
    prof = oscillatory_profile()
    path = scalar_path(prof, 1)
    B = accumulated(path, 0.0, 0.1)
    assert abs(B[0, 0] - cumulative_delta(prof, 0.1)) < 1e-12


def test_propagate_heat_gaussian():
    u0 = gaussian_bump(GRID, width=2.0)
    ut = propagate(u0, HEAT, 0.0, 0.5)
    exact = heat_gaussian(GRID, 0.5)
    assert np.max(np.abs(ut.samples - exact)) < 1e-8 * np.max(exact)


def test_propagate_zero_path_identity():
    u0 = gaussian_bump(GRID, width=2.0)
    ut = propagate(u0, zero_path(), 0.0, 1.0)
    assert np.max(np.abs(ut.samples - u0.samples)) < 1e-13


def test_propagate_mode_eigenvalue():
    grid = GridSpec(dim=1, n=256, length=8.0 * math.pi)
    u0 = mode_field(grid, (8,))  # xi = 2
    ut = propagate(u0, HEAT, 0.0, 0.3)
    assert np.allclose(ut.samples, math.exp(-4.0 * 0.3) * u0.samples,
                       atol=1e-12)


def test_propagate_rejects_backwards():
    u0 = gaussian_bump(GRID, width=2.0)
    with pytest.raises(ValueError):
        propagate(u0, HEAT, 0.5, 0.2)


def test_cocycle_property():
    prof = parse_profile('expr("1 + t")')
    path = scalar_path(prof, 1)
    u0 = gaussian_bump(GRID, width=2.0)
    two_step = propagate(propagate(u0, path, 0.1, 0.4), path, 0.4, 0.9)
    one_step = propagate(u0, path, 0.1, 0.9)
    assert np.max(np.abs(two_step.samples - one_step.samples)) < 1e-10


def test_symbol_modulus_bound():
    # |exp(-xi^T B xi)| <= exp(-(beta(t)-beta(s))|xi|^2)
    prof = oscillatory_profile()
    path = scalar_path(prof, 1)
    s, t = 0.05, 0.4
    B = accumulated(path, s, t)
    values = np.exp(-quadratic_form(GRID, B))
    gap = cumulative_delta(prof, t) - cumulative_delta(prof, s)
    from degparab.spectral import _xi_sq
    bound = np.exp(-gap * _xi_sq(GRID))
    assert np.all(values <= bound + 1e-15)


@pytest.mark.parametrize("n", [4, 8, 16])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_quadratic_form_is_even_on_the_lattice(dim, n):
    # xi -> -xi maps index k to (n - k) mod n on every axis, and the Nyquist
    # index n/2 to itself: the mixed terms there must not change sign
    grid = GridSpec(dim=dim, n=n, length=8.0)
    rng = np.random.default_rng(10 * dim + n)
    root = rng.standard_normal((dim, dim))
    B = root @ root.T + 0.1 * np.eye(dim)
    assert np.all(B[~np.eye(dim, dtype=bool)] != 0.0)
    q = quadratic_form(grid, B)
    axes = tuple(range(dim))
    assert np.array_equal(q, np.roll(np.flip(q), (1,) * dim, axes))


def test_mixed_snapshot_spectrum_and_samples_agree():
    # a Gaussian under B = [[1, .5], [.5, 1]] / nyquist^2: the p = 2 norms
    # read the snapshot's spectrum, the re-made field reads its samples
    grid = GridSpec(dim=2, n=8, length=8.0)
    path = constant_matrix_path(
        np.array([[1.0, 0.5], [0.5, 1.0]]) / grid.nyquist ** 2)
    last = solve_duhamel(gaussian_bump(grid, width=0.5), None, path,
                         TimePartition.uniform(4, 1.0))[-1]
    again = SpectralField(grid, last.samples)
    for smoothness in (0.0, 1.5):
        pairs = ((hessian_lp_norm(last, 2.0, smoothness),
                  hessian_lp_norm(again, 2.0, smoothness)),
                 (bessel_norm(last, smoothness, 2.0),
                  bessel_norm(again, smoothness, 2.0)))
        for value, ref in pairs:
            assert abs(value - ref) <= 1e-12 * ref


def test_mass_conservation_and_contraction():
    u0 = gaussian_bump(GRID, width=2.0)
    part = TimePartition.uniform(16, 1.0)
    snapshots = solve_duhamel(u0, None, HEAT, part)
    m0 = float(np.sum(u0.samples))
    for snap in snapshots:
        assert abs(float(np.sum(snap.samples)) - m0) < 1e-10 * abs(m0)
    norms = [lp_norm(s, 2.0) for s in snapshots]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_kernel_heat_gaussian():
    # symbol exp(-t xi^2) is the Gaussian of variance 2t
    grid = GridSpec(dim=1, n=1024, length=32.0)
    t = 0.25
    k = kernel(HEAT, t, grid)
    x = x_grids(grid)[0]
    exact = np.exp(-x ** 2 / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    assert np.max(np.abs(k.samples - exact)) < 1e-8
    mass = float(np.sum(k.samples) * grid.cell_volume)
    assert abs(mass - 1.0) < 1e-8


def test_kernel_oscillatory():
    prof = oscillatory_profile()
    path = scalar_path(prof, 1)
    grid = GridSpec(dim=1, n=1024, length=32.0)
    k = kernel(path, 0.1, grid)
    # Gaussian with variance 2 beta(t)
    var = 2.0 * cumulative_delta(prof, 0.1)
    x = x_grids(grid)[0]
    exact = np.exp(-x ** 2 / (2.0 * var)) / math.sqrt(2.0 * math.pi * var)
    assert np.max(np.abs(k.samples - exact)) < 1e-8
    assert np.min(k.samples) > -1e-8
    assert abs(float(np.sum(k.samples) * grid.cell_volume) - 1.0) < 1e-8


def test_kernel_rejects_degenerate_time():
    with pytest.raises(DegenerateKernelError):
        kernel(zero_path(), 0.5, GRID)


def test_solve_homogeneous_initial_snapshot_exact():
    u0 = gaussian_bump(GRID, width=2.0)
    snapshots = solve_duhamel(u0, None, HEAT, TimePartition.uniform(4, 0.4))
    assert np.array_equal(snapshots[0].samples, u0.samples)


def test_solve_homogeneous_zero_path_constant():
    u0 = gaussian_bump(GRID, width=2.0)
    for snap in solve_duhamel(u0, None, zero_path(),
                              TimePartition.uniform(4, 1.0)):
        assert np.max(np.abs(snap.samples - u0.samples)) < 1e-13


def test_duhamel_without_forcing_matches_homogeneous():
    u0 = gaussian_bump(GRID, width=2.0)
    part = TimePartition.geometric(16, 0.5)
    # the homogeneous solve (f=None) adds nothing where a zero forcing adds 0
    zero = SpectralField(GRID, np.zeros(GRID.shape))
    a = solve_duhamel(u0, None, HEAT, part)
    b = solve_duhamel(u0, lambda t: zero, HEAT, part)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.samples, sb.samples)


def test_duhamel_zero_coefficients_affine_forcing_exact():
    # A = 0 and affine-in-t forcing: trapezoid quadrature is exact
    u0 = gaussian_bump(GRID, width=2.0)
    shape = gaussian_bump(GRID, width=1.5)
    f = lambda t: SpectralField(GRID, (1.0 + 2.0 * t) * shape.samples)
    part = TimePartition.uniform(8, 1.0)
    final = solve_duhamel(u0, f, zero_path(), part)[-1]
    exact = u0.samples + 2.0 * shape.samples  # int_0^1 (1+2t) dt = 2
    assert np.max(np.abs(final.samples - exact)) < 1e-10


def test_duhamel_mode_ode_closed_form():
    # u' = -|xi|^2 u + e^t g, u(0)=0 has u(t) = (e^t - e^(-|xi|^2 t))/(1+|xi|^2) g
    grid = GridSpec(dim=1, n=256, length=8.0 * math.pi)
    g = mode_field(grid, (8,))  # xi = 2
    u0 = SpectralField(grid, np.zeros(grid.shape))
    f = lambda t: SpectralField(grid, math.exp(t) * g.samples)
    errs = []
    for K in (64, 128):
        part = TimePartition.uniform(K, 1.0)
        final = solve_duhamel(u0, f, HEAT, part)[-1]
        exact = (math.e - math.exp(-4.0)) / 5.0 * g.samples
        errs.append(np.max(np.abs(final.samples - exact)))
    assert errs[0] < 5e-4
    order = math.log2(errs[0] / errs[1])
    assert order > 1.9  # trapezoid is second order


def test_time_change_noop_for_unit_profile():
    u0 = gaussian_bump(GRID, width=2.0)
    part = TimePartition.uniform(8, 1.0)
    prof = constant_profile(1.0)
    direct = solve_duhamel(u0, None, HEAT, part)
    changed, _ = time_change_solve(u0, None, HEAT, prof, part)
    for a, b in zip(direct, changed):
        assert np.max(np.abs(a.samples - b.samples)) < 1e-12


def test_time_change_constant_two():
    # delta = 2: tau = 2t, transformed coefficient is exactly 1
    prof = constant_profile(2.0)
    path = scalar_path(prof, 1)
    u0 = gaussian_bump(GRID, width=2.0)
    part = TimePartition.uniform(8, 1.0)
    changed, tau = time_change_solve(u0, None, path, prof, part)
    assert np.allclose(tau, 2.0 * part.nodes, atol=1e-9)
    direct = solve_duhamel(u0, None, path, part)
    gap = compare_fields(direct[-1], changed[-1], np.inf)
    assert gap < 1e-8


def test_time_change_affine_profile():
    prof = parse_profile('expr("t + 0.1")')
    path = scalar_path(prof, 1)
    u0 = gaussian_bump(GRID, width=2.0)
    part = TimePartition.uniform(8, 1.0)
    direct = solve_duhamel(u0, None, path, part)
    changed, _ = time_change_solve(u0, None, path, prof, part)
    for a, b in zip(direct, changed):
        assert np.max(np.abs(a.samples - b.samples)) < 1e-8


def test_time_change_forced_converges_to_direct_solve():
    # both routes take a trapezoid of the Duhamel integral, in tau and in t,
    # so they differ at O(dt^2)
    prof = parse_profile('expr("t + 0.1")')
    path = scalar_path(prof, 1)
    u0 = gaussian_bump(GRID, width=2.0)
    shape = gaussian_bump(GRID, width=1.5)
    f = lambda t: scaled_field(shape, 1.0 + t)
    gaps = []
    for K in (16, 32):
        part = TimePartition.uniform(K, 1.0)
        direct = solve_duhamel(u0, f, path, part)[-1]
        changed = time_change_solve(u0, f, path, prof, part)[0][-1]
        gaps.append(compare_fields(direct, changed, np.inf))
    assert gaps[1] < 1e-3
    assert math.log2(gaps[0] / gaps[1]) > 1.9


@pytest.mark.parametrize("forced", [False, True])
def test_time_change_inverts_all_nodes_in_one_call(monkeypatch, forced):
    calls = []
    inverse = references.inverse_cumulative

    def spy(*args, **kwargs):
        calls.append(args)
        return inverse(*args, **kwargs)

    monkeypatch.setattr(references, "inverse_cumulative", spy)
    prof = parse_profile('expr("t + 0.1")')
    shape = gaussian_bump(GRID, width=1.5)
    f = (lambda t: scaled_field(shape, 1.0 + t)) if forced else None
    part = TimePartition.uniform(8, 1.0)
    time_change_solve(gaussian_bump(GRID, width=2.0), f,
                      scalar_path(prof, 1), prof, part)
    assert len(calls) == 1
    assert np.shape(calls[0][1]) == (part.nodes.size,)


def test_time_change_rejects_vanishing_floor():
    prof = power_profile(1.0)  # delta(0) = 0
    path = scalar_path(prof, 1)
    u0 = gaussian_bump(GRID, width=2.0)
    with pytest.raises(ValueError):
        time_change_solve(u0, None, path, prof, TimePartition.uniform(4, 1.0))


def test_epsilon_regularize_zero_path():
    path = epsilon_regularize(zero_path(), 1.0)
    assert np.allclose(path.a(0.5), np.eye(1))


def test_epsilon_regularize_shifts_floor():
    prof = power_profile(1.0)
    reg = epsilon_regularize(scalar_path(prof, 1), 0.5)
    assert prof.shifted(0.5).delta(0.0) == 0.5
    assert np.allclose(reg.a(0.0), [[0.5]])


def test_regularized_solve_converges_monotonically():
    prof = power_profile(1.0)
    path = scalar_path(prof, 1)
    u0 = gaussian_bump(GRID, width=2.0)
    part = TimePartition.uniform(8, 0.5)
    base = solve_duhamel(u0, None, path, part)[-1]
    gaps = []
    for eps in (1e-1, 1e-2, 1e-3):
        reg = solve_duhamel(u0, None, epsilon_regularize(path, eps), part)
        gaps.append(compare_fields(base, reg[-1], 2.0))
    assert gaps[0] > gaps[1] > gaps[2]


def test_weak_residual_second_order_decay():
    u0 = gaussian_bump(GRID, width=2.0)
    res = []
    for K in (64, 128):
        part = TimePartition.uniform(K, 1.0)
        snapshots = solve_duhamel(u0, None, HEAT, part)
        res.append(float(np.max(weak_residual_profile(snapshots, None, HEAT,
                                                      part.nodes))))
    order = math.log2(res[0] / res[1])
    assert order > 1.8


def test_weak_residual_small_at_reference_resolution():
    grid = GridSpec(dim=1, n=1024, length=32.0)
    u0 = gaussian_bump(grid, width=2.0)
    path = scalar_path(constant_profile(1.0), 1)
    part = TimePartition.uniform(256, 1.0)
    snapshots = solve_duhamel(u0, None, path, part)
    assert float(np.max(weak_residual_profile(snapshots, None, path,
                                              part.nodes))) < 1e-6


def test_weak_residual_zero_for_constant_solution():
    u0 = gaussian_bump(GRID, width=2.0)
    path, part = zero_path(), TimePartition.uniform(8, 1.0)
    snapshots = solve_duhamel(u0, None, path, part)
    assert float(np.max(weak_residual_profile(snapshots, None, path,
                                              part.nodes))) < 1e-12


def test_weak_residual_detects_corruption():
    u0 = gaussian_bump(GRID, width=2.0)
    part = TimePartition.uniform(64, 1.0)
    snapshots = solve_duhamel(u0, None, HEAT, part)
    test_fn = gaussian_bump(GRID, width=GRID.length / 16.0)  # the residual's
    clean = weak_residual_profile(snapshots, None, HEAT, part.nodes)[-1]
    corrupted = scaled_field(snapshots[-1], 1.01)
    pairing = abs(inner_product(corrupted, test_fn))
    snapshots[-1] = corrupted
    dirty = weak_residual_profile(snapshots, None, HEAT, part.nodes)[-1]
    jump = abs(dirty - clean)
    # linear functional: scaling u by 1.01 moves it by ~ 0.01 (u, phi)
    assert abs(jump - 0.01 * pairing / 1.01) < 0.2 * jump


def test_duhamel_weak_residual_decays():
    u0 = gaussian_bump(GRID, width=2.0)
    shape = gaussian_bump(GRID, width=1.5)
    f = lambda t: SpectralField(GRID, (1.0 - t) * shape.samples)
    res = []
    for K in (64, 128):
        part = TimePartition.uniform(K, 1.0)
        snapshots = solve_duhamel(u0, f, HEAT, part)
        res.append(float(np.max(weak_residual_profile(snapshots, f, HEAT,
                                                      part.nodes))))
    assert math.log2(res[0] / res[1]) > 1.8


@pytest.mark.parametrize("kind", ["uniform", "geometric"])
@pytest.mark.parametrize("coefficients", ["closed-form", "quadrature"])
@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_weak_residual_is_the_per_node_loop_bit_for_bit(dim, forced,
                                                        coefficients, kind):
    # the quadrature path of dims 2 and 3 has off-diagonal entries 0.1 t
    grid = GRIDS[dim]
    spec = ("scalar(power(1))" if coefficients == "closed-form"
            else expr_matrix_text(dim))
    path = parse_coefficients(spec, dim)
    shape = gaussian_bump(grid, width=1.5)
    f = (lambda t: scaled_field(shape, 1.0 + t)) if forced else None
    part = getattr(TimePartition, kind)(11, 0.7)
    snapshots = solve_duhamel(gaussian_bump(grid, width=1.0), f, path, part)
    args = (snapshots, f, path, part.nodes)
    assert (weak_residual_profile(*args).tobytes()
            == weak_residual_per_node(*args).tobytes())


def test_report_roundtrip(tmp_path):
    u0 = gaussian_bump(GRID, width=2.0)
    part = TimePartition.uniform(4, 0.5)
    solved = solve_duhamel(u0, None, HEAT, part)
    outdir = tmp_path / "report"
    save_report(solved, None, HEAT, part, outdir, p=2.0)
    meta, nodes, snapshots = load_report(outdir)
    assert meta["n"] == "512"
    assert meta["method"] == "spectral"
    assert np.allclose(nodes, part.nodes)
    assert len(snapshots) == len(solved)
    for a, b in zip(snapshots, solved):
        assert np.array_equal(a.samples, b.samples)
    header = (outdir / "norms.csv").read_text().splitlines()[0]
    assert header == "k,t,Lp,H2p,weak_residual"


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_norms_csv_holds_each_snapshots_norms(tmp_path, p):
    u0 = gaussian_bump(GRID, width=2.0)
    part = TimePartition.uniform(4, 0.5)
    snapshots = solve_duhamel(u0, None, HEAT, part)
    save_report(snapshots, None, HEAT, part, tmp_path, p=p)
    rows = [r.split(",") for r in
            (tmp_path / "norms.csv").read_text().splitlines()[1:]]
    assert [r[:2] for r in rows] == [[str(k), repr(float(t))]
                                     for k, t in enumerate(part.nodes)]
    for (_, _, lp, h2p, _), u in zip(rows, snapshots, strict=True):
        assert lp == repr(lp_norm(u, p))
        assert h2p == repr(bessel_norm(u, 2.0, p))
    assert rows[0][2] == repr(lp_norm(u0, p))


def test_save_report_returns_the_residuals_it_writes(tmp_path):
    u0 = gaussian_bump(GRID, width=2.0)
    part = TimePartition.uniform(4, 0.5)
    snapshots = solve_duhamel(u0, None, HEAT, part)
    residuals = save_report(snapshots, None, HEAT, part, tmp_path / "report",
                            p=2.0)
    assert np.array_equal(residuals, weak_residual_profile(
        snapshots, None, HEAT, part.nodes))
    rows = (tmp_path / "report" / "norms.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[4]) for r in rows] == list(residuals)


@pytest.mark.skipif(not hasattr(np, "trapezoid"), reason="numpy < 2.0")
def test_trapezoid_sums_like_numpy():
    rng = np.random.default_rng(3)
    nodes = np.sort(rng.random(50)) ** 3
    values = rng.standard_normal(50) * 1e3
    assert _trapezoid(values, nodes) == float(np.trapezoid(values, nodes))


GRIDS = {1: GridSpec(dim=1, n=64, length=16.0),
         2: GridSpec(dim=2, n=16, length=8.0),
         3: GridSpec(dim=3, n=8, length=8.0)}


def expr_matrix_text(dim):
    rows = [[("1 + t" if i == j else "0.1*t") for j in range(dim)]
            for i in range(dim)]
    return "matrix([" + ", ".join(
        "[" + ", ".join(f'"{e}"' for e in row) + "]" for row in rows) + "])"


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]),
       kind=st.sampled_from(["uniform", "geometric"]),
       steps=st.integers(2, 12),
       horizon=st.floats(0.1, 2.0),
       coefficients=st.sampled_from(["closed-form", "quadrature"]),
       forced=st.booleans(),
       width=st.floats(0.5, 2.0))
def test_solve_final_is_the_last_duhamel_snapshot(dim, kind, steps, horizon,
                                                  coefficients, forced,
                                                  width):
    grid = GRIDS[dim]
    part = getattr(TimePartition, kind)(steps, horizon)
    spec = ("scalar(power(1))" if coefficients == "closed-form"
            else expr_matrix_text(dim))
    path = parse_coefficients(spec, dim)
    u0 = gaussian_bump(grid, width=width)
    shape = gaussian_bump(grid, width=1.5)
    f = SeparableForcing(lambda t: 1.0 + t, shape) if forced else None
    final = solve_final(u0, f, path, part)
    last = list(_duhamel_stream(u0, f, path, part.nodes))[-1][0]
    assert final.spectrum.tobytes() == last.spectrum.tobytes()
    assert final.samples.tobytes() == last.samples.tobytes()
    # within the bound of test_duhamel_stream_is_the_per_node_sum_within_k_eps
    # of the O(K^2) sum on the same forcing spectra c(t) S^:
    # |A_K - S_K| <= 4 (K + 1) eps M_K.  (The saved solve transforms
    # f(t).samples instead, which differs by FFT rounding, not bounded mode
    # by mode.)
    nodes = part.nodes
    f_specs = ([cached_forcing(f)(t).spectrum for t in nodes] if forced
               else None)
    scale = np.abs(u0.spectrum)
    if forced:
        scale = scale + sum(w * np.abs(f_t) for w, f_t in
                            zip(_trapezoid_weights(nodes), f_specs))
    solved = references.duhamel_spectrum_per_node(
        u0.spectrum, references.quadratic_forms(grid, path, nodes), f_specs,
        nodes, steps)
    assert np.all(np.abs(final.spectrum - solved)
                  <= 4 * (steps + 1) * np.finfo(float).eps * scale)


@pytest.mark.parametrize("dim, kind", [(1, "geometric"), (1, "uniform"),
                                       (2, "geometric")])
def test_saved_solve_transforms_each_forcing_field(dim, kind):
    # solve_duhamel's snapshots are saved and compared at rounding level, so
    # its forcing spectra are fftn(f(t).samples), not the c(t) times one
    # transform of the shape that the stream reads
    grid = GRIDS[dim]
    part = getattr(TimePartition, kind)(8, 1.0)
    path = parse_coefficients(
        "scalar(power(1))" if dim == 1 else expr_matrix_text(dim), dim)
    u0 = gaussian_bump(grid, width=1.0)
    f = build_forcing('separable("1 + sin(3*t)", gaussian(1.5))', grid, 2.0,
                      seed=0)
    f_specs = [np.fft.fftn(f(t).samples) for t in part.nodes]
    # the two differ by rounding, so routing the solve through the cached
    # spectra fails below
    assert any(cached_forcing(f)(t).spectrum.tobytes() != spec.tobytes()
               for t, spec in zip(part.nodes, f_specs))
    full = references.quadratic_forms(grid, path, part.nodes)
    snapshots = solve_duhamel(u0, f, path, part)
    for k in range(1, part.nodes.size):
        expected = references.duhamel_spectrum_per_node(
            u0.spectrum, full, f_specs, part.nodes, k)
        assert snapshots[k].spectrum.tobytes() == expected.tobytes(), k


def scaled(path, scale):
    """path with a and its cumulative multiplied by scale."""
    a, cum = path.a, path.cumulative
    return replace(path, a=lambda t: scale * np.asarray(a(t)),
                   cumulative=cum and (lambda t: scale * np.asarray(cum(t))))


def duhamel_case(dim, kind, steps, horizon, coefficients, forced, n=None,
                 scale=1.0):
    """Inputs of a Duhamel sum: spec0, the half-lattice quads of
    _quadratic_forms, f_specs and nodes, then the full-lattice quads of the
    per-node oracle, built on their own.  The forcing spectra come as a
    list (None without forcing), which the oracle indexes."""
    grid = GRIDS[dim] if n is None else GridSpec(dim=dim, n=n, length=16.0)
    nodes = getattr(TimePartition, kind)(steps, horizon).nodes
    spec = ("scalar(power(1))" if coefficients == "closed-form"
            else expr_matrix_text(dim))
    path = scaled(parse_coefficients(spec, dim), scale)
    shape = gaussian_bump(grid, width=1.5)
    f = (lambda t: scaled_field(shape, 1.0 + t)) if forced else None
    u0 = gaussian_bump(grid, width=1.0)
    f_specs = (None if f is None else
               [np.fft.fftn(f(t).samples) for t in nodes])
    return (u0.spectrum, _quadratic_forms(grid, path, nodes), f_specs,
            nodes, references.quadratic_forms(grid, path, nodes))


class CountingForcing(SeparableForcing):
    """A forcing value that records its coefs calls and builds no field."""

    def __init__(self, coef, shape):
        super().__init__(coef, shape)
        self.calls = []

    def coefs(self, ts):
        self.calls.append(np.array(ts))
        return super().coefs(ts)

    def __call__(self, t):
        pytest.fail(f"a forcing field was built at t={t!r}")


def ragged_rows(steps):
    """The least block row count >= 2 that does not divide steps."""
    return next(r for r in range(2, steps) if steps % r)


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]),
       kind=st.sampled_from(["uniform", "geometric"]),
       steps=st.integers(3, 12),
       horizon=st.floats(0.1, 2.0),
       coefficients=st.sampled_from(["closed-form", "quadrature"]),
       forced=st.booleans(),
       block=st.sampled_from(["one row", "ragged", "all rows"]),
       one_shot=st.booleans(),
       scale=st.sampled_from([1.0, 50.0, 300.0, 3000.0, "band"]))
def test_blocked_duhamel_sum_is_the_per_node_sum_bit_for_bit(
        dim, kind, steps, horizon, coefficients, forced, block, one_shot,
        scale):
    # at scale 1 no exponent reaches the underflow mask (1D: xi_max^2 = 158
    # and int (1 + t) dt <= 4); the larger scales reach the mask and the
    # subnormal band below -708.  "band" puts the exponent of target K at
    # the least nonzero frequency at -745.05, where exp is the least
    # subnormal: unforced, that is the whole of the sum there
    if scale == "band":
        full = duhamel_case(dim, kind, steps, horizon, coefficients,
                            forced)[-1]
        least = (0,) * (dim - 1) + (1,)
        scale = 745.05 / (full[-1][least] - full[0][least])
    spec0, quads, f_specs, nodes, full = duhamel_case(
        dim, kind, steps, horizon, coefficients, forced, scale=scale)
    rows = {"one row": 1, "ragged": ragged_rows(steps),
            "all rows": steps}[block]
    # the sum reads the forcing spectra once, in order: an iterator will do
    inputs = iter(f_specs) if one_shot and forced else f_specs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_BLOCK_BYTES", rows * spec0.nbytes)
        spectra = _duhamel_spectra(spec0, quads, inputs, nodes)
    assert spectra.shape == (steps,) + spec0.shape
    for k, row in enumerate(spectra, start=1):
        expected = references.duhamel_spectrum_per_node(spec0, full, f_specs,
                                                        nodes, k)
        assert row.tobytes() == expected.tobytes(), k


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]),
       kind=st.sampled_from(["uniform", "geometric"]),
       steps=st.integers(3, 12),
       horizon=st.floats(0.1, 2.0),
       coefficients=st.sampled_from(["closed-form", "quadrature"]),
       forced=st.booleans(),
       scale=st.sampled_from([1.0, 50.0, 300.0, 3000.0, "band"]))
def test_duhamel_stream_is_the_per_node_sum_within_k_eps(
        dim, kind, steps, horizon, coefficients, forced, scale):
    # the cases of the bitwise test above; the recurrence multiplies k
    # factors exp(q_(i-1) - q_i) where the per-node sum takes one
    # exp(q_0 - q_k), so it is pinned elementwise by a bound fixed before
    # any run: |A_k - S_k| <= 4 (k + 1) eps M_k, with M_k the undamped
    # magnitudes |u0^| + sum_i w_i |f_i^| over nodes[:k + 1]
    grid = GRIDS[dim]
    nodes = getattr(TimePartition, kind)(steps, horizon).nodes
    spec = ("scalar(power(1))" if coefficients == "closed-form"
            else expr_matrix_text(dim))
    path = parse_coefficients(spec, dim)
    if scale == "band":
        full = references.quadratic_forms(grid, path, nodes)
        least = (0,) * (dim - 1) + (1,)
        scale = 745.05 / (full[-1][least] - full[0][least])
    path = scaled(path, scale)
    full = references.quadratic_forms(grid, path, nodes)
    u0, shape = gaussian_bump(grid, width=1.0), gaussian_bump(grid, width=1.5)
    plain = SeparableForcing(lambda t: 1.0 + t, shape) if forced else None
    f = CountingForcing(lambda t: 1.0 + t, shape) if forced else None
    cs = plain.coefs(nodes).tolist() if forced else [None] * nodes.size
    # the per-node sum reads the fields' spectra, c(t) S^
    f_specs = ([cached_forcing(plain)(t).spectrum for t in nodes] if forced
               else None)
    old_stream = list(references.duhamel_stream_fields(
        u0, plain and cached_forcing(plain), path, nodes))

    eps = np.finfo(float).eps
    got = list(_duhamel_stream(u0, f, path, nodes))
    assert len(got) == steps + 1 and got[0][0] is u0
    # c is read once, at every node, in order, and no field is built
    assert not forced or [ts.tolist() for ts in f.calls] == [nodes.tolist()]
    for k, (u, c_k) in enumerate(got):
        assert c_k == cs[k]
        if k == 0:
            continue
        expected = references.duhamel_spectrum_per_node(
            u0.spectrum, full, f_specs, nodes, k)
        scale_k = np.abs(u0.spectrum)
        if forced:
            w = _trapezoid_weights(nodes[:k + 1])
            scale_k = scale_k + sum(w_i * np.abs(f_i)
                                    for w_i, f_i in zip(w, f_specs))
        assert np.all(np.abs(u.spectrum - expected)
                      <= 4 * (k + 1) * eps * scale_k), k
        # and within the same bound of the recurrence over the fields
        # f(t_k), one built per node, that this stream replaced
        old = old_stream[k][0].spectrum
        assert np.all(np.abs(u.spectrum - old)
                      <= 4 * (k + 1) * eps * scale_k), k


def test_duhamel_sum_memory_is_the_output_plus_two_blocks():
    spec0, quads, f_specs, nodes, _ = duhamel_case(2, "geometric", 32, 1.0,
                                                   "quadrature", True, n=128)
    # the forms on the half lattice: last-axis indices 0..n/2
    assert quads.shape == (33, 128, 65)
    field = spec0.nbytes
    rows = max(1, solver._BLOCK_BYTES // field)
    # output plus one row of blocks (rows = 1 here): the complex factor and
    # term blocks and the real exponent and mask blocks on the half lattice,
    # 2.5 fields; then the weighted forcing and the endpoint term with its
    # operands.  The complex factors need no casting buffer.
    assert rows == 1
    bound = 32 * field + rows * field + rows * field // 2 + 4 * field
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        spectra = _duhamel_spectra(spec0, quads, f_specs, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spectra.nbytes == 32 * field
    assert peak - base <= bound


def test_exp_is_plus_zero_from_the_underflow_mask_down():
    # _duhamel_spectra sets the factors of exponents <= solver._UNDERFLOW
    # to +0.0 without calling exp; exp must give exactly that there
    assert solver._UNDERFLOW == -746.0
    x = np.concatenate([np.linspace(-1e6, -746.0, 1_000_001),
                        -746.0 - 1e-4 * np.arange(100_000)])
    y = np.exp(x)
    assert not y.any() and not np.signbit(y).any()
    # exp(-745.0) is a nonzero subnormal: the mask cannot move up to it
    assert 0.0 < np.exp(-745.0) < np.finfo(float).tiny


def test_complex_times_real_is_complex_times_real_plus_zero_i():
    # _duhamel_spectra multiplies by complex(e, +0) blocks where the
    # per-node sum multiplies by real e; numpy must cast e that way
    parts = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -3e-320, 1.0,
                      -2.5, 1e-300, 7e150, np.pi])
    re, im = np.meshgrid(parts, parts, indexing="ij")
    c = np.empty(re.size, dtype=complex)
    c.real, c.imag = re.ravel(), im.ravel()
    r = np.concatenate([parts, np.exp(-np.linspace(700.0, 745.0, 10))])
    cc, rr = np.meshgrid(c, r, indexing="ij")
    as_complex = np.zeros(rr.shape, dtype=complex)
    as_complex.real = rr
    assert (np.multiply(cc, rr).tobytes()
            == np.multiply(cc, as_complex).tobytes())
    # broadcast over a block with out=, as the sum does
    block = np.empty((2,) + cc.shape, dtype=complex)
    expected = np.multiply(cc, np.stack([rr, rr[::-1]]))
    np.multiply(cc, np.stack([as_complex, as_complex[::-1]]), out=block)
    assert block.tobytes() == expected.tobytes()
    # the endpoint factor exp(q_k - q_k) as the scalar 1.0
    assert (cc * 1.0).tobytes() == (cc * np.exp(np.zeros(cc.shape))).tobytes()


@pytest.mark.parametrize("call", ["solve_duhamel", "check_thm1",
                                  "check_thm2", "check_classic"])
def test_forced_solve_holds_one_forcing_field_at_a_time(call):
    # n = 128, K = 32: all forcing spectra would take as much as the output
    grid = GridSpec(dim=2, n=128, length=16.0)
    shape = gaussian_bump(grid, width=1.5)
    u0 = gaussian_bump(grid, width=1.0)
    f = SeparableForcing(lambda t: 1.0 + t, shape)
    path = parse_coefficients(expr_matrix_text(2), 2)
    part = TimePartition.geometric(32, 1.0)
    prof = power_profile(1.0)
    run = {"solve_duhamel": lambda: solve_duhamel(u0, f, path, part),
           "check_thm1": lambda: check_thm1(u0, f, path, prof, 0.0, 2.0,
                                            part),
           # a path the profile dominates, so that the check solves
           "check_thm2": lambda: check_thm2_at_horizon(
               u0, scalar_path(prof, 2), prof, 2.0, part),
           "check_classic": lambda: check_classic(u0, f, path, part,
                                                  2.0)}[call]
    report = run()  # fills the lattice caches before tracing
    # an inadmissible check_thm2 returns before it solves
    assert call != "check_thm2" or report.admissible
    field = u0.spectrum.nbytes
    # the 33 real quadratic forms (half of this on the half lattice), plus
    # for solve_duhamel eight complex fields: the initial snapshot, the two
    # block buffers (and the exponent and mask blocks), the previous and
    # the current forcing spectrum with its samples, its weighted copy and
    # the endpoint term with its operands, and its 32 snapshot spectra.
    # The checks stream their snapshots and build no forcing field: five
    # complex fields hold the complex factor (and the exponent block), the
    # previous and the current snapshot and the two terms (dt / 2 c) S^
    kept = 32 * field + 8 * field if call == "solve_duhamel" else 5 * field
    bound = kept + 33 * field // 2
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= bound


@pytest.mark.parametrize("forced", [False, True])
def test_duhamel_sum_writes_only_into_its_output(forced):
    spec0, quads, f_specs, nodes, _ = duhamel_case(2, "geometric", 6, 1.0,
                                                   "quadrature", forced)
    inputs = [spec0, quads, nodes] + (f_specs or [])
    before = [x.copy() for x in inputs]
    spectra = _duhamel_spectra(spec0, quads, f_specs, nodes)
    for x, y in zip(inputs, before):
        assert x.tobytes() == y.tobytes()
        assert not np.shares_memory(spectra, x)


def saved_report(tmp_path, dim):
    grid = GRIDS[dim]
    part = TimePartition.geometric(5, 0.5)
    path = parse_coefficients(expr_matrix_text(dim), dim)
    shape = gaussian_bump(grid, width=1.5)
    f = lambda t: scaled_field(shape, 1.0 + t)
    snapshots = solve_duhamel(gaussian_bump(grid, width=1.0), f, path, part)
    outdir = tmp_path / "report"
    save_report(snapshots, f, path, part, outdir, p=2.0)
    return snapshots, part, outdir


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_report_round_trip_is_bit_identical(tmp_path, dim):
    solved, part, outdir = saved_report(tmp_path, dim)
    assert sorted(p.name for p in outdir.iterdir()) == \
        ["meta", "norms.csv", "snapshots.bin"]
    meta, nodes, snapshots = load_report(outdir)
    assert meta["nodes"] == str(len(solved))
    assert nodes.tolist() == part.nodes.tolist()
    assert len(snapshots) == len(solved)
    grid = GRIDS[dim]
    for a, b in zip(snapshots, solved):
        assert a.grid == grid
        assert a.samples.tobytes() == b.samples.tobytes()
        assert not a.samples.flags.owndata
    # header: int64 dim, n, count, float64 period, then the stacked fields
    raw = (outdir / "snapshots.bin").read_bytes()
    assert np.frombuffer(raw[:24], dtype=np.int64).tolist() == \
        [dim, grid.n, len(solved)]
    assert np.frombuffer(raw[24:32], dtype=np.float64)[0] == grid.length
    assert raw[32:] == b"".join(s.samples.tobytes() for s in solved)


@pytest.mark.parametrize("damage", ["truncated-header", "short", "long",
                                    "partial-sample", "count"])
def test_load_report_rejects_a_damaged_snapshot_file(tmp_path, damage):
    *_, outdir = saved_report(tmp_path, 2)
    snaps = outdir / "snapshots.bin"
    raw = snaps.read_bytes()
    if damage == "count":
        meta = (outdir / "meta").read_text()
        (outdir / "meta").write_text(meta.replace("nodes=6", "nodes=5"))
    else:
        snaps.write_bytes({"truncated-header": raw[:20], "short": raw[:-8],
                           "long": raw + bytes(8),
                           "partial-sample": raw[:-3]}[damage])
    with pytest.raises(ValueError, match="snapshots.bin"):
        load_report(outdir)
