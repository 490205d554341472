"""Cross-checks between the spectral route and its two independent oracles."""

import functools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from degparab import (GridSpec, SeparableForcing, SpectralField,
                      TimePartition, accumulate_on, build_forcing,
                      char_function_check, compare_fields, constant_matrix_path, constant_profile,
                      convergence_orders, cumulative_delta,
                      gaussian_bump, mc_solve, oscillatory_profile,
                      parse_coefficients, sample_increments, scalar_path,
                      solve_duhamel)
from degparab import oracle
from degparab.oracle import _fd_steps, _stencil_symbol
from references import (mc_solve_grouped, mc_solve_per_chunk,
                        stencil_symbol_uncached)

GRID = GridSpec(dim=1, n=512, length=32.0)
HEAT = scalar_path(constant_profile(1.0), 1)
EPS = np.finfo(float).eps


# Reference stepper: the stencils assembled as sparse matrices and every
# Crank-Nicolson step solved by sparse LU.  _fd_steps must reproduce it to
# rounding.

@functools.lru_cache(maxsize=16)
def _shift_matrix(grid, offset):
    """Sparse periodic shift: (S u)[x] = u[x + offset * spacing]."""
    size = grid.n ** grid.dim
    idx = np.arange(size).reshape(grid.shape)
    cols = np.roll(idx, shift=tuple(-o for o in offset),
                   axis=tuple(range(grid.dim))).ravel()
    return scipy.sparse.csr_matrix(
        (np.ones(size), (np.arange(size), cols)), shape=(size, size))


@functools.lru_cache(maxsize=16)
def _stencil_parts(grid):
    """Second-difference operators per axis and per cross pair.

    axis i: (S_+i + S_-i - 2 I) / h^2;  pair (i, j):
    (S_++ + S_-- - S_+- - S_-+) / (4 h^2), the symmetric four-point cross.
    """
    h = grid.spacing
    dim = grid.dim
    eye = scipy.sparse.identity(grid.n ** dim, format="csr")

    def unit(i, sign):
        off = [0] * dim
        off[i] = sign
        return tuple(off)

    def pair(i, j, si, sj):
        off = [0] * dim
        off[i], off[j] = si, sj
        return tuple(off)

    diag = [(_shift_matrix(grid, unit(i, +1)) + _shift_matrix(grid, unit(i, -1))
             - 2.0 * eye) / h ** 2 for i in range(dim)]
    cross = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            cross[(i, j)] = (_shift_matrix(grid, pair(i, j, +1, +1))
                             + _shift_matrix(grid, pair(i, j, -1, -1))
                             - _shift_matrix(grid, pair(i, j, +1, -1))
                             - _shift_matrix(grid, pair(i, j, -1, +1))) \
                / (4.0 * h ** 2)
    return diag, cross


def _assemble(grid, mat):
    """a^ij u_xixj with Einstein summation: diagonal plus doubled crosses."""
    diag, cross = _stencil_parts(grid)
    op = mat[0, 0] * diag[0]
    for i in range(1, grid.dim):
        op = op + mat[i, i] * diag[i]
    for (i, j), stencil in cross.items():
        op = op + 2.0 * mat[i, j] * stencil
    return op


def _lu_fd_solve(u0, f, path, partition):
    """The Crank-Nicolson scheme of _fd_steps, one sparse LU per step."""
    grid = u0.grid
    nodes = partition.nodes
    cums = accumulate_on(path, nodes)
    eye = scipy.sparse.identity(grid.n ** grid.dim, format="csr")
    u = u0.samples.ravel().copy()
    snapshots = [u0.samples.copy()]
    for k in range(nodes.size - 1):
        t0, t1 = nodes[k], nodes[k + 1]
        dt = t1 - t0
        op = _assemble(grid, (cums[k + 1] - cums[k]) / dt)
        rhs = u + 0.5 * dt * (op @ u)
        if f is not None:
            rhs = rhs + dt * f(0.5 * t0 + 0.5 * t1).samples.ravel()
        u = scipy.sparse.linalg.splu(
            (eye - 0.5 * dt * op).tocsc()).solve(rhs)
        snapshots.append(u.reshape(grid.shape).copy())
    return snapshots


def fd_final(u0, f, path, partition):
    """The last of _fd_steps' snapshots."""
    for last in _fd_steps(u0, f, path, partition.nodes):
        pass
    return last


def heat_gaussian(grid, width, t):
    x = np.stack(np.meshgrid(
        *[np.linspace(-grid.length / 2, grid.length / 2, grid.n,
                      endpoint=False)] * grid.dim, indexing="ij"), axis=-1)
    var = width ** 2 + 2.0 * t
    amp = (width ** 2 / var) ** (grid.dim / 2.0)
    r2 = np.sum(x ** 2, axis=-1)
    return SpectralField(grid, amp * np.exp(-r2 / (2.0 * var)))


def test_fd_heat_matches_exact():
    u0 = gaussian_bump(GRID, width=2.0)
    final = fd_final(u0, None, HEAT, TimePartition.uniform(512, 0.5))
    exact = heat_gaussian(GRID, 2.0, 0.5)
    err = compare_fields(exact, final, math.inf)
    assert err < 1e-4


def test_fd_second_order_in_time():
    # self convergence against a fine-step run on the same grid, so the
    # fixed h^2 spatial error cancels and only the dt^2 term remains
    u0 = gaussian_bump(GRID, width=2.0)
    ref = fd_final(u0, None, HEAT, TimePartition.uniform(2048, 0.5))
    errs = []
    for K in (64, 128, 256):
        final = fd_final(u0, None, HEAT, TimePartition.uniform(K, 0.5))
        errs.append(compare_fields(ref, final, math.inf))
    orders = convergence_orders(errs)
    assert all(o > 1.9 for o in orders)


def test_fd_oscillatory_step_average_keeps_order():
    prof = oscillatory_profile()
    path = scalar_path(prof, 1)
    u0 = gaussian_bump(GRID, width=2.0)
    ref = fd_final(u0, None, path, TimePartition.uniform(2048, 0.5))
    errs = []
    for K in (64, 128):
        final = fd_final(u0, None, path, TimePartition.uniform(K, 0.5))
        errs.append(compare_fields(ref, final, math.inf))
    assert convergence_orders(errs)[0] > 1.9


def test_fd_zero_coefficients_affine_forcing_exact():
    # A = 0, f = (1 + 2t) g: midpoint forcing quadrature is exact
    # for affine integrands
    g = gaussian_bump(GRID, width=1.5)
    u0 = gaussian_bump(GRID, width=2.0)
    f = SeparableForcing(lambda t: 1.0 + 2.0 * t, g)
    path = scalar_path(constant_profile(0.0), 1)
    final = fd_final(u0, f, path, TimePartition.uniform(16, 1.0))
    # int_0^1 (1 + 2t) dt = 2
    expected = SpectralField(GRID, u0.samples + 2.0 * g.samples)
    assert compare_fields(expected, final, math.inf) < 1e-12


def test_fd_dim2_cross_terms():
    grid = GridSpec(dim=2, n=64, length=32.0)
    path = constant_matrix_path([[2.0, 1.0], [1.0, 2.0]])
    u0 = gaussian_bump(grid, width=2.0)
    final = fd_final(u0, None, path, TimePartition.uniform(32, 0.25))
    ref = solve_duhamel(u0, None, path, TimePartition.uniform(2, 0.25))
    assert compare_fields(ref[-1], final, math.inf) < 5e-3


FD_GRIDS = {1: GridSpec(dim=1, n=128, length=16.0),
            2: GridSpec(dim=2, n=16, length=8.0),
            3: GridSpec(dim=3, n=8, length=8.0)}


def _random_psd(dim, seed):
    g = np.random.default_rng(seed).standard_normal((dim, dim))
    mat = g @ g.T / dim
    return 0.5 * (mat + mat.T)


def _coefficient_path(kind, dim, seed):
    if kind == "scalar":
        return parse_coefficients("scalar(power(1))", dim)
    if kind == "constant":
        return constant_matrix_path(_random_psd(dim, seed))
    rows = [[("1 + t" if i == j else "0.1*t") for j in range(dim)]
            for i in range(dim)]
    return parse_coefficients("matrix([" + ", ".join(
        "[" + ", ".join(f'"{e}"' for e in row) + "]" for row in rows)
        + "])", dim)


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]),
       kind=st.sampled_from(["uniform", "geometric"]),
       steps=st.integers(2, 12),
       horizon=st.floats(0.05, 1.0),
       coefficients=st.sampled_from(["scalar", "constant", "expr"]),
       forced=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_fd_solve_matches_sparse_lu_stepper(dim, kind, steps, horizon,
                                            coefficients, forced, seed):
    grid = FD_GRIDS[dim]
    part = getattr(TimePartition, kind)(steps, horizon)
    path = _coefficient_path(coefficients, dim, seed)
    u0 = gaussian_bump(grid, width=1.0)
    shape = gaussian_bump(grid, width=0.7)
    f = (SeparableForcing(lambda t: 1.0 + np.sin(3.0 * t), shape) if forced
         else None)
    ref = _lu_fd_solve(u0, f, path, part)
    got = [u0, *_fd_steps(u0, f, path, part.nodes)]
    # each LU step solves a system with condition number up to kappa and
    # the propagation is contractive, so rounding adds up over K steps
    nodes = part.nodes
    cums = accumulate_on(path, nodes)
    kappa = max(float(np.max(1.0 - 0.5 * dt * _stencil_symbol(
        grid, (cb - ca) / dt)))
        for ca, cb, dt in zip(cums[:-1], cums[1:], np.diff(nodes)))
    scale = max(float(np.max(np.abs(u))) for u in ref)
    tol = 16.0 * part.steps * kappa * EPS * scale
    assert len(got) == len(ref)
    for a, b in zip(ref, got):
        assert np.max(np.abs(a - b.samples)) <= tol


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stencil_symbol_is_the_assembled_operator_on_plane_waves(dim):
    grid = FD_GRIDS[dim]
    mat = _random_psd(dim, 100 + dim)
    # plane waves exp(i xi . x) at every lattice xi, built from the n-th
    # roots of unity with an integer phase index, so each entry is within
    # an ulp of the exact wave and the shift identities hold to rounding
    idx = np.indices(grid.shape).reshape(dim, -1)
    roots = np.exp(2j * np.pi * np.arange(grid.n) / grid.n)
    waves = roots[(idx.T @ idx) % grid.n]  # column q: the wave of mode q
    # grid point 0 sits at -L/2, so the wave at mode q is this column times
    # a unit constant, which the eigenvalue relation does not see
    lam = _stencil_symbol(grid, mat).ravel()
    applied = _assemble(grid, mat) @ waves
    err = np.max(np.abs(applied - waves * lam[None, :]))
    assert err <= 64.0 * EPS * np.max(np.abs(mat)) * dim ** 2 \
        / grid.spacing ** 2


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stencil_symbol_cache_is_bit_for_bit(dim):
    grid = FD_GRIDS[dim]
    for seed in range(3):
        mat = _random_psd(dim, 200 + 10 * dim + seed)
        assert (_stencil_symbol(grid, mat).tobytes()
                == stencil_symbol_uncached(grid, mat).tobytes())


def until(t):
    """A partition ending at t; without forcing mc_solve reads only its
    horizon."""
    return TimePartition.uniform(1, t)


def test_mc_frozen_solution_at_nodes():
    # A = 0, f = 0: X == 0, every sample returns u0(x) itself, so the
    # estimate at grid nodes is exact with zero spread
    u0 = gaussian_bump(GRID, width=2.0)
    path = scalar_path(constant_profile(0.0), 1)
    pts = np.array([-8.0, 0.0, GRID.spacing * 3])
    est = mc_solve(u0, None, path, until(0.7), pts, 2000, seed=5)
    idx = np.round((pts + GRID.length / 2) / GRID.spacing).astype(int)
    exact = u0.samples[idx]
    assert np.max(np.abs(est.mean - exact)) < 1e-12
    assert np.max(est.stderr) < 1e-12


def test_mc_heat_within_three_sigma():
    u0 = gaussian_bump(GRID, width=2.0)
    t = 0.3
    pts = np.linspace(-6.0, 6.0, 5)
    est = mc_solve(u0, None, HEAT, until(t), pts, 40000, seed=11)
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
    est = mc_solve(u0, None, path, until(t), pts, 40000, seed=17)
    exact = np.exp(-pts ** 2 / (2.0 * var)) * math.sqrt(2.0 ** 2 / var)
    gaps = np.abs(est.mean - exact)
    assert np.all(gaps <= 3.0 * est.stderr + 1e-4)


def test_mc_deterministic_replay():
    u0 = gaussian_bump(GRID, width=2.0)
    a = mc_solve(u0, None, HEAT, until(0.2), [0.0, 1.0], 5000, seed=3)
    b = mc_solve(u0, None, HEAT, until(0.2), [0.0, 1.0], 5000, seed=3)
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.stderr, b.stderr)


def test_mc_chunking_consistency(monkeypatch):
    # the chunk layout is part of the RNG key, so different layouts give
    # different draws; they must still agree statistically
    u0 = gaussian_bump(GRID, width=2.0)
    monkeypatch.setattr(oracle, "DEFAULT_CHUNK", 20000)
    a = mc_solve(u0, None, HEAT, until(0.2), [0.5], 20000, seed=9)
    monkeypatch.setattr(oracle, "DEFAULT_CHUNK", 1024)
    b = mc_solve(u0, None, HEAT, until(0.2), [0.5], 20000, seed=9)
    gap = abs(float(a.mean[0]) - float(b.mean[0]))
    assert gap <= 4.0 * (float(a.stderr[0]) + float(b.stderr[0]))


def test_mc_stderr_scaling():
    u0 = gaussian_bump(GRID, width=2.0)
    sizes = (4000, 8000, 16000)
    errs = [float(np.max(mc_solve(u0, None, HEAT, until(0.3), [0.0], n,
                                  seed=21).stderr))
            for n in sizes]
    slopes = np.diff(np.log(errs)) / np.diff(np.log(sizes))
    assert np.all((-0.6 < slopes) & (slopes < -0.4))
    for a, b in zip(errs[1:], errs[:-1]):
        assert b / a < 1.5 + 1e-9


def test_mc_rejects_insufficient_samples():
    u0 = gaussian_bump(GRID, width=2.0)
    with pytest.raises(ValueError):
        mc_solve(u0, None, HEAT, until(0.2), [0.0], 10, seed=0)


def test_mc_rejects_wrong_point_dim():
    grid = GridSpec(dim=2, n=32, length=16.0)
    u0 = gaussian_bump(grid, width=2.0)
    path = constant_matrix_path([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        mc_solve(u0, None, path, until(0.1), np.zeros((3, 1)), 2000,
                 seed=0)


def test_mc_forcing_matches_duhamel():
    g = gaussian_bump(GRID, width=1.5)
    u0 = gaussian_bump(GRID, width=2.0)
    f = SeparableForcing(lambda t: t, g)
    part = TimePartition.uniform(32, 0.4)
    ref = solve_duhamel(u0, f, HEAT, part)
    pts = np.array([-2.0, 0.0, 3.0])
    est = mc_solve(u0, f, HEAT, part, pts, 40000, seed=29)
    idx = np.round((pts + GRID.length / 2) / GRID.spacing).astype(int)
    gaps = np.abs(est.mean - ref[-1].samples[idx])
    assert np.all(gaps <= 3.0 * est.stderr + 1e-3)


MC_GRIDS = {1: GridSpec(dim=1, n=64, length=16.0),
            2: GridSpec(dim=2, n=16, length=8.0)}


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2]),
       kind=st.sampled_from(["uniform", "geometric"]),
       steps=st.integers(2, 6),
       coefficients=st.sampled_from(["scalar", "constant"]),
       probes=st.integers(1, 5),
       seed=st.integers(0, 2 ** 16),
       data=st.data())
def test_mc_homogeneous_matches_per_chunk_walk(dim, kind, steps,
                                               coefficients, probes, seed,
                                               data):
    # without forcing both draw X_t alone from each chunk's stream; chunks
    # that divide samples (extra == 0) and chunks that do not, down to a
    # last chunk of one sample
    chunk = data.draw(st.integers(300, 1200), label="chunk")
    least = -(-1000 // chunk)
    full = data.draw(st.integers(least, least + 2), label="full")
    extra = data.draw(st.integers(0, chunk - 1), label="extra")
    samples = chunk * full + extra
    grid = MC_GRIDS[dim]
    t = 0.3
    part = getattr(TimePartition, kind)(steps, t)
    path = _coefficient_path(coefficients, dim, seed)
    u0 = gaussian_bump(grid, width=1.5)
    pts = np.random.default_rng(seed).uniform(
        -grid.length / 2, grid.length / 2, (probes, dim))
    args = (u0, None, path, part, pts, samples, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "DEFAULT_CHUNK", chunk)
        got = mc_solve(*args)
    ref = mc_solve_per_chunk(*args, chunk=chunk)
    assert got.mean.tobytes() == ref.mean.tobytes()
    assert got.stderr.tobytes() == ref.stderr.tobytes()


@pytest.mark.parametrize("kind", ["uniform", "geometric"])
@pytest.mark.parametrize("dim", [1, 2])
def test_mc_stratified_nodes_agree_with_the_all_node_sum(dim, kind):
    # four sampled nodes per path against every node of the trapezoid, on
    # independent streams
    grid = MC_GRIDS[dim]
    t = 0.3
    part = getattr(TimePartition, kind)(12, t)
    path = (scalar_path(oscillatory_profile(), 1) if dim == 1 else
            constant_matrix_path([[1.0, 0.4], [0.4, 0.6]]))
    u0 = gaussian_bump(grid, width=1.5)
    shape = gaussian_bump(grid, width=1.0)
    f = SeparableForcing(lambda s: 1.0 + 4.0 * np.sin(9.0 * s), shape)
    pts = np.random.default_rng(dim).uniform(-2.0, 2.0, (4, dim))
    got = mc_solve(u0, f, path, part, pts, 40000, seed=31)
    ref = mc_solve_per_chunk(u0, f, path, part, pts, 40000, seed=32)
    gaps = np.abs(got.mean - ref.mean)
    assert np.all(gaps <= 4.0 * np.hypot(got.stderr, ref.stderr))


@pytest.mark.parametrize("kind", ["uniform", "geometric"])
@pytest.mark.parametrize("dim", [1, 2])
def test_mc_one_shape_spline_matches_the_per_node_splines(dim, kind):
    # the same draws as the grouped estimator, which filters one spline of
    # f(t_i) per node: the shape's one spline scaled by c(t_i) moves mean
    # and stderr only by rounding
    grid = MC_GRIDS[dim]
    t = 0.3
    part = getattr(TimePartition, kind)(12, t)
    path = (scalar_path(oscillatory_profile(), 1) if dim == 1 else
            constant_matrix_path([[1.0, 0.4], [0.4, 0.6]]))
    u0 = gaussian_bump(grid, width=1.5)
    f = SeparableForcing(lambda s: 1.0 + 4.0 * np.sin(9.0 * s),
                         gaussian_bump(grid, width=1.0))
    pts = np.random.default_rng(dim).uniform(-2.0, 2.0, (4, dim))
    samples = oracle.DEFAULT_CHUNK + 3000  # a full and a partial chunk
    got = mc_solve(u0, f, path, part, pts, samples, seed=31)
    ref = mc_solve_grouped(u0, f, path, part, pts, samples, seed=31)
    assert np.all(np.abs(got.mean - ref.mean) <= 1e-12 * np.abs(ref.mean))
    assert np.all(np.abs(got.stderr - ref.stderr) <= 1e-12 * ref.stderr)


@pytest.mark.parametrize("spec, dim, kind, steps", [
    ("scalar(power(1))", 1, "geometric", 128),
    ('matrix([["t", "0.5*t"], ["0.5*t", "t"]])', 2, "geometric", 32),
    ("matrix([[1.0, 0.4], [0.4, 0.6]])", 2, "uniform", 64)])
def test_stacked_covariance_factors_are_the_per_matrix_ones(spec, dim, kind,
                                                            steps):
    # mc_solve factors the covariances of all K + 1 nodes in one call
    nodes = getattr(TimePartition, kind)(steps, 1.0).nodes
    cums = accumulate_on(parse_coefficients(spec, dim), nodes)
    covs = 2.0 * (cums[-1] - cums)
    per_matrix = np.array([oracle._sqrt_cov(cov) for cov in covs])
    assert oracle._sqrt_cov(covs).tobytes() == per_matrix.tobytes()


def test_each_stacked_covariance_is_checked_against_its_own_scale():
    # -1e-9 is rounding next to 1e6, but not next to 1
    big, small = np.diag([1e6, 1e6]), np.diag([1.0, -1e-9])
    with pytest.raises(ValueError, match="negative eigenvalue -1.000e-09"):
        oracle._sqrt_cov(np.array([big, small]))
    factors = oracle._sqrt_cov(np.array([np.diag([1e6, -1e-9]),
                                         np.zeros((2, 2))]))
    assert factors.shape == (2, 2, 2) and np.all(factors[1] == 0.0)


def test_mc_memory_is_set_by_the_chunk_not_the_partition():
    grid = GridSpec(dim=1, n=64, length=16.0)
    steps, probes, chunk, dim, word = 256, 3, oracle.DEFAULT_CHUNK, 1, 8
    draws = oracle._MC_NODES * chunk  # forcing nodes drawn per chunk
    u0 = gaussian_bump(grid, width=1.5)
    shape = gaussian_bump(grid, width=1.0)
    f = SeparableForcing(lambda s: 1.0 + s, shape)
    part = TimePartition.uniform(steps, 0.3)
    pts = np.linspace(-4.0, 4.0, probes)
    # per chunk: the normals of X_t and X_t; the probe positions, their
    # grid coordinates and a contiguous copy, and the u0 values (vals);
    # the uniforms, the strata, their scaled copy and the drawn node
    # indices; the normals, gathered factors and increments of the drawn
    # nodes; one stratum's node indices and c values; the forcing values;
    # the node sums, their scaled copy and vals squared.  Per run: the
    # initial and the shape's spline coefficient arrays, and K + 1 values
    # of c and covariance factors; 64 KiB for Python objects.  No
    # (chunk, K) array: a chunk of 16384 paths over 256 steps alone would
    # be 32 MiB, and no per-node spline or grouping by node
    bound = word * (2 * chunk * dim + 3 * probes * chunk * dim
                    + probes * chunk + 4 * draws
                    + draws * (2 * dim + dim * dim) + 2 * chunk
                    + probes * draws + 3 * probes * chunk
                    + 2 * grid.n + (steps + 1) * (1 + dim * dim)
                    ) + 64 * 1024
    import scipy.ndimage  # loaded before tracing: its import is not a buffer
    tracemalloc.start()
    try:
        mc_solve(u0, f, HEAT, part, pts, chunk, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound


@pytest.mark.parametrize("dim", [1, 2])
def test_fd_snapshots_own_their_samples(dim, monkeypatch):
    # each step's samples are the real part of its inverse transform, bit
    # for bit, held without the complex transform
    grid = GridSpec(dim=dim, n=32, length=16.0)
    shape = gaussian_bump(grid, width=1.0)
    transforms = []
    ifftn = np.fft.ifftn

    def spy(*args, **kwargs):
        transforms.append(ifftn(*args, **kwargs))
        return transforms[-1]

    monkeypatch.setattr(np.fft, "ifftn", spy)
    samples = [snap.samples for snap in _fd_steps(
        gaussian_bump(grid, width=1.5),
        SeparableForcing(lambda s: 1.0 + s, shape),
        scalar_path(constant_profile(1.0), dim),
        TimePartition.uniform(6, 0.3).nodes)]
    assert len(transforms) == 6
    for snap, full in zip(samples, transforms):
        assert snap.flags.owndata
        assert not np.shares_memory(snap, full)
        assert snap.tobytes() == full.real.tobytes()


def test_fd_final_holds_a_few_fields_at_any_step_count():
    # oracle-compare's FD order check keeps only the final field of its
    # doubled-grid solve (n = 4096, K = 256 on the spectral-1d benchmark;
    # smaller here): the previous and the current step's spectrum, dt c(t)
    # times the shape's spectrum and the real symbol and its two factors,
    # about 5 complex fields, where a list of all K + 1 = 65 real snapshots
    # and their transforms takes 37
    grid = GridSpec(dim=1, n=2048, length=32.0)
    part = TimePartition.uniform(64, 1.0)
    u0 = gaussian_bump(grid, width=1.0)
    f = build_forcing('separable("1 + t", gaussian(1.5))', grid, 2.0, seed=0)
    path = parse_coefficients("scalar(power(1))", 1)

    def final():
        return fd_final(u0, f, path, part).samples

    final()  # fills the stencil caches before tracing
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        final()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 6 * u0.spectrum.nbytes


def test_sample_increments_covariance():
    path = constant_matrix_path([[2.0, 0.5], [0.5, 1.0]])
    rng = np.random.default_rng(7)
    x = sample_increments(path, 0.5, 200000, rng)
    cov = np.cov(x.T)
    expected = np.array([[2.0, 0.5], [0.5, 1.0]])  # 2 * 0.5 * a
    assert np.max(np.abs(cov - expected)) < 0.02


def test_sample_increments_rejects_non_psd():
    path = constant_matrix_path([[1.0, 3.0], [3.0, 1.0]])
    with pytest.raises(ValueError):
        sample_increments(path, 1.0, 100, np.random.default_rng(0))


def test_char_function_identity():
    prof = oscillatory_profile()
    path = scalar_path(prof, 1)
    freqs = np.linspace(0.2, 2.0, 10)[:, None]
    rows = char_function_check(path, 0.4, freqs, 200000, seed=13)
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
    est = mc_solve(u0, None, HEAT, until(0.2), [0.0, 1.5], 2000, seed=3)
    out = tmp_path / "mc.csv"
    est.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "x_0,mean,stderr,samples,seed"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert int(first[3]) == 2000
    assert int(first[4]) == 3
