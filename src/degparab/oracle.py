"""Independent cross-checks for the spectral solver.

Two routes that share nothing with the Fourier-multiplier evolution's
propagator, exact time integration or quadratic form: a Crank-Nicolson
finite-difference solve on the same periodic grid (central second
differences, four-point cross stencils, each step solved mode by mode in
the DFT basis that diagonalizes the circulant stencils, so it shares the
FFT, the frequency lattice and the coefficient integrals), and a Monte
Carlo estimator built on the stochastic representation with exact
Gaussian increments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .degeneracy import accumulate_on
from .solver import SolveReport, TimePartition, _trapezoid_weights
from .spectral import SpectralField, _freq_grids, lp_norm

DEFAULT_CHUNK = 16384  # samples per RNG chunk of mc_solve
_MC_BLOCK = 4096  # samples per block of a chunk


def _stencil_symbol(grid, mat):
    """Eigenvalue of the stencil operator a^ij u_xixj on each DFT mode.

    The central second difference along axis i has the von Neumann symbol
    (2 cos(xi_i h) - 2) / h^2 = -4 sin^2(xi_i h / 2) / h^2 (the half-angle
    form keeps low modes accurate to a relative epsilon), and the
    four-point cross stencil of pair (i, j) has -sin(xi_i h) sin(xi_j h)
    / h^2; crosses enter doubled, as in the Einstein sum.  Every stencil
    is circulant on the periodic grid, so the DFT diagonalizes it exactly.
    The symbol is <= 0 for PSD mat, since sin^2(a) <= 4 sin^2(a / 2).
    """
    h = grid.spacing
    comps = _freq_grids(grid)
    out = np.zeros(grid.shape)
    for i in range(grid.dim):
        out -= 4.0 * mat[i, i] * np.sin(0.5 * h * comps[i]) ** 2
        for j in range(i + 1, grid.dim):
            out -= (2.0 * mat[i, j] * np.sin(h * comps[i])
                    * np.sin(h * comps[j]))
    return out / h ** 2


def fd_solve(u0, f, path, partition):
    """Crank-Nicolson finite-difference solve on the partition nodes.

    Periodic boundary, central second differences and four-point cross
    stencils; each step uses the coefficients averaged exactly over the
    step (robust for oscillatory paths) and the forcing sampled at the
    step midpoint t_m = 0.5 t_k + 0.5 t_(k+1).  The stencils are
    circulant, so each step is solved mode by mode in the DFT basis with
    the scheme's symbol lam:

        u_hat <- (u_hat (1 + 0.5 dt lam) + dt fft(f(t_m))) / (1 - 0.5 dt lam)

    The denominator is >= 1 (lam <= 0 for PSD coefficients), so every
    step is well posed.  This shares the FFT and the frequency lattice
    with the spectral solver, not its propagator, its exact time
    integration or its quadratic form.  Expected accuracy O(h^2 + dt^2).
    """
    grid = u0.grid
    nodes = partition.nodes
    cums = accumulate_on(path, nodes)
    spec = u0.spectrum
    snapshots = [SpectralField(grid, u0.samples.copy())]
    for k in range(nodes.size - 1):
        t0, t1 = nodes[k], nodes[k + 1]
        dt = t1 - t0
        lam = _stencil_symbol(grid, (cums[k + 1] - cums[k]) / dt)
        spec = spec * (1.0 + 0.5 * dt * lam)
        if f is not None:
            spec = spec + dt * np.fft.fftn(f(0.5 * t0 + 0.5 * t1).samples)
        spec = spec / (1.0 - 0.5 * dt * lam)
        snapshots.append(SpectralField(grid, np.fft.ifftn(spec).real.copy()))
    return SolveReport(grid, partition, snapshots, path, forcing=f,
                       diagnostics={"method": "fd"})


def _sqrt_cov(cov):
    """Factor F with F F^T = cov; tiny negative eigenvalues are clamped."""
    w, v = np.linalg.eigh(cov)
    scale = max(1.0, float(np.abs(w).max()))
    if w[0] < -1e-12 * scale:
        raise ValueError(
            f"covariance has negative eigenvalue {w[0]:.3e}; path is not PSD")
    return v * np.sqrt(np.clip(w, 0.0, None))


def _accumulated(path, s, t):
    """B = int_s^t a dr, the difference of one accumulate_on pass."""
    if not 0 <= s <= t:
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    return np.diff(accumulate_on(path, [s, t]), axis=0)[0]


def sample_increments(path, s, t, samples, rng):
    """Draws of X_t - X_s: exact Gaussians with covariance 2 int_s^t a dr."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    cov = 2.0 * _accumulated(path, s, t)
    factor = _sqrt_cov(cov)
    z = rng.standard_normal((samples, path.dim))
    return z @ factor.T


@dataclass
class MCEstimate:
    """Monte Carlo values at probe points with per-point standard errors."""

    points: np.ndarray  # (m, dim)
    mean: np.ndarray
    stderr: np.ndarray
    samples: int
    seed: int

    def to_csv(self, pathname):
        dim = self.points.shape[1]
        with open(pathname, "w") as fh:
            head = ",".join(f"x_{i}" for i in range(dim))
            fh.write(head + ",mean,stderr,samples,seed\n")
            for pt, m, se in zip(self.points, self.mean, self.stderr):
                coords = ",".join(repr(float(c)) for c in pt)
                fh.write(f"{coords},{float(m)!r},{float(se)!r},"
                         f"{self.samples},{self.seed}\n")


def _spline_coeffs(field):
    import scipy.ndimage
    return scipy.ndimage.spline_filter(field.samples, order=3,
                                       mode="grid-wrap")


def _periodic_interp(coeffs, grid, positions):
    """Cubic periodic interpolation at absolute positions (..., dim)."""
    import scipy.ndimage
    frac = (positions + 0.5 * grid.length) / grid.spacing
    return scipy.ndimage.map_coordinates(
        coeffs, frac.reshape(-1, grid.dim).T, order=3, mode="grid-wrap",
        prefilter=False).reshape(frac.shape[:-1])


def mc_solve(u0, f, path, t, points, samples, seed, partition=None):
    """Stochastic-representation estimate of u(t, x) at probe points.

        u(t, x) = E u0(x + X_t) + int_0^t E f(s, x + X_t - X_s) ds

    with X built from exact Gaussian increments over the partition (one
    consistent path per sample, so the forcing term sees the same
    randomness as the endpoint).  The forcing integral is a trapezoid
    over the partition nodes.  Chunks of DEFAULT_CHUNK samples are
    deterministically seeded: chunk c uses default_rng([seed, c]), and chunk
    sums are reduced in index order, so results do not depend on execution
    interleaving.  A chunk is walked in blocks of _MC_BLOCK samples that
    continue its stream, so the RNG key (seed, c) does not depend on the
    block, and its values are summed whole: results equal a walk of whole
    chunks bit for bit, in O(block K dim + probes chunk) memory, not
    O(chunk K dim).
    """
    grid = u0.grid
    points = np.atleast_1d(np.asarray(points, dtype=float))
    if points.ndim == 1:
        points = points[:, None]
    if points.shape[1] != grid.dim:
        raise ValueError(f"probe points must have {grid.dim} coordinates")
    if samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {samples}")

    if f is not None:
        if partition is None:
            partition = TimePartition.uniform(64, t)
        nodes = partition.nodes
        if abs(nodes[-1] - t) > 1e-12 * max(1.0, t):
            raise ValueError(f"partition horizon {nodes[-1]} != t={t}")
    else:
        nodes = np.array([0.0, t])

    cums = accumulate_on(path, nodes)
    factors = [_sqrt_cov(2.0 * (cb - ca))
               for ca, cb in zip(cums[:-1], cums[1:])]
    u0_coeffs = _spline_coeffs(u0)
    if f is not None:
        f_coeffs = [_spline_coeffs(f(s)) for s in nodes]
        w = _trapezoid_weights(nodes)

    m = points.shape[0]
    chunk = DEFAULT_CHUNK
    total = np.zeros(m)
    total_sq = np.zeros(m)
    n_intervals = len(factors)
    # block buffers, reused; the last suffix column S[:, K] stays 0
    z_buf = np.zeros((max(2, min(_MC_BLOCK, chunk, samples)), n_intervals,
                      path.dim))
    suffix_buf = np.zeros((len(z_buf), n_intervals + 1, path.dim))
    done = 0
    chunk_index = 0
    while done < samples:
        size = min(chunk, samples - done)
        rng = np.random.default_rng([seed, chunk_index])
        vals = np.empty((m, size))
        for lo in range(0, size, _MC_BLOCK):
            # consecutive draws continue the chunk's stream
            z = rng.standard_normal(out=z_buf[:min(_MC_BLOCK, size - lo)])
            # per-interval covariances differ, apply one factor at a time;
            # matmul sends a lone row to gemv, whose rounding is not the
            # gemm of a chunk's rows, so pad it with a row never read
            rows = z_buf[:max(len(z), min(size, 2))]
            for i, fac in enumerate(factors):
                rows[:, i, :] = rows[:, i, :] @ fac.T
            # suffix sums: S[:, i] = X_t - X_{t_i}
            suffix = suffix_buf[:len(z)]
            np.cumsum(z[:, ::-1, :], axis=1, out=suffix[:, -2::-1, :])
            block = vals[:, lo:lo + len(z)]
            block[:] = _periodic_interp(u0_coeffs, grid,
                                        points[:, None] + suffix[:, 0])
            if f is not None:
                for i in range(nodes.size):
                    block += w[i] * _periodic_interp(
                        f_coeffs[i], grid, points[:, None] + suffix[:, i])
        total += vals.sum(axis=1)
        total_sq += (vals ** 2).sum(axis=1)
        done += size
        chunk_index += 1

    mean = total / samples
    var = np.maximum(total_sq - samples * mean ** 2, 0.0) / (samples - 1)
    return MCEstimate(points=points, mean=mean,
                      stderr=np.sqrt(var / samples),
                      samples=samples, seed=seed)


def char_function_check(path, s, t, freqs, samples, seed):
    """Empirical E exp(i xi . (X_t - X_s)) against the propagator symbol.

    Returns rows (xi, empirical_re, empirical_im, exact, stderr_re,
    stderr_im); the identity under test is exp(-xi^T B xi) with B the
    accumulated coefficients.
    """
    x = sample_increments(path, s, t, samples, np.random.default_rng([seed, 0]))
    b = _accumulated(path, s, t)
    rows = []
    for xi in np.atleast_2d(np.asarray(freqs, dtype=float)):
        phase = x @ xi
        cos, sin = np.cos(phase), np.sin(phase)
        exact = float(np.exp(-xi @ b @ xi))
        rows.append((tuple(xi), float(cos.mean()), float(sin.mean()), exact,
                     float(cos.std(ddof=1) / np.sqrt(samples)),
                     float(sin.std(ddof=1) / np.sqrt(samples))))
    return rows


def compare_fields(a, b, p):
    """Relative L_p distance ||a - b||_p / max(||a||_p, 1e-30)."""
    if a.grid != b.grid:
        raise ValueError(f"grid mismatch: {a.grid} vs {b.grid}")
    return lp_norm(a - b, p) / max(lp_norm(a, p), 1e-30)


def convergence_orders(errors):
    """Observed orders log2(e_i / e_(i+1)) for errors at doubled resolution."""
    errors = np.asarray(errors, dtype=float)
    return np.log2(errors[:-1] / errors[1:])
