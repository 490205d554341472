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

import functools
from dataclasses import dataclass

import numpy as np

from .degeneracy import accumulate_on
from .solver import TimePartition, _trapezoid_weights
from .spectral import SpectralField, _freq_grids, lp_norm

DEFAULT_CHUNK = 16384  # samples per RNG chunk of mc_solve
_MC_NODES = 4  # stratified forcing nodes per Monte Carlo path


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
    halves, wholes = _stencil_sines(grid)
    out = np.zeros(grid.shape)
    for i in range(grid.dim):
        out -= (4.0 * mat[i, i]) * halves[i]
        for j in range(i + 1, grid.dim):
            out -= ((2.0 * mat[i, j]) * wholes[i]) * wholes[j]
    return out / grid.spacing ** 2


@functools.lru_cache(maxsize=64)
def _stencil_sines(grid):
    """sin^2(xi_i h / 2) and sin(xi_i h) on the lattice, one per axis."""
    h, comps = grid.spacing, _freq_grids(grid)
    return (tuple(np.sin(0.5 * h * c) ** 2 for c in comps),
            tuple(np.sin(h * c) for c in comps))


def _fd_steps(u0, f, path, nodes):
    """Crank-Nicolson finite-difference snapshots at nodes 1..K in turn,
    each made from its spectrum.

    Periodic boundary, central second differences and four-point cross
    stencils; each step uses the coefficients averaged exactly over the
    step (robust for oscillatory paths) and the forcing sampled at the
    step midpoint t_m = 0.5 t_k + 0.5 t_(k+1).  The stencils are
    circulant, so each step is solved mode by mode in the DFT basis with
    the scheme's symbol lam:

        u_hat <- (u_hat (1 + 0.5 dt lam) + dt f_hat(t_m)) / (1 - 0.5 dt lam)

    with f_hat(t_m) the (cached) spectrum of the field f(t_m).  The
    denominator is >= 1 (lam <= 0 for PSD coefficients), so every step is
    well posed.  This shares the FFT and the frequency lattice with the
    spectral solver, not its propagator, its exact time integration or its
    quadratic form.  Expected accuracy O(h^2 + dt^2).
    """
    grid = u0.grid
    cums = accumulate_on(path, nodes)
    spec = u0.spectrum
    for k in range(nodes.size - 1):
        t0, t1 = nodes[k], nodes[k + 1]
        dt = t1 - t0
        lam = _stencil_symbol(grid, (cums[k + 1] - cums[k]) / dt)
        spec = spec * (1.0 + 0.5 * dt * lam)
        if f is not None:
            spec = spec + dt * f(0.5 * t0 + 0.5 * t1).spectrum
        spec = spec / (1.0 - 0.5 * dt * lam)
        yield SpectralField.from_spectrum(grid, spec)


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

    with exact Gaussian increments: X_t has covariance 2 B(0, t), where
    B(s, t) = int_s^t a dr.  The forcing term is the trapezoid sum over
    the partition nodes, sampled at _MC_NODES stratified nodes per path:
    node j is I_j, the first i with cdf_i > (j + U_j) / _MC_NODES over
    the cumulative weights cdf = cumsum(w) / sum(w), U_j uniform, and
    Y_j = X_t - X_(t_i) at i = I_j is drawn directly, with covariance
    2 B(t_i, t).  The path's value u0(x + X_t) + sum(w) / _MC_NODES *
    sum_j f(t_(I_j), x + Y_j) is unbiased for the trapezoid sum.  Chunks
    of DEFAULT_CHUNK samples are deterministically seeded: chunk c uses
    default_rng([seed, c]) and draws X_t first, and chunk sums are reduced
    in index order, so results do not depend on execution interleaving.
    Memory is O(probes chunk (_MC_NODES + dim) + K dim^2 + K n^dim).
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
    # covariance factors of X_t - X_(t_i) at every node i, X_t at i = 0
    factors = np.array([_sqrt_cov(2.0 * (cums[-1] - c)) for c in cums])
    u0_coeffs = _spline_coeffs(u0)
    if f is not None:
        f_coeffs = [_spline_coeffs(f(s)) for s in nodes]
        cdf = np.cumsum(_trapezoid_weights(nodes))
        scale = cdf[-1] / _MC_NODES
        cdf = cdf / cdf[-1]
        cdf[-1] = np.inf  # (j + U) / 4 can round to 1.0: the last node

    m = points.shape[0]
    total = total_sq = 0.0
    for chunk_index, done in enumerate(range(0, samples, DEFAULT_CHUNK)):
        size = min(DEFAULT_CHUNK, samples - done)
        rng = np.random.default_rng([seed, chunk_index])
        x_t = rng.standard_normal((size, path.dim)) @ factors[0].T
        vals = _periodic_interp(u0_coeffs, grid, points[:, None] + x_t)
        if f is not None:
            q = np.arange(_MC_NODES) + rng.random((size, _MC_NODES))
            drawn = np.searchsorted(cdf, q.ravel() / _MC_NODES, side="right")
            z = rng.standard_normal((drawn.size, path.dim, 1))
            incs = (factors[drawn] @ z)[..., 0]
            forced = np.empty((m, drawn.size))
            # one interpolation per drawn node, over the rows that drew it
            order = np.argsort(drawn, kind="stable")
            drawn_nodes, starts = np.unique(drawn[order], return_index=True)
            for i, rows in zip(drawn_nodes, np.split(order, starts[1:])):
                forced[:, rows] = _periodic_interp(
                    f_coeffs[i], grid, points[:, None] + incs[rows])
            vals += scale * forced.reshape(m, size, _MC_NODES).sum(axis=2)
        total += vals.sum(axis=1)
        total_sq += (vals ** 2).sum(axis=1)

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
