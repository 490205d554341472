"""Test data and independent references that the package does not use.

random_band_limited draws fields the Littlewood-Paley blocks reproduce
exactly; partition_defect measures how far those blocks are from a
partition of unity.  hessian_lp_norm_every_pair, bessel_norm_by_ifft and
besov_norm_by_ifft take every norm from inverse-transformed samples, the
route the package keeps for p != 2 and replaces at p = 2 by Plancherel on
the spectrum.  accumulate_path is the per-node route to the
cumulative coefficients that accumulate_on replaced: the registered
cumulative, or one integrate_to call from 0 per entry (integrate_entries,
which also integrates single windows).  propagate evolves one field over
one window by the exact symbol, integrating the coefficients from 0 at
both ends, as a per-window check of the solver's one-pass accumulation;
time_change_solve reaches the same snapshots by the paper's change of
clock tau = beta(t), and returns the tau nodes alongside them.
duhamel_spectrum_per_node is the per-node Duhamel sum
that solver._duhamel_spectra replaced: one numpy call per (i, k) pair on
the full frequency lattice, with the weights of nodes[:k + 1], which the
blocked half-lattice sum must match bit for bit, and the O(K) recurrence
solver._duhamel_stream within k eps; quadratic_forms builds
its full-lattice forms without solver._quadratic_forms.
weak_residual_per_node is the node-by-node loop that
solver.weak_residual_profile replaced: path.a at one node at a time and
both running trapezoids added in a Python loop, which the vectorized
profile must match bit for bit.
mc_solve_per_chunk is the all-node Monte Carlo estimator that mc_solve's
stratified node sampling replaced: each path built from exact increments
over every partition interval, and the forcing trapezoid summed over all
K + 1 nodes, one interpolation call per probe.  Without forcing both draw
X_t alone, so mc_solve must match it bit for bit; with forcing the two
must agree within their standard errors.  stencil_symbol_uncached is the
finite-difference symbol with its sines recomputed at every call, which
oracle._stencil_symbol must match bit for bit from its per-grid cache.
"""

import numpy as np

from degparab import (CoefficientPath, LPFamily, QuadratureError,
                      SpectralField, TimePartition, accumulate_on,
                      gaussian_bump, inner_product, integrate_to,
                      inverse_cumulative, lowpass, lp_block, lp_norm,
                      quadratic_form, s0_block, scalar_path,
                      second_derivatives, solve_duhamel)
from degparab.oracle import (DEFAULT_CHUNK, MCEstimate, _periodic_interp,
                             _spline_coeffs, _sqrt_cov)
from degparab.solver import _trapezoid_weights
from degparab.spectral import _freq_grids, _xi_sq


def random_band_limited(grid, rng, max_radius=None):
    """Random real field with spectrum supported in |xi| <= max_radius."""
    if max_radius is None:
        # the largest |xi| that s0 + blocks 1..j_max reproduce in full
        max_radius = 2.0 ** LPFamily.for_grid(grid).j_max
    raw = rng.standard_normal(grid.shape)
    mask = _xi_sq(grid) <= max_radius ** 2
    return SpectralField.from_spectrum(grid, np.fft.fftn(raw) * mask)


def partition_defect(grid, family=None):
    """Max deviation of s0 + sum of blocks from the telescoped cutoff."""
    family = family or LPFamily.for_grid(grid)
    r = np.sqrt(_xi_sq(grid))
    total = lowpass(r)
    for j in range(1, family.j_max + 1):
        total = total + family.psi_hat(j, r)
    return float(np.abs(total - lowpass(r / 2.0 ** family.j_max)).max())


def hessian_lp_norm_every_pair(field, p, smoothness):
    """hessian_lp_norm with one inverse FFT per ordered pair (i, j)."""
    grid = field.grid
    comps = _freq_grids(grid)
    spec = field.spectrum
    if smoothness:
        spec = spec * (1.0 + _xi_sq(grid)) ** (0.5 * smoothness)
    acc = np.zeros(grid.shape)
    for i in range(grid.dim):
        for j in range(grid.dim):
            acc += np.fft.ifftn(-(comps[i] * comps[j]) * spec).real ** 2
    frob = np.sqrt(acc)
    if p == np.inf:
        return float(frob.max())
    return float((np.sum(frob ** p) * grid.cell_volume) ** (1.0 / p))


def bessel_norm_by_ifft(field, smoothness, p):
    """bessel_norm as the L_p norm of the inverse-transformed image."""
    mult = (1.0 + _xi_sq(field.grid)) ** (0.5 * smoothness)
    return lp_norm(SpectralField.from_spectrum(field.grid,
                                               field.spectrum * mult), p)


def besov_norm_by_ifft(field, s, p):
    """besov_norm from the L_p norms of the inverse-transformed blocks."""
    family = LPFamily.for_grid(field.grid)
    head = lp_norm(s0_block(field), p)
    tail = 0.0
    for j in range(1, family.j_max + 1):
        tail += (2.0 ** (s * j) * lp_norm(lp_block(field, j, family), p)) ** p
    return head + tail ** (1.0 / p)


def integrate_entries(path, lower, t):
    """Entrywise integral of a over [lower, t], one integrate_to call per
    entry i <= j; a failure names the path."""
    out = np.zeros((path.dim, path.dim))
    try:
        for i in range(path.dim):
            for j in range(i, path.dim):
                out[i, j] = out[j, i] = integrate_to(
                    lambda ts, i=i, j=j: np.asarray(path.a(ts),
                                                    dtype=float)[:, i, j],
                    t, breakpoints=path.breakpoints, lower=lower)
    except QuadratureError as exc:
        exc.spec = path.spec
        raise
    return out


def accumulate_path(path, t):
    """Entrywise integral of a over [0, t], symmetrized, from 0 at one node."""
    if t < 0:
        raise ValueError(f"accumulation endpoint must be >= 0, got {t}")
    if path.cumulative is not None:
        mat = np.asarray(path.cumulative(t), dtype=float)
    else:
        mat = integrate_entries(path, 0.0, t)
    return 0.5 * (mat + mat.T)


def propagate(field, path, s, t):
    """Evolve a field from time s to time t (homogeneous equation)."""
    if not 0 <= s <= t:
        raise ValueError(f"need 0 <= s <= t, got s={s}, t={t}")
    B = accumulate_path(path, t) - accumulate_path(path, s)
    return SpectralField.from_spectrum(
        field.grid, field.spectrum * np.exp(-quadratic_form(field.grid, B)))


def quadratic_forms(grid, path, nodes):
    """xi^T B xi on the full lattice at every node, one (K + 1, *shape)
    array."""
    return np.array([quadratic_form(grid, B)
                     for B in accumulate_on(path, nodes)])


def duhamel_spectrum_per_node(spec0, quads, f_specs, nodes, k):
    """Spectrum of the solve at node k >= 1: the propagated initial data
    plus the trapezoid over nodes[:k + 1] of the propagated forcing, with
    quads on the full lattice (quadratic_forms)."""
    acc = spec0 * np.exp(quads[0] - quads[k])
    if f_specs is not None:
        w = _trapezoid_weights(nodes[:k + 1])
        for i in range(k + 1):
            acc = acc + w[i] * f_specs[i] * np.exp(quads[i] - quads[k])
    return acc


def weak_residual_per_node(snapshots, f, path, nodes, test=None):
    """weak_residual_profile node by node."""
    grid = snapshots[0].grid
    if test is None:
        test = gaussian_bump(grid, width=grid.length / 16.0)
    phi_xx = second_derivatives(test)
    dim = grid.dim

    g = np.zeros(nodes.size)
    for k, (t, u) in enumerate(zip(nodes, snapshots)):
        a_t = np.asarray(path.a(t), dtype=float)
        val = 0.0
        for i in range(dim):
            for j in range(dim):
                val += a_t[i, j] * inner_product(u, phi_xx[i * dim + j])
        g[k] = val
    fg = (np.zeros(nodes.size) if f is None
          else np.array([inner_product(f(t), test) for t in nodes]))

    base = inner_product(snapshots[0], test)
    res = np.zeros(nodes.size)
    integral = 0.0
    f_integral = 0.0
    for k in range(nodes.size):
        if k > 0:
            dt = nodes[k] - nodes[k - 1]
            integral += 0.5 * dt * (g[k] + g[k - 1])
            f_integral += 0.5 * dt * (fg[k] + fg[k - 1])
        res[k] = abs(inner_product(snapshots[k], test)
                     - base - integral - f_integral)
    return res


def time_change_solve(u0, f, path, profile, partition):
    """Solve by rescaling time with the cumulative floor beta.

    Requires delta >= eps > 0 on (0, T].  The transformed path
    a(phi(tau)) * phi'(tau) has ellipticity floor >= 1; its cumulative is
    the original cumulative evaluated at phi(tau), with phi found by
    bisection.  The tau nodes come from one accumulate_on pass, phi at all
    of them from one inverse_cumulative call, and the cumulatives at those
    phi from one more accumulate_on pass.  Returns the snapshots, at the
    ORIGINAL partition nodes, and the tau nodes.
    """
    horizon = partition.horizon
    probe = np.linspace(0.0, horizon, 2049)
    dmin = float(np.min(profile.delta(probe)))
    if dmin <= 0.0:
        raise ValueError(
            f"time change requires delta >= eps > 0 on [0, T]; "
            f"sampled min {dmin}")

    tau_nodes = accumulate_on(scalar_path(profile, 1),
                              partition.nodes)[:, 0, 0]
    tau_partition = TimePartition(tau_nodes)
    phi_nodes = inverse_cumulative(profile, tau_nodes, horizon)
    cums = accumulate_on(path, phi_nodes)
    node_index = {tau: k for k, tau in enumerate(tau_nodes.tolist())}
    base_a, base_delta = path.a, profile.delta

    def a_tilde(tau):
        t = inverse_cumulative(profile, tau, horizon)
        return (np.asarray(base_a(t), dtype=float)
                / np.asarray(base_delta(t), dtype=float)[..., None, None])

    # the solve reads the cumulative and the forcing at the tau nodes only
    def cumulative_tilde(tau):
        return cums[node_index[float(tau)]]

    changed = CoefficientPath(
        dim=path.dim, a=a_tilde, cumulative=cumulative_tilde,
        spec=f"time_changed({path.spec})")

    if f is None:
        f_tilde = None
    else:
        def f_tilde(tau):
            t = float(phi_nodes[node_index[float(tau)]])
            return f(t) * (1.0 / float(base_delta(t)))

    return solve_duhamel(u0, f_tilde, changed, tau_partition), tau_nodes


def mc_solve_per_chunk(u0, f, path, t, points, samples, seed, partition=None,
                       chunk=DEFAULT_CHUNK):
    """The all-node estimator: every path walked over all K partition
    intervals and the forcing evaluated at all K + 1 nodes; each chunk's
    draws, increments and suffix sums are held whole, four (chunk, K, dim)
    arrays at once."""
    grid = u0.grid
    points = np.atleast_1d(np.asarray(points, dtype=float))
    if points.ndim == 1:
        points = points[:, None]
    if f is not None:
        if partition is None:
            partition = TimePartition.uniform(64, t)
        nodes = partition.nodes
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
    total = np.zeros(m)
    total_sq = np.zeros(m)
    n_intervals = len(factors)
    done = 0
    chunk_index = 0
    while done < samples:
        size = min(chunk, samples - done)
        rng = np.random.default_rng([seed, chunk_index])
        z = rng.standard_normal((size, n_intervals, path.dim))
        incs = np.empty((size, n_intervals, path.dim))
        for i, fac in enumerate(factors):
            incs[:, i, :] = z[:, i, :] @ fac.T
        suffix = np.zeros((size, n_intervals + 1, path.dim))
        suffix[:, :-1, :] = np.cumsum(incs[:, ::-1, :], axis=1)[:, ::-1, :]
        vals = np.zeros((m, size))
        for j in range(m):
            vals[j] = _periodic_interp(u0_coeffs, grid,
                                       points[j] + suffix[:, 0, :])
        if f is not None:
            for i in range(nodes.size):
                for j in range(m):
                    vals[j] += w[i] * _periodic_interp(
                        f_coeffs[i], grid, points[j] + suffix[:, i, :])
        total += vals.sum(axis=1)
        total_sq += (vals ** 2).sum(axis=1)
        done += size
        chunk_index += 1

    mean = total / samples
    var = np.maximum(total_sq - samples * mean ** 2, 0.0) / (samples - 1)
    return MCEstimate(points=points, mean=mean,
                      stderr=np.sqrt(var / samples),
                      samples=samples, seed=seed)


def stencil_symbol_uncached(grid, mat):
    """oracle._stencil_symbol with the sines computed on every call."""
    h = grid.spacing
    comps = _freq_grids(grid)
    out = np.zeros(grid.shape)
    for i in range(grid.dim):
        out -= 4.0 * mat[i, i] * np.sin(0.5 * h * comps[i]) ** 2
        for j in range(i + 1, grid.dim):
            out -= (2.0 * mat[i, j] * np.sin(h * comps[i])
                    * np.sin(h * comps[j]))
    return out / h ** 2
