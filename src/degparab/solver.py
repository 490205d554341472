"""Exact Fourier-multiplier evolution for u_t = a^ij(t) u_xixj + f.

Because the coefficients depend on time only, the propagator from s to t
is exact: each mode is damped by exp(-xi^T B xi) with B the entrywise
integral of a over [s, t].  Solves therefore have no spatial or temporal
discretization error beyond the forcing quadrature (trapezoid over the
partition) and the accuracy of B itself.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

from .degeneracy import CoefficientPath, accumulate_on
from .spectral import (SpectralField, _mixed, bessel_norm, gaussian_bump,
                       inner_product, lp_norm, second_derivatives)


class NonFiniteDataError(ValueError):
    """An initial or forcing field built from a valid spec is NaN or inf."""


class SeparableForcing:
    """The forcing f(t, x) = c(t) S(x): coef is c, vectorized over arrays of
    times, shape the field S, transformed once, and text names f in errors.
    With peak the largest of |S| and the parts of S^, c S and c S^ are
    finite iff |c| peak is, since rounding is monotone."""

    def __init__(self, coef, shape, text="forcing"):
        self.coef, self.shape, self.text = coef, shape, text
        spectrum = shape.spectrum
        self.peak = float(max(np.abs(shape.samples).max(),
                              np.abs(spectrum.real).max(),
                              np.abs(spectrum.imag).max()))

    def coefs(self, ts):
        """c at every time of ts in one call, as a float array; raises
        NonFiniteDataError at the first t where c S is NaN or inf."""
        ts = np.asarray(ts, dtype=float)
        with np.errstate(all="ignore"):
            cs = np.broadcast_to(np.asarray(self.coef(ts), float), ts.shape)
            bad = ~np.isfinite(np.abs(cs) * self.peak)
        if bad.any():
            raise NonFiniteDataError(f"{self.text}: field is NaN or inf at "
                                     f"t={float(ts[bad.argmax()])!r}")
        return cs

    def __call__(self, t):
        """The field c(t) S, from its samples."""
        c = float(self.coef(t))
        if not math.isfinite(abs(c) * self.peak):
            raise NonFiniteDataError(
                f"{self.text}: field is NaN or inf at t={float(t)!r}")
        return SpectralField(self.shape.grid, c * self.shape.samples)


class TimePartition:
    """Strictly increasing time nodes starting at 0."""

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("partition needs at least the nodes 0 and T")
        if nodes[0] != 0.0:
            raise ValueError(f"first node must be 0, got {nodes[0]}")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("partition nodes must be strictly increasing")
        self.nodes = nodes

    @classmethod
    def uniform(cls, steps, horizon):
        return cls(np.linspace(0.0, horizon, steps + 1))

    @classmethod
    def geometric(cls, steps, horizon, ratio=None):
        """Nodes horizon * ratio^(steps - k); default ratio puts the smallest
        positive node at 1e-6 * horizon."""
        if steps < 2:
            raise ValueError(f"geometric partition needs >= 2 steps, got {steps}")
        if ratio is None:
            ratio = (1e-6) ** (1.0 / (steps - 1))
        if not 0.0 < ratio < 1.0:
            raise ValueError(f"ratio must lie in (0, 1), got {ratio}")
        positive = horizon * ratio ** np.arange(steps - 1, -1, -1, dtype=float)
        return cls(np.concatenate([[0.0], positive]))

    @property
    def horizon(self):
        return float(self.nodes[-1])

    @property
    def steps(self):
        return self.nodes.size - 1


def quadratic_form(grid, B):
    """xi^T B xi on the frequency lattice, even under xi -> -xi: the mixed
    terms follow the Nyquist rule of spectral._mixed."""
    B = np.asarray(B, dtype=float)
    out = np.zeros(grid.shape)
    for i in range(grid.dim):
        out += B[i, i] * _mixed(grid, i, i)
        for j in range(i + 1, grid.dim):
            out += 2.0 * B[i, j] * _mixed(grid, i, j)
    return out


def _trapezoid_weights(nodes):
    w = np.zeros(nodes.size)
    w[:-1] += 0.5 * np.diff(nodes)
    w[1:] += 0.5 * np.diff(nodes)
    return w


# Bytes of one block of target spectra in _duhamel_spectra: it stays in L2
# cache; 256 KB was the fastest of 64 KB to 1 MB on the 1D benchmark sum
_BLOCK_BYTES = 256 * 1024

# np.exp(x) is +0.0 for every x <= _UNDERFLOW, at ten times a normal cost
_UNDERFLOW = -746.0


def _quadratic_forms(grid, path, nodes):
    """Quadratic forms of the cumulative coefficients at every node on the
    half lattice (last-axis indices 0..n/2; the forms are even, so they fix
    the rest) as one (K + 1, ..., n/2 + 1) array: exp of their differences
    gives every window symbol without re-integrating."""
    quads = np.empty((nodes.size,) + grid.shape[:-1] + (grid.n // 2 + 1,))
    for q, B in zip(quads, accumulate_on(path, nodes)):
        q[...] = quadratic_form(grid, B)[..., :grid.n // 2 + 1]
    return quads


def _lattice_copies(shape):
    """(target, source) index pairs that fill a field of this shape from its
    half lattice (last-axis indices 0..n/2) and, as the forms are even, the
    rest from -xi, which is index (n - j) mod n on every axis.  They index
    the trailing axes, so leading block axes pass through."""
    n = shape[-1]
    lead = ((slice(0, 1),) * 2, (slice(1, n), slice(n - 1, 0, -1)))
    tail = (slice(n // 2 + 1, n), slice(n // 2 - 1, 0, -1))
    return [(np.s_[..., :n // 2 + 1], np.s_[...])] + [
        tuple((Ellipsis,) + ax for ax in zip(*pieces, tail))
        for pieces in itertools.product(lead, repeat=len(shape) - 1)]


def _to_full_lattice(half, full, copies):
    """Copy real factors on the half lattice into the real part of the
    complex full-lattice array full by the pairs of _lattice_copies; the
    imaginary part stays as it is, +0 where full was made by np.zeros, so
    that full holds complex(e, +0), as numpy casts a real factor."""
    for target, source in copies:
        full.real[target] = half[source]


def _duhamel_spectra(spec0, quads, f_specs, nodes):
    """Spectra of the solve at nodes 1..K, one (K, *shape) array: the
    propagated initial data plus the trapezoid over nodes[:k + 1]
    of the propagated forcing.  All K targets cost O(K^2) field operations.

    The loop runs over the forcing node i outside and over blocks of at most
    _BLOCK_BYTES of target rows inside.  Each target k still gets, element
    by element and in this order, spec0 exp(q_0 - q_k), then
    (w_i f_i) exp(q_i - q_k) for i < k (the interior weights of nodes[:k + 1]
    are those of nodes), then (dt_k / 2 f_k) exp(q_k - q_k): the per-node
    sum bit for bit.  exp runs on the half lattice of quads, and in a block
    that can reach _UNDERFLOW it sets the factors at or below it to +0.0
    without exp.  _to_full_lattice copies the factors to -xi in complex
    blocks whose imaginary part stays +0, as numpy casts a real factor.
    f_specs (None without forcing) is read once, in node order, so
    working memory is the output and quads plus O(1) fields."""
    last = len(quads) - 1
    # the blocks before the output: freed after it, they fragment the heap
    rows = min(last, max(1, _BLOCK_BYTES // spec0.nbytes))
    expo, keep = np.empty((2, rows) + quads.shape[1:])
    factor, term = np.zeros((2, rows) + spec0.shape, dtype=complex)
    out = np.empty((last,) + spec0.shape, dtype=complex)
    flat = quads.reshape(last + 1, -1)
    low, high = flat.min(axis=1), flat.max(axis=1)
    copies = _lattice_copies(spec0.shape)
    weights = _trapezoid_weights(nodes)
    half = 0.5 * np.diff(nodes)
    for i, f_i in enumerate([None] if f_specs is None else f_specs):
        if i:
            out[i - 1] += (half[i - 1] * f_i) * 1.0  # exp(q_i - q_i)
        wf = None if f_i is None else weights[i] * f_i
        for lo in range(i + 1, last + 1, rows):
            m = min(rows, last + 1 - lo)
            e, c, o = expo[:m], factor[:m], out[lo - 1:lo - 1 + m]
            np.subtract(quads[i], quads[lo:lo + m], out=e)
            # exp(x * 0.0) * 0.0 = +0.0 where x <= _UNDERFLOW, else exp(x),
            # all at normal speed; not if x can be -inf: -inf * 0.0 is nan
            if -np.inf < low[i] - high[lo:lo + m].max() <= _UNDERFLOW:
                k = np.greater(e, _UNDERFLOW, out=keep[:m])
                np.multiply(np.exp(np.multiply(e, k, out=e), out=e), k, out=e)
            else:
                np.exp(e, out=e)
            _to_full_lattice(e, c, copies)
            if i == 0:
                np.multiply(spec0, c, out=o)
            if wf is not None:
                o += np.multiply(wf, c, out=term[:m])
    return out


def _duhamel_stream(u0, f, path, nodes):
    """(snapshot, c(t_k)) at every node in turn, c(t_k) None without
    forcing: the trapezoid Duhamel sum of _duhamel_spectra stepped from
    node to node in O(K) field operations, since the propagator composes.

    A_0 = spec(u0) (the snapshot is u0 itself), and
    A_k = e_k (A_{k-1} + (dt_k / 2 c_{k-1}) S^) + (dt_k / 2 c_k) S^, or
    e_k A_{k-1} without forcing, with e_k = exp(q_{k-1} - q_k) on the half
    lattice, copied to -xi by _to_full_lattice, c_k from one f.coefs call
    and S^ the shape's cached spectrum: no forcing field is built.  Its
    rounding differs from the per-node sum by O(k eps) of the undamped
    terms, so solve_duhamel, whose snapshots are saved and compared at
    rounding level, keeps _duhamel_spectra.  Working memory is quads plus
    O(1) fields, as long as the caller keeps no snapshot."""
    grid = u0.grid
    quads = _quadratic_forms(grid, path, nodes)
    cs = [None] * nodes.size if f is None else f.coefs(nodes).tolist()
    spec = u0.spectrum
    yield u0, cs[0]
    copies = _lattice_copies(grid.shape)
    expo = np.empty(quads.shape[1:])
    factor = np.zeros(grid.shape, dtype=complex)
    half = 0.5 * np.diff(nodes)
    for k in range(1, nodes.size):
        np.subtract(quads[k - 1], quads[k], out=expo)
        _to_full_lattice(np.exp(expo, out=expo), factor, copies)
        if f is None:
            spec = factor * spec
        else:
            step = (half[k - 1] * cs[k - 1]) * f.shape.spectrum
            step += spec
            step *= factor
            step += (half[k - 1] * cs[k]) * f.shape.spectrum
            spec = step
        yield SpectralField.from_spectrum(grid, spec), cs[k]


def solve_duhamel(u0, f, path, partition):
    """The K + 1 snapshots, as a list, of the solve with forcing f (None
    for the homogeneous one) on the partition's nodes; snapshot 0 is a copy
    of u0.

    The Duhamel integral is a composite trapezoid over the partition nodes,
    with each forcing slice propagated by the exact symbol; everything is
    accumulated in spectral space, and a snapshot is inverse-transformed
    only when its samples are first read.  The forcing is transformed one
    node at a time, as the spectrum of f(t): the saved snapshots are
    compared at rounding level, where c(t) times the shape's cached
    spectrum may differ from it.
    Working memory is the output and quads plus O(1) fields.
    """
    grid, nodes = u0.grid, partition.nodes
    quads = _quadratic_forms(grid, path, nodes)
    f_specs = None if f is None else (f(t).spectrum for t in nodes)
    snapshots = [SpectralField(grid, u0.samples.copy())]
    snapshots += [SpectralField.from_spectrum(grid, spec) for spec in
                  _duhamel_spectra(u0.spectrum, quads, f_specs, nodes)]
    return snapshots


def solve_final(u0, f, path, partition):
    """solve_duhamel's last snapshot to O(K eps), as _duhamel_stream's last:
    O(K) field operations on c(t_k) S^, quads plus O(1) fields, one inverse
    transform and no forcing field."""
    for final, _ in _duhamel_stream(u0, f, path, partition.nodes):
        pass
    return final


def epsilon_regularize(path, eps):
    """Path a + eps * I, the uniform regularization of a degenerate path;
    a registered cumulative becomes cumulative + eps * t * I, on a scalar t
    or an array of times alike."""
    if eps < 0:
        raise ValueError(f"eps must be nonnegative, got {eps}")
    dim = path.dim
    eye = np.eye(dim)
    base_a, base_cum = path.a, path.cumulative
    cum = None if base_cum is None else (
        lambda t: base_cum(t) + np.multiply.outer(eps * t, eye))
    return CoefficientPath(
        dim=dim,
        a=lambda t: np.asarray(base_a(t), dtype=float) + eps * eye,
        cumulative=cum,
        spec=f"regularized({path.spec}, {eps})",
        breakpoints=path.breakpoints,
    )


def weak_residual_profile(snapshots, f, path, nodes):
    """Weak-form defect of snapshots (one per node, as solve_duhamel lists
    them) at every node against one test function phi, a Gaussian bump of
    width period / 16.

    f and path are the forcing (or None) and the coefficient path of the
    solve, and nodes its partition's nodes.  The defect at node k is
    |(u_k, phi) - (u_0, phi) - int_0^tk sum_ij a_ij(s) (u(s), phi_xixj) ds
    - int_0^tk (f(s), phi) ds| with both time integrals running trapezoid
    sums over the nodes, added left to right.
    """
    grid = snapshots[0].grid
    test = gaussian_bump(grid, width=grid.length / 16.0)
    # a_ij against phi_xixj, in the row-major order of second_derivatives
    a = np.asarray(path.a(nodes), dtype=float).reshape(nodes.size, -1)
    phis = (test, *second_derivatives(test))
    pairs = np.array([[inner_product(u, phi) for phi in phis]
                      for u in snapshots]).T
    g = np.zeros(nodes.size)
    for a_ij, pair in zip(a.T, pairs[1:]):
        g += a_ij * pair
    fg = (np.zeros(nodes.size) if f is None
          else np.array([inner_product(f(t), test) for t in nodes]))
    half = 0.5 * np.diff(nodes)
    integral, f_integral = (
        np.concatenate([[0.0], np.cumsum(half * (v[1:] + v[:-1]))])
        for v in (g, fg))
    return np.abs(pairs[0] - pairs[0, 0] - integral - f_integral)


def save_report(snapshots, f, path, partition, outdir, p=2.0):
    """Write meta (key=value text), snapshots.bin and norms.csv to outdir.

    snapshots are solve_duhamel's list for the forcing f (or None), the
    coefficient path and the partition; p is the order of the L_p and H^2_p
    norms of each snapshot in norms.csv, next to its weak residual.
    snapshots.bin is a header of int64 dim, n, count and float64 period,
    then the count = K + 1 fields as row-major float64, written one by one.
    Returns the weak residual profile written to norms.csv.
    """
    os.makedirs(outdir, exist_ok=True)
    grid, nodes = snapshots[0].grid, partition.nodes
    with open(os.path.join(outdir, "meta"), "w") as fh:
        fh.write(f"dim={grid.dim}\n")
        fh.write(f"n={grid.n}\n")
        fh.write(f"period={grid.length!r}\n")
        fh.write(f"coefficients={path.spec}\n")
        fh.write(f"nodes={nodes.size}\n")
        fh.write("method=spectral\n")
    with open(os.path.join(outdir, "snapshots.bin"), "wb") as fh:
        np.array([grid.dim, grid.n, len(snapshots)], np.int64).tofile(fh)
        np.array([grid.length]).tofile(fh)
        for snap in snapshots:
            np.ascontiguousarray(snap.samples, dtype=np.float64).tofile(fh)
    residuals = weak_residual_profile(snapshots, f, path, nodes)
    with open(os.path.join(outdir, "norms.csv"), "w") as fh:
        fh.write("k,t,Lp,H2p,weak_residual\n")
        for k, (t, u, r) in enumerate(zip(nodes, snapshots, residuals)):
            fh.write(f"{k},{float(t)!r},{lp_norm(u, p)!r},"
                     f"{bessel_norm(u, 2.0, p)!r},{float(r)!r}\n")
    return residuals
