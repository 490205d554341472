"""Periodic spectral fields, Littlewood-Paley blocks, and norms.

Fields live on a uniform grid over the torus [-L/2, L/2)^d with n (a power
of two) points per axis.  The frequency lattice is {2*pi*k/L}; transforms
are plain FFTs: a field made from samples computes its spectrum on first
use, and a field made from a spectrum computes its samples on first use.
All dyadic analysis (blocks, Besov norms) and Fourier multipliers (Bessel
potential, second derivatives) operate on that lattice, truncated at the
grid Nyquist frequency.  At p = 2 the norms of multiplier images come from
the spectrum by Plancherel, with no inverse transform.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: dim in {1,2,3}, n a power of two, period length."""

    dim: int
    n: int
    length: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two >= 2, got {self.n}")
        if not 0 < self.length < math.inf:
            raise ValueError(
                f"period must be positive and finite, got {self.length}")

    @property
    def spacing(self):
        return self.length / self.n

    @property
    def cell_volume(self):
        return (self.length / self.n) ** self.dim

    @property
    def shape(self):
        return (self.n,) * self.dim

    @property
    def nyquist(self):
        return math.pi * self.n / self.length


@functools.lru_cache(maxsize=64)
def _axes(grid):
    x = -0.5 * grid.length + grid.spacing * np.arange(grid.n)
    return tuple(x for _ in range(grid.dim))


@functools.lru_cache(maxsize=64)
def _freq_axes(grid):
    xi = 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)
    return tuple(xi for _ in range(grid.dim))


@functools.lru_cache(maxsize=64)
def _freq_grids(grid):
    return np.meshgrid(*_freq_axes(grid), indexing="ij")


@functools.lru_cache(maxsize=64)
def _xi_sq(grid):
    out = np.zeros(grid.shape)
    for comp in _freq_grids(grid):
        out += comp ** 2
    return out


@functools.lru_cache(maxsize=256)
def _mixed(grid, i, j):
    """xi_i xi_j on the lattice, 0 where exactly one of the axes i and j is
    at its Nyquist index n/2.  That index is its own mirror under
    xi -> -xi, so an odd factor xi_i has no partner there; zeroing it keeps
    every symbol built from these products even, and so keeps real fields
    real.  For i == j no point is zeroed."""
    comps = _freq_grids(grid)
    out = comps[i] * comps[j]
    if i != j:
        nyq = _freq_axes(grid)[0][grid.n // 2]
        out[(comps[i] == nyq) != (comps[j] == nyq)] = 0.0
    return out


def x_grids(grid):
    """Coordinate arrays of shape grid.shape, one per axis."""
    return np.meshgrid(*_axes(grid), indexing="ij")


class SpectralField:
    """Real samples on a GridSpec and their DFT spectrum, each computed from
    the other on first read and then cached (samples as an owned copy)."""

    __slots__ = ("grid", "_samples", "_spectrum")

    def __init__(self, grid, samples):
        samples = np.asarray(samples, dtype=float)
        if samples.shape != grid.shape:
            raise ValueError(
                f"samples shape {samples.shape} does not match grid {grid.shape}")
        self.grid = grid
        self._samples = samples
        self._spectrum = None

    @property
    def samples(self):
        if self._samples is None:
            self._samples = np.fft.ifftn(self._spectrum).real.copy()
        return self._samples

    @property
    def spectrum(self):
        if self._spectrum is None:
            self._spectrum = np.fft.fftn(self.samples)
        return self._spectrum

    @classmethod
    def from_spectrum(cls, grid, spectrum, samples=None):
        """Field with the spectrum of a real field, conjugate-symmetric as
        every spectrum the package makes is; its samples are the float
        array given, which it keeps, or else a copy of ifftn(spectrum).real,
        transformed when first read.  The p = 2 norms read the spectrum."""
        spectrum = np.asarray(spectrum, dtype=complex)
        if spectrum.shape != grid.shape:
            raise ValueError(f"spectrum shape {spectrum.shape} does not match "
                             f"grid {grid.shape}")
        field = cls.__new__(cls)
        field.grid, field._samples, field._spectrum = grid, samples, spectrum
        return field

    def __add__(self, other):
        self._check_same_grid(other)
        return SpectralField(self.grid, self.samples + other.samples)

    def __sub__(self, other):
        self._check_same_grid(other)
        return SpectralField(self.grid, self.samples - other.samples)

    def __mul__(self, c):
        return SpectralField(self.grid, self.samples * float(c))

    __rmul__ = __mul__

    def _check_same_grid(self, other):
        if self.grid != other.grid:
            raise ValueError(f"grid mismatch: {self.grid} vs {other.grid}")


def apply_multiplier(field, values):
    """Field with spectrum multiplied by the given lattice values."""
    return SpectralField.from_spectrum(field.grid, field.spectrum * values)


def _parseval_norm(field, weight):
    """L_2 norm of ifftn(m * u^).real by Plancherel, for a real multiplier m
    even under xi -> -xi on the lattice, given as weight = m^2.

    Every spectrum the package makes is conjugate-symmetric to rounding
    (see _mixed), so the image is real and its energy is the plain sum of
    m^2 |u^|^2.
    """
    spec = field.spectrum
    energy = spec.real ** 2
    energy += spec.imag ** 2
    return math.sqrt(float(np.vdot(weight, energy))
                     * field.grid.cell_volume / spec.size)


def lp_norm(field, p):
    """Midpoint-rule L_p norm on the torus; p = inf gives the max norm."""
    if p == np.inf or p == math.inf:
        return float(np.abs(field.samples).max())
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    with np.errstate(over="ignore"):  # a power beyond the float range: inf
        return float((np.sum(np.abs(field.samples) ** p)
                      * field.grid.cell_volume) ** (1.0 / p))


def inner_product(f, g):
    """Grid L_2 pairing (f, g) = sum f*g * cell volume."""
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")
    return float(np.sum(f.samples * g.samples) * f.grid.cell_volume)


def _smooth_bump(x):
    # exp(-1/x) continued by 0: the standard smooth step ingredient
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    with np.errstate(over="ignore"):
        out[pos] = np.exp(-1.0 / x[pos])
    return out


def lowpass(r):
    """Radial cutoff: 1 for r <= 1, 0 for r >= 2, smooth and monotone between."""
    r = np.asarray(r, dtype=float)
    up = _smooth_bump(2.0 - r)
    down = _smooth_bump(r - 1.0)
    return up / (up + down)


@dataclass(frozen=True)
class LPFamily:
    """Dyadic partition of the frequency lattice.

    Block j has multiplier lowpass(|xi|/2^j) - lowpass(|xi|/2^(j-1)),
    supported on 2^(j-1) <= |xi| <= 2^(j+1); the blocks telescope exactly
    against the low-pass cutoff.
    """

    j_min: int
    j_max: int

    @staticmethod
    def for_grid(grid):
        j_max = math.floor(math.log2(grid.nyquist)) - 1
        j_min = -math.floor(math.log2(grid.length))
        return LPFamily(j_min=j_min, j_max=j_max)

    def psi_hat(self, j, r):
        r = np.asarray(r, dtype=float)
        return lowpass(r / 2.0 ** j) - lowpass(r / 2.0 ** (j - 1))


@functools.lru_cache(maxsize=512)
def _block_multiplier(family, grid, j):
    return family.psi_hat(j, np.sqrt(_xi_sq(grid)))


@functools.lru_cache(maxsize=64)
def _s0_multiplier(grid):
    return lowpass(np.sqrt(_xi_sq(grid)))


@functools.lru_cache(maxsize=64)
def _besov_weights(family, grid, s):
    # squared multipliers of the s0 part and of the dyadic sum at p = 2
    tail = np.zeros(grid.shape)
    for j in range(1, family.j_max + 1):
        tail += (2.0 ** (s * j)) ** 2 * _block_multiplier(family, grid, j) ** 2
    return _s0_multiplier(grid) ** 2, tail


@functools.lru_cache(maxsize=64)
def _bessel_weight(grid, smoothness):
    return (1.0 + _xi_sq(grid)) ** smoothness


@functools.lru_cache(maxsize=64)
def _hessian_weights(grid, smoothness):
    """sum_ij (xi_i xi_j)^2 (1 + |xi|^2)^smoothness, the squared Frobenius
    multiplier of the second derivatives."""
    out = np.zeros(grid.shape)
    for i in range(grid.dim):
        for j in range(grid.dim):
            out += _mixed(grid, i, j) ** 2
    if smoothness:
        out *= _bessel_weight(grid, smoothness)
    return out


def lp_block(field, j, family=None):
    """Dyadic block j of a field."""
    family = family or LPFamily.for_grid(field.grid)
    if not family.j_min <= j <= family.j_max:
        raise ValueError(f"block {j} outside the family range "
                         f"[{family.j_min}, {family.j_max}]")
    return apply_multiplier(field, _block_multiplier(family, field.grid, j))


def s0_block(field):
    """Low-frequency part (cutoff at |xi| ~ 1, includes the mean)."""
    return apply_multiplier(field, _s0_multiplier(field.grid))


def besov_norm(field, s, p):
    """||s0 u||_p + (sum over j >= 1 of (2^(sj) ||block_j u||_p)^p)^(1/p).

    The dyadic sum is truncated at the family's top block (grid Nyquist).
    """
    if not (1 <= p < np.inf):
        raise ValueError(f"p must be finite and >= 1, got {p}")
    family = LPFamily.for_grid(field.grid)
    if p == 2:
        head_weight, tail_weight = _besov_weights(family, field.grid, s)
        return (_parseval_norm(field, head_weight)
                + _parseval_norm(field, tail_weight))
    head = lp_norm(s0_block(field), p)
    tail = 0.0
    with np.errstate(over="ignore"):  # a power beyond the float range: inf
        for j in range(1, family.j_max + 1):
            weight = np.float64(2.0 ** (s * j))  # so ** p is numpy's power
            tail += (weight * lp_norm(lp_block(field, j, family), p)) ** p
    return float(head + tail ** (1.0 / p))


def bessel_norm(field, smoothness, p):
    """L_p norm after the Bessel multiplier (1 + |xi|^2)^(smoothness/2)."""
    if p == 2:
        return _parseval_norm(field, _bessel_weight(field.grid, smoothness))
    mult = (1.0 + _xi_sq(field.grid)) ** (0.5 * smoothness)
    return lp_norm(apply_multiplier(field, mult), p)


def second_derivatives(field):
    """All dim^2 second partials as fields, row-major in (i, j)."""
    grid = field.grid
    spec = field.spectrum
    return [SpectralField.from_spectrum(grid, -_mixed(grid, i, j) * spec)
            for i in range(grid.dim) for j in range(grid.dim)]


def hessian_lp_norm(field, p, smoothness=0.0):
    """L_p norm of the Frobenius norm of the (Bessel-filtered) Hessian.

    This is the norm in which second-derivative bounds are measured:
    for smoothness n it equals || |(1-Lap)^(n/2) u_xx|_F ||_Lp.  At p = 2
    it is computed from the spectrum, with no inverse transform.
    """
    grid = field.grid
    if p == 2:
        return _parseval_norm(field, _hessian_weights(grid, smoothness))
    comps = _freq_grids(grid)
    spec = field.spectrum
    if smoothness:
        spec = spec * (1.0 + _xi_sq(grid)) ** (0.5 * smoothness)
    # u_xixj equals u_xjxi bit for bit, so one inverse FFT per unordered
    # pair; the squares are still summed in (i, j) order
    squares = {(i, j): np.fft.ifftn(-(comps[i] * comps[j]) * spec).real ** 2
               for i in range(grid.dim) for j in range(i, grid.dim)}
    acc = np.zeros(grid.shape)
    for i in range(grid.dim):
        for j in range(grid.dim):
            acc += squares[min(i, j), max(i, j)]
    frob = np.sqrt(acc)
    if p == np.inf:
        return float(frob.max())
    with np.errstate(over="ignore"):  # a power beyond the float range: inf
        return float((np.sum(frob ** p) * grid.cell_volume) ** (1.0 / p))


def gaussian_bump(grid, width=1.0, center=None, amplitude=1.0):
    """amplitude * exp(-|x - center|^2 / (2 width^2)) sampled on the grid."""
    if width <= 0:
        raise ValueError(f"width must be positive, got {width}")
    if center is None:
        center = (0.0,) * grid.dim
    center = np.atleast_1d(np.asarray(center, dtype=float))
    if center.size != grid.dim:
        raise ValueError(f"center must have {grid.dim} components")
    r2 = np.zeros(grid.shape)
    for x, c in zip(x_grids(grid), center):
        r2 += (x - c) ** 2
    return SpectralField(grid, amplitude * np.exp(-r2 / (2.0 * width ** 2)))


def mode_field(grid, k, phase=0.0, amplitude=1.0):
    """cos(xi_k . x + phase) for an integer lattice mode k."""
    k = np.atleast_1d(np.asarray(k, dtype=float))
    if k.size != grid.dim:
        raise ValueError(f"mode must have {grid.dim} components")
    arg = np.full(grid.shape, phase)
    for x, ki in zip(x_grids(grid), k):
        arg = arg + (2.0 * np.pi * ki / grid.length) * x
    return SpectralField(grid, amplitude * np.cos(arg))
