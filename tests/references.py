"""Test data and an independent reference that the package does not use.

random_band_limited draws fields the Littlewood-Paley blocks reproduce
exactly; propagate evolves one field over one window by the exact symbol,
integrating the coefficients from 0 at both ends, as a per-window check of
the solver's one-pass accumulation.
"""

import numpy as np

from degparab import (LPFamily, SpectralField, accumulate_coefficients,
                      quadratic_form)
from degparab.spectral import _xi_sq


def random_band_limited(grid, rng, max_radius=None):
    """Random real field with spectrum supported in |xi| <= max_radius."""
    if max_radius is None:
        max_radius = LPFamily.for_grid(grid).band_limit(grid)
    raw = rng.standard_normal(grid.shape)
    mask = _xi_sq(grid) <= max_radius ** 2
    return SpectralField.from_spectrum(grid, np.fft.fftn(raw) * mask)


def propagate(field, path, s, t):
    """Evolve a field from time s to time t (homogeneous equation)."""
    B = accumulate_coefficients(path, s, t)
    return SpectralField.from_spectrum(
        field.grid, field.spectrum * np.exp(-quadratic_form(field.grid, B)))
