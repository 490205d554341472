"""Adaptive panel quadrature used for cumulative coefficient integrals."""

import math

import numpy as np
import pytest

from degparab.quadrature import (GAUSS_ORDER, QuadratureError,
                                 geometric_panels, integrate_matrix_to,
                                 integrate_to, integrate_windows)


def test_polynomial_exact():
    # Gauss-Legendre 16 is exact far beyond cubics
    val = integrate_to(lambda t: 3.0 * t ** 2, 1.7)
    assert abs(val - 1.7 ** 3) < 1e-13


def test_exp_integral():
    val = integrate_to(np.exp, 2.0)
    assert abs(val - (math.e ** 2 - 1.0)) < 1e-11


def test_zero_upper_limit():
    assert integrate_to(np.exp, 0.0) == 0.0


def test_geometric_panels_tile_the_interval():
    panels = geometric_panels(0.7)
    edges = sorted({lo for lo, _ in panels} | {hi for _, hi in panels})
    assert edges[0] == 0.0
    assert edges[-1] == 0.7
    widths = sum(hi - lo for lo, hi in panels)
    assert abs(widths - 0.7) < 1e-15
    # innermost positive edge sits below the head width
    positive = [e for e in edges if e > 0.0]
    assert positive[0] <= 1e-9 * 2


def test_breakpoints_become_panel_edges():
    panels = geometric_panels(1.0, breakpoints=(0.3,))
    edges = {lo for lo, _ in panels} | {hi for _, hi in panels}
    assert any(abs(e - 0.3) < 1e-15 for e in edges)
    # kinked integrand integrates exactly once the kink is an edge
    f = lambda t: np.where(t < 0.3, 1.0, 2.0)
    val = integrate_to(f, 1.0, breakpoints=(0.3,))
    assert abs(val - (0.3 + 1.4)) < 1e-12


def test_budget_exhaustion_reports_achieved_estimate():
    # highly oscillatory integrand with a tiny panel budget
    f = lambda t: np.sin(300.0 / (t + 1e-3))
    with pytest.raises(QuadratureError) as info:
        integrate_to(f, 1.0, rtol=1e-14, atol=1e-16, max_panels=8)
    err = info.value
    assert err.error_estimate > 0.0
    assert math.isfinite(err.value)


def test_matrix_integration_symmetric():
    def a(t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (2, 2))
        out[..., 0, 0] = 1.0 + t
        out[..., 1, 1] = 2.0
        out[..., 0, 1] = out[..., 1, 0] = t
        return out

    B = integrate_matrix_to(a, 2, 1.0)
    expected = np.array([[1.5, 0.5], [0.5, 2.0]])
    assert np.allclose(B, expected, atol=1e-12)
    assert np.array_equal(B, B.T)


def test_windows_converged_agree_with_integrate_to():
    lo = np.array([0.1, 0.5, 0.5, 2.0])
    hi = np.array([0.2, 0.5, 1.5, 2.25])
    values, ok, _ = integrate_windows(np.sqrt, lo, hi)
    assert ok.tolist() == [True, True, True, True]
    assert values[1] == 0.0
    for a, b, v in zip(lo, hi, values):
        assert abs(v - integrate_to(np.sqrt, b, lower=a)) <= 1e-15 * (b - a)


def test_windows_flag_the_ones_that_miss_their_target():
    f = lambda t: np.sin(300.0 / (t + 1e-3))
    values, ok, _ = integrate_windows(f, np.array([1e-3, 1.0]),
                                   np.array([1.0, 1.01]))
    assert ok.tolist() == [False, True]


def test_windows_do_not_depend_on_their_batch():
    rng = np.random.default_rng(3)
    lo = rng.uniform(0.01, 1.0, 37)
    hi = lo + rng.uniform(0.0, 0.1, 37)
    f = lambda t: np.exp(np.sin(7.0 * t)) * np.sqrt(t)
    values, ok, _ = integrate_windows(f, lo, hi)
    for i in range(lo.size):
        one, one_ok, _ = integrate_windows(f, lo[i:i + 1], hi[i:i + 1])
        assert one[0] == values[i] and one_ok[0] == ok[i]


def test_windows_reuse_the_whole_panel_sums_they_are_given():
    f = lambda t: np.exp(np.sin(7.0 * t)) * np.sqrt(t)
    lo = np.array([0.1, 0.5, 1.0, 2.0])
    hi = np.array([0.3, 0.5, 1.6, 2.001])
    mid = 0.5 * (lo + hi)
    _, _, left = integrate_windows(f, lo, hi)
    fresh = integrate_windows(f, lo, mid)
    points = []

    def counted(t):
        points.append(t.size)
        return f(t)

    whole = np.where([True, False, True, True], left, np.nan)
    reused = integrate_windows(counted, lo, mid, whole)
    for a, b in zip(fresh, reused):
        assert np.array_equal(a, b)
    # two half panels per window, and the whole panel of the one without
    assert points == [(2 * 4 + 1) * GAUSS_ORDER]
