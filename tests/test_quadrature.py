"""Adaptive panel quadrature used for cumulative coefficient integrals.

integrate_to refines in batched rounds; the worst-first loop that bisects
one panel per step from a heap is kept here as the slow oracle.
"""

import heapq
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degparab import CoefficientPath, accumulate_on, quadrature
from degparab.quadrature import (ATOL, GAUSS_ORDER, MAX_PANELS, RTOL,
                                 QuadratureError, _panel_sums,
                                 geometric_panels, integrate_to,
                                 integrate_windows)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)


def _heap_panel_sums(f, lo, hi):
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return half * (vals @ _GL_WEIGHTS)


def heap_integrate_to(f, t, breakpoints=(), lower=0.0):
    """The one-panel-per-step loop integrate_to replaced: pop the worst
    panel from a heap, bisect it with three integrand calls, repeat."""
    panels = geometric_panels(t, breakpoints, lower)
    if not panels:
        return 0.0
    lo = np.array([p[0] for p in panels])
    hi = np.array([p[1] for p in panels])
    mid = 0.5 * (lo + hi)
    coarse = _heap_panel_sums(f, lo, hi)
    fine = _heap_panel_sums(f, lo, mid) + _heap_panel_sums(f, mid, hi)
    err = np.abs(coarse - fine)
    counter = itertools.count()
    heap = [(-e, next(counter), a, b, v)
            for e, a, b, v in zip(err, lo, hi, fine)]
    heapq.heapify(heap)
    total = float(np.sum(fine))
    total_err = float(np.sum(err))
    n_panels = len(heap)
    while total_err > max(ATOL, RTOL * abs(total)):
        if n_panels >= MAX_PANELS:
            raise QuadratureError(
                "budget", value=total, error_estimate=total_err,
                target=max(ATOL, RTOL * abs(total)))
        neg_e, _, a, b, v = heapq.heappop(heap)
        total -= v
        total_err += neg_e
        m = 0.5 * (a + b)
        sub_lo = np.array([a, m])
        sub_hi = np.array([m, b])
        sub_mid = 0.5 * (sub_lo + sub_hi)
        c = _heap_panel_sums(f, sub_lo, sub_hi)
        fn = (_heap_panel_sums(f, sub_lo, sub_mid)
              + _heap_panel_sums(f, sub_mid, sub_hi))
        er = np.abs(c - fn)
        for i in range(2):
            heapq.heappush(heap, (-er[i], next(counter),
                                  sub_lo[i], sub_hi[i], fn[i]))
        total += float(np.sum(fn))
        total_err += float(np.sum(er))
        n_panels += 1
    return total


def _target(value):
    return max(ATOL, RTOL * abs(value))


def _power_family(alpha):
    return (lambda t: t ** -alpha,
            lambda x: x ** (1.0 - alpha) / (1.0 - alpha), ())


def _family(name, data):
    """(integrand, antiderivative, breakpoints) of one drawn family."""
    if name == "poly":
        # nonnegative coefficients: no cancellation below the atol floor
        c = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
        return (lambda t: np.polynomial.polynomial.polyval(t, c),
                lambda x: sum(ck * x ** (k + 1) / (k + 1)
                              for k, ck in enumerate(c)),
                ())
    if name == "sqrt":
        return np.sqrt, lambda x: 2.0 / 3.0 * x ** 1.5, ()
    if name == "t^-0.5":
        return _power_family(0.5)
    if name == "t^-0.9":
        return _power_family(0.9)
    if name == "exp*cos^2":
        w = data.draw(st.sampled_from([1.0, 10.0, 40.0]))
        return (lambda t: np.exp(t) * np.cos(w * t) ** 2,
                lambda x: 0.5 * math.exp(x) + 0.5 * math.exp(x) * (
                    math.cos(2 * w * x) + 2 * w * math.sin(2 * w * x))
                / (1.0 + 4.0 * w * w),
                ())
    # kinks at breakpoints: |t - c1| + 2|t - c2|
    c1, c2 = data.draw(st.floats(0.0, 3.0)), data.draw(st.floats(0.0, 3.0))
    return (lambda t: np.abs(t - c1) + 2.0 * np.abs(t - c2),
            lambda x: (np.sign(x - c1) * (x - c1) ** 2
                       + 2.0 * np.sign(x - c2) * (x - c2) ** 2) / 2.0,
            (c1, c2))


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


def test_budget_exhaustion_reports_achieved_estimate(monkeypatch):
    # highly oscillatory integrand with a tiny panel budget; integrate_to
    # reads the policy constants when it is called
    f = lambda t: np.sin(300.0 / (t + 1e-3))
    monkeypatch.setattr(quadrature, "RTOL", 1e-14)
    monkeypatch.setattr(quadrature, "ATOL", 1e-16)
    monkeypatch.setattr(quadrature, "MAX_PANELS", 8)
    with pytest.raises(QuadratureError) as info:
        integrate_to(f, 1.0)
    assert "within 8 panels" in str(info.value)
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

    B = accumulate_on(CoefficientPath(dim=2, a=a), [1.0])[0]
    expected = np.array([[1.5, 0.5], [0.5, 2.0]])
    assert np.allclose(B, expected, atol=1e-12)
    assert np.array_equal(B, B.T)


def test_windows_converged_agree_with_integrate_to():
    lo = np.array([0.1, 0.5, 0.5, 2.0])
    hi = np.array([0.2, 0.5, 1.5, 2.25])
    points = []

    def counted(t):
        points.append(t.size)
        return np.sqrt(t)

    values = integrate_windows(counted, lo, hi)
    assert values[1] == 0.0
    for a, b, v in zip(lo, hi, values):
        assert v == integrate_to(np.sqrt, b, lower=a)
    # one call: whole and half panels of the three nonempty windows
    assert points == [3 * 3 * GAUSS_ORDER]


def test_windows_flag_the_ones_that_miss_their_target(monkeypatch):
    # only the window that misses its target on one panel is handed on
    f = lambda t: np.sin(30.0 / (t + 1e-2))
    handed = []

    def spy(f, t, breakpoints=(), lower=0.0):
        handed.append((lower, t))
        return integrate_to(f, t, breakpoints, lower=lower)

    monkeypatch.setattr(quadrature, "integrate_to", spy)
    integrate_windows(f, np.array([1e-2, 1.0]), np.array([1.0, 1.01]))
    assert handed == [(1e-2, 1.0)]


def test_windows_do_not_depend_on_their_batch():
    rng = np.random.default_rng(3)
    lo = rng.uniform(0.01, 1.0, 37)
    hi = lo + rng.uniform(0.0, 0.1, 37)
    f = lambda t: np.exp(np.sin(7.0 * t)) * np.sqrt(t)
    values = integrate_windows(f, lo, hi)
    for i in range(lo.size):
        one = integrate_windows(f, lo[i:i + 1], hi[i:i + 1])
        assert one.tobytes() == values[i:i + 1].tobytes()


# integrands for the windows: a cubic (one panel is exact, from 0 too),
# smooth, kinked at 0.3 (a breakpoint), one that misses the target on one
# panel, one singular at 0, and one so tiny and negative that the Gauss
# sums of a narrow window round to -0.0
WINDOW_INTEGRANDS = {
    "cubic": lambda t: 1.0 + t ** 3,
    "smooth": lambda t: np.exp(np.sin(7.0 * t)) * np.sqrt(t),
    "kink": lambda t: np.where(t < 0.3, 1.0 + t, 3.0 - t),
    "oscillating": lambda t: np.sin(30.0 / (t + 1e-2)),
    "singular": lambda t: 1.0 / np.sqrt(t),
    "negative": lambda t: -1e-322 * (1.0 + t),
}

# (start, width): from 0, from the breakpoint 0.3, just below it, or
# anywhere; empty, narrow or wide
windows = st.lists(st.tuples(
    st.one_of(st.just(0.0), st.just(0.3), st.floats(0.29, 0.3),
              st.floats(1e-9, 1.0)),
    st.one_of(st.just(0.0), st.floats(0.0, 1e-3), st.floats(0.0, 1.0))),
    max_size=8)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(WINDOW_INTEGRANDS)),
       windows=windows,
       breakpoints=st.sampled_from([(), (0.3,), (0.3, 0.7)]))
@example(name="cubic", windows=[(0.0, 0.2)], breakpoints=())
@example(name="smooth", windows=[(0.295, 0.01)], breakpoints=(0.3,))
@example(name="negative", windows=[(0.5, 0.01)], breakpoints=())
def test_windows_are_integrate_to_bit_for_bit(name, windows, breakpoints):
    # windows from 0, across breakpoints, missing the target on one panel,
    # and of zero width: each value is integrate_to's, to the byte, and the
    # first window whose integrate_to fails is the error raised
    f = WINDOW_INTEGRANDS[name]
    lo = np.array([start for start, _ in windows])
    hi = np.array([start + width for start, width in windows])
    expected = []
    for a, b in zip(lo, hi):
        try:
            alone = integrate_to(f, float(b), breakpoints, lower=float(a))
        except QuadratureError as exc:
            with pytest.raises(QuadratureError) as batch:
                integrate_windows(f, lo, hi, breakpoints)
            assert str(batch.value) == str(exc)
            return
        expected.append(np.float64(alone).tobytes())
    values = integrate_windows(f, lo, hi, breakpoints)
    assert values.shape == lo.shape
    assert [v.tobytes() for v in values] == expected


def test_windows_raise_as_the_first_failing_integrate_to():
    f = lambda t: np.sin(300.0 / (t + 1e-3))
    lo, hi = np.array([1.0, 1e-3, 1e-4]), np.array([1.01, 1.0, 1.0])
    with pytest.raises(QuadratureError) as batch:
        integrate_windows(f, lo, hi)
    with pytest.raises(QuadratureError) as alone:
        integrate_to(f, 1.0, lower=1e-3)
    assert str(batch.value) == str(alone.value)


def test_panel_sums_do_not_depend_on_their_batch():
    rng = np.random.default_rng(7)
    lo = rng.uniform(0.0, 1.0, 40)
    hi = lo + rng.uniform(1e-3, 0.5, 40)
    f = lambda t: np.exp(np.sin(7.0 * t)) * np.sqrt(t)
    alone = [_panel_sums(f, lo[i:i + 1], hi[i:i + 1])[0] for i in range(40)]
    for size in range(2, 41):
        assert _panel_sums(f, lo[:size], hi[:size]).tolist() == alone[:size]


FAMILIES = ["poly", "sqrt", "t^-0.5", "t^-0.9", "exp*cos^2", "kinks"]
# A singular head t^-a on [0, h] leaves the halved sum an error of
# 1/(2^(1-a) - 1) times its estimate: 13.9 at a = 0.9, 2.4 at a = 0.5.
CLOSED_FORM_FACTOR = 16.0


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(FAMILIES), t=st.floats(0.05, 3.0),
       lower_frac=st.one_of(st.just(0.0), st.floats(0.01, 0.9)),
       data=st.data())
def test_rounds_agree_with_the_heap_loop(name, t, lower_frac, data):
    f, antiderivative, breakpoints = _family(name, data)
    lower = lower_frac * t
    outcomes = []
    for route in (integrate_to, heap_integrate_to):
        try:
            outcomes.append(route(f, t, breakpoints=breakpoints,
                                  lower=lower))
        except QuadratureError:
            outcomes.append(None)
    rounds, heap = outcomes
    assert (rounds is None) == (heap is None)
    if rounds is None:
        return
    assert abs(rounds - heap) <= _target(rounds) + _target(heap)
    exact = antiderivative(t) - antiderivative(lower)
    for value in (rounds, heap):
        assert abs(value - exact) <= CLOSED_FORM_FACTOR * _target(value)


def test_edge_integral_raises_within_a_few_integrand_calls():
    # the 1 + sin(1/t) edge probe's first cumulative cannot meet its target
    sizes = []

    def f(t):
        sizes.append(t.size)
        return 1.0 + np.sin(1.0 / t)

    n0 = len(geometric_panels(1e-6))
    with pytest.raises(QuadratureError) as info:
        integrate_to(f, 1e-6)
    assert info.value.error_estimate > info.value.target
    assert len(sizes) <= math.ceil(math.log2(MAX_PANELS / n0)) + 2
    # never more than MAX_PANELS panels: 3 sums per initial panel, then 4
    # quarter-panel sums per bisection
    assert sum(sizes) <= GAUSS_ORDER * (3 * n0 + 4 * (MAX_PANELS - n0))
    with pytest.raises(QuadratureError):
        heap_integrate_to(f, 1e-6)


@pytest.mark.parametrize("f", [
    lambda t: np.sqrt(t - 0.5),
    lambda t: np.where(t < 0.5, np.inf, 1.0),
], ids=["nan", "inf"])
def test_non_finite_integrand_raises_at_once(f):
    calls = []

    def counted(t):
        calls.append(t.size)
        return f(t)

    with np.errstate(invalid="ignore"), \
            pytest.raises(QuadratureError) as info:
        integrate_to(counted, 1.0)
    assert len(calls) == 1
    assert not math.isfinite(info.value.error_estimate)
