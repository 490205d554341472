"""Level-set inversion and scans against the routes they replaced.

inverse_cumulative bisects every level at once from one dyadic table of
beta; the per-level bisection with a fresh integral from 0 at every step is
kept here as the slow oracle.  levelset_measure_scan reads beta from the
closed form where one is registered, and otherwise runs the midpoint scan
of delta in chunks (_scan_chunks, _scan_segments), counting each level
from where a rising scan crosses it; the one-array scans and the per-level
masks are kept here as oracles too, and must agree bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degparab import (constant_profile, cumulative_delta, expr_profile,
                      inverse_cumulative, levelset_measure,
                      levelset_measure_scan, oscillatory_profile,
                      piecewise_profile, power_profile)
from degparab import degeneracy
from degparab.degeneracy import (_SCAN_CHUNK, _level_grid, _scan_chunks,
                                 _scan_segments)
from degparab.quadrature import ATOL, RTOL, QuadratureError, integrate_to

SETTINGS = settings(max_examples=15, deadline=None)
EPS = np.finfo(float).eps


def bisection_oracle(profile, h, t_max):
    """phi(h) by 60 bisection steps, each beta from 0."""
    if h <= 0:
        return 0.0
    beta = lambda t: cumulative_delta(profile, t)
    top = beta(t_max)
    if h > top:
        raise ValueError(
            f"h={h} exceeds cumulative at t_max={t_max} (beta={top})")
    lo, hi = 0.0, float(t_max)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if beta(mid) >= h:
            hi = mid
        else:
            lo = mid
    return hi


def one_array_scan(profile, hi, npts):
    """(edges, beta at the edges) of the midpoint scan of delta with npts
    panels over [0, hi], each in one array."""
    edges = np.linspace(0.0, hi, npts + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    dt = edges[1] - edges[0]
    return edges, np.concatenate([[0.0], np.cumsum(profile.delta(mids) * dt)])


def grid_oracle(profile, ts, npts):
    """beta at ts as levelset_measure_scan reads it, with the whole scan in
    memory: the closed form where one is registered, else the midpoint scan
    with npts panels over [0, max(ts)], linearly interpolated."""
    ts = np.asarray(ts, dtype=float)
    if profile.closed_form_cumulative is not None:
        return np.asarray(profile.closed_form_cumulative(ts), dtype=float)
    hi = float(np.max(ts)) if ts.size else 0.0
    if hi == 0.0:
        return np.zeros_like(ts)
    return np.interp(ts, *one_array_scan(profile, hi, npts))


def chunked_scan(profile, hi, npts, ts):
    """beta at the sorted times ts from the chunked midpoint scan over
    [0, hi], one np.interp per chunk."""
    return np.concatenate([np.interp(q, edges, beta) for q, edges, beta, _
                           in _scan_segments(profile, hi, npts, [ts])])


def mid_betas(profile, t0, npts):
    """beta at the npts panel midpoints of [0, t0], as the scan reads it."""
    edges = np.linspace(0.0, t0, npts + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return grid_oracle(profile, mids, npts=4 * npts)


def scan_oracle(profile, hs, t0, npts=1_000_000):
    """levelset_measure_scan with both scans in memory, one mask per level."""
    beta_mid = mid_betas(profile, t0, npts)
    return [float(np.count_nonzero((beta_mid >= h) & (beta_mid < 4.0 * h)))
            * (t0 / npts) for h in hs]


CLOSED_FORM = {
    "constant": constant_profile(0.7),
    "power(1)": power_profile(1.0),
    "power(-0.5)": power_profile(-0.5),
    "oscillatory": oscillatory_profile(),
    "shifted power(2)": power_profile(2.0).shifted(0.05),
}
QUADRATURE = {
    "sqrt": expr_profile("sqrt(t)"),
    "steep head": expr_profile("t**0.3"),
    "plateau": piecewise_profile([(0.0, "0"), (0.4, "1 + t")]),
    "plateau inside": piecewise_profile([(0.0, "1"), (0.3, "0"),
                                         (0.6, "2*t")]),
}


def tolerance(h):
    """How far in level the table route and the oracle may disagree.

    Near a bisection decision at level h, beta is at most 2h.  The table
    route sums at most 121 integrals (61 table windows, 60 step windows),
    each within max(ATOL, RTOL * window), so its beta is within
    RTOL * 2h + 121 * ATOL; the oracle's one integral from 0 is within
    RTOL * 2h + ATOL.  The sum of the two bounds the gap; it is far above
    the rounding of 121 additions.
    """
    return 4.0 * RTOL * h + 122.0 * ATOL


def clamped_oracle(profile, h, t_max):
    top = cumulative_delta(profile, t_max)
    return float(t_max) if h > top else bisection_oracle(profile, h, t_max)


def levels_for(profile, t_max, fractions, uniform):
    top = cumulative_delta(profile, t_max)
    grid = np.linspace(0.0, top, uniform) if uniform else np.array([])
    return np.concatenate([grid, np.asarray(fractions) * top, [0.0, top]])


fractions = st.lists(st.floats(0.0, 1.0), max_size=6)
uniform = st.sampled_from([0, 2, 5, 9])
t_maxes = st.sampled_from([1.0, 0.37, 2.5])


@SETTINGS
@given(name=st.sampled_from(sorted(CLOSED_FORM)), fractions=fractions,
       uniform=uniform, t_max=t_maxes)
def test_closed_form_inversion_equals_bisection(name, fractions, uniform,
                                                t_max):
    profile = CLOSED_FORM[name]
    levels = levels_for(profile, t_max, fractions, uniform)
    fast = inverse_cumulative(profile, levels, t_max)
    assert fast.shape == levels.shape
    assert fast.tolist() == [bisection_oracle(profile, float(h), t_max)
                             for h in levels]


@SETTINGS
@given(name=st.sampled_from(sorted(QUADRATURE)), fractions=fractions,
       uniform=uniform, t_max=t_maxes)
def test_quadrature_inversion_within_tolerance(name, fractions, uniform,
                                               t_max):
    profile = QUADRATURE[name]
    levels = levels_for(profile, t_max, fractions, uniform)
    fast = inverse_cumulative(profile, levels, t_max)
    slack = 4.0 * EPS * t_max  # the last bisection bracket
    for h, t in zip(levels.tolist(), fast.tolist()):
        if h <= 0.0:
            assert t == 0.0
            continue
        e = tolerance(h)
        assert clamped_oracle(profile, h - e, t_max) - slack <= t
        assert t <= clamped_oracle(profile, h + e, t_max) + slack


@SETTINGS
@given(cuts=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3,
                     unique=True),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
def test_breakpoints_inside_windows(cuts, fractions):
    starts = [0.0] + sorted(cuts)
    texts = ["1 + t", "0", "0.5 + t*t", "3"]
    profile = piecewise_profile(list(zip(starts, texts)))
    levels = levels_for(profile, 1.0, fractions, 0)
    fast = inverse_cumulative(profile, levels, 1.0)
    for h, t in zip(levels.tolist(), fast.tolist()):
        e = tolerance(h)
        assert clamped_oracle(profile, h - e, 1.0) - 4.0 * EPS <= t
        assert t <= clamped_oracle(profile, h + e, 1.0) + 4.0 * EPS


def test_a_window_holding_a_breakpoint_goes_to_integrate_to(monkeypatch):
    # a kink at 0.3: narrow windows across it pass the one-panel error
    # check, but only integrate_to splits them at the breakpoint
    from degparab import quadrature

    profile = piecewise_profile([(0.0, "1"), (0.3, "1 + 3*(t - 0.3)")])
    split = []

    def spy(f, t, breakpoints=(), lower=0.0, **kw):
        if lower < 0.3 < t:
            split.append(t - lower)
        return integrate_to(f, t, breakpoints=breakpoints, lower=lower, **kw)

    monkeypatch.setattr(quadrature, "integrate_to", spy)
    t = inverse_cumulative(profile, 0.3, 1.0)
    assert abs(t - 0.3) <= 4.0 * EPS
    assert min(split) < 1e-12


@pytest.mark.parametrize("text", ["1 + t*t", "sqrt(t)", "exp(t)"])
def test_smooth_windows_pass_without_integrate_to(text, monkeypatch):
    # every step window of a smooth profile meets its target on one panel
    from degparab import quadrature

    profile = expr_profile(text)
    levels = np.linspace(0.0, cumulative_delta(profile, 1.0), 9)
    calls = []

    def spy(f, t, *args, lower=0.0, **kwargs):
        calls.append((t, lower))
        return integrate_to(f, t, *args, lower=lower, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_to", spy)
    inverse_cumulative(profile, levels, 1.0)
    # only the table's head [0, 2^-60] from 0; no step window
    assert calls == [(2.0 ** -60, 0.0)]


@SETTINGS
@given(name=st.sampled_from(sorted(CLOSED_FORM) + sorted(QUADRATURE)),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
def test_a_level_does_not_depend_on_its_batch(name, fractions):
    profile = {**CLOSED_FORM, **QUADRATURE}[name]
    levels = levels_for(profile, 1.0, fractions, 0)
    batch = inverse_cumulative(profile, levels, 1.0)
    assert batch.tolist() == [inverse_cumulative(profile, h, 1.0)
                              for h in levels.tolist()]


@pytest.mark.parametrize("name", sorted(CLOSED_FORM) + sorted(QUADRATURE))
def test_out_of_range_level_is_a_value_error(name):
    profile = {**CLOSED_FORM, **QUADRATURE}[name]
    top = cumulative_delta(profile, 1.0)
    beyond = top * (1.0 + 1e-6) + 1e-9
    with pytest.raises(ValueError, match="exceeds cumulative"):
        bisection_oracle(profile, beyond, 1.0)
    with pytest.raises(ValueError, match="exceeds cumulative"):
        inverse_cumulative(profile, beyond, 1.0)
    with pytest.raises(ValueError, match="exceeds cumulative"):
        inverse_cumulative(profile, np.array([0.5 * top, beyond]), 1.0)


def test_a_failing_table_window_names_the_profile():
    # 1 + sin(1/t) misses its target in the table's head window near t = 0;
    # the CLI prints exc.spec, so it must be the spec the user wrote
    profile = expr_profile("1+sin(1/t)")
    for call in (lambda: inverse_cumulative(profile, 0.5, 1.0),
                 lambda: levelset_measure(profile, [0.1, 0.2], 1.0)):
        with pytest.raises(QuadratureError) as info:
            call()
        assert info.value.spec == 'expr("1+sin(1/t)")'


def test_scalar_level_gives_a_float_and_an_array_an_array():
    profile = power_profile(1.0)
    assert isinstance(inverse_cumulative(profile, 0.125, 1.0), float)
    out = inverse_cumulative(profile, np.array([[0.0, 0.125], [0.5, 0.5]]),
                             1.0)
    assert out.shape == (2, 2)
    assert out.tolist() == [[0.0, 0.5], [1.0, 1.0]]


@pytest.mark.parametrize("name", sorted(CLOSED_FORM) + sorted(QUADRATURE))
def test_levelset_measures_of_a_grid_are_the_one_level_measures(name):
    profile = {**CLOSED_FORM, **QUADRATURE}[name]
    top = cumulative_delta(profile, 1.0) / 4.0
    hs = np.logspace(math.log10(top) - 2.5, math.log10(top) + 0.5, 7)
    batch = levelset_measure(profile, hs, 1.0)
    assert batch.tolist() == [levelset_measure(profile, h, 1.0)
                              for h in hs.tolist()]


@pytest.mark.parametrize("name", sorted(CLOSED_FORM))
def test_closed_form_levelset_measure_equals_the_bisection(name):
    profile = CLOSED_FORM[name]
    top = cumulative_delta(profile, 1.0)
    for h in (1e-3 * top, 0.1 * top, 0.25 * top, 0.3 * top, 2.0 * top):
        def phi(level):
            return 1.0 if level > top else bisection_oracle(profile, level,
                                                            1.0)
        assert levelset_measure(profile, h, 1.0) == phi(4.0 * h) - phi(h)


def test_levelset_measure_rejects_nonpositive_levels():
    with pytest.raises(ValueError, match="positive"):
        levelset_measure(power_profile(1.0), np.array([0.1, 0.0]), 1.0)
    # and a NaN level, by both measures: the scan tested h <= 0, which NaN
    # fails, and counted the level as 0.0
    for measure in (levelset_measure, levelset_measure_scan):
        with pytest.raises(ValueError,
                           match=r"^level h must be positive, got nan$"):
            measure(expr_profile("sqrt(t)"), [math.nan, 0.1], 1.0)


SCAN_PROFILES = [expr_profile("sqrt(t)"), oscillatory_profile(),
                 piecewise_profile([(0.0, "0"), (0.4, "1 + t")])]
SCAN_IDS = ["quadrature", "closed-form", "plateau"]


@pytest.mark.parametrize("prof", SCAN_PROFILES, ids=SCAN_IDS)
@pytest.mark.parametrize("npts", [1, 7, _SCAN_CHUNK, 2 * _SCAN_CHUNK + 17])
def test_grid_scan_equals_the_one_array_scan(prof, npts):
    # the chunks, each shared end edge once, are one np.cumsum over the grid
    # (every profile here is >= 0, so every chunk rises); the scan is of
    # delta, so a closed form does not enter
    chunks = [(edges.copy(), beta.copy(), rising)
              for edges, beta, rising in _scan_chunks(prof, 1.2, npts)]
    ref_edges, ref_beta = one_array_scan(prof, 1.2, npts)
    for i, ref in enumerate((ref_edges, ref_beta)):
        got = np.concatenate([chunks[0][i][:1]] + [c[i][1:] for c in chunks])
        assert got.tobytes() == ref.tobytes()
    assert all(rising for _, _, rising in chunks)
    # repeated times and 0, read chunk by chunk, as one np.interp
    ts = np.sort([0.3, 0.0, 0.9, 0.3, 0.0, 0.61, 1.2, 0.9])
    assert np.array_equal(chunked_scan(prof, 1.2, npts, ts),
                          np.interp(ts, ref_edges, ref_beta))


@pytest.mark.parametrize("prof", SCAN_PROFILES, ids=SCAN_IDS)
def test_grid_scan_on_chunk_edges(prof):
    npts = 3 * _SCAN_CHUNK + 5
    step = 1.0 / npts
    k = _SCAN_CHUNK
    ts = np.sort([1.0, k * step, 2 * k * step, 3 * k * step,
                  np.nextafter(k * step, 0.0), np.nextafter(k * step, 1.0),
                  0.0, (3 * k + 4) * step])
    edges, beta = one_array_scan(prof, 1.0, npts)
    assert np.array_equal(chunked_scan(prof, 1.0, npts, ts),
                          np.interp(ts, edges, beta))
    # every edge of the scan at once
    assert np.array_equal(chunked_scan(prof, 1.0, npts, edges),
                          np.interp(edges, edges, beta))


# delta < 0 on stretches, and delta = NaN before t = 0.5: neither scan
# rises everywhere, so the crossing count must give way to np.interp
LEVEL_PROFILES = SCAN_PROFILES + [expr_profile("sin(20*t)"),
                                  expr_profile("sqrt(t - 0.5)")]
LEVEL_IDS = SCAN_IDS + ["negative", "nan"]


@pytest.mark.parametrize("prof", LEVEL_PROFILES, ids=LEVEL_IDS)
@pytest.mark.parametrize("npts", [3, _SCAN_CHUNK, 3 * _SCAN_CHUNK + 11])
def test_levelset_scan_equals_the_one_array_scan(monkeypatch, prof, npts):
    # 10.0 lies above beta(1) of every profile here; a scanned midpoint value
    # v is a level once as h and once as 4h, where the count turns on >=
    hs = [0.003, 0.01, 0.05, 0.2, 10.0]
    v = mid_betas(prof, 1.0, npts)[2 * npts // 3]
    if v > 0.0:
        hs += [v, v / 4.0]
    monkeypatch.setattr(degeneracy, "_SCAN_POINTS", npts)
    assert (levelset_measure_scan(prof, hs, 1.0)
            == scan_oracle(prof, hs, 1.0, npts=npts))


def test_levelset_scan_of_the_benchmark_profile_is_exact():
    # profile-check on sqrt(t) at t0 = 1, at the full _SCAN_POINTS
    prof = expr_profile("sqrt(t)")
    hs = _level_grid(cumulative_delta(prof, 1.0)).tolist()
    assert levelset_measure_scan(prof, hs, 1.0) == scan_oracle(prof, hs, 1.0)


@pytest.mark.parametrize("name", sorted(QUADRATURE))
def test_a_rising_scan_interpolates_only_near_the_crossings(monkeypatch,
                                                            name):
    # beta rises, so each level h is counted from where beta crosses h and
    # 4h; np.interp may read at most 4 midpoints per crossing, not all 1e6
    prof = QUADRATURE[name]
    hs = _level_grid(cumulative_delta(prof, 1.0))
    read = []
    interp = np.interp

    def spy(x, xp, fp, *args, **kwargs):
        read.append(np.size(x))
        return interp(x, xp, fp, *args, **kwargs)

    monkeypatch.setattr(np, "interp", spy)
    levelset_measure_scan(prof, hs, 1.0)
    assert sum(read) <= 4 * 2 * hs.size


def test_levelset_scan_at_zero_horizon(monkeypatch):
    prof = expr_profile("sqrt(t)")
    monkeypatch.setattr(degeneracy, "_SCAN_POINTS", 10)
    assert levelset_measure_scan(prof, [0.1], 0.0) == [0.0]


@pytest.mark.parametrize("prof", [expr_profile("sqrt(t)"), power_profile(0.5)],
                         ids=["quadrature", "closed-form"])
@pytest.mark.parametrize("t0", [-0.5, math.nan, math.inf])
def test_levelset_scan_rejects_a_horizon_beta_is_not_defined_at(prof, t0):
    # a NaN t0 counted every level as 0 on a closed form
    with pytest.raises(ValueError, match="t0 must be finite and >= 0"):
        levelset_measure_scan(prof, [0.1], t0)


@pytest.mark.parametrize("prof", [expr_profile("sqrt(t)"), power_profile(0.5)],
                         ids=["quadrature", "closed-form"])
def test_levelset_scan_memory_is_bounded(prof):
    # 1M midpoints, held whole, would take 8 MB per array.  Chunked, the
    # scan holds at most 9 arrays of one chunk: the index, edges and
    # midpoints of the coarse grid and of the fine one (whose midpoint
    # buffer then takes the steps), beta, and delta's values with one
    # temporary; a closed form holds the coarse grid and its values
    bound = 9 * 8 * (_SCAN_CHUNK + 1)
    hs = np.logspace(-3.0, -0.5, 9)
    tracemalloc.start()
    try:
        levelset_measure_scan(prof, hs, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
