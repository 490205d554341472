"""Ellipticity floor profiles: cumulative integral, inverse, level sets."""

import math
import warnings

import numpy as np
import pytest

from degparab import (CoefficientPath, accumulate_on, check_domination,
                      epsilon_regularize,
                      constant_matrix_path, constant_profile, cumulative_delta,
                      cumulative_delta_grid, empirical_bound,
                      expr_matrix_path, expr_profile, fit_beta_exponent,
                      inverse_cumulative,
                      levelset_measure, levelset_measure_scan,
                      oscillatory_profile, parse_coefficients, parse_profile,
                      piecewise_profile, power_profile, scalar_path)
from degparab import degeneracy
from references import accumulate_path

# frozen from a 1e7-point midpoint rule for int_0^t (1 + sin(1/s)) ds
OSC_BETA_01 = 0.09105411361661561
OSC_BETA_05 = 0.5316680986775717


def test_eval_delta_power_at_zero():
    assert power_profile(1.0).delta(0.0) == 0.0


def test_eval_delta_constant():
    assert constant_profile(1.0).delta(0.37) == 1.0


@pytest.mark.parametrize("t", [1e-310, 5e-324])
def test_oscillatory_delta_at_subnormal_times(t):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [oscillatory_profile().delta(t),
                  *oscillatory_profile().delta(np.array([0.0, t, 1.0]))]
    assert all(0.0 <= v <= 2.0 for v in values)


@pytest.mark.parametrize("t", [1e-310, 5e-324])
def test_oscillatory_cumulative_at_subnormal_times(t):
    cumulative = oscillatory_profile().closed_form_cumulative
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = [cumulative(t), *cumulative(np.array([t, t]))]
    # the bracket t/4 <= beta(t) <= 2t
    assert all(t / 4.0 <= v <= 2.0 * t for v in values)


def test_oscillatory_cumulative_unchanged_at_normal_times():
    from scipy.special import sici

    ts = np.array([np.finfo(float).tiny, 1e-300, 1e-150, 1e-8, 0.1, 0.5,
                   1.0, 7.0])
    # the closed form t + t sin(1/t) - Ci(1/t), evaluated as before the
    # subnormal guard
    old = ts + ts * np.sin(1.0 / ts) - sici(1.0 / ts)[1]
    cumulative = oscillatory_profile().closed_form_cumulative
    assert np.array_equal(cumulative(ts), old)
    assert [cumulative(t) for t in ts] == list(old)


def test_expr_without_t_is_a_constant_profile():
    prof = expr_profile("1")
    assert prof.delta(np.linspace(0.0, 1.0, 5)).shape == (5,)
    assert prof.delta(0.5) == 1.0
    assert abs(cumulative_delta(prof, 1.0) - 1.0) <= 1e-10


def test_eval_delta_oscillatory_closed_value():
    # 1 + sin(pi/2) = 2
    assert abs(oscillatory_profile().delta(2.0 / math.pi) - 2.0) < 1e-14


def test_cumulative_power_alpha_one():
    # beta(t) = t^2 / 2
    assert abs(cumulative_delta(power_profile(1.0), 1.0) - 0.5) < 1e-13


def test_cumulative_zero_profile():
    assert cumulative_delta(constant_profile(0.0), 3.0) == 0.0


def test_cumulative_oscillatory_matches_midpoint_oracle():
    prof = oscillatory_profile()
    v1 = cumulative_delta(prof, 0.1)
    v5 = cumulative_delta(prof, 0.5)
    assert abs(v1 - OSC_BETA_01) < 1e-6
    assert abs(v5 - OSC_BETA_05) < 1e-6
    # bracket t/4 <= beta(t) <= 2t
    assert 0.1 / 4.0 <= v1 <= 2.0 * 0.1


def test_cumulative_monotone():
    prof = oscillatory_profile()
    ts = np.linspace(0.0, 1.0, 97)
    vals = cumulative_delta_grid(prof, ts)
    assert np.all(np.diff(vals) >= -1e-14)


def test_cumulative_grid_matches_pointwise():
    prof = parse_profile('expr("t * t + 0.3")')
    ts = np.array([0.0, 0.2, 0.7, 1.3])
    grid_vals = cumulative_delta_grid(prof, ts)
    # the grid helper is a midpoint scan, not adaptive quadrature
    for t, v in zip(ts, grid_vals):
        assert abs(v - cumulative_delta(prof, float(t))) < 1e-7


def test_inverse_identity_profile():
    assert abs(inverse_cumulative(constant_profile(1.0), 0.3, 2.0) - 0.3) < 1e-12


def test_inverse_power_profile_analytic():
    # beta(t) = t^2/2, so phi(0.5) = 1
    assert abs(inverse_cumulative(power_profile(1.0), 0.5, 2.0) - 1.0) < 1e-9


def test_inverse_plateau_generalized():
    # delta = 0 on [0,1], 1 after: phi(0.25) = 1.25
    prof = piecewise_profile([(0.0, "0"), (1.0, "1")])
    assert abs(inverse_cumulative(prof, 0.25, 3.0) - 1.25) < 1e-9


def test_inverse_at_zero_is_zero():
    assert inverse_cumulative(power_profile(2.0), 0.0, 1.0) == 0.0


def test_inverse_out_of_range_reports_reachable_value():
    with pytest.raises(ValueError) as info:
        inverse_cumulative(constant_profile(1.0), 5.0, 2.0)
    assert "2.0" in str(info.value)  # beta(t_max) = 2.0 mentioned


def test_inverse_consistency_property():
    profiles = [constant_profile(1.0), power_profile(1.0),
                oscillatory_profile(), piecewise_profile([(0.0, "0"), (0.5, "2")])]
    for prof in profiles:
        top = cumulative_delta(prof, 1.0)
        for frac in (0.1, 0.5, 0.9):
            h = frac * top
            t = inverse_cumulative(prof, h, 1.0)
            assert cumulative_delta(prof, t) >= h - 1e-9
        for t in (0.2, 0.8):
            h = cumulative_delta(prof, t)
            assert inverse_cumulative(prof, h, 1.0) <= t + 1e-9


def test_inverse_exact_when_strictly_positive():
    prof = parse_profile('expr("t + 0.1")')
    for h in (0.05, 0.2, 0.4):
        t = inverse_cumulative(prof, h, 1.0)
        assert abs(cumulative_delta(prof, t) - h) < 1e-9


def test_levelset_constant():
    # beta(t) = t: the set is [0.1, 0.4), measure 0.3
    assert abs(levelset_measure(constant_profile(1.0), 0.1, 1.0) - 0.3) < 1e-12


def test_levelset_power_analytic():
    # beta = t^2/2: measure = sqrt(8h) - sqrt(2h) = sqrt(2h)
    h = 0.01
    m = levelset_measure(power_profile(1.0), h, 1.0)
    assert abs(m - (math.sqrt(8 * h) - math.sqrt(2 * h))) < 1e-9


def test_levelset_empty_above_range():
    prof = power_profile(1.0)
    assert levelset_measure(prof, cumulative_delta(prof, 1.0) * 1.5, 1.0) == 0.0


def test_levelset_matches_scan():
    prof = oscillatory_profile()
    width = 1.0 / degeneracy._SCAN_POINTS
    hs = (0.01, 0.05, 0.1)
    for h, scanned in zip(hs, levelset_measure_scan(prof, hs, 1.0)):
        direct = levelset_measure(prof, h, 1.0)
        assert abs(direct - scanned) <= 2.0 * width


@pytest.mark.parametrize("prof", [oscillatory_profile(),
                                  parse_profile('expr("sqrt(t)")')],
                         ids=["closed-form", "quadrature"])
def test_levelset_scan_of_a_grid_equals_one_level_scans(monkeypatch, prof):
    hs = [0.003, 0.01, 0.05, 0.2]
    monkeypatch.setattr(degeneracy, "_SCAN_POINTS", 20_000)
    batch = levelset_measure_scan(prof, hs, 1.0)
    assert batch == [levelset_measure_scan(prof, [h], 1.0)[0] for h in hs]


def test_fit_reports_the_measures_it_fits():
    prof = parse_profile('expr("sqrt(t)")')
    top = cumulative_delta(prof, 1.0) / 4.0
    h_grid = np.logspace(math.log10(top) - 2.5, math.log10(top), 9)
    fit = fit_beta_exponent(prof, 1.0, h_grid)
    assert fit.measures == tuple(levelset_measure(prof, h, 1.0)
                                 for h in h_grid)


def test_fit_beta_power_profiles():
    for alpha in (0.0, 1.0, 2.0):
        prof = power_profile(alpha)
        top = cumulative_delta(prof, 1.0) / 4.0
        h_grid = np.logspace(math.log10(top) - 2.5, math.log10(top), 9)
        fit = fit_beta_exponent(prof, 1.0, h_grid)
        expected = alpha + 1.0
        assert abs(fit.beta_hat - expected) / expected < 0.02
        assert fit.n0_hat > 0.0


def test_fit_beta_oscillatory():
    prof = oscillatory_profile()
    top = cumulative_delta(prof, 1.0) / 4.0
    h_grid = np.logspace(math.log10(top) - 2.5, math.log10(top), 9)
    fit = fit_beta_exponent(prof, 1.0, h_grid)
    assert abs(fit.beta_hat - 1.0) < 0.10


def test_fit_rejects_vanishing_measures():
    prof = power_profile(1.0)
    top = cumulative_delta(prof, 1.0)
    with pytest.raises(ValueError, match="vanish"):
        fit_beta_exponent(prof, 1.0, np.array([2.0, 20.0, 200.0, 2000.0]) * top)


def test_fit_needs_enough_points():
    prof = constant_profile(1.0)
    with pytest.raises(ValueError):
        fit_beta_exponent(prof, 1.0, np.array([0.01, 0.02, 0.04]))


def test_domination_equal_is_one():
    prof = power_profile(1.0)
    path = scalar_path(prof, 1)
    times = np.linspace(0.1, 1.0, 7)
    assert abs(check_domination(path, prof, times) - 1.0) < 1e-12


def test_domination_doubled_is_two():
    prof = constant_profile(1.0)
    path = constant_matrix_path(np.eye(2) * 2.0)
    times = np.linspace(0.1, 1.0, 5)
    assert abs(check_domination(path, prof, times) - 2.0) < 1e-12


def test_domination_flags_infinity_over_vanishing_floor():
    path = constant_matrix_path(np.eye(1))
    prof = constant_profile(0.0)
    assert math.isinf(check_domination(path, prof, [0.5]))


def domination_loop(path, profile, sample_times):
    """check_domination one sample at a time: the loop it replaced."""
    worst = 0.0
    for t in np.asarray(sample_times, dtype=float):
        amax = float(np.abs(path.a(t)).max())
        d = float(profile.delta(t))
        if d > 0.0:
            worst = max(worst, amax / d)
        elif amax > 0.0:
            return math.inf
    return worst


# the smallest eigenvalue of [[1 + t, 0.3 t], [0.3 t, t^2]] in closed form
MIN_EIGENVALUE = expr_profile(
    "(1 + t + t*t)/2 - sqrt(((1 + t - t*t)/2)**2 + (0.3*t)**2)")

DOMINATION_PATHS = {
    "scalar": scalar_path(oscillatory_profile(), 2),
    "scalar power": scalar_path(power_profile(1.0), 1),
    "constant matrix": constant_matrix_path([[2.0, 0.5], [0.5, 1.0]]),
    "expr matrix": expr_matrix_path([["1 + t", "0.3*t"], ["0.3*t", "t*t"]]),
    "parsed": parse_coefficients('matrix([["t", "0.5*t"], ["0.5*t", "t"]])',
                                 2),
    "zero": constant_matrix_path([[0.0]]),
    "regularized": epsilon_regularize(scalar_path(power_profile(1.0), 1), 0.1),
}
DOMINATION_PROFILES = {
    "power": power_profile(1.0),
    "constant": constant_profile(0.5),
    "vanishing": constant_profile(0.0),
    "plateau": piecewise_profile([(0.0, "0"), (0.5, "1")]),
    "oscillatory": oscillatory_profile(),
    "min eigenvalue": MIN_EIGENVALUE,
}


@pytest.mark.parametrize("path_name", sorted(DOMINATION_PATHS))
@pytest.mark.parametrize("prof_name", sorted(DOMINATION_PROFILES))
def test_domination_equals_the_sample_loop(path_name, prof_name):
    path = DOMINATION_PATHS[path_name]
    prof = DOMINATION_PROFILES[prof_name]
    for times in (np.linspace(0.0, 1.0, 1025), np.linspace(0.6, 1.0, 7),
                  [0.25], []):
        assert (check_domination(path, prof, times)
                == domination_loop(path, prof, times))


def test_domination_of_the_min_eigenvalue_floor_equals_the_loop():
    path = expr_matrix_path([["1 + t", "0.3*t"], ["0.3*t", "t*t"]])
    times = np.linspace(0.0, 1.0, 513)
    assert (check_domination(path, MIN_EIGENVALUE, times)
            == domination_loop(path, MIN_EIGENVALUE, times))


def test_parse_profile_grammar():
    assert parse_profile("constant(2.5)").delta(0.1) == 2.5
    assert abs(parse_profile("power(2)").delta(0.5) - 0.25) < 1e-15
    assert parse_profile("oscillatory()").spec == "oscillatory()"
    assert parse_profile('expr("2*t + 1")').delta(1.0) == 3.0
    pw = parse_profile('piecewise([(0.0, "0"), (1.0, "1")])')
    assert pw.delta(0.5) == 0.0
    assert pw.delta(1.5) == 1.0


def test_parse_profile_rejects_garbage():
    for bad in ("gauss(1)", "power()", "expr(t)", "constant(-1)", ""):
        with pytest.raises(ValueError):
            parse_profile(bad)


def test_shifted_profile():
    prof = power_profile(1.0).shifted(0.5)
    assert prof.delta(0.0) == 0.5
    assert abs(cumulative_delta(prof, 1.0) - 1.0) < 1e-10


def test_parse_coefficients_scalar_and_matrix():
    path = parse_coefficients("scalar(power(1))", 2)
    assert np.allclose(path.a(0.5), 0.5 * np.eye(2))
    path2 = parse_coefficients('matrix([["1", "t"], ["t", "2"]])', 2)
    assert np.allclose(path2.a(0.3), [[1.0, 0.3], [0.3, 2.0]])


def test_parse_coefficients_rejects_asymmetric():
    with pytest.raises(ValueError):
        parse_coefficients('matrix([["1", "t"], ["0", "2"]])', 2)


def test_accumulate_path_identity():
    # the per-node oracle and accumulate_on agree on a closed form
    path = constant_matrix_path(np.eye(2))
    assert np.allclose(accumulate_path(path, 0.5), 0.5 * np.eye(2), atol=1e-13)
    assert np.array_equal(accumulate_on(path, [0.5])[0],
                          accumulate_path(path, 0.5))


def test_accumulate_path_oscillatory_matches_cumulative():
    prof = oscillatory_profile()
    path = scalar_path(prof, 1)
    B = accumulate_path(path, 0.1)
    assert abs(B[0, 0] - cumulative_delta(prof, 0.1)) < 1e-12
    assert np.array_equal(accumulate_on(path, [0.1])[0], B)


def test_expr_matrix_path_time_dependent():
    path = expr_matrix_path([["1 + t", "0"], ["0", "1"]])
    assert np.allclose(path.a(1.0), np.diag([2.0, 1.0]))
    B = accumulate_on(path, [1.0])[0]
    assert np.allclose(B, np.diag([1.5, 1.0]), atol=1e-12)


def test_empirical_bound_oscillatory():
    # sup of 1 + sin(1/t) is 2, attained arbitrarily close to 0
    assert empirical_bound(oscillatory_profile(), 1.0) > 1.9


def test_coefficient_path_rejects_bad_dim():
    with pytest.raises(ValueError):
        CoefficientPath(dim=4, a=lambda t: np.eye(4), cumulative=None,
                        bound_M=1.0, spec="", breakpoints=())
