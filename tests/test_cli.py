"""Config parsing, field construction, and the command-line entry point."""

import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import degparab
from degparab import (GridSpec, SeparableForcing, SpectralField,
                      build_forcing, build_initial, cli, lp_norm, oracle,
                      rough_field)
from degparab.cli import (_FIELD_MAP, RUNNERS, ConfigError,
                          ExperimentConfig, NonFiniteDataError, main,
                          parse_config, validate_config)
from references import load_report

SRC = os.path.dirname(os.path.dirname(os.path.abspath(degparab.__file__)))


def write_cfg(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_defaults_are_valid():
    assert validate_config(ExperimentConfig()) == []


def test_parse_reports_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config("[grid]\nresolution = 512\n")
    assert any("unknown key" in d for d in err.value.diagnostics)
    assert any("grid.resolution" in d for d in err.value.diagnostics)


def test_parse_reports_bad_type():
    with pytest.raises(ConfigError) as err:
        parse_config("[grid]\nn = many\n")
    assert any("cannot parse" in d for d in err.value.diagnostics)


def test_parse_collects_all_diagnostics():
    with pytest.raises(ConfigError) as err:
        parse_config("[grid]\nn = many\nresolution = 4\n")
    assert len(err.value.diagnostics) == 2


def test_validate_flags_bad_grid():
    diags = validate_config(ExperimentConfig(n=1000))
    assert any(d.startswith("grid:") for d in diags)


def test_validate_flags_partition_kind():
    diags = validate_config(ExperimentConfig(partition_kind="random"))
    assert any("partition.kind" in d for d in diags)


def test_validate_flags_eps_ordering():
    diags = validate_config(ExperimentConfig(eps_list=(0.01, 0.1)))
    assert any("eps_list" in d for d in diags)


def test_validate_flags_rough_on_coarse_grid():
    cfg = ExperimentConfig(n=8, period=32.0, initial_spec="rough(1.0)",
                           k_max=1)
    diags = validate_config(cfg)
    assert any("initial.spec" in d and "j_max" in d for d in diags)


def test_validate_flags_k_range_ordering():
    diags = validate_config(ExperimentConfig(k_min=3, k_max=2))
    assert any("k_min" in d for d in diags)


@pytest.mark.parametrize("t_count", [0, -1])
def test_validate_flags_t_count_below_one(t_count):
    assert validate_config(ExperimentConfig(t_count=t_count)) == [
        f"params.t_count: need >= 1, got {t_count}"]


@pytest.mark.parametrize("beta_hat", [0.0, -0.5, math.inf, math.nan])
def test_validate_flags_beta_hat_outside_the_positive_reals(beta_hat):
    assert validate_config(ExperimentConfig(beta_hat=beta_hat)) == [
        f"params.beta_hat: must be finite and > 0, got {beta_hat}"]


@pytest.mark.parametrize("command, params", [
    ("kernel-decay", "t_count = -1"), ("kernel-decay", "t_count = 0"),
    ("check-thm2", "beta_hat = 0"), ("check-thm2", "beta_hat = -1.5")])
def test_out_of_range_counts_and_exponents_exit_3(tmp_path, capsys, command,
                                                  params):
    path = write_cfg(tmp_path, f"[params]\n{params}\n")
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: params.{params.split()[0]}: ")


def test_kernel_decay_rejects_blocks_beyond_grid(tmp_path, capsys):
    # n=1024, period=32 resolves dyadic scales up to j_max = 5
    path = write_cfg(tmp_path, "[params]\nk_max = 9\n")
    code = main(["kernel-decay", "--config", path,
                 "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "k_max" in err and "j_max = 5" in err


def test_kernel_decay_rejects_blocks_below_grid(tmp_path, capsys):
    # period = 0.25 puts the lowest dyadic scale at j_min = 2, above the
    # default k_min = 1; the config itself validates
    text = "[grid]\nperiod = 0.25\nn = 256\n"
    assert validate_config(parse_config(text)) == []
    code = main(["kernel-decay", "--config", write_cfg(tmp_path, text),
                 "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: params.k_min: ")
    assert "j_min = 2" in err[0]


@pytest.mark.parametrize("command", ["check-thm2", "profile-check"])
@pytest.mark.parametrize("t0, expected", [(-0.5, 3), (0.0, 2)])
def test_negative_t0_is_a_config_error(tmp_path, capsys, command, t0,
                                       expected):
    # t0 = 0 is valid: beta(0) vanishes, so the level-set fit fails (exit 2)
    path = write_cfg(tmp_path, f"[grid]\nn = 256\n\n[partition]\nsteps = 16"
                               f"\n\n[params]\nt0 = {t0}\n")
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == expected
    err = capsys.readouterr().err.splitlines()
    if expected == 3:
        assert err == [f"config error: params.t0: must be >= 0, got {t0}"]
    else:
        assert err == []


@pytest.mark.parametrize("section, setting, diag", [
    ("partition", "ratio = 1e-320",
     "partition: partition nodes must be strictly increasing"),
    ("partition", "horizon = 1e-320",
     "partition: partition nodes must be strictly increasing"),
    ("partition", "horizon = nan",
     "partition.horizon: must be positive and finite, got nan"),
    ("partition", "horizon = inf",
     "partition.horizon: must be positive and finite, got inf"),
    ("params", "t0 = inf", "params.t0: must be finite, got inf"),
    ("params", "smoothness = nan",
     "params.smoothness: must be finite, got nan"),
    ("params", "smoothness = inf",
     "params.smoothness: must be finite, got inf"),
    ("params", "h_decades = nan",
     "params.h_decades: fit needs a finite >= 2 decades, got nan"),
    ("params", "h_decades = inf",
     "params.h_decades: fit needs a finite >= 2 decades, got inf"),
    # kernel-decay wrote NaN rows or warned and exited 0 on these, and
    # eps-sweep exited 0 or 2
    ("params", "gamma = nan",
     "params.gamma: must be finite and >= 0, got nan"),
    ("params", "gamma = inf",
     "params.gamma: must be finite and >= 0, got inf"),
    ("params", "t_lo = nan", "params.t_lo: must be finite and > 0, got nan"),
    ("params", "t_lo = inf", "params.t_lo: must be finite and > 0, got inf"),
    ("params", "t_hi = nan",
     "params.t_hi: must be finite and > t_lo, got nan"),
    ("params", "t_hi = inf",
     "params.t_hi: must be finite and > t_lo, got inf"),
    ("params", "eps_list = 0.1,nan", "params.eps_list: must be positive, "
     "finite and decreasing, got [0.1, nan]"),
    ("params", "eps_list = inf,0.1", "params.eps_list: must be positive, "
     "finite and decreasing, got [inf, 0.1]"),
    # eps-sweep exited 0 with a header-only eps_sweep.csv
    ("params", "eps_list = ,",
     "params.eps_list: must list at least one eps, got []")])
def test_configs_that_cannot_run_fail_validation(tmp_path, capsys, section,
                                                 setting, diag):
    # each of these used to pass validation and then exit 1 in some or all
    # subcommands
    path = write_cfg(tmp_path, f"[grid]\nn = 64\n\n[{section}]\n{setting}\n")
    for command in sorted(RUNNERS):
        assert main([command, "--config", path,
                     "--out", str(tmp_path / "o")]) == 3, command
        assert capsys.readouterr().err.splitlines() == [
            f"config error: {diag}"], command


def test_every_config_field_has_exactly_one_key():
    names = [name for name, _ in _FIELD_MAP.values()]
    assert sorted(names) == sorted(f.name for f in fields(ExperimentConfig))
    assert _FIELD_MAP["partition", "kind"] == ("partition_kind", str)


OVERFLOW_CONFIG = """
[grid]
n = 256

[partition]
steps = 16

[profile]
spec = power(1)

[coefficients]
spec = scalar(power(1))

[forcing]
spec = separable("t", gaussian(1.5))

[params]
p = {p}
"""


def assert_scaled_rows(rows):
    """Every row unflagged, with lhs, both rhs pieces and ratio finite and
    the rhs pieces positive."""
    assert rows
    for row in rows:
        assert row.endswith(',""'), row
        lhs, rhs_1, rhs_2, ratio = map(float, row.split(",")[7:11])
        assert all(math.isfinite(v) for v in (lhs, rhs_1, rhs_2, ratio)), row
        assert rhs_1 > 0.0 and rhs_2 > 0.0, row


@pytest.mark.parametrize("command, p", [("check-thm1", "400"),
                                        ("eps-sweep", "1e308")])
def test_weighted_norms_beyond_the_float_range_are_scaled(
        tmp_path, capsys, command, p):
    # delta^(1-p) of the forcing norm raised OverflowError, which exited 1
    # and later read inf (inadmissible-weight, exit 2); the norm is finite
    path = write_cfg(tmp_path, OVERFLOW_CONFIG.format(p=p))
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""
    assert_scaled_rows(
        next((tmp_path / "o").glob("*.csv")).read_text().splitlines()[1:])


@pytest.mark.parametrize("command, p, initial", [
    # the Besov norm of u0 took a Python float power: OverflowError, exit 1;
    # then every power overflowed to inf (inadmissible-weight, exit 2)
    ("check-thm1", "400", "gaussian(0.1)"),
    # numpy's overflow warning from the Hessian and L_p norms; then lhs read
    # inf and rhs[initial] 0.0, as each power over- or underflowed
    ("check-thm1", "1e308", "gaussian(0.1)"),
    ("check-classic", "1e308", "gaussian(2.0)")])
def test_norm_powers_beyond_the_float_range_are_scaled_quietly(
        tmp_path, command, p, initial):
    proc = run_module(tmp_path, command, OVERFLOW_CONFIG.format(p=p)
                      + f"\n[initial]\nspec = {initial}\n")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert_scaled_rows(next((tmp_path / "out").glob("*.csv"))
                       .read_text().splitlines()[1:])


def test_check_thm2_at_a_huge_p_warns_nothing(tmp_path, capsys):
    # beta_hat * p overflowed in numpy, which printed "RuntimeWarning:
    # overflow encountered in scalar multiply"; as an error it would exit 1
    path = write_cfg(tmp_path, OVERFLOW_CONFIG.format(p="1e308")
                     + "\n[initial]\nspec = gaussian(0.1)\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check-thm2", "--config", path,
                     "--out", str(tmp_path / "o")])
    assert code == 0
    assert "RuntimeWarning" not in capsys.readouterr().err
    # lhs and the Besov norm of u0 read inf and 0.0 until the norms scaled
    # their powers; both are finite now
    row = (tmp_path / "o" / "thm2.csv").read_text().splitlines()[1]
    fields = row.split(",")
    assert ",".join(fields[:7]) == 'thm2,0.0,1e+308,0.0,"power(1.0)",256,16'
    assert fields[9:] == ["0.0", fields[10], '""']
    lhs, rhs, ratio = map(float, fields[7:9] + fields[10:11])
    assert 0.0 < lhs < math.inf and 0.0 < rhs < math.inf
    assert ratio == lhs / rhs
    assert "Besov order 2(1-1/(beta*p)) = 2.0" in (
        tmp_path / "o" / "summary.txt").read_text()


@pytest.mark.parametrize("setting, diag", [
    # 1e-300: |xi|^2 and the Besov weights 2^(2sj) overflow; 1e-100: the
    # Hessian weights |xi|^4 and the Besov weights; smoothness = -2 leaves
    # only |xi|^4, which made check-thm1 report N_hat = nan with exit 0
    ("period = 1e-300", "frequencies up to 2.011e+302 overflow |xi|^4 or "
     "the Besov weights 2^(2sj) at s = 2.0; enlarge the period or lower n"),
    ("period = 1e-100", "frequencies up to 2.011e+102 overflow |xi|^4 or "
     "the Besov weights 2^(2sj) at s = 2.0; enlarge the period or lower n"),
    ("period = 1e-100\n\n[params]\nsmoothness = -2",
     "frequencies up to 2.011e+102 overflow |xi|^4 or the Besov weights "
     "2^(2sj) at s = 0.0; enlarge the period or lower n"),
    ("period = nan", "period must be positive and finite, got nan"),
    ("period = inf", "period must be positive and finite, got inf")])
def test_grids_beyond_the_float_range_fail_validation(tmp_path, capsys,
                                                      setting, diag):
    # a tiny period used to pass validation and then exit 1 in check-thm1
    # and eps-sweep (OverflowError) or run on infinite weights elsewhere
    path = write_cfg(tmp_path, f"[grid]\nn = 64\n{setting}\n")
    for command in sorted(RUNNERS):
        assert main([command, "--config", path,
                     "--out", str(tmp_path / "o")]) == 3, command
        assert capsys.readouterr().err.splitlines() == [
            f"config error: grid: {diag}"], command


def test_profile_check_reports_an_impossible_level_set_fit(tmp_path):
    # beta(t0) = t0^2 / 2 overflows, so every level is nan: a failed check,
    # not an internal error
    path = write_cfg(tmp_path, "[grid]\nn = 64\n\n[partition]\nsteps = 8\n"
                               "horizon = 1e300\n\n[profile]\n"
                               "spec = power(1)\n")
    out = tmp_path / "o"
    assert main(["profile-check", "--config", path, "--out", str(out)]) == 2
    summary = (out / "summary.txt").read_text()
    assert ("FAIL: level-set fit impossible: level h must be positive, "
            "got nan") in summary
    csv = (out / "profile_check.csv").read_text()
    assert csv == "h,measure,scan_measure\n"


def test_validate_flags_mode_dim_mismatch():
    diags = validate_config(ExperimentConfig(initial_spec="mode(4, 8)"))
    assert any("initial.spec" in d and "mode" in d for d in diags)


def test_validate_flags_bad_profile():
    diags = validate_config(ExperimentConfig(profile_spec="gauss(1)"))
    assert any("profile.spec" in d for d in diags)


def test_build_initial_gaussian_and_mode():
    grid = GridSpec(dim=1, n=256, length=32.0)
    u = build_initial("gaussian(2.0)", grid, 2.0, seed=0)
    assert float(u.samples.max()) == pytest.approx(1.0)
    m = build_initial("mode(4)", grid, 2.0, seed=0)
    assert abs(float(m.samples[0]) - 1.0) < 1e-12  # cos(0) = 1
    with pytest.raises(ValueError):
        build_initial("mode(4, 8)", grid, 2.0, seed=0)


def test_rough_field_band_structure():
    # disjoint Fourier shells: squared L2 norms of the scales add up
    grid = GridSpec(dim=1, n=512, length=32.0)
    s, p = 1.0, 2.0
    u = rough_field(grid, s, p, seed=3)
    from degparab import LPFamily
    fam = LPFamily.for_grid(grid)
    expected = math.sqrt(sum(2.0 ** (-2.0 * s * j)
                             for j in range(1, fam.j_max)))
    assert abs(lp_norm(u, 2.0) - expected) < 1e-10


def test_rough_field_determinism_and_variants():
    grid = GridSpec(dim=1, n=256, length=32.0)
    a = rough_field(grid, 1.0, 2.0, seed=3)
    b = rough_field(grid, 1.0, 2.0, seed=3)
    c = rough_field(grid, 1.0, 2.0, seed=3, variant=1)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_build_forcing_separable():
    grid = GridSpec(dim=1, n=256, length=32.0)
    f = build_forcing('separable("1 - t", gaussian(0.7))', grid, 2.0, seed=0)
    zero = f(1.0)
    assert float(np.max(np.abs(zero.samples))) < 1e-15
    half = f(0.5)
    base = build_initial("gaussian(0.7)", grid, 2.0, seed=0)
    assert np.allclose(half.samples, 0.5 * base.samples)


def test_build_forcing_none():
    grid = GridSpec(dim=1, n=256, length=32.0)
    assert build_forcing("none", grid, 2.0, seed=0) is None


def test_main_missing_config(tmp_path, capsys):
    code = main(["solve", "--config", str(tmp_path / "nope.ini")])
    assert code == 3
    assert "config error" in capsys.readouterr().err


def test_main_invalid_config(tmp_path, capsys):
    path = write_cfg(tmp_path, "[grid]\nn = 1000\n")
    code = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "config error" in err and "power of two" in err


def test_main_quadrature_budget_is_a_config_error(tmp_path, capsys):
    # validates, but 1 + sin(1/t) cannot reach the target near t = 0
    path = write_cfg(tmp_path, """
[grid]
n = 64

[partition]
steps = 4

[profile]
spec = expr("1+sin(1/t)")

[coefficients]
spec = scalar(expr("1+sin(1/t)"))
""")
    code = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith('quadrature error: scalar(expr("1+sin(1/t)"))')
    assert "achieved error estimate" in lines[0] and "target" in lines[0]


def test_main_non_finite_integrand_is_a_quadrature_error(tmp_path, capsys):
    # validates, but sqrt(t - 0.5) is NaN below t = 0.5
    path = write_cfg(tmp_path, """
[grid]
n = 64

[partition]
steps = 4

[profile]
spec = expr("sqrt(t - 0.5)")

[coefficients]
spec = scalar(expr("sqrt(t - 0.5)"))
""")
    with np.errstate(invalid="ignore"):
        code = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(
        'quadrature error: scalar(expr("sqrt(t - 0.5)")): '
        "achieved error estimate nan")


@pytest.mark.parametrize("expr", [
    "sin(t, t)", "sin()", "min(t)", "sin + t",
    pytest.param("1" + "0" * 400, id="huge-literal"),
])
def test_main_bad_expression_is_a_config_error(tmp_path, capsys, expr):
    path = write_cfg(tmp_path, f"""
[profile]
spec = expr("{expr}")

[coefficients]
spec = scalar(expr("{expr}"))
""")
    code = main(["solve", "--config", path, "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("config error: profile.spec: ")
    assert lines[1].startswith("config error: coefficients.spec: ")


def test_main_summaries_print_plain_floats(tmp_path):
    path = write_cfg(tmp_path, """
[grid]
n = 256

[partition]
steps = 16

[profile]
spec = power(1)

[coefficients]
spec = scalar(power(1))
""")
    for command in ("check-thm2", "profile-check"):
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "beta_hat" in summary and "np.float64" not in summary


def test_main_solve_frozen_dynamics(tmp_path):
    path = write_cfg(tmp_path, """
[grid]
n = 256

[partition]
kind = uniform
steps = 8

[coefficients]
spec = scalar(constant(0.0))

[profile]
spec = constant(0.0)
""")
    out = tmp_path / "out"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    meta, nodes, snaps = load_report(str(out / "report"))
    assert meta["n"] == "256"
    assert len(snaps) == 9
    # zero coefficients, no forcing: every snapshot equals the first
    for snap in snaps[1:]:
        assert float(np.max(np.abs(snap.samples - snaps[0].samples))) < 1e-13
    assert (out / "summary.txt").read_text().startswith("command: solve")


@pytest.mark.parametrize("dim", [1, 2])
def test_solve_transforms_each_snapshot_once(tmp_path, monkeypatch, dim):
    # K inverse transforms for snapshots 1..K (snapshot 0 is the initial
    # samples), read once by save_report and the norm rows, plus dim^2 for
    # the weak residual's test-function derivatives: K + 1 in 1D
    path = write_cfg(tmp_path, f"""
[grid]
dim = {dim}
n = 32
period = 16.0

[partition]
kind = geometric
steps = 8

[profile]
spec = power(1)

[coefficients]
spec = scalar(power(1))

[forcing]
spec = separable("t", gaussian(1.5))
""")
    calls = []
    ifftn = np.fft.ifftn

    def spy(*args, **kwargs):
        calls.append(1)
        return ifftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", spy)
    assert degparab.run("solve", path, out=str(tmp_path / "out")) == 0
    assert len(calls) == 8 + dim ** 2


def test_main_check_thm1_degenerate(tmp_path):
    path = write_cfg(tmp_path, """
[grid]
n = 512

[partition]
kind = geometric
steps = 48

[profile]
spec = power(1)

[coefficients]
spec = scalar(power(1))

[forcing]
spec = separable("t", gaussian(1.5))
""")
    out = tmp_path / "out"
    assert main(["check-thm1", "--config", path, "--out", str(out)]) == 0
    rows = (out / "thm1.csv").read_text().splitlines()
    assert rows[0].startswith("theorem,")
    ratio = float(rows[1].split(",")[10])
    assert math.isfinite(ratio) and ratio > 0


def test_main_check_thm2_inadmissible(tmp_path, capsys):
    # coefficients stay elliptic while the declared floor vanishes
    path = write_cfg(tmp_path, """
[grid]
n = 256

[partition]
steps = 16

[profile]
spec = constant(0.0)

[coefficients]
spec = scalar(constant(1.0))
""")
    out = tmp_path / "out"
    assert main(["check-thm2", "--config", path, "--out", str(out)]) == 2
    summary = (out / "summary.txt").read_text()
    assert "flags: inadmissible-hypothesis:levelset;beta(t0) = 0.0 vanishes;" \
        in summary


def test_main_profile_check_oscillatory(tmp_path):
    path = write_cfg(tmp_path, """
[grid]
n = 256

[profile]
spec = oscillatory()

[coefficients]
spec = scalar(oscillatory())
""")
    out = tmp_path / "out"
    assert main(["profile-check", "--config", path, "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "beta_hat" in summary
    assert "bracket t/4 <= beta(t) <= 2t" in summary
    assert "result: pass" in summary
    rows = (out / "profile_check.csv").read_text().splitlines()
    assert rows[0] == "h,measure,scan_measure"
    assert len(rows) == 10  # default h_points = 9


def test_check_thm2_fits_the_configured_levels(tmp_path):
    # profile-check and check-thm2 fit beta on the same h grid
    path = write_cfg(tmp_path, """
[grid]
n = 256

[partition]
steps = 32

[profile]
spec = expr("sqrt(t)")

[coefficients]
spec = scalar(expr("sqrt(t)"))

[params]
h_points = 5
h_decades = 4.0
""")
    reported = []
    for command in ("profile-check", "check-thm2"):
        out = tmp_path / command
        assert main([command, "--config", path, "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        reported.append([re.search(rf"{key} ?= ?([^,\s]+)", summary).group(1)
                         for key in ("beta_hat", "N0_hat")])
    assert reported[0] == reported[1]


def test_main_profile_check_on_expression_without_t(tmp_path):
    path = write_cfg(tmp_path, """
[grid]
n = 256

[profile]
spec = expr("1")

[coefficients]
spec = scalar(expr("1"))
""")
    out = tmp_path / "out"
    assert main(["profile-check", "--config", path, "--out", str(out)]) == 0
    assert "result: pass" in (out / "summary.txt").read_text()


def test_main_eps_sweep_reruns_byte_identical(tmp_path):
    text = """
[grid]
n = 256

[partition]
kind = geometric
steps = 32

[profile]
spec = power(1)

[coefficients]
spec = scalar(power(1))

[forcing]
spec = separable("t", gaussian(1.5))

[params]
eps_list = 0.1,0.01
"""
    path = write_cfg(tmp_path, text)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(["eps-sweep", "--config", path, "--out", str(out1)]) == 0
    assert main(["eps-sweep", "--config", path, "--out", str(out2)]) == 0
    assert (out1 / "eps_sweep.csv").read_bytes() == \
        (out2 / "eps_sweep.csv").read_bytes()


def test_main_seed_reproducibility(tmp_path):
    text = """
[grid]
n = 256

[partition]
steps = 16

[initial]
spec = rough(1.0)
"""
    path = write_cfg(tmp_path, text)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["check-thm1", "--config", path, "--out", str(out),
                     "--seed", "11"]) == 0
        outs.append((out / "thm1.csv").read_bytes())
    assert outs[0] == outs[1]
    out3 = tmp_path / "c"
    assert main(["check-thm1", "--config", path, "--out", str(out3),
                 "--seed", "12"]) == 0
    assert (out3 / "thm1.csv").read_bytes() != outs[0]


def test_main_kernel_decay(tmp_path):
    path = write_cfg(tmp_path, """
[grid]
n = 512
period = 16.0

[profile]
spec = constant(1.0)

[coefficients]
spec = scalar(constant(1.0))

[params]
k_min = 1
k_max = 5
t_count = 6
""")
    out = tmp_path / "out"
    assert main(["kernel-decay", "--config", path, "--out", str(out)]) == 0
    rows = (out / "kernel_decay.csv").read_text().splitlines()
    assert rows[0] == "k,t,beta,mass_ratio"
    assert len(rows) == 1 + 5 * 6
    summary = (out / "summary.txt").read_text()
    assert "violations: 0" in summary


def test_main_oracle_compare(tmp_path):
    path = write_cfg(tmp_path, """
[grid]
n = 256

[partition]
kind = uniform
steps = 64
horizon = 0.5

[profile]
spec = constant(1.0)

[coefficients]
spec = scalar(constant(1.0))

[initial]
spec = gaussian(2.0)

[params]
mc_samples = 20000
mc_probes = 3
""")
    out = tmp_path / "out"
    assert main(["oracle-compare", "--config", path, "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "observed fd convergence order" in summary
    assert "result: pass" in summary
    rows = (out / "mc_compare.csv").read_text().splitlines()
    assert rows[0] == "x_0,mean,stderr,samples,seed"
    assert len(rows) == 4


PLANTED_CONFIG = """
[grid]
n = 256

[partition]
kind = uniform
steps = 64
horizon = 0.5

[profile]
spec = constant(1.0)

[coefficients]
spec = scalar(constant(1.0))

[initial]
spec = gaussian(2.0)

[forcing]
spec = separable("t", gaussian(1.5))

[params]
mc_samples = 20000
mc_probes = 5
"""


def test_oracle_compare_flags_a_planted_bias(tmp_path, monkeypatch):
    path = write_cfg(tmp_path, PLANTED_CONFIG)
    clean = tmp_path / "clean"
    assert main(["oracle-compare", "--config", path, "--out", str(clean)]) == 0
    rows = (clean / "mc_compare.csv").read_text().splitlines()[1:]
    shift = 6.0 * max(float(row.split(",")[2]) for row in rows)
    calls = []
    solve_final = cli.solve_final

    def shifted(*args, **kwargs):
        # the first two solves feed the FD order check, the third is the
        # value the Monte Carlo estimate is compared with
        calls.append(solve_final(*args, **kwargs))
        if len(calls) < 3:
            return calls[-1]
        return SpectralField(calls[-1].grid, calls[-1].samples + shift)

    monkeypatch.setattr(cli, "solve_final", shifted)
    out = tmp_path / "planted"
    assert main(["oracle-compare", "--config", path, "--out", str(out)]) == 2
    assert len(calls) == 3
    summary = (out / "summary.txt").read_text().splitlines()
    assert [line for line in summary if line.startswith("FAIL:")] == [
        "FAIL: mc estimate outside 3 standard errors of spectral"]
    assert (out / "mc_compare.csv").read_text() == (
        clean / "mc_compare.csv").read_text()


def test_oracle_compare_transforms_as_often_at_any_step_count(tmp_path,
                                                              monkeypatch):
    # each forcing field scales one transform of its shape, and of each FD
    # and spectral solve only the final snapshot is inverse-transformed, so
    # the count does not grow with K (transforming each node, it went from
    # 169 to 329)
    calls = []
    for name in ("fftn", "ifftn"):
        def spy(*args, _transform=getattr(np.fft, name), **kwargs):
            calls.append(1)
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, spy)
    counts = []
    for steps in (16, 32):
        path = write_cfg(tmp_path, PLANTED_CONFIG.replace(
            "steps = 64", f"steps = {steps}").replace(
            "mc_samples = 20000", "mc_samples = 2000"), name=f"{steps}.ini")
        del calls[:]
        main(["oracle-compare", "--config", path, "--out",
              str(tmp_path / str(steps))])
        counts.append(len(calls))
    assert counts[0] == counts[1], counts


def test_run_programmatic_entry(tmp_path):
    from degparab import run
    path = write_cfg(tmp_path, """
[grid]
n = 256

[profile]
spec = constant(1.0)

[coefficients]
spec = scalar(constant(1.0))
""")
    out = tmp_path / "out"
    assert run("profile-check", path, out=str(out)) == 0
    assert (out / "summary.txt").exists()
    with pytest.raises(ValueError):
        run("frobnicate", path)


@pytest.mark.skipif(shutil.which("degparab") is None,
                    reason="console script not installed")
def test_console_script_smoke(tmp_path):
    path = write_cfg(tmp_path, """
[grid]
n = 256

[profile]
spec = constant(1.0)

[coefficients]
spec = scalar(constant(1.0))
""")
    out = tmp_path / "out"
    proc = subprocess.run(["degparab", "profile-check", "--config", path,
                           "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.txt").exists()


FORCING_NAN = 'separable("sqrt(t - 0.5)", gaussian(1.5))'
# a finite time factor whose product with the shape (max |shape| 2.2, seed
# 0, p = 2) overflows
FORCING_OVERFLOW = 'separable("1e308", rough(-1))'
# a time factor whose product with the shape is finite, but whose product
# with the shape's spectrum (max |Re|, |Im| 58) overflows
FORCING_SPECTRUM_OVERFLOW = 'separable("1e307", rough(-1))'


def run_module(tmp_path, subcommand, text):
    """python -m degparab in a fresh process, so that stderr holds numpy's
    warnings too."""
    path = write_cfg(tmp_path, text)
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "degparab", subcommand, "--config", path,
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True)


@pytest.mark.parametrize("section, spec, line", [
    ("forcing", FORCING_NAN,
     f"non-finite data: {FORCING_NAN}: field is NaN or inf at t=0.0"),
    ("forcing", FORCING_OVERFLOW,
     f"non-finite data: {FORCING_OVERFLOW}: field is NaN or inf at t=0.0"),
    ("forcing", FORCING_SPECTRUM_OVERFLOW,
     f"non-finite data: {FORCING_SPECTRUM_OVERFLOW}: field is NaN or inf "
     "at t=0.0"),
    ("initial", "mode(1e400)",
     "non-finite data: mode(1e400): field is NaN or inf"),
    ("initial", "gaussian(1e-300)",
     "non-finite data: gaussian(1e-300): field is NaN or inf"),
    ("initial", "rough(-1100)",
     "non-finite data: rough(-1100): field is NaN or inf"),
])
def test_non_finite_data_exits_3_with_one_stderr_line(tmp_path, section,
                                                      spec, line):
    # n = 256 resolves the dyadic scales rough(s) sums
    proc = run_module(tmp_path, "solve", f"""
[grid]
n = 256

[partition]
steps = 4

[{section}]
spec = {spec}
""")
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [line]
    assert not (tmp_path / "out" / "report" / "norms.csv").exists()


def test_non_finite_coefficients_print_one_stderr_line(tmp_path):
    proc = run_module(tmp_path, "solve", """
[grid]
n = 64

[partition]
steps = 4

[profile]
spec = expr("sqrt(t - 0.5)")

[coefficients]
spec = scalar(expr("sqrt(t - 0.5)"))
""")
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith('quadrature error: scalar(expr("sqrt(t - 0.5)")): '
                               "achieved error estimate nan")


def test_built_fields_are_checked_to_be_finite():
    grid = GridSpec(dim=1, n=64, length=8.0)
    with pytest.raises(NonFiniteDataError, match="mode"):
        build_initial("mode(1e400)", grid, 2.0, seed=0)
    f = build_forcing(FORCING_NAN, grid, 2.0, seed=0)
    assert np.all(np.isfinite(f(0.75).samples))
    with pytest.raises(NonFiniteDataError, match=r"at t=0\.25"):
        f(0.25)


def test_forcing_fields_scale_one_transform_of_the_shape(monkeypatch):
    grid = GridSpec(dim=2, n=16, length=8.0)
    shape = build_initial("rough(1)", grid, 2.0, seed=0)
    spectrum = np.fft.fftn(shape.samples)
    f = build_forcing('separable("t * t + 0.5", rough(1))', grid, 2.0, seed=0)
    # the checks read c(t) times the shape's spectrum, transformed when the
    # forcing was built, and f(t) scales the shape's samples
    monkeypatch.setattr(np.fft, "fftn", None)  # no transform per call
    for t in (0.0, 0.3, 1.7):
        field, c = f(t), t * t + 0.5
        assert field.samples.tobytes() == (c * shape.samples).tobytes()
        assert f.shape.spectrum.tobytes() == spectrum.tobytes()
    monkeypatch.undo()
    # a field's own spectrum is the transform of its samples
    assert (f(0.3).spectrum.tobytes()
            == np.fft.fftn((0.3 * 0.3 + 0.5) * shape.samples).tobytes())


def test_forcing_coefs_are_the_scalar_path_in_one_call():
    grid = GridSpec(dim=1, n=64, length=8.0)
    ts = np.array([0.0, 0.3, 0.5, 1.7])
    for text, coef in [('separable("t * t + 0.5", gaussian(1.5))',
                        lambda t: t * t + 0.5),
                       ('separable("2.5", gaussian(1.5))', lambda t: 2.5)]:
        f = build_forcing(text, grid, 2.0, seed=0)
        assert isinstance(f, SeparableForcing) and f.text == text
        cs = f.coefs(ts)
        assert cs.shape == ts.shape
        assert cs.tolist() == [coef(float(t)) for t in ts]
        for t, c in zip(ts, cs):
            assert f(t).samples.tobytes() == (c * f.shape.samples).tobytes()


def test_forcing_coefs_name_the_first_bad_time_without_a_warning():
    # c(t) = sqrt(t - 0.5) is NaN below 0.5, and 1e308 c S overflows; the
    # error names the first such time of the array, as f(t) names its t
    grid = GridSpec(dim=1, n=64, length=8.0)
    f = build_forcing(FORCING_NAN, grid, 2.0, seed=0)
    big = build_forcing('separable("1e300 * t", gaussian(1.5))', grid, 2.0,
                        seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(np.isfinite(f.coefs([0.5, 0.75])))
        with pytest.raises(NonFiniteDataError, match=r"at t=0\.25$"):
            f.coefs([0.75, 0.25, 0.0])
        with pytest.raises(NonFiniteDataError, match=r"at t=1e\+300$"):
            big.coefs([1.0, 1e300, 1e301])
        with pytest.raises(NonFiniteDataError, match=r"at t=1e\+300$"):
            big(1e300)


@pytest.mark.parametrize("forcing", ["1e200 * t", "1e200"])
def test_p2_norms_of_fields_beyond_the_square_range(tmp_path, forcing):
    # the p = 2 norms squared each spectral value: two "overflow encountered
    # in square" warnings, lhs = nan and rhs[forcing] = inf (exit 2).  With
    # c(0) = 0 every number is finite; with c(0) = 1e200 the forcing's
    # delta^(1 - p) weight diverges at t = 0, which alone is flagged
    proc = run_module(tmp_path, "check-thm1", OVERFLOW_CONFIG.format(p=2)
                      .replace('"t"', f'"{forcing}"'))
    assert proc.stderr == ""
    rows = (tmp_path / "out" / "thm1.csv").read_text().splitlines()[1:]
    if forcing == "1e200 * t":
        assert proc.returncode == 0
        assert_scaled_rows(rows)
    else:
        assert proc.returncode == 2
        lhs, rhs_1, rhs_2 = map(float, rows[0].split(",")[7:10])
        assert rows[0].endswith(',nan,"inadmissible-weight"')
        assert 1e198 < lhs < math.inf and rhs_1 == math.inf
        assert 0.0 < rhs_2 < math.inf


FORCED_1D = """
[grid]
n = 128

[partition]
steps = 16

[profile]
spec = power(1)

[coefficients]
spec = scalar(power(1))

[forcing]
spec = separable("1 + t", gaussian(1.5))

[params]
mc_samples = 2000
mc_probes = 3
"""


def test_oracle_compare_filters_one_spline_of_the_shape(tmp_path,
                                                        monkeypatch):
    # u0, the forcing's shape and the final field: the Monte Carlo oracle
    # scales the shape's one spline by c(t_i), where it filtered a spline
    # of every node's field f(t_i), K + 3 in all
    calls = []
    spline = oracle._spline_coeffs

    def spy(field):
        calls.append(field)
        return spline(field)

    monkeypatch.setattr(oracle, "_spline_coeffs", spy)
    monkeypatch.setattr(cli, "_spline_coeffs", spy)
    path = write_cfg(tmp_path, FORCED_1D)
    assert main(["oracle-compare", "--config", path,
                 "--out", str(tmp_path / "o")]) in (0, 2)
    assert len(calls) == 3


def test_only_the_saved_solve_builds_forcing_fields(tmp_path, monkeypatch):
    # the checks and the sweep read c(t_k) and the shape's one spectrum;
    # solve transforms f(t).samples and pairs f(t) with the test function
    # at each of its K + 1 nodes
    calls = []
    field = SeparableForcing.__call__

    def spy(self, t):
        calls.append(t)
        return field(self, t)

    monkeypatch.setattr(SeparableForcing, "__call__", spy)
    path = write_cfg(tmp_path, FORCED_1D)
    counts = {}
    for command in ("check-thm1", "check-classic", "eps-sweep", "solve"):
        del calls[:]
        main([command, "--config", path, "--out", str(tmp_path / command)])
        counts[command] = len(calls)
    assert counts == {"check-thm1": 0, "check-classic": 0, "eps-sweep": 0,
                      "solve": 2 * 17}


REROUTED = ("check-thm1", "check-classic", "eps-sweep", "oracle-compare")


def forced_config(dim, n, kind, steps, profile, coef, width, p):
    return f"""
[grid]
dim = {dim}
n = {n}
period = 16.0

[partition]
kind = {kind}
steps = {steps}

[profile]
spec = {profile}

[coefficients]
spec = scalar({profile})

[initial]
spec = gaussian(2.0)

[forcing]
spec = separable("{coef}", gaussian({width}))

[params]
p = {p}
eps_list = 0.1, 0.01
mc_samples = 1000
mc_probes = 2
"""


def run_in_process(tmp_path, command, text):
    """(exit code, stderr, CSV rows) of one in-process run that records
    every warning instead of raising it."""
    path = write_cfg(tmp_path, text, name=f"{command}.ini")
    out = tmp_path / command
    shutil.rmtree(out, ignore_errors=True)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", path, "--out", str(out)])
    rows = [row for csv in sorted(out.rglob("*.csv"))
            for row in csv.read_text().splitlines()[1:]]
    return code, [str(w.category.__name__) for w in caught], rows


def assert_exit_0_reports_finite_numbers(command, code, caught, rows):
    if code == 0:
        assert "RuntimeWarning" not in caught, command
        for row in rows:
            for value in row.replace('"', "").split(","):
                try:
                    number = float(value)
                except ValueError:
                    continue
                assert math.isfinite(number), (command, row)


CONFIGS = dict(
    dim=st.sampled_from([1, 2]),
    log_n=st.integers(4, 7),
    kind=st.sampled_from(["uniform", "geometric"]),
    steps=st.integers(2, 16),
    profile=st.sampled_from(["constant(1.0)", "power(1)", "power(0.5)"]),
    width=st.sampled_from([1.0, 1.5]),
    p=st.sampled_from([2.0, 3.0]))


@settings(max_examples=12, deadline=None, derandomize=True)
@given(coef=st.sampled_from(["t", "1 + t", "2*sin(3*t)", "1e200*t",
                             "exp(-t)"]), **CONFIGS)
def test_a_rerouted_run_that_exits_0_reports_finite_numbers(
        tmp_path_factory, coef, dim, log_n, kind, steps, profile, width, p):
    tmp_path = tmp_path_factory.mktemp("run")
    n = min(2 ** log_n, 32 if dim == 2 else 128)
    text = forced_config(dim, n, kind, steps, profile, coef, width, p)
    for command in REROUTED:
        code, caught, rows = run_in_process(tmp_path, command, text)
        assert code in (0, 2), (command, code)
        if code == 0:
            assert "RuntimeWarning" not in caught, command
            for row in rows:
                for value in row.replace('"', "").split(","):
                    try:
                        number = float(value)
                    except ValueError:
                        continue
                    assert math.isfinite(number), (command, row)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data(), **CONFIGS)
def test_a_non_finite_time_factor_at_any_node_exits_3(
        tmp_path_factory, data, dim, log_n, kind, steps, profile, width, p):
    # c(t) = 1 / (t - t_j) is inf at the node t_j alone
    tmp_path = tmp_path_factory.mktemp("run")
    n = min(2 ** log_n, 32 if dim == 2 else 128)
    nodes = cli._partition(ExperimentConfig(partition_kind=kind,
                                            steps=steps)).nodes
    node = float(nodes[data.draw(st.integers(0, steps), label="node")])
    text = forced_config(dim, n, kind, steps, profile,
                         f"1 / (t - {node!r})", width, p)
    for command in REROUTED:
        code, caught, _ = run_in_process(tmp_path, command, text)
        assert code == 3, (command, node)


LEVELSET_PROFILES = st.one_of(
    st.floats(0.0, 4.0).map(lambda c: f"constant({c!r})"),
    st.floats(-0.9, 3.0).map(lambda a: f"power({a!r})"),
    st.just("oscillatory()"),
    st.sampled_from(['expr("t")', 'expr("sqrt(t)")', 'expr("1 + t*t")',
                     'expr("t*exp(-t)")', 'expr("abs(sin(3*t))")',
                     'expr("0")', 'expr("1 + sin(1/(t + 0.01))")']),
    st.tuples(st.floats(0.1, 10.0), st.floats(-0.5, 2.0)).map(
        lambda ca: f'expr("{ca[0]!r} * t**{ca[1]!r}")'))


@settings(max_examples=25, deadline=None, derandomize=True)
# delta(0) = inf made check_domination divide inf by inf, and a subnormal
# floor put N0 = 1/c beyond the float range: both warned on overflow
@example(profile="power(-0.5)", t0=None, p=1.5, kind="uniform", steps=2)
@example(profile="constant(2.2250738585e-313)", t0=None, p=1.5,
         kind="uniform", steps=2)
@given(profile=LEVELSET_PROFILES,
       t0=st.sampled_from([None, 0.0, 1e-3, 0.5, 1.0, 2.0]),
       p=st.sampled_from([1.5, 2.0, 4.0]),
       kind=st.sampled_from(["uniform", "geometric"]),
       steps=st.integers(2, 16))
def test_a_levelset_run_that_exits_0_reports_finite_numbers(
        tmp_path_factory, profile, t0, p, kind, steps):
    # profile-check and check-thm2 read beta from cumulative_delta and, in
    # profile-check, from levelset_measure_scan's closed form or scan
    tmp_path = tmp_path_factory.mktemp("run")
    text = f"""
[grid]
n = 64
period = 16.0

[partition]
kind = {kind}
steps = {steps}

[profile]
spec = {profile}

[coefficients]
spec = scalar({profile})

[params]
p = {p}
{'' if t0 is None else f't0 = {t0!r}'}
"""
    for command in ("profile-check", "check-thm2"):
        code, caught, rows = run_in_process(tmp_path, command, text)
        assert code in (0, 2, 3), (command, code)
        if code == 0:
            assert "RuntimeWarning" not in caught, command
            for row in rows:
                for value in row.replace('"', "").split(","):
                    try:
                        number = float(value)
                    except ValueError:
                        continue
                    assert math.isfinite(number), (command, row)


KERNEL_DECAY_CONFIG = """
[grid]
n = 256
period = 32.0

[partition]
steps = 16

[profile]
spec = power(1)

[coefficients]
spec = scalar(power(1))

[params]
k_max = 3
gamma = {gamma}
"""


@pytest.mark.parametrize("gamma, code", [(220.0, 0), (221.0, 3), (300.0, 3),
                                         (350.0, 3)])
def test_kernel_decay_rejects_a_gamma_whose_weight_overflows(
        tmp_path, gamma, code):
    # |xi|^gamma at the largest |xi| = 8 pi / 32 * 32 = 25.13 leaves the
    # float range above gamma = 220.2: at 221 and 300 every mass ratio read
    # NaN with exit 0, and at 350 2^(k gamma) raised OverflowError (exit 1)
    got, caught, rows = run_in_process(
        tmp_path, "kernel-decay", KERNEL_DECAY_CONFIG.format(gamma=gamma))
    assert got == code
    assert caught == []
    assert len(rows) == (24 if code == 0 else 0)
    assert_exit_0_reports_finite_numbers("kernel-decay", got, caught, rows)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(dim=st.sampled_from([1, 2]), log_n=st.integers(4, 6),
       period=st.sampled_from([4.0, 16.0, 8.0 * math.pi, 32.0]),
       kind=st.sampled_from(["uniform", "geometric"]),
       steps=st.integers(2, 8),
       profile=st.sampled_from(["constant(1.0)", "power(1)", "power(0.5)",
                                'expr("sqrt(t)")']),
       forcing=st.sampled_from(["none", 'separable("1 + t", gaussian(1.0))']),
       k_max=st.integers(1, 4), share=st.floats(0.9, 1.1))
def test_a_solve_or_kernel_decay_that_exits_0_reports_finite_numbers(
        tmp_path_factory, dim, log_n, period, kind, steps, profile, forcing,
        k_max, share):
    # gamma is drawn across the bound at which |xi|^gamma overflows at the
    # lattice's largest |xi|, where |xi|^2 = dim nyquist^2
    tmp_path = tmp_path_factory.mktemp("run")
    n = 2 ** log_n
    corner_sq = dim * (math.pi * n / period) ** 2
    gamma = share * 2.0 * math.log(sys.float_info.max) / math.log(corner_sq)
    text = f"""
[grid]
dim = {dim}
n = {n}
period = {period!r}

[partition]
kind = {kind}
steps = {steps}

[profile]
spec = {profile}

[coefficients]
spec = scalar({profile})

[forcing]
spec = {forcing}

[params]
k_max = {k_max}
t_count = 3
gamma = {gamma!r}
"""
    for command in ("solve", "kernel-decay"):
        code, caught, rows = run_in_process(tmp_path, command, text)
        assert code in (0, 2, 3), (command, code)
        assert_exit_0_reports_finite_numbers(command, code, caught, rows)
