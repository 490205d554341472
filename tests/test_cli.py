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

import degparab
from degparab import (GridSpec, SpectralField, build_forcing, build_initial,
                      cli, load_report, lp_norm, rough_field)
from degparab.cli import (_FIELD_MAP, RUNNERS, ConfigError,
                          ExperimentConfig, NonFiniteDataError, main,
                          parse_config, validate_config)

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
     "finite and decreasing, got [inf, 0.1]")])
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


@pytest.mark.parametrize("command, p", [("check-thm1", "400"),
                                        ("eps-sweep", "1e308")])
def test_weighted_norms_beyond_the_float_range_are_inadmissible(
        tmp_path, capsys, command, p):
    # delta^(1-p) of the forcing norm used to raise OverflowError: exit 1
    path = write_cfg(tmp_path, OVERFLOW_CONFIG.format(p=p))
    assert main([command, "--config", path,
                 "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == ""
    rows = next((tmp_path / "o").glob("*.csv")).read_text().splitlines()[1:]
    assert rows and all(r.endswith(',"inadmissible-weight"') for r in rows)


@pytest.mark.parametrize("command, p, initial", [
    # the Besov norm of u0 took a Python float power: OverflowError, exit 1
    ("check-thm1", "400", "gaussian(0.1)"),
    # numpy's overflow warning from the Hessian and L_p norms
    ("check-thm1", "1e308", "gaussian(0.1)"),
    ("check-classic", "1e308", "gaussian(2.0)")])
def test_norm_powers_beyond_the_float_range_read_inf_quietly(
        tmp_path, command, p, initial):
    proc = run_module(tmp_path, command, OVERFLOW_CONFIG.format(p=p)
                      + f"\n[initial]\nspec = {initial}\n")
    assert (proc.returncode, proc.stderr) == (2, "")
    rows = next((tmp_path / "out").glob("*.csv")).read_text().splitlines()
    assert rows[1:] and all(r.endswith(',"inadmissible-weight"')
                            for r in rows[1:])


def test_check_thm2_at_a_huge_p_warns_nothing(tmp_path, capsys):
    # beta_hat * p overflowed in numpy, which printed "RuntimeWarning:
    # overflow encountered in scalar multiply"; as an error it would exit 1
    path = write_cfg(tmp_path, OVERFLOW_CONFIG.format(p="1e308")
                     + "\n[initial]\nspec = gaussian(0.1)\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check-thm2", "--config", path,
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "RuntimeWarning" not in capsys.readouterr().err
    assert (tmp_path / "o" / "thm2.csv").read_text().splitlines()[1] == (
        'thm2,0.0,1e+308,0.0,"power(1.0)",256,16,inf,0.0,0.0,nan,'
        '"inadmissible-weight"')
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
    monkeypatch.setattr(np.fft, "fftn", None)  # no transform per call
    for t in (0.0, 0.3, 1.7):
        field, c = f(t), t * t + 0.5
        assert field.samples.tobytes() == (c * shape.samples).tobytes()
        assert field.spectrum.tobytes() == (c * spectrum).tobytes()
