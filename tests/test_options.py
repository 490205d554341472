"""The package's settable values: accuracy is decided in quadrature only."""

import argparse
import inspect

import pytest

import degparab
from degparab import (besov_norm, check_classic, check_kernel_decay, cli,
                      empirical_bound, epsilon_sweep, levelset_measure_scan,
                      mc_solve, s0_block, save_report, weak_residual_profile,
                      weighted_norm)
from degparab.oracle import _fd_steps
from degparab.quadrature import integrate_to, integrate_windows


def test_no_public_function_above_quadrature_takes_a_tolerance():
    takers = []
    for name in degparab.__all__:
        obj = getattr(degparab, name)
        if (not inspect.isfunction(obj)
                or obj.__module__ == "degparab.quadrature"):
            continue
        params = inspect.signature(obj).parameters
        takers += [f"{name}({p})" for p in ("rtol", "max_panels")
                   if p in params]
    assert takers == []


@pytest.mark.parametrize("helper", [integrate_windows],
                         ids=lambda fn: fn.__name__)
def test_window_helper_takes_no_tolerance(helper):
    # the helpers built on integrate_to apply its target; a tolerance
    # parameter would open a second accuracy policy
    assert list(inspect.signature(helper).parameters) == [
        "f", "lower", "upper", "breakpoints"]


def test_integrate_to_takes_only_the_policy_it_applies():
    # RTOL, ATOL and MAX_PANELS are module constants read at call time;
    # how many panels a refinement round bisects is a rule of the module
    assert list(inspect.signature(integrate_to).parameters) == [
        "f", "t", "breakpoints", "lower"]


def test_no_function_takes_a_parameter_no_caller_sets():
    # the finite-difference oracle is Crank-Nicolson only; the residual's
    # forcing is the solve's, and the low-pass block and the Besov norm
    # need no family; the Monte Carlo chunk, the scan resolution and the
    # sampled sup of delta are module constants or fixed counts
    assert list(inspect.signature(_fd_steps).parameters) == [
        "u0", "f", "path", "nodes"]
    assert list(inspect.signature(mc_solve).parameters) == [
        "u0", "f", "path", "t", "points", "samples", "seed", "partition"]
    assert list(inspect.signature(besov_norm).parameters) == [
        "field", "s", "p"]
    assert list(inspect.signature(levelset_measure_scan).parameters) == [
        "profile", "hs", "t0"]
    assert list(inspect.signature(empirical_bound).parameters) == [
        "profile", "t_max"]
    # the caller evaluates the spatial norms: no spec object, no callback
    assert list(inspect.signature(weighted_norm).parameters) == [
        "nodes", "norms", "profile", "p", "weight_power"]
    assert list(inspect.signature(save_report).parameters) == [
        "snapshots", "f", "path", "partition", "outdir", "p"]
    assert list(inspect.signature(weak_residual_profile).parameters) == [
        "snapshots", "f", "path", "nodes", "test"]
    assert list(inspect.signature(s0_block).parameters) == ["field"]


def test_kernel_decay_fit_has_no_knobs():
    assert list(inspect.signature(check_kernel_decay).parameters) == [
        "path", "profile", "gamma", "k_range", "t_samples", "grid"]


def test_epsilon_sweep_runs_its_checks_in_turn():
    # one check per eps, in turn: a pool would hold several solves at once
    assert list(inspect.signature(epsilon_sweep).parameters) == [
        "u0", "f", "path", "profile", "eps_list", "p", "partition",
        "smoothness"]


def test_check_classic_solves_for_itself():
    # it streams its own snapshots, as check_thm1 does, instead of reading
    # a report that holds all K + 1 of them
    assert list(inspect.signature(check_classic).parameters) == [
        "u0", "f", "path", "partition", "p"]


def test_cli_takes_exactly_the_pinned_options(monkeypatch):
    # adding or removing a command-line knob means editing these lists
    assert list(inspect.signature(cli.run).parameters) == [
        "subcommand", "config", "out", "seed"]
    for runner in cli.RUNNERS.values():
        assert list(inspect.signature(runner).parameters) == [
            "cfg", "outdir"]
    options = {}
    add_argument = argparse.ArgumentParser.add_argument

    def spy(parser, *names, **kwargs):
        options.setdefault(parser.prog, []).extend(
            name for name in names if name not in ("-h", "--help"))
        return add_argument(parser, *names, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: 0)
    assert cli.main(["solve", "--config", "unused.ini"]) == 0
    expected = {"degparab": []}
    expected.update({f"degparab {name}": ["--config", "--out", "--seed"]
                     for name in cli.RUNNERS})
    assert options == expected
