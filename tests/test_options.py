"""The package's settable values: accuracy is decided in quadrature only."""

import argparse
import dataclasses
import inspect

import pytest

import degparab
from degparab import FDScheme, check_kernel_decay, cli, epsilon_sweep
from degparab.degeneracy import _integrate_entries
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


@pytest.mark.parametrize("helper", [integrate_windows, _integrate_entries],
                         ids=lambda fn: fn.__name__)
def test_window_helper_takes_no_tolerance(helper):
    # the helpers built on integrate_to apply its default target; a
    # tolerance parameter would open a second accuracy policy
    params = inspect.signature(helper).parameters
    assert [p for p in ("rtol", "atol", "max_panels") if p in params] == []


def test_integrate_to_takes_only_the_policy_it_applies():
    # how many panels a refinement round bisects is a rule of the module,
    # not a parameter
    assert list(inspect.signature(integrate_to).parameters) == [
        "f", "t", "breakpoints", "rtol", "atol", "max_panels", "lower"]


def test_fd_scheme_has_only_theta():
    assert [f.name for f in dataclasses.fields(FDScheme)] == ["theta"]


def test_kernel_decay_fit_has_no_knobs():
    assert list(inspect.signature(check_kernel_decay).parameters) == [
        "path", "profile", "gamma", "k_range", "t_samples", "grid"]


def test_epsilon_sweep_runs_its_checks_in_turn():
    # one check per eps, in turn: a pool would hold several solves at once
    assert list(inspect.signature(epsilon_sweep).parameters) == [
        "u0", "f", "path", "profile", "eps_list", "p", "partition",
        "smoothness"]


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
