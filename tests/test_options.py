"""The package's settable values: accuracy is decided in quadrature only."""

import dataclasses
import inspect

import pytest

import degparab
from degparab import FDScheme, check_kernel_decay
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
