"""One-pass coefficient accumulation against the routes it replaced.

accumulate_on integrates each window between consecutive nodes once, one
integrate_windows call per entry, and sums the windows; the
per-node route that integrates from 0 at every node (references'
accumulate_path) is the slow oracle, and the loop that integrated one
window per call the exact one.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degparab import (GridSpec, TimePartition, accumulate_on,
                      char_function_check, constant_matrix_path,
                      constant_profile, cumulative_delta, epsilon_regularize,
                      expr_matrix_path, expr_profile, gaussian_bump,
                      oscillatory_profile, parse_coefficients,
                      piecewise_profile, power_profile, quadratic_form,
                      sample_increments, scalar_path, solve_duhamel)
from degparab import quadrature
from degparab.oracle import _sqrt_cov
from degparab.quadrature import QuadratureError, integrate_to
import references
from references import accumulate_path, integrate_entries, kernel, propagate

RTOL, ATOL = 1e-10, 1e-14
SETTINGS = settings(max_examples=25, deadline=None)


def oracle(path, nodes):
    return np.array([accumulate_path(path, t) for t in nodes])


def window_loop_oracle(path, nodes):
    """accumulate_on as one integrate_to call per window and entry."""
    nodes = np.asarray(nodes, dtype=float)
    order = np.argsort(nodes, kind="stable")
    out = np.empty(nodes.shape + (path.dim, path.dim))
    total = np.zeros((path.dim, path.dim))
    prev = 0.0
    for idx in order:
        t = float(nodes[idx])
        if t > prev:
            if prev == 0.0:
                total = accumulate_path(path, t)
            else:
                total = total + integrate_entries(path, prev, t)
            prev = t
        out[idx] = total
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def assert_pinned(path, nodes):
    """Fast and slow routes agree within their combined error targets.

    Each window meets max(atol, rtol * |window|) and each oracle node
    max(atol, rtol * |integral|).  For a PSD path |a_ij| is at most
    (a_ii + a_jj) / 2, so the summed targets stay below
    rtol * (2 * max diagonal integral) + (windows + 1) * atol per side;
    the bound below doubles that for both sides.
    """
    nodes = np.asarray(nodes, dtype=float)
    slow = oracle(path, nodes)
    fast = accumulate_on(path, nodes)
    assert fast.shape == (nodes.size, path.dim, path.dim)
    assert np.array_equal(fast, np.swapaxes(fast, -1, -2))
    scale = max(float(np.max(np.diagonal(slow, axis1=1, axis2=2))), 0.0)
    tol = 4.0 * RTOL * scale + 2.0 * (nodes.size + 1) * ATOL
    assert np.max(np.abs(fast - slow)) <= tol


sorted_nodes = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12).map(
    lambda xs: np.sort(np.array(xs)))


@SETTINGS
@given(cuts=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3,
                     unique=True),
       nodes=sorted_nodes)
def test_piecewise_breakpoints_inside_windows(cuts, nodes):
    starts = [0.0] + sorted(cuts)
    texts = ["1 + t", "2 - t", "0.5 + t*t", "3"]
    profile = piecewise_profile(list(zip(starts, texts)))
    assert_pinned(scalar_path(profile, 1), nodes)


@SETTINGS
@given(lo=st.floats(0.1, 0.45), width=st.floats(0.05, 0.4),
       nodes=sorted_nodes)
def test_plateaus_where_delta_vanishes(lo, width, nodes):
    profile = piecewise_profile([(0.0, "sqrt(t)"), (lo, "0"),
                                 (lo + width, "t - 0.01")])
    path = scalar_path(profile, 2)
    assert_pinned(path, nodes)
    fast = accumulate_on(path, [lo, lo + 0.5 * width, lo + width])
    assert fast[0, 0, 0] == fast[1, 0, 0] == fast[2, 0, 0]


@SETTINGS
@given(shift=st.floats(0.002, 0.05), nodes=sorted_nodes)
def test_oscillatory_head(shift, nodes):
    osc = f"sin(1/(t + {shift!r}))"
    path = expr_matrix_path([[f"2 + {osc}", f"0.5*cos(1/(t + {shift!r}))"],
                             [f"0.5*cos(1/(t + {shift!r}))", f"2 - {osc}"]])
    assert_pinned(path, nodes)


@SETTINGS
@given(lo=st.floats(1e-4, 1e-2), count=st.integers(2, 10),
       perm_seed=st.integers(0, 1000))
def test_non_partition_node_sets(lo, count, perm_seed):
    # kernel-decay samples: logspace, no node at 0, in any order
    ts = np.logspace(np.log10(lo), np.log10(0.5), count)
    path = parse_coefficients('matrix([["1 + t", "0.5*t"], ["0.5*t", "t"]])', 2)
    assert_pinned(path, ts)
    perm = np.random.default_rng(perm_seed).permutation(count)
    assert np.array_equal(accumulate_on(path, ts[perm]),
                          accumulate_on(path, ts)[perm])


def test_repeated_nodes_and_zero():
    path = expr_matrix_path([["1 + t"]])
    out = accumulate_on(path, [0.0, 0.0, 0.3, 0.3, 1.0])
    assert out[0, 0, 0] == out[1, 0, 0] == 0.0
    assert out[2, 0, 0] == out[3, 0, 0]
    assert out[4, 0, 0] == pytest.approx(1.5, abs=1e-13)
    assert np.array_equal(accumulate_on(path, [0.0, 0.0]), np.zeros((2, 1, 1)))


def test_closed_form_is_evaluated_per_node():
    path = scalar_path(power_profile(1.0), 2)
    nodes = TimePartition.geometric(16, 1.0).nodes
    assert np.array_equal(accumulate_on(path, nodes), oracle(path, nodes))


def test_rejects_negative_nodes():
    with pytest.raises(ValueError):
        accumulate_on(expr_matrix_path([["1"]]), [0.0, -0.1])


@pytest.mark.parametrize("profile", [expr_profile("t"), power_profile(1.0)],
                         ids=["quadrature", "closed-form"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_rejects_nan_and_inf_nodes(profile, bad):
    # NaN read the largest node's beta on the quadrature route and NaN on
    # the closed form; inf ran out of quadrature budget with a warning
    path = scalar_path(profile, 1)
    for call in (lambda: accumulate_on(path, [0.5, bad]),
                 lambda: cumulative_delta(profile, [0.5, bad]),
                 lambda: cumulative_delta(profile, bad)):
        with pytest.raises(ValueError, match="finite"):
            call()


def test_a_registered_cumulative_is_called_once():
    path = scalar_path(power_profile(1.0), 2)
    calls = []

    def cumulative(t):
        calls.append(np.shape(t))
        return path.cumulative(t)

    nodes = TimePartition.geometric(16, 1.0).nodes
    fast = accumulate_on(replace(path, cumulative=cumulative), nodes)
    assert calls == [nodes.shape]
    assert fast.tobytes() == oracle(path, nodes).tobytes()


PATHS = {
    "scalar-constant": scalar_path(constant_profile(0.5), 2),
    "scalar-power": scalar_path(power_profile(0.5), 3),
    "scalar-oscillatory": scalar_path(oscillatory_profile(), 1),
    "scalar-expr": scalar_path(expr_profile("exp(-t)*sin(3*t)+1"), 2),
    "scalar-piecewise": scalar_path(
        piecewise_profile([(0.0, "t"), (0.4, "0"), (0.7, "2")]), 2),
    "constant-matrix": constant_matrix_path([[2.0, 0.5], [0.5, 1.0]]),
    "expr-matrix": expr_matrix_path([["1 + sin(1/(t + 0.01))", "0.5", "t"],
                                     ["0.5", "sqrt(t)", "0"],
                                     ["t", "0", "log1p(t)"]]),
    "regularized": epsilon_regularize(
        expr_matrix_path([["t", "0.5*t"], ["0.5*t", "t"]]), 1e-3),
}


@pytest.mark.parametrize("name", sorted(PATHS))
@settings(max_examples=20, deadline=None)
@given(ts=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=40))
def test_vectorized_a_matches_pointwise(name, ts):
    path = PATHS[name]
    ts = np.array(ts)
    batch = path.a(ts)
    assert batch.shape == (ts.size, path.dim, path.dim)
    stacked = np.stack([np.asarray(path.a(float(t))) for t in ts])
    assert stacked.shape == batch.shape
    assert batch.tobytes() == stacked.tobytes()


def test_integrate_to_from_a_lower_end():
    assert integrate_to(lambda t: 3.0 * t ** 2, 1.7, lower=0.4) == \
        pytest.approx(1.7 ** 3 - 0.4 ** 3, abs=1e-13)
    assert integrate_to(np.exp, 0.5, lower=0.5) == 0.0
    kink = lambda t: np.where(t < 0.6, 1.0, 2.0)
    assert integrate_to(kink, 1.0, breakpoints=(0.3, 0.6), lower=0.5) == \
        pytest.approx(0.1 + 0.8, abs=1e-13)
    with pytest.raises(ValueError):
        integrate_to(np.exp, 0.4, lower=0.5)


def test_entry_quadrature_calls_a_once_per_panel_batch():
    calls = []
    path = expr_matrix_path([["1 + t", "t"], ["t", "2"]])

    def a(ts):
        calls.append(np.shape(ts))
        return path.a(ts)

    B = accumulate_on(replace(path, a=a), [0.5, 1.0])
    assert np.allclose(B[1] - B[0], [[0.5 + 0.375, 0.375], [0.375, 1.0]],
                       atol=1e-13)
    assert all(len(shape) == 1 and shape[0] >= 16 for shape in calls)


def test_homogeneous_solve_matches_per_node_propagation():
    grid = GridSpec(dim=2, n=32, length=16.0)
    u0 = gaussian_bump(grid, width=2.0)
    path = expr_matrix_path([["t", "0.5*t"], ["0.5*t", "1 + sin(t)"]])
    part = TimePartition.geometric(12, 1.0)
    snapshots = solve_duhamel(u0, None, path, part)
    for t, snap in zip(part.nodes, snapshots):
        ref = propagate(u0, path, 0.0, t)
        assert np.max(np.abs(snap.samples - ref.samples)) <= 1e-12
    again = solve_duhamel(u0, None, path, part)
    assert all(np.array_equal(a.samples, b.samples)
               for a, b in zip(snapshots, again))


EXACT_PATHS = {
    "scalar-sqrt": scalar_path(expr_profile("sqrt(t)"), 1),
    "scalar-expr": scalar_path(expr_profile("exp(-t)*sin(3*t)+1"), 2),
    "scalar-oscillatory-head": scalar_path(
        expr_profile("2 + sin(1/(t + 0.003))"), 1),
    "expr-matrix": PATHS["expr-matrix"],
    "expr-matrix-oscillatory": expr_matrix_path(
        [["2 + sin(1/(t + 0.01))", "0.5*cos(1/(t + 0.01))"],
         ["0.5*cos(1/(t + 0.01))", "2 - sin(1/(t + 0.01))"]]),
    "regularized": PATHS["regularized"],
}

# node sets as callers pass them: any order, repeated nodes, 0 or not
node_sets = st.tuples(
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12),
    st.integers(0, 3), st.booleans(),
).flatmap(lambda a: st.permutations(a[0] + a[0][:a[1]] + [0.0] * a[2]))


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(EXACT_PATHS)), nodes=node_sets)
def test_batched_windows_equal_the_window_loop(name, nodes):
    path = EXACT_PATHS[name]
    assert np.array_equal(accumulate_on(path, nodes),
                          window_loop_oracle(path, nodes))


@settings(max_examples=30, deadline=None)
@given(cuts=st.lists(st.floats(0.05, 0.95), min_size=1, max_size=3,
                     unique=True),
       dim=st.integers(1, 3), nodes=node_sets)
def test_batched_windows_equal_the_window_loop_across_breakpoints(cuts, dim,
                                                                  nodes):
    starts = [0.0] + sorted(cuts)
    texts = ["1 + t", "0", "0.5 + t*t", "sqrt(t)"]
    path = scalar_path(piecewise_profile(list(zip(starts, texts))), dim)
    assert np.array_equal(accumulate_on(path, nodes),
                          window_loop_oracle(path, nodes))


CLOSED_FORMS = [constant_profile(0.0), constant_profile(0.7),
                power_profile(1.0), power_profile(0.5), power_profile(-0.5),
                power_profile(2.0), oscillatory_profile()]


@st.composite
def closed_form_paths(draw):
    """scalar paths of closed-form profiles and constant matrices, dims
    1-3, each as drawn or regularized by eps * I."""
    dim = draw(st.integers(1, 3))
    if draw(st.booleans()):
        values = draw(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
        mat = np.zeros((dim, dim))
        mat[np.triu_indices(dim)] = values[:dim * (dim + 1) // 2]
        path = constant_matrix_path(mat + np.triu(mat, 1).T)
    else:
        path = scalar_path(draw(st.sampled_from(CLOSED_FORMS)), dim)
    eps = draw(st.sampled_from([None, 0.1, 1e-2, 1e-3, 1e-4]))
    return path if eps is None else epsilon_regularize(path, eps)


@settings(max_examples=60, deadline=None)
@given(path=closed_form_paths(), nodes=node_sets)
def test_closed_forms_in_one_call_are_the_per_node_values(path, nodes):
    assert path.cumulative is not None
    assert (accumulate_on(path, nodes).tobytes()
            == oracle(path, nodes).tobytes())


@pytest.mark.parametrize("expr, nodes", [
    ("1+sin(1/t)", TimePartition.geometric(64, 1.0).nodes),  # the head
    # two windows miss their budget; the first in time order raises
    ("1 + sin(1/(t - 0.3)**3) + sin(1/(t - 0.6)**3)",
     [0.5, 0.0, 0.1, 0.2, 0.4, 0.2, 0.7]),
])
def test_batched_windows_raise_as_the_window_loop(expr, nodes):
    path = scalar_path(expr_profile(expr), 1)
    with pytest.raises(QuadratureError) as fast:
        accumulate_on(path, nodes)
    with pytest.raises(QuadratureError) as slow:
        window_loop_oracle(path, nodes)
    assert fast.value.error_estimate == slow.value.error_estimate
    assert fast.value.target == slow.value.target
    assert fast.value.spec == slow.value.spec == path.spec
    assert str(fast.value) == str(slow.value)


@pytest.mark.parametrize("nodes", [TimePartition.uniform(64, 1.0).nodes,
                                   TimePartition.geometric(64, 1.0).nodes])
def test_smooth_windows_never_reach_integrate_to(monkeypatch, nodes):
    path = expr_matrix_path([["exp(-t)", "0.5*cos(t)"],
                             ["0.5*cos(t)", "2 + sin(t)"]])
    expected = window_loop_oracle(path, nodes)
    lowers = []

    def spy(f, t, *args, lower=0.0, **kwargs):
        lowers.append(lower)
        return integrate_to(f, t, *args, lower=lower, **kwargs)

    monkeypatch.setattr(quadrature, "integrate_to", spy)
    assert np.array_equal(accumulate_on(path, nodes), expected)
    # the head [0, t_1], once per entry i <= j, and no window
    assert lowers == [0.0] * 3


def test_one_positive_node_runs_no_window_pass(monkeypatch):
    # a single distinct positive node has no window between nodes: its one
    # window [0, t] goes to integrate_to, and no one-panel pass runs
    profile = expr_profile("sqrt(t)")
    expected = cumulative_delta(profile, 1.0)
    calls = []
    monkeypatch.setattr(quadrature, "_panel_sums",
                        lambda *args: calls.append(args))
    monkeypatch.setattr(quadrature, "integrate_to",
                        lambda f, t, breakpoints=(), lower=0.0: expected)
    assert cumulative_delta(profile, 1.0) == expected
    assert np.array_equal(accumulate_on(scalar_path(profile, 1),
                                        [0.0, 1.0, 1.0, 0.0]),
                          expected * np.array([0, 1, 1, 0])[:, None, None])
    assert calls == []


PROFILES = {
    "constant": constant_profile(0.7),
    "power": power_profile(0.5),
    "oscillatory": oscillatory_profile(),
    "expr": expr_profile("exp(-t)*sin(3*t)+1"),
    "expr-sqrt": expr_profile("sqrt(t)"),
    "piecewise": piecewise_profile([(0.0, "1 + t"), (0.3, "0"),
                                    (0.55, "0.5 + t*t"), (0.8, "sqrt(t)")]),
}


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(PROFILES)),
       ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=10))
def test_cumulative_delta_is_the_per_node_route(name, ts):
    profile = PROFILES[name]
    loop = np.array([cumulative_delta(profile, t) for t in ts])
    path = scalar_path(profile, 1)
    per_node = np.array([accumulate_path(path, t)[0, 0] for t in ts])
    assert loop.tobytes() == per_node.tobytes()
    batch = cumulative_delta(profile, np.array(ts))
    assert batch.shape == (len(ts),)
    if profile.closed_form_cumulative is not None:
        assert batch.tobytes() == loop.tobytes()
    else:
        # one pass sums windows, each within max(ATOL, RTOL * |window|)
        tol = 4.0 * RTOL * float(np.max(loop)) + 2.0 * (len(ts) + 1) * ATOL
        assert np.max(np.abs(batch - loop)) <= tol


def test_cumulative_delta_keeps_the_shape_and_names_the_profile():
    profile = PROFILES["expr"]
    ts = np.array([[0.1, 0.2], [0.4, 0.0]])
    assert np.array_equal(cumulative_delta(profile, ts),
                          cumulative_delta(profile, ts.ravel()).reshape(2, 2))
    assert isinstance(cumulative_delta(profile, 0.3), float)
    with pytest.raises(ValueError):
        cumulative_delta(profile, [0.5, -0.1])
    edge = expr_profile("1+sin(1/t)")
    with pytest.raises(QuadratureError) as info:
        cumulative_delta(edge, [0.5, 1.0])
    assert info.value.spec == edge.spec


B_PATHS = {
    "matrix": expr_matrix_path([["1 + sin(3*t)", "0.5*t"],
                                ["0.5*t", "sqrt(t)"]]),
    "scalar": scalar_path(expr_profile("exp(-t) + t"), 2),
    "scalar-closed-form": scalar_path(oscillatory_profile(), 1),
    "constant": constant_matrix_path([[2.0, 0.5], [0.5, 1.0]]),
}


@pytest.mark.parametrize("name", sorted(B_PATHS))
def test_callers_at_s_zero_see_the_per_node_b(name, monkeypatch):
    # B(0, t) as the per-node route made it: B(t) - B(0), symmetrized
    path, t = B_PATHS[name], 0.37
    diff = accumulate_path(path, t) - accumulate_path(path, 0.0)
    expected = 0.5 * (diff + diff.T)
    seen = []

    def form(grid, B):
        seen.append(np.array(B))
        return quadratic_form(grid, B)

    def sqrt_cov(cov):
        seen.append(np.array(cov))
        return _sqrt_cov(cov)

    monkeypatch.setattr(references, "quadratic_form", form)
    monkeypatch.setattr("degparab.oracle._sqrt_cov", sqrt_cov)
    kernel(path, t, GridSpec(dim=path.dim, n=16, length=8.0))
    sample_increments(path, t, 10, np.random.default_rng(0))
    freqs = np.eye(path.dim)
    rows = char_function_check(path, t, freqs, 10, 0)
    assert [b.tobytes() for b in seen] == [expected.tobytes(),
                                           (2.0 * expected).tobytes(),
                                           (2.0 * expected).tobytes()]
    assert [row[3] for row in rows] == [float(np.exp(-xi @ expected @ xi))
                                        for xi in freqs]
