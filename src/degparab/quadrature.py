"""Adaptive panel quadrature for cumulative coefficients on [lower, t].

Integrands may oscillate rapidly near t = 0 (ellipticity floors like
1 + sin(1/t)), so an integral from 0 starts from a subdivision that is
geometric toward the origin: panels [t*2^-(m+1), t*2^-m] down to a head
panel narrower than 1e-9.  An integral from lower > 0 starts from the one
panel [lower, t].  Either way breakpoints split the initial panels, which
are then refined worst-first until the error estimate meets the requested
tolerance or the panel budget runs out.
"""

from __future__ import annotations

import heapq
import itertools
import math

import numpy as np

GAUSS_ORDER = 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(GAUSS_ORDER)

# The package's one accuracy policy: every cumulative above this module is
# computed to max(ATOL, RTOL * |value|) within MAX_PANELS panels.
RTOL, ATOL, MAX_PANELS = 1e-10, 1e-14, 4000

# Innermost geometric panel is cut below this width; the head panel is still
# integrated (Gauss nodes are interior, so the integrand is never evaluated
# at the singular endpoint 0).
HEAD_WIDTH = 1e-9


class QuadratureError(RuntimeError):
    """Raised when adaptive refinement exhausts its budget.

    Carries the best value computed so far, the achieved error estimate and
    the target it missed; `spec` names the profile or path whose integral
    failed, when a caller knows it.
    """

    def __init__(self, message, value, error_estimate, target, spec=""):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.target = target
        self.spec = spec


def geometric_panels(t, breakpoints=(), lower=0.0):
    """Initial panel list for [lower, t], split at breakpoints.

    From lower = 0 the panels are geometric toward 0; from lower > 0 there
    is the single panel [lower, t] before the split.
    """
    if lower < 0:
        raise ValueError(f"integration endpoint must be nonnegative, got {lower}")
    if t < lower:
        raise ValueError(f"need lower <= t, got lower={lower}, t={t}")
    if t == lower:
        return []
    if lower > 0.0:
        edges = [lower, t]
    else:
        depth = max(0, math.ceil(math.log2(t / HEAD_WIDTH)))
        edges = [t * 2.0 ** (-m) for m in range(depth + 1)]
        edges.append(0.0)
        edges = sorted(set(edges))
    cuts = sorted(b for b in breakpoints if lower < b < t)
    for b in cuts:
        if all(abs(b - e) > 1e-300 for e in edges):
            edges.append(b)
    edges.sort()
    return list(zip(edges[:-1], edges[1:]))


def _panel_sums(f, lo, hi):
    """Gauss-Legendre sums over a batch of panels; lo, hi are 1d arrays."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return half * (vals @ _GL_WEIGHTS)


def integrate_to(f, t, breakpoints=(), rtol=RTOL, atol=ATOL,
                 max_panels=MAX_PANELS, lower=0.0):
    """Integral of a vectorized scalar integrand over [lower, t].

    Each panel carries a halved-panel refinement estimate; the reported
    value sums the halved estimates, and refinement bisects the worst
    panel until the total error estimate passes max(atol, rtol*|value|).
    Raises QuadratureError once max_panels panels exist and the target is
    still missed.  The defaults are the package's one accuracy policy:
    every cumulative above this module is computed with them.
    """
    panels = geometric_panels(t, breakpoints, lower)
    if not panels:
        return 0.0

    lo = np.array([p[0] for p in panels])
    hi = np.array([p[1] for p in panels])
    mid = 0.5 * (lo + hi)
    coarse = _panel_sums(f, lo, hi)
    left = _panel_sums(f, lo, mid)
    right = _panel_sums(f, mid, hi)
    fine = left + right
    err = np.abs(coarse - fine)

    # heap of (-err, tiebreak, a, b, fine_value); counter breaks err ties
    counter = itertools.count()
    heap = [(-e, next(counter), a, b, v)
            for e, a, b, v in zip(err, lo, hi, fine)]
    heapq.heapify(heap)
    total = float(np.sum(fine))
    total_err = float(np.sum(err))
    n_panels = len(heap)

    while total_err > max(atol, rtol * abs(total)):
        if n_panels >= max_panels:
            target = max(atol, rtol * abs(total))
            raise QuadratureError(
                f"quadrature did not converge within {max_panels} panels: "
                f"achieved error estimate {total_err:.3e} "
                f"(target {target:.3e})",
                value=total, error_estimate=total_err, target=target)
        neg_e, _, a, b, v = heapq.heappop(heap)
        total -= v
        total_err += neg_e  # neg_e = -err of the popped panel
        m = 0.5 * (a + b)
        sub_lo = np.array([a, m])
        sub_hi = np.array([m, b])
        sub_mid = 0.5 * (sub_lo + sub_hi)
        c = _panel_sums(f, sub_lo, sub_hi)
        fl = _panel_sums(f, sub_lo, sub_mid)
        fr = _panel_sums(f, sub_mid, sub_hi)
        fn = fl + fr
        er = np.abs(c - fn)
        for i in range(2):
            heapq.heappush(heap, (-er[i], next(counter),
                                  sub_lo[i], sub_hi[i], fn[i]))
        total += float(np.sum(fn))
        total_err += float(np.sum(er))
        n_panels += 1

    return total


def integrate_windows(f, lower, upper, whole=None):
    """Integrals of a vectorized scalar integrand over many windows at once.

    Window i is [lower[i], upper[i]], with 0 < lower[i] <= upper[i].  Every
    window gets the estimate integrate_to starts from on the single panel
    [lower, upper], all in one integrand call: the two half-panel
    Gauss-Legendre sums, checked against the whole-panel sum.  whole, when
    given, holds whole-panel sums a caller already has (NaN where it has
    none); those panels are not evaluated again.  Returns (values,
    converged, left): converged[i] says window i met integrate_to's target
    max(ATOL, RTOL*|value|) without refinement, and left[i] is the sum on
    the left half, the whole-panel sum of the window [lower[i], mid].
    Breakpoints are not split here: a caller hands integrate_to(...,
    lower=) the windows that hold one, and those that did not converge.
    Each value depends on its own window only, not on which others share
    the batch.
    """
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    n = lo.size
    whole = np.full(n, np.nan) if whole is None else np.array(whole, float)
    todo = np.isnan(whole)
    mid = 0.5 * (lo + hi)
    a = np.concatenate([lo, mid, lo[todo]])
    b = np.concatenate([mid, hi, hi[todo]])
    half = 0.5 * (b - a)
    nodes = 0.5 * (b + a)[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    # a row-wise sum, so that no window's rounding depends on the batch
    sums = half * np.sum(vals * _GL_WEIGHTS, axis=1)
    left, right = sums[:n], sums[n:2 * n]
    whole[todo] = sums[2 * n:]
    fine = left + right
    converged = np.abs(whole - fine) <= np.maximum(ATOL, RTOL * np.abs(fine))
    return fine, converged, left


def integrate_matrix_to(a, dim, t, breakpoints=(), rtol=RTOL, atol=ATOL,
                        max_panels=MAX_PANELS, lower=0.0):
    """Entrywise integral over [lower, t] of a matrix path a(t) -> (dim, dim).

    The path is vectorized: a(ts) for ts of shape (m,) is (m, dim, dim), so
    each panel batch costs one call; symmetry is used to integrate each
    entry once.
    """
    out = np.zeros((dim, dim))
    for i in range(dim):
        for j in range(i, dim):
            def entry(ts, _i=i, _j=j):
                return np.asarray(a(ts), dtype=float)[:, _i, _j]

            val = integrate_to(entry, t, breakpoints=breakpoints,
                               rtol=rtol, atol=atol, max_panels=max_panels,
                               lower=lower)
            out[i, j] = val
            out[j, i] = val
    return out
