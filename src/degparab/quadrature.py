"""Adaptive panel quadrature for cumulative coefficients on [lower, t].

Integrands may oscillate rapidly near t = 0 (ellipticity floors like
1 + sin(1/t)), so an integral from 0 starts from a subdivision that is
geometric toward the origin: panels [t*2^-(m+1), t*2^-m] down to a head
panel narrower than 1e-9.  An integral from lower > 0 starts from the one
panel [lower, t].  Either way breakpoints split the initial panels, which
are then refined in rounds until the error estimate meets the requested
tolerance or the panel budget runs out: each round bisects, worst first,
just enough panels to cover the excess error, and evaluates all their new
half panels in one integrand call.  An integrand that goes unresolved near
0 therefore reaches its budget in about log2(budget) calls, not one call
per panel.
"""

from __future__ import annotations

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
    """Raised when adaptive refinement exhausts its budget, or as soon as
    a panel sum is NaN or inf (the error estimate is then not finite).

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
    """Gauss-Legendre sums over the panels [lo[i], hi[i]] in one integrand
    call.  Each sum is taken row by row, so that no panel's rounding
    depends on which others share the batch."""
    half = 0.5 * (hi - lo)
    nodes = 0.5 * (hi + lo)[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return half * np.sum(vals * _GL_WEIGHTS, axis=1)


def integrate_to(f, t, breakpoints=(), lower=0.0):
    """Integral of a vectorized scalar integrand over [lower, t].

    Each panel carries a halved-panel refinement estimate: its error is
    |whole - (left + right)|, and the reported value sums left + right.
    Refinement runs in rounds.  A round bisects, worst first, the fewest
    panels whose error estimates cover the excess of the total over the
    target max(ATOL, RTOL*|value|), at most as many as the panel budget
    has left, and evaluates all their new half panels in one integrand
    call; a parent's two half-panel sums become its children's
    whole-panel sums.  Raises QuadratureError once MAX_PANELS panels exist
    and the target is still missed, or as soon as a panel sum is not
    finite.  RTOL, ATOL and MAX_PANELS are read at call time.
    """
    panels = geometric_panels(t, breakpoints, lower)
    if not panels:
        return 0.0

    n = len(panels)
    size = max(n, MAX_PANELS)
    # per panel: edges, the two half-panel sums and the error estimate
    lo, hi, left, right, err = (np.empty(size) for _ in range(5))
    lo[:n], hi[:n] = np.array(panels).T
    mid = 0.5 * (lo[:n] + hi[:n])
    sums = _panel_sums(f, np.concatenate([lo[:n], lo[:n], mid]),
                       np.concatenate([hi[:n], mid, hi[:n]]))
    left[:n], right[:n] = sums[n:2 * n], sums[2 * n:]
    err[:n] = np.abs(sums[:n] - (left[:n] + right[:n]))

    while True:
        total = float(np.sum(left[:n] + right[:n]))
        total_err = float(np.sum(err[:n]))
        target = max(ATOL, RTOL * abs(total))
        excess = total_err - target
        if excess <= 0.0:
            return total
        if n >= MAX_PANELS or not math.isfinite(total_err):
            why = (f"did not converge within {MAX_PANELS} panels"
                   if math.isfinite(total_err) else
                   f"integrand is not finite on [{lower}, {t}]")
            raise QuadratureError(
                f"quadrature {why}: achieved error estimate "
                f"{total_err:.3e} (target {target:.3e})",
                value=total, error_estimate=total_err, target=target)
        worst = int(np.argmax(err[:n]))
        if err[worst] >= excess:
            pick = np.array([worst])
        else:
            order = np.argsort(-err[:n], kind="stable")
            k = int(np.searchsorted(np.cumsum(err[order]), excess)) + 1
            pick = order[:min(k, MAX_PANELS - n)]
        new = slice(n, n + pick.size)
        a, b = lo[pick], hi[pick]
        m = 0.5 * (a + b)
        qa, qb = 0.5 * (a + m), 0.5 * (m + b)
        q = _panel_sums(f, np.concatenate([a, qa, m, qb]),
                        np.concatenate([qa, m, qb, b])).reshape(4, -1)
        # the left child [a, m] takes the parent's slot, the right child
        # [m, b] is appended; their whole-panel sums are the parent's halves
        whole_a, whole_b = left[pick], right[pick]
        hi[pick], lo[new], hi[new] = m, m, b
        left[pick], right[pick], left[new], right[new] = q
        err[pick] = np.abs(whole_a - (q[0] + q[1]))
        err[new] = np.abs(whole_b - (q[2] + q[3]))
        n += pick.size


def integrate_windows(f, lower, upper, breakpoints=()):
    """integrate_to(f, upper[i], breakpoints, lower=lower[i]) for every
    window i, bit for bit.

    A window with 0 < lower < upper and no breakpoint strictly inside gets
    the estimate integrate_to starts from, on the single panel
    [lower, upper], all such windows in one integrand call: the two
    half-panel Gauss-Legendre sums, checked against the whole-panel sum
    with integrate_to's target.  Windows that start at 0, hold a
    breakpoint, miss that target or are empty go to integrate_to, in
    window order, so the first of them that fails raises.  A panel sum is
    row-wise (_panel_sums), so no value depends on the batch it shares.
    """
    lo = np.asarray(lower, dtype=float)
    hi = np.asarray(upper, dtype=float)
    cuts = np.asarray(breakpoints, dtype=float)
    values = np.empty(lo.size)
    done = (0.0 < lo) & (lo < hi) & ~np.any(
        (lo[:, None] < cuts) & (cuts < hi[:, None]), axis=1)
    if np.any(done):
        a, b = lo[done], hi[done]
        m = 0.5 * (a + b)
        whole, left, right = _panel_sums(
            f, np.concatenate([a, a, m]), np.concatenate([b, m, b])
        ).reshape(3, -1)
        fine = left + right
        # integrate_to's total is np.sum over one panel, which starts
        # from +0.0, and it converges where error less target is <= 0
        values[done] = 0.0 + fine
        done[done] = (np.abs(whole - fine)
                      - np.maximum(ATOL, RTOL * np.abs(fine))) <= 0.0
    for i in np.flatnonzero(~done):
        values[i] = integrate_to(f, float(hi[i]), breakpoints,
                                 lower=float(lo[i]))
    return values
