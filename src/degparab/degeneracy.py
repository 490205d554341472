"""Ellipticity floors delta(t) and matrix coefficient paths a(t).

A degeneracy profile is a nonnegative scalar function delta with
cumulative beta(t) = integral of delta over [0, t].  beta acts as the
intrinsic clock of the evolution: it may have flat stretches where the
equation degenerates, and its generalized inverse measures the level sets
that the beta exponent is fitted from.  Profiles and coefficient paths are
built from specs (constant/power/oscillatory/expr/piecewise,
scalar/matrix) read by the grammar in degparab.spec, which the CLI shares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement

import numpy as np

from .quadrature import ATOL, RTOL, QuadratureError, integrate_windows
from .spec import Call, compile_expr, number, read_call


@dataclass(frozen=True)
class DegeneracyProfile:
    """Nonnegative ellipticity floor delta(t) with optional exact cumulative.

    delta is vectorized (scalar in, float out; array in, array out).
    closed_form_cumulative, when present, is the exact beta(t); otherwise
    cumulative_delta falls back to panel quadrature.  bound_M is an upper
    bound for delta when one is known analytically.
    """

    delta: callable
    closed_form_cumulative: callable = None
    bound_M: float = None
    spec: str = ""
    breakpoints: tuple = ()

    def shifted(self, eps):
        """Profile for delta + eps (the standard uniform regularization)."""
        if eps < 0:
            raise ValueError(f"shift must be nonnegative, got {eps}")
        base_delta = self.delta
        base_cum = self.closed_form_cumulative
        cum = None
        if base_cum is not None:
            cum = lambda t: base_cum(t) + eps * np.asarray(t, dtype=float)
        return DegeneracyProfile(
            delta=lambda t: base_delta(t) + eps,
            closed_form_cumulative=cum,
            bound_M=None if self.bound_M is None else self.bound_M + eps,
            spec=f"shifted({self.spec}, {eps})",
            breakpoints=self.breakpoints,
        )


def constant_profile(c):
    if c < 0:
        raise ValueError(f"constant profile must be nonnegative, got {c}")
    return DegeneracyProfile(
        delta=lambda t: np.full_like(np.asarray(t, dtype=float), c)
        if np.ndim(t) else float(c),
        closed_form_cumulative=lambda t: c * np.asarray(t, dtype=float),
        bound_M=float(c),
        spec=f"constant({c})",
    )


def power_profile(alpha):
    """delta(t) = t^alpha; integrable at 0 for alpha > -1."""
    if alpha <= -1:
        raise ValueError(f"power profile needs alpha > -1, got {alpha}")

    def delta(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            out = np.power(t, alpha)
        return float(out) if out.ndim == 0 else out

    def cumulative(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            out = np.power(t, alpha + 1.0) / (alpha + 1.0)
        return float(out) if out.ndim == 0 else out

    return DegeneracyProfile(
        delta=delta,
        closed_form_cumulative=cumulative,
        bound_M=1.0 if alpha == 0 else None,
        spec=f"power({alpha})",
    )


def oscillatory_profile():
    """delta(t) = 1 + sin(1/t), with delta(0) := 1 by convention.

    The cumulative has the exact form t + t*sin(1/t) - Ci(1/t) where Ci
    is the cosine integral; it satisfies t/4 <= beta(t) <= 2t.  Direct
    quadrature of the raw expression cannot reach tight tolerances near
    the singularity, so the closed form is registered here.
    """

    def delta(t):
        t = np.asarray(t, dtype=float)
        # below the smallest normal float 1/t overflows to inf, sin(inf) is nan
        out = np.where(t > 0.0,
                       1.0 + np.sin(1.0 / np.maximum(t, np.finfo(float).tiny)),
                       1.0)
        return float(out) if out.ndim == 0 else out

    def cumulative(t):
        from scipy.special import sici
        t = np.asarray(t, dtype=float)
        # below the smallest normal float 1/t overflows; there
        # beta(t) = t + t^2 cos(1/t) + O(t^3) rounds to t
        normal = t >= np.finfo(float).tiny
        safe = np.where(normal, t, 1.0)
        ci = sici(1.0 / safe)[1]
        out = np.where(normal, t + safe * np.sin(1.0 / safe) - ci,
                       np.where(t > 0, t, 0.0))
        return float(out) if out.ndim == 0 else out

    return DegeneracyProfile(
        delta=delta,
        closed_form_cumulative=cumulative,
        bound_M=2.0,
        spec="oscillatory()",
    )


def expr_profile(text):
    fn = compile_expr(text)

    def delta(t):
        t = np.asarray(t, dtype=float)
        # an expression without t is a number for any t
        out = np.broadcast_to(np.asarray(fn(t), dtype=float), t.shape)
        return float(out) if out.ndim == 0 else out

    return DegeneracyProfile(delta=delta, spec=f'expr("{text}")')


def piecewise_profile(pieces):
    """pieces: list of (start_time, expr_text), first start must be 0."""
    if not pieces:
        raise ValueError("piecewise profile needs at least one piece")
    starts = [float(p[0]) for p in pieces]
    if starts[0] != 0.0:
        raise ValueError(f"first piece must start at 0, got {starts[0]}")
    if any(b <= a for a, b in zip(starts[:-1], starts[1:])):
        raise ValueError("piecewise start times must be strictly increasing")
    fns = [compile_expr(p[1]) for p in pieces]

    def delta(t):
        t = np.asarray(t, dtype=float)
        conds = [t >= s for s in reversed(starts)]
        vals = [np.broadcast_to(np.asarray(f(t), dtype=float), t.shape)
                for f in reversed(fns)]
        out = np.select(conds, vals, default=np.nan)
        return float(out) if out.ndim == 0 else out

    body = ", ".join(f'({s}, "{p[1]}")' for s, p in zip(starts, pieces))
    return DegeneracyProfile(
        delta=delta,
        spec=f"piecewise([{body}])",
        breakpoints=tuple(starts[1:]),
    )


def parse_profile(text):
    """Parse the profile grammar: constant(c) | power(alpha) | oscillatory()
    | expr("...") | piecewise([(t0, "expr0"), ...])."""
    return _profile(read_call(text, "profile"), text)


def _profile(call, text):
    name, args = call
    if name in ("constant", "power"):
        if len(args) != 1 or not isinstance(args[0], float):
            raise ValueError(f"{name}(...) needs one number: {text!r}")
        make = constant_profile if name == "constant" else power_profile
        return make(args[0])
    if name == "oscillatory":
        if args:
            raise ValueError(f"oscillatory() takes no arguments: {text!r}")
        return oscillatory_profile()
    if name == "expr":
        if len(args) != 1 or not isinstance(args[0], str):
            raise ValueError(f"expr(...) needs one string argument: {text!r}")
        return expr_profile(args[0])
    if name == "piecewise":
        pieces = args[0] if len(args) == 1 else None
        if not isinstance(pieces, (list, tuple)) or not all(
                isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], float)
                and isinstance(p[1], str) for p in pieces):
            raise ValueError(
                f'piecewise(...) needs a list of (t0, "expr") pairs: {text!r}')
        return piecewise_profile(pieces)
    raise ValueError(f"unknown profile kind {name!r} in {text!r}")


def cumulative_delta(profile, t):
    """beta at a time or an array of times (float or array out, as delta):
    accumulate_on of scalar_path(profile, 1).  A failure names the profile."""
    ts = np.asarray(t, dtype=float)
    if np.any(ts < 0):
        raise ValueError(f"cumulative is defined for t >= 0, got {t}")
    try:
        betas = accumulate_on(scalar_path(profile, 1), ts.ravel())[:, 0, 0]
    except QuadratureError as exc:
        exc.spec = profile.spec
        raise
    return float(betas[0]) if ts.ndim == 0 else betas.reshape(ts.shape)


def cumulative_delta_grid(profile, ts, npts=None):
    """Vectorized beta on an array of times.

    Uses the closed form when present; otherwise a dense midpoint scan with
    npts panels over [0, max(ts)] (default 16 per requested time, at least
    4096), linearly interpolated at ts.  The scan runs in fixed-size chunks,
    each continuing the running total, so its memory stays bounded by the
    chunk (plus arrays the size of ts) and its values equal one np.cumsum
    over np.linspace(0, max(ts), npts + 1), bit for bit.  Intended for
    plotting and scan-style diagnostics, not for the tight tolerances of the
    solver path.
    """
    ts = np.asarray(ts, dtype=float)
    if np.any(ts < 0):
        raise ValueError("cumulative is defined for t >= 0")
    if profile.closed_form_cumulative is not None:
        return np.asarray(profile.closed_form_cumulative(ts), dtype=float)
    hi = float(np.max(ts)) if ts.size else 0.0
    if hi == 0.0:
        return np.zeros_like(ts)
    if npts is None:
        npts = max(4096, 16 * ts.size)
    flat = ts.ravel()
    order = (None if np.all(flat[1:] >= flat[:-1])
             else np.argsort(flat, kind="stable"))
    vals, = _scan_at(profile, hi, npts, [flat if order is None else flat[order]])
    if order is not None:
        vals[order] = vals.copy()
    return vals.reshape(ts.shape)[()]


# panels per chunk of a midpoint scan: a few MB of temporaries at a time
_SCAN_CHUNK = 1 << 16

# panels of levelset_measure_scan over [0, t0]; the CLI reads it too
_SCAN_POINTS = 1_000_000


def _grid_edges(hi, n, i0, i1):
    """Edges i0..i1 of np.linspace(0, hi, n + 1), bit for bit."""
    i = np.arange(i0, i1 + 1, dtype=float)
    step = hi / n
    edges = i / n * hi if step == 0 else i * step
    if i1 == n:
        edges[-1] = hi
    return edges


def _scan_chunks(profile, hi, npts):
    """(edges, beta at the edges) of the midpoint scan of delta with npts
    panels over np.linspace(0, hi, npts + 1), chunk by chunk; each chunk
    repeats the last edge of the one before.  Each chunk's cumsum continues
    the running total, and np.cumsum adds sequentially, so the chunks hold
    one np.cumsum over the whole grid, bit for bit."""
    total = 0.0
    for i0 in range(0, npts, _SCAN_CHUNK):
        edges = _grid_edges(hi, npts, i0, min(i0 + _SCAN_CHUNK, npts))
        if i0 == 0:
            dt = edges[1] - edges[0]
        steps = profile.delta(0.5 * (edges[:-1] + edges[1:])) * dt
        if i0:
            steps[0] += total
        beta = np.empty(edges.size)
        beta[0] = total
        np.cumsum(steps, out=beta[1:])
        total = beta[-1]
        yield edges, beta


def _scan_at(profile, hi, npts, times):
    """cumulative_delta_grid's values at sorted times ending at hi, given
    and returned in chunks: each time is interpolated in the first scan
    chunk whose last edge is >= it, as one np.interp would, bit for bit."""
    scan = _scan_chunks(profile, hi, npts)
    edges, beta = next(scan)
    for q in times:
        vals = np.empty(q.size)
        pos = int(np.searchsorted(q, edges[-1], side="right"))
        vals[:pos] = np.interp(q[:pos], edges, beta)
        while pos < q.size:
            edges, beta = next(scan)
            end = pos + int(np.searchsorted(q[pos:], edges[-1], side="right"))
            vals[pos:end] = np.interp(q[pos:end], edges, beta)
            pos = end
        yield vals


# bisection steps of the generalized inverse; its table has one more node
_BISECTION_STEPS = 60


def inverse_cumulative(profile, h, t_max, clamp=False):
    """Generalized inverse phi(h) = inf{t : beta(t) >= h}, by bisection.

    h is a level or an array of levels (float or array out, as delta).
    Every level runs the same 60 bisection steps on [0, t_max], and one
    table serves them all: beta on the dyadic nodes t_max * 2^-m,
    m = 0..60, from one cumulative_delta call.  Those nodes are the midpoints
    bisection visits while its lower end is 0, so each level starts from
    its dyadic bracket; each later step takes beta(mid) from the closed
    form when one is registered, else as beta(lo) plus the windows
    [lo, mid] of all levels in one integrate_windows call.  A level whose
    bracket holds no float between its ends stops, as no later step could
    move its hi.  Handles plateaus of beta (stretches where
    delta = 0).  h <= 0 maps to 0.  A level above the table's top
    beta(t_max) gives t_max; unless clamp, it is a range error once it
    exceeds the top by more than the table's quadrature tolerance (zero for
    a closed form).
    """
    levels = np.asarray(h, dtype=float)
    flat = levels.ravel()
    out = np.zeros(flat.shape)
    todo = ~(flat <= 0)
    if np.any(todo):
        nodes = float(t_max) * 2.0 ** -np.arange(_BISECTION_STEPS + 1)
        betas = cumulative_delta(profile, nodes)
        top = float(betas[0])
        # the table's windows are each within max(ATOL, RTOL * window), and
        # a caller's beta(t_max) from 0 within max(ATOL, RTOL * beta)
        slack = (0.0 if profile.closed_form_cumulative is not None
                 else 2.0 * RTOL * top + (nodes.size + 1) * ATOL)
        over = flat > top + slack
        if not clamp and np.any(over):
            raise ValueError(
                f"h={float(flat[over][0])} exceeds cumulative at "
                f"t_max={t_max} (beta={top})")
        above = flat > top
        out[above] = t_max
        todo &= ~above
        try:
            out[todo] = _bisect(profile, flat[todo], nodes, betas)
        except QuadratureError as exc:
            exc.spec = profile.spec
            raise
    return float(out[0]) if levels.ndim == 0 else out.reshape(levels.shape)


def _bisect(profile, levels, nodes, betas):
    """The bisection of inverse_cumulative for every level at once."""
    steps = nodes.size - 1
    # step s moves hi to nodes[s] while beta(nodes[s]) >= level; k is the
    # first step that moves lo instead (steps + 1 if none does)
    moved = ~(betas[None, 1:] >= levels[:, None])
    k = np.where(moved.any(axis=1), moved.argmax(axis=1) + 1, steps + 1)
    hi = nodes[k - 1]
    lo = nodes[np.minimum(k, steps)]
    beta_lo = betas[np.minimum(k, steps)]
    closed = profile.closed_form_cumulative
    for s in range(int(k.min(initial=steps)) + 1, steps + 1):
        act = np.flatnonzero(k < s)
        mid = 0.5 * (lo[act] + hi[act])
        # a bracket of two adjacent floats keeps its hi in every later step
        split = (lo[act] < mid) & (mid < hi[act])
        act, mid = act[split], mid[split]
        if closed is not None:
            beta_mid = np.asarray(closed(mid), dtype=float)
        else:
            beta_mid = beta_lo[act] + integrate_windows(
                profile.delta, lo[act], mid, profile.breakpoints)
        up = beta_mid >= levels[act]
        hi[act] = np.where(up, mid, hi[act])
        lo[act] = np.where(up, lo[act], mid)
        beta_lo[act] = np.where(up, beta_lo[act], beta_mid)
    return hi


def levelset_measure(profile, h, t0):
    """Lebesgue measure of {t in [0, t0] : h <= beta(t) < 4h}.

    h is a level or an array of levels (float or array out).  beta is
    nondecreasing, so the set is an interval and the measure is
    min(phi(4h), t0) - min(phi(h), t0); all levels share one inversion, and
    a level above beta(t0), the top of its table, gives t0.
    """
    hs = np.asarray(h, dtype=float)
    flat = hs.ravel()
    if np.any(~(flat > 0)):
        raise ValueError(
            f"level h must be positive, got {float(flat[~(flat > 0)][0])}")
    phis = inverse_cumulative(profile, np.concatenate([flat, 4.0 * flat]),
                              t0, clamp=True)
    measures = phis[flat.size:] - phis[:flat.size]
    return float(measures[0]) if hs.ndim == 0 else measures.reshape(hs.shape)


def levelset_measure_scan(profile, hs, t0):
    """Direct Riemann scan of the same level set for every level h in hs,
    accurate to ~2*t0/npts, npts = _SCAN_POINTS; one scan serves all levels.

    beta is cumulative_delta_grid(profile, mids, npts=4*npts) at the npts
    panel midpoints of [0, t0], bit for bit, read _SCAN_CHUNK midpoints at
    a time alongside the chunked scan, so memory holds a few arrays of
    _SCAN_CHUNK values whatever npts is.  Reference implementation used to
    cross-check levelset_measure.
    """
    npts = _SCAN_POINTS
    for h in hs:
        if h <= 0:
            raise ValueError(f"level h must be positive, got {h}")
    # the midpoints increase, so the last one is the top of the scan
    hi = float(np.mean(_grid_edges(t0, npts, npts - 1, npts)))
    mids = (0.5 * (e[:-1] + e[1:]) for e in
            (_grid_edges(t0, npts, i0, min(i0 + _SCAN_CHUNK, npts))
             for i0 in range(0, npts, _SCAN_CHUNK)))
    betas = ((cumulative_delta_grid(profile, q) for q in mids)
             if profile.closed_form_cumulative is not None or hi <= 0.0
             else _scan_at(profile, hi, 4 * npts, mids))
    counts = sum(np.array([np.count_nonzero((beta >= h) & (beta < 4.0 * h))
                           for h in hs]) for beta in betas)
    return [float(c) * (t0 / npts) for c in counts]


@dataclass(frozen=True)
class LevelsetFit:
    beta_hat: float
    n0_hat: float
    residual: float
    measures: tuple  # levelset_measure at each level of the fitted grid


def _level_grid(beta_t0, points=9, decades=2.5):
    """The levels h of a beta fit: `points` of them, log-spaced over
    `decades` decades up to beta(t0)/4; empty when beta(t0) vanishes."""
    top = beta_t0 / 4.0
    if top <= 0:
        return np.empty(0)
    with np.errstate(invalid="ignore"):
        return np.logspace(math.log10(top) - decades, math.log10(top), points)


def fit_beta_exponent(profile, t0, h_grid):
    """Least-squares fit of log(measure) = log(N0) + (1/beta) * log(h).

    h_grid needs at least 4 levels spanning two decades, every level with
    positive measure.  Returns the fitted exponent beta_hat, the constant
    N0_hat, the RMS residual of the fit in log space, and the measures.
    """
    h_grid = np.asarray(h_grid, dtype=float)
    if h_grid.size < 4:
        raise ValueError(f"need at least 4 levels, got {h_grid.size}")
    if np.max(h_grid) / np.min(h_grid) < 100.0:
        raise ValueError("h_grid must span at least two decades")
    measures = levelset_measure(profile, h_grid, t0)
    if np.all(measures <= 0):
        raise ValueError("degenerate fit: all level-set measures vanish")
    if np.any(measures <= 0):
        bad = h_grid[measures <= 0]
        raise ValueError(f"level-set measure vanishes at h={bad.tolist()}; "
                         f"shrink the h grid below beta(t0)/4")
    slope, intercept = np.polyfit(np.log(h_grid), np.log(measures), 1)
    fitted = intercept + slope * np.log(h_grid)
    residual = float(np.sqrt(np.mean((fitted - np.log(measures)) ** 2)))
    return LevelsetFit(beta_hat=1.0 / slope, n0_hat=float(np.exp(intercept)),
                       residual=residual, measures=tuple(measures.tolist()))


@dataclass(frozen=True)
class CoefficientPath:
    """Symmetric matrix path a(t) of size dim x dim.

    a is vectorized like DegeneracyProfile.delta: a scalar t gives a
    (dim, dim) array, an array ts of shape (m,) gives (m, dim, dim), and
    a(ts)[k] equals a(ts[k]) bit for bit.  cumulative, when present, is
    the exact entrywise integral over [0, t] at one scalar t; otherwise
    accumulate_on integrates a by panel quadrature.
    """

    dim: int
    a: callable
    cumulative: callable = None
    bound_M: float = None
    spec: str = ""
    breakpoints: tuple = ()

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ValueError(f"dim must be 1, 2 or 3, got {self.dim}")


def scalar_path(profile, dim):
    """a(t) = delta(t) * I: the tightest path dominated by the profile."""
    eye = np.eye(dim)
    cum = None
    if profile.closed_form_cumulative is not None:
        base = profile.closed_form_cumulative
        cum = lambda t: float(base(t)) * eye
    return CoefficientPath(
        dim=dim,
        a=lambda t: np.multiply.outer(profile.delta(t), eye),
        cumulative=cum,
        bound_M=profile.bound_M,
        spec=f"scalar({profile.spec})",
        breakpoints=profile.breakpoints,
    )


def constant_matrix_path(mat):
    mat = np.asarray(mat, dtype=float)
    dim = mat.shape[0]
    if mat.shape != (dim, dim):
        raise ValueError(f"coefficient matrix must be square, got {mat.shape}")
    if not np.allclose(mat, mat.T, atol=1e-12 * max(1.0, np.abs(mat).max())):
        raise ValueError("coefficient matrix must be symmetric")
    rows = ", ".join("[" + ", ".join(repr(float(v)) for v in row) + "]"
                     for row in mat)
    return CoefficientPath(
        dim=dim,
        a=lambda t: np.broadcast_to(mat, np.shape(t) + mat.shape),
        cumulative=lambda t: float(t) * mat,
        bound_M=float(np.abs(mat).max()),
        spec=f"matrix([{rows}])",
    )


def expr_matrix_path(entries):
    """Matrix of arithmetic expressions in t (numbers allowed as entries)."""
    dim = len(entries)
    texts = [[str(e) for e in row] for row in entries]
    if any(len(row) != dim for row in texts):
        raise ValueError("coefficient matrix must be square")
    for i in range(dim):
        for j in range(dim):
            if texts[i][j].strip() != texts[j][i].strip():
                raise ValueError(
                    f"coefficient matrix entries ({i},{j}) and ({j},{i}) "
                    f"differ: {texts[i][j]!r} vs {texts[j][i]!r}")
    fns = [[compile_expr(texts[i][j]) for j in range(dim)] for i in range(dim)]

    def a(t):
        t = np.asarray(t, dtype=float)
        out = np.empty(t.shape + (dim, dim))
        for i in range(dim):
            for j in range(i, dim):
                out[..., i, j] = out[..., j, i] = fns[i][j](t)
        return out

    rows = ", ".join('[' + ', '.join(f'"{e}"' for e in row) + ']'
                     for row in texts)
    return CoefficientPath(dim=dim, a=a, spec=f"matrix([{rows}])")


def parse_coefficients(text, dim):
    """Parse the coefficient grammar: scalar(<profile>) | matrix([[...], ...]).
    A matrix of numbers is a constant path with a closed-form cumulative."""
    name, args = read_call(text, "coefficient")
    if name == "scalar":
        if len(args) != 1 or not isinstance(args[0], Call):
            raise ValueError(f"scalar(...) needs one profile spec: {text!r}")
        return scalar_path(_profile(args[0], text), dim)
    if name == "matrix":
        rows = args[0] if len(args) == 1 else None
        if not isinstance(rows, list) or not all(
                isinstance(row, list)
                and all(isinstance(e, (str, float)) for e in row)
                for row in rows):
            raise ValueError(f"matrix(...) needs a list of rows of strings "
                             f"or numbers: {text!r}")
        rows = [[e if isinstance(e, str) else repr(e) for e in row]
                for row in rows]
        if len(rows) != dim:
            raise ValueError(
                f"coefficient matrix is {len(rows)}x{len(rows[0]) if rows else 0} "
                f"but grid dimension is {dim}")
        path = expr_matrix_path(rows)
        values = [[number(e) for e in row] for row in rows]
        if all(v is not None for row in values for v in row):
            return constant_matrix_path(values)
        return path
    raise ValueError(f"unknown coefficient kind {name!r} in {text!r}")


def _entry(path, i, j):
    return lambda t: np.asarray(path.a(t), dtype=float)[:, i, j]


def accumulate_on(path, nodes):
    """Entrywise integrals of a over [0, t] for every t in nodes, symmetrized:
    the one route from a path, or a profile's scalar_path, to cumulatives.

    Returns an array (len(nodes), dim, dim) in the order of nodes.  A
    registered cumulative is evaluated per node.  Otherwise, per entry
    i <= j, one integrate_windows call integrates the windows
    [0, t_1], [t_1, t_2], ... between consecutive distinct positive nodes,
    each to the package's accuracy policy, and np.cumsum sums them left to
    right.  A failure names the path.
    """
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 1:
        raise ValueError(f"nodes must be one-dimensional, got shape {nodes.shape}")
    if np.any(nodes < 0):
        raise ValueError("accumulation endpoints must be >= 0")
    shape = nodes.shape + (path.dim,) * 2
    if path.cumulative is not None:
        out = np.array([path.cumulative(t) for t in nodes], float).reshape(shape)
        return 0.5 * (out + np.swapaxes(out, -1, -2))
    # distinct positive nodes (np.unique's quicksort maps ~1 MB more code)
    ts = np.sort(nodes[nodes > 0], kind="stable")
    ts = ts[np.diff(ts, prepend=0.0) > 0]
    lo = np.concatenate([[0.0], ts])[:ts.size]
    table = np.zeros((ts.size + 1,) + shape[1:])  # to 0, ts[0], ...
    try:
        for i, j in combinations_with_replacement(range(path.dim), 2):
            windows = integrate_windows(_entry(path, i, j), lo, ts,
                                        path.breakpoints)
            table[1:, i, j] = table[1:, j, i] = np.cumsum(windows)
    except QuadratureError as exc:
        exc.spec = path.spec
        raise
    out = table[np.searchsorted(ts, nodes, side="right")]
    return 0.5 * (out + np.swapaxes(out, -1, -2))


def check_domination(path, profile, sample_times):
    """Smallest constant with max_ij |a_ij(t)| <= const * delta(t) on samples.

    By convention 0/0 counts as 0; a nonzero coefficient over a vanished
    floor makes the constant infinite.  One vectorized call each to path.a
    and profile.delta covers all samples.
    """
    ts = np.asarray(sample_times, dtype=float).ravel()
    amax = np.abs(np.asarray(path.a(ts), dtype=float)).max(axis=(-2, -1))
    d = np.asarray(profile.delta(ts), dtype=float)
    floor = d > 0.0
    if np.any(~floor & (amax > 0.0)):
        return math.inf
    # fmax skips NaN ratios, as a running max(worst, ratio) does
    return float(np.fmax.reduce(amax[floor] / d[floor], initial=0.0))


def empirical_bound(profile, t_max):
    """Observed sup of delta on 4096 points of (0, t_max]; complements
    bound_M when unset."""
    ts = np.linspace(0.0, t_max, 4097)[1:]
    return float(np.max(profile.delta(ts)))
