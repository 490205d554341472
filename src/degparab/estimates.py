"""Empirical constants for the a priori estimates of the degenerate solve.

Each check computes both sides of an inequality on actual solves and
reports the ratio lhs / rhs as the observed constant.  Weighted time
integrals use the convention 0 * inf := 0 on the set where the floor
delta vanishes; a genuinely divergent weight makes the norm infinite and
the report is flagged inadmissible rather than silently truncated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .degeneracy import (_level_grid, accumulate_on, check_domination,
                         cumulative_delta, fit_beta_exponent)
from .solver import _duhamel_stream, epsilon_regularize, quadratic_form
from .spectral import (LPFamily, _block_multiplier, _xi_sq, besov_norm,
                       bessel_norm, hessian_lp_norm, lp_norm)


def _trapezoid(values, nodes):
    """Composite trapezoid of samples over nodes, as numpy's trapezoid sums it."""
    return float((np.diff(nodes) * (values[1:] + values[:-1]) / 2.0).sum())


def weighted_norm(nodes, norms, profile, p, weight_power):
    """(int ||u(t)||^p delta(t)^m dt)^(1/p), m = weight_power, by trapezoid
    over nodes of the spatial norms ||u(t_k)||, read in node order; delta is
    not read at m = 0.  inf when the weight diverges against a nonvanishing
    norm or a power leaves the float range."""
    if not 1 < p < math.inf:
        raise ValueError(f"p must lie in (1, inf), got {p}")
    m = weight_power
    values = np.zeros(len(nodes))
    try:
        for k, (t, nrm) in enumerate(zip(nodes, norms)):
            d = float(profile.delta(t)) if m else 1.0
            if d > 0.0:
                values[k] = nrm ** p * d ** m
            elif m < 0.0 and nrm > 0.0:
                return math.inf
            # else 0 * inf := 0
    except OverflowError:
        return math.inf
    return _trapezoid(values, nodes) ** (1.0 / p)


@dataclass
class EstimateReport:
    """One empirical inequality check, CSV-ready."""

    theorem: str
    smoothness: float
    p: float
    weight_power: float
    profile_spec: str
    grid_n: int
    steps: int
    lhs: float
    rhs_components: tuple  # ((name, value), ...)
    ratio: float
    flags: tuple = ()
    extra: dict = field(default_factory=dict)

    @property
    def admissible(self):
        return not any("inadmissible" in fl for fl in self.flags)


def _make_ratio(lhs, rhs_components):
    rhs = sum(v for _, v in rhs_components)
    if math.isinf(lhs) or math.isinf(rhs):
        return math.nan, ("inadmissible-weight",)
    if lhs == 0.0:
        return 0.0, ()
    if rhs == 0.0:
        return math.inf, ("vanishing-rhs",)
    return lhs / rhs, ()


def check_thm1(u0, f, path, profile, smoothness, p, partition):
    """Weighted second-derivative estimate:

        || u_xx ||_{bH^n_p(T, delta)}
            <= N(d, p) ( || f ||_{bH^n_p(T, delta^(1-p))}
                         + || u0 ||_{B^{n+2-2/p}_p} ).

    Solves with the exact propagator and reports lhs, both rhs pieces,
    and the observed constant lhs / rhs.
    """
    nodes = partition.nodes
    u_norms, f_norms = [], []
    for u, f_k in _duhamel_stream(u0, f, path, nodes):
        u_norms.append(hessian_lp_norm(u, p, smoothness))
        if f_k is not None:
            f_norms.append(bessel_norm(f_k, smoothness, p))
    lhs = weighted_norm(nodes, u_norms, profile, p, 1.0)
    rhs_f = 0.0 if f is None else weighted_norm(nodes, f_norms, profile, p,
                                                1.0 - p)
    rhs_u0 = besov_norm(u0, smoothness + 2.0 - 2.0 / p, p)
    components = (("forcing", rhs_f), ("initial", rhs_u0))
    ratio, flags = _make_ratio(lhs, components)
    return EstimateReport(
        theorem="thm1", smoothness=smoothness, p=p, weight_power=1.0,
        profile_spec=profile.spec, grid_n=u0.grid.n, steps=partition.steps,
        lhs=lhs, rhs_components=components, ratio=ratio, flags=flags,
        extra={"dim": u0.grid.dim, "horizon": partition.horizon})


def check_thm2(u0, path, profile, p, partition, beta_hat=None, t0=None,
               h_grid=None):
    """Unweighted second-derivative estimate for the homogeneous solve:

        || u_xx ||_{bL_p(T)} <= N || u0 ||_{B^{2(1 - 1/(beta p))}_p},

    valid when the profile satisfies the level-set condition
    |{t <= t0 : h <= beta(t) < 4h}| <= N0 h^(1/beta) and the coefficients
    are dominated by the floor.  beta_hat defaults to the fitted exponent;
    h_grid, the levels of the fit, defaults to 9 levels log-spaced over 2.5
    decades up to beta(t0)/4.
    """
    horizon = partition.horizon
    t0 = horizon if t0 is None else t0
    kappa0 = cumulative_delta(profile, t0)
    flags = []
    fit = None
    try:
        if kappa0 <= 0:
            raise ValueError(f"beta(t0) = {kappa0!r} vanishes")
        fit = fit_beta_exponent(
            profile, t0, _level_grid(kappa0) if h_grid is None else h_grid)
    except ValueError as exc:
        flags.append("inadmissible-hypothesis:levelset")
        flags.append(str(exc))
    sample_times = np.linspace(0.0, horizon, 513)
    nbar0 = check_domination(path, profile, sample_times)
    if math.isinf(nbar0):
        flags.append("inadmissible-hypothesis:domination")
    if beta_hat is None and fit is not None:
        beta_hat = fit.beta_hat

    extra = {"dim": u0.grid.dim, "horizon": horizon, "t0": t0,
             "kappa0": kappa0, "nbar0": nbar0,
             "n0_hat": fit.n0_hat if fit else math.nan,
             "beta_hat": beta_hat if beta_hat is not None else math.nan}
    if any(fl.startswith("inadmissible") for fl in flags):
        return EstimateReport(
            theorem="thm2", smoothness=0.0, p=p, weight_power=0.0,
            profile_spec=profile.spec, grid_n=u0.grid.n,
            steps=partition.steps, lhs=math.nan, rhs_components=(),
            ratio=math.nan, flags=tuple(flags), extra=extra)

    nodes = partition.nodes
    lhs = weighted_norm(nodes, [hessian_lp_norm(u, p) for u, _ in
                                _duhamel_stream(u0, None, path, nodes)],
                        profile, p, 0.0)
    # as Python floats, beta_hat * p = inf at p = 1e308 without numpy's
    # overflow warning, and s = 2
    s = 2.0 * (1.0 - 1.0 / (float(beta_hat) * float(p)))
    rhs = besov_norm(u0, s, p)
    components = (("initial", rhs),)
    ratio, ratio_flags = _make_ratio(lhs, components)
    extra["besov_order"] = s
    return EstimateReport(
        theorem="thm2", smoothness=0.0, p=p, weight_power=0.0,
        profile_spec=profile.spec, grid_n=u0.grid.n, steps=partition.steps,
        lhs=lhs, rhs_components=components, ratio=ratio,
        flags=tuple(flags) + ratio_flags, extra=extra)


def check_classic(u0, f, path, partition, p):
    """Supremum-in-time bound || u ||_{C([0,T]; L_p)} <= N (||f||_{bL_p} + ||u0||_p)."""
    nodes = partition.nodes
    u_norms, f_norms = [], []
    for u, f_k in _duhamel_stream(u0, f, path, nodes):
        u_norms.append(lp_norm(u, p))
        if f_k is not None:
            f_norms.append(lp_norm(f_k, p))
    lhs = max(u_norms)
    rhs_f = 0.0 if f is None else weighted_norm(nodes, f_norms, None, p, 0.0)
    rhs_u0 = lp_norm(u0, p)
    components = (("forcing", rhs_f), ("initial", rhs_u0))
    ratio, flags = _make_ratio(lhs, components)
    return EstimateReport(
        theorem="classic", smoothness=0.0, p=p, weight_power=0.0,
        profile_spec="", grid_n=u0.grid.n, steps=partition.steps,
        lhs=lhs, rhs_components=components, ratio=ratio, flags=flags,
        extra={"dim": u0.grid.dim, "horizon": partition.horizon})


@dataclass(frozen=True)
class KernelDecayFit:
    """Fitted uniform bound m(k, t) <= N 2^(k gamma) exp(-c beta(t) 4^k)."""

    c: float
    n_const: float
    gamma: float
    violations: tuple
    samples: tuple  # rows (k, t, beta, mass_ratio)


def check_kernel_decay(path, profile, gamma, k_range, t_samples, grid):
    """Decay of dyadic blocks of the kernel in L_1.

    For each block k and time t the mass m(k, t) = || frac-Laplacian^(gamma/2)
    block_k kernel(t) ||_{L_1} is measured on the grid and normalized by
    2^(k gamma).  c is searched on a 60-point logarithmic grid in
    [1e-3, 10]; for a given c the admissible N is the max of
    ratio * exp(c beta 4^k) over all samples, and the fit keeps the largest
    c whose N stays within a factor 10 of the undecayed baseline.  Samples
    that no searched c can bring under the cap are reported as violations.
    """
    family = LPFamily.for_grid(grid)
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    k_range = [int(k) for k in k_range]
    if not k_range:
        raise ValueError("k_range must be nonempty")
    if min(k_range) < family.j_min or max(k_range) > family.j_max:
        raise ValueError(f"blocks {min(k_range)}..{max(k_range)} outside the "
                         f"family range [{family.j_min}, {family.j_max}]")
    frac = _xi_sq(grid) ** (0.5 * gamma) if gamma > 0 else 1.0
    t_samples = np.asarray(t_samples, dtype=float)
    rows = []
    betas = cumulative_delta(profile, t_samples).tolist()
    for t, B, beta_t in zip(t_samples, accumulate_on(path, t_samples), betas):
        values = np.exp(-quadratic_form(grid, B))
        for k in k_range:
            block = _block_multiplier(family, grid, k)
            samples = np.fft.ifftn(values * block * frac).real / grid.cell_volume
            mass = float(np.sum(np.abs(samples)) * grid.cell_volume)
            rows.append((int(k), float(t), beta_t, mass / 2.0 ** (k * gamma)))

    z = np.array([beta * 4.0 ** k for k, _, beta, _ in rows])
    y = np.array([ratio for _, _, _, ratio in rows])
    cs = np.logspace(-3, 1, 60)
    # zero masses (deep decay underflows to exact 0) constrain nothing;
    # the search runs in log space so that large c*z cannot overflow
    pos = np.nonzero(y > 0.0)[0]
    logy, zp = np.log(y[pos]), z[pos]
    if logy.size == 0:
        return KernelDecayFit(c=float(cs[-1]), n_const=0.0, gamma=gamma,
                              violations=(), samples=tuple(rows))
    cap_log = math.log(10.0) + float(np.max(logy + cs[0] * zp))
    ok = logy + cs[0] * zp <= cap_log + 1e-12
    violations = tuple(rows[pos[i]] for i in range(logy.size) if not ok[i])
    if np.any(ok):
        n_log = np.array([float(np.max(logy[ok] + c * zp[ok])) for c in cs])
        admissible = np.nonzero(n_log <= cap_log + 1e-12)[0]
        best = int(admissible[-1]) if admissible.size else 0
        n_best = math.exp(n_log[best])
    else:
        best, n_best = 0, 0.0
    return KernelDecayFit(c=float(cs[best]), n_const=n_best,
                          gamma=gamma, violations=violations,
                          samples=tuple(rows))


def epsilon_sweep(u0, f, path, profile, eps_list, p, partition,
                  smoothness=0.0):
    """check_thm1 across regularizations a + eps I, delta + eps.

    eps_list must be positive and decreasing; the point of the sweep is
    that the observed constant stays bounded as eps -> 0.
    """
    eps_list = [float(e) for e in eps_list]
    if any(e <= 0 for e in eps_list):
        raise ValueError(f"eps values must be positive, got {eps_list}")
    if any(b >= a for a, b in zip(eps_list[:-1], eps_list[1:])):
        raise ValueError(f"eps values must be decreasing, got {eps_list}")
    reports = [check_thm1(u0, f, epsilon_regularize(path, eps),
                          profile.shifted(eps), smoothness, p, partition)
               for eps in eps_list]
    for eps, rep in zip(eps_list, reports):
        rep.extra["eps"] = eps
    return reports


CSV_HEADER = "theorem,n,p,m,profile_spec,grid_n,K,lhs,rhs_1,rhs_2,ratio,flags"


def reports_to_csv(reports, path):
    """Deterministic CSV dump of estimate reports (bit-stable float repr)."""
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in reports:
            rhs = [float(v) for _, v in r.rhs_components] + [0.0, 0.0]
            flags = ";".join(r.flags)
            fh.write(f"{r.theorem},{float(r.smoothness)!r},{float(r.p)!r},"
                     f"{float(r.weight_power)!r},\"{r.profile_spec}\","
                     f"{r.grid_n},{r.steps},{float(r.lhs)!r},{rhs[0]!r},"
                     f"{rhs[1]!r},{float(r.ratio)!r},\"{flags}\"\n")
