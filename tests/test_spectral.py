"""Grid transforms, Littlewood-Paley blocks, Besov and Bessel norms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degparab import (GridSpec, LPFamily, SpectralField, besov_norm,
                      bessel_norm, gaussian_bump, hessian_lp_norm,
                      inner_product, lowpass, lp_block, lp_norm, mode_field,
                      quadratic_form, s0_block, second_derivatives, x_grids)
from references import (besov_norm_by_ifft, bessel_norm_by_ifft,
                        hessian_lp_norm_every_pair, partition_defect,
                        random_band_limited)

# period 8*pi puts the dyadic frequencies 2^j exactly on the lattice
LATTICE_GRID = GridSpec(dim=1, n=256, length=8.0 * math.pi)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(dim=4, n=64, length=10.0)
    with pytest.raises(ValueError):
        GridSpec(dim=1, n=1000, length=10.0)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(dim=1, n=64, length=-1.0)


def test_round_trip():
    grid = GridSpec(dim=2, n=64, length=16.0)
    rng = np.random.default_rng(0)
    samples = rng.standard_normal(grid.shape)
    field = SpectralField(grid, samples)
    back = SpectralField.from_spectrum(grid, field.spectrum)
    assert np.max(np.abs(back.samples - samples)) < 1e-12 * np.max(np.abs(samples))


def test_constant_field_spectrum_is_dc_only():
    grid = GridSpec(dim=1, n=64, length=8.0)
    field = SpectralField(grid, np.ones(64))
    spec = field.spectrum
    assert abs(spec[0] - 64.0) < 1e-10
    assert np.max(np.abs(spec[1:])) < 1e-10


def test_cosine_mode_two_symmetric_lines():
    field = mode_field(LATTICE_GRID, (3,))
    spec = field.spectrum
    hot = np.nonzero(np.abs(spec) > 1e-9)[0]
    assert len(hot) == 2
    assert abs(abs(spec[hot[0]]) - abs(spec[hot[1]])) < 1e-10


def test_conjugate_symmetry():
    rng = np.random.default_rng(3)
    field = random_band_limited(GridSpec(dim=1, n=128, length=16.0), rng)
    spec = field.spectrum
    assert np.allclose(spec[1:], np.conj(spec[1:])[::-1], atol=1e-9)


def test_parseval():
    grid = GridSpec(dim=1, n=512, length=32.0)
    rng = np.random.default_rng(5)
    u = random_band_limited(grid, rng)
    grid_l2 = lp_norm(u, 2.0)
    spectral_l2 = math.sqrt(np.sum(np.abs(u.spectrum) ** 2)
                            / grid.n * grid.cell_volume)
    assert abs(grid_l2 - spectral_l2) < 1e-10 * grid_l2


def test_lp_norm_constant_field():
    grid = GridSpec(dim=2, n=32, length=4.0)
    one = SpectralField(grid, np.ones(grid.shape))
    for p in (1.0, 2.0, 3.0):
        assert abs(lp_norm(one, p) - 4.0 ** (2.0 / p)) < 1e-12
    assert lp_norm(one, np.inf) == 1.0


@pytest.mark.parametrize("p", [2.0, 400.0, 1e308])
@pytest.mark.parametrize("scale", [2.0 ** -560, 2.0 ** -300, 2.0 ** 300,
                                   2.0 ** 700])
def test_norms_at_a_huge_p_scale_with_the_field(p, scale):
    # every p-th power of the scaled field leaves the float range, which
    # read inf or 0.0; a norm is homogeneous, so it must scale instead.
    # At 2^700 and 2^-560 so do the squares of the p = 2 norms and of the
    # Hessian's Frobenius sum, which read nan, inf or 0.0 with numpy's
    # "overflow encountered in square"
    grid = GridSpec(dim=1, n=256, length=16.0)
    u = gaussian_bump(grid, width=1.0)
    v = SpectralField(grid, scale * u.samples)
    for norm in (lambda f: lp_norm(f, p), lambda f: hessian_lp_norm(f, p),
                 lambda f: besov_norm(f, 1.0, p)):
        assert 0.0 < norm(u) < math.inf
        assert norm(v) == pytest.approx(scale * norm(u), rel=1e-12, abs=0.0)


def test_lp_norm_rejects_p_below_one():
    grid = GridSpec(dim=1, n=32, length=4.0)
    with pytest.raises(ValueError):
        lp_norm(SpectralField(grid, np.ones(32)), 0.5)


def test_inner_product_mode_orthogonality():
    a = mode_field(LATTICE_GRID, (3,))
    b = mode_field(LATTICE_GRID, (5,))
    assert abs(inner_product(a, b)) < 1e-12
    # (cos, cos) = L/2
    assert abs(inner_product(a, a) - 4.0 * math.pi) < 1e-10


def test_field_arithmetic_and_grid_check():
    u = mode_field(LATTICE_GRID, (3,))
    v = mode_field(LATTICE_GRID, (5,))
    w = 2.0 * u + v - u
    assert np.allclose(w.samples, u.samples + v.samples)
    other = mode_field(GridSpec(dim=1, n=128, length=8.0 * math.pi), (3,))
    with pytest.raises(ValueError):
        u + other


def test_lowpass_shape():
    r = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0])
    vals = lowpass(r)
    assert vals[0] == 1.0 and vals[2] == 1.0
    assert vals[4] == 0.0 and vals[5] == 0.0
    assert 0.0 < vals[3] < 1.0
    assert np.all(np.diff(vals) <= 1e-15)


def test_block_support_annulus():
    fam = LPFamily.for_grid(LATTICE_GRID)
    r = np.linspace(0.0, 2.0 ** (fam.j_max + 2), 4001)
    for j in (1, 2, fam.j_max):
        vals = fam.psi_hat(j, r)
        outside = (r < 2.0 ** (j - 1)) | (r > 2.0 ** (j + 1))
        assert np.max(np.abs(vals[outside])) == 0.0


def test_block_orthogonality_distant_blocks():
    fam = LPFamily.for_grid(LATTICE_GRID)
    rng = np.random.default_rng(11)
    u = random_band_limited(LATTICE_GRID, rng)
    b2 = lp_block(u, 2, fam)
    assert lp_norm(lp_block(b2, 4, fam), np.inf) == 0.0
    assert lp_norm(lp_block(b2, 1, fam), np.inf) > 0.0  # neighbors overlap


def test_reconstruction_band_limited():
    grid = GridSpec(dim=1, n=1024, length=32.0)
    fam = LPFamily.for_grid(grid)
    rng = np.random.default_rng(2)
    for _ in range(3):
        u = random_band_limited(grid, rng)
        rec = s0_block(u).samples.copy()
        for j in range(1, fam.j_max + 1):
            rec += lp_block(u, j, fam).samples
        gap = np.max(np.abs(rec - u.samples)) / np.max(np.abs(u.samples))
        assert gap < 1e-10


def test_partition_defect_tiny():
    assert partition_defect(GridSpec(dim=1, n=1024, length=32.0)) < 1e-12
    assert partition_defect(GridSpec(dim=2, n=64, length=16.0)) < 1e-12


def test_block_out_of_range_rejected():
    fam = LPFamily.for_grid(LATTICE_GRID)
    u = mode_field(LATTICE_GRID, (3,))
    with pytest.raises(ValueError):
        lp_block(u, fam.j_max + 1, fam)


def test_besov_single_mode_exact():
    # xi = 4 sits exactly at the center of block j=2: psi_hat_2(4) = 1
    u = mode_field(LATTICE_GRID, (16,))
    base = lp_norm(u, 2.0)
    for s in (0.5, 1.5):
        assert abs(besov_norm(u, s, 2.0) - 2.0 ** (2 * s) * base) < 1e-10 * base


def test_besov_low_frequency_is_s0_only():
    # xi = 1/4 lies under the s0 cutoff; no dyadic block sees it
    u = mode_field(LATTICE_GRID, (1,))
    assert abs(besov_norm(u, 3.0, 2.0) - lp_norm(u, 2.0)) < 1e-10


def test_bessel_zero_smoothness_is_lp():
    u = gaussian_bump(LATTICE_GRID, width=2.0)
    assert bessel_norm(u, 0.0, 3.0) == lp_norm(u, 3.0)


def test_bessel_mode_factor():
    # (1 + |xi|^2)^(n/2) at |xi| = 1, n = 2 gives exactly 2
    u = mode_field(LATTICE_GRID, (4,))
    assert abs(bessel_norm(u, 2.0, 2.0) - 2.0 * lp_norm(u, 2.0)) < 1e-10


def test_second_derivatives_mode():
    grid = GridSpec(dim=2, n=64, length=8.0 * math.pi)
    u = mode_field(grid, (4, 8))  # xi = (1, 2)
    hess = second_derivatives(u)
    assert len(hess) == 4
    # d^2/dx dy of cos(x + 2y) = -2 cos(x + 2y)
    assert np.allclose(hess[1].samples, -2.0 * u.samples, atol=1e-9)
    assert np.allclose(hess[3].samples, -4.0 * u.samples, atol=1e-9)


def test_second_derivatives_constant_zero():
    grid = GridSpec(dim=1, n=64, length=8.0)
    u = SpectralField(grid, np.ones(64))
    assert np.max(np.abs(second_derivatives(u)[0].samples)) < 1e-12


def test_second_derivative_gaussian_vs_central_difference():
    grid = GridSpec(dim=1, n=1024, length=32.0)
    u = gaussian_bump(grid, width=2.0)
    uxx = second_derivatives(u)[0].samples
    h = grid.spacing
    fd = (np.roll(u.samples, -1) - 2.0 * u.samples + np.roll(u.samples, 1)) / h ** 2
    assert np.max(np.abs(uxx - fd)) < 1e-4  # O(h^2), h ~ 0.03


def test_hessian_lp_norm_is_uxx_norm_in_1d():
    u = gaussian_bump(LATTICE_GRID, width=1.5)
    direct = lp_norm(second_derivatives(u)[0], 2.0)
    assert abs(hessian_lp_norm(u, 2.0) - direct) < 1e-12


@pytest.mark.parametrize("dim", [2, 3])
def test_hessian_lp_norm_matches_every_pair_loop(dim):
    grid = GridSpec(dim=dim, n=16, length=8.0)
    u = random_band_limited(grid, np.random.default_rng(dim))
    for smoothness in (0.0, 1.5):
        # p = 2 sums the spectrum (Plancherel), not the samples
        ref = hessian_lp_norm_every_pair(u, 2.0, smoothness)
        assert abs(hessian_lp_norm(u, 2.0, smoothness) - ref) <= 1e-12 * ref
        for p in (3.0, np.inf):
            assert hessian_lp_norm(u, p, smoothness) == \
                hessian_lp_norm_every_pair(u, p, smoothness)


def _evolved(bump, top, rho):
    # bump under the propagator exp(-xi^T B xi), B with 1 on the diagonal
    # and rho off it, scaled so that xi^T B xi = top at the Nyquist index
    # of one axis: top = 1000 underflows to 0 there.  The mixed terms
    # follow the Nyquist rule, so the symbol is even and the spectrum stays
    # conjugate-symmetric for any rho
    grid = bump.grid
    B = (top / grid.nyquist ** 2) * ((1.0 - rho) * np.eye(grid.dim) + rho)
    return SpectralField.from_spectrum(
        grid, bump.spectrum * np.exp(-quadratic_form(grid, B)))


def _field(kind, grid, rng):
    if kind == "white":  # no band limit: the Nyquist planes carry content
        return SpectralField(grid, rng.standard_normal(grid.shape))
    bump = gaussian_bump(grid, width=grid.length * rng.uniform(0.04, 0.2),
                         center=rng.uniform(-1.0, 1.0, grid.dim))
    if kind == "gaussian":
        return bump
    return _evolved(bump, 10.0 ** rng.uniform(0.0, 3.0),
                    rng.uniform(-0.45, 0.9))


def _close(value, ref):
    return abs(value - ref) <= 1e-12 * abs(ref)


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), n=st.sampled_from([4, 8, 16, 32]),
       kind=st.sampled_from(["white", "gaussian", "evolved"]),
       smoothness=st.sampled_from([0.0, 1.5]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_p2_norms_match_the_inverse_transform(dim, n, kind, smoothness, seed):
    grid = GridSpec(dim=dim, n=n, length=8.0)
    u = _field(kind, grid, np.random.default_rng(seed))
    assert _close(hessian_lp_norm(u, 2.0, smoothness),
                  hessian_lp_norm_every_pair(u, 2.0, smoothness))
    assert _close(bessel_norm(u, smoothness, 2.0),
                  bessel_norm_by_ifft(u, smoothness, 2.0))
    assert _close(besov_norm(u, smoothness + 1.0, 2.0),
                  besov_norm_by_ifft(u, smoothness + 1.0, 2.0))


def test_hessian_mode_on_one_nyquist_plane():
    # cos(pi x / h) cos(y): the mixed derivative sin(pi x / h) sin(y) * pi / h
    # vanishes on the grid, so only u_xx and u_yy count
    grid = GridSpec(dim=2, n=32, length=2.0 * math.pi)
    x, y = x_grids(grid)
    u = SpectralField(grid, np.cos(math.pi * x / grid.spacing) * np.cos(y))
    exact = math.sqrt(((math.pi / grid.spacing) ** 4 + 1.0)
                      * grid.length ** 2 / 2.0)
    for smoothness in (0.0, 1.5):
        ref = hessian_lp_norm_every_pair(u, 2.0, smoothness)
        assert _close(hessian_lp_norm(u, 2.0, smoothness), ref)
    assert abs(hessian_lp_norm(u, 2.0) - exact) <= 1e-12 * exact


@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_hessian_under_resolved_3d_gaussian(rho):
    # width below the spacing: the spectrum is still large at Nyquist, and
    # with rho != 0 the mixed terms of both the propagator and the Hessian
    # weight meet the Nyquist rule there
    grid = GridSpec(dim=3, n=16, length=8.0)
    u = _evolved(gaussian_bump(grid, width=0.3), 1.0, rho)
    for smoothness in (0.0, 1.5):
        assert _close(hessian_lp_norm(u, 2.0, smoothness),
                      hessian_lp_norm_every_pair(u, 2.0, smoothness))


def test_from_spectrum_transforms_on_first_read_only(monkeypatch):
    grid = GridSpec(dim=2, n=16, length=8.0)
    spec = np.fft.fftn(np.random.default_rng(4).standard_normal(grid.shape))
    expected = np.fft.ifftn(spec).real
    calls = []
    ifftn = np.fft.ifftn

    def spy(*args, **kwargs):
        calls.append(1)
        return ifftn(*args, **kwargs)

    monkeypatch.setattr(np.fft, "ifftn", spy)
    field = SpectralField.from_spectrum(grid, spec)
    assert calls == []
    first = field.samples
    assert np.array_equal(first, expected) and len(calls) == 1
    assert field.samples is first and len(calls) == 1


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_from_spectrum_samples_own_their_memory(dim):
    # a view into the complex transform would keep twice the samples alive
    grid = GridSpec(dim=dim, n=16, length=8.0)
    spec = np.fft.fftn(np.random.default_rng(dim).standard_normal(grid.shape))
    samples = SpectralField.from_spectrum(grid, spec).samples
    assert samples.flags.owndata and samples.flags.c_contiguous
    assert samples.tobytes() == np.fft.ifftn(spec).real.tobytes()


def test_from_spectrum_checks_the_shape():
    with pytest.raises(ValueError):
        SpectralField.from_spectrum(GridSpec(dim=2, n=16, length=8.0),
                                    np.zeros((16, 8), complex))


def test_gaussian_bump_shape():
    grid = GridSpec(dim=1, n=256, length=32.0)
    u = gaussian_bump(grid, width=2.0, amplitude=3.0)
    x = x_grids(grid)[0]
    assert abs(np.max(u.samples) - 3.0) < 1e-12
    i = np.argmax(u.samples)
    assert abs(x[i]) < grid.spacing
