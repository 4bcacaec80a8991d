"""The normal-range floor of the Gaussian tails, `specfun._FLOOR` = 2^-969.

The kernels and the closure samples hold no value below it but exact 0, so
no FFT or recurrence downstream, and no gemm of a transform or restriction,
runs on a subnormal float; the cut changes no bit of a restriction or a
transform, and NaN still propagates.  A band the cut would drop more than
about 2e-14 of is refused.  Inputs above the floor do not keep a gemm's
products above it: in `twisted_convolve` two tails meet, and that gemm
cuts its own operands (tested in `test_twisted.py`).
"""

from __future__ import annotations

import warnings

from math import comb

import mpmath
import numpy as np
import pytest

from hharm import specfun, transform
from hharm.fields import GaussianClosure, Grid, RadialField, random_packet, sample_packets
from hharm.restriction import SphereMeasure, g_function, restrict_sphere
from hharm.specfun import _kernel_diag, wigner_radial, wigner_radial_table
from hharm.transform import SpectralField, _forward_samples, forward, inverse
from hharm.twisted import PlanarGrid, kernel_field
from hharm.windows import bump

FLOOR = 2.0**-969
TINY = np.finfo(float).tiny

# the default grid, which is also the sphere loop's fine grid, and its coarse one
GRIDS = [dict(n_rho=256, n_s=512), dict(n_rho=128, n_s=256)]


def _grid_u(grid):
    """u = 2 |lam| rho^2 on every (lam, rho) of the grid, as the transform uses it."""
    return 2.0 * np.abs(grid.lam)[:, None] * grid.rho[None, :] ** 2


def _subnormal_parts(x):
    parts = np.abs(np.asarray(x).view(float))
    return np.count_nonzero((parts > 0) & (parts < TINY))


def _raw_samples(parts, grid):
    """The closures' products on the grid with no floor, summed."""
    rho, s = grid.rho[:, None], grid.s[None, :]
    total = np.zeros((grid.n_rho, grid.n_s), dtype=complex)
    for c in parts:
        total += (c.amp * np.exp(-c.a * rho**2) * np.exp(-c.b * (s - c.s0) ** 2)
                  * np.exp(1j * c.omega * s))
    return total


def test_floor_is_tiny_times_two_to_the_53():
    assert specfun._FLOOR == TINY * 2.0**53 == FLOOR


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("grid_kw", GRIDS)
def test_kernels_hold_no_value_below_the_floor(d, grid_kw):
    grid = Grid(d=d, **grid_kw)
    u = _grid_u(grid)
    rows = np.abs(_kernel_diag(np.arange(9), np.stack([u] * 9), d))  # bands 0..8 at u
    assert not np.any((rows > 0) & (rows < FLOOR))
    lam = np.abs(grid.lam)[:, None]
    table = np.abs(wigner_radial_table(16, lam, grid.rho[None, :], d))
    assert not np.any((table > 0) & (table < FLOOR))
    # the floor is reached inside the box, so the cut is not vacuous
    assert np.any(table[0] == 0) and np.any(np.exp(-u / 2) > 0)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("grid_kw", GRIDS)
def test_closure_samples_hold_no_value_below_the_floor(d, grid_kw):
    """Every nonzero sample is at least the floor in modulus, and no real or
    imaginary part is subnormal, for one closure and for a sum of them."""
    grid = Grid(d=d, **grid_kw)
    rng = np.random.default_rng(60 + d)
    parts = random_packet(rng, d=d) + random_packet(rng, d=d)[:1]  # three closures
    assert _subnormal_parts(_raw_samples(parts, grid)) > 0  # what the floor removes
    for v in [p.sample(grid).values for p in parts] + [sample_packets(parts, grid).values]:
        a = np.abs(v)
        assert not np.any((a > 0) & (a < FLOOR))
        assert _subnormal_parts(v) == 0


@pytest.mark.parametrize("d", [1, 2])
def test_floor_changes_no_restriction_or_transform_bit(d, monkeypatch):
    """Floor on (cut samples, cut kernels) against floor off (the full
    products, kernels from an uncut K_0): bit-equal restrictions, forward
    and inverse transforms."""
    grid = Grid(d=d)
    rng = np.random.default_rng(70 + d)
    parts = random_packet(rng, d=d, omega_range=(0.0, 1.5))
    cut = sample_packets(parts, grid).values
    full = _raw_samples(parts, grid)
    assert not np.array_equal(cut, full)
    assert np.abs(cut - full).max() < len(parts) * FLOOR  # only sub-floor terms differ

    def run(values):
        sv = restrict_sphere(RadialField(grid, values), SphereMeasure(1.0), L_max=32)
        theta = _forward_samples(grid, values, 32)
        return (sv.theta_plus, sv.theta_minus, theta,
                inverse(SpectralField(grid, theta)).values)

    with_floor = run(cut)
    monkeypatch.setattr(specfun, "_FLOOR", 0.0)
    without_floor = run(full)
    for a, b in zip(with_floor, without_floor):
        assert a.tobytes() == b.tobytes()


def test_nan_propagates_through_the_kernel():
    u = np.array([0.5, np.nan, 2000.0])
    for K in _kernel_diag(np.arange(5), np.stack([u] * 5), 1):  # bands 0..4 at u
        assert np.isnan(K[1]) and np.isfinite(K[[0, 2]]).all()
    table = wigner_radial_table(4, np.array([[1.0], [np.nan]]), np.array([[0.5, 40.0]]))
    assert np.isnan(table[:, 1]).all() and np.isfinite(table[:, 0]).all()
    assert np.isnan(specfun.wigner_radial(3, np.nan, 1.0))


# ---------------------------------------------------------------------------
# The bands the floor cuts are refused
# ---------------------------------------------------------------------------

U_CUT = 1938.0 * np.log(2.0)


def _last_band(d):
    """The largest band accepted past the cut: 4 ell + 2d <= 1140."""
    return (1140 - 2 * d) // 4


def _cut_drop(ell, d):
    """The largest |e^{-u/2} L_ell^{(d-1)}(u)| / mult the cut sets to 0, over
    u in {U_CUT, +5, +20} (past the turning point it falls with u), by
    mpmath at 60 digits."""
    with mpmath.workdps(60):
        uc = 1938 * mpmath.log(2)
        drop = max(abs(mpmath.exp(-u / 2) * mpmath.laguerre(ell, d - 1, u))
                   for u in (uc, uc + 5, uc + 20))
        return float(drop / comb(ell + d - 1, ell))


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_the_band_rule_keeps_only_what_the_cut_drops_below_2e_14(d):
    """Every band the rule accepts past U_CUT loses at most 2e-14 of its
    multiplicity to the cut (the drop grows with ell, so the last band
    bounds it), and the writers draw the line there.  At d = 1 the rule is
    tight: band 284 loses 1.7e-14, band 288 over 4e-13."""
    L = _last_band(d)
    assert specfun._U_CUT == U_CUT
    assert _cut_drop(L, d) <= 2e-14
    if d == 1:
        assert L == 284 and _cut_drop(L + 4, d) > 4e-13
    u = np.array([U_CUT + 1.0])
    specfun._check_cut(L, d, u)
    with pytest.raises(ValueError, match=f"L_max={L + 1} at d={d}"):
        specfun._check_cut(L + 1, d, u)
    specfun._check_cut(L + 1, d, np.array([U_CUT, np.nan]))  # at or below the cut, or NaN


def test_both_writers_refuse_a_band_the_floor_cuts():
    """The table, the per-band rows (row by row), `wigner_radial` and
    `kernel_field` refuse a band past 284 at an argument past the cut, and
    accept band 284 there, or any band below it."""
    rho = np.sqrt(np.array([100.0, 700.0]))  # u = 2 * 1 * rho^2 = 200, 1400
    wigner_radial_table(284, 1.0, rho)
    with pytest.raises(ValueError, match=r"L_max=285 at d=1 reaches u = 2\|lam\| rho\^2 = 1400"):
        wigner_radial_table(285, 1.0, rho)
    wigner_radial_table(400, 1.0, rho[:1])
    ells = np.arange(280, 290)
    u = np.full((10, 3), 200.0)
    u[:5, 2] = 1400.0  # bands 280..284 past the cut: accepted
    _kernel_diag(ells, u, 1)
    u[5, 2] = 1400.0  # band 285 past the cut
    with pytest.raises(ValueError, match="L_max=289"):
        _kernel_diag(ells, u, 1)
    wigner_radial(284, 1.0, rho[1])
    with pytest.raises(ValueError, match="L_max=300"):
        wigner_radial(300, 1.0, rho[1])
    grid = PlanarGrid(half_width=8.0, n=9)  # u = 2 * 6 * 128 = 1536 in the corners
    kernel_field(grid, 284, 6.0)
    with pytest.raises(ValueError, match="L_max=300"):
        kernel_field(grid, 300, 6.0)


def test_g_function_refuses_only_the_bands_the_floor_cuts():
    """g_function's rows are band ell at u = 2 R rho^2 / (2 ell + 1): at
    R rho^2 = 1000 only band 0 passes the cut, which is accepted."""
    g_function(np.sqrt(1000.0), 0.0, L_max=2048)
    with pytest.raises(ValueError, match="past 1343.32"):
        g_function(np.sqrt(4e5), 0.0, L_max=2048)  # band 285 at u = 1401


def test_transform_refuses_a_band_the_floor_cuts_before_any_kernel_block(monkeypatch):
    """On a grid whose 2 |lam|max r_max^2 reaches 5791, band 284 still
    round-trips to 1e-12, and L_max = 400 (which lost 0.23 of band 384
    without a word) is refused by both directions before any kernel block:
    the check covers the radii the blocks' radius cut never builds."""
    grid = Grid(d=1, n_rho=1024, r_max=12.0, n_s=64, s_half=5.0)
    theta = np.zeros((285, grid.n_s), dtype=complex)
    theta[284] = bump(grid.lam, 4.5, 6.0)
    back = forward(inverse(SpectralField(grid, theta)), 284).values
    assert np.abs(back - theta).max() <= 1e-12 * np.abs(theta).max()
    builds = []
    monkeypatch.setattr(transform, "wigner_radial_table",
                        lambda *a: builds.append(1) or wigner_radial_table(*a))
    with pytest.raises(ValueError, match=r"L_max=400 at d=1 reaches u = 2\|lam\| rho\^2 = 5790.5"):
        inverse(SpectralField(grid, np.zeros((401, grid.n_s))))
    with pytest.raises(ValueError, match="L_max=400"):
        forward(RadialField(grid, np.zeros((grid.n_rho, grid.n_s))), 400)
    assert builds == []


@pytest.mark.parametrize("field", ["a", "b", "s0", "omega", "amp"])
def test_nan_propagates_through_the_sampler(field):
    grid = Grid(n_rho=32, n_s=64)
    v = GaussianClosure(**{field: np.nan}).sample(grid).values
    # NaN wherever the omega phase is not exactly 1 (omega s = 0 at s = 0)
    assert np.isnan(v).sum() >= v.size - grid.n_rho
    assert np.isnan(GaussianClosure(**{field: np.nan}).values(11.0, 39.0))


@pytest.mark.parametrize("kw", [dict(amp=1.0), dict(amp=2), dict(amp=0.6 - 0.8j),
                                dict(amp=0.0), dict(a=50.0), dict(b=5.0, amp=1j)])
def test_sampling_emits_no_warning(kw):
    """Real, integer, complex and zero amplitudes, and a radial factor that
    underflows to 0 (a = 50), sample without a numpy warning."""
    grid = Grid(n_rho=64, n_s=128)
    c = GaussianClosure(**kw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = c.sample(grid).values
        w = c.values(grid.rho[:, None], grid.s[None, :])
        sample_packets([c, c], grid)
    assert v.tobytes() == w.tobytes()
    assert _subnormal_parts(v) == 0
