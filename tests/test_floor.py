"""The normal-range floor of the Gaussian tails, `specfun._FLOOR` = 2^-969.

The kernels and the closure samples hold no value below it but exact 0, so
no gemm, FFT or recurrence downstream runs on a subnormal float; the cut
changes no bit of a restriction or a transform, and NaN still propagates.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from hharm import restriction, specfun
from hharm.fields import GaussianClosure, Grid, RadialField, random_packet, sample_packets
from hharm.restriction import SphereMeasure, restrict_sphere
from hharm.specfun import kernel_rows, wigner_radial_table
from hharm.transform import _forward_samples, _inverse_samples

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
    for K in kernel_rows(8, u, d):
        a = np.abs(K)
        assert not np.any((a > 0) & (a < FLOOR))
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
    parts = random_packet(np.random.default_rng(60 + d), d=d, n_terms=3)
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
        restriction._ray_table.cache_clear()
        sv = restrict_sphere(RadialField(grid, values), SphereMeasure(1.0), L_max=32)
        theta = _forward_samples(grid, values, 32)
        return sv.theta_plus, sv.theta_minus, theta, _inverse_samples(grid, theta)

    with_floor = run(cut)
    monkeypatch.setattr(specfun, "_FLOOR", 0.0)
    without_floor = run(full)
    restriction._ray_table.cache_clear()
    for a, b in zip(with_floor, without_floor):
        assert a.tobytes() == b.tobytes()


def test_nan_propagates_through_the_kernel():
    u = np.array([0.5, np.nan, 2000.0])
    for K in kernel_rows(4, u, 1):
        assert np.isnan(K[1]) and np.isfinite(K[[0, 2]]).all()
    table = wigner_radial_table(4, np.array([[1.0], [np.nan]]), np.array([[0.5, 40.0]]))
    assert np.isnan(table[:, 1]).all() and np.isfinite(table[:, 0]).all()
    assert np.isnan(specfun.wigner_radial(3, np.nan, 1.0))


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
