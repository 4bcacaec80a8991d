"""The spectral, sphere and paraboloid measures against references built
here from their definitions: math.comb for the multiplicity and
dlam |lam|^d on the lattice lam_k = pi k / s_half."""

from __future__ import annotations

from math import comb

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hharm.fields import Grid
from hharm.propagators import CauchyDataW, wave_energy_series
from hharm.restriction import (
    SigmaMeasure,
    SigmaValues,
    SphereMeasure,
    SphereValues,
    sigma_norm_sq,
    sphere_norm_sq,
)
from hharm.transform import SpectralField, plancherel_constant, sobolev_norm, spectral_inner

REL = 1e-12


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _mult(L_max, d):
    return np.array([comb(l + d - 1, l) for l in range(L_max + 1)], dtype=float)


def _close(got, want, scale):
    return abs(got - want) <= REL * scale


@settings(max_examples=60)
@given(
    d=st.integers(1, 3),
    half_n_s=st.integers(2, 32),
    L_max=st.integers(0, 12),
    s_half=st.floats(1.0, 100.0),
    sigma=st.floats(0.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_measure_property(d, half_n_s, L_max, s_half, sigma, seed):
    """spectral_inner, sobolev_norm, the Plancherel form of the sigma = 0
    norm, and the wave energy at t = 0 all weigh (ell, lam) by
    mult_ell dlam |lam|^d, which is 0 at lam = 0."""
    rng = np.random.default_rng(seed)
    n_s = 2 * half_n_s
    grid = Grid(d=d, n_rho=4, n_s=n_s, s_half=s_half)
    lam = np.pi * (np.arange(n_s) - half_n_s) / s_half
    w = _mult(L_max, d)[:, None] * (np.pi / s_half) * np.abs(lam[None, :]) ** d
    eig = 4.0 * np.abs(lam[None, :]) * (2.0 * np.arange(L_max + 1)[:, None] + d)
    a, b = _cplx(rng, L_max + 1, n_s), _cplx(rng, L_max + 1, n_s)
    b[:, half_n_s - 1:half_n_s + 2] = 0.0  # the wave velocity avoids lam = 0
    sf, sg = SpectralField(grid, a), SpectralField(grid, b)
    a[:, half_n_s] = 0.0

    got = spectral_inner(sf, sg)
    assert _close(got, np.sum(w * a * np.conj(b)), np.sum(w * np.abs(a * b)))

    const = np.pi ** (d + 1) / 2.0 ** (d - 1)
    dens = w * np.abs(a) ** 2
    safe = np.where(eig > 0, eig, 1.0)
    want = np.sqrt(np.sum(dens * safe**sigma) / const)
    assert _close(sobolev_norm(sf, sigma), want, want)

    energy = spectral_inner(sf, sf).real
    assert _close(sobolev_norm(sf, 0.0) ** 2 * plancherel_constant(d), energy, energy)

    E0 = wave_energy_series(CauchyDataW(sf, sg), [0.0])
    want = np.sum(w * (eig * np.abs(a) ** 2 + np.abs(b) ** 2))
    assert E0.shape == (1,)
    assert _close(E0[0], want, want)


@settings(max_examples=60)
@given(
    d=st.integers(1, 3),
    L_max=st.integers(0, 12),
    radius=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sphere_measure_property(d, L_max, radius, seed):
    """sphere_norm_sq weighs band ell by mult_ell R^d (2 ell + d)^{-(d+1)}."""
    rng = np.random.default_rng(seed)
    tp, tm = _cplx(rng, L_max + 1), _cplx(rng, L_max + 1)
    ells = np.arange(L_max + 1)
    w = _mult(L_max, d) * radius**d / (2.0 * ells + d) ** (d + 1)
    want = np.sum(w * (np.abs(tp) ** 2 + np.abs(tm) ** 2))
    got = sphere_norm_sq(SphereValues(SphereMeasure(radius), d, tp, tm))
    assert _close(got, want, want)


@settings(max_examples=60)
@given(
    d=st.integers(1, 3),
    L_max=st.integers(0, 12),
    n_alpha=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_sigma_measure_property(d, L_max, n_alpha, seed):
    """sigma_norm_sq weighs the ray pair (alpha_q, ell) by
    dalpha_q alpha_q^d psi(alpha_q) mult_ell c_ell^{d+1}, c_ell = 1/(4(2 ell + d))."""
    rng = np.random.default_rng(seed)
    measure = SigmaMeasure()
    alpha = np.sort(rng.uniform(0.0, 1.0, n_alpha))
    dalpha = rng.uniform(0.01, 0.5, n_alpha)
    tp, tm = _cplx(rng, n_alpha, L_max + 1), _cplx(rng, n_alpha, L_max + 1)
    c = 1.0 / (4.0 * (2.0 * np.arange(L_max + 1) + d))
    w = ((dalpha * alpha**d * measure.window(alpha))[:, None]
         * (_mult(L_max, d) * c ** (d + 1))[None, :])
    want = np.sum(w * (np.abs(tp) ** 2 + np.abs(tm) ** 2))
    got = sigma_norm_sq(SigmaValues(measure, d, alpha, dalpha, tp, tm))
    assert _close(got, want, want)
