"""Spectral propagators: Schrodinger and wave flows, Duhamel, admissibility gates.

On each spectral ray (ell, lam) the generator acts by the scalar
eigenvalue(ell, lam, d) = 4 |lam| (2 ell + d), so the free Schrodinger flow
is the multiplier exp(i t eig) and the wave flow splits into half-waves
exp(+- i t sqrt(eig)); their division of the velocity by sqrt(eig) refuses
it next to lam = 0 (`transform._refuse_near_lam0`).  A datum carried by a
single band ell at positive lam is transported: u(t)(Y, s) = u0(Y, s + 4 t
(2 ell + d)); negative lam transports the other way.  Every flow takes its
times through `Grid.with_times`, which refuses any that are not finite
before the flow runs.

A flow of a spectrum synthesises all its times in one inverse transform.
The flows of a radial field (`propagate` of a radial file, the `sigma`
suite's samples) run as one pass over the kernel blocks instead
(`transform._multiplier_pass`): per block, analysis, the multiplier and
synthesis, so each kernel table is built once; the pass returns the
forward's spectrum, which these flows drop, and the samples, with the bytes
of forward followed by the spectral flow.  The multipliers
(`_phases`, `_halfwaves`, and `_energy_density` for the wave energy) act on any columns of a spectrum, so both paths call the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import RadialField, SpaceTimeField, _uniform_step, s_translate
from .transform import (SpectralField, _eig_table, _even_in_lam, _inverse_samples,
                        _multiplier_pass, _refuse_near_lam0)

__all__ = [
    "CauchyDataS",
    "CauchyDataW",
    "schrodinger_evolve",
    "wave_evolve",
    "wave_energy_series",
    "transport_reference",
    "duhamel",
    "admissible",
]


@dataclass
class CauchyDataS:
    """Schrodinger initial datum."""

    u0: SpectralField


@dataclass
class CauchyDataW:
    """Wave initial data (position, velocity), on one grid with one band count."""

    u0: SpectralField
    u1: SpectralField

    def __post_init__(self):
        _check_velocity(self.u1, self.u0.grid, self.u0.L_max)


def _check_velocity(u1: SpectralField, grid, L_max: int):
    """Refuse (ValueError) a velocity u1 that cannot be paired with a
    position on grid with L_max + 1 bands."""
    if not u1.grid.compatible(grid):
        raise ValueError("velocity u1 lives on a different grid than position u0")
    if u1.L_max != L_max:
        raise ValueError(f"velocity u1 has L_max={u1.L_max}, position u0 has L_max={L_max}")


def _phases(x, times):
    """exp(i t x) at every time of the array `times`, shape (n_t,) + x.shape,
    built in place: the Schrodinger multiplier at x = eig and the half-wave
    one at x = sqrt(eig), on any columns of the spectrum."""
    e = 1j * times[:, None, None] * x
    np.exp(e, out=e)
    return e


def schrodinger_evolve(data: CauchyDataS, times) -> SpaceTimeField:
    """Free flow u(t) = synthesis(exp(i t eig) theta0), all times in one pass."""
    sf = data.u0
    grid = sf.grid.with_times(times)
    theta = _phases(sf.eig(), grid.t_nodes)
    theta *= sf.values
    return SpaceTimeField(grid, _inverse_samples(sf.grid, theta))


def _schrodinger_of_samples(f: RadialField, L_max: int, times) -> SpaceTimeField:
    """schrodinger_evolve(CauchyDataS(forward(f, L_max)), times), bit for
    bit, in one `transform._multiplier_pass`: each kernel table is built
    once, each |lam| block's phases once (`transform._even_in_lam`), and no
    spectrum of all the times is made."""
    grid = f.grid.with_times(times)
    eig, t = _eig_table(f.grid, L_max), grid.t_nodes
    phases = _even_in_lam(f.grid, lambda sl: _phases(eig[:, sl], t))
    _, u = _multiplier_pass(f, L_max, lambda theta, sl: phases(sl) * theta, t.shape)
    return SpaceTimeField(grid, u)


def _halfwaves(theta0, theta1, omega, e):
    """The half-wave multipliers: exp(+-i t omega) gamma_+- at every time,
    with gamma_+- = (theta0 -+ i theta1 / omega) / 2, from the phases
    e = exp(i t omega) (`_phases`, which this leaves as they are), on any
    columns of the spectra.  Returns (u_+, u_-), each (n_t, L+1, cols)."""
    gp = 0.5 * (theta0 - 1j * theta1 / omega)
    gm = 0.5 * (theta0 + 1j * theta1 / omega)
    up = e * gp
    # exp(-i x) is conj(exp(i x)) bit for bit: cos is even and sin odd
    um = np.conj(e)
    um *= gm
    return up, um


def _halfwave_split(data: CauchyDataW, times):
    """Half-wave spectra exp(+-i t omega) gamma_+- (`_halfwaves`) at every
    time of the array `times` (a grid's t_nodes), with omega = sqrt(eig).

    The division by omega refuses, rather than regularizes, a velocity with
    values next to lam = 0 (`transform._refuse_near_lam0`).  Returns
    (u_+, u_-, omega) with u_+- of shape (n_t, L+1, n_s).
    """
    _refuse_near_lam0(data.u1, "half-wave split of the velocity datum")
    omega = np.sqrt(data.u0.eig())
    return _halfwaves(data.u0.values, data.u1.values, omega, _phases(omega, times)) + (omega,)


def wave_evolve(data: CauchyDataW, times) -> SpaceTimeField:
    """Wave flow from (u0, u1) via the half-wave multipliers exp(+-it sqrt(eig))."""
    grid = data.u0.grid.with_times(times)
    up, um, _ = _halfwave_split(data, grid.t_nodes)
    up += um
    del um
    return SpaceTimeField(grid, _inverse_samples(data.u0.grid, up))


def wave_energy_series(data: CauchyDataW, times) -> np.ndarray:
    """Spectral energy sum_ell mult int (eig |u|^2 + |u_t|^2) |lam|^d dlam per time.

    Conserved exactly by the flow; computed per time from the evolved
    spectrum (not from the invariant form), so drift measures the
    implementation honestly.
    """
    up, um, omega = _halfwave_split(data, data.u0.grid.with_times(times).t_nodes)
    return _wave_energy(data, up, um, omega, up + um)


def _energy_density(up, um, omega, uh, weights):
    """The energy density weights (omega^2 |uh|^2 + |vh|^2) of the half-wave
    spectra up and um, whose sum is uh, on any columns of the spectra, in
    one new float array.

    vh = i omega (up - um), the d/dt of uh, is formed in up, and the square
    of |vh| in the real parts of um: up and um are overwritten.  Every
    product keeps the operand order of the plain expression
    (i omega) (up - um), omega^2 |uh|^2 + |vh|^2 and weights * density, so
    the series keeps its bytes."""
    vh = np.subtract(up, um, out=up)
    np.multiply(1j * omega, vh, out=vh)
    dens = np.abs(uh)
    dens **= 2
    np.multiply(omega**2, dens, out=dens)
    v2 = np.abs(vh, out=um.real)
    v2 **= 2
    dens += v2
    return np.multiply(weights, dens, out=dens)


def _wave_energy(data: CauchyDataW, up, um, omega, uh):
    """The energy series of the half-wave spectra up and um, whose sum is
    uh, from one spectrum-sized float density (`_energy_density`)."""
    return _energy_density(up, um, omega, uh, data.u0.weights()).sum(axis=(-2, -1))


def _wave_evolve_with_energy(data: CauchyDataW, times):
    """(wave_evolve, wave_energy_series) of one datum, bit for bit, from one
    half-wave split.  The energy is summed first, in the half-wave spectra's
    own buffers, and these are freed before the synthesis, so the peak
    memory is that of the synthesis of up + um alone."""
    grid = data.u0.grid.with_times(times)
    up, um, omega = _halfwave_split(data, grid.t_nodes)
    uh = up + um
    energy = _wave_energy(data, up, um, omega, uh)
    del up, um
    return SpaceTimeField(grid, _inverse_samples(data.u0.grid, uh)), energy


def _wave_of_samples(f: RadialField, u1: SpectralField, times):
    """_wave_evolve_with_energy(CauchyDataW(forward(f, u1.L_max), u1),
    times), bit for bit, in one `transform._multiplier_pass`, for a velocity
    u1 that `_check_velocity` pairs with f.  Per kernel block the half-wave
    sum is synthesised and its energy density copied into one
    (n_t, L+1, n_s) float array, which is summed once at the end, as
    `_wave_energy` sums its density; each kernel table is built once, each
    |lam| block's phases once, and no spectrum of all the times is made."""
    grid = f.grid.with_times(times)
    _refuse_near_lam0(u1, "half-wave split of the velocity datum")
    t, omega, weights = grid.t_nodes, np.sqrt(u1.eig()), u1.weights()
    dens = np.zeros(t.shape + u1.values.shape)  # lam = 0 is in no block
    phases = _even_in_lam(f.grid, lambda sl: _phases(omega[:, sl], t))

    def halfwave_sum(theta, sl):
        up, um = _halfwaves(theta, u1.values[:, sl], omega[:, sl], phases(sl))
        uh = up + um
        dens[..., sl] = _energy_density(up, um, omega[:, sl], uh, weights[:, sl])
        return uh

    _, u = _multiplier_pass(f, u1.L_max, halfwave_sum, t.shape)
    return SpaceTimeField(grid, u), dens.sum(axis=(-2, -1))


def transport_reference(u0: RadialField, ell: int, t: float) -> RadialField:
    """Exact flow of a datum on band ell at positive lam: central shift by
    -4 t (2 ell + d)."""
    d = u0.grid.d
    shift = 4.0 * t * (2 * ell + d)
    return s_translate(u0, -shift)


def duhamel(data: CauchyDataS, source, times) -> SpaceTimeField:
    """Inhomogeneous Schrodinger flow u(t) = U(t)u0 - i int_0^t U(t-tau) f(tau) dtau.

    `source` maps a time to a SpectralField.  Uses second-order trapezoid
    stepping with exact inter-step propagators on the uniform `times` ladder:

        theta_{n+1} = e^{i dt eig} theta_n
                      - i (dt/2) (e^{i dt eig} fhat_n + fhat_{n+1}).
    """
    sf = data.u0
    grid = sf.grid.with_times(times)
    times = grid.t_nodes
    dt = _uniform_step(times, "duhamel")
    prop = np.exp(1j * dt * sf.eig())
    theta = np.empty((times.size,) + sf.values.shape, dtype=complex)
    theta[0] = sf.values
    fh_prev = source(times[0]).values
    for n in range(1, times.size):
        fh_next = source(times[n]).values
        theta[n] = prop * theta[n - 1] - 1j * (dt / 2.0) * (prop * fh_prev + fh_next)
        fh_prev = fh_next
    return SpaceTimeField(grid, _inverse_samples(sf.grid, theta))


# ---------------------------------------------------------------------------
# Admissibility gates for spacetime estimates
# ---------------------------------------------------------------------------

def admissible(equation: str, p: float, q: float, d: int) -> bool:
    """Exponent gate for spacetime L^q_t L^p_Y estimates (Q = 2d+2).

    schrodinger: 2 <= p <= q <= inf and 2/q + 2d/p <= Q/2.
    wave:        2 <= p <= q <= inf and 1/q + 2d/p <= Q/2 - 1.
    Boundary pairs are admissible.
    """
    Q = 2 * d + 2
    if not (2 <= p <= q):
        return False
    iq = 0.0 if np.isinf(q) else 1.0 / q
    ip = 0.0 if np.isinf(p) else 1.0 / p
    if equation == "schrodinger":
        return 2 * iq + 2 * d * ip <= Q / 2 + 1e-12
    if equation == "wave":
        return iq + 2 * d * ip <= Q / 2 - 1 + 1e-12
    raise ValueError(f"unknown equation {equation!r}")
