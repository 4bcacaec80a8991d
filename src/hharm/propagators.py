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

Every flow synthesises all its times in one pass over the kernel blocks
(`transform._multiplier_pass`): per block, the multiplier and the
synthesis, so each kernel table is built once and no spectrum of all the
times is made.  `_schrodinger` and `_wave` take a spectrum or a radial
field (`propagate` of a radial file, the `sigma` suite's samples), which
the pass analyses per block with the bytes of `forward`.  The phases are
evaluated once per |lam| block (`transform._even_in_lam`).  The
multipliers (`_phases`, `_halfwaves`, and `_energy_density` for the wave
energy) act on any columns of a spectrum, so `wave_energy_series`, which
synthesises nothing, calls the same code on the whole spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import ELL_MAX, RadialField, SpaceTimeField, _check_int, _uniform_step, s_translate
from .transform import (SpectralField, _check_spectrum, _eig_table, _even_in_lam,
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
    """Schrodinger initial datum, a spectrum (TypeError otherwise)."""

    u0: SpectralField

    def __post_init__(self):
        _check_spectrum(self.u0, "datum u0")


@dataclass
class CauchyDataW:
    """Wave initial data (position, velocity), on one grid with one band count."""

    u0: SpectralField
    u1: SpectralField

    def __post_init__(self):
        _check_spectrum(self.u0, "position u0")
        _check_paired(self.u1, self.u0.grid, self.u0.L_max)


def _check_paired(u, grid, L_max: int, name="velocity u1", partner="position u0"):
    """Refuse a spectrum u, called `name` in the message, that cannot be
    paired with `partner`, a field on grid with L_max + 1 bands: TypeError
    if u is not a SpectralField, ValueError if it lives on another grid or
    has another band count.  The one pairing rule of a wave velocity and of
    each source spectrum of `duhamel`."""
    _check_spectrum(u, name)
    if not u.grid.compatible(grid):
        raise ValueError(f"{name} lives on a different grid than {partner}")
    if u.L_max != L_max:
        raise ValueError(f"{name} has L_max={u.L_max}, {partner} has L_max={L_max}")


def _phases(x, times):
    """exp(i t x) at every time of the array `times`, shape (n_t,) + x.shape,
    built in place: the Schrodinger multiplier at x = eig and the half-wave
    one at x = sqrt(eig), on any columns of the spectrum."""
    e = 1j * times[:, None, None] * x
    np.exp(e, out=e)
    return e


def schrodinger_evolve(data: CauchyDataS, times) -> SpaceTimeField:
    """Free flow u(t) = synthesis(exp(i t eig) theta0), all times in one pass."""
    return _schrodinger(data.u0, data.u0.L_max, times)


def _schrodinger(u0, L_max: int, times) -> SpaceTimeField:
    """The free flow of u0, a spectrum with L_max + 1 bands or a radial
    field (then, bit for bit, the flow of forward(u0, L_max)), in one
    `transform._multiplier_pass`; each |lam| block's phases are evaluated
    once (`transform._even_in_lam`)."""
    grid = u0.grid.with_times(times)
    eig, t = _eig_table(u0.grid, L_max), grid.t_nodes
    phases = _even_in_lam(u0.grid, lambda sl: _phases(eig[:, sl], t))
    _, u = _multiplier_pass(u0, L_max, lambda theta, sl: phases(sl) * theta, t.shape)
    return SpaceTimeField(grid, u)


def _omega(u1: SpectralField):
    """sqrt(eig) on the bands of the velocity u1, the half-waves'
    frequency; the division by it refuses, rather than regularizes, a
    velocity with values next to lam = 0 (`transform._refuse_near_lam0`)."""
    _refuse_near_lam0(u1, "half-wave split of the velocity datum")
    return np.sqrt(u1.eig())


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


def wave_evolve(data: CauchyDataW, times) -> SpaceTimeField:
    """Wave flow from (u0, u1) via the half-wave multipliers exp(+-it sqrt(eig))."""
    return _wave(data.u0, data.u1, times)[0]


def wave_energy_series(data: CauchyDataW, times) -> np.ndarray:
    """Spectral energy sum_ell mult int (eig |u|^2 + |u_t|^2) |lam|^d dlam per time.

    Conserved exactly by the flow; computed per time from the evolved
    spectrum (not from the invariant form), so drift measures the
    implementation honestly.  The half-wave spectra of all the times and one
    float density of them (`_energy_density`) are the spectrum-sized arrays
    it makes.
    """
    t = data.u0.grid.with_times(times).t_nodes
    omega = _omega(data.u1)
    up, um = _halfwaves(data.u0.values, data.u1.values, omega, _phases(omega, t))
    return _energy_density(up, um, omega, up + um, data.u0.weights()).sum(axis=(-2, -1))


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


def _wave(u0, u1: SpectralField, times):
    """(wave_evolve, wave_energy_series) of the position u0, a spectrum or a
    radial field (forwarded at u1's band count), and a velocity spectrum u1
    that `_check_paired` pairs with it, bit for bit, in one
    `transform._multiplier_pass`.  Per kernel block the half-wave sum is
    synthesised and its energy density copied into one (n_t, L+1, n_s)
    float array, which is summed once at the end, as `wave_energy_series`
    sums its density; each |lam| block's phases are evaluated once."""
    grid = u0.grid.with_times(times)
    t, omega, weights = grid.t_nodes, _omega(u1), u1.weights()
    dens = np.zeros(t.shape + u1.values.shape)  # lam = 0 is in no block
    phases = _even_in_lam(u0.grid, lambda sl: _phases(omega[:, sl], t))

    def halfwave_sum(theta, sl):
        up, um = _halfwaves(theta, u1.values[:, sl], omega[:, sl], phases(sl))
        uh = up + um
        dens[..., sl] = _energy_density(up, um, omega[:, sl], uh, weights[:, sl])
        return uh

    _, u = _multiplier_pass(u0, u1.L_max, halfwave_sum, t.shape)
    return SpaceTimeField(grid, u), dens.sum(axis=(-2, -1))


def transport_reference(u0: RadialField, ell: int, t: float) -> RadialField:
    """Exact flow of a datum on band ell at positive lam: central shift by
    -4 t (2 ell + d).  An ell that is not an int in [0, ELL_MAX] is refused
    (ValueError), as `--transport-ell` refuses it."""
    _check_int("ell", ell, 0, ELL_MAX)
    d = u0.grid.d
    shift = 4.0 * t * (2 * ell + d)
    return s_translate(u0, -shift)


def duhamel(data: CauchyDataS, source, times) -> SpaceTimeField:
    """Inhomogeneous Schrodinger flow u(t) = U(t)u0 - i int_0^t U(t-tau) f(tau) dtau.

    `source` maps a time to a SpectralField, which must pair with the datum
    (`_check_paired`: same grid, same band count) before anything is
    synthesised.  Uses second-order trapezoid stepping with exact
    inter-step propagators on the uniform `times` ladder:

        theta_{n+1} = e^{i dt eig} theta_n
                      - i (dt/2) (e^{i dt eig} fhat_n + fhat_{n+1}),

    and synthesises the stack of theta_n in one `transform._multiplier_pass`
    whose multiplier reads a block's columns of it.
    """
    sf = data.u0
    grid = sf.grid.with_times(times)
    times = grid.t_nodes
    dt = _uniform_step(times, "duhamel")

    def fhat(t):
        f = source(t)
        _check_paired(f, sf.grid, sf.L_max, f"source at t={float(t)!r}", "datum u0")
        return f.values

    prop = np.exp(1j * dt * sf.eig())
    theta = np.empty((times.size,) + sf.values.shape, dtype=complex)
    theta[0] = sf.values
    fh_prev = fhat(times[0])
    for n in range(1, times.size):
        fh_next = fhat(times[n])
        theta[n] = prop * theta[n - 1] - 1j * (dt / 2.0) * (prop * fh_prev + fh_next)
        fh_prev = fh_next
    _, u = _multiplier_pass(sf, sf.L_max, lambda _, sl: theta[..., sl], times.shape)
    return SpaceTimeField(grid, u)


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
