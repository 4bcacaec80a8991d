"""Spectral propagators: Schrodinger and wave flows, Duhamel, decay probes.

On each spectral ray (ell, lam) the generator acts by the scalar
eigenvalue(ell, lam, d) = 4 |lam| (2 ell + d), so the free Schrodinger flow
is the multiplier exp(i t eig) and the wave flow splits into half-waves
exp(+- i t sqrt(eig)).  A datum carried by a single band ell at positive lam
is transported: u(t)(Y, s) = u0(Y, s + 4 t (2 ell + d)); negative lam
transports the other way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_legendre

from .fields import Grid, RadialField, SpaceTimeField, s_translate
from .specfun import wigner_radial
from .transform import SpectralField, _inverse_samples, inverse
from .windows import bump

__all__ = [
    "CauchyDataS",
    "CauchyDataW",
    "schrodinger_evolve",
    "wave_evolve",
    "wave_energy_series",
    "transport_reference",
    "duhamel",
    "admissible",
    "wave_decay_probe",
    "schrodinger_decay_probe",
]


@dataclass
class CauchyDataS:
    """Schrodinger initial datum."""

    u0: SpectralField


@dataclass
class CauchyDataW:
    """Wave initial data (position, velocity)."""

    u0: SpectralField
    u1: SpectralField


def schrodinger_evolve(data: CauchyDataS, times) -> SpaceTimeField:
    """Free flow u(t) = synthesis(exp(i t eig) theta0), all times in one pass."""
    sf = data.u0
    times = np.asarray(times, dtype=float)
    theta = np.exp(1j * times[:, None, None] * sf.eig()) * sf.values
    return SpaceTimeField(sf.grid.with_times(times), _inverse_samples(sf.grid, theta))


def _halfwave_split(data: CauchyDataW, times):
    """Half-wave spectra exp(+-i t omega) gamma_+- at every time, with
    omega = sqrt(eig) and gamma_+- = (theta0 -+ i theta1 / omega) / 2.

    The split divides by omega, which is smallest next to the excluded
    lam = 0 column, so velocity mass above 1e-12 (relative) in the bins
    adjacent to lam = 0 is refused rather than regularized.  Returns
    (u_+, u_-, omega) with u_+- of shape (n_t, L+1, n_s).
    """
    grid = data.u0.grid
    th1 = data.u1.values
    near = np.abs(th1[:, grid.izero - 1:grid.izero + 2])
    ells, ks = np.nonzero(near > 1e-12 * np.abs(th1).max())
    if ells.size:
        bins = ", ".join(f"ell={l} lambda={grid.lam[grid.izero - 1 + k]:+.6g}"
                         for l, k in zip(ells[:8], ks[:8]))
        more = f" and {ells.size - 8} more" if ells.size > 8 else ""
        raise ValueError(
            "half-wave split: velocity datum carries spectral mass next to the "
            f"lambda = 0 line ({bins}{more}); dividing by sqrt(eigenvalue) is "
            "ill-conditioned there, so it is refused (localize away from lambda = 0)"
        )
    omega = np.sqrt(data.u0.eig())
    gp = 0.5 * (data.u0.values - 1j * th1 / omega)
    gm = 0.5 * (data.u0.values + 1j * th1 / omega)
    t = np.asarray(times, dtype=float)[:, None, None]
    return np.exp(1j * t * omega) * gp, np.exp(-1j * t * omega) * gm, omega


def wave_evolve(data: CauchyDataW, times) -> SpaceTimeField:
    """Wave flow from (u0, u1) via the half-wave multipliers exp(+-it sqrt(eig))."""
    times = np.asarray(times, dtype=float)
    up, um, _ = _halfwave_split(data, times)
    grid = data.u0.grid
    return SpaceTimeField(grid.with_times(times), _inverse_samples(grid, up + um))


def wave_energy_series(data: CauchyDataW, times) -> np.ndarray:
    """Spectral energy sum_ell mult int (eig |u|^2 + |u_t|^2) |lam|^d dlam per time.

    Conserved exactly by the flow; computed per time from the evolved
    spectrum (not from the invariant form), so drift measures the
    implementation honestly.
    """
    up, um, omega = _halfwave_split(data, times)
    uh = up + um
    vh = 1j * omega * (up - um)  # d/dt of the spectrum
    dens = omega**2 * np.abs(uh) ** 2 + np.abs(vh) ** 2
    return (data.u0.weights() * dens).sum(axis=(-2, -1))


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
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValueError("duhamel needs a ladder of at least two times")
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt, rtol=0, atol=1e-12 * abs(dt)):
        raise ValueError("duhamel needs a uniform time ladder")
    sf = data.u0
    prop = np.exp(1j * dt * sf.eig())
    theta = np.empty((times.size,) + sf.values.shape, dtype=complex)
    theta[0] = sf.values
    fh_prev = source(times[0]).values
    for n in range(1, times.size):
        fh_next = source(times[n]).values
        theta[n] = prop * theta[n - 1] - 1j * (dt / 2.0) * (prop * fh_prev + fh_next)
        fh_prev = fh_next
    return SpaceTimeField(sf.grid.with_times(times), _inverse_samples(sf.grid, theta))


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


# ---------------------------------------------------------------------------
# Dispersive decay probes
# ---------------------------------------------------------------------------

# s-rows per block of the decay probe: its offset table and each block's field
# are (512, n_quad) and (512, 4), whatever the length of the s-window
_S_BLOCK = 512


def wave_decay_probe(d: int = 1, times=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
                     n_quad: int = 3200) -> dict:
    """Sup-norm decay of a positive half-wave packet, fitted in log-log.

    The packet sits on band ell = 0 with the smooth spectral weight
    g(lam) = exp(-lam / freq_scale), freq_scale = 16, i.e. concentrated
    around eigenvalue ~ 4 * freq_scale * d.  Putting the data at a high
    frequency scale matters: the sup norm is flat until the group-velocity
    spread has dispersed the initial profile, and at this scale that onset
    sits below t = 1, so the whole fit window shows the stationary-phase
    rate t^{-1/2} (d = 1).  The field is synthesized by direct oscillatory
    quadrature on an s-window that follows the slowest/fastest rays
    s ~ -t sqrt(m / lam), so no grid truncation can fake decay.

    The window is cut into blocks of 512 s-rows, so memory stays bounded
    however long it grows with t.  `np.arange` fills s[k] = s[0] + k ds with
    ds = s[1] - s[0], exactly, so row lo + j has the phase
    e^{i s[lo] lam} e^{i j ds lam}: one offset table e^{i j ds lam}
    (512 x n_quad) per time serves every block, and a block is one matrix
    product of that table with the (n_quad, n_rho) factor that carries the
    block's start phase, the half-wave phase e^{2 i t sqrt(lam m)} and the
    quadrature weight.  The sup over s-blocks is an np.max, so a NaN block
    propagates.
    """
    ell, freq_scale = 0, 16.0
    m = 2 * ell + d
    lam_hi = 14.0 * freq_scale  # weight below e^{-14} past here
    xq, wq = roots_legendre(n_quad)
    lam = lam_hi * (xq + 1) / 2
    wl = lam_hi / 2 * wq
    g = np.exp(-lam / freq_scale)
    const = 2.0 ** (d - 1) / np.pi ** (d + 1)
    rhos = np.array([0.0, 0.5, 1.0, 2.0])
    K = wigner_radial(ell, lam[:, None], rhos, d)  # (nq, n_rho)
    weight = g * wl * lam**d
    sups = []
    for t in times:
        s = np.arange(-0.8 * np.sqrt(m) * t - 30.0, 30.0, 0.02)
        ds = s[1] - s[0]
        offsets = ds * np.arange(min(_S_BLOCK, s.size))
        # (block, nq), exponentiated in place: one 26 MB complex table at the
        # default sizes instead of two while it is built
        table = 1j * np.outer(offsets, lam)
        np.exp(table, out=table)
        halfwave = 2.0 * t * np.sqrt(lam * m)
        block_sups = []
        for lo in range(0, s.size, _S_BLOCK):
            v = np.exp(1j * (s[lo] * lam + halfwave)) * weight
            field = const * (table[:s.size - lo] @ (v[:, None] * K))  # (block, n_rho)
            block_sups.append(np.abs(field).max())
        sups.append(np.max(block_sups))
    times = np.asarray(times, dtype=float)
    sups = np.asarray(sups)
    slope = np.polyfit(np.log(times), np.log(sups), 1)[0]
    return {"times": times, "sup_norms": sups, "fitted_exponent": float(slope)}


def schrodinger_decay_probe() -> dict:
    """Sup-norm along the free Schrodinger flow of a single-band datum.

    The datum sits on band ell = 1 of the default grid.  The flow transports
    the profile, so the sup norm is exactly flat; the six times t_unit 2^k
    are chosen so the central shift 4 t (2 ell + d) is a whole number of
    grid steps and the invariance is exact rather than sampled.
    """
    grid = Grid()
    d, ell, L_max, n_steps = grid.d, 1, 8, 6
    theta = np.zeros((L_max + 1, grid.n_s), dtype=complex)
    theta[ell] = bump(grid.lam, 0.5, 2.0)
    sf = SpectralField(grid, theta)
    u0 = inverse(sf)
    speed = 4.0 * (2 * ell + d)
    t_unit = grid.h_s / speed  # shift of exactly one s-cell
    times = np.array([0.0] + [t_unit * 2**k for k in range(n_steps)])
    st = schrodinger_evolve(CauchyDataS(sf), times)
    sups = np.abs(st.values).max(axis=(1, 2))
    ref = np.abs(u0.values).max()
    slope = np.polyfit(np.log(times[1:]), np.log(sups[1:]), 1)[0]
    return {
        "times": times,
        "sup_norms": sups,
        "fitted_exponent": float(slope),
        "max_rel_drift": float(np.abs(sups / ref - 1.0).max()),
    }
