"""Spectral propagators: unitarity, transport, half-waves, Duhamel stepping,
admissibility gates, and the decay probes of `hharm.verify`."""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from scipy.special import roots_legendre

from hharm import propagators, verify
from hharm.fields import Grid, RadialField, l2_norm
from hharm.propagators import (
    CauchyDataS,
    CauchyDataW,
    admissible,
    duhamel,
    schrodinger_evolve,
    transport_reference,
    wave_energy_series,
    wave_evolve,
)
from hharm.specfun import wigner_radial
from hharm.transform import SpectralField, forward, inverse
from hharm.verify import schrodinger_decay_probe, wave_decay_probe
from hharm.windows import bump

G = Grid(d=1, n_rho=128, r_max=12.0, n_s=256, s_half=40.0)


def banded_spectrum(grid=G, L_max=6, seed=0, lo=0.5, hi=2.0, positive=False):
    rng = np.random.default_rng(seed)
    lam = grid.lam if positive else np.abs(grid.lam)
    prof = bump(lam, lo, hi)
    theta = prof[None, :] * (
        rng.standard_normal((L_max + 1, grid.n_s))
        + 1j * rng.standard_normal((L_max + 1, grid.n_s))
    )
    return SpectralField(grid, theta)


def test_schrodinger_unitarity():
    sf = banded_spectrum()
    times = np.linspace(0.0, 3.0, 9)
    u = schrodinger_evolve(CauchyDataS(sf), times)
    norms = l2_norm(u)
    assert np.max(np.abs(norms / norms[0] - 1.0)) < 1e-12


@pytest.mark.parametrize("ell", [0, 1, 2])
def test_transport_shift(ell):
    """A single positive-frequency band moves rigidly: the free flow equals a
    central translation by 4 t (2 ell + d)."""
    theta = np.zeros((ell + 1, G.n_s), dtype=complex)
    theta[ell] = bump(G.lam, 0.5, 2.0)  # positive lam only
    sf = SpectralField(G, theta)
    u0 = inverse(sf)
    for t in (0.2374, 16 * G.h_s / (4 * (2 * ell + 1))):
        ut = RadialField(G, schrodinger_evolve(CauchyDataS(sf), [t]).values[0])
        ref = transport_reference(u0, ell, t)
        err = l2_norm(RadialField(G, ut.values - ref.values)) / l2_norm(ref)
        assert err < 1e-8


def test_wave_energy_conserved():
    g0 = banded_spectrum(seed=1)
    g1 = banded_spectrum(seed=2)
    data = CauchyDataW(g0, g1)
    times = np.linspace(0.0, 4.0, 17)
    E = wave_energy_series(data, times)
    assert np.max(np.abs(E / E[0] - 1.0)) < 1e-12


def test_wave_zero_velocity_is_cosine_flow():
    g0 = banded_spectrum(seed=3)
    zero = SpectralField(G, np.zeros_like(g0.values))
    u = wave_evolve(CauchyDataW(g0, zero), [0.7])
    # gamma_pm = theta0 / 2: evolution is the cosine multiplier
    eig = g0.eig()
    ref = inverse(SpectralField(G, np.cos(0.7 * np.sqrt(eig)) * g0.values))
    err = np.max(np.abs(u.values[0] - ref.values))
    assert err < 1e-12 * np.max(np.abs(ref.values))


def test_halfwave_split_refuses_null_ray_mass():
    """Velocity mass on the rays next to lam = 0, where sqrt(eig) is smallest,
    is refused, and the message names the offending bins."""
    g0 = banded_spectrum(seed=4)
    th1 = banded_spectrum(seed=5).values
    th1[2, G.izero + 1] = 1.0
    g1 = SpectralField(G, th1)
    for flow in (wave_evolve, wave_energy_series):
        with pytest.raises(ValueError, match="refused") as exc:
            flow(CauchyDataW(g0, g1), [0.1])
        assert f"ell=2 lambda={G.lam[G.izero + 1]:+.6g}" in str(exc.value)


def test_wave_data_refuse_a_velocity_they_cannot_pair():
    """A velocity on another grid used to run silently; one with another
    band count ended in a numpy broadcast error."""
    g0 = banded_spectrum(seed=6)
    other = Grid(d=1, n_rho=128, r_max=12.0, n_s=256, s_half=20.0)
    with pytest.raises(ValueError, match="different grid"):
        CauchyDataW(g0, banded_spectrum(grid=other, seed=7))
    with pytest.raises(ValueError, match="u1 has L_max=4, position u0 has L_max=6"):
        CauchyDataW(g0, banded_spectrum(L_max=4, seed=7))
    CauchyDataW(g0, banded_spectrum(grid=G.with_times(None), seed=7))  # a compatible copy


def test_wave_t0_recovers_datum():
    g0 = banded_spectrum(seed=6)
    g1 = banded_spectrum(seed=7)
    u = wave_evolve(CauchyDataW(g0, g1), [0.0])
    ref = inverse(g0)
    assert np.max(np.abs(u.values[0] - ref.values)) < 1e-12


def test_duhamel_manufactured_solution_order():
    """u_hat(t) = a(t) w_hat with the matching source has trapezoid error
    O(dt^2); halving the step should show order >= 1.9."""
    g = Grid(d=1, n_rho=96, r_max=12.0, n_s=256, s_half=40.0)
    w = banded_spectrum(g, L_max=4, seed=8)
    eig = w.eig()

    def a(t):
        return np.cos(2.0 * t) * np.exp(-t / 3.0)

    def aprime(t):
        return -2.0 * np.sin(2.0 * t) * np.exp(-t / 3.0) - a(t) / 3.0

    def source(t):
        return SpectralField(g, (eig * a(t) + 1j * aprime(t)) * w.values)

    T = 0.4
    errs = []
    for n in (8, 16):
        times = np.linspace(0.0, T, n + 1)
        u = duhamel(CauchyDataS(w), source, times)
        ref = inverse(SpectralField(g, a(T) * w.values))
        errs.append(
            l2_norm(RadialField(g, u.values[-1] - ref.values)) / l2_norm(ref)
        )
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


def test_duhamel_rejects_nonuniform_ladder():
    w = banded_spectrum(L_max=2, seed=9)
    with pytest.raises(ValueError, match="uniform"):
        duhamel(CauchyDataS(w), lambda t: w, np.array([0.0, 0.1, 0.3]))


@pytest.mark.parametrize("times", [[0.0], []])
def test_duhamel_rejects_short_ladder(times):
    w = banded_spectrum(L_max=2, seed=9)
    with pytest.raises(ValueError, match="two time nodes"):
        duhamel(CauchyDataS(w), lambda t: w, np.array(times))


@pytest.mark.parametrize("times", [[np.nan, 0.1], [0.0, np.inf]])
@pytest.mark.parametrize("flow", [
    lambda w, t: schrodinger_evolve(CauchyDataS(w), t),
    lambda w, t: wave_evolve(CauchyDataW(w, w), t),
    lambda w, t: propagators._wave_evolve_with_energy(CauchyDataW(w, w), t),
    lambda w, t: wave_energy_series(CauchyDataW(w, w), t),
    lambda w, t: duhamel(CauchyDataS(w), lambda tau: w, t),
], ids=["schrodinger_evolve", "wave_evolve", "wave_with_energy", "wave_energy_series",
        "duhamel"])
def test_evolutions_refuse_non_finite_times_before_synthesis(monkeypatch, flow, times):
    """The evolutions returned non-finite fields with no error; they now take
    their times through `Grid.with_times`, which refuses them first."""
    def no_synthesis(*args):
        raise AssertionError("synthesized at a non-finite time")

    monkeypatch.setattr(propagators, "_inverse_samples", no_synthesis)
    w = banded_spectrum(L_max=2, seed=9, positive=True)
    with pytest.raises(ValueError, match="t_nodes must be a 1-D array of finite times"):
        flow(w, np.array(times))


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_transport_reference_refuses_a_non_finite_time(t):
    u0 = inverse(banded_spectrum(L_max=2, seed=9))
    with pytest.raises(ValueError, match="shift s0 must be finite"):
        transport_reference(u0, 1, t)


# Every evolution synthesises all of its times in one pass; the result must be
# bit-equal to synthesising each time on its own.
SMALL_G = Grid(d=1, n_rho=32, r_max=12.0, n_s=64, s_half=40.0)


def _per_time(grid, spectra):
    return np.stack([inverse(SpectralField(grid, th)).values for th in spectra])


@pytest.mark.parametrize("times", [[0.3], np.linspace(0.0, 2.0, 5)])
def test_schrodinger_evolve_equals_per_time_inverse(times):
    sf = banded_spectrum(SMALL_G, L_max=3, seed=11)
    eig = sf.eig()
    ref = _per_time(SMALL_G, [np.exp(1j * t * eig) * sf.values for t in times])
    assert np.array_equal(schrodinger_evolve(CauchyDataS(sf), times).values, ref)


@pytest.mark.parametrize("times", [[0.3], np.linspace(0.0, 2.0, 5)])
def test_wave_evolve_equals_per_time_inverse(times):
    g0 = banded_spectrum(SMALL_G, L_max=3, seed=12)
    g1 = banded_spectrum(SMALL_G, L_max=3, seed=13)
    omega = np.sqrt(g0.eig())
    gp = 0.5 * (g0.values - 1j * g1.values / omega)
    gm = 0.5 * (g0.values + 1j * g1.values / omega)
    ref = _per_time(SMALL_G, [np.exp(1j * t * omega) * gp + np.exp(-1j * t * omega) * gm
                              for t in times])
    assert np.array_equal(wave_evolve(CauchyDataW(g0, g1), times).values, ref)


def test_wave_evolve_with_energy_is_the_public_pair_from_one_split(monkeypatch):
    """The CLI's one-split helper returns wave_evolve and wave_energy_series
    bit for bit, and runs the half-wave split once."""
    data = CauchyDataW(banded_spectrum(SMALL_G, L_max=3, seed=15),
                       banded_spectrum(SMALL_G, L_max=3, seed=16))
    times = np.linspace(0.0, 1.5, 4)
    st_ref = wave_evolve(data, times)
    energy_ref = wave_energy_series(data, times)
    calls = []
    split = propagators._halfwave_split
    monkeypatch.setattr(propagators, "_halfwave_split",
                        lambda *a: calls.append(1) or split(*a))
    st, energy = propagators._wave_evolve_with_energy(data, times)
    assert len(calls) == 1
    assert st.values.tobytes() == st_ref.values.tobytes()
    assert np.array_equal(st.grid.t_nodes, st_ref.grid.t_nodes)
    assert energy.tobytes() == energy_ref.tobytes()


def test_duhamel_equals_per_time_inverse():
    w = banded_spectrum(SMALL_G, L_max=3, seed=14)
    f = banded_spectrum(SMALL_G, L_max=3, seed=15)
    times = np.linspace(0.0, 0.4, 5)
    prop = np.exp(1j * 0.1 * w.eig())
    thetas = [w.values]
    for t0, t1 in zip(times[:-1], times[1:]):
        step = prop * (np.cos(t0) * f.values) + np.cos(t1) * f.values
        thetas.append(prop * thetas[-1] - 1j * (0.1 / 2.0) * step)
    u = duhamel(CauchyDataS(w), lambda t: SpectralField(SMALL_G, np.cos(t) * f.values),
                times)
    assert np.array_equal(u.values, _per_time(SMALL_G, thetas))


def test_schrodinger_evolve_keeps_the_synthesis_buffer(monkeypatch):
    """The evolved field stores the one buffer the inverse FFT wrote in
    place, not a copy."""
    made = []
    ifft = np.fft.ifft

    def recording(a, *args, **kw):
        made.append((a, kw.get("out")))
        return ifft(a, *args, **kw)

    monkeypatch.setattr(np.fft, "ifft", recording)
    sf = banded_spectrum(SMALL_G, L_max=3, seed=11)
    u = schrodinger_evolve(CauchyDataS(sf), np.linspace(0.0, 2.0, 5))
    assert len(made) == 1
    buf, out = made[0]
    assert out is buf and buf.nbytes == u.values.nbytes
    assert np.shares_memory(u.values, buf)


def test_schrodinger_evolve_peak_memory_is_about_two_outputs(traced_peak):
    """A memory bound, not a timing: the band contraction's output and the
    synthesis buffer are the only output-sized arrays alive at once (a copy
    or a temporary in the s-synthesis would add another)."""
    grid = Grid(d=1, n_rho=64, r_max=12.0, n_s=128, s_half=40.0)
    sf = banded_spectrum(grid, L_max=8, seed=16)
    times = np.linspace(0.0, 1.0, 33)
    u, peak = traced_peak(lambda: schrodinger_evolve(CauchyDataS(sf), times))
    assert peak <= 2.6 * u.values.nbytes


def _plain_wave_energy(data, times):
    """The energy series as the plain expression over fresh arrays: the
    reference for the in-place one."""
    up, um, omega = propagators._halfwave_split(data, np.asarray(times, dtype=float))
    uh = up + um
    vh = 1j * omega * (up - um)
    dens = omega**2 * np.abs(uh) ** 2 + np.abs(vh) ** 2
    return (data.u0.weights() * dens).sum(axis=(-2, -1))


@pytest.mark.parametrize("d", [1, 2])
def test_wave_energy_has_the_bytes_of_the_plain_expression(d):
    """The density is formed in place, in the half-wave spectra's buffers,
    with the plain expression's operand order, so both energy paths keep its
    bytes."""
    grid = Grid(d=d, n_rho=32, r_max=12.0, n_s=64, s_half=40.0)
    data = CauchyDataW(banded_spectrum(grid, L_max=5, seed=20 + d),
                       banded_spectrum(grid, L_max=5, seed=30 + d))
    times = np.linspace(0.0, 2.0, 7)
    want = _plain_wave_energy(data, times).tobytes()
    assert wave_energy_series(data, times).tobytes() == want
    assert propagators._wave_evolve_with_energy(data, times)[1].tobytes() == want


def test_wave_energy_series_holds_the_split_and_one_density(traced_peak):
    """A memory bound, not a timing: the two half-wave spectra, their sum
    and one float density are the spectrum-sized arrays of an energy series
    (the plain expression held up - um, vh and the density's temporaries
    besides)."""
    grid = Grid(d=1, n_rho=32, r_max=12.0, n_s=512, s_half=40.0)
    data = CauchyDataW(banded_spectrum(grid, L_max=8, seed=17),
                       banded_spectrum(grid, L_max=8, seed=18))
    times = np.linspace(0.0, 3.0, 65)
    _, peak = traced_peak(lambda: wave_energy_series(data, times))
    spectra = times.size * data.u0.values.nbytes
    assert peak <= 3.75 * spectra


SCHRODINGER_TABLE = [
    (2.0, 2.0, True), (2.0, 4.0, True), (2.0, np.inf, True), (4.0, 4.0, True),
    (3.0, 8.0, True), (np.inf, np.inf, True), (2.0, 3.0, True), (5.0, np.inf, True),
    (4.0, 2.0, False), (1.5, 2.0, False), (6.0, 4.0, False),
]

WAVE_TABLE = [
    (2.0, np.inf, True), (4.0, 4.0, True), (np.inf, np.inf, True),
    (3.0, 6.0, True), (4.0, 8.0, True),
    (2.0, 2.0, False), (2.0, 4.0, False), (1.0, 4.0, False), (8.0, 4.0, False),
]


@pytest.mark.parametrize("p,q,ok", SCHRODINGER_TABLE)
def test_admissible_schrodinger_d1(p, q, ok):
    assert admissible("schrodinger", p, q, 1) is ok


@pytest.mark.parametrize("p,q,ok", WAVE_TABLE)
def test_admissible_wave_d1(p, q, ok):
    assert admissible("wave", p, q, 1) is ok


def test_admissible_rejects_unknown_equation():
    with pytest.raises(ValueError):
        admissible("heat", 2.0, 2.0, 1)


def test_wave_decay_probe_quick():
    out = wave_decay_probe(times=(1.0, 2.0, 4.0, 8.0), n_quad=1600)
    assert np.all(np.diff(out["sup_norms"]) < 0)
    assert out["fitted_exponent"] < -0.35


def test_wave_decay_probe_propagates_a_nan_kernel(monkeypatch):
    """A NaN in the kernel makes every sup norm NaN rather than dropping out
    of the running sup over s-blocks (which left 0.0)."""
    real = verify.wigner_radial

    def kernel(*args):
        K = real(*args)
        K[0, 1] = np.nan
        return K

    monkeypatch.setattr(verify, "wigner_radial", kernel)
    out = wave_decay_probe(times=(1.0, 2.0), n_quad=200)
    assert np.isnan(out["sup_norms"]).all()


def test_wave_decay_probe_matches_the_direct_phase_sum():
    """The offset-table products reproduce the sup norms of the per-block
    np.exp phase sum; every window here is longer than one block and ends in
    a partial block.  t = 1 and 2 share a step, so t = 2 reuses the table
    built for t = 1, and t = 8 and 64 each build their own."""
    times, n_quad, d, rows = (1.0, 2.0, 8.0, 64.0), 400, 1, verify._S_BLOCK
    out = wave_decay_probe(times=times, n_quad=n_quad)
    m, freq_scale = d, 16.0
    lam_hi = 14.0 * freq_scale
    xq, wq = roots_legendre(n_quad)
    lam = lam_hi * (xq + 1) / 2
    weight = np.exp(-lam / freq_scale) * (lam_hi / 2 * wq) * lam**d
    K = wigner_radial(0, lam[:, None], np.array([0.0, 0.5, 1.0, 2.0]), d)
    const = 2.0 ** (d - 1) / np.pi ** (d + 1)
    want = []
    for t in times:
        s = np.arange(-0.8 * np.sqrt(m) * t - 30.0, 30.0, 0.02)
        assert s.size > rows and s.size % rows
        block_sups = []
        for lo in range(0, s.size, rows):
            phase = np.exp(1j * (np.outer(s[lo:lo + rows], lam) + 2.0 * t * np.sqrt(lam * m)))
            block_sups.append(np.abs(const * (phase * weight) @ K).max())
        want.append(np.max(block_sups))
    np.testing.assert_allclose(out["sup_norms"], want, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "t", inspect.signature(wave_decay_probe).parameters["times"].default)
def test_decay_probe_window_is_start_plus_k_steps(t):
    """The identity the offset table rests on: np.arange fills the window as
    s[0] + k (s[1] - s[0]), bit for bit."""
    s = np.arange(-0.8 * t - 30.0, 30.0, 0.02)
    assert np.array_equal(s, s[0] + np.arange(s.size) * (s[1] - s[0]))


def test_schrodinger_nondecay_probe():
    out = schrodinger_decay_probe()
    assert abs(out["fitted_exponent"]) < 0.05
    assert out["max_rel_drift"] < 1e-10


def test_schrodinger_decay_probe_holds_one_slice_of_the_flow(traced_peak):
    """A memory bound, not a timing: each sup comes from a single-time flow
    (2 MiB on the default 256 x 512 grid), not from the 7-time flow and its
    modulus (21 MiB)."""
    _, peak = traced_peak(schrodinger_decay_probe)
    assert peak <= 8 * 2**20


def test_schrodinger_decay_probe_figures_are_the_whole_flow_figures():
    """Each single-time flow is, bit for bit, its slice of the 7-time flow,
    and the probe's figures are those of the expressions it had over the
    whole flow, kept here."""
    grid = Grid()
    sf = verify._single_band(grid, 8, 1)
    t_unit = grid.h_s / (4.0 * (2 * 1 + grid.d))
    times = np.array([0.0] + [t_unit * 2**k for k in range(6)])
    st = schrodinger_evolve(CauchyDataS(sf), times)
    for k, t in enumerate(times):
        one = schrodinger_evolve(CauchyDataS(sf), [t]).values[0]
        assert one.tobytes() == st.values[k].tobytes()
    sups = np.abs(st.values).max(axis=(1, 2))
    ref = np.abs(inverse(sf).values).max()
    out = schrodinger_decay_probe()
    assert out["fitted_exponent"] == float(np.polyfit(np.log(times[1:]), np.log(sups[1:]), 1)[0])
    assert out["max_rel_drift"] == float(np.abs(sups / ref - 1.0).max())
