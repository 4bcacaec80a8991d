"""Radial transform: closed-form Gaussian oracles, Plancherel, inversion,
multipliers, and the spacetime product transform."""

from __future__ import annotations

import numpy as np
import pytest

from hharm.fields import (
    GaussianClosure,
    Grid,
    RadialField,
    dilate,
    l2_norm,
    random_packet,
    s_analysis,
    s_synthesis,
    sample_packets,
)
from hharm.propagators import CauchyDataS, schrodinger_evolve
from hharm.specfun import multiplicity, wigner_radial_table
from hharm.transform import (
    LocalizerSpec,
    SpectralField,
    bernstein_check,
    forward,
    inverse,
    localize,
    plancherel_constant,
    sobolev_multiplier,
    sobolev_norm,
    spectral_inner,
    spectral_inner_D,
    transform_D,
)
from hharm.transform import _forward_samples, _inverse_samples
from hharm.windows import bump

G = Grid(d=1, n_rho=128, r_max=12.0, n_s=256, s_half=40.0)
# lam extends to pi / h_s; carriers near 4-5 need the wider band
G512 = Grid(d=1, n_rho=128, r_max=12.0, n_s=512, s_half=40.0)


def test_plancherel_constant_values():
    assert abs(plancherel_constant(1) - np.pi**2) < 1e-15
    assert abs(plancherel_constant(2) - np.pi**3 / 2) < 1e-14


@pytest.mark.parametrize("d", [1, 2])
def test_closure_mode_matches_closed_form(d):
    """Forward transform of exp(-a rho^2) phi(s) against the Laplace-transform
    closed form, adaptive quadrature only (no grid)."""
    grid = Grid(d=d, n_rho=64, r_max=12.0, n_s=256, s_half=40.0)
    parts = [
        GaussianClosure(d=d, a=1.0, b=0.5, omega=4.0, amp=1.0),
        GaussianClosure(d=d, a=1.3, b=0.6, omega=-5.0, amp=0.4 + 0.2j),
    ]
    sf = forward(parts, L_max=16, grid=grid)
    ref = sum(p.coefficients(np.arange(17), grid.lam) for p in parts)
    ref[:, grid.izero] = 0.0
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(sf.values - ref)) / scale < 1e-8


def test_grid_mode_matches_closed_form():
    c = GaussianClosure(d=1, a=0.9, b=0.5, omega=4.5)
    sf = forward(c.sample(G512), L_max=8)
    ref = c.coefficients(np.arange(9), G512.lam)
    ref[:, G512.izero] = 0.0
    assert np.max(np.abs(sf.values - ref)) / np.max(np.abs(ref)) < 1e-9


def test_forward_dispatches_on_the_input_type():
    c = GaussianClosure(d=1, a=0.9, b=0.5, omega=4.5)
    one, pair = forward(c, L_max=4, grid=G), forward((c, c), L_max=4, grid=G)
    assert np.array_equal(pair.values, 2 * one.values)
    for bad in (one, c.sample(G).values, [c, c.sample(G)]):
        with pytest.raises(TypeError, match="RadialField or GaussianClosure"):
            forward(bad, L_max=4, grid=G)
    with pytest.raises(ValueError, match="target grid"):
        forward(c, L_max=4)


def test_plancherel_ratio_gaussian():
    f = GaussianClosure(d=1, a=1.0, b=0.5, omega=5.0).sample(G)
    sf = forward(f, L_max=64)
    ratio = spectral_inner(sf, sf).real / l2_norm(f) ** 2
    assert abs(ratio - np.pi**2) / np.pi**2 < 1e-6
    assert plancherel_constant(1) == np.pi**2


def test_roundtrip_band_projected():
    g = Grid(d=1, n_rho=256, r_max=12.0, n_s=512, s_half=40.0)
    rng = np.random.default_rng(2)
    f = sample_packets(random_packet(rng, n_terms=2), g)
    proj = inverse(forward(f, L_max=48))
    back = inverse(forward(proj, L_max=48))
    err = l2_norm(RadialField(g, back.values - proj.values)) / l2_norm(proj)
    assert err < 1e-6


def test_spectral_field_zeroes_lam0_column():
    theta = np.ones((3, G.n_s), dtype=complex)
    sf = SpectralField(G, theta)
    assert np.all(sf.values[:, G.izero] == 0.0)


def test_spectral_field_rejects_zero_bands():
    with pytest.raises(ValueError, match="L_max >= 0"):
        SpectralField(G, np.zeros((0, G.n_s)))


@pytest.mark.parametrize("L_max", [-1, 2.5, "8"])
def test_forward_rejects_bad_band_count(L_max):
    f = RadialField(G, np.ones((G.n_rho, G.n_s)))
    with pytest.raises(ValueError, match="L_max must be an int >= 0"):
        forward(f, L_max=L_max)


def test_spectral_inner_guards():
    sf = SpectralField(G, np.ones((3, G.n_s)))
    other = Grid(d=1, n_rho=64, r_max=10.0, n_s=256, s_half=40.0)
    with pytest.raises(ValueError):
        spectral_inner(sf, SpectralField(other, np.ones((3, other.n_s))))
    with pytest.raises(ValueError):
        spectral_inner(sf, SpectralField(G, np.ones((4, G.n_s))))


def sobolev_spot_field():
    # s_half = 16 pi puts lam = 1 exactly on the frequency lattice
    g = Grid(d=1, n_rho=64, r_max=12.0, n_s=256, s_half=16 * np.pi)
    theta = np.zeros((1, g.n_s), dtype=complex)
    theta[0, g.izero + 16] = 1.0
    return g, SpectralField(g, theta)


def test_sobolev_multiplier_spot_value():
    """On the (ell=0, lam=1) mode the derivative multiplier at sigma=2 is the
    eigenvalue 4 |lam| (2 ell + d) = 4, and the norm scales by the same factor."""
    g, sf = sobolev_spot_field()
    out = sobolev_multiplier(sf, 2.0)
    assert abs(out.values[0, g.izero + 16] - 4.0) < 1e-3
    assert abs(out.values[0, g.izero + 16] - 4.0) < 1e-12  # exact on the lattice
    n0 = sobolev_norm(sf, 0.0)
    n2 = sobolev_norm(sf, 2.0)
    assert abs(n2 / n0 - 4.0) < 1e-12


def test_sobolev_negative_order_refused_near_lam0():
    theta = np.zeros((1, G.n_s), dtype=complex)
    theta[0, G.izero + 1] = 1.0
    sf = SpectralField(G, theta)
    with pytest.raises(ValueError, match="refused"):
        sobolev_norm(sf, -1.0)


def test_localizer_ball_ring_disjoint():
    rng = np.random.default_rng(3)
    theta = rng.standard_normal((5, G.n_s)) + 1j * rng.standard_normal((5, G.n_s))
    sf = SpectralField(G, theta)
    ring = localize(sf, LocalizerSpec("ring", 2.0))
    both = localize(ring, LocalizerSpec("ball", 1.0))
    assert np.max(np.abs(both.values)) == 0.0


def test_multiplier_commutes_with_localizer():
    rng = np.random.default_rng(4)
    theta = rng.standard_normal((5, G.n_s)) + 1j * rng.standard_normal((5, G.n_s))
    sf = SpectralField(G, theta)
    loc = LocalizerSpec("ring", 3.0)
    a = sobolev_multiplier(localize(sf, loc), 1.5)
    b = localize(sobolev_multiplier(sf, 1.5), loc)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_localizer_unknown_kind():
    with pytest.raises(ValueError):
        LocalizerSpec("disc", 1.0).profile(np.ones(3))


def test_bernstein_exponent_exact_covariance():
    rng = np.random.default_rng(6)
    f = sample_packets(random_packet(rng, n_terms=2), G)
    out = bernstein_check(f, LocalizerSpec("ball", 3.0), p=2.0, q=np.inf,
                          scales=(1.0, 2.0, 4.0), L_max=24)
    assert out["target_exponent"] == 2.0  # Q/2 at d=1
    assert abs(out["fitted_exponent"] - out["target_exponent"]) < 1e-10


def test_bernstein_rejects_descending_exponents():
    f = GaussianClosure().sample(G)
    with pytest.raises(ValueError):
        bernstein_check(f, LocalizerSpec(), p=4.0, q=2.0)


def test_transform_D_parseval_ratio():
    """Spacetime Parseval: spectral pairing over (alpha, ell, lam) against the
    dt-weighted group norm of the evolved field; ratio 2 pi^3 at d=1."""
    g = Grid(d=1, n_rho=128, r_max=12.0, n_s=256, s_half=40.0)
    theta = np.zeros((13, g.n_s), dtype=complex)
    rng = np.random.default_rng(9)
    prof = bump(np.abs(g.lam), 0.5, 4.0)
    for ell in range(13):
        theta[ell] = prof * (rng.standard_normal(g.n_s) * 0.2 + 1.0)
    times = np.linspace(0.0, 0.7, 8)
    u = schrodinger_evolve(CauchyDataS(SpectralField(g, theta)), times)
    A = transform_D(u, L_max=24)
    spec = spectral_inner_D(A, A).real
    dt = times[1] - times[0]
    phys = np.sum(dt * l2_norm(u) ** 2)
    ratio = spec / phys
    assert abs(ratio - 2 * np.pi**3) / (2 * np.pi**3) < 1e-12


def test_spectral_inner_D_refuses_spectra_on_different_grids():
    times = np.linspace(0.0, 0.7, 4)
    spectra = []
    for s_half in (20.0, 40.0):
        g = Grid(d=1, n_rho=32, r_max=10.0, n_s=64, s_half=s_half)
        theta = np.zeros((3, g.n_s), dtype=complex)
        theta[1] = bump(np.abs(g.lam), 0.5, 2.0)
        spectra.append(transform_D(schrodinger_evolve(
            CauchyDataS(SpectralField(g, theta)), times), L_max=2))
    with pytest.raises(ValueError, match="different grids"):
        spectral_inner_D(*spectra)


def test_transform_D_rejects_nonuniform_times():
    g = Grid(d=1, n_rho=32, r_max=10.0, n_s=64, s_half=20.0,
             t_nodes=np.array([0.0, 0.1, 0.3]))
    u_vals = np.zeros((3, 32, 64), dtype=complex)
    from hharm.fields import SpaceTimeField

    with pytest.raises(ValueError, match="uniform"):
        transform_D(SpaceTimeField(g, u_vals), L_max=4)


def test_transform_D_rejects_single_time_node():
    g = Grid(d=1, n_rho=32, r_max=10.0, n_s=64, s_half=20.0, t_nodes=np.array([0.0]))
    from hharm.fields import SpaceTimeField

    with pytest.raises(ValueError, match="two time nodes"):
        transform_D(SpaceTimeField(g, np.zeros((1, 32, 64), dtype=complex)), L_max=4)


def test_high_band_count_is_finite_and_meets_plancherel_gate():
    """L_max = 192 on the default grid: the unscaled Laguerre values overflow
    where e^{-u/2} underflows, so only the scaled recurrence stays finite."""
    grid = Grid()
    rng = np.random.default_rng(5)
    sf = forward(sample_packets(random_packet(rng, d=1), grid), L_max=192)
    assert np.all(np.isfinite(sf.values))
    f = inverse(sf)
    assert np.all(np.isfinite(f.values))
    sf = forward(f, L_max=192)
    ratio = spectral_inner(sf, sf).real / l2_norm(f) ** 2
    assert abs(ratio - plancherel_constant(1)) / plancherel_constant(1) <= 1e-6


def test_dilation_covariance_against_closure():
    c = GaussianClosure(d=1, a=1.0, b=0.5, omega=3.0)
    a = 1.2
    num = forward(dilate(c.sample(G512), a), L_max=8)
    cd = GaussianClosure(d=1, a=c.a * a**2, b=c.b * a**4, omega=c.omega * a**2)
    ref = cd.coefficients(np.arange(9), G512.lam)
    ref[:, G512.izero] = 0.0
    assert np.max(np.abs(num.values - ref)) / np.max(np.abs(ref)) < 1e-8


# ---------------------------------------------------------------------------
# The blocked gemm contraction against a per-frequency loop reference
# ---------------------------------------------------------------------------

def _reference_forward(grid, values, L_max):
    """theta[..., ell, k] from the full kernel table at each signed lam_k."""
    fhat = s_analysis(grid, values)
    mults = np.array([multiplicity(l, grid.d) for l in range(L_max + 1)], dtype=float)
    theta = np.zeros(values.shape[:-2] + (L_max + 1, grid.n_s), dtype=complex)
    for k in range(grid.n_s):
        if k == grid.izero:
            continue
        K = wigner_radial_table(L_max, grid.lam[k], grid.rho, grid.d)  # (L+1, n_rho)
        C = fhat[..., None, :, k] * grid.w_radial
        theta[..., :, k] = (C * K).sum(-1) / mults
    return theta


def _reference_inverse(grid, theta):
    d = grid.d
    g = np.zeros(theta.shape[:-2] + (grid.n_rho, grid.n_s), dtype=complex)
    for k in range(grid.n_s):
        if k == grid.izero:
            continue
        K = wigner_radial_table(theta.shape[-2] - 1, grid.lam[k], grid.rho, d)
        g[..., :, k] = (theta[..., :, k, None] * K).sum(-2)
        g[..., :, k] *= (2.0 / np.pi) ** d * abs(grid.lam[k]) ** d
    return s_synthesis(grid, g)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("batch", [(), (2,), (2, 3)])
@pytest.mark.parametrize("L_max", [0, 1, 64])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_band_contraction_matches_per_frequency_loop(d, L_max, batch):
    """n_s/2 = 37 |lam| rows: the last kernel block is a partial one."""
    grid = Grid(d=d, n_rho=24, r_max=6.0, n_s=74, s_half=10.0)
    rng = np.random.default_rng(100 * d + L_max + len(batch))
    shape = batch + (grid.n_rho, grid.n_s)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    shape = batch + (L_max + 1, grid.n_s)
    theta = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert _rel(_forward_samples(grid, values, L_max),
                _reference_forward(grid, values, L_max)) < 1e-13
    assert _rel(_inverse_samples(grid, theta), _reference_inverse(grid, theta)) < 1e-13
    if not batch:
        assert _rel(forward(RadialField(grid, values), L_max).values,
                    _reference_forward(grid, values, L_max)) < 1e-13
        theta[:, grid.izero] = 0.0
        assert _rel(inverse(SpectralField(grid, theta)).values,
                    _reference_inverse(grid, theta)) < 1e-13


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("d", [1, 2])
def test_lam_contract_bytes_do_not_depend_on_block_size(monkeypatch, d, adjoint):
    """At r_max = 12 and |lam| up to 10 the kernels underflow at the outer
    radii, so each block size cuts the gemms at other radii; the bytes must
    not move."""
    from hharm import transform

    grid = Grid(d=d, n_rho=48, r_max=12.0, n_s=128, s_half=20.0)
    L_max = 20
    rng = np.random.default_rng(d)
    n = L_max + 1 if adjoint else grid.n_rho
    X = rng.standard_normal((grid.n_s, n, 3)) + 1j * rng.standard_normal((grid.n_s, n, 3))
    out = []
    for block in (1, 16, 32, grid.n_s // 2):
        monkeypatch.setattr(transform, "_LAM_BLOCK", block)
        out.append(transform._lam_contract(grid, X, L_max, adjoint).tobytes())
    assert len(set(out)) == 1


def test_nonfinite_sample_at_underflowed_radius_reaches_only_live_frequencies(monkeypatch):
    """The contraction leaves out the radii where the kernel is exactly 0,
    so a NaN there spreads to the small |lam| only, in both directions.
    One |lam| row per block makes the cut exact at every frequency."""
    from hharm import transform

    monkeypatch.setattr(transform, "_LAM_BLOCK", 1)
    grid = Grid(d=1, n_rho=48, r_max=12.0, n_s=128, s_half=20.0)
    live = wigner_radial_table(0, grid.lam, grid.rho[-1])[0] != 0.0
    live[grid.izero] = True
    assert live.any() and not live.all()
    values = np.ones((grid.n_rho, grid.n_s), dtype=complex)
    values[-1, 5] = np.nan
    theta = _forward_samples(grid, values, 4)
    assert np.isnan(theta[:, live & (grid.lam != 0)]).all()
    assert np.isfinite(theta[:, ~live]).all()
    X = np.ones((grid.n_s, 5, 1), dtype=complex)
    X[~live] = np.nan
    G = transform._lam_contract(grid, X, 4, adjoint=True)
    assert np.isnan(G[~live, 0]).all() and not G[~live, -1].any()


_THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
from hharm.fields import Grid
from hharm.transform import _forward_samples, _inverse_samples
digest = hashlib.sha256()
rng = np.random.default_rng(7)
# at r_max = 12 the outer radii underflow and the gemms stop short of them
for r_max in (8.0, 12.0):
    grid = Grid(d=2, n_rho=96, r_max=r_max, n_s=128, s_half=20.0)
    v = rng.standard_normal((16, 96, 128)) + 1j * rng.standard_normal((16, 96, 128))
    theta = _forward_samples(grid, v, 40)
    f = _inverse_samples(grid, theta)
    digest.update(theta.tobytes() + f.tobytes())
sys.stdout.write(digest.hexdigest())
"""


def test_band_contraction_bytes_do_not_depend_on_thread_count():
    """forward/inverse reach BLAS gemm; its results must not depend on how
    many threads HH_THREADS gives the BLAS pool."""
    import os
    import subprocess
    import sys

    pools = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in pools}
    digests = set()
    for n in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT],
                              env=dict(base, HH_THREADS=n), capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        digests.add(proc.stdout)
    assert len(digests) == 1

