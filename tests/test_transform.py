"""Radial transform: closed-form Gaussian oracles, Plancherel, inversion,
multipliers, the spacetime product transform, and the Bernstein exponent
check of `hharm.verify`."""

from __future__ import annotations

import ast
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hharm

from hharm.fields import (
    GaussianClosure,
    Grid,
    RadialField,
    SpaceTimeField,
    dilate,
    l2_norm,
    random_packet,
    s_analysis,
    s_synthesis,
    s_translate,
    sample_packets,
)
from hharm.propagators import CauchyDataS, schrodinger_evolve
from hharm.specfun import multiplicity, wigner_radial_table
from hharm.transform import (
    LocalizerSpec,
    SpectralField,
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
from hharm.transform import (_eig_table, _forward_samples, _identity, _localized,
                             _multiplier_pass)
from hharm.verify import bernstein_check
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
    f = sample_packets(random_packet(rng), g)
    proj = inverse(forward(f, L_max=48))
    back = inverse(forward(proj, L_max=48))
    err = l2_norm(RadialField(g, back.values - proj.values)) / l2_norm(proj)
    assert err < 1e-6


def test_spectral_field_zeroes_lam0_column():
    theta = np.ones((3, G.n_s), dtype=complex)
    sf = SpectralField(G, theta)
    assert np.all(sf.values[:, G.izero] == 0.0)
    # in its own copy: the caller's complex128 array was once zeroed
    assert np.all(theta == 1.0) and not np.shares_memory(sf.values, theta)


def test_spectral_field_rejects_zero_bands():
    with pytest.raises(ValueError, match="L_max >= 0"):
        SpectralField(G, np.zeros((0, G.n_s)))


@pytest.mark.parametrize("L_max", [-1, 2.5, "8"])
def test_forward_rejects_bad_band_count(L_max):
    f = RadialField(G, np.ones((G.n_rho, G.n_s)))
    with pytest.raises(ValueError, match="L_max must be an int"):
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


def _small_spectrum():
    """A seeded 9-band spectrum on a 32 x 64 grid."""
    grid = Grid(d=1, n_rho=32, r_max=12.0, n_s=64, s_half=40.0)
    rng = np.random.default_rng(8)
    return SpectralField(grid, rng.standard_normal((9, 64)) + 1j * rng.standard_normal((9, 64)))


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
def test_sobolev_norm_refuses_a_non_finite_order(sigma):
    with pytest.raises(ValueError, match="sigma must be a finite real number"):
        sobolev_norm(_small_spectrum(), sigma)


@pytest.mark.parametrize("sigma", [np.nan, np.inf, -np.inf])
def test_sobolev_multiplier_refuses_a_non_finite_order(sigma):
    with pytest.raises(ValueError, match="sigma must be a finite real number"):
        sobolev_multiplier(_small_spectrum(), sigma)


def _ones_spectrum():
    """An all-ones 9-band spectrum on a 32 x 64 grid: eigenvalues from
    4 dlam = 0.314 to 171."""
    grid = Grid(d=1, n_rho=32, r_max=12.0, n_s=64, s_half=40.0)
    return SpectralField(grid, np.ones((9, 64)))


@pytest.mark.parametrize("sigma", [400.0, 800.0, -400.0, 140.0, -140.0, 1e300])
def test_sobolev_orders_whose_power_leaves_the_float_range_are_refused(sigma):
    """171^400 is inf, and was returned (sigma = 800 left 79 of 576
    coefficients finite in the multiplier); 171^-140 is below the normal
    range.  Both calls refuse before the power, with no numpy warning."""
    sf = _ones_spectrum()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="leave the normal float range"):
            sobolev_norm(sf, sigma)
        with pytest.raises(ValueError, match="leave the normal float range"):
            sobolev_multiplier(sf, 2.0 * sigma)


@pytest.mark.parametrize("sigma", [0.0, 1.5, -1.5, 130.0, -130.0])
def test_sobolev_orders_inside_the_float_range_give_finite_results(sigma):
    """Up to the edge decided from the logs (|sigma| ln 171 < 708.4), the
    norm and the multiplier are finite and agree."""
    sf = _ones_spectrum()
    sf.values[:, 31:34] = 0.0  # no mass next to lam = 0, for sigma < 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n = sobolev_norm(sf, sigma)
        m = sobolev_multiplier(sf, sigma)
    assert np.isfinite(n) and n > 0 and np.isfinite(m.values).all()
    assert abs(sobolev_norm(m, 0.0) / n - 1.0) < 1e-12


def test_sobolev_multiplier_refuses_a_negative_order_next_to_lam0():
    """On the all-ones spectrum sobolev_norm(sf, -1) was refused while
    sobolev_multiplier(sf, -1) returned a spectrum whose norm read 0.672.
    Both refuse, naming the operation and 8 of the 10 bins."""
    sf = SpectralField(Grid(n_rho=64, n_s=128), np.ones((5, 128)))
    for op in (sobolev_norm, sobolev_multiplier):
        with pytest.raises(ValueError, match="refused") as exc:
            op(sf, -1.0)
        msg = str(exc.value)
        assert msg.startswith(f"{op.__name__}(sigma=-1.0): ")
        assert "lambda = 0" in msg and msg.count("ell=") == 8 and "and 2 more" in msg


@settings(max_examples=60)
@given(
    d=st.integers(1, 3),
    half_n_s=st.integers(2, 32),
    L_max=st.integers(0, 8),
    sigma=st.floats(-3.0, 3.0),
    edge=st.sampled_from([0.0, 1e-14, 1e-6, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_sobolev_norm_of_the_multiplier_is_the_norm_or_both_refuse(
        d, half_n_s, L_max, sigma, edge, seed):
    """sobolev_norm(sf, sigma) and sobolev_norm(sobolev_multiplier(sf, sigma), 0)
    either both refuse or agree to 1e-12, on spectra whose two bins next to
    lam = 0 are scaled by `edge` (1e-14 stays under the rule's 1e-12)."""
    rng = np.random.default_rng(seed)
    grid = Grid(d=d, n_rho=4, n_s=2 * half_n_s, s_half=20.0)
    theta = rng.standard_normal((L_max + 1, grid.n_s)) + 1j * rng.standard_normal(
        (L_max + 1, grid.n_s))
    theta[:, half_n_s - 1:half_n_s + 2] *= edge
    sf = SpectralField(grid, theta)

    def run(norm):
        try:
            return norm()
        except ValueError as exc:
            assert "refused" in str(exc) and "lambda = 0" in str(exc)
            return None

    a = run(lambda: sobolev_norm(sf, sigma))
    b = run(lambda: sobolev_norm(sobolev_multiplier(sf, sigma), 0.0))
    assert (a is None) == (b is None) == (sigma < 0 and edge >= 1e-6)
    if a is not None:
        assert abs(b - a) <= 1e-12 * a


_LAM0 = re.compile(r"(lam|lambda|λ)\s*=\s*0\b")


def _source_trees():
    for path in sorted(Path(hharm.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text())


def _owners(tree, module, pick):
    """The qualified name (module.Class.function) of the innermost function
    or class around each node of tree that pick accepts; the module's own
    name for a node at its top level."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if pick(child):
                found.add(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{owner}.{child.name}" if inner else owner)

    visit(tree, module)
    return found


def test_one_function_refuses_next_to_lam0_and_only_transform_reads_izero():
    """A source guard: the lambda = 0 refusal is raised in one function, and
    the lam = 0 column's index is read only where `Grid` sets it and in
    `transform`, so a later lattice change touches those two modules alone."""
    raisers, readers = set(), set()
    for module, tree in _source_trees():
        raisers |= _owners(tree, module, lambda n: isinstance(n, ast.Raise) and any(
            isinstance(c, ast.Constant) and isinstance(c.value, str) and _LAM0.search(c.value)
            for c in ast.walk(n)))
        readers |= {o for o in _owners(tree, module, lambda n: isinstance(n, ast.Attribute)
                                       and n.attr == "izero")
                    if o.split(".")[0] != "transform"}
    assert raisers == {"transform._refuse_near_lam0"}
    assert readers == {"fields.Grid.__post_init__"}


@pytest.mark.parametrize("scale", [1e200, 1.4e154, 1e-170, 1e-155, 1e-154])
def test_localizer_spec_refuses_a_scale_whose_square_is_not_a_normal_float(scale):
    """1e200 made localize raise OverflowError, and 1e-170 warned "divide
    by zero" (its square is 0); a subnormal square is refused too."""
    with pytest.raises(ValueError, match="scale\\*\\*2 must be a normal float"):
        LocalizerSpec("ball", scale)


@pytest.mark.parametrize("kind", ["ball", "ring"])
@pytest.mark.parametrize("scale", [1.2e154, 1.5e-154, 1e-3])
def test_localize_at_the_edge_scales_is_finite_and_quiet(kind, scale):
    """A normal square at either edge: eig / scale^2 may pass the float
    range, where both profiles are 0, with no numpy warning."""
    sf = _ones_spectrum()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = localize(sf, LocalizerSpec(kind, scale)).values
    # at 1.2e154 every eigenvalue sits on the ball's plateau, below the ring
    want = 1.0 if (kind, scale) == ("ball", 1.2e154) else 0.0
    assert np.array_equal(out, want * sf.values)


@pytest.mark.parametrize("kind, scale", [("ball", np.nan), ("ball", 0.0), ("ring", -1.0),
                                         ("ring", np.inf), ("disc", 1.0)])
def test_localizer_spec_refuses_a_bad_scale_or_kind(kind, scale):
    """Refused when built, before any localize: NaN gave NaN output, and 0
    a divide warning and zeros."""
    frag = "unknown localizer kind" if kind == "disc" else "scale must be finite and positive"
    with pytest.raises(ValueError, match=frag):
        LocalizerSpec(kind, scale)


def test_bernstein_exponent_exact_covariance():
    rng = np.random.default_rng(6)
    f = sample_packets(random_packet(rng), G)
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


def _synthesis_of(grid, theta):
    """The samples (..., n_rho, n_s) of the stack of spectra theta
    (..., L+1, n_s), whose lam = 0 column has no effect, from one
    `_multiplier_pass` whose multiplier reads a block's columns of the
    stack, as `duhamel` does."""
    sf = SpectralField(grid, np.zeros(theta.shape[-2:], dtype=complex))
    return _multiplier_pass(sf, None, lambda _, sl: theta[..., sl], theta.shape[:-2])[1]


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
    assert _rel(_synthesis_of(grid, theta), _reference_inverse(grid, theta)) < 1e-13
    if not batch:
        assert _rel(forward(RadialField(grid, values), L_max).values,
                    _reference_forward(grid, values, L_max)) < 1e-13
        theta[:, grid.izero] = 0.0
        assert _rel(inverse(SpectralField(grid, theta)).values,
                    _reference_inverse(grid, theta)) < 1e-13


def _shifted_analysis(grid, values):
    """s_analysis as the fftshift copy of the FFT, times h_s e^{i S lam}: the
    reference for the folded paths."""
    fw = np.fft.fftshift(np.fft.fft(values, axis=-1), axes=-1)
    return grid.h_s * np.exp(1j * grid.s_half * grid.lam) * fw


@pytest.mark.parametrize("batch", [(), (3,), (2, 2)])
@pytest.mark.parametrize("d", [1, 2])
def test_s_analysis_has_the_bytes_of_the_shifted_fft(d, batch):
    grid = Grid(d=d, n_rho=16, r_max=6.0, n_s=64, s_half=10.0)
    rng = np.random.default_rng(60 + d + len(batch))
    shape = batch + (16, 64)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert s_analysis(grid, values).tobytes() == _shifted_analysis(grid, values).tobytes()


@pytest.mark.parametrize("s0", [0.37, -2.9])
@pytest.mark.parametrize("d", [1, 2])
def test_s_translate_has_the_bytes_of_analysis_phase_synthesis(d, s0):
    """The fractional shift runs in FFT order in one buffer; its bytes are
    those of s_analysis, times e^{-i s0 lam}, then s_synthesis."""
    grid = Grid(d=d, n_rho=16, r_max=6.0, n_s=64, s_half=10.0)
    rng = np.random.default_rng(70 + d)
    values = rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))
    theta = _shifted_analysis(grid, values)
    theta *= np.exp(-1j * s0 * grid.lam)[None, :]
    want = s_synthesis(grid, theta)
    assert s_translate(RadialField(grid, values), s0).values.tobytes() == want.tobytes()


def _lam_major_forward(grid, values, L_max):
    """The forward with its samples and coefficients kept whole, lam-major:
    C (n_s, n_rho, B) and theta (n_s, L+1, B)."""
    from hharm import transform

    fhat = _shifted_analysis(grid, values.reshape((-1,) + values.shape[-2:]))
    C = np.multiply(fhat.T, grid.w_radial[:, None], order="C")
    theta = np.zeros((grid.n_s, L_max + 1, len(fhat)), dtype=complex)
    for K, sl in transform._lam_blocks(grid, L_max):
        np.matmul(K.transpose(1, 0, 2), C[sl, :K.shape[2]].view(float),
                  out=theta[sl].view(float))
    mults = np.array([multiplicity(l, grid.d) for l in range(L_max + 1)], dtype=float)
    return np.divide(theta.T, mults[:, None], order="C")


def _two_step_inverse(grid, theta):
    """The inverse in two steps: the whole lam-major adjoint contraction G
    (n_s, n_rho, B), then `s_synthesis` of its transpose."""
    from hharm import transform

    d = grid.d
    theta = theta.reshape((-1,) + theta.shape[-2:])
    w = (2.0**d / np.pi**d) * np.abs(grid.lam) ** d
    T = np.multiply(theta.T, w[:, None, None], order="C")
    G = np.zeros((grid.n_s, grid.n_rho, len(theta)), dtype=complex)
    for K, sl in transform._lam_blocks(grid, theta.shape[1] - 1):
        np.matmul(K.transpose(1, 2, 0), T[sl].view(float),
                  out=G.view(float)[sl, :K.shape[2]])
    return s_synthesis(grid, G.T)


@pytest.mark.parametrize("d", [1, 2])
def test_block_writes_have_the_bytes_of_the_lam_major_contraction(d):
    """Each direction gathers a kernel block into a scratch and writes its
    result straight into the batch-major output (the forward reading its
    FFT columns through the analysis factor, the inverse writing through the
    phase and the ifftshift); at r_max = 12 the outer radii of the large
    |lam| are cut, and the bytes are those of the contraction kept whole,
    lam-major, after the shifted-FFT analysis, and then divided or
    synthesised; batched and unbatched."""
    grid = Grid(d=d, n_rho=48, r_max=12.0, n_s=128, s_half=20.0)
    rng = np.random.default_rng(30 + d)
    values = rng.standard_normal((5, 48, grid.n_s)) + 1j * rng.standard_normal((5, 48, grid.n_s))
    theta = rng.standard_normal((5, 21, grid.n_s)) + 1j * rng.standard_normal((5, 21, grid.n_s))
    for v in (values, values[2]):
        assert (_forward_samples(grid, v, 20).tobytes()
                == _lam_major_forward(grid, v, 20).tobytes())
    assert _synthesis_of(grid, theta).tobytes() == _two_step_inverse(grid, theta).tobytes()


def _shifted_transform_D(u, L_max):
    """transform_D's coefficients through the fftshift copy of the t-FFT,
    times dt e^{-i t_0 alpha}, then the lam-major forward."""
    t = u.grid.t_nodes
    n_t, dt = t.size, t[1] - t[0]
    alpha = 2.0 * np.pi * (np.arange(n_t) - n_t // 2) / (n_t * dt)
    fw = np.fft.fftshift(np.fft.fft(u.values, axis=0), axes=0)
    fw *= dt * np.exp(-1j * t[0] * alpha)[:, None, None]
    return _lam_major_forward(u.grid, fw, L_max)


@pytest.mark.parametrize("n_t", [6, 7])
@pytest.mark.parametrize("d", [1, 2])
def test_transform_D_has_the_bytes_of_the_shifted_t_fft(d, n_t):
    """The t-FFT, its factor and the s-FFT run in one buffer in FFT order,
    and only the coefficients are put in alpha order: the bytes are those of
    the shifted path, for an even and an odd number of times."""
    grid = Grid(d=d, n_rho=32, r_max=12.0, n_s=64, s_half=20.0,
                t_nodes=np.linspace(0.1, 0.7, n_t))
    rng = np.random.default_rng(80 + d + n_t)
    shape = (n_t, 32, 64)
    u = SpaceTimeField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert transform_D(u, 12).values.tobytes() == _shifted_transform_D(u, 12).tobytes()


def test_forward_makes_one_sample_sized_array(traced_peak):
    """A memory bound, not a timing: beyond its input and its output, the
    forward holds the s-FFT buffer (1.0x its input), the kernel-block
    scratch (32/n_s of it), one kernel block and numpy's fixed ufunc
    buffers.  The shifted analysis held two sample-sized arrays at once."""
    grid = Grid(d=1, n_rho=128, r_max=12.0, n_s=1024, s_half=40.0)
    rng = np.random.default_rng(81)
    values = rng.standard_normal((9, 128, 1024)) + 1j * rng.standard_normal((9, 128, 1024))
    out, peak = traced_peak(lambda: _forward_samples(grid, values, 8))
    assert peak - out.nbytes <= 1.1 * values.nbytes


def test_transform_D_makes_one_sample_sized_array(traced_peak):
    """A memory bound, not a timing: the t-FFT and the s-FFT share one
    buffer, the only sample-sized array beyond the input and the output
    (the shifted path held the t-FFT, its shifted copy and the forward's
    own two)."""
    grid = Grid(d=1, n_rho=128, r_max=12.0, n_s=1024, s_half=40.0,
                t_nodes=np.linspace(0.0, 0.4, 9))
    rng = np.random.default_rng(82)
    shape = (9, 128, 1024)
    u = SpaceTimeField(grid, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    D, peak = traced_peak(lambda: transform_D(u, 8))
    assert peak - D.values.nbytes <= 1.1 * u.values.nbytes


def test_inverse_peak_memory_is_its_output(traced_peak):
    """A memory bound, not a timing: the output is the one sample-sized
    array an inverse makes; its kernel-block scratch adds 1/16 of it here.
    The two-step synthesis held the contraction output and the output at
    once (2.0x here)."""
    grid = Grid(d=1, n_rho=64, r_max=12.0, n_s=512, s_half=40.0)
    rng = np.random.default_rng(40)
    theta = rng.standard_normal((17, 9, grid.n_s)) + 1j * rng.standard_normal((17, 9, grid.n_s))
    f, peak = traced_peak(lambda: _synthesis_of(grid, theta))
    assert peak <= 1.25 * f.nbytes


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("d", [1, 2])
def test_lam_contract_bytes_do_not_depend_on_block_size(monkeypatch, d, adjoint):
    """The forward and its adjoint, the inverse, run one gemm per kernel
    block.  At r_max = 12 and |lam| up to 10 the kernels underflow at the
    outer radii, so each block size cuts the gemms at other radii; the bytes
    must not move."""
    from hharm import transform

    grid = Grid(d=d, n_rho=48, r_max=12.0, n_s=128, s_half=20.0)
    L_max = 20
    rng = np.random.default_rng(d)
    shape = (3, L_max + 1 if adjoint else grid.n_rho, grid.n_s)
    X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = []
    for block in (1, 16, 32, grid.n_s // 2):
        monkeypatch.setattr(transform, "_LAM_BLOCK", block)
        f = _synthesis_of(grid, X) if adjoint else _forward_samples(grid, X, L_max)
        out.append(f.tobytes())
    assert len(set(out)) == 1


@pytest.mark.parametrize("d", [1, 2])
def test_multiplier_pass_is_forward_multiplier_inverse_bit_for_bit(d):
    """One pass over the kernel blocks returns forward(f) and the synthesis
    of the unchanged or localized spectrum with the bytes of the separate
    calls, on a lattice whose last blocks are partial (50 |lam| rows)."""
    grid = Grid(d=d, n_rho=48, r_max=12.0, n_s=100, s_half=30.0)
    f = sample_packets(random_packet(np.random.default_rng(60 + d), d=d), grid)
    sf = forward(f, 12)
    loc = LocalizerSpec("ring", 3.0)
    eig = _eig_table(grid, 12)
    cases = [(_identity, inverse(sf)),
             (lambda theta, sl: _localized(theta, eig[:, sl], loc), inverse(localize(sf, loc)))]
    for multiplier, ref in cases:
        spectrum, g = _multiplier_pass(f, 12, multiplier)
        assert spectrum.values.tobytes() == sf.values.tobytes()
        assert g.tobytes() == ref.values.tobytes()
        # a spectrum is read as it is, and returned as the spectrum
        spectrum, g = _multiplier_pass(sf, None, multiplier)
        assert spectrum is sf
        assert g.tobytes() == ref.values.tobytes()


def test_one_synthesis_pass_and_one_analysis_loop_the_kernel_blocks():
    """A source guard: `_lam_blocks` is looped over by the analysis of
    `forward` and `transform_D` (`_forward_fft`) and by the synthesis pass
    alone; the second synthesis path, the twin flow functions of a radial
    field and the CLI's choice between them are gone."""
    callers, defined = set(), set()
    for module, tree in _source_trees():
        callers |= _owners(tree, module, lambda n: isinstance(n, ast.Call)
                           and getattr(n.func, "id", None) == "_lam_blocks")
        defined |= {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    assert callers == {"transform._forward_fft", "transform._multiplier_pass"}
    gone = {"_inverse_samples", "_schrodinger_of_samples", "_wave_of_samples",
            "_wave_evolve_with_energy", "_halfwave_split", "_wave_energy"}
    assert not gone & defined
    cli = (Path(hharm.__file__).parent / "cli.py").read_text()
    assert "if radial" not in cli


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
    # the inverse: the NaN coefficients (and lam = 0's) reach no cut radius
    theta = np.ones((5, grid.n_s), dtype=complex)
    dead = ~live | (grid.lam == 0)
    theta[:, dead] = np.nan
    f = inverse(SpectralField(grid, theta)).values
    theta[:, dead] = 0.0
    assert np.isnan(f[0]).all()
    assert np.array_equal(f[-1], inverse(SpectralField(grid, theta)).values[-1])


_THREADS_SCRIPT = """
import hashlib, sys
import numpy as np
from hharm.fields import Grid, RadialField, SpaceTimeField
from hharm.propagators import (CauchyDataS, CauchyDataW, _schrodinger, _wave, duhamel,
                               schrodinger_evolve, wave_evolve)
from hharm.restriction import SigmaMeasure, SphereMeasure, restrict_sigma, restrict_sphere
from hharm.transform import SpectralField, _forward_samples, _multiplier_pass, inverse
from hharm.verify import translate_identity_check, wave_decay_probe
digest = hashlib.sha256()
rng = np.random.default_rng(7)
# at r_max = 12 the outer radii underflow and the gemms stop short of them
for r_max in (8.0, 12.0):
    grid = Grid(d=2, n_rho=96, r_max=r_max, n_s=128, s_half=20.0)
    v = rng.standard_normal((16, 96, 128)) + 1j * rng.standard_normal((16, 96, 128))
    theta = _forward_samples(grid, v, 40)
    # the synthesis of the whole stack in one pass, and one inverse
    f = _multiplier_pass(SpectralField(grid, theta[0]), None,
                         lambda _, sl: theta[..., sl], theta.shape[:1])[1]
    digest.update(theta.tobytes() + f.tobytes()
                  + inverse(SpectralField(grid, theta[2])).values.tobytes())
    sv = restrict_sphere(RadialField(grid, v[0]), SphereMeasure(), L_max=40)
    u = SpaceTimeField(grid.with_times(np.linspace(0.0, 0.25, 16)), v)
    gv = restrict_sigma(u, SigmaMeasure(), L_max=12, n_alpha=12)
    for a in (sv.theta_plus, sv.theta_minus, gv.theta_plus, gv.theta_minus):
        digest.update(a.tobytes())
    # the flows of a radial field and of a spectrum, and Duhamel
    times = np.linspace(0.0, 0.5, 9)
    u1 = SpectralField(grid, theta[1] * (np.abs(grid.lam) > 1.0))
    sf = SpectralField(grid, theta[3])
    st, energy = _wave(RadialField(grid, v[0]), u1, times)
    digest.update(_schrodinger(RadialField(grid, v[0]), 40, times).values.tobytes()
                  + st.values.tobytes() + energy.tobytes())
    digest.update(schrodinger_evolve(CauchyDataS(sf), times).values.tobytes()
                  + wave_evolve(CauchyDataW(sf, u1), times).values.tobytes())
    source = lambda t: SpectralField(grid, np.cos(t) * theta[4])
    digest.update(duhamel(CauchyDataS(sf), source, times).values.tobytes())
digest.update(np.float64(translate_identity_check()["max_rel_err"]).tobytes())
digest.update(wave_decay_probe()["sup_norms"].tobytes())
sys.stdout.write(digest.hexdigest())
"""


def test_band_contraction_bytes_do_not_depend_on_thread_count():
    """forward, the synthesis pass (of a stack, `inverse`, the Schrodinger
    and wave flows of a radial field and of a spectrum, and `duhamel`), the
    sphere and paraboloid restrictions and the wave decay probe reach BLAS
    gemm, and the translate-identity check sums a 3-D quadrature;
    their results must not depend on how many threads HH_THREADS gives the
    BLAS pool."""
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

