"""Grids, mixed norms, translations, dilations, and the Gaussian closures."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.special import roots_legendre

from hharm.fields import (
    GaussianClosure,
    Grid,
    MixedNormSpec,
    RadialField,
    SpaceTimeField,
    dilate,
    l2_inner,
    l2_norm,
    mixed_norm,
    radial_weights_finite,
    random_packet,
    s_analysis,
    s_synthesis,
    s_translate,
    sample_packets,
)

G = Grid(d=1, n_rho=128, r_max=12.0, n_s=256, s_half=40.0)


def gaussian_field(grid=G, a=1.0, b=1.0 / 9.0):
    vals = np.exp(-a * grid.rho[:, None] ** 2) * np.exp(-b * grid.s[None, :] ** 2)
    return RadialField(grid, vals)


def test_grid_nodes_and_weights():
    # radial weights carry the full surface measure: sum = |B_{r_max}| in C^d
    assert abs(G.w_radial.sum() - np.pi * G.r_max**2) < 1e-9
    assert np.all(np.diff(G.lam) > 0)
    assert G.lam[G.izero] == 0.0
    assert abs(G.lam[G.izero + 1] - np.pi / G.s_half) < 1e-14
    assert G.s[G.n_s // 2] == 0.0
    assert abs(G.h_s - 2 * G.s_half / G.n_s) < 1e-15
    assert np.all((G.rho > 0) & (G.rho < G.r_max))


GEOMETRY = dict(d=1, n_rho=16, r_max=12.0, n_s=32, s_half=40.0)


@pytest.mark.parametrize("kw, frag", [
    ({"n_s": 0}, "n_s must be an int >= 1"),
    ({"n_s": -2}, "n_s must be an int >= 1"),
    ({"n_s": 32.0}, "n_s must be an int >= 1"),
    ({"n_rho": 0}, "n_rho must be an int >= 1"),
    ({"d": 0}, "d must be an int >= 1"),
    ({"r_max": 0.0}, "r_max and s_half"),
    ({"r_max": np.inf}, "r_max and s_half"),
    ({"s_half": 0.0}, "r_max and s_half"),
    ({"s_half": -40.0}, "r_max and s_half"),
    ({"s_half": np.nan}, "r_max and s_half"),
    ({"d": 150}, "radial weights overflow"),  # rho^299 at rho near 12
    ({"d": 200}, "radial weights overflow"),  # 199! is beyond a float
    ({"r_max": 1e300}, "radial weights overflow"),  # w_rho * rho at d = 1
])
def test_grid_rejects_bad_geometry(kw, frag):
    with pytest.raises(ValueError, match=frag):
        Grid(**dict(GEOMETRY, **kw))


@pytest.mark.parametrize("r_max", [0.5, 12.0, 40.0])
def test_radial_weights_finite_matches_the_grid(r_max):
    """Every accepted (d, r_max) builds finite radial weights, and the
    accepted d form one range from d = 1."""
    accepted = [d for d in range(1, 220) if radial_weights_finite(d, r_max)]
    assert accepted == list(range(1, len(accepted) + 1))
    for d in accepted[-3:] + [1, 2]:
        assert np.isfinite(Grid(d=d, n_rho=8, r_max=r_max, n_s=8).w_radial).all()
    assert radial_weights_finite(2, 12.0) and not radial_weights_finite(150, 12.0)


def test_grids_share_one_gauss_legendre_rule(tmp_path, monkeypatch):
    """Grids with the same n_rho (a `with_times` copy, `cfg.grid()`, a
    re-read file's grid) build their nodes from one read-only rule."""
    from hharm import fields
    from hharm.config import RunConfig
    from hharm.container import read_hhfld, write_hhfld

    calls = []

    def counting(n):
        calls.append(n)
        return roots_legendre(n)

    monkeypatch.setattr(fields, "roots_legendre", counting)
    fields._legendre_rule.cache_clear()
    g = Grid(d=1, n_rho=37, r_max=10.0, n_s=16, s_half=5.0)
    gt = g.with_times([0.0, 1.0])
    cfg = RunConfig(n_rho=37, r_max=10.0, n_s=16, s_half=5.0)
    assert np.array_equal(cfg.grid().rho, g.rho) and np.array_equal(gt.w_rho, g.w_rho)
    write_hhfld(tmp_path / "f.hhfld", SpaceTimeField(gt, np.ones((2, 37, 16))))
    read_hhfld(tmp_path / "f.hhfld")
    Grid(d=2, n_rho=37, r_max=3.0, n_s=8, s_half=1.0)
    assert calls == [37]
    x, w = fields._legendre_rule(37)
    with pytest.raises(ValueError):
        x[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_grid_refuses_n_rho_above_the_cap(monkeypatch):
    """The cap is checked before the Gauss-Legendre rule, whose cost grows as
    n_rho^2."""
    from hharm import fields

    def no_rule(n):
        raise AssertionError("a Gauss-Legendre rule was built")

    monkeypatch.setattr(fields, "roots_legendre", no_rule)
    assert fields.N_RHO_MAX == 8192
    with pytest.raises(ValueError, match="n_rho must be <= 8192"):
        Grid(n_rho=fields.N_RHO_MAX + 1)


def test_radial_field_shape_guard():
    with pytest.raises(ValueError):
        RadialField(G, np.zeros((3, 3)))


def test_spacetime_field_stores_c_order():
    """Reductions such as mixed_norm sum in memory order, so the stored values
    are C-contiguous whatever layout they arrive in."""
    vals = np.zeros((G.n_s, G.n_rho, 2), dtype=complex)
    u = SpaceTimeField(G.with_times([0.0, 1.0]), vals.T)  # (2, n_rho, n_s), strided
    assert u.values.flags.c_contiguous


def test_l2_norm_gaussian_closed_form():
    # |f|^2 = 2 pi int rho e^{-2 rho^2} drho * int e^{-2 s^2 / 9} ds
    #       = (pi/2) * 3 sqrt(pi/2)
    f = gaussian_field()
    expect = np.sqrt((np.pi / 2) * 3.0 * np.sqrt(np.pi / 2))
    assert abs(l2_norm(f) - expect) / expect < 1e-12
    assert abs(l2_inner(f, f).real - l2_norm(f) ** 2) < 1e-12
    assert abs(l2_inner(f, f).imag) < 1e-15


@pytest.mark.parametrize("n_rho, n_s, n_t", [(96, 320, 6), (40, 70, 3), (32, 64, 1)])
def test_l2_norm_of_spacetime_field_is_per_time(n_rho, n_s, n_t):
    """A SpaceTimeField's l2_norm is the (n_t,) array of its per-time norms,
    bit-equal to the norm of each time's RadialField."""
    rng = np.random.default_rng(3)
    space = Grid(d=2, n_rho=n_rho, n_s=n_s)
    vals = rng.standard_normal((n_t, n_rho, n_s)) + 1j * rng.standard_normal((n_t, n_rho, n_s))
    got = l2_norm(SpaceTimeField(space.with_times(np.linspace(0.0, 1.0, n_t)), vals))
    want = np.array([l2_norm(RadialField(space, v)) for v in vals])
    assert got.shape == (n_t,)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n_rho, n_s, n_t",
                         [(96, 256, 5), (256, 512, 6), (40, 70, 3), (128, 256, 9), (32, 64, 1)])
def test_l2_inner_of_spacetime_fields_is_per_time(n_rho, n_s, n_t):
    """l2_inner of two SpaceTimeFields is the (n_t,) array of the per-time
    inner products, bit-equal to the inner product of each time's pair."""
    rng = np.random.default_rng(4)
    space = Grid(d=1, n_rho=n_rho, n_s=n_s)
    grid = space.with_times(np.linspace(0.0, 1.0, n_t))
    u, v = (rng.standard_normal((n_t, n_rho, n_s)) + 1j * rng.standard_normal((n_t, n_rho, n_s))
            for _ in range(2))
    got = l2_inner(SpaceTimeField(grid, u), SpaceTimeField(grid, v))
    want = np.array([l2_inner(RadialField(space, a), RadialField(space, b))
                     for a, b in zip(u, v)])
    assert got.shape == (n_t,)
    assert np.array_equal(got, want)


def test_l2_inner_refuses_fields_on_different_grids():
    """Two samples of one closure on s-boxes of half-width 20 and 40 were
    paired with the first grid's weights (0.716)."""
    closure = GaussianClosure()
    f = closure.sample(Grid(d=1, n_rho=64, n_s=128, s_half=20.0))
    g = closure.sample(Grid(d=1, n_rho=64, n_s=128, s_half=40.0))
    with pytest.raises(ValueError, match="different grids"):
        l2_inner(f, g)


def test_l2_inner_refuses_spacetime_fields_on_different_times():
    """Two fields at times [0, 1] and [0, 5] were paired as if their times
    agreed (36191.15 at each time)."""
    g = Grid(**GEOMETRY)
    vals = np.ones((2, g.n_rho, g.n_s))
    u = SpaceTimeField(g.with_times([0.0, 1.0]), vals)
    v = SpaceTimeField(g.with_times([0.0, 5.0]), vals)
    with pytest.raises(ValueError, match="different grids"):
        l2_inner(u, v)
    assert u.grid.compatible(g.with_times([0.0, 1.0]))
    assert not g.compatible(u.grid) and not u.grid.compatible(g)


def test_l2_inner_refuses_a_radial_and_a_spacetime_field():
    """A RadialField against a two-time SpaceTimeField was broadcast into one
    complex, twice the field's own inner product."""
    f = GaussianClosure().sample(Grid(d=1, n_rho=64, n_s=128))
    u = SpaceTimeField(f.grid.with_times([0.0, 1.0]), np.stack([f.values, f.values]))
    for a, b in ((f, u), (u, f)):
        with pytest.raises(ValueError, match="one kind and shape"):
            l2_inner(a, b)


@pytest.mark.parametrize("p,q", [(2.0, 4.0), (3.0, 1.0), (2.0, np.inf)])
def test_mixed_norm_separable_product(p, q):
    """For f = g(rho) h(s) the iterated norm factors into 1-d norms."""
    f = gaussian_field()
    g1d = np.exp(-G.rho**2)
    h1d = np.exp(-G.s**2 / 9.0)
    ny = (np.sum(g1d**p * G.w_radial)) ** (1.0 / p)
    if q == np.inf:
        ns = h1d.max()
    else:
        ns = (np.sum(h1d**q) * G.h_s) ** (1.0 / q)
    got = mixed_norm(f, MixedNormSpec((q, p), ("s", "Y")))
    assert abs(got - ny * ns) / (ny * ns) < 1e-12


def test_mixed_norm_axis_order_matters():
    rng = np.random.default_rng(0)
    f = RadialField(G, rng.standard_normal((G.n_rho, G.n_s)))
    a = mixed_norm(f, MixedNormSpec((1.0, np.inf), ("s", "Y")))
    b = mixed_norm(f, MixedNormSpec((np.inf, 1.0), ("Y", "s")))
    assert abs(a - b) > 1e-3  # iterated norms do not commute


def test_mixed_norm_spec_validation():
    with pytest.raises(ValueError):
        MixedNormSpec((2,), ("Y", "s"))
    with pytest.raises(ValueError):
        MixedNormSpec((0.5, 2), ("Y", "s"))
    with pytest.raises(ValueError):
        MixedNormSpec((2, 2), ("Y", "Y"))
    with pytest.raises(ValueError):
        mixed_norm(gaussian_field(), MixedNormSpec((2,), ("Y",)))


def test_s_analysis_synthesis_roundtrip_and_parseval():
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((G.n_rho, G.n_s)) + 1j * rng.standard_normal(
        (G.n_rho, G.n_s)
    )
    theta = s_analysis(G, vals)
    back = s_synthesis(G, theta)
    assert np.max(np.abs(back - vals)) < 1e-12
    # Parseval on the s-line: h_s sum |f|^2 = sum |theta|^2 / (2 s_half)
    lhs = G.h_s * np.sum(np.abs(vals) ** 2)
    rhs = np.sum(np.abs(theta) ** 2) / (2 * G.s_half)
    assert abs(lhs - rhs) / lhs < 1e-13


def test_s_synthesis_writes_one_c_ordered_buffer():
    """A lam-major strided input (as the band contraction hands it over)
    comes back C-ordered, bit-equal to the phase, ifftshift, ifft, / h_s
    sequence."""
    rng = np.random.default_rng(2)
    lam_major = rng.standard_normal((G.n_s, G.n_rho, 3)) + 1j * rng.standard_normal(
        (G.n_s, G.n_rho, 3)
    )
    theta = lam_major.T  # (3, n_rho, n_s), strided
    phase = np.exp(-1j * G.s_half * G.lam)
    ref = np.fft.ifft(np.fft.ifftshift(theta * phase, axes=-1), axis=-1) / G.h_s
    out = s_synthesis(G, theta)
    assert out.flags.c_contiguous and np.array_equal(out, ref)


def test_s_translate_integer_steps_exact():
    f = gaussian_field()
    shifted = s_translate(f, 7 * G.h_s)
    assert np.array_equal(shifted.values, np.roll(f.values, 7, axis=1))


def test_s_translate_fractional_matches_closure():
    # f(s - s0) picks up e^{-i omega s0} relative to recentering the envelope;
    # omega stays well inside the lam band so the interpolant is faithful
    c0 = GaussianClosure(d=1, a=1.0, b=0.4, omega=2.0, s0=0.0)
    c1 = GaussianClosure(d=1, a=1.0, b=0.4, omega=2.0, s0=0.37)
    moved = s_translate(c0.sample(G), 0.37)
    ref = c1.sample(G).values * np.exp(-1j * c0.omega * 0.37)
    err = np.max(np.abs(moved.values - ref)) / np.max(np.abs(ref))
    assert err < 1e-10
    # isometry of the trigonometric interpolant
    assert abs(l2_norm(moved) - l2_norm(c0.sample(G))) < 1e-12


def test_dilate_gaussian_closed_form():
    f = gaussian_field(a=1.0, b=1.0 / 9.0)
    a = 1.25
    num = dilate(f, a)
    exact = np.exp(-(a * G.rho[:, None]) ** 2) * np.exp(
        -((a**2) * G.s[None, :]) ** 2 / 9.0
    )
    assert np.max(np.abs(num.values - exact)) < 1e-10


def test_dilate_truncation_warning_and_guards():
    wide = RadialField(
        G,
        np.exp(-G.rho[:, None] ** 2 / 64.0) * np.exp(-G.s[None, :] ** 2 / 3000.0),
    )
    with pytest.warns(UserWarning, match="truncated"):
        dilate(wide, 1.25)
    with pytest.raises(ValueError):
        dilate(gaussian_field(), 0.0)


def test_dilate_bitwise_reproducible():
    f = gaussian_field()
    a = dilate(f, 1.25).values
    b = dilate(RadialField(f.grid, f.values.copy()), 1.25).values
    assert np.array_equal(a, b)


def test_gaussian_closure_spectrum_matches_fft():
    # the closure's analytic s-transform against the grid DFT of its samples
    c = GaussianClosure(d=1, a=0.8, b=0.4, omega=2.0, s0=0.2, amp=1.3 - 0.4j)
    f = c.sample(G)
    theta = s_analysis(G, f.values)
    ref = np.exp(-c.a * G.rho[:, None] ** 2) * c.phat(G.lam)[None, :]
    assert np.max(np.abs(theta - ref)) / np.max(np.abs(ref)) < 1e-12


def test_random_packet_deterministic_and_sampled():
    parts = random_packet(np.random.default_rng(5), n_terms=3)
    again = random_packet(np.random.default_rng(5), n_terms=3)
    assert len(parts) == 3
    for p, q in zip(parts, again):
        assert p == q
    f = sample_packets(parts, G)
    total = sum(p.values(G.rho[:, None], G.s[None, :]) for p in parts)
    assert np.array_equal(f.values, np.asarray(total, dtype=complex))


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("grid_kw", [dict(n_rho=64, n_s=128, s_half=20.0),
                                     dict(n_rho=256, n_s=512, s_half=40.0)])
def test_sampled_packets_have_the_bytes_of_values(d, grid_kw):
    """sample() and sample_packets build the samples from 1-D factors in one
    buffer; the bytes equal those of values() on the 2-D grid, summed."""
    grid = Grid(d=d, **grid_kw)
    rho, s = grid.rho[:, None], grid.s[None, :]
    parts = random_packet(np.random.default_rng(50 + d), d=d, n_terms=3)
    parts.append(GaussianClosure(d=d, a=0.9, b=0.5, omega=-1.5, s0=0.3, amp=0.7 + 0.2j))
    total = np.zeros((grid.n_rho, grid.n_s), dtype=complex)
    for p in parts:
        assert p.sample(grid).values.tobytes() == p.values(rho, s).tobytes()
        total += p.values(rho, s)
    assert sample_packets(parts, grid).values.tobytes() == total.tobytes()
