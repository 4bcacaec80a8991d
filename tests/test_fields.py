"""Grids, mixed norms, translations, dilations, and the Gaussian closures."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from scipy.special import roots_legendre

from hharm import fields
from hharm.config import ConfigError, RunConfig

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
    ({"n_s": 32.0}, "n_s must be an integer"),
    ({"n_rho": 0}, "n_rho must be an int >= 1"),
    ({"d": 0}, "d must be an int >= 1"),
    ({"r_max": 0.0}, "r_max must be finite and positive"),
    ({"r_max": np.inf}, "r_max must be finite and positive"),
    ({"s_half": 0.0}, "s_half must be finite and positive"),
    ({"s_half": -40.0}, "s_half must be finite and positive"),
    ({"s_half": np.nan}, "s_half must be finite and positive"),
    ({"d": 150}, "radial weights overflow"),  # rho^299 at rho near 12
    ({"d": 200}, "radial weights overflow"),  # 199! is beyond a float
    ({"r_max": 1e300}, "radial weights overflow"),  # w_rho * rho at d = 1
    ({"r_max": 10**400}, "r_max must be finite and positive"),  # was a TypeError
    ({"s_half": True}, "s_half must be finite and positive"),  # was taken as 1
    ({"r_max": 5e-324}, "radial weights underflow"),  # built with rho = 0
])
def test_grid_rejects_bad_geometry(kw, frag):
    with pytest.raises(ValueError, match=frag):
        Grid(**dict(GEOMETRY, **kw))


@pytest.mark.parametrize("t_nodes", [[np.nan, 0.1], [0.0, np.inf], [-np.inf],
                                     [[0.0, 0.1]], 0.5,
                                     # checked before a cast, which gave OverflowError,
                                     # TypeError, a ComplexWarning and t = [0, 1],
                                     # ValueError, and t = [1, 0]
                                     [10**400], [1 + 2j], np.array([0, 1 + 2j]),
                                     ["0.1", "0.2"], [True, False]])
def test_grid_refuses_a_time_axis_that_is_not_1d_and_finite(t_nodes):
    """Every evolution takes its times through `with_times`, so this is where
    a NaN or infinite time is refused (they gave non-finite fields)."""
    g = Grid(**GEOMETRY)
    for make in (lambda: g.with_times(t_nodes), lambda: Grid(**GEOMETRY, t_nodes=t_nodes)):
        with pytest.raises(ValueError, match="t_nodes must be a 1-D array of finite times"):
            make()


def _builds(**kw):
    """Whether the geometry rule accepts kw (the other fields valid)."""
    try:
        fields._check_geometry(**dict(GEOMETRY, **kw))
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("r_max", [0.5, 12.0, 40.0])
def test_radial_weights_finite_matches_the_grid(r_max):
    """Every (d, r_max) the geometry rule accepts builds finite radial
    weights, and the accepted d form one range from d = 1."""
    accepted = [d for d in range(1, 220) if _builds(d=d, r_max=r_max)]
    assert accepted == list(range(1, len(accepted) + 1))
    for d in accepted[-3:] + [1, 2]:
        assert np.isfinite(Grid(d=d, n_rho=8, r_max=r_max, n_s=8).w_radial).all()
    assert _builds(d=2, r_max=12.0) and not _builds(d=150, r_max=12.0)


@pytest.mark.parametrize("kw", [{"s_half": 1e308}, {"s_half": 5e-324},
                                {"n_s": 2**1100}, {"d": 100, "s_half": 1e-3}])
def test_grid_and_config_refuse_an_s_axis_that_is_not_finite(kw):
    """h_s = 2 s_half / n_s must be finite and > 0, and dlam |lam|^d finite at
    the largest |lam| = pi (n_s/2) / s_half; decided before any array is
    built.  Before this check s_half = 1e308 gave h_s = inf, 5e-324 gave
    lam = -inf, and n_s = 2**1100 raised OverflowError."""
    with pytest.raises(ValueError, match="s-axis step or spectral weights"):
        Grid(**dict(GEOMETRY, **kw))
    with pytest.raises(ConfigError, match="s-axis step or spectral weights"):
        RunConfig(**dict(GEOMETRY, n_rho=8, **kw))


def test_compatible_is_true_for_the_grid_itself():
    for g in (G, G.with_times([0.0, 0.5]), Grid(**GEOMETRY, t_nodes=[1])):
        assert g.compatible(g) and g.compatible(replace(g))
    assert not G.compatible(G.with_times([0.0]))


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


def test_grid_refuses_n_s_above_the_cap(monkeypatch):
    """n_s = 2**40 was accepted, and its s and lam arrays are 8 TB each; the
    cap is checked before the Gauss-Legendre rule or any array."""
    def no_rule(n):
        raise AssertionError("a Gauss-Legendre rule was looked up")

    monkeypatch.setattr(fields, "_legendre_rule", no_rule)
    assert fields.N_S_MAX == 2**16
    for n_s in (fields.N_S_MAX + 2, 2**40):
        with pytest.raises(ValueError, match="n_s must be <= 65536"):
            Grid(n_rho=8, n_s=n_s)
        with pytest.raises(ConfigError, match="n_s must be <= 65536"):
            RunConfig(n_rho=8, n_s=n_s)


@pytest.mark.parametrize("n_rho", [1, 2, 8, 64, 300])
def test_grid_refuses_an_r_max_whose_radial_nodes_underflow(n_rho):
    """r_max = 5e-324 built a grid with rho = 0 and w_radial = 0 at every
    node.  Every r_max whose smallest node r_max (1 + x_1)/2 is not a normal
    float (1 + x_1 >= 2 sin^2(pi/(4n+2)) by Bruns' bound) is refused by the
    radial-weight rule, and so is every r_max from 2.5 times that edge up to
    1e-290, where the nodes are normal but every radial weight is 0 at d = 1.
    An accepted grid's nodes are normal."""
    tiny = np.finfo(float).tiny
    x1 = fields._legendre_rule(n_rho)[0][0]
    bound = 2.0 * np.sin(np.pi / (4 * n_rho + 2)) ** 2
    assert 2.0 * bound <= x1 + 1.0 < 2.5 * bound
    edge = tiny / (0.5 * (x1 + 1.0))  # the smallest r_max whose node is normal
    for r_max in (5e-324, 1e-310, edge / 2, np.nextafter(edge, 0)):
        with pytest.raises(ValueError, match="radial weights underflow"):
            fields._check_geometry(**dict(GEOMETRY, n_rho=n_rho, r_max=float(r_max)))
    for r_max in (2.5 * edge, 1e-290):
        with pytest.raises(ValueError, match="radial weights underflow"):
            fields._check_geometry(**dict(GEOMETRY, n_rho=n_rho, r_max=float(r_max)))
    grid = Grid(d=1, n_rho=n_rho, r_max=1e-100, n_s=8, s_half=4.0)
    assert grid.rho[0] >= 2.0 * tiny


@pytest.mark.parametrize("n_rho", [1, 2, 8, 300, 8192])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_the_weight_rule_refuses_every_r_max_the_node_rule_refused(d, n_rho):
    """The node rule refused r_max below tiny / sin^2(pi/(4 n_rho + 2)), which
    is below 2.5 times the smallest node's edge, and the weight rule's bound
    grows with r_max, so refusing 2.5 times the edge refuses every r_max the
    node rule did; each gets the weight message."""
    tiny = np.finfo(float).tiny
    x1 = fields._legendre_rule(n_rho)[0][0]
    edge = tiny / (0.5 * (x1 + 1.0))
    assert tiny / np.sin(np.pi / (4 * n_rho + 2)) ** 2 < 2.5 * edge
    for r_max in (5e-324, edge / 2, np.nextafter(edge, 0), edge, 2.5 * edge):
        with pytest.raises(ValueError, match="radial weights underflow"):
            Grid(d=d, n_rho=n_rho, r_max=float(r_max), n_s=8, s_half=4.0)


@pytest.mark.parametrize("kw", [dict(d=3, n_rho=8, r_max=1e-100),
                                dict(d=1, n_rho=8, r_max=1e-300),
                                dict(d=2, n_rho=256, r_max=1e-80)])
def test_grid_refuses_a_geometry_whose_radial_weights_underflow(kw, monkeypatch):
    """These built with normal nodes and w_radial = 0 at every node, so the
    l2_norm of an all-ones field was 0.0.  Refused before any Gauss-Legendre
    rule is looked up; RunConfig's refusal is a ConfigError (exit 2)."""
    def no_rule(n):
        raise AssertionError("a Gauss-Legendre rule was looked up")

    monkeypatch.setattr(fields, "_legendre_rule", no_rule)
    geometry = dict(kw, n_s=8, s_half=4.0)
    with pytest.raises(ValueError, match="radial weights underflow"):
        Grid(**geometry)
    with pytest.raises(ConfigError, match="radial weights underflow"):
        RunConfig(**geometry)


def test_grid_keeps_a_geometry_with_a_zero_first_weight_only():
    """At d = 100, r_max = 1 the first weights underflow to 0 but the largest
    is normal: accepted, with a positive L^2 norm."""
    grid = Grid(d=100, n_rho=256, r_max=1.0, n_s=8, s_half=4.0)
    assert grid.w_radial[0] == 0.0 and grid.w_radial.max() >= np.finfo(float).tiny
    assert l2_norm(RadialField(grid, np.ones((256, 8)))) > 0.0


def _log_largest_weight(d, n_rho, r_max):
    """The log of the largest radial weight, from the rule (no underflow)."""
    x, w = fields._legendre_rule(n_rho)
    return float(np.max(np.log(fields.sphere_area(d)) + 2 * d * np.log(r_max / 2.0)
                        + (2 * d - 1) * np.log1p(x) + np.log(w)))


@pytest.mark.parametrize("d, n_rho", [(1, 1), (1, 8), (1, 8192), (2, 3), (3, 64),
                                      (10, 3), (100, 8), (100, 256), (171, 3), (171, 1024)])
def test_radial_weight_rule_is_within_a_factor_2_of_the_edge(d, n_rho):
    """The rule's bound never exceeds the largest weight, so every r_max whose
    largest weight is below 2^-1021 is refused, and every r_max from 2 times
    that edge on is accepted, with a largest weight of at least 2^-1021."""
    floor = np.log(2.0 * np.finfo(float).tiny)
    # the edge: the largest weight scales as r_max^{2d}
    edge = np.exp((floor - _log_largest_weight(d, n_rho, 1.0)) / (2 * d))
    assert not _builds(d=d, n_rho=n_rho, r_max=float(edge * (1 - 1e-9)))
    assert _builds(d=d, n_rho=n_rho, r_max=float(2.0 * edge))
    grid = Grid(d=d, n_rho=n_rho, r_max=float(2.0 * edge), n_s=8, s_half=4.0)
    assert grid.w_radial.max() >= 2.0 * np.finfo(float).tiny


@pytest.mark.parametrize("r_max, n_rho", [(12.0, 256), (12, 64), (7, 1), (1e-100, 8),
                                          (3.5e10, 300), (10**20, 16)])
def test_grid_nodes_and_weights_are_the_interval_rule(r_max, n_rho):
    """`Grid` takes rho and w_rho from `_gauss_rule` on [0, r_max], bit for bit
    the map 0.5 r_max (x + 1), 0.5 r_max w it wrote by hand (an int r_max too)."""
    grid = Grid(d=1, n_rho=n_rho, r_max=r_max, n_s=8, s_half=4.0)
    rho, w_rho = fields._gauss_rule(0.0, r_max, n_rho)
    x, w = fields._legendre_rule(n_rho)
    for got, want in ((grid.rho, rho), (grid.w_rho, w_rho),
                      (rho, 0.5 * r_max * (x + 1.0)), (w_rho, 0.5 * r_max * w)):
        assert got.tobytes() == want.tobytes()


def test_l2_norm_of_spacetime_field_makes_one_float_array():
    """A memory bound, not a timing: |u| is the one field-sized float array
    the norm allocates (the powers and weights were three)."""
    import tracemalloc

    rng = np.random.default_rng(4)
    shape = (9, 64, 128)
    u = SpaceTimeField(Grid(d=1, n_rho=64, n_s=128, t_nodes=np.linspace(0.0, 1.0, 9)),
                       rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    tracemalloc.start()
    try:
        l2_norm(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * u.values.real.nbytes


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


@pytest.mark.parametrize("a", [np.nan, np.inf, -1.0, True])
def test_dilate_refuses_a_factor_that_is_not_finite_and_positive(a):
    """NaN and inf gave an all-zero field, and True dilated by 1."""
    with pytest.raises(ValueError, match="dilation factor a must be finite and positive"):
        dilate(gaussian_field(), a)


@pytest.mark.parametrize("s0", [np.nan, np.inf, -np.inf, 1e308])
def test_s_translate_refuses_a_shift_that_is_not_finite(s0):
    """inf raised OverflowError from round() and NaN failed inside it; 1e308
    is finite but not in steps of h_s = 0.3125."""
    with pytest.raises(ValueError, match="shift s0 must be finite"):
        s_translate(gaussian_field(), s0)


def test_dilate_bitwise_reproducible():
    f = gaussian_field()
    a = dilate(f, 1.25).values
    b = dilate(RadialField(f.grid, f.values.copy()), 1.25).values
    assert np.array_equal(a, b)


def test_barycentric_resample_reads_the_legendre_store(monkeypatch):
    """The rho resample of `dilate` takes its nodes and weights from
    `_legendre_rule(n_rho)`, not from inverting the grid's map (which gives
    other bytes on the default grid), and resamples with them bit for bit."""
    grid = Grid()
    x, w = fields._legendre_rule(grid.n_rho)
    assert not np.array_equal(2.0 * grid.rho / grid.r_max - 1.0, x)
    looked_up = []
    real = fields._legendre_rule
    monkeypatch.setattr(fields, "_legendre_rule", lambda n: looked_up.append(n) or real(n))
    rng = np.random.default_rng(11)
    values = rng.standard_normal((grid.n_rho, 3)) + 1j * rng.standard_normal((grid.n_rho, 3))
    targets = 1.25 * grid.rho[1.25 * grid.rho <= grid.r_max]
    got = fields._barycentric_resample(grid, values, targets)
    assert looked_up == [grid.n_rho]
    bw = np.sqrt((1.0 - x**2) * w)
    bw[1::2] *= -1.0
    coef = bw / (targets[:, None] - grid.rho)
    want = np.einsum("tj,js->ts", coef, values) / coef.sum(axis=1)[:, None]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_rho", [4, 16, 64])
def test_barycentric_resample_is_exact_on_polynomials_of_degree_n_rho_minus_1(n_rho):
    """Polynomials in rho of degree n_rho - 1 are reproduced at targets off
    the nodes (the midpoints and both ends of [0, r_max]) to 1e-12."""
    grid = Grid(n_rho=n_rho, r_max=12.0, n_s=8, s_half=4.0)
    coef = np.random.default_rng(n_rho).standard_normal((n_rho, 3))

    def poly(r):  # three polynomials in rho, one column each
        return np.polynomial.legendre.legval(2.0 * r / grid.r_max - 1.0, coef).T

    targets = np.concatenate(([0.0], 0.5 * (grid.rho[1:] + grid.rho[:-1]), [grid.r_max]))
    got = fields._barycentric_resample(grid, poly(grid.rho), targets)
    want = poly(targets)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
