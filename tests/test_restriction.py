"""Surface measures on the frequency side: pairings, physical kernels, and
the restriction/extension adjoint pair."""

from __future__ import annotations

import weakref
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hharm import restriction, specfun, transform
from hharm.fields import (
    N_RHO_MAX,
    GaussianClosure,
    _gauss_rule,
    Grid,
    RadialField,
    SpaceTimeField,
    l2_inner,
    random_packet,
    sample_packets,
)
from hharm.restriction import (
    _measure_pairing,
    _ray_kernels,
    _restrict_rays,
    _sphere_rays,
    SigmaMeasure,
    SigmaValues,
    SphereMeasure,
    SphereValues,
    extend_sigma,
    extend_sphere,
    g_function,
    g_sigma,
    restrict_sigma,
    restrict_sphere,
    sigma_norm_sq,
    sigma_pair,
    sphere_norm_sq,
    sphere_pair,
)
from hharm.propagators import CauchyDataS, schrodinger_evolve
from hharm.specfun import _kernel_diag, _mult_table, kept_kernels, multiplicity
from hharm.transform import forward, inverse
from hharm.windows import ball_profile


def test_sphere_pair_constant_total():
    # <d sigma_1, 1> = 2 sum (2l+1)^{-2} = pi^2 / 4 at d = 1
    out = sphere_pair(lambda e, l: np.ones_like(np.asarray(e, dtype=float)),
                      SphereMeasure(1.0), d=1)
    assert abs(out["value"] - np.pi**2 / 4) / (np.pi**2 / 4) < 1e-10
    assert abs(out["tail"]) < 1e-3  # tail integral is small but not ignorable


def test_sphere_pair_radius_scaling_exact():
    theta = lambda e, l: np.ones_like(np.asarray(e, dtype=float))
    v1 = sphere_pair(theta, SphereMeasure(1.0), d=1)["value"]
    v2 = sphere_pair(theta, SphereMeasure(2.0), d=1)["value"]
    assert v2 == 2.0 * v1  # R^d scaling, exact in floating point for R = 2


def test_g_function_origin_and_finiteness():
    val, tail = g_function(0.0, 0.0, d=1)
    assert abs(val - 0.25) < 1e-6
    assert tail < 1e-4
    rho = np.array([0.0, 0.7, 1.5, 3.0])
    s = np.array([-2.0, 0.0, 1.0, 5.0])
    vals, _ = g_function(rho[:, None], s[None, :], d=1)
    assert vals.shape == (4, 4)
    assert np.all(np.isfinite(vals))
    assert np.max(np.abs(vals)) <= 0.2500001  # the origin dominates


def test_g_function_radius_rescaling():
    # G_R(rho, s) = R^d G_1(sqrt(R) rho, R s)
    R = 3.0
    rho, s = 0.9, 1.7
    lhs, _ = g_function(rho, s, d=1, radius=R)
    rhs, _ = g_function(np.sqrt(R) * rho, R * s, d=1, radius=1.0)
    assert abs(lhs - R * rhs) < 1e-10 * abs(lhs)


def test_g_function_doubling_stability():
    a, _ = g_function(0.5, 0.8, d=1, L_max=2048)
    b, _ = g_function(0.5, 0.8, d=1, L_max=4096)
    assert abs(a - b) < 1e-6


def _grid(d):
    return Grid(d=d, n_rho=96, r_max=12.0, n_s=256, s_half=40.0)


GRID = _grid(1)


@pytest.mark.parametrize("d", [1, 2])
def test_restrict_sphere_matches_closure_coefficients(d):
    c = GaussianClosure(d=d, a=1.0, b=0.4, omega=0.6)
    vals = restrict_sphere(c.sample(_grid(d)), SphereMeasure(1.0), L_max=8)
    ells = np.arange(9)
    lam = 1.0 / (2.0 * ells + d)
    ref_p = c.coefficients(ells, lam).diagonal()
    ref_m = c.coefficients(ells, -lam).diagonal()
    scale = np.max(np.abs(ref_p))
    assert np.max(np.abs(vals.theta_plus - ref_p)) / scale < 1e-9
    assert np.max(np.abs(vals.theta_minus - ref_m)) / scale < 1e-9


@pytest.mark.parametrize("d", [1, 2])
def test_sphere_extension_duality(d):
    """<f, E(v)> = (2^{d-1}/pi^{d+1}) <restrict(f), v>_{d sigma} holds to
    rounding: the two sides are algebraic adjoints on the grid."""
    rng = np.random.default_rng(20)
    grid = _grid(d)
    f = RadialField(
        grid,
        rng.standard_normal((grid.n_rho, grid.n_s))
        + 1j * rng.standard_normal((grid.n_rho, grid.n_s)),
    )
    L = 8
    meas = SphereMeasure(1.0)
    v = SphereValues(
        meas, d,
        rng.standard_normal(L + 1) + 1j * rng.standard_normal(L + 1),
        rng.standard_normal(L + 1) + 1j * rng.standard_normal(L + 1),
    )
    lhs = l2_inner(f, extend_sphere(v, grid))
    r = restrict_sphere(f, meas, L_max=L)
    ells = np.arange(L + 1)
    w = np.array([multiplicity(l, d) for l in ells]) / (2.0 * ells + d) ** (d + 1)
    pairing = np.sum(w * (r.theta_plus * np.conj(v.theta_plus)
                          + r.theta_minus * np.conj(v.theta_minus)))
    rhs = (2.0 ** (d - 1) / np.pi ** (d + 1)) * pairing
    assert abs(lhs - rhs) / abs(rhs) < 1e-12


def test_sphere_norm_sq_consistency():
    rng = np.random.default_rng(21)
    v = SphereValues(
        SphereMeasure(1.0), 1,
        rng.standard_normal(5) + 1j * rng.standard_normal(5),
        rng.standard_normal(5) + 1j * rng.standard_normal(5),
    )
    ells = np.arange(5)
    w = 1.0 / (2.0 * ells + 1.0) ** 2
    ref = np.sum(w * (np.abs(v.theta_plus) ** 2 + np.abs(v.theta_minus) ** 2))
    assert abs(sphere_norm_sq(v) - ref) < 1e-14


def test_sigma_origin_ratio():
    """g(0,0,0) / <d Sigma, 1> = 2^{3d+2} / pi^d (= 32/pi at d=1), independent
    of the window psi; both sides integrate alpha^d psi against constants."""
    out = g_sigma(0.0, 0.0, 0.0)
    pair = sigma_pair(
        lambda al, e, l: np.ones_like(np.asarray(al, dtype=float)),
        SigmaMeasure(), d=1,
    )
    ratio = out["value"].real / pair["value"]
    assert abs(ratio - 32.0 / np.pi) / (32.0 / np.pi) < 1e-5
    assert out["refinement_delta"] <= 1e-8 * (1.0 + abs(out["value"]))


@pytest.mark.parametrize("d", [1, 2])
def test_sigma_extension_duality(d):
    rng = np.random.default_rng(22)
    grid = _grid(d)
    times = np.linspace(0.0, 0.25, 4)
    gt = grid.with_times(times)
    u = SpaceTimeField(
        gt,
        rng.standard_normal((4, grid.n_rho, grid.n_s))
        + 1j * rng.standard_normal((4, grid.n_rho, grid.n_s)),
    )
    meas = SigmaMeasure()
    L, n_a = 6, 10
    r = restrict_sigma(u, meas, L_max=L, n_alpha=n_a)
    v = SigmaValues(
        meas, d, r.alpha, r.alpha_weights,
        rng.standard_normal((n_a, L + 1)) + 1j * rng.standard_normal((n_a, L + 1)),
        rng.standard_normal((n_a, L + 1)) + 1j * rng.standard_normal((n_a, L + 1)),
    )
    ext = extend_sigma(v, gt)
    lhs = np.sum(
        gt.w_t[:, None, None] * grid.w_radial[None, :, None] * grid.h_s
        * u.values * np.conj(ext.values)
    )
    ells = np.arange(L + 1)
    c = 1.0 / (4.0 * (2.0 * ells + d))
    wl = np.array([multiplicity(l, d) for l in ells]) * c ** (d + 1)
    wq = r.alpha_weights * r.alpha**d * meas.window(r.alpha)
    pairing = np.sum(
        wq[:, None] * wl[None, :]
        * (r.theta_plus * np.conj(v.theta_plus) + r.theta_minus * np.conj(v.theta_minus))
    )
    rhs = (2.0 ** (d - 1) / np.pi ** (d + 1)) * pairing
    assert abs(lhs - rhs) / abs(rhs) < 1e-10


def test_sigma_extension_reproduces_free_evolution():
    """With psi == 1 on the data's eigenvalue support, extending the trace of
    a Schrodinger datum reproduces its free flow (chart alpha = eigenvalue)."""
    from hharm.transform import SpectralField

    bigg = Grid(d=1, n_rho=96, r_max=12.0, n_s=320, s_half=20.0)
    meas = SigmaMeasure(window=lambda a: ball_profile(np.asarray(a) / 220.0),
                        support=(0.0, 220.0))
    amps = np.array([1.0, 0.6])

    def theta0(ell, lam):
        lam = np.asarray(lam, dtype=float)
        return amps[ell] * np.exp(-((lam - 2.2) ** 2) / (2.0 * 0.38**2))

    times = np.linspace(0.0, 0.12, 3)
    al, wa = _gauss_rule(*meas.support, 700)
    cs = 1.0 / (4.0 * (2.0 * np.arange(2) + 1.0))
    tp = np.stack([theta0(l, al * cs[l]) for l in range(2)], axis=1)
    tm = np.stack([theta0(l, -al * cs[l]) for l in range(2)], axis=1)
    vals = SigmaValues(meas, 1, al, wa, tp, tm)
    u_ext = extend_sigma(vals, bigg.with_times(times))

    theta_grid = np.stack([theta0(l, bigg.lam) for l in range(2)])
    ref = schrodinger_evolve(CauchyDataS(SpectralField(bigg, theta_grid)), times)
    num = np.sqrt(np.sum(np.abs(u_ext.values - ref.values) ** 2))
    den = np.sqrt(np.sum(np.abs(ref.values) ** 2))
    assert num / den < 1e-6


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 3),
    n_rho=st.integers(2, 24),
    half_n_s=st.integers(1, 16),
    L_max=st.integers(0, 6),
    n_alpha=st.integers(1, 6),
    radius=st.floats(0.1, 5.0),
    n_t=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_adjoint_identities_property(d, n_rho, half_n_s, L_max, n_alpha, radius, n_t, seed):
    """Both restriction/extension pairs are adjoints to rounding.  The right
    sides are built here from the measure definitions: comb for the
    multiplicity and numpy's Gauss-Legendre rule on supp(psi)."""
    rng = np.random.default_rng(seed)
    n_s = 2 * half_n_s
    grid = Grid(d=d, n_rho=n_rho, r_max=6.0, n_s=n_s, s_half=10.0)
    gt = grid.with_times(np.linspace(0.0, 0.3, n_t))
    dYds = grid.w_radial[:, None] * grid.h_s
    ells = np.arange(L_max + 1)
    mult = np.array([comb(l + d - 1, l) for l in ells], dtype=float)
    const = 2.0 ** (d - 1) / np.pi ** (d + 1)

    def assert_adjoint(lhs_terms, rhs_terms):
        lhs, rhs = np.sum(lhs_terms), const * np.sum(rhs_terms)
        scale = np.sum(np.abs(lhs_terms)) + const * np.sum(np.abs(rhs_terms))
        assert abs(lhs - rhs) <= 1e-10 * scale

    sphere = SphereMeasure(radius)
    f = RadialField(grid, _cplx(rng, n_rho, n_s))
    v = SphereValues(sphere, d, _cplx(rng, L_max + 1), _cplx(rng, L_max + 1))
    r = restrict_sphere(f, sphere, L_max=L_max)
    w = mult * radius**d / (2.0 * ells + d) ** (d + 1)
    assert_adjoint(
        dYds * f.values * np.conj(extend_sphere(v, grid).values),
        w * (r.theta_plus * np.conj(v.theta_plus) + r.theta_minus * np.conj(v.theta_minus)),
    )

    sigma = SigmaMeasure()
    a0, a1 = sigma.support
    x, wx = np.polynomial.legendre.leggauss(n_alpha)
    al = 0.5 * (a1 - a0) * (x + 1.0) + a0
    wq = 0.5 * (a1 - a0) * wx * al**d * sigma.window(al)
    u = SpaceTimeField(gt, _cplx(rng, n_t, n_rho, n_s))
    rs = restrict_sigma(u, sigma, L_max=L_max, n_alpha=n_alpha)
    shape = (n_alpha, L_max + 1)
    vs = SigmaValues(sigma, d, rs.alpha, rs.alpha_weights, _cplx(rng, *shape), _cplx(rng, *shape))
    c = 1.0 / (4.0 * (2.0 * ells + d))
    assert_adjoint(
        gt.w_t[:, None, None] * dYds * u.values * np.conj(extend_sigma(vs, gt).values),
        wq[:, None] * (mult * c ** (d + 1))
        * (rs.theta_plus * np.conj(vs.theta_plus) + rs.theta_minus * np.conj(vs.theta_minus)),
    )


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.0])
def test_sphere_measure_rejects_bad_radius(radius):
    with pytest.raises(ValueError):
        SphereMeasure(radius)


@pytest.mark.parametrize("support", [(-1.0, 1.0), (1.0, 0.0), (0.5, 0.5), (0.0, np.inf),
                                     (0.0, np.nan)])
def test_sigma_measure_rejects_bad_support(support):
    with pytest.raises(ValueError):
        SigmaMeasure(support=support)


@pytest.mark.parametrize("radius", [np.nan, np.inf, 0.0, -1.0])
def test_g_function_rejects_bad_radius(radius):
    with pytest.raises(ValueError):
        g_function(0.5, 0.8, d=1, radius=radius)


def test_restrict_rejects_negative_L_max():
    f = RadialField(GRID, np.ones((GRID.n_rho, GRID.n_s)))
    with pytest.raises(ValueError):
        restrict_sphere(f, SphereMeasure(), L_max=-1)
    gt = GRID.with_times([0.0, 0.1])
    u = SpaceTimeField(gt, np.ones((2, GRID.n_rho, GRID.n_s)))
    with pytest.raises(ValueError):
        restrict_sigma(u, SigmaMeasure(), L_max=-1)


@pytest.mark.parametrize("L_max", [2.5, True, np.float64(3.0), "8"])
def test_restrict_rejects_a_non_integer_L_max(L_max):
    """The check forward makes: 2.5 gave 4 bands and True gave 2."""
    f = RadialField(GRID, np.ones((GRID.n_rho, GRID.n_s)))
    u = SpaceTimeField(GRID.with_times([0.0, 0.1]), np.ones((2, GRID.n_rho, GRID.n_s)))
    for call in (lambda: restrict_sphere(f, SphereMeasure(), L_max=L_max),
                 lambda: restrict_sigma(u, SigmaMeasure(), L_max=L_max),
                 lambda: forward(f, L_max)):
        with pytest.raises(ValueError, match="L_max must be an integer"):
            call()


@pytest.mark.parametrize("n_alpha", [True, 0, -1, 2.5, N_RHO_MAX + 1])
def test_restrict_sigma_refuses_n_alpha_before_building_a_rule(monkeypatch, n_alpha):
    """True gave one alpha node and 0, -1 and 2.5 failed inside scipy; the
    size is capped at N_RHO_MAX, as a grid's is, since a rule costs n^2."""
    from hharm import fields

    def no_rule(n):
        raise AssertionError("a Gauss-Legendre rule was built")

    monkeypatch.setattr(fields, "roots_legendre", no_rule)
    u = SpaceTimeField(GRID.with_times([0.0, 0.1]), np.ones((2, GRID.n_rho, GRID.n_s)))
    with pytest.raises(ValueError, match="n_alpha must be"):
        restrict_sigma(u, SigmaMeasure(), L_max=2, n_alpha=n_alpha)


@pytest.mark.parametrize("L_max", [1, 0, -3, 2.5])
def test_g_function_rejects_L_max_below_two(L_max):
    """The Richardson step needs the half sum S_{L/2}: L_max = 1 raised an
    IndexError from an empty band range."""
    with pytest.raises(ValueError, match="L_max must be an int"):
        g_function(0.0, 0.0, L_max=L_max)


@pytest.mark.parametrize("d", [0, 1.5])
@pytest.mark.parametrize("kernel", [
    lambda d: sphere_pair(lambda e, l: np.ones_like(np.asarray(e, float)), SphereMeasure(), d),
    lambda d: sigma_pair(lambda a, e, l: np.ones_like(a), SigmaMeasure(), d),
    lambda d: g_function(0.5, 0.8, d=d),
    lambda d: g_sigma(0.0, 0.0, 0.0, d=d),
], ids=["sphere_pair", "sigma_pair", "g_function", "g_sigma"])
def test_surface_kernels_reject_a_bad_dimension(kernel, d):
    """d = 0 gave NaN with only numpy's warning, d = 1.5 a number."""
    with pytest.raises(ValueError, match="d must be an int"):
        kernel(d)


def test_extend_rejects_values_of_another_dimension():
    g2 = _grid(2)
    v = SphereValues(SphereMeasure(), 1, np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        extend_sphere(v, g2)
    al, wa = np.array([0.25, 0.75]), np.array([0.5, 0.5])
    vs = SigmaValues(SigmaMeasure(), 1, al, wa, np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError):
        extend_sigma(vs, g2.with_times([0.0, 0.1]))


# ---------------------------------------------------------------------------
# Ray contraction: rho first against a real kernel table
# ---------------------------------------------------------------------------

def _restrict_rays_reference(grid, values, lam):
    """The ray restriction contracted s first: one complex gemm of the
    samples against h_s e^{-+ i s lam}, then the weighted kernels summed
    over rho."""
    n_l = lam.shape[0]
    E = grid.h_s * np.exp(-1j * (grid.s[:, None] * lam.T[:, None, :]))  # (Q, n_s, L+1)
    F = values[:, None] @ np.stack([E, np.conj(E)], axis=1)  # (Q, 2, n_rho, L+1)
    K = _kernel_diag(np.arange(n_l), 2.0 * lam[:, :, None] * grid.rho**2, grid.d)
    wK = K.transpose(1, 2, 0) * grid.w_radial[:, None]  # (Q, n_rho, L+1)
    theta = (F * wK[:, None]).sum(axis=2) / _mult_table(n_l - 1, grid.d)
    return theta[:, 0].T, theta[:, 1].T


def _sphere_lam(L, d, R=1.0):
    return _sphere_rays(np.arange(L + 1), d, R)[0][:, None]


def _sigma_lam(L, d, n_alpha=12):
    c = 1.0 / (4.0 * (2.0 * np.arange(L + 1) + d))
    return c[:, None] * _gauss_rule(*SigmaMeasure().support, n_alpha)[0]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("rays", ["sphere", "sigma"])
def test_restrict_rays_matches_complex_gemm_reference(d, rays):
    rng = np.random.default_rng(30 + d)
    grid = _grid(d)
    lam = _sphere_lam(32, d) if rays == "sphere" else _sigma_lam(12, d)
    shape = (lam.shape[1], grid.n_rho, grid.n_s)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for got, ref in zip(_restrict_rays(grid, values, lam),
                        _restrict_rays_reference(grid, values, lam)):
        assert got.shape == ref.shape == lam.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# Kernel tables kept in a caller's kept_kernels() scope
# ---------------------------------------------------------------------------

def _all_ops(grid, L_max, n_alpha):
    """Bytes of forward, inverse, schrodinger_evolve, and restriction and
    extension on the sphere and the paraboloid, on one seeded sample."""
    rng = np.random.default_rng(33)
    f = RadialField(grid, _cplx(rng, grid.n_rho, grid.n_s))
    sf = forward(f, L_max)
    u = schrodinger_evolve(CauchyDataS(sf), np.linspace(0.0, 0.25, 3))
    sv = restrict_sphere(f, SphereMeasure(), L_max=L_max)
    gv = restrict_sigma(u, SigmaMeasure(), L_max=L_max, n_alpha=n_alpha)
    out = (sf.values, inverse(sf).values, u.values, sv.theta_plus, sv.theta_minus,
           extend_sphere(sv, grid).values, gv.theta_plus, gv.theta_minus,
           extend_sigma(gv, u.grid).values)
    return [a.tobytes() for a in out]


@settings(max_examples=12, deadline=None, derandomize=True)
@given(d=st.integers(1, 2), n_rho=st.integers(8, 48), half_n_s=st.integers(4, 80),
       L_max=st.integers(0, 12))
@example(d=1, n_rho=96, half_n_s=64, L_max=119)  # a 1.1 MB paraboloid ray table
def test_kept_tables_give_bit_equal_results(d, n_rho, half_n_s, L_max):
    """Every operator gives the same bytes outside a scope, inside one where
    it builds the tables, and inside one where it reads the kept tables."""
    grid = Grid(d=d, n_rho=n_rho, r_max=12.0, n_s=2 * half_n_s, s_half=20.0)
    outside = _all_ops(grid, L_max, 12)
    with kept_kernels():
        assert _all_ops(grid, L_max, 12) == outside
        kept = dict(specfun._scope)
        assert _all_ops(grid, L_max, 12) == outside
        assert specfun._scope.keys() == kept.keys()
        assert all(specfun._scope[k] is kept[k] for k in kept)


def test_kept_tables_refuse_writes():
    f = RadialField(GRID, np.ones((GRID.n_rho, GRID.n_s)))
    with kept_kernels():
        restrict_sphere(f, SphereMeasure(), L_max=8)
        forward(f, 8)
        # the ray table, its weighted copy and the ray phases; 128 |lam| rows
        # in 4 blocks
        assert len(specfun._scope) == 3 + 4
        for table in specfun._scope.values():
            with pytest.raises(ValueError):
                table[0, 0, 0] = 1.0


def test_nothing_is_kept_after_the_outermost_scope_exits():
    lam = _sphere_lam(8, 1)
    with kept_kernels():
        with kept_kernels():
            table = _ray_kernels(GRID, lam)
        assert _ray_kernels(GRID, lam) is table  # the inner exit keeps it
    assert specfun._scope is None
    assert _ray_kernels(GRID, lam) is not _ray_kernels(GRID, lam)
    assert _ray_kernels(GRID, lam).flags.writeable
    ref = weakref.ref(table)
    del table
    assert ref() is None


def test_kept_tables_are_keyed_on_everything_they_are_built_from(monkeypatch):
    """In one scope a grid that differs in d, n_rho or r_max, another L_max
    or other rays builds its own tables.  Another s axis reuses the ray
    table; its transform blocks hold other frequencies and are built."""
    builds = []
    real = transform.wigner_radial_table

    def wigner(lmax, *args):  # lmax = 0 is the radius cut, not a block build
        if lmax:
            builds.append("lam")
        return real(lmax, *args)

    monkeypatch.setattr(transform, "wigner_radial_table", wigner)
    assert restriction._kernel_diag is _kernel_diag  # the provider's, as imported
    monkeypatch.setattr(restriction, "_kernel_diag",
                        lambda *a: builds.append("rays") or _kernel_diag(*a))
    base = dict(d=1, n_rho=32, r_max=12.0, n_s=64, s_half=20.0)
    cases = [(base, 8, 1.0, 1, 1), (dict(base, d=2), 8, 1.0, 1, 1),
             (dict(base, n_rho=40), 8, 1.0, 1, 1), (dict(base, r_max=10.0), 8, 1.0, 1, 1),
             (base, 6, 1.0, 1, 1), (base, 8, 2.0, 0, 1),
             (dict(base, n_s=128, s_half=30.0), 8, 1.0, 2, 0)]
    with kept_kernels():
        for kw, L, R, n_lam, n_rays in cases:
            grid = Grid(**kw)
            f = RadialField(grid, np.ones((grid.n_rho, grid.n_s)))
            builds.clear()
            for _ in range(2):
                forward(f, L)
                restrict_sphere(f, SphereMeasure(R), L_max=L)
            assert sorted(builds) == ["lam"] * n_lam + ["rays"] * n_rays, (kw, L, R)


def test_restriction_and_extension_share_one_ray_table():
    gt = GRID.with_times(np.linspace(0.0, 0.25, 4))
    u = SpaceTimeField(gt, np.ones((4, GRID.n_rho, GRID.n_s)))
    f = RadialField(GRID, np.ones((GRID.n_rho, GRID.n_s)))
    def ray_tables():
        return [k for k in specfun._scope if k[0] == "rays"]

    with kept_kernels():
        extend_sigma(restrict_sigma(u, SigmaMeasure(), L_max=8, n_alpha=10), gt)
        assert len(ray_tables()) == 1
        extend_sphere(restrict_sphere(f, SphereMeasure(), L_max=8), GRID)
        assert len(ray_tables()) == 2


@pytest.mark.parametrize("d", [1, 2])
def test_kept_ray_phases_and_weighted_kernels_give_bit_equal_restrictions(d):
    """`_restrict_rays` reads its phase rows and weighted kernels from the
    scope once they are kept: the sphere's one ray per band and the
    paraboloid's rays per alpha node give the bytes of a call outside."""
    grid = Grid(d=d, n_rho=40, r_max=12.0, n_s=96, s_half=20.0)
    rng = np.random.default_rng(44 + d)
    values = _cplx(rng, 3, grid.n_rho, grid.n_s)
    rays = [_sphere_lam(10, d),
            (1.0 / (4.0 * (2.0 * np.arange(11) + d)))[:, None] * np.linspace(0.1, 0.9, 3)]
    for lam in rays:
        V = values[:lam.shape[1]]
        outside = [a.tobytes() for a in _restrict_rays(grid, V, lam)]
        with kept_kernels():
            for _ in range(2):
                assert [a.tobytes() for a in _restrict_rays(grid, V, lam)] == outside


def test_restrict_rays_builds_its_phases_and_weighted_kernels_once_per_scope(monkeypatch):
    """A loop of paraboloid restrictions on one geometry builds the ray
    table, its weighted copy and the phase rows once per scope; a new scope
    builds them again."""
    builds = []
    kept = restriction._kept
    monkeypatch.setattr(restriction, "_kept",
                        lambda key, build: kept(key, lambda: builds.append(key()[0]) or build()))
    gt = GRID.with_times(np.linspace(0.0, 0.25, 4))
    u = SpaceTimeField(gt, np.ones((4, GRID.n_rho, GRID.n_s)))
    for _ in range(2):
        builds.clear()
        with kept_kernels():
            for _ in range(3):
                restrict_sigma(u, SigmaMeasure(), L_max=8, n_alpha=6)
        assert sorted(builds) == ["ray phases", "rays", "weighted rays"]


def test_sphere_ratio_loop_builds_its_table_once(monkeypatch):
    """The sphere suite's ratio loop at one refinement, in a scope: 200
    samples on one geometry, one table build."""
    calls = []
    assert restriction._kernel_diag is _kernel_diag  # the provider's, as imported
    monkeypatch.setattr(restriction, "_kernel_diag",
                        lambda *a: calls.append(1) or _kernel_diag(*a))
    rng = np.random.default_rng(41)
    grid = Grid(d=1, n_rho=128, r_max=12.0, n_s=256, s_half=40.0)
    with kept_kernels():
        for _ in range(200):
            f = sample_packets(random_packet(rng, d=1, omega_range=(0.0, 1.5)), grid)
            restrict_sphere(f, SphereMeasure(1.0), L_max=32)
    assert len(calls) == 1


def test_restrict_nan_sample_gives_nan_theta():
    values = np.zeros((GRID.n_rho, GRID.n_s), dtype=complex)
    values[40, 100] = np.nan
    vals = restrict_sphere(RadialField(GRID, values), SphereMeasure(), L_max=8)
    assert np.isnan(vals.theta_plus).all() and np.isnan(vals.theta_minus).all()


def _seeded_values(kind, rng):
    """SphereValues (L = 12) or SigmaValues (L = 6, 5 alpha nodes) at d = 1,
    with seeded complex values."""
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "sphere":
        return SphereValues(SphereMeasure(1.5), 1, cplx(13), cplx(13))
    al, wa = _gauss_rule(0.0, 1.0, 5)
    return SigmaValues(SigmaMeasure(), 1, al, wa, cplx(5, 7), cplx(5, 7))


@pytest.mark.parametrize("kind", ["sphere", "sigma"])
def test_measure_pairing_is_the_duality_sides_the_suites_wrote(kind):
    """`_measure_pairing` equals, bit for bit, the right-hand sides the
    sphere-duality and sigma-duality rows built by hand."""
    rng = np.random.default_rng(71)
    r, v = _seeded_values(kind, rng), _seeded_values(kind, rng)
    sum_ = np.sum(r.weights() * (r.theta_plus * np.conj(v.theta_plus)
                                 + r.theta_minus * np.conj(v.theta_minus)))
    const = 2.0 ** (1 - 1) / np.pi ** (1 + 1)
    got = _measure_pairing(r, v)
    for want in (const * sum_, (2.0 ** (1 - 1) / np.pi ** (1 + 1)) * sum_):
        assert np.array(got).tobytes() == np.array(want).tobytes()


def test_one_norm_body_serves_both_measures():
    """`sigma_norm_sq` is `sphere_norm_sq`, and the body is the weighted sum of
    |theta_+|^2 + |theta_-|^2 for either kind of values."""
    assert sigma_norm_sq is sphere_norm_sq
    rng = np.random.default_rng(72)
    for kind in ("sphere", "sigma"):
        vals = _seeded_values(kind, rng)
        dens = np.abs(vals.theta_plus) ** 2 + np.abs(vals.theta_minus) ** 2
        assert sphere_norm_sq(vals) == float(np.sum(vals.weights() * dens))


def test_band_count_past_the_cap_is_refused_before_any_band_table(monkeypatch):
    """forward, transform_D, the restrictions and g_function refuse L_max past
    ELL_MAX = 4096 before the multiplicity list or any array: L_max = 10**15
    hung in the list, or asked for a petabyte band index."""
    from hharm.fields import ELL_MAX
    from hharm.transform import forward, transform_D

    grid = Grid(d=1, n_rho=8, r_max=6.0, n_s=16, s_half=8.0)
    f = RadialField(grid, np.ones((8, 16)))
    u = SpaceTimeField(grid.with_times([0.0, 0.1]), np.ones((2, 8, 16)))

    def fail(*args, **kwargs):
        raise AssertionError("a band table or array was built")

    for module in (transform, restriction):
        monkeypatch.setattr(module, "_mult_table", fail)
    for name in ("arange", "zeros", "empty"):
        monkeypatch.setattr(np, name, fail)
    for L_max in (ELL_MAX + 1, 10**15):
        for call in (lambda: forward(f, L_max), lambda: transform_D(u, L_max),
                     lambda: restrict_sphere(f, SphereMeasure(), L_max),
                     lambda: restrict_sigma(u, SigmaMeasure(), L_max),
                     lambda: g_function(0.0, 0.0, L_max=L_max)):
            with pytest.raises(ValueError, match="L_max must be <= 4096"):
                call()
