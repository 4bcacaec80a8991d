"""Planar twisted convolution: lattice machinery and band kernels; and the
checks `hharm.verify` runs on them (scaling scans, Young and algebra bounds,
the norm proxy, band-kernel orthogonality) and on the sequence-space
averaging bound."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided

from hharm import verify
from hharm.config import RunConfig
from hharm.specfun import normalized_kernel
from hharm.twisted import (
    PlanarField,
    PlanarGrid,
    kernel_field,
    operator_norm,
    planar_norm,
    tn_apply,
    twisted_convolve,
)
from hharm.verify import (
    algebra_scaling,
    est2_scan,
    hardy_check,
    orth_check,
    tn_norm_proxy,
    young_check,
)

GRID = PlanarGrid()  # 97 x 97 on [-8, 8]^2


def test_planar_grid_basics():
    assert GRID.n == 97
    assert GRID.h == pytest.approx(1.0 / 6.0)
    assert GRID.axis[(GRID.n - 1) // 2] == 0.0  # origin is a sample
    assert GRID.compatible(PlanarGrid())
    assert not GRID.compatible(PlanarGrid(n=49))
    with pytest.raises(ValueError, match="odd"):
        PlanarGrid(n=96)


@pytest.mark.parametrize("kw", [
    {"n": 1},
    {"n": -3},
    {"n": 97.0},
    {"half_width": -8.0},
    {"half_width": 0.0},
    {"half_width": float("nan")},
    {"half_width": float("inf")},
    {"half_width": 1e308},
])
def test_planar_grid_rejects_bad_geometry(kw):
    with pytest.raises(ValueError, match="n must be|half_width"):
        PlanarGrid(**kw)


def test_planar_field_shape_guard():
    with pytest.raises(ValueError):
        PlanarField(GRID, np.zeros((96, 97)))


def test_planar_norm_gaussian():
    y, eta = GRID.mesh()
    f = PlanarField(GRID, np.exp(-(y**2 + eta**2)))
    # int e^{-2 r^2} = pi / 2 over the plane
    assert planar_norm(f, 2.0) ** 2 == pytest.approx(np.pi / 2.0, rel=1e-12)
    assert planar_norm(f, np.inf) == 1.0
    with pytest.raises(ValueError):
        planar_norm(f, 0.0)


@pytest.mark.parametrize("p", [np.nan, 0.0, -1.0, -np.inf])
def test_planar_norm_refuses_an_order_that_is_not_positive(p):
    f = PlanarField(GRID, np.ones((GRID.n, GRID.n)))
    with pytest.raises(ValueError, match="p must be positive"):
        planar_norm(f, p)


def test_kernel_self_reproducing():
    # K_ell *_lam K_ell = (pi / (2 lam))^d K_ell, exactly
    lam = 1.0
    for ell in (0, 1):
        k = kernel_field(GRID, ell, lam)
        out = twisted_convolve(k, k, lam)
        err = np.max(np.abs(out.values - (np.pi / (2.0 * lam)) * k.values))
        assert err < 1e-10


def test_kernel_cross_band_orthogonality():
    lam = 1.0
    k0 = kernel_field(GRID, 0, lam)
    k2 = kernel_field(GRID, 2, lam)
    out = twisted_convolve(k0, k2, lam)
    assert np.max(np.abs(out.values)) < 1e-10


def test_kernel_l2_norm():
    # ||K_ell(lam, .)||_2^2 = (pi / (2 lam))^d mult(ell, d); mult = 1 at d = 1
    for ell, lam in ((0, 1.0), (3, 0.5)):
        k = kernel_field(GRID, ell, lam)
        assert planar_norm(k, 2.0) ** 2 == pytest.approx(
            np.pi / (2.0 * lam), rel=1e-12
        )


def test_operator_norm_value_and_guard():
    assert operator_norm(5, 0.5) == pytest.approx(np.pi)
    assert operator_norm(0, -2.0) == pytest.approx(np.pi / 4.0)
    for lam in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and nonzero"):
            operator_norm(0, lam)


def test_tn_apply_is_projection_up_to_scale():
    g = PlanarGrid(n=49)
    y, eta = g.mesh()
    f = PlanarField(g, np.exp(-0.8 * (y**2 + eta**2)) * (1.0 + 0.3j * y))
    once = tn_apply(f, 0, 1.0)
    twice = tn_apply(once, 0, 1.0)
    err = np.max(np.abs(twice.values - (np.pi / 2.0) * once.values))
    assert err < 1e-8 * np.max(np.abs(once.values))


def test_convolve_grid_mismatch():
    y, eta = GRID.mesh()
    f = PlanarField(GRID, np.exp(-(y**2 + eta**2)))
    g2 = PlanarGrid(n=49)
    y2, eta2 = g2.mesh()
    g = PlanarField(g2, np.exp(-(y2**2 + eta2**2)))
    with pytest.raises(ValueError, match="grids differ"):
        twisted_convolve(f, g, 1.0)


def _lattice_reference(f, g, lam):
    """Direct O(n^4) lattice sum: for each shift k, a Toeplitz contraction
    over l against the zero-padded f."""
    n = f.grid.n
    a = f.grid.axis
    A = np.exp(2j * lam * np.outer(a, a))
    B = np.conj(A)
    Fpad = np.zeros((2 * n - 1, 2 * n - 1), dtype=complex)
    lo = (n - 1) // 2
    Fpad[lo : lo + n, lo : lo + n] = f.values
    acc = np.zeros((n, n), dtype=complex)
    s0, s1 = Fpad.strides
    for k in range(n):
        Rk = Fpad[n - 1 - k : 2 * n - 1 - k, :]
        # T[i, l, j] = Fpad[i - k + n - 1, j - l + n - 1]
        T = as_strided(Rk[:, n - 1 :], shape=(n, n, n), strides=(s0, -s1, s1),
                       writeable=False)
        D = np.einsum("il,ilj->ij", g.values[k, :][None, :] * B, T, optimize=True)
        acc += D * A[:, k][None, :]
    return f.grid.h**2 * acc


def _random_field(grid, rng, corners=False):
    """Seeded complex noise, non-symmetric; under a Gaussian envelope that
    keeps the outer frame below the edge-mass warning, or with unit spikes
    in the four box corners."""
    y, eta = grid.mesh()
    noise = rng.standard_normal((grid.n, grid.n)) + 1j * rng.standard_normal((grid.n, grid.n))
    vals = noise * np.exp(-20.0 * (y**2 + eta**2) / grid.half_width**2)
    if corners:
        vals[[0, 0, -1, -1], [0, -1, 0, -1]] = rng.standard_normal(4) + 1j
    return PlanarField(grid, vals)


@pytest.mark.parametrize("lam", [-2.0, 0.25, 1.0, 3.0])
@pytest.mark.parametrize("n", [3, 5, 49, 97])
def test_convolve_matches_lattice_sum(n, lam):
    grid = PlanarGrid(n=n)
    rng = np.random.default_rng(1000 * n + int(4 * lam) + 8)
    f, g = _random_field(grid, rng), _random_field(grid, rng)
    out = twisted_convolve(f, g, lam).values
    ref = _lattice_reference(f, g, lam)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [3, 5, 49])
def test_convolve_matches_lattice_sum_with_corner_mass(n):
    """Mass in the box corners meets the largest shifts |j - l| = n - 1,
    the first and last diagonals of the Toeplitz matrix of an f row."""
    grid = PlanarGrid(n=n)
    rng = np.random.default_rng(n)
    f, g = _random_field(grid, rng, corners=True), _random_field(grid, rng, corners=True)
    with pytest.warns(UserWarning, match="outer 10% frame"):
        out = twisted_convolve(f, g, 0.7).values
    ref = _lattice_reference(f, g, 0.7)
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_convolve_temporaries_are_n_squared(traced_peak):
    """A memory bound, not a timing: at n = 97 every temporary is at most
    n x (2n - 1) complex (300 KB), so their sum stays under 4 MiB."""
    rng = np.random.default_rng(5)
    f, g = _random_field(GRID, rng), _random_field(GRID, rng)
    _, peak = traced_peak(lambda: twisted_convolve(f, g, 1.0))
    assert peak <= 4 * 2**20


def _est2_field(lam, seed=42):
    """The field `est2_scan` convolves with K_0 at lam, on the default grid."""
    rng = np.random.default_rng(seed)
    kappas = rng.uniform(6.0, 10.0, 3)
    coefs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y, eta = GRID.mesh()
    rsq = y**2 + eta**2
    return PlanarField(GRID, sum(c * np.exp(-k * lam * rsq) for c, k in zip(coefs, kappas)))


def _min_nonzero(a):
    """The smallest nonzero entry of the array a >= 0; inf when a is all 0."""
    return a[a > 0].min(initial=np.inf)


def test_convolve_forms_no_product_below_the_floor(monkeypatch):
    """est2's lam = 4 field meets K_0's tail: f holds 240 subnormal parts,
    and parts of f and g above the floor still multiply to less.  Every gemm
    multiplies the parts of f it keeps by g's kept entries, turned by unit
    phases: a kept part of f times the modulus of such an entry reaches the
    floor 2^-969, and a part times a part stays normal.  The f rows cut to
    0 cost no gemm."""
    f, g = _est2_field(4.0), kernel_field(GRID, 0, 4.0)
    real, products = np.matmul, []

    def spy(left, right):
        right_part = _min_nonzero(np.abs(right.view(float)))
        products.append((right_part * _min_nonzero(np.abs(left)),
                         right_part * _min_nonzero(np.abs(left.view(float)))))
        return real(left, right)

    monkeypatch.setattr(np, "matmul", spy)
    twisted_convolve(f, g, 4.0)
    monkeypatch.undo()
    for by_modulus, by_part in products:
        assert by_modulus >= 2.0**-969
        assert by_part >= np.finfo(float).tiny
    assert 0 < len(products) < GRID.n // 2


@pytest.mark.parametrize("pair, lam", [
    ("est2", 1.0), ("est2", 2.0), ("est2", 4.0),
    ("K0K0", 2.0), ("K2K2", 2.0), ("K0K0", 4.0), ("K2K2", 4.0),
])
def test_floored_convolve_matches_lattice_sum(pair, lam):
    """What the floor drops is far below rounding: the result agrees with the
    plain lattice sum of the fields as given to 1e-14 of its largest entry."""
    if pair == "est2":
        f, g = _est2_field(lam), kernel_field(GRID, 0, lam)
    else:
        f = g = kernel_field(GRID, int(pair[1]), lam)
    out = twisted_convolve(f, g, lam).values
    ref = _lattice_reference(f, g, lam)
    assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_convolve_floor_is_scale_free():
    """The cuts follow the scale of each field: 2^300 f against 2^-300 g
    gives the bits of f against g, and a pair whose largest parts multiply
    to less than the floor (2^-600 each) convolves to exact 0."""
    f, g = _est2_field(4.0), kernel_field(GRID, 0, 4.0)
    want = twisted_convolve(f, g, 4.0).values
    scaled = twisted_convolve(PlanarField(GRID, 2.0**300 * f.values),
                              PlanarField(GRID, 2.0**-300 * g.values), 4.0).values
    assert np.array_equal(scaled, want)
    tiny = twisted_convolve(PlanarField(GRID, 2.0**-600 * f.values),
                            PlanarField(GRID, 2.0**-600 * g.values), 4.0).values
    assert not tiny.any()


@pytest.mark.parametrize("where", ["f", "g", "lam"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_convolve_refuses_non_finite_input(where, bad):
    grid = PlanarGrid(n=9)
    y, eta = grid.mesh()
    f = PlanarField(grid, np.exp(-(y**2 + eta**2)))
    g = PlanarField(grid, np.exp(-(y**2 + eta**2)))
    lam = 1.0
    if where == "lam":
        lam = bad
    else:
        (f if where == "f" else g).values[4, 5] = bad
    with pytest.raises(ValueError, match="finite"):
        twisted_convolve(f, g, lam)


def test_convolve_warns_on_edge_mass():
    y, eta = GRID.mesh()
    wide = PlanarField(GRID, np.exp(-0.01 * (y**2 + eta**2)))
    tight = PlanarField(GRID, np.exp(-(y**2 + eta**2)))
    with pytest.warns(UserWarning, match="outer 10% frame"):
        twisted_convolve(wide, tight, 1.0)


def test_young_inequality():
    worst = young_check()
    assert worst <= 1.0 + 1e-12
    assert worst > 0.0


def test_algebra_scaling_saturates():
    out = algebra_scaling(lams=(0.5, 1.0, 2.0))
    assert np.max(np.abs(out["ratios"] - out["exact_ratios"])) < 1e-10
    assert abs(out["slope"] - out["target_slope"]) < 1e-8


def test_est2_scan_slope():
    lams = (0.5, 1.0, 2.0, 4.0)
    (out,) = est2_scan((2.0,), lams=lams)
    assert abs(out["slope"] - out["target_slope"]) < 0.05
    flat = out["ratios"] * np.asarray(lams) ** (-out["target_slope"])
    assert np.max(flat) / np.min(flat) < 1.02
    with pytest.raises(ValueError, match="p must lie"):
        est2_scan((2.5,))
    with pytest.raises(ValueError, match="p must lie"):
        est2_scan((2.0, 2.5))


def test_est2_scan_measures_one_convolution_in_every_exponent():
    """The ratios of one scan over p = 2 and p = 1 equal, bit for bit, the
    ratios of each exponent measured on its own convolution."""
    lams, seed = (0.5, 1.0, 2.0), 42
    scans = est2_scan((2.0, 1.0), lams=lams, seed=seed)
    rng = np.random.default_rng(seed)
    kappas = rng.uniform(6.0, 10.0, 3)
    coefs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y, eta = GRID.mesh()
    rsq = y**2 + eta**2
    for res, p, pp in zip(scans, (2.0, 1.0), (2.0, np.inf)):
        want = []
        for lam in lams:
            f = PlanarField(GRID, sum(c * np.exp(-k * lam * rsq) for c, k in zip(coefs, kappas)))
            want.append(planar_norm(tn_apply(f, 0, lam), pp) / planar_norm(f, p))
        assert np.array_equal(res["ratios"], want)


def test_suite_est2_convolves_each_pair_once(monkeypatch):
    """`suite_est2` makes 79 twisted convolutions: the two slope rows share
    their 5, then 2 kernel identities, 64 norm-proxy inputs, 4 Young pairs
    and 4 algebra-slope points.  Each slope field is convolved once for both
    exponents; K_0 *_1 K_0 is formed twice, by `twisted-reproducing` and by
    the algebra slope's lam = 1 point."""
    from hharm import twisted

    calls = []
    real = twisted.twisted_convolve

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(twisted, "twisted_convolve", counting)
    monkeypatch.setattr(verify, "twisted_convolve", counting)
    verify.suite_est2(RunConfig(seed=42))
    assert len(calls) == 79


def test_orth_check_quick():
    out = orth_check(ells=(1, 2, 4, 8, 16), n_quad=2048)
    assert out["diag_rel_err"] < 1e-10
    assert -1.35 < out["offdiag_slope"] < -0.65
    # max(ell, m) I(ell, m) stays bounded: no growth with the band index
    assert out["scaled_growth_slope"] < 0.1
    assert out["max_scaled_offdiag"] < 1.0


def test_tn_norm_proxy_bounded_by_exact():
    out = tn_norm_proxy(n=33, n_inputs=12)
    assert out["measured_norm_proxy"] <= out["exact_norm"] * (1.0 + 1e-9)
    assert out["measured_norm_proxy"] > 0.5 * out["exact_norm"]


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_hardy_bound(p):
    out = hardy_check(p=p, n_seeds=200)
    assert out["worst_ratio"] <= out["bound"] + 1e-9


def test_hardy_spike_value():
    row = {r.name: r for r in verify.suite_hardy(RunConfig())}["hardy-spike"]
    assert row.passed
    assert row.targets["limit"]["value"] == pytest.approx(np.pi / np.sqrt(6.0))
    assert row.measured["defect"] > 0.0


def test_hardy_rejects_p_at_most_one():
    with pytest.raises(ValueError, match="exceed 1"):
        hardy_check(p=1.0, n_seeds=1)


def _nan_on_call(fn, k):
    """fn, except that its k-th call (from 0) returns a NaN-valued field."""
    calls = []

    def wrapped(f, *args):
        calls.append(None)
        out = fn(f, *args)
        if len(calls) == k + 1:
            out = PlanarField(out.grid, np.full_like(out.values, np.nan))
        return out

    return wrapped


def _nan_kernel_at(ell_bad):
    def kernel(ell, rho, d=1):
        out = normalized_kernel(ell, rho, d)
        return out * np.nan if ell == ell_bad else out

    return kernel


@pytest.mark.parametrize("site", ["young", "tn_norm_proxy", "orth"])
def test_running_maxima_propagate_one_nan(monkeypatch, site):
    """One NaN sample makes the worst-case figure NaN instead of dropping out
    of it: each maximum is an np.max over all samples."""
    if site == "young":
        monkeypatch.setattr(verify, "twisted_convolve", _nan_on_call(twisted_convolve, 1))
        figure = young_check()
    elif site == "tn_norm_proxy":
        monkeypatch.setattr(verify, "tn_apply", _nan_on_call(tn_apply, 1))
        figure = tn_norm_proxy(n=33, n_inputs=3)["measured_norm_proxy"]
    else:
        monkeypatch.setattr(verify, "normalized_kernel", _nan_kernel_at(8))
        figure = orth_check(ells=(1, 2, 4, 8), n_quad=512)["max_scaled_offdiag"]
    assert np.isnan(figure)
