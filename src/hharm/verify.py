"""Verification suites: every identity and estimate the library can check.

Each suite is a generator of CheckResult rows, all built by `_row`, in a
fixed order; `_suite` registers it in SUITES by name, to run every row or
only as far as one named row, and run_suites() assembles the deterministic
VerificationReport.  Every numeric target carries a `basis` string saying
how the number is known (exact algebra, closed form, classical constant,
measured slope against a scaling law, ...), and every random input derives
from the config seed.  A figure that is the worst of several is reduced
with np.max, so one NaN sample fails the row instead of dropping out of it.
A check function that a suite calls (the decay probes, the
twisted-convolution scans, ...) sits right above it.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np

from .config import ConfigError, RunConfig
from .fields import (
    GaussianClosure,
    Grid,
    MixedNormSpec,
    RadialField,
    SpaceTimeField,
    _gauss_rule,
    _legendre_rule,
    dilate,
    l2_inner,
    l2_norm,
    mixed_norm,
    random_packet,
    sample_packets,
)
from .propagators import (
    CauchyDataS,
    CauchyDataW,
    _schrodinger,
    admissible,
    duhamel,
    schrodinger_evolve,
    transport_reference,
    wave_energy_series,
)
from .report import CheckResult, VerificationReport
from .restriction import (
    SigmaMeasure,
    SphereMeasure,
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
    SigmaValues,
    SphereValues,
    _measure_pairing,
    _sigma_rays,
)
from .specfun import kept_kernels, normalized_kernel, wigner_radial
from .transform import (
    LocalizerSpec,
    SpectralField,
    _eig_table,
    _identity,
    _localized,
    _multiplier_pass,
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
from .twisted import (
    PlanarField,
    PlanarGrid,
    kernel_field,
    operator_norm,
    planar_norm,
    tn_apply,
    twisted_convolve,
)
from .windows import ball_profile, bump

__all__ = ["SUITES", "run_suites", "translate_identity_check"]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _row(name, passed, measured, **targets) -> CheckResult:
    """One report row.  A target given as a (value, basis) pair is written
    {"value": value, "basis": basis}; any other target (a bare tolerance,
    say) is written as given."""
    return CheckResult(name, bool(passed), measured, {
        k: {"value": t[0], "basis": t[1]} if isinstance(t, tuple) else t
        for k, t in targets.items()
    })


SUITES = {}  # suite name -> suite(cfg, row=None), in the order the suites are defined


def _suite(name):
    """Register a generator of a suite's rows as SUITES[name]: suite(cfg)
    runs every row and returns their list, suite(cfg, row) runs them only
    as far as the one named `row` and returns [it], and a `row` the suite
    does not yield is refused (ConfigError, naming its rows)."""
    def register(rows):
        @functools.wraps(rows)
        def suite(cfg: RunConfig, row: str | None = None) -> list:
            out = []
            for r in rows(cfg):
                if r.name == row:
                    return [r]
                out.append(r)
            if row is not None:
                names = ", ".join(r.name for r in out)
                raise ConfigError(f"unknown row {row!r} of suite {name!r}; its rows: {names}")
            return out

        SUITES[name] = suite
        return suite

    return register


def _band_limited(cfg: RunConfig, rng, d: int) -> RadialField:
    """A random packet pushed once through inverse(forward(.)), in one pass
    over the kernel blocks: band-limited."""
    f = sample_packets(random_packet(rng, d=d), replace(cfg.grid(), d=d))
    return _forward_inverse(f, cfg.L_max)[1]


def _band_projected(cfg: RunConfig, rng, d: int):
    """A `_band_limited` field and its spectrum."""
    f = _band_limited(cfg, rng, d)
    return f, forward(f, cfg.L_max)


def _forward_inverse(f: RadialField, L_max: int, multiplier=_identity):
    """(forward(f, L_max), inverse of the multiplier applied to it), in one
    pass over the kernel blocks (`transform._multiplier_pass`)."""
    sf, g = _multiplier_pass(f, L_max, multiplier)
    return sf, RadialField(f.grid, g)


def _tail_fraction(sf: SpectralField) -> float:
    """Spectral mass fraction in the top 4 band rows — the truncation monitor."""
    dens = sf.weights() * np.abs(sf.values) ** 2
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    return float(dens[-4:].sum() / total)


def _relative(a, b) -> float:
    return float(abs(a - b) / abs(b))


def _cplx(rng, shape):
    """Seeded complex normals: the real parts are drawn first."""
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _single_band(grid: Grid, L_max: int, ell: int) -> SpectralField:
    """The single-band datum: bump(lam, 0.5, 2.0) on band ell of L_max + 1."""
    theta = np.zeros((L_max + 1, grid.n_s), dtype=complex)
    theta[ell] = bump(grid.lam, 0.5, 2.0)
    return SpectralField(grid, theta)


_N_SAMPLES = 200


def _ratio_stability(cfg: RunConfig, name, packets, n_rho, L, ratio) -> CheckResult:
    """Drift of the largest of the sample ratios ratio(parts, grid, L_max)
    when n_rho, n_s and L_max double together (d = 1)."""
    stats = []
    for refine in (1, 2):
        g = replace(cfg.grid(), d=1, n_rho=n_rho * refine, n_s=256 * refine)
        with kept_kernels():
            ratios = np.array([ratio(parts, g, L * refine) for parts in packets])
        stats.append((float(ratios.max()), float(np.median(ratios))))
    drift_max = abs(stats[1][0] - stats[0][0]) / stats[0][0]
    drift_med = abs(stats[1][1] - stats[0][1]) / stats[0][1]
    tol = 0.05
    return _row(name, drift_max <= tol,
                {"max_ratio_coarse": stats[0][0], "max_ratio_fine": stats[1][0],
                 "drift_max": float(drift_max), "drift_median": float(drift_med),
                 "n_samples": len(packets)},
                drift=(0.0, "discretization-independence of the ratio"), tolerance=tol)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

@_suite("plancherel")
def suite_plancherel(cfg: RunConfig):
    """Energy-ratio constant over the Gaussian suite, both dimensions,
    plus the spacetime transform's constant."""
    tol = 1e-6
    for d in (1, 2):
        rng = np.random.default_rng(cfg.seed + 11 * d)
        pairs = [_band_projected(cfg, rng, d) for _ in range(3)]
        target = plancherel_constant(d)
        # each field against itself and against the next one; a numpy
        # division, so a vanishing physical pairing fails the row
        worst = float(np.max([
            _relative(np.divide(spectral_inner(sf, sg).real, l2_inner(f, g).real), target)
            for i, (f, sf) in enumerate(pairs) for g, sg in (pairs[i], pairs[(i + 1) % 3])
        ]))
        yield _row(f"plancherel-ratio-d{d}", worst <= tol, {"max_rel_err": worst},
                   ratio=(target, "exact constant pi^(d+1)/2^(d-1)"), tolerance=tol)
    # product-group transform: t-DFT Parseval contributes an exact 2*pi
    rng = np.random.default_rng(cfg.seed + 5)
    _, sf = _band_projected(cfg, rng, 1)
    times = np.linspace(0.0, 0.4, 8)
    u = schrodinger_evolve(CauchyDataS(sf), times)
    D = transform_D(u, L_max=cfg.L_max)
    phys = (times[1] - times[0]) * np.sum(l2_norm(u) ** 2)
    ratio = spectral_inner_D(D, D).real / phys
    target = np.pi ** (1 + 2) / 2.0 ** (1 - 2)
    err = _relative(ratio, target)
    yield _row("plancherel-spacetime-ratio", err <= 1e-5,
               {"ratio": ratio, "rel_err": err},
               ratio=(target, "exact constant pi^(d+2)/2^(d-2)"))


@_suite("roundtrip")
def suite_roundtrip(cfg: RunConfig):
    """Inversion, idempotency, the closed-form Gaussian oracle, and dilation
    covariance."""
    tol = 1e-6
    for d in (1, 2):
        rng = np.random.default_rng(cfg.seed + 17 * d)
        f = _band_limited(cfg, rng, d)
        sf, g = _forward_inverse(f, cfg.L_max)
        err = l2_norm(RadialField(f.grid, g.values - f.values)) / l2_norm(f)
        yield _row(f"roundtrip-d{d}", err <= tol,
                   {"rel_l2_err": float(err), "tail_fraction": _tail_fraction(sf)},
                   rel_l2_err=(0.0, "inversion identity"), tolerance=tol)
        if d == 1:
            h = _forward_inverse(g, cfg.L_max)[1]
            ierr = l2_norm(RadialField(f.grid, h.values - g.values)) / l2_norm(g)
            yield _row("roundtrip-idempotent", ierr <= 1e-7,
                       {"rel_l2_err": float(ierr)},
                       rel_l2_err=(0.0, "projection idempotency"))

    # closed form: the transform of e^{-a|Y|^2} phi(s) by both quadrature rules
    grid = replace(cfg.grid(), d=1)
    closure = GaussianClosure(d=1, a=1.0, b=0.5, omega=3.0, s0=0.0, amp=1.0)
    exact = SpectralField(grid, closure.coefficients(np.arange(16 + 1), grid.lam)).values
    scale = np.abs(exact).max()
    sf_cl = forward(closure, L_max=16, grid=grid)
    err_cl = float(np.abs(sf_cl.values - exact).max() / scale)
    yield _row("closure-oracle", err_cl <= 1e-8,
               {"max_err": err_cl},
               coefficients=("phihat(lam) pi^d (a-|lam|)^ell / (a+|lam|)^(ell+d)",
                             "closed form (Laplace transform of Laguerre functions)"))
    sf_gr = forward(closure.sample(grid), L_max=16)
    err_gr = float(np.abs(sf_gr.values - exact).max() / scale)
    yield _row("grid-forward-vs-closed-form", err_gr <= 1e-7,
               {"max_err": err_gr}, max_err=(0.0, "same closed form, grid rule"))

    # dilation covariance: numerical resampling against the closed dilation
    a = 1.25
    base = GaussianClosure(d=1, a=1.0, b=0.6, omega=2.5, s0=0.0, amp=1.0)
    dil = GaussianClosure(d=1, a=base.a * a**2, b=base.b * a**4,
                          omega=base.omega * a**2, s0=0.0, amp=1.0)
    num = dilate(base.sample(grid), a)
    ref = dil.sample(grid)
    derr = l2_norm(RadialField(grid, num.values - ref.values)) / l2_norm(ref)
    yield _row("dilation-covariance", derr <= 1e-6,
               {"rel_l2_err": float(derr), "scale": a},
               rel_l2_err=(0.0, "delta_a covariance, closed-form resample"))


@_suite("transport")
def suite_transport(cfg: RunConfig):
    """Single-band data move by s-shifts; the trapezoid Duhamel is 2nd order.

    Each band is evolved one time at a time, and that slice's shift error
    and L^p drifts are taken before the next time is evolved, so one slice
    of the flow is alive at once.  A single-time flow is, bit for bit, that
    time's slice of the two-time flow."""
    shift_tol = 1e-8
    lp_tol = 1e-4
    specs = [MixedNormSpec((p, p), ("Y", "s")) for p in (1.0, 2.0, np.inf)]
    worst_shift = {}
    drifts = []
    for d in (1, 2):
        # the L^p sums cross the |.| kink at O(h_s^2); refine s for headroom
        grid = replace(cfg.grid(), d=d, n_s=max(cfg.n_s, 2048))
        errs = []
        for ell in (0, 1, 2):
            sf = _single_band(grid, 8, ell)
            u0 = inverse(sf)
            n0 = [mixed_norm(u0, spec) for spec in specs]
            t1 = 16.0 * grid.h_s / (4.0 * (2 * ell + d))  # exact 16-cell shift
            t2 = 0.2374  # generic, spectrally interpolated
            for t in (t1, t2):
                v = RadialField(grid, schrodinger_evolve(CauchyDataS(sf), [t]).values[0])
                drifts += [abs(mixed_norm(v, spec) / n - 1.0) for spec, n in zip(specs, n0)]
                # the difference is formed in the reference's buffer
                ref = transport_reference(u0, ell, t).values
                np.subtract(v.values, ref, out=ref)
                del v
                errs.append(l2_norm(RadialField(grid, ref)) / l2_norm(u0))
                del ref
            # the next band's fields are made with none of this band's alive
            del u0
        worst_shift[f"d{d}"] = float(np.max(errs))
    worst_lp = float(np.max(drifts))
    yield _row("transport-shift", np.max(list(worst_shift.values())) <= shift_tol,
               {"max_rel_l2_err": worst_shift},
               shift=("s -> s + 4 t (2 ell + d)", "single-band flow is a translation"),
               tolerance=shift_tol)
    yield _row("transport-lp-invariance", worst_lp <= lp_tol, {"max_rel_drift": worst_lp},
               p=[1, 2, "inf"], tolerance=lp_tol)

    # manufactured inhomogeneous solution: u(t) = a(t) w
    grid = replace(cfg.grid(), d=1, n_rho=96, n_s=256)
    w = _single_band(grid, 8, 1)
    eig = w.eig()

    def a_fn(t):
        return np.cos(2.0 * t) * np.exp(-t / 3.0)

    def a_dot(t):
        return -2.0 * np.sin(2.0 * t) * np.exp(-t / 3.0) - a_fn(t) / 3.0

    def source(t):
        return SpectralField(grid, (eig * a_fn(t) + 1j * a_dot(t)) * w.values)

    T = 0.4
    errs = []
    for n in (8, 16):
        st = duhamel(CauchyDataS(w), source, np.linspace(0.0, T, n + 1))
        errs.append(l2_norm(RadialField(grid, st.values[-1] - a_fn(T) * inverse(w).values)))
    order = float(np.log2(errs[0] / errs[1]))
    yield _row("duhamel-order", order >= 1.9,
               {"errors": errs, "fitted_order": order},
               order=(2.0, "trapezoid rule with exact propagators"))


def bernstein_check(f: RadialField, loc: LocalizerSpec, p: float, q: float,
                    scales=(1.0, 2.0, 4.0, 8.0), L_max: int = 64) -> dict:
    """Norm-comparison exponent for localized fields across dilation scales.

    Localizes f with `loc`, then forms the exact dilation family (the same
    sample array read on grids shrunk by 1/scale in Y and 1/scale^2 in s) and
    measures ||f_a||_q / ||f_a||_p.  Both norms are exactly covariant, so the
    fitted log-log exponent must match Q (1/p - 1/q), Q = 2d + 2.
    """
    if q < p:
        raise ValueError("needs p <= q")
    eig = _eig_table(f.grid, L_max)
    f0 = _forward_inverse(f, L_max, lambda theta, sl: _localized(theta, eig[:, sl], loc))[1]
    g0 = f0.grid
    Q = 2.0 * g0.d + 2.0
    ratios = []
    for a in scales:
        fa = RadialField(replace(g0, r_max=g0.r_max / a, s_half=g0.s_half / a**2), f0.values)
        num = mixed_norm(fa, MixedNormSpec((q, q), ("Y", "s")))
        den = mixed_norm(fa, MixedNormSpec((p, p), ("Y", "s")))
        ratios.append(num / den)
    fitted = float(np.polyfit(np.log(scales), np.log(ratios), 1)[0])
    return {"fitted_exponent": fitted, "target_exponent": Q * (1.0 / p - 1.0 / q)}


@_suite("bernstein")
def suite_bernstein(cfg: RunConfig):
    """Localizer-based derivative and norm comparisons, and the eigenvalue
    spot value of the sobolev multiplier."""
    grid = replace(cfg.grid(), d=1)
    L = cfg.L_max
    # log-uniform spectral mass: every ring sees the same relative
    # distribution, so the ratio scales cleanly
    sf = SpectralField(grid, np.ones((L + 1, grid.n_s)))
    sf = SpectralField(grid, 1.0 / sf.eig())

    scales = (2.0, 4.0, 8.0, 16.0)
    ratios = []
    for lam in scales:
        floc = localize(sf, LocalizerSpec("ring", lam))
        # a numpy division: a ring the grid cannot hold gives 0/0 = nan, and
        # the rows below fail on it instead of raising
        ratios.append(np.divide(sobolev_norm(floc, 1.0), sobolev_norm(floc, 0.0)))
    slope = float(np.polyfit(np.log(scales), np.log(ratios), 1)[0])
    yield _row("bernstein-ring-ratio",
               all(lam / 2.0 - 1e-12 <= r <= lam + 1e-12 for lam, r in zip(scales, ratios)),
               {"ratios": ratios, "scales": list(scales)},
               interval=("[scale/2, scale]", "ring support of the multiplier"))
    yield _row("bernstein-ring-slope", abs(slope - 1.0) <= 0.05,
               {"fitted_slope": slope},
               slope=(1.0, "first-order derivative scaling"))

    rng = np.random.default_rng(cfg.seed + 23)
    f, _ = _band_projected(cfg, rng, 1)
    errs = []
    for (p, q) in ((2.0, np.inf), (1.0, 2.0)):
        res = bernstein_check(f, LocalizerSpec("ball", 2.0), p, q, L_max=cfg.L_max)
        errs.append(abs(res["fitted_exponent"] - res["target_exponent"]))
    worst = float(np.max(errs))
    yield _row("bernstein-norm-exponents", worst <= 0.1,
               {"max_exponent_err": worst},
               exponent=("Q (1/p - 1/q)", "exact dilation covariance of both norms"))

    # eigenvalue spot value: on the (ell=0, lam=1) line the multiplier is
    # exactly eig = 4, so the H^2/L^2 ratio is 4 and H^1/L^2 is 2
    sgrid = replace(cfg.grid(), d=1, n_s=512, s_half=16 * np.pi)
    th = np.zeros((1, sgrid.n_s), dtype=complex)
    th[0, sgrid.lam == 1.0] = 1.0  # lam_k = pi k / (16 pi) is 1 exactly at k = 16
    mode = SpectralField(sgrid, th)
    r2 = sobolev_norm(mode, 2.0) / sobolev_norm(mode, 0.0)
    r1 = sobolev_norm(mode, 1.0) / sobolev_norm(mode, 0.0)
    err = np.max([abs(r2 - 4.0) / 4.0, abs(r1 - 2.0) / 2.0])
    yield _row("sobolev-spot", err <= 1e-3,
               {"ratio_sigma2": float(r2), "ratio_sigma1": float(r1)},
               ratio_sigma2=(4.0, "eigenvalue 4|lam|(2 ell + d) at (0, 1)"),
               ratio_sigma1=(2.0, "square root of the same"))

    # diagonal operators commute
    rng = np.random.default_rng(cfg.seed + 29)
    sfr = SpectralField(grid, _cplx(rng, (L + 1, grid.n_s)))
    loc = LocalizerSpec("ball", 2.0)
    ab = localize(sobolev_multiplier(sfr, 1.3), loc)
    ba = sobolev_multiplier(localize(sfr, loc), 1.3)
    scale = np.abs(ab.values).max()
    cerr = float(np.abs(ab.values - ba.values).max() / scale) if scale else 0.0
    yield _row("multiplier-commute", cerr <= 1e-12,
               {"max_abs_err": cerr}, commutator=(0.0, "diagonal operators"))


@_suite("hausdorff-young")
def suite_hausdorff_young(cfg: RunConfig):
    """Interpolated transform bound with the measure's own constant."""
    rng = np.random.default_rng(cfg.seed + 31)
    const = plancherel_constant(1)
    fields = [_band_projected(cfg, rng, 1) for _ in range(4)]
    for p in (1.0, 4.0 / 3.0, 2.0):
        pp = np.inf if p == 1.0 else p / (p - 1.0)
        bound = const ** (0.0 if np.isinf(pp) else 1.0 / pp)
        ratios = []
        for f, sf in fields:
            if np.isinf(pp):
                snorm = float(np.abs(sf.values).max())
            else:
                dens = sf.weights() * np.abs(sf.values) ** pp
                snorm = float(dens.sum() ** (1.0 / pp))
            pnorm = mixed_norm(f, MixedNormSpec((p, p), ("Y", "s")))
            ratios.append(snorm / pnorm / bound)
        worst = float(np.max(ratios))
        yield _row(f"hausdorff-young-p{p:g}", worst <= 1.0 + 1e-6,
                   {"worst_normalized_ratio": worst},
                   bound=(bound, "interpolation between |theta| <= ||f||_1 and the "
                                 "energy constant"))


@_suite("gfun")
def suite_gfun(cfg: RunConfig):
    """Physical sphere kernel: origin value, finiteness, exact rescaling."""
    val, tail = g_function(0.0, 0.0, d=1)
    err = abs(val - 0.25) / 0.25
    yield _row("gfun-origin", err <= 1e-6,
               {"value": float(val), "rel_err": float(err), "tail_estimate": float(tail)},
               value=(0.25, "series oracle 2/pi^2 sum (2l+1)^{-2}"))

    rho = np.linspace(0.0, 4.0, 9)[:, None]
    s = np.linspace(-20.0, 20.0, 9)[None, :]
    vals, tails = g_function(rho, s, d=1)
    yield _row("gfun-finite",
               np.all(np.isfinite(vals)) and float(np.abs(vals).max()) < 1.0,
               {"max_abs": float(np.abs(vals).max()), "max_tail": float(tails.max())},
               finite=(True, "convergent band series"))

    R = 2.0
    errs = []
    for rho0, s0 in ((0.7, 3.1), (1.5, -7.3), (2.5, 11.0)):
        vR, _ = g_function(rho0, s0, d=1, radius=R)
        v1, _ = g_function(np.sqrt(R) * rho0, R * s0, d=1, radius=1.0)
        errs.append(abs(vR - R * v1) / abs(R * v1))
    worst = float(np.max(errs))
    yield _row("gfun-rescaling", worst <= 1e-10,
               {"max_rel_err": worst},
               identity=("G_R(rho, s) = R^d G_1(sqrt(R) rho, R s)",
                         "band-by-band reindexing"))

    va, _ = g_function(1.0, 5.0, d=1, L_max=2048)
    vb, _ = g_function(1.0, 5.0, d=1, L_max=4096)
    yield _row("gfun-doubling", abs(va - vb) <= 1e-6,
               {"delta": float(abs(va - vb))},
               delta=(0.0, "extrapolation stability"))


def _ones(x, *_):
    """theta = 1, for `sphere_pair` (x the bands) and `sigma_pair` (x the alpha)."""
    return np.ones_like(np.asarray(x, dtype=float))


@_suite("sphere")
def suite_sphere(cfg: RunConfig):
    """Sphere measure: total mass, exact R-scaling, restrict/extend duality,
    and refinement stability of the empirical restriction ratio."""
    pair = sphere_pair(_ones, SphereMeasure(1.0), d=1)
    target = np.pi**2 / 4.0
    err = _relative(pair["value"], target)
    yield _row("sphere-total", err <= 1e-6,
               {"value": pair["value"], "partial": pair["partial"],
                "tail": pair["tail"], "rel_err": err},
               value=(target, "2 sum mult (2l+1)^{-2} = pi^2/4 at d=1"))

    R = 2.0
    pr = sphere_pair(_ones, SphereMeasure(R), d=1)
    rerr = _relative(pr["value"], R * pair["value"])
    yield _row("sphere-rscaling", rerr <= 1e-12,
               {"rel_err": rerr}, factor=("R^d", "weights carry R^d exactly"))

    rng = np.random.default_rng(cfg.seed + 37)
    grid = replace(cfg.grid(), d=1)
    f = sample_packets(random_packet(rng, d=1, omega_range=(0.0, 1.5)), grid)
    measure = SphereMeasure(1.0)
    vals = restrict_sphere(f, measure, L_max=cfg.L_max)
    v = SphereValues(measure, 1, _cplx(rng, cfg.L_max + 1), _cplx(rng, cfg.L_max + 1))
    lhs = l2_inner(f, extend_sphere(v, grid))
    rhs = _measure_pairing(vals, v)
    derr = abs(lhs - rhs) / abs(rhs)
    yield _row("sphere-duality", derr <= 1e-10,
               {"rel_err": float(derr)},
               identity=("<f, E v>_{L^2} = (2^{d-1}/pi^{d+1}) <R f, v>_{measure}",
                         "adjoint pairing with the inversion constant"))

    # empirical ratio stability under simultaneous refinement
    rng = np.random.default_rng(cfg.seed + 41)
    packets = [random_packet(rng, d=1, omega_range=(0.0, 1.5)) for _ in range(_N_SAMPLES)]

    def ratio(parts, g, L):
        fv = sample_packets(parts, g)
        return np.sqrt(sphere_norm_sq(restrict_sphere(fv, measure, L_max=L))) / l2_norm(fv)

    yield _ratio_stability(cfg, "sphere-ratio-stability", packets, 128, 32, ratio)


@_suite("sigma")
def suite_sigma(cfg: RunConfig):
    """Paraboloid measure: window-free origin ratio, extension = free
    evolution on the window plateau, duality, refinement stability."""
    measure = SigmaMeasure()
    pair = sigma_pair(_ones, measure, d=1)
    gd = g_sigma(0.0, 0.0, 0.0, measure, d=1)
    ratio = gd["value"].real / pair["value"]
    target = 2.0 ** (3 * 1 + 2) / np.pi**1
    err = _relative(ratio, target)
    yield _row("sigma-origin-ratio", err <= 1e-6,
               {"pair_total": pair["value"], "kernel_origin": gd["value"].real,
                "ratio": float(ratio), "rel_err": err, "panels": gd["panels"]},
               ratio=(target, "2^{3d+2}/pi^d, window-independent"))

    # extension of the datum's trace reproduces the free flow when the
    # window is 1 on the datum's joint spectrum.  The datum is a Gaussian
    # profile centered away from lambda = 0 (analytic, so both the lambda
    # Riemann sum and the alpha rule converge past the gate), and the alpha
    # rule is dense enough to resolve e^{i s alpha c_ell} across the box.
    bigg = replace(cfg.grid(), d=1, n_rho=96, n_s=320, s_half=20.0)
    meas = SigmaMeasure(window=lambda a: ball_profile(np.asarray(a) / 220.0),
                        support=(0.0, 220.0))
    amps = np.array([1.0, 0.6, 0.35])  # bands 0, 1, 2

    def theta0(lam):  # the datum at lam, one column per band
        return amps * np.exp(-((lam - 2.2) ** 2) / (2.0 * 0.38**2))

    times = np.linspace(0.0, 0.12, 6)
    datum = SpectralField(bigg, theta0(bigg.lam[:, None]).T)
    u_ref = schrodinger_evolve(CauchyDataS(datum), times)
    al, wa = _gauss_rule(0.0, 220.0, 700)
    c, _ = _sigma_rays(np.arange(amps.size), 1)
    tp, tm = (theta0(sign * al[:, None] * c) + 0j for sign in (1.0, -1.0))
    u_ext = extend_sigma(SigmaValues(meas, 1, al, wa, tp, tm), bigg.with_times(times))
    diff = l2_norm(SpaceTimeField(u_ref.grid, u_ext.values - u_ref.values))
    eerr = np.sqrt(np.sum(diff**2)) / np.sqrt(np.sum(l2_norm(u_ref) ** 2))
    yield _row("sigma-extension-evolution", eerr <= 1e-6,
               {"rel_l2_err": float(eerr)},
               identity=("extension of the datum trace = free Schrodinger flow",
                         "chart alpha = eigenvalue turns extension into inversion"))

    # adjoint duality on a generic spacetime field
    rng = np.random.default_rng(cfg.seed + 43)
    g = replace(cfg.grid(), d=1, n_rho=96, n_s=256)
    L_r, n_a = 8, 12
    tms = np.linspace(0.0, 0.25, 5)
    u = _schrodinger(
        sample_packets(random_packet(rng, d=1, omega_range=(0.0, 0.3)), g), L_r, tms)
    ru = restrict_sigma(u, measure, L_max=L_r, n_alpha=n_a)
    shape = ru.theta_plus.shape
    rv = SigmaValues(measure, 1, ru.alpha, ru.alpha_weights, _cplx(rng, shape), _cplx(rng, shape))
    ev = extend_sigma(rv, g.with_times(tms))
    lhs = np.sum(u.grid.w_t * l2_inner(u, ev))
    rhs = _measure_pairing(ru, rv)
    derr = abs(lhs - rhs) / abs(rhs)
    yield _row("sigma-duality", derr <= 1e-8,
               {"rel_err": float(derr)},
               identity=("<u, E Theta>_{L^2(dt dY ds)} = "
                         "(2^{d-1}/pi^{d+1}) <R u, Theta>_{measure}",
                         "adjoint pairing with the inversion constant"))

    # refinement stability of the empirical spacetime restriction ratio
    rng = np.random.default_rng(cfg.seed + 47)
    packs = [random_packet(rng, d=1, omega_range=(0.0, 0.3)) for _ in range(_N_SAMPLES)]
    l2spec = MixedNormSpec((2.0, 2.0, 2.0), ("t", "Y", "s"))

    def ratio(parts, g, L):
        u = _schrodinger(sample_packets(parts, g), L, tms)
        rs = restrict_sigma(u, measure, L_max=L, n_alpha=12)
        return np.sqrt(sigma_norm_sq(rs)) / mixed_norm(u, l2spec)

    yield _ratio_stability(cfg, "sigma-ratio-stability", packs, 96, 12, ratio)


def est2_scan(ps=(2.0,), lams=(0.25, 0.5, 1.0, 2.0, 4.0), seed: int = 42) -> list:
    """Scale behaviour of f -> f *_lam K_0 from L^p into L^{p'}, one entry per
    exponent p in the tuple `ps` (each in [1, 2]).

    Measures ||f_lam *_lam K_0||_{p'} / ||f_lam||_p along a lam ladder on
    the default PlanarGrid for the lam-adapted family
    f_lam(Y) = phi(sqrt(lam) Y), phi a fixed random mixture of three
    Gaussians.  Twisted scaling covariance makes the ratio exactly
    proportional to lam^{-2d/p'} (d = 1), so the fitted log-log slope is the
    sharp exponent and ratio * lam^{2d/p'} is flat.  Each (f_lam, T_0 f_lam)
    pair is formed once and measured in every exponent; the result lists one
    {"ratios", "slope", "target_slope"} dict per p, in the order of `ps`.
    """
    if not all(1.0 <= p <= 2.0 for p in ps):
        raise ValueError("p must lie in [1, 2]")
    grid = PlanarGrid()
    n_terms = 3
    pps = [np.inf if p == 1.0 else p / (p - 1.0) for p in ps]
    rng = np.random.default_rng(seed)
    kappas = rng.uniform(6.0, 10.0, n_terms)
    coefs = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
    y, eta = grid.mesh()
    rsq = y**2 + eta**2
    ratios = np.empty((len(ps), len(lams)))
    for j, lam in enumerate(lams):
        vals = sum(c * np.exp(-k * lam * rsq) for c, k in zip(coefs, kappas))
        f = PlanarField(grid, vals)
        out = tn_apply(f, 0, lam)
        for i, (p, pp) in enumerate(zip(ps, pps)):
            ratios[i, j] = planar_norm(out, pp) / planar_norm(f, p)
    return [
        {"ratios": r,
         "slope": float(np.polyfit(np.log(lams), np.log(r), 1)[0]),
         "target_slope": 0.0 if np.isinf(pp) else -2.0 / pp}
        for r, pp in zip(ratios, pps)
    ]


def young_check(seed: int = 7) -> float:
    """Worst ratio ||f *_lam g||_inf / (||f||_1 ||g||_inf) at lam = 1.

    The phase has modulus one, so the twisted Young bound 1 holds
    configuration by configuration; four random Gaussian-mixture pairs on the
    default PlanarGrid probe the discretization.  The worst ratio is an
    np.max, so a NaN trial propagates.
    """
    lam = 1.0
    grid = PlanarGrid()
    rng = np.random.default_rng(seed)
    y, eta = grid.mesh()
    rsq = y**2 + eta**2
    ratios = []
    for _ in range(4):
        ka, kb = rng.uniform(0.5, 3.0, 2)
        ca = rng.standard_normal() + 1j * rng.standard_normal()
        cb = rng.standard_normal() + 1j * rng.standard_normal()
        f = PlanarField(grid, ca * np.exp(-ka * rsq))
        g = PlanarField(grid, cb * np.exp(-kb * rsq) * np.cos(y))
        out = twisted_convolve(f, g, lam)
        bound = planar_norm(f, 1.0) * planar_norm(g, np.inf)
        ratios.append(planar_norm(out, np.inf) / bound)
    return float(np.max(ratios))


def algebra_scaling(lams=(0.5, 1.0, 2.0, 4.0)) -> dict:
    """lam-slope of ||f *_lam g||_2 / (||f||_2 ||g||_2) on the kernel family.

    For f = g = K_0(lam, .) the self-reproducing identity plus
    ||K_0||_2^2 = (pi/(2 lam))^d gives the ratio (pi/(2 lam))^{d/2}
    exactly, so the fitted slope is -d/2: the kernels saturate the twisted
    L^2 algebra bound C |lam|^{-d/2}.
    """
    grid = PlanarGrid()
    ratios = []
    for lam in lams:
        k = kernel_field(grid, 0, lam)
        out = twisted_convolve(k, k, lam)
        ratios.append(planar_norm(out, 2.0) / planar_norm(k, 2.0) ** 2)
    lams = np.asarray(lams, dtype=float)
    ratios = np.asarray(ratios)
    slope = float(np.polyfit(np.log(lams), np.log(ratios), 1)[0])
    return {
        "ratios": ratios,
        "slope": slope,
        "target_slope": -0.5,
        "exact_ratios": np.sqrt(np.pi / (2.0 * lams)),
    }


def tn_norm_proxy(n: int = 49, n_inputs: int = 64, seed: int = 0) -> dict:
    """Rayleigh-quotient lower estimate of ||T_0|| at lam = 1, seeded inputs.

    A measured norm proxy only — max over `n_inputs` random smooth fields of
    ||T f||_2 / ||f||_2 — never larger than the exact value (pi/(2|lam|))^d,
    and close to it because K_0 itself is nearly in the random span.
    Runs on a coarser n x n lattice of half-width 8 to keep the O(n^4) cost
    down.  The max is an np.max, so a NaN input propagates.
    """
    grid = PlanarGrid(half_width=8.0, n=n)
    rng = np.random.default_rng(seed)
    y, eta = grid.mesh()
    rsq = y**2 + eta**2
    ratios = []
    for _ in range(n_inputs):
        kap = rng.uniform(0.5, 2.0)
        mix = (
            rng.standard_normal() * np.exp(-kap * rsq)
            + rng.standard_normal() * np.exp(-1.3 * kap * rsq) * np.cos(rng.uniform(0.3, 2.0) * y)
            + 1j * rng.standard_normal() * np.exp(-0.8 * kap * rsq) * np.sin(rng.uniform(0.3, 2.0) * eta)
        )
        f = PlanarField(grid, mix)
        out = tn_apply(f, 0, 1.0)
        ratios.append(planar_norm(out, 2.0) / planar_norm(f, 2.0))
    return {
        "measured_norm_proxy": float(np.max(ratios)),
        "exact_norm": operator_norm(0, 1.0),
        "n_inputs": n_inputs,
    }


@_suite("est2")
def suite_est2(cfg: RunConfig):
    """Band-projection operators under twisted convolution: sharp lam-scaling,
    exact reproducing identities, Young bound, algebra scaling, norm proxy."""
    scans = est2_scan((2.0, 1.0), seed=cfg.seed)
    for res, name in zip(scans, ("est2-slope-p2", "est2-slope-p1")):
        err = abs(res["slope"] - res["target_slope"])
        yield _row(name, err <= 0.1,
                   {"slope": res["slope"], "ratios": res["ratios"]},
                   slope=(res["target_slope"], "twisted scaling covariance: -2d/p'"))

    grid2 = PlanarGrid()
    lam = 1.0
    k0 = kernel_field(grid2, 0, lam)
    conv = twisted_convolve(k0, k0, lam)
    c = operator_norm(0, lam)
    rerr = float(np.abs(conv.values - c * k0.values).max() / np.abs(c * k0.values).max())
    cross = twisted_convolve(k0, kernel_field(grid2, 1, lam), lam)
    xerr = float(np.abs(cross.values).max() / np.abs(conv.values).max())
    yield _row("twisted-reproducing", rerr <= 1e-8,
               {"rel_err": rerr},
               identity=("K_0 * K_0 = (pi/(2 lam))^d K_0", "self-reproducing band kernels"))
    yield _row("twisted-cross-band", xerr <= 1e-8,
               {"rel_err": xerr}, identity=("K_0 * K_1 = 0", "band orthogonality"))

    proxy = tn_norm_proxy(n_inputs=64, seed=cfg.seed)
    exact = proxy["exact_norm"]
    yield _row("twisted-norm",
               0.5 * exact <= proxy["measured_norm_proxy"] <= exact * (1 + 1e-9),
               {"norm_proxy": proxy["measured_norm_proxy"], "n_inputs": proxy["n_inputs"]},
               norm=(exact, "(pi/(2|lam|))^d: scaled projection"))

    worst = young_check(seed=cfg.seed)
    yield _row("twisted-young", worst <= 1.0 + 1e-9,
               {"worst_ratio": worst},
               bound=(1.0, "unimodular phase under the integral"))

    alg = algebra_scaling()
    aerr = float(np.abs(alg["ratios"] / alg["exact_ratios"] - 1.0).max())
    yield _row("twisted-algebra-slope", abs(alg["slope"] + 0.5) <= 0.05 and aerr <= 1e-6,
               {"slope": alg["slope"], "max_rel_err_vs_exact": aerr},
               slope=(-0.5, "kernel family saturates C |lam|^{-d/2}"))


def orth_check(ells=(1, 2, 4, 8, 16, 32, 64), n_quad: int = 4096) -> dict:
    """Near-orthogonality of the normalized per-band kernels (d = 1).

    k_ell = normalized_kernel(ell, .) carries its own central frequency
    lam_ell = 1/(2 ell + d).  The pair integrals use absolute values,
    I(ell, m) = int |k_ell| |k_m| over R^{2d}, so cancellation gets no
    credit; the diagonal I(ell, ell) = (pi/2)^d / (2 ell + d) exactly, and
    I(ell, 2 ell) decays like 1/max = 1/(2 ell).  The quadrature is the
    radial rule of a Grid with n_quad nodes on [0, R] (its rho and w_radial),
    with R past both kernels' turning points.
    """
    d = 1
    ells = np.asarray(ells, dtype=int)
    m_big = int(ells.max()) * 2
    R = 2.0 * (2.0 * m_big + d) + 40.0
    grid = Grid(d=d, n_rho=n_quad, r_max=R)
    rho, w = grid.rho, grid.w_radial
    bands = {int(l) for l in ells} | {2 * int(l) for l in ells}
    table = {m: np.abs(normalized_kernel(m, rho, d)) for m in bands}
    diag = np.array([np.sum(w * table[int(l)] ** 2) for l in ells])
    diag_target = (np.pi / 2.0) ** d / (2.0 * ells + d)
    off = np.array([np.sum(w * table[int(l)] * table[2 * int(l)]) for l in ells])
    slope = float(np.polyfit(np.log(ells), np.log(off), 1)[0])
    growth = float(np.polyfit(np.log(ells), np.log(2.0 * ells * off), 1)[0])
    pairs = [(int(a), int(b)) for a in ells for b in ells if a != b]
    scaled = [max(a, b) * np.sum(w * table[a] * table[b]) for a, b in pairs]
    return {
        "diag": diag,
        "diag_rel_err": float(np.max(np.abs(diag - diag_target) / diag_target)),
        "offdiag": off,
        "offdiag_slope": slope,
        "scaled_growth_slope": growth,
        "max_scaled_offdiag": float(np.max(scaled)),
    }


@_suite("orth")
def suite_orth(cfg: RunConfig):
    """Absolute-value pair integrals of the normalized band kernels."""
    res = orth_check()
    yield _row("orth-diagonal", res["diag_rel_err"] <= 1e-8,
               {"diag": res["diag"], "rel_err": res["diag_rel_err"]},
               diag=("(pi/2)^d / (2 ell + d)", "closed-form norm of the scaled kernel"))
    yield _row("orth-decay-slope", -1.3 <= res["offdiag_slope"] <= -0.7,
               {"slope": res["offdiag_slope"], "pairs": res["offdiag"]},
               slope_window=([-1.3, -0.7], "1/max(ell, m) decay, fitted"))
    yield _row("orth-scaled-bounded",
               res["scaled_growth_slope"] <= 0.2 and np.isfinite(res["max_scaled_offdiag"]),
               {"growth_slope": res["scaled_growth_slope"],
                "max_scaled": res["max_scaled_offdiag"]},
               growth=(0.0, "max(ell,m) I(ell,m) stays bounded"))


_HARDY_N = 512  # length of the sequences the averaging operator acts on


def hardy_check(p: float = 2.0, n_seeds: int = 1000, seed: int = 0) -> dict:
    """Averaging-operator bound: ||(1/m) sum_{l<=m} |a_l|||_p <= p/(p-1) ||a||_p,
    probed by random nonnegative sequences of length _HARDY_N."""
    if p <= 1.0:
        raise ValueError("p must exceed 1 (the bound p/(p-1) degenerates)")
    rng = np.random.default_rng(seed)
    m = np.arange(1, _HARDY_N + 1, dtype=float)
    a = np.abs(rng.standard_normal((n_seeds, _HARDY_N)))
    b = np.cumsum(a, axis=1) / m[None, :]
    ratios = (b**p).sum(axis=1) ** (1.0 / p) / (a**p).sum(axis=1) ** (1.0 / p)
    return {"bound": p / (p - 1.0), "worst_ratio": float(ratios.max()), "n_seeds": n_seeds}


@_suite("hardy")
def suite_hardy(cfg: RunConfig):
    """Averaging operator on sequences: sharp-constant bound and the spike.

    The single-spike sequence e_1 gives the explicit ratio
    (sum_{m<=N} m^{-p})^{1/p}, which at p = 2 converges to pi/sqrt(6) with
    an O(1/N) defect.
    """
    for p in (1.5, 2.0, 3.0):
        res = hardy_check(p=p, n_seeds=1000, seed=cfg.seed)
        yield _row(f"hardy-p{p:g}", res["worst_ratio"] <= res["bound"] + 1e-9,
                   {"worst_ratio": res["worst_ratio"], "n_seeds": res["n_seeds"]},
                   bound=(res["bound"], "classical constant p/(p-1)"))
    p, m = 2.0, np.arange(1, _HARDY_N + 1, dtype=float)
    ratio = float(np.sum(m**-p) ** (1.0 / p))
    limit = float(np.pi / np.sqrt(6.0))
    defect = abs(ratio - limit)
    yield _row("hardy-spike", defect <= 0.5 / _HARDY_N and ratio <= 2.0,
               {"ratio": ratio, "defect": float(defect)},
               limit=(limit, "partial sums of sum m^{-2} = pi^2/6"))


@_suite("strichartz-scaling")
def suite_strichartz(cfg: RunConfig):
    """Scaling flatness of the spacetime estimate's two sides, and the
    admissible-set gates on a tabulated pair list."""
    grid = replace(cfg.grid(), d=1)
    L = 4
    rngth = np.random.default_rng(cfg.seed + 53)
    th = np.zeros((L + 1, grid.n_s), dtype=complex)
    for l in range(L + 1):
        th[l] = (rngth.uniform(0.5, 1.0) * np.exp(2j * np.pi * rngth.uniform())
                 * bump(grid.lam, 0.4, 2.2))
    sf0 = SpectralField(grid, th)
    u0 = inverse(sf0)
    times = np.linspace(0.0, 0.4, 9)
    u = schrodinger_evolve(CauchyDataS(sf0), times)
    Q = 4.0
    for (p, q) in ((2.0, 2.0), (2.0, np.inf)):
        iq = 0.0 if np.isinf(q) else 1.0 / q
        sigma = Q / 2.0 - 2.0 * iq - 2.0 / p
        spec = MixedNormSpec((np.inf, q, p), ("s", "t", "Y"))
        ratios = []
        for lam in (1.0, 2.0, 4.0):
            gl = replace(grid, r_max=cfg.r_max * lam, s_half=cfg.s_half * lam**2,
                         t_nodes=times * lam**2)
            lhs = mixed_norm(SpaceTimeField(gl, u.values), spec)
            rhs = sobolev_norm(forward(RadialField(gl.with_times(None), u0.values), L),
                               sigma)
            # a numpy division: data the grid cannot hold give a nan, a failed row
            ratios.append(np.divide(lhs, rhs))
        ratios = np.asarray(ratios)
        flat = float(np.abs(ratios / ratios[0] - 1.0).max())
        qn = "inf" if np.isinf(q) else f"{q:g}"
        yield _row(f"strichartz-flatness-p{p:g}q{qn}", flat <= 1e-6,
                   {"ratios": ratios, "max_rel_spread": flat, "sobolev_order": sigma},
                   spread=(0.0, "both sides scale by the same power"))

    table_s = [
        (2.0, 2.0, True), (2.0, 4.0, True), (2.0, np.inf, True), (4.0, 4.0, True),
        (3.0, 8.0, True), (np.inf, np.inf, True), (2.0, 3.0, True),
        (5.0, np.inf, True), (4.0, 2.0, False), (1.5, 2.0, False), (6.0, 4.0, False),
    ]
    table_w = [
        (2.0, np.inf, True), (4.0, 4.0, True), (np.inf, np.inf, True),
        (3.0, 6.0, True), (4.0, 8.0, True), (2.0, 2.0, False), (2.0, 4.0, False),
        (1.0, 4.0, False), (8.0, 4.0, False),
    ]
    for eq, table, nm in (("schrodinger", table_s, "admissible-schrodinger"),
                          ("wave", table_w, "admissible-wave")):
        got = [admissible(eq, p, q, 1) for (p, q, _) in table]
        want = [w for (_, _, w) in table]
        yield _row(nm, got == want, {"gate": got},
                   gate=(want, "tabulated exponent inequalities"))


@_suite("wave-energy")
def suite_wave_energy(cfg: RunConfig):
    """Unitarity of the free flow and conservation of the wave energy.

    The 65 unitarity norms are taken over chunks of 8 times, so the 65-time
    flow (32.5 MiB) never exists at once."""
    grid = replace(cfg.grid(), d=1, n_rho=128, n_s=256)
    L = 8
    rng = np.random.default_rng(cfg.seed + 59)
    prof = bump(np.abs(grid.lam), 0.5, 2.0)
    th0 = _cplx(rng, (L + 1, 1)) * prof
    sf0 = SpectralField(grid, th0)
    times = np.linspace(0.0, 3.0, 65)
    # the inverse's gemm sums over the L + 1 = 9 bands, and here each
    # chunk's slices keep the bytes the whole flow had (a test holds them)
    norms = np.concatenate([
        l2_norm(schrodinger_evolve(CauchyDataS(sf0), times[i:i + 8]))
        for i in range(0, times.size, 8)])
    drift = float(np.abs(norms / norms[0] - 1.0).max())
    yield _row("schrodinger-unitarity", drift <= 1e-10,
               {"max_rel_drift": drift, "steps": int(times.size - 1)},
               drift=(0.0, "unimodular multiplier"))
    th1 = _cplx(rng, (L + 1, 1)) * prof
    en = wave_energy_series(CauchyDataW(sf0, SpectralField(grid, th1)), times)
    edrift = float(np.abs(en / en[0] - 1.0).max())
    yield _row("wave-energy-conservation", edrift <= 1e-10,
               {"max_rel_drift": edrift, "steps": int(times.size - 1)},
               drift=(0.0, "half-wave phases preserve the density"))


# s-rows per block of the decay probe: its offset table and each block's field
# are (128, n_quad) and (128, 4), whatever the length of the s-window
_S_BLOCK = 128


def wave_decay_probe(times=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
                     n_quad: int = 3200) -> dict:
    """Sup-norm decay of a positive half-wave packet at d = 1, fitted in log-log.

    The packet sits on band ell = 0 with the smooth spectral weight
    g(lam) = exp(-lam / freq_scale), freq_scale = 16, i.e. concentrated
    around eigenvalue ~ 4 * freq_scale * d.  Putting the data at a high
    frequency scale matters: the sup norm is flat until the group-velocity
    spread has dispersed the initial profile, and at this scale that onset
    sits below t = 1, so the whole fit window shows the stationary-phase
    rate t^{-1/2} (d = 1).  The field is synthesized by direct oscillatory
    quadrature on an s-window that follows the slowest/fastest rays
    s ~ -t sqrt(m / lam), so no grid truncation can fake decay.

    The window s_k = s_lo + k ds, on the fixed step ds = 0.02, is cut into
    blocks of `_S_BLOCK` = 128 s-rows, so memory stays bounded however long
    it grows with t.  Row lo + j has the phase e^{i s_{lo} lam} e^{i j ds lam},
    so one offset table e^{i j ds lam} (128 x n_quad), built once per call,
    serves every block of every time, and a block is one matrix product of
    that table with the (n_quad, n_rho) factor that carries the block's start
    phase, the half-wave phase e^{2 i t sqrt(lam m)} and the quadrature
    weight.  The sup over s-blocks is an np.max, so a NaN block propagates.
    """
    d, ell, freq_scale, ds = 1, 0, 16.0, 0.02
    m = 2 * ell + d
    lam_hi = 14.0 * freq_scale  # weight below e^{-14} past here
    lam, wl = _gauss_rule(0.0, lam_hi, n_quad)
    const = 2.0 ** (d - 1) / np.pi ** (d + 1)
    rhos = np.array([0.0, 0.5, 1.0, 2.0])
    K = wigner_radial(ell, lam[:, None], rhos, d)  # (nq, n_rho)
    weight = np.exp(-lam / freq_scale) * wl * lam**d  # g(lam) times the measure
    # (block, nq), exponentiated in place: 6.5 MB complex at the default sizes
    table = 1j * np.outer(ds * np.arange(_S_BLOCK), lam)
    np.exp(table, out=table)
    sups = []
    for t in times:
        s_lo = -0.8 * np.sqrt(m) * t - 30.0
        n = int(np.ceil((30.0 - s_lo) / ds))  # the length of np.arange(s_lo, 30, ds)
        halfwave = 2.0 * t * np.sqrt(lam * m)
        block_sups = []
        for lo in range(0, n, _S_BLOCK):
            v = np.exp(1j * ((s_lo + lo * ds) * lam + halfwave)) * weight
            field = const * (table[:n - lo] @ (v[:, None] * K))  # (block, n_rho)
            block_sups.append(np.abs(field).max())
        sups.append(np.max(block_sups))
    sups = np.asarray(sups)
    slope = np.polyfit(np.log(times), np.log(sups), 1)[0]
    return {"sup_norms": sups, "fitted_exponent": float(slope)}


def schrodinger_decay_probe() -> dict:
    """Sup-norm along the free Schrodinger flow of a single-band datum.

    The datum sits on band ell = 1 of the default grid.  The flow transports
    the profile, so the sup norm is exactly flat; the six times t_unit 2^k
    are chosen so the central shift 4 t (2 ell + d) is a whole number of
    grid steps and the invariance is exact rather than sampled.  The times
    are evolved in pairs (four evolves), and each pair's flow is, bit for
    bit, its slices of the whole flow, so two slices are alive at once.
    """
    grid = Grid()
    d, ell, L_max, n_steps = grid.d, 1, 8, 6
    sf = _single_band(grid, L_max, ell)
    ref = np.abs(inverse(sf).values).max()
    speed = 4.0 * (2 * ell + d)
    t_unit = grid.h_s / speed  # shift of exactly one s-cell
    times = np.array([0.0] + [t_unit * 2**k for k in range(n_steps)])
    sups = np.concatenate([np.abs(schrodinger_evolve(CauchyDataS(sf), times[k:k + 2]).values)
                           .max(axis=(1, 2)) for k in range(0, times.size, 2)])
    slope = np.polyfit(np.log(times[1:]), np.log(sups[1:]), 1)[0]
    return {
        "fitted_exponent": float(slope),
        "max_rel_drift": float(np.abs(sups / ref - 1.0).max()),
    }


@_suite("decay-probe")
def suite_decay(cfg: RunConfig):
    """Wave packets spread at the cone rate; Schrodinger single-band data
    do not decay at all."""
    probe = wave_decay_probe()
    yield _row("wave-decay-exponent", probe["fitted_exponent"] <= -0.4,
               {"fitted_exponent": probe["fitted_exponent"], "sup_norms": probe["sup_norms"]},
               exponent=(-0.5, "stationary-phase rate at d=1"))
    sp = schrodinger_decay_probe()
    yield _row("schrodinger-nondecay",
               abs(sp["fitted_exponent"]) <= 0.05 and sp["max_rel_drift"] <= 1e-10,
               {"fitted_exponent": sp["fitted_exponent"], "max_rel_drift": sp["max_rel_drift"]},
               exponent=(0.0, "transport moves the profile rigidly"))


def translate_identity_check() -> dict:
    """Left translation turns the spectral pairing into kernel x phase.

    For radial f with coefficients theta(ell, lam),

        int e^{-i s lam} K_ell(lam, Y) f(v^{-1} (Y, s)) dY ds
            = theta(ell, lam) e^{-i s0 lam} K_ell(lam, Y0),

    v = (Y0, s0) = ((0.3, -0.2), 0.5).  Checked at ell = 0..3 and
    lam in {0.7, 1.3} by direct 3-D Gauss quadrature (80 x 80 x 128 nodes)
    against the closed-form coefficients of a modulated Gaussian.  The s
    integral is taken once per lam, and each band sums its kernel against
    that 80 x 80 array.
    """
    ells, lams, Y0, s0, n_y, n_s = (0, 1, 2, 3), (0.7, 1.3), (0.3, -0.2), 0.5, 80, 128
    closure = GaussianClosure(d=1, a=1.0, b=0.5, omega=2.0, s0=0.0, amp=1.0)
    Ly, Ls = 6.0, 12.0
    # symmetric rules Ly x, Ly w, not `_gauss_rule(-Ly, Ly, n)`: its map
    # 0.5 (2 Ly)(x + 1) - Ly rounds otherwise, and moves the report's figure
    xy, wy = _legendre_rule(n_y)
    y, wy = Ly * xy, Ly * wy
    xs, ws = _legendre_rule(n_s)
    s, ws = Ls * xs, Ls * ws
    yv = y[:, None]
    ev = y[None, :]
    y0, eta0 = Y0
    sig = eta0 * yv - ev * y0  # sigma(Y0, Y)
    rho_sh = np.sqrt((yv - y0) ** 2 + (ev - eta0) ** 2)
    wyy = wy[:, None] * wy[None, :]
    # WF = W3 F, the 3-D weights times f(v^{-1} w) on the mesh, one y-slice at
    # a time: (s - s0) - 2 sigma, f there, and the weights (wy wy') ws, each
    # as the whole mesh had it, with no mesh-sized float array
    WF = np.empty((n_y, n_y, n_s), dtype=complex)
    for i in range(n_y):
        s_sh = s[None, :] - s0 - 2.0 * sig[i, :, None]
        WF[i] = closure.values(rho_sh[i, :, None], s_sh)
        np.multiply(wyy[i, :, None] * ws[None, :], WF[i], out=WF[i])
    rho = np.sqrt(yv**2 + ev**2)
    rho0 = float(np.hypot(y0, eta0))
    errs = []
    for lam in lams:
        # einsum, not @, so the order of the sums does not depend on BLAS threads
        G = np.einsum("ijk,k->ij", WF, np.exp(-1j * lam * s))
        for ell in ells:
            lhs = np.sum(wigner_radial(ell, lam, rho, 1) * G)
            theta = complex(closure.coefficients(np.array([ell]), np.array([lam]))[0, 0])
            rhs = theta * np.exp(-1j * s0 * lam) * wigner_radial(ell, lam, rho0, 1)
            errs.append(abs(lhs - rhs) / abs(rhs))
    return {"max_rel_err": float(np.max(errs)), "ells": list(ells), "lams": list(lams)}


@_suite("translate-identity")
def suite_translate(cfg: RunConfig):
    res = translate_identity_check()
    yield _row("translate-identity", res["max_rel_err"] <= 1e-5, res,
               identity=("pairing of a translate = theta x e^{-i s0 lam} K(lam, Y0)",
                         "matrix-coefficient sum of the band projection"))


def run_suites(cfg: RunConfig) -> VerificationReport:
    """Run the config's entries, each "all", a suite or SUITE/ROW (that row
    alone, its suite run only as far as it), and assemble the report.  A
    suite part that is neither a suite nor "all", "all/ROW", and a row of a
    suite also run whole are refused (ConfigError) before any suite runs."""
    known = set(SUITES) | {"all"}
    for entry in cfg.suites:
        name, sep, _ = entry.partition("/")
        if name not in known:
            raise ConfigError(f"unknown suite {name!r}; known: {', '.join(sorted(known))}")
        if sep and (name == "all" or {name, "all"} & set(cfg.suites)):
            raise ConfigError(f"{entry!r}: a row is named SUITE/ROW of a suite not run whole")
    names = list(SUITES) if "all" in cfg.suites else list(cfg.suites)
    results = []
    for entry in names:
        name, sep, row = entry.partition("/")
        results.extend(SUITES[name](cfg, row if sep else None))
    rng = np.random.default_rng(cfg.seed)
    _, sf = _band_projected(cfg, rng, cfg.d)
    diagnostics = {"band_tail_fraction": _tail_fraction(sf), "suites": names}
    return VerificationReport(cfg.as_dict(), results, diagnostics)
