"""Verification suites: every identity and estimate the library can check.

Each suite function maps a RunConfig to a list of CheckResult rows; the
registry SUITES exposes them by name, and run_suites() assembles the
deterministic VerificationReport.  Every numeric target carries a `basis`
string saying how the number is known (exact algebra, closed form,
classical constant, measured slope against a scaling law, ...), and every
random input derives from the config seed.
"""

from __future__ import annotations

import numpy as np
from scipy.special import roots_legendre

from .config import RunConfig
from .fields import (
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
    sample_packets,
)
from .propagators import (
    CauchyDataS,
    CauchyDataW,
    admissible,
    duhamel,
    schrodinger_decay_probe,
    schrodinger_evolve,
    transport_reference,
    wave_decay_probe,
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
)
from .specfun import eigenvalue, wigner_radial
from .transform import (
    LocalizerSpec,
    SpectralField,
    bernstein_check,
    forward,
    inverse,
    localize,
    plancherel_constant,
    plancherel_pair,
    sobolev_multiplier,
    sobolev_norm,
    spectral_inner_D,
    transform_D,
)
from .twisted import (
    PlanarGrid,
    algebra_scaling,
    est2_scan,
    hardy_check,
    kernel_field,
    operator_norm,
    orth_check,
    tn_norm_proxy,
    twisted_convolve,
    young_check,
)
from .windows import ball_profile, bump

__all__ = ["SUITES", "SUITE_ORDER", "run_suites", "translate_identity_check"]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _grid_for(cfg: RunConfig, d: int) -> Grid:
    return Grid(d=d, n_rho=cfg.n_rho, r_max=cfg.r_max, n_s=cfg.n_s, s_half=cfg.s_half)


def _band_projected(cfg: RunConfig, rng, d: int, L_max=None, n_terms=2):
    """A random packet pushed once through inverse(forward(.)): band-limited."""
    grid = _grid_for(cfg, d)
    L = cfg.L_max if L_max is None else L_max
    parts = random_packet(rng, d=d, n_terms=n_terms)
    sf = forward(sample_packets(parts, grid), L)
    f = inverse(sf)
    return f, forward(f, L)


def _tail_fraction(sf: SpectralField, bands: int = 4) -> float:
    """Spectral mass fraction in the top `bands` rows — the truncation monitor."""
    dens = sf.mults()[:, None] * sf.grid.w_lam[None, :] * np.abs(sf.values) ** 2
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    return float(dens[-bands:].sum() / total)


def _relative(a, b) -> float:
    return float(abs(a - b) / abs(b))


def _single_band(grid: Grid, L_max: int, ell: int, lo=0.5, hi=2.0) -> SpectralField:
    theta = np.zeros((L_max + 1, grid.n_s), dtype=complex)
    theta[ell] = bump(grid.lam, lo, hi)
    return SpectralField(grid, theta)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_plancherel(cfg: RunConfig):
    """Energy-ratio constant over the Gaussian suite, both dimensions,
    plus the spacetime transform's constant."""
    out = []
    tol = cfg.tol("plancherel-ratio", 1e-6)
    for d in (1, 2):
        rng = np.random.default_rng(cfg.seed + 11 * d)
        worst = 0.0
        fields = [_band_projected(cfg, rng, d)[0] for _ in range(3)]
        target = plancherel_constant(d)
        for i, f in enumerate(fields):
            pr = plancherel_pair(f, f, L_max=cfg.L_max)
            worst = max(worst, _relative(pr["ratio"], target))
            g = fields[(i + 1) % len(fields)]
            pr2 = plancherel_pair(f, g, L_max=cfg.L_max)
            worst = max(worst, _relative(pr2["ratio"], target))
        out.append(
            CheckResult(
                name=f"plancherel-ratio-d{d}",
                passed=bool(worst <= tol),
                measured={"max_rel_err": worst},
                targets={
                    "ratio": {"value": target, "basis": "exact constant pi^(d+1)/2^(d-1)"},
                    "tolerance": tol,
                },
            )
        )
    # product-group transform: t-DFT Parseval contributes an exact 2*pi
    rng = np.random.default_rng(cfg.seed + 5)
    f, sf = _band_projected(cfg, rng, 1)
    times = np.linspace(0.0, 0.4, 8)
    u = schrodinger_evolve(CauchyDataS(sf), times)
    D = transform_D(u, L_max=cfg.L_max)
    dt = times[1] - times[0]
    phys = dt * sum(
        l2_norm(RadialField(f.grid, u.values[i])) ** 2 for i in range(times.size)
    )
    ratio = spectral_inner_D(D, D).real / phys
    target = np.pi ** (1 + 2) / 2.0 ** (1 - 2)
    err = _relative(ratio, target)
    out.append(
        CheckResult(
            name="plancherel-spacetime-ratio",
            passed=bool(err <= cfg.tol("plancherel-spacetime", 1e-5)),
            measured={"ratio": ratio, "rel_err": err},
            targets={"ratio": {"value": target, "basis": "exact constant pi^(d+2)/2^(d-2)"}},
        )
    )
    return out


def suite_roundtrip(cfg: RunConfig):
    """Inversion, idempotency, the closed-form Gaussian oracle, and dilation
    covariance."""
    out = []
    tol = cfg.tol("roundtrip", 1e-6)
    for d in (1, 2):
        rng = np.random.default_rng(cfg.seed + 17 * d)
        f, sf = _band_projected(cfg, rng, d)
        g = inverse(forward(f, cfg.L_max))
        err = l2_norm(RadialField(f.grid, g.values - f.values)) / l2_norm(f)
        out.append(
            CheckResult(
                name=f"roundtrip-d{d}",
                passed=bool(err <= tol),
                measured={"rel_l2_err": float(err), "tail_fraction": _tail_fraction(sf)},
                targets={"rel_l2_err": {"value": 0.0, "basis": "inversion identity"},
                         "tolerance": tol},
            )
        )
        if d == 1:
            h = inverse(forward(g, cfg.L_max))
            ierr = l2_norm(RadialField(f.grid, h.values - g.values)) / l2_norm(g)
            out.append(
                CheckResult(
                    name="roundtrip-idempotent",
                    passed=bool(ierr <= cfg.tol("idempotency", 1e-7)),
                    measured={"rel_l2_err": float(ierr)},
                    targets={"rel_l2_err": {"value": 0.0,
                                            "basis": "projection idempotency"}},
                )
            )

    # closed form: the transform of e^{-a|Y|^2} phi(s) in both quadrature modes
    grid = _grid_for(cfg, 1)
    ells = np.arange(16 + 1)
    closure = GaussianClosure(d=1, a=1.0, b=0.5, omega=3.0, s0=0.0, amp=1.0)
    exact = closure.coefficients(ells, grid.lam)
    exact[:, grid.izero] = 0.0
    scale = np.abs(exact).max()
    sf_cl = forward(closure, L_max=16, mode="closure", grid=grid)
    err_cl = float(np.abs(sf_cl.values - exact).max() / scale)
    out.append(
        CheckResult(
            name="closure-oracle",
            passed=bool(err_cl <= cfg.tol("closure-oracle", 1e-8)),
            measured={"max_err": err_cl},
            targets={"coefficients": {
                "value": "phihat(lam) pi^d (a-|lam|)^ell / (a+|lam|)^(ell+d)",
                "basis": "closed form (Laplace transform of Laguerre functions)",
            }},
        )
    )
    sf_gr = forward(closure.sample(grid), L_max=16)
    err_gr = float(np.abs(sf_gr.values - exact).max() / scale)
    out.append(
        CheckResult(
            name="grid-forward-vs-closed-form",
            passed=bool(err_gr <= cfg.tol("grid-oracle", 1e-7)),
            measured={"max_err": err_gr},
            targets={"max_err": {"value": 0.0, "basis": "same closed form, grid rule"}},
        )
    )

    # dilation covariance: numerical resampling against the closed dilation
    a = 1.25
    base = GaussianClosure(d=1, a=1.0, b=0.6, omega=2.5, s0=0.0, amp=1.0)
    dil = GaussianClosure(d=1, a=base.a * a**2, b=base.b * a**4,
                          omega=base.omega * a**2, s0=0.0, amp=1.0)
    f0 = base.sample(grid)
    num = dilate(f0, a)
    ref = dil.sample(grid)
    derr = l2_norm(RadialField(grid, num.values - ref.values)) / l2_norm(ref)
    out.append(
        CheckResult(
            name="dilation-covariance",
            passed=bool(derr <= cfg.tol("dilation", 1e-6)),
            measured={"rel_l2_err": float(derr), "scale": a},
            targets={"rel_l2_err": {"value": 0.0,
                                    "basis": "delta_a covariance, closed-form resample"}},
        )
    )
    return out


def suite_transport(cfg: RunConfig):
    """Single-band data move by s-shifts; the trapezoid Duhamel is 2nd order."""
    out = []
    shift_tol = cfg.tol("transport-shift", 1e-8)
    lp_tol = cfg.tol("transport-lp", 1e-4)
    worst_shift = {}
    worst_lp = 0.0
    for d in (1, 2):
        # the L^p sums cross the |.| kink at O(h_s^2); refine s for headroom
        grid = Grid(d=d, n_rho=cfg.n_rho, r_max=cfg.r_max,
                    n_s=max(cfg.n_s, 2048), s_half=cfg.s_half)
        worst = 0.0
        for ell in (0, 1, 2):
            sf = _single_band(grid, 8, ell)
            u0 = inverse(sf)
            speed = 4.0 * (2 * ell + d)
            t1 = 16.0 * grid.h_s / speed  # exact 16-cell shift
            t2 = 0.2374  # generic, spectrally interpolated
            st = schrodinger_evolve(CauchyDataS(sf), [t1, t2])
            for k, t in enumerate((t1, t2)):
                ref = transport_reference(u0, ell, t)
                err = l2_norm(
                    RadialField(grid, st.values[k] - ref.values)
                ) / l2_norm(u0)
                worst = max(worst, float(err))
            for p in (1.0, 2.0, np.inf):
                spec = MixedNormSpec((p, p), ("Y", "s"))
                n0 = mixed_norm(u0, spec)
                for k in range(2):
                    nk = mixed_norm(RadialField(grid, st.values[k]), spec)
                    worst_lp = max(worst_lp, abs(nk / n0 - 1.0))
        worst_shift[f"d{d}"] = worst
    out.append(
        CheckResult(
            name="transport-shift",
            passed=bool(max(worst_shift.values()) <= shift_tol),
            measured={"max_rel_l2_err": worst_shift},
            targets={"shift": {"value": "s -> s + 4 t (2 ell + d)",
                               "basis": "single-band flow is a translation"},
                     "tolerance": shift_tol},
        )
    )
    out.append(
        CheckResult(
            name="transport-lp-invariance",
            passed=bool(worst_lp <= lp_tol),
            measured={"max_rel_drift": float(worst_lp)},
            targets={"p": [1, 2, "inf"], "tolerance": lp_tol},
        )
    )

    # manufactured inhomogeneous solution: u(t) = a(t) w
    grid = Grid(d=1, n_rho=96, r_max=cfg.r_max, n_s=256, s_half=cfg.s_half)
    w = _single_band(grid, 8, 1)
    eig = eigenvalue(np.arange(9)[:, None], grid.lam[None, :], 1)

    def a_fn(t):
        return np.cos(2.0 * t) * np.exp(-t / 3.0)

    def a_dot(t):
        return -2.0 * np.sin(2.0 * t) * np.exp(-t / 3.0) - a_fn(t) / 3.0

    def source(t):
        return SpectralField(grid, (eig * a_fn(t) + 1j * a_dot(t)) * w.values)

    T = 0.4
    errs = []
    for n in (8, 16):
        times = np.linspace(0.0, T, n + 1)
        st = duhamel(CauchyDataS(w), source, times)
        ref = a_fn(T) * inverse(w).values
        errs.append(l2_norm(RadialField(grid, st.values[-1] - ref)))
    order = float(np.log2(errs[0] / errs[1]))
    out.append(
        CheckResult(
            name="duhamel-order",
            passed=bool(order >= cfg.tol("duhamel-order", 1.9)),
            measured={"errors": errs, "fitted_order": order},
            targets={"order": {"value": 2.0,
                               "basis": "trapezoid rule with exact propagators"}},
        )
    )
    return out


def suite_bernstein(cfg: RunConfig):
    """Localizer-based derivative and norm comparisons, and the eigenvalue
    spot value of the sobolev multiplier."""
    out = []
    grid = _grid_for(cfg, 1)
    L = cfg.L_max
    ells = np.arange(L + 1)
    eig = eigenvalue(ells[:, None], grid.lam[None, :], 1)
    eig[:, grid.izero] = 1.0
    # log-uniform spectral mass: every ring sees the same relative
    # distribution, so the ratio scales cleanly
    theta = 1.0 / eig
    sf = SpectralField(grid, theta.astype(complex))

    scales = (2.0, 4.0, 8.0, 16.0)
    ratios = []
    ok_bounds = True
    for lam in scales:
        floc = localize(sf, LocalizerSpec("ring", lam))
        r = sobolev_norm(floc, 1.0) / sobolev_norm(floc, 0.0)
        ratios.append(r)
        ok_bounds = ok_bounds and (lam / 2.0 - 1e-12 <= r <= lam + 1e-12)
    slope = float(np.polyfit(np.log(scales), np.log(ratios), 1)[0])
    out.append(
        CheckResult(
            name="bernstein-ring-ratio",
            passed=bool(ok_bounds),
            measured={"ratios": ratios, "scales": list(scales)},
            targets={"interval": {"value": "[scale/2, scale]",
                                  "basis": "ring support of the multiplier"}},
        )
    )
    out.append(
        CheckResult(
            name="bernstein-ring-slope",
            passed=bool(abs(slope - 1.0) <= cfg.tol("bernstein-slope", 0.05)),
            measured={"fitted_slope": slope},
            targets={"slope": {"value": 1.0, "basis": "first-order derivative scaling"}},
        )
    )

    rng = np.random.default_rng(cfg.seed + 23)
    f, _ = _band_projected(cfg, rng, 1)
    worst = 0.0
    for (p, q) in ((2.0, np.inf), (1.0, 2.0)):
        res = bernstein_check(f, LocalizerSpec("ball", 2.0), p, q, L_max=cfg.L_max)
        worst = max(worst, abs(res["fitted_exponent"] - res["target_exponent"]))
    out.append(
        CheckResult(
            name="bernstein-norm-exponents",
            passed=bool(worst <= cfg.tol("bernstein-exponent", 0.1)),
            measured={"max_exponent_err": float(worst)},
            targets={"exponent": {"value": "Q (1/p - 1/q)",
                                  "basis": "exact dilation covariance of both norms"}},
        )
    )

    # eigenvalue spot value: on the (ell=0, lam=1) line the multiplier is
    # exactly eig = 4, so the H^2/L^2 ratio is 4 and H^1/L^2 is 2
    sgrid = Grid(d=1, n_rho=cfg.n_rho, r_max=cfg.r_max, n_s=512, s_half=16 * np.pi)
    th = np.zeros((1, sgrid.n_s), dtype=complex)
    k_one = sgrid.izero + 16  # lam_k = k/16 = 1 exactly
    th[0, k_one] = 1.0
    mode = SpectralField(sgrid, th)
    r2 = sobolev_norm(mode, 2.0) / sobolev_norm(mode, 0.0)
    r1 = sobolev_norm(mode, 1.0) / sobolev_norm(mode, 0.0)
    err = max(abs(r2 - 4.0) / 4.0, abs(r1 - 2.0) / 2.0)
    out.append(
        CheckResult(
            name="sobolev-spot",
            passed=bool(err <= cfg.tol("sobolev-spot", 1e-3)),
            measured={"ratio_sigma2": float(r2), "ratio_sigma1": float(r1)},
            targets={"ratio_sigma2": {"value": 4.0,
                                      "basis": "eigenvalue 4|lam|(2 ell + d) at (0, 1)"},
                     "ratio_sigma1": {"value": 2.0, "basis": "square root of the same"}},
        )
    )

    # diagonal operators commute
    rng = np.random.default_rng(cfg.seed + 29)
    th = rng.standard_normal((L + 1, grid.n_s)) + 1j * rng.standard_normal((L + 1, grid.n_s))
    sfr = SpectralField(grid, th)
    loc = LocalizerSpec("ball", 2.0)
    ab = localize(sobolev_multiplier(sfr, 1.3), loc)
    ba = sobolev_multiplier(localize(sfr, loc), 1.3)
    scale = np.abs(ab.values).max()
    cerr = float(np.abs(ab.values - ba.values).max() / scale) if scale else 0.0
    out.append(
        CheckResult(
            name="multiplier-commute",
            passed=bool(cerr <= cfg.tol("commute", 1e-12)),
            measured={"max_abs_err": cerr},
            targets={"commutator": {"value": 0.0, "basis": "diagonal operators"}},
        )
    )
    return out


def suite_hausdorff_young(cfg: RunConfig):
    """Interpolated transform bound with the measure's own constant."""
    out = []
    rng = np.random.default_rng(cfg.seed + 31)
    grid = _grid_for(cfg, 1)
    const = plancherel_constant(1)
    fields = []
    for _ in range(4):
        f, sf = _band_projected(cfg, rng, 1)
        fields.append((f, sf))
    for p in (1.0, 4.0 / 3.0, 2.0):
        pp = np.inf if p == 1.0 else p / (p - 1.0)
        bound = const ** (0.0 if np.isinf(pp) else 1.0 / pp)
        worst = 0.0
        for f, sf in fields:
            mults = sf.mults()
            if np.isinf(pp):
                snorm = float(np.abs(sf.values).max())
            else:
                dens = mults[:, None] * grid.w_lam[None, :] * np.abs(sf.values) ** pp
                snorm = float(dens.sum() ** (1.0 / pp))
            pnorm = mixed_norm(f, MixedNormSpec((p, p), ("Y", "s")))
            worst = max(worst, snorm / pnorm / bound)
        out.append(
            CheckResult(
                name=f"hausdorff-young-p{p:g}",
                passed=bool(worst <= 1.0 + cfg.tol("hausdorff-young-slack", 1e-6)),
                measured={"worst_normalized_ratio": float(worst)},
                targets={"bound": {
                    "value": bound,
                    "basis": "interpolation between |theta| <= ||f||_1 and the "
                             "energy constant",
                }},
            )
        )
    return out


def suite_gfun(cfg: RunConfig):
    """Physical sphere kernel: origin value, finiteness, exact rescaling."""
    out = []
    val, tail = g_function(0.0, 0.0, d=1)
    err = abs(val - 0.25) / 0.25
    out.append(
        CheckResult(
            name="gfun-origin",
            passed=bool(err <= cfg.tol("gfun-origin", 1e-6)),
            measured={"value": float(val), "rel_err": float(err),
                      "tail_estimate": float(tail)},
            targets={"value": {"value": 0.25,
                               "basis": "series oracle 2/pi^2 sum (2l+1)^{-2}"}},
        )
    )

    rho = np.linspace(0.0, 4.0, 9)[:, None]
    s = np.linspace(-20.0, 20.0, 9)[None, :]
    vals, tails = g_function(rho, s, d=1)
    out.append(
        CheckResult(
            name="gfun-finite",
            passed=bool(np.all(np.isfinite(vals)) and float(np.abs(vals).max()) < 1.0),
            measured={"max_abs": float(np.abs(vals).max()),
                      "max_tail": float(tails.max())},
            targets={"finite": {"value": True, "basis": "convergent band series"}},
        )
    )

    R = 2.0
    pts = [(0.7, 3.1), (1.5, -7.3), (2.5, 11.0)]
    worst = 0.0
    for rho0, s0 in pts:
        vR, _ = g_function(rho0, s0, d=1, radius=R)
        v1, _ = g_function(np.sqrt(R) * rho0, R * s0, d=1, radius=1.0)
        worst = max(worst, abs(vR - R * v1) / abs(R * v1))
    out.append(
        CheckResult(
            name="gfun-rescaling",
            passed=bool(worst <= cfg.tol("gfun-rescale", 1e-10)),
            measured={"max_rel_err": float(worst)},
            targets={"identity": {"value": "G_R(rho, s) = R^d G_1(sqrt(R) rho, R s)",
                                  "basis": "band-by-band reindexing"}},
        )
    )

    va, _ = g_function(1.0, 5.0, d=1, L_max=2048)
    vb, _ = g_function(1.0, 5.0, d=1, L_max=4096)
    out.append(
        CheckResult(
            name="gfun-doubling",
            passed=bool(abs(va - vb) <= cfg.tol("gfun-doubling", 1e-6)),
            measured={"delta": float(abs(va - vb))},
            targets={"delta": {"value": 0.0, "basis": "extrapolation stability"}},
        )
    )
    return out


def _ones_theta(x, lx):
    return np.ones_like(np.asarray(x, dtype=float))


def suite_sphere(cfg: RunConfig):
    """Sphere measure: total mass, exact R-scaling, restrict/extend duality,
    and refinement stability of the empirical restriction ratio."""
    out = []
    pair = sphere_pair(_ones_theta, SphereMeasure(1.0), d=1)
    target = np.pi**2 / 4.0
    err = _relative(pair["value"], target)
    out.append(
        CheckResult(
            name="sphere-total",
            passed=bool(err <= cfg.tol("sphere-total", 1e-6)),
            measured={"value": pair["value"], "partial": pair["partial"],
                      "tail": pair["tail"], "rel_err": err},
            targets={"value": {"value": target,
                               "basis": "2 sum mult (2l+1)^{-2} = pi^2/4 at d=1"}},
        )
    )

    R = 2.0
    pr = sphere_pair(_ones_theta, SphereMeasure(R), d=1)
    rerr = _relative(pr["value"], R * pair["value"])
    out.append(
        CheckResult(
            name="sphere-rscaling",
            passed=bool(rerr <= cfg.tol("sphere-rscale", 1e-12)),
            measured={"rel_err": rerr},
            targets={"factor": {"value": "R^d", "basis": "weights carry R^d exactly"}},
        )
    )

    rng = np.random.default_rng(cfg.seed + 37)
    grid = _grid_for(cfg, 1)
    parts = random_packet(rng, d=1, omega_range=(0.0, 1.5))
    f = sample_packets(parts, grid)
    measure = SphereMeasure(1.0)
    vals = restrict_sphere(f, measure, L_max=cfg.L_max)
    v = SphereValues(
        measure, 1,
        rng.standard_normal(cfg.L_max + 1) + 1j * rng.standard_normal(cfg.L_max + 1),
        rng.standard_normal(cfg.L_max + 1) + 1j * rng.standard_normal(cfg.L_max + 1),
    )
    lhs = l2_inner(f, extend_sphere(v, grid))
    const = 2.0 ** (1 - 1) / np.pi ** (1 + 1)
    ells = np.arange(cfg.L_max + 1)
    w = 1.0 / (2.0 * ells + 1.0) ** 2  # the multiplicity is 1 at d = 1
    rhs = const * np.sum(
        w * (vals.theta_plus * np.conj(v.theta_plus)
             + vals.theta_minus * np.conj(v.theta_minus))
    )
    derr = abs(lhs - rhs) / abs(rhs)
    out.append(
        CheckResult(
            name="sphere-duality",
            passed=bool(derr <= cfg.tol("sphere-duality", 1e-10)),
            measured={"rel_err": float(derr)},
            targets={"identity": {
                "value": "<f, E v>_{L^2} = (2^{d-1}/pi^{d+1}) <R f, v>_{measure}",
                "basis": "adjoint pairing with the inversion constant",
            }},
        )
    )

    # empirical ratio stability under simultaneous refinement
    n_samples = 200
    rng = np.random.default_rng(cfg.seed + 41)
    packets = [random_packet(rng, d=1, omega_range=(0.0, 1.5)) for _ in range(n_samples)]
    stats = []
    for refine in (1, 2):
        g = Grid(d=1, n_rho=128 * refine, r_max=cfg.r_max,
                 n_s=256 * refine, s_half=cfg.s_half)
        L = 32 * refine
        ratios = np.empty(n_samples)
        for i, parts in enumerate(packets):
            fv = sample_packets(parts, g)
            vals = restrict_sphere(fv, measure, L_max=L)
            ratios[i] = np.sqrt(sphere_norm_sq(vals)) / l2_norm(fv)
        stats.append((float(ratios.max()), float(np.median(ratios))))
    drift_max = abs(stats[1][0] - stats[0][0]) / stats[0][0]
    drift_med = abs(stats[1][1] - stats[0][1]) / stats[0][1]
    out.append(
        CheckResult(
            name="sphere-ratio-stability",
            passed=bool(drift_max <= cfg.tol("restriction-stability", 0.05)),
            measured={"max_ratio_coarse": stats[0][0], "max_ratio_fine": stats[1][0],
                      "drift_max": float(drift_max), "drift_median": float(drift_med),
                      "n_samples": n_samples},
            targets={"drift": {"value": 0.0,
                               "basis": "discretization-independence of the ratio"},
                     "tolerance": 0.05},
        )
    )
    return out


def suite_sigma(cfg: RunConfig):
    """Paraboloid measure: window-free origin ratio, extension = free
    evolution on the window plateau, duality, refinement stability."""
    out = []
    measure = SigmaMeasure()
    pair = sigma_pair(_ones_like_sigma, measure, d=1)
    gd = g_sigma(0.0, 0.0, 0.0, measure, d=1)
    ratio = gd["value"].real / pair["value"]
    target = 2.0 ** (3 * 1 + 2) / np.pi**1
    err = _relative(ratio, target)
    out.append(
        CheckResult(
            name="sigma-origin-ratio",
            passed=bool(err <= cfg.tol("sigma-origin", 1e-6)),
            measured={"pair_total": pair["value"], "kernel_origin": gd["value"].real,
                      "ratio": float(ratio), "rel_err": err,
                      "panels": gd["panels"]},
            targets={"ratio": {"value": target,
                               "basis": "2^{3d+2}/pi^d, window-independent"}},
        )
    )

    # extension of the datum's trace reproduces the free flow when the
    # window is 1 on the datum's joint spectrum.  The datum is a Gaussian
    # profile centered away from lambda = 0 (analytic, so both the lambda
    # Riemann sum and the alpha rule converge past the gate), and the alpha
    # rule is dense enough to resolve e^{i s alpha c_ell} across the box.
    bigg = Grid(d=1, n_rho=96, r_max=cfg.r_max, n_s=320, s_half=20.0)
    L_small = 2
    meas = SigmaMeasure(window=lambda a: ball_profile(np.asarray(a) / 220.0),
                        support=(0.0, 220.0))
    amps = np.array([1.0, 0.6, 0.35])

    def theta0(ell, lam):
        lam = np.asarray(lam, dtype=float)
        return amps[ell] * np.exp(-((lam - 2.2) ** 2) / (2.0 * 0.38**2))

    th = np.zeros((L_small + 1, bigg.n_s), dtype=complex)
    for l in range(L_small + 1):
        th[l] = theta0(l, bigg.lam)
    sf0 = SpectralField(bigg, th)
    times = np.linspace(0.0, 0.12, 6)
    u_ref = schrodinger_evolve(CauchyDataS(sf0), times)
    xq, wq = roots_legendre(700)
    al, wa = 110.0 * (xq + 1.0), 110.0 * wq  # Gauss-Legendre on (0, 220)
    tp = np.empty((al.size, L_small + 1), dtype=complex)
    tm = np.empty_like(tp)
    for l in range(L_small + 1):
        c = 1.0 / (4.0 * (2 * l + 1))
        tp[:, l] = theta0(l, al * c)
        tm[:, l] = theta0(l, -al * c)
    vals = SigmaValues(meas, 1, al, wa, tp, tm)
    u_ext = extend_sigma(vals, bigg.with_times(times))
    diff = u_ext.values - u_ref.values
    ref_norm = np.sqrt(
        sum(l2_norm(RadialField(bigg, u_ref.values[i])) ** 2 for i in range(times.size))
    )
    eerr = np.sqrt(
        sum(l2_norm(RadialField(bigg, diff[i])) ** 2 for i in range(times.size))
    ) / ref_norm
    out.append(
        CheckResult(
            name="sigma-extension-evolution",
            passed=bool(eerr <= cfg.tol("sigma-extension", 1e-6)),
            measured={"rel_l2_err": float(eerr)},
            targets={"identity": {
                "value": "extension of the datum trace = free Schrodinger flow",
                "basis": "chart alpha = eigenvalue turns extension into inversion",
            }},
        )
    )

    # adjoint duality on a generic spacetime field
    rng = np.random.default_rng(cfg.seed + 43)
    g = Grid(d=1, n_rho=96, r_max=cfg.r_max, n_s=256, s_half=cfg.s_half)
    L_r, n_a = 8, 12
    parts = random_packet(rng, d=1, omega_range=(0.0, 0.3))
    sfd = forward(sample_packets(parts, g), L_r)
    tms = np.linspace(0.0, 0.25, 5)
    u = schrodinger_evolve(CauchyDataS(sfd), tms)
    ru = restrict_sigma(u, measure, L_max=L_r, n_alpha=n_a)
    rv = SigmaValues(
        measure, 1, ru.alpha, ru.alpha_weights,
        rng.standard_normal(ru.theta_plus.shape)
        + 1j * rng.standard_normal(ru.theta_plus.shape),
        rng.standard_normal(ru.theta_plus.shape)
        + 1j * rng.standard_normal(ru.theta_plus.shape),
    )
    ev = extend_sigma(rv, g.with_times(tms))
    wt = u.grid.w_t
    lhs = sum(
        wt[i] * l2_inner(RadialField(g, u.values[i]), RadialField(g, ev.values[i]))
        for i in range(tms.size)
    )
    ellsr = np.arange(L_r + 1)
    cl = 1.0 / (4.0 * (2.0 * ellsr + 1.0))
    wl = cl**2  # the multiplicity is 1 at d = 1
    wq = ru.alpha_weights * ru.alpha * measure.window(ru.alpha)
    rhs = (2.0 ** (1 - 1) / np.pi ** (1 + 1)) * np.sum(
        wq[:, None] * wl[None, :]
        * (ru.theta_plus * np.conj(rv.theta_plus)
           + ru.theta_minus * np.conj(rv.theta_minus))
    )
    derr = abs(lhs - rhs) / abs(rhs)
    out.append(
        CheckResult(
            name="sigma-duality",
            passed=bool(derr <= cfg.tol("sigma-duality", 1e-8)),
            measured={"rel_err": float(derr)},
            targets={"identity": {
                "value": "<u, E Theta>_{L^2(dt dY ds)} = "
                         "(2^{d-1}/pi^{d+1}) <R u, Theta>_{measure}",
                "basis": "adjoint pairing with the inversion constant",
            }},
        )
    )

    # refinement stability of the empirical spacetime restriction ratio
    n_samples = 200
    rng = np.random.default_rng(cfg.seed + 47)
    packs = [random_packet(rng, d=1, omega_range=(0.0, 0.3)) for _ in range(n_samples)]
    tms = np.linspace(0.0, 0.25, 5)
    l2spec = MixedNormSpec((2.0, 2.0, 2.0), ("t", "Y", "s"))
    stats = []
    for refine in (1, 2):
        g = Grid(d=1, n_rho=96 * refine, r_max=cfg.r_max,
                 n_s=256 * refine, s_half=cfg.s_half)
        L = 12 * refine
        ratios = np.empty(n_samples)
        for i, parts in enumerate(packs):
            sfd = forward(sample_packets(parts, g), L)
            u = schrodinger_evolve(CauchyDataS(sfd), tms)
            rs = restrict_sigma(u, measure, L_max=L, n_alpha=12)
            ratios[i] = np.sqrt(sigma_norm_sq(rs)) / mixed_norm(u, l2spec)
        stats.append((float(ratios.max()), float(np.median(ratios))))
    drift_max = abs(stats[1][0] - stats[0][0]) / stats[0][0]
    drift_med = abs(stats[1][1] - stats[0][1]) / stats[0][1]
    out.append(
        CheckResult(
            name="sigma-ratio-stability",
            passed=bool(drift_max <= cfg.tol("restriction-stability", 0.05)),
            measured={"max_ratio_coarse": stats[0][0], "max_ratio_fine": stats[1][0],
                      "drift_max": float(drift_max), "drift_median": float(drift_med),
                      "n_samples": n_samples},
            targets={"drift": {"value": 0.0,
                               "basis": "discretization-independence of the ratio"},
                     "tolerance": 0.05},
        )
    )
    return out


def _ones_like_sigma(alpha, ell, lam):
    return np.ones_like(np.asarray(alpha, dtype=float))


def suite_est2(cfg: RunConfig):
    """Band-projection operators under twisted convolution: sharp lam-scaling,
    exact reproducing identities, Young bound, algebra scaling, norm proxy."""
    out = []
    for p, name in ((2.0, "est2-slope-p2"), (1.0, "est2-slope-p1")):
        res = est2_scan(p=p, seed=cfg.seed)
        err = abs(res["slope"] - res["target_slope"])
        out.append(
            CheckResult(
                name=name,
                passed=bool(err <= cfg.tol("est2-slope", 0.1)),
                measured={"slope": res["slope"], "ratios": res["ratios"]},
                targets={"slope": {"value": res["target_slope"],
                                   "basis": "twisted scaling covariance: -2d/p'"}},
            )
        )

    grid2 = PlanarGrid()
    lam = 1.0
    k0 = kernel_field(grid2, 0, lam)
    k1 = kernel_field(grid2, 1, lam)
    conv = twisted_convolve(k0, k0, lam)
    c = operator_norm(0, lam)
    rerr = float(
        np.abs(conv.values - c * k0.values).max() / np.abs(c * k0.values).max()
    )
    cross = twisted_convolve(k0, k1, lam)
    xerr = float(np.abs(cross.values).max() / np.abs(conv.values).max())
    out.append(
        CheckResult(
            name="twisted-reproducing",
            passed=bool(rerr <= cfg.tol("twisted-reproducing", 1e-8)),
            measured={"rel_err": rerr},
            targets={"identity": {"value": "K_0 * K_0 = (pi/(2 lam))^d K_0",
                                  "basis": "self-reproducing band kernels"}},
        )
    )
    out.append(
        CheckResult(
            name="twisted-cross-band",
            passed=bool(xerr <= cfg.tol("twisted-cross", 1e-8)),
            measured={"rel_err": xerr},
            targets={"identity": {"value": "K_0 * K_1 = 0",
                                  "basis": "band orthogonality"}},
        )
    )

    proxy = tn_norm_proxy(0, 1.0, n_inputs=64, seed=cfg.seed)
    ok = (proxy["measured_norm_proxy"] <= proxy["exact_norm"] * (1 + 1e-9)
          and proxy["measured_norm_proxy"] >= 0.5 * proxy["exact_norm"])
    out.append(
        CheckResult(
            name="twisted-norm",
            passed=bool(ok),
            measured={"norm_proxy": proxy["measured_norm_proxy"],
                      "n_inputs": proxy["n_inputs"]},
            targets={"norm": {"value": proxy["exact_norm"],
                              "basis": "(pi/(2|lam|))^d: scaled projection"}},
        )
    )

    yc = young_check(seed=cfg.seed)
    out.append(
        CheckResult(
            name="twisted-young",
            passed=bool(yc["worst_ratio"] <= 1.0 + 1e-9),
            measured={"worst_ratio": yc["worst_ratio"]},
            targets={"bound": {"value": 1.0,
                               "basis": "unimodular phase under the integral"}},
        )
    )

    alg = algebra_scaling()
    aerr = float(np.abs(alg["ratios"] / alg["exact_ratios"] - 1.0).max())
    out.append(
        CheckResult(
            name="twisted-algebra-slope",
            passed=bool(abs(alg["slope"] + 0.5) <= 0.05 and aerr <= 1e-6),
            measured={"slope": alg["slope"], "max_rel_err_vs_exact": aerr},
            targets={"slope": {"value": -0.5,
                               "basis": "kernel family saturates C |lam|^{-d/2}"}},
        )
    )
    return out


def suite_orth(cfg: RunConfig):
    """Absolute-value pair integrals of the normalized band kernels."""
    res = orth_check()
    out = [
        CheckResult(
            name="orth-diagonal",
            passed=bool(res["diag_rel_err"] <= cfg.tol("orth-diag", 1e-8)),
            measured={"diag": res["diag"], "rel_err": res["diag_rel_err"]},
            targets={"diag": {"value": "(pi/2)^d / (2 ell + d)",
                              "basis": "closed-form norm of the scaled kernel"}},
        ),
        CheckResult(
            name="orth-decay-slope",
            passed=bool(-1.3 <= res["offdiag_slope"] <= -0.7),
            measured={"slope": res["offdiag_slope"], "pairs": res["offdiag"]},
            targets={"slope_window": {"value": [-1.3, -0.7],
                                      "basis": "1/max(ell, m) decay, fitted"}},
        ),
        CheckResult(
            name="orth-scaled-bounded",
            passed=bool(res["scaled_growth_slope"] <= 0.2
                        and np.isfinite(res["max_scaled_offdiag"])),
            measured={"growth_slope": res["scaled_growth_slope"],
                      "max_scaled": res["max_scaled_offdiag"]},
            targets={"growth": {"value": 0.0,
                                "basis": "max(ell,m) I(ell,m) stays bounded"}},
        ),
    ]
    return out


def suite_hardy(cfg: RunConfig):
    """Averaging operator on sequences: sharp-constant bound and the spike."""
    out = []
    for p in (1.5, 2.0, 3.0):
        res = hardy_check(p=p, n_seeds=1000, seed=cfg.seed)
        out.append(
            CheckResult(
                name=f"hardy-p{p:g}",
                passed=bool(res["worst_ratio"] <= res["bound"] + 1e-9),
                measured={"worst_ratio": res["worst_ratio"], "n_seeds": res["n_seeds"]},
                targets={"bound": {"value": res["bound"],
                                   "basis": "classical constant p/(p-1)"}},
            )
        )
    res = hardy_check(p=2.0, n_seeds=1, seed=cfg.seed)
    limit = float(np.pi / np.sqrt(6.0))
    defect = abs(res["e1_ratio"] - limit)
    out.append(
        CheckResult(
            name="hardy-spike",
            passed=bool(defect <= 0.5 / res["n"] and res["e1_ratio"] <= 2.0),
            measured={"ratio": res["e1_ratio"], "defect": float(defect)},
            targets={"limit": {"value": limit,
                               "basis": "partial sums of sum m^{-2} = pi^2/6"}},
        )
    )
    return out


def suite_strichartz(cfg: RunConfig):
    """Scaling flatness of the spacetime estimate's two sides, and the
    admissible-set gates on a tabulated pair list."""
    out = []
    grid = _grid_for(cfg, 1)
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
            gl = Grid(d=1, n_rho=cfg.n_rho, r_max=cfg.r_max * lam,
                      n_s=cfg.n_s, s_half=cfg.s_half * lam**2,
                      t_nodes=times * lam**2)
            ul = SpaceTimeField(gl, u.values)
            lhs = mixed_norm(ul, spec)
            gsp = Grid(d=1, n_rho=cfg.n_rho, r_max=cfg.r_max * lam,
                       n_s=cfg.n_s, s_half=cfg.s_half * lam**2)
            sfl = forward(RadialField(gsp, u0.values), L)
            rhs = sobolev_norm(sfl, sigma)
            ratios.append(lhs / rhs)
        ratios = np.asarray(ratios)
        flat = float(np.abs(ratios / ratios[0] - 1.0).max())
        qn = "inf" if np.isinf(q) else f"{q:g}"
        out.append(
            CheckResult(
                name=f"strichartz-flatness-p{p:g}q{qn}",
                passed=bool(flat <= cfg.tol("strichartz-flat", 1e-6)),
                measured={"ratios": ratios, "max_rel_spread": flat,
                          "sobolev_order": sigma},
                targets={"spread": {"value": 0.0,
                                    "basis": "both sides scale by the same power"}},
            )
        )

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
        out.append(
            CheckResult(
                name=nm,
                passed=bool(got == want),
                measured={"gate": got},
                targets={"gate": {"value": want,
                                  "basis": "tabulated exponent inequalities"}},
            )
        )
    return out


def suite_wave_energy(cfg: RunConfig):
    """Unitarity of the free flow and conservation of the wave energy."""
    out = []
    grid = Grid(d=1, n_rho=128, r_max=cfg.r_max, n_s=256, s_half=cfg.s_half)
    L = 8
    rng = np.random.default_rng(cfg.seed + 59)
    prof = bump(np.abs(grid.lam), 0.5, 2.0)
    th0 = (rng.standard_normal((L + 1, 1)) + 1j * rng.standard_normal((L + 1, 1))) * prof
    sf0 = SpectralField(grid, th0)
    times = np.linspace(0.0, 3.0, 65)
    st = schrodinger_evolve(CauchyDataS(sf0), times)
    norms = np.array(
        [l2_norm(RadialField(grid, st.values[i])) for i in range(times.size)]
    )
    drift = float(np.abs(norms / norms[0] - 1.0).max())
    out.append(
        CheckResult(
            name="schrodinger-unitarity",
            passed=bool(drift <= cfg.tol("unitarity", 1e-10)),
            measured={"max_rel_drift": drift, "steps": int(times.size - 1)},
            targets={"drift": {"value": 0.0, "basis": "unimodular multiplier"}},
        )
    )

    th1 = (rng.standard_normal((L + 1, 1)) + 1j * rng.standard_normal((L + 1, 1))) * prof
    data = CauchyDataW(sf0, SpectralField(grid, th1))
    en = wave_energy_series(data, times)
    edrift = float(np.abs(en / en[0] - 1.0).max())
    out.append(
        CheckResult(
            name="wave-energy-conservation",
            passed=bool(edrift <= cfg.tol("wave-energy", 1e-10)),
            measured={"max_rel_drift": edrift, "steps": int(times.size - 1)},
            targets={"drift": {"value": 0.0,
                               "basis": "half-wave phases preserve the density"}},
        )
    )
    return out


def suite_decay(cfg: RunConfig):
    """Wave packets spread at the cone rate; Schrodinger single-band data
    do not decay at all."""
    out = []
    probe = wave_decay_probe()
    out.append(
        CheckResult(
            name="wave-decay-exponent",
            passed=bool(probe["fitted_exponent"] <= -0.4),
            measured={"fitted_exponent": probe["fitted_exponent"],
                      "sup_norms": probe["sup_norms"]},
            targets={"exponent": {"value": -0.5,
                                  "basis": "stationary-phase rate at d=1"}},
        )
    )
    sp = schrodinger_decay_probe()
    out.append(
        CheckResult(
            name="schrodinger-nondecay",
            passed=bool(abs(sp["fitted_exponent"]) <= 0.05
                        and sp["max_rel_drift"] <= 1e-10),
            measured={"fitted_exponent": sp["fitted_exponent"],
                      "max_rel_drift": sp["max_rel_drift"]},
            targets={"exponent": {"value": 0.0,
                                  "basis": "transport moves the profile rigidly"}},
        )
    )
    return out


def translate_identity_check(ells=(0, 1, 2, 3), lams=(0.7, 1.3),
                             Y0=(0.3, -0.2), s0=0.5, n_y=80, n_s=128) -> dict:
    """Left translation turns the spectral pairing into kernel x phase.

    For radial f with coefficients theta(ell, lam),

        int e^{-i s lam} K_ell(lam, Y) f(v^{-1} (Y, s)) dY ds
            = theta(ell, lam) e^{-i s0 lam} K_ell(lam, Y0),

    v = (Y0, s0).  Checked by direct 3-D quadrature against the closed-form
    coefficients of a modulated Gaussian.
    """
    closure = GaussianClosure(d=1, a=1.0, b=0.5, omega=2.0, s0=0.0, amp=1.0)
    Ly, Ls = 6.0, 12.0
    xy, wy = roots_legendre(n_y)
    y = Ly * xy
    wy = Ly * wy
    xs, ws = roots_legendre(n_s)
    s = Ls * xs
    ws = Ls * ws
    yv = y[:, None, None]
    ev = y[None, :, None]
    sv = s[None, None, :]
    y0, eta0 = Y0
    sig = eta0 * yv - ev * y0  # sigma(Y0, Y)
    rho_sh = np.sqrt((yv - y0) ** 2 + (ev - eta0) ** 2)
    s_sh = sv - s0 - 2.0 * sig
    F = closure.values(rho_sh, s_sh)  # f(v^{-1} w) on the mesh
    W3 = wy[:, None, None] * wy[None, :, None] * ws[None, None, :]
    rho = np.sqrt(yv[:, :, 0] ** 2 + ev[:, :, 0] ** 2)
    rho0 = float(np.hypot(y0, eta0))
    worst = 0.0
    for lam in lams:
        phase_s = np.exp(-1j * lam * s)[None, None, :]
        for ell in ells:
            K = wigner_radial(ell, lam, rho, 1)
            lhs = np.sum(W3 * F * phase_s * K[:, :, None])
            theta = complex(closure.coefficients(np.array([ell]), np.array([lam]))[0, 0])
            rhs = theta * np.exp(-1j * s0 * lam) * wigner_radial(ell, lam, rho0, 1)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return {"max_rel_err": float(worst), "ells": list(ells), "lams": list(lams)}


def suite_translate(cfg: RunConfig):
    res = translate_identity_check()
    return [
        CheckResult(
            name="translate-identity",
            passed=bool(res["max_rel_err"] <= cfg.tol("translate", 1e-5)),
            measured=res,
            targets={"identity": {
                "value": "pairing of a translate = theta x e^{-i s0 lam} K(lam, Y0)",
                "basis": "matrix-coefficient sum of the band projection",
            }},
        )
    ]


SUITE_ORDER = [
    "plancherel",
    "roundtrip",
    "transport",
    "bernstein",
    "hausdorff-young",
    "gfun",
    "sphere",
    "sigma",
    "est2",
    "orth",
    "hardy",
    "strichartz-scaling",
    "wave-energy",
    "decay-probe",
    "translate-identity",
]

SUITES = {
    "plancherel": suite_plancherel,
    "roundtrip": suite_roundtrip,
    "transport": suite_transport,
    "bernstein": suite_bernstein,
    "hausdorff-young": suite_hausdorff_young,
    "gfun": suite_gfun,
    "sphere": suite_sphere,
    "sigma": suite_sigma,
    "est2": suite_est2,
    "orth": suite_orth,
    "hardy": suite_hardy,
    "strichartz-scaling": suite_strichartz,
    "wave-energy": suite_wave_energy,
    "decay-probe": suite_decay,
    "translate-identity": suite_translate,
}


def run_suites(cfg: RunConfig, names=None) -> VerificationReport:
    """Run the named suites (default: the config's) and assemble the report."""
    names = list(names if names is not None else cfg.suites)
    if "all" in names:
        names = SUITE_ORDER
    unknown = [n for n in names if n not in SUITES]
    if unknown:
        raise KeyError(f"unknown suite(s): {unknown}")
    results = []
    for name in names:
        results.extend(SUITES[name](cfg))
    rng = np.random.default_rng(cfg.seed)
    _, sf = _band_projected(cfg, rng, cfg.d)
    diagnostics = {
        "band_tail_fraction": _tail_fraction(sf),
        "suites": names,
    }
    return VerificationReport(cfg.as_dict(), results, diagnostics)
