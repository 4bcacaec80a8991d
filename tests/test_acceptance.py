"""Acceptance gate: the sixteen headline checks, one test each, at their
stated tolerances.  Run with -v for a pass/fail line per criterion.

Everything here goes through the public API the way a user would drive it;
where a check is expensive to restate (resolution-stability studies, the
scaling-flatness table) the corresponding verification suite is run and its
measured numbers are asserted directly.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hharm.config import RunConfig
from hharm.fields import (
    GaussianClosure,
    Grid,
    MixedNormSpec,
    RadialField,
    l2_norm,
    mixed_norm,
    random_packet,
    sample_packets,
)
from hharm.propagators import (
    CauchyDataS,
    CauchyDataW,
    admissible,
    duhamel,
    schrodinger_evolve,
    transport_reference,
    wave_energy_series,
)
from hharm.restriction import SphereMeasure, g_function, sphere_pair
from hharm.transform import (
    SpectralField,
    forward,
    inverse,
    plancherel_constant,
    sobolev_norm,
    spectral_inner,
)
from hharm.verify import hardy_check, run_suites
from hharm.windows import bump


def _grid(d: int, n_rho=256, n_s=512) -> Grid:
    return Grid(d=d, n_rho=n_rho, r_max=12.0, n_s=n_s, s_half=40.0)


def _suite_results(*suites: str) -> dict:
    rep = run_suites(RunConfig(suites=suites))
    return {r.name: r for r in rep.results}


@pytest.fixture(scope="module")
def verify_all(tmp_path_factory):
    """One `hharm verify all --seed 42` subprocess for the tests that read
    its report: (finished process, report path)."""
    path = tmp_path_factory.mktemp("verify_all") / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "hharm.cli", "verify", "all",
         "--seed", "42", "--out", str(path)],
        capture_output=True, text=True, timeout=1200,
    )
    return proc, path


def _report_rows(verify_all) -> dict:
    """The rows of the `verify all --seed 42` report, keyed by name."""
    _, path = verify_all
    return {r["name"]: r for r in json.loads(path.read_text())["results"]}


# --- 1 -----------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2])
def test_c01_plancherel_ratio(d):
    """Spectral/physical energy ratio equals pi^(d+1)/2^(d-1), rel 1e-6."""
    grid = _grid(d)
    rng = np.random.default_rng(42 + d)
    const = plancherel_constant(d)
    errs = []
    raw = [sample_packets(random_packet(rng, d=d), grid) for _ in range(2)]
    raw.append(GaussianClosure(d=d, a=1.0, b=0.4, omega=2.0).sample(grid))
    # one band projection makes the packets exactly representable at L_max
    fields = [inverse(forward(f, 64)) for f in raw]
    for f in fields:
        sf = forward(f, 64)
        ratio = float(spectral_inner(sf, sf).real) / float(l2_norm(f) ** 2)
        errs.append(abs(ratio - const) / const)
    assert np.max(errs) < 1e-6


# --- 2 -----------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2])
def test_c02_inversion_roundtrip(d):
    """inverse(forward(.)) is the identity on band-limited fields, rel 1e-6."""
    grid = _grid(d)
    rng = np.random.default_rng(42 + 17 * d)
    f0 = inverse(forward(sample_packets(random_packet(rng, d=d), grid), 64))
    f1 = inverse(forward(f0, 64))
    rel = l2_norm(RadialField(grid, f1.values - f0.values)) / l2_norm(f0)
    assert rel < 1e-6


# --- 3 -----------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2])
def test_c03_gaussian_closed_form(d):
    """forward of the closure e^{-a rho^2} phi(s) matches the closed form
    pi^d phat(lam) (a-|lam|)^ell / (a+|lam|)^{ell+d} within 1e-8, ell <= 16."""
    grid = _grid(d)
    c = GaussianClosure(d=d, a=1.0, b=0.4, omega=2.0)
    sf = forward(c, 16, grid=grid)
    ref = c.coefficients(np.arange(17), grid.lam)
    ref[:, grid.izero] = 0.0
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(sf.values - ref)) / scale < 1e-8


# --- 4 -----------------------------------------------------------------

@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("ell", [0, 1, 2])
def test_c04_transport(ell, d):
    """Single-band evolution is an s-shift by 4 t (2 ell + d): profile within
    1e-8 rel L2, and L^p norms (p = 1, 2, inf) invariant within 1e-4."""
    grid = Grid(d=d, n_rho=256, r_max=12.0, n_s=2048, s_half=40.0)
    theta = np.zeros((ell + 1, grid.n_s), dtype=complex)
    theta[ell] = bump(grid.lam, 0.5, 2.0)  # positive-lam carrier band
    sf0 = SpectralField(grid, theta)
    u0 = inverse(sf0)
    t = 0.19
    st = schrodinger_evolve(CauchyDataS(sf0), np.array([0.0, t]))
    ut = RadialField(grid, st.values[-1])
    ref = transport_reference(u0, ell, t)
    rel = l2_norm(RadialField(grid, ut.values - ref.values)) / l2_norm(u0)
    assert rel < 1e-8
    for p in (1.0, 2.0, np.inf):
        spec = MixedNormSpec((p, p), ("s", "Y"))
        drift = abs(mixed_norm(ut, spec) / mixed_norm(u0, spec) - 1.0)
        assert drift < 1e-4


# --- 5 -----------------------------------------------------------------

def test_c05_sobolev_multiplier_spot():
    """On the (ell=0, lam=1, d=1) mode the order-2 norm ratio is the
    eigenvalue 4(2*0+1)*1 = 4, within 1e-3."""
    grid = Grid(d=1, n_rho=64, r_max=12.0, n_s=128, s_half=16.0 * np.pi)
    theta = np.zeros((1, grid.n_s), dtype=complex)
    k = grid.izero + 16  # lam = 16 / 16 = 1 exactly
    assert grid.lam[k] == pytest.approx(1.0, abs=1e-14)
    theta[0, k] = 1.0
    sf = SpectralField(grid, theta)
    ratio = sobolev_norm(sf, 2.0) / sobolev_norm(sf, 0.0)
    assert abs(ratio - 4.0) < 1e-3


# --- 6 -----------------------------------------------------------------

def test_c06_conservation_64_steps():
    """Schrodinger L2 unitarity and wave spectral energy, 64 time steps,
    both within 1e-10."""
    grid = Grid(d=1, n_rho=128, r_max=12.0, n_s=256, s_half=40.0)
    rng = np.random.default_rng(11)
    prof = bump(np.abs(grid.lam), 0.5, 2.0)
    th0 = (rng.standard_normal((9, 1)) + 1j * rng.standard_normal((9, 1))) * prof
    th1 = (rng.standard_normal((9, 1)) + 1j * rng.standard_normal((9, 1))) * prof
    sf0 = SpectralField(grid, th0)
    times = np.linspace(0.0, 3.0, 65)

    st = schrodinger_evolve(CauchyDataS(sf0), times)
    norms = np.array([l2_norm(RadialField(grid, v)) for v in st.values])
    assert np.max(np.abs(norms / norms[0] - 1.0)) < 1e-10

    energy = wave_energy_series(CauchyDataW(sf0, SpectralField(grid, th1)), times)
    assert np.max(np.abs(energy / energy[0] - 1.0)) < 1e-10


# --- 7 -----------------------------------------------------------------

def test_c07_duhamel_second_order():
    """Trapezoid-in-time inhomogeneous solver: convergence order >= 1.9
    under time-grid halving, against a manufactured solution."""
    grid = Grid(d=1, n_rho=96, r_max=12.0, n_s=256, s_half=40.0)
    L = 4
    rng = np.random.default_rng(5)
    w = (rng.standard_normal((L + 1, 1)) + 1j * rng.standard_normal((L + 1, 1))) \
        * bump(np.abs(grid.lam), 0.5, 2.0)
    eig = 4.0 * np.abs(grid.lam)[None, :] * (2.0 * np.arange(L + 1)[:, None] + 1.0)

    def a(t):
        return np.cos(2.0 * t) * np.exp(-t / 3.0)

    def aprime(t):
        return -2.0 * np.sin(2.0 * t) * np.exp(-t / 3.0) - a(t) / 3.0

    def source(t):
        return SpectralField(grid, (eig * a(t) + 1j * aprime(t)) * w)

    T = 0.4
    exact = inverse(SpectralField(grid, a(T) * w))
    errs = []
    for n in (8, 16):
        times = np.linspace(0.0, T, n + 1)
        out = duhamel(CauchyDataS(SpectralField(grid, a(0.0) * w)), source, times)
        diff = RadialField(grid, out.values[-1] - exact.values)
        errs.append(l2_norm(diff))
    order = np.log2(errs[0] / errs[1])
    assert order >= 1.9


# --- 8 -----------------------------------------------------------------

def test_c08_sphere_kernel():
    """G(0,0) = 1/4 at d=1 (1e-6), |G| finite on a sample grid, and the
    radius rescaling G_R = R^d G_1(sqrt(R) ., R .) within 1e-10."""
    val, _ = g_function(0.0, 0.0, d=1)
    assert abs(val - 0.25) < 1e-6
    rho = np.linspace(0.0, 4.0, 9)[:, None]
    s = np.linspace(-6.0, 6.0, 9)[None, :]
    vals, _ = g_function(rho, s, d=1)
    assert np.all(np.isfinite(vals))
    R = 2.5
    lhs, _ = g_function(0.8, 1.3, d=1, radius=R)
    rhs, _ = g_function(np.sqrt(R) * 0.8, R * 1.3, d=1)
    assert abs(lhs - R * rhs) < 1e-10


# --- 9 -----------------------------------------------------------------

def test_c09_sphere_measure_total():
    """<d sigma, 1> = pi^2/4 at d=1 within 1e-6; radius scaling R^d exact."""
    ones = lambda e, l: np.ones_like(np.asarray(e, dtype=float))
    v1 = sphere_pair(ones, SphereMeasure(1.0), d=1)["value"]
    assert abs(v1 - np.pi**2 / 4.0) / (np.pi**2 / 4.0) < 1e-6
    v2 = sphere_pair(ones, SphereMeasure(2.0), d=1)["value"]
    assert v2 == 2.0 * v1


# --- 10 ----------------------------------------------------------------

def test_c10_band_kernel_orthogonality(verify_all):
    """|k_ell||k_2ell| pair integrals decay like 1/ell (fitted slope in
    [-1.3, -0.7] over ell = 1..64) and max(ell,m) I(ell,m) shows no growth.
    The rows come from the `verify all --seed 42` report (`orth` suite)."""
    res = _report_rows(verify_all)
    assert -1.3 < res["orth-decay-slope"]["measured"]["slope"] < -0.7
    assert res["orth-scaled-bounded"]["measured"]["growth_slope"] < 0.1


# --- 11 ----------------------------------------------------------------

@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_c11_hardy_bound(p):
    """Averaging-operator ratios over 1000 seeded sequences never exceed
    p/(p-1) + 1e-9."""
    out = hardy_check(p=p, n_seeds=1000)
    assert out["worst_ratio"] <= p / (p - 1.0) + 1e-9


# --- 12 ----------------------------------------------------------------

@pytest.mark.parametrize("p", [1.0, 2.0])
def test_c12_band_operator_scaling(p, verify_all):
    """Fitted lam-exponent of the band operator L^p -> L^p' ratio lands
    within 0.1 of the sharp value -2d/p'.  The row comes from the
    `verify all --seed 42` report (`est2` suite)."""
    row = _report_rows(verify_all)[f"est2-slope-p{p:g}"]
    assert abs(row["measured"]["slope"] - row["targets"]["slope"]["value"]) <= 0.1


# --- 13 ----------------------------------------------------------------

def test_c13_restriction_ratio_stability(verify_all):
    """Empirical restriction ratios (sphere p=2; paraboloid p=q=2) over 200
    seeded samples move <= 5% when N_rho, N_s, L_max are doubled together.
    The rows come from the `verify all --seed 42` report, which runs the
    `sphere` and `sigma` suites at the default config."""
    res = _report_rows(verify_all)
    for name in ("sphere-ratio-stability", "sigma-ratio-stability"):
        r = res[name]
        assert r["measured"]["n_samples"] == 200
        assert r["measured"]["drift_max"] <= 0.05, name


# --- 14 ----------------------------------------------------------------

def test_c14_strichartz_scaling_and_gates():
    """Spacetime-estimate two-sides ratio is scaling invariant across
    lam in {1, 2, 4} within 1e-6 for (p,q) = (2,2), (2,inf); the exponent
    gate reproduces the tabulated admissible sets exactly."""
    res = _suite_results("strichartz-scaling")
    for name in ("strichartz-flatness-p2q2", "strichartz-flatness-p2qinf"):
        assert res[name].measured["max_rel_spread"] <= 1e-6, name
    for name in ("admissible-schrodinger", "admissible-wave"):
        assert res[name].passed, name
    # spot checks on the gate itself
    assert admissible("schrodinger", 2.0, np.inf, 1)
    assert not admissible("schrodinger", 1.5, 2.0, 1)
    assert admissible("wave", 4.0, 4.0, 1)
    assert not admissible("wave", 2.0, 2.0, 1)


# --- 15 ----------------------------------------------------------------

def test_c15_decay_probes(verify_all):
    """Wave sup norms over t in [1, 64] fit an exponent <= -0.4; the
    Schrodinger single-band probe fits an exponent within 0.05 of zero.
    The rows come from the `verify all --seed 42` report (`decay-probe`
    suite)."""
    res = _report_rows(verify_all)
    assert res["wave-decay-exponent"]["measured"]["fitted_exponent"] <= -0.4
    assert abs(res["schrodinger-nondecay"]["measured"]["fitted_exponent"]) <= 0.05


# --- 16 ----------------------------------------------------------------

GOLDEN = Path(__file__).parent / "golden" / "verify_all_seed42.json"


def _flatten(doc, prefix=""):
    """Leaf values of a report keyed by path; check rows are keyed by name."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = ((v["name"] if isinstance(v, dict) and "name" in v else i, v)
                 for i, v in enumerate(doc))
    else:
        return {prefix: doc}
    out = {}
    for k, v in items:
        out.update(_flatten(v, f"{prefix}/{k}"))
    return out


def test_c16_verify_all_byte_identical(verify_all):
    """`hharm verify all --seed 42` writes the committed golden report byte
    for byte."""
    proc, path = verify_all
    assert proc.returncode == 0, proc.stderr[-2000:]
    got, want = path.read_bytes(), GOLDEN.read_bytes()
    if got != want:
        a, b = _flatten(json.loads(got)), _flatten(json.loads(want))
        differing = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        pytest.fail(f"report differs from {GOLDEN.name} at: {differing}")
    assert json.loads(got)["passed"] is True
