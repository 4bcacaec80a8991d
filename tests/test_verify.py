"""Report plumbing and a couple of cheap verification suites end to end."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import hharm
from hharm.config import RunConfig
from hharm.fields import Grid, random_packet, sample_packets
from hharm.propagators import CauchyDataS, schrodinger_evolve
from hharm.restriction import SigmaMeasure, restrict_sigma, sigma_norm_sq
from hharm.report import CheckResult, VerificationReport, _jsonable
from hharm import fields, propagators, transform, twisted, verify
from hharm.verify import SUITES, _row, run_suites, translate_identity_check

EXPECTED_SUITES = [
    "plancherel", "roundtrip", "transport", "bernstein", "hausdorff-young",
    "gfun", "sphere", "sigma", "est2", "orth", "hardy",
    "strichartz-scaling", "wave-energy", "decay-probe", "translate-identity",
]


def test_suite_registry():
    assert list(SUITES) == EXPECTED_SUITES


CHECKS = (
    "est2_scan", "orth_check", "young_check", "algebra_scaling", "tn_norm_proxy",
    "hardy_check", "wave_decay_probe", "schrodinger_decay_probe", "bernstein_check",
)


def test_operator_modules_export_operators_only():
    """Every exported name resolves, and the checks live in `verify` alone:
    none is reachable from the package or from an operator module."""
    modules = (hharm, twisted, propagators, transform)
    for mod in modules:
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
    for name in CHECKS:
        assert callable(getattr(verify, name))
        for mod in modules:
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
    # every quadrature rule of the checks comes from fields._legendre_rule
    assert not hasattr(verify, "roots_legendre")
    # one store of quadrature rules (fields) and one of kernel tables (specfun)
    src = {p.stem: p.read_text() for p in Path(hharm.__file__).parent.glob("*.py")}
    assert [m for m in src if "lru_cache" in src[m]] == ["fields"]
    assert [m for m in src if "roots_legendre" in src[m]] == ["fields"]
    assert [m for m in src if "def _kept(" in src[m] or "def kept_kernels(" in src[m]] == ["specfun"]
    # one radial surface factor (Grid.w_radial), and suite grids from RunConfig.grid()
    assert [m for m in src if "rho ** (2" in src[m]] == ["fields"]
    assert not hasattr(verify, "_grid_for")


def test_checks_build_each_gauss_legendre_rule_once(monkeypatch):
    """The checks read their rules from the store the grids use, so a
    repeated check builds no rule."""
    from scipy.special import roots_legendre

    calls = []

    def counting(n):
        calls.append(n)
        return roots_legendre(n)

    fields._legendre_rule.cache_clear()
    monkeypatch.setattr(fields, "roots_legendre", counting)
    for _ in range(2):
        verify.orth_check(ells=(1, 2), n_quad=512)
        verify.wave_decay_probe(times=(1.0, 2.0), n_quad=200)
    assert calls == [512, 200]


def test_ratio_stability_builds_each_transform_block_once_per_level(monkeypatch):
    """Three samples of the sigma suite's ratio: every forward and inverse of
    a level reads the kernel blocks its first forward built."""
    real = transform.wigner_radial_table
    builds = []

    def counting(lmax, *args):
        builds.append(lmax)
        return real(lmax, *args)

    monkeypatch.setattr(transform, "wigner_radial_table", counting)
    rng = np.random.default_rng(47)
    packs = [random_packet(rng, d=1, omega_range=(0.0, 0.3)) for _ in range(3)]
    times = np.linspace(0.0, 0.25, 5)

    def ratio(parts, g, L):
        u = schrodinger_evolve(CauchyDataS(transform.forward(sample_packets(parts, g), L)), times)
        return np.sqrt(sigma_norm_sq(restrict_sigma(u, SigmaMeasure(), L_max=L, n_alpha=12)))

    row = verify._ratio_stability(RunConfig(), "sigma", packs, 96, 12, ratio)
    assert np.isfinite(row.measured["drift_max"])
    # n_s = 256, then 512: 128 and 256 |lam| rows, 4 and 8 blocks of 32
    assert [l for l in builds if l > 0] == [12] * 4 + [24] * 8


def test_check_result_line():
    ok = CheckResult("plancherel-d1", True, 1.0, {"target": 1.0})
    bad = CheckResult("plancherel-d1", False, 2.0, {"target": 1.0})
    assert ok.line() == "[PASS] plancherel-d1"
    assert bad.line() == "[FAIL] plancherel-d1"


def test_row_writes_pairs_as_value_and_basis():
    row = _row("x", np.float64(1.0) <= 2.0, {"err": 1.0},
               ratio=(3.0, "exact"), p=[1, 2], tolerance=2.0)
    assert row.passed is True
    assert row.as_dict() == {
        "name": "x", "passed": True, "measured": {"err": 1.0},
        "targets": {"ratio": {"value": 3.0, "basis": "exact"}, "p": [1, 2],
                    "tolerance": 2.0},
    }


def test_gfun_rescaling_fails_on_one_nan_point(monkeypatch):
    """A NaN at one of the three rescaling points fails the row: the worst
    error is an np.max, which keeps the NaN."""
    real = verify.g_function

    def planted(rho, s, **kw):
        val, tail = real(rho, s, **kw)
        return (float("nan"), tail) if np.isscalar(rho) and rho == 1.5 else (val, tail)

    monkeypatch.setattr(verify, "g_function", planted)
    row = {r.name: r for r in verify.suite_gfun(RunConfig())}["gfun-rescaling"]
    assert row.passed is False
    assert np.isnan(row.measured["max_rel_err"])


def test_jsonable_rounding_and_specials():
    assert _jsonable(0.1 + 0.2) == 0.3  # 12 significant digits
    assert _jsonable(np.float64(np.pi)) == 3.14159265359
    assert _jsonable(float("nan")) == "nan"
    assert _jsonable(float("inf")) == "inf"
    assert _jsonable(np.complex128(1 + 2j)) == {"re": 1.0, "im": 2.0}
    assert _jsonable(np.arange(3)) == [0, 1, 2]


def test_run_suites_two_cheap_ones():
    cfg = RunConfig(suites=("hardy", "translate-identity"))
    rep = run_suites(cfg)
    assert rep.passed
    ok, total = rep.counts()
    assert ok == total > 4
    names = [r.name for r in rep.results]
    assert any("hardy" in n for n in names)
    assert any("translate" in n for n in names)


def test_report_json_shape_and_determinism():
    cfg = RunConfig(suites=("hardy",))
    a = run_suites(cfg).to_json()
    b = run_suites(cfg).to_json()
    assert a == b
    rep = json.loads(a)
    assert rep["schema"] == "hharm-report/1"
    assert rep["config"]["schema"] == "hharm-config/1"
    for r in rep["results"]:
        assert set(r) >= {"name", "passed", "measured"}


def test_seed_changes_report_but_not_verdict():
    base = RunConfig(suites=("hardy",))
    other = dataclasses.replace(base, seed=7)
    a = run_suites(base)
    b = run_suites(other)
    assert a.passed and b.passed
    assert a.to_json() != b.to_json()  # measured worst ratios move with the seed


def test_translate_identity_direct():
    out = translate_identity_check()
    assert out["max_rel_err"] < 1e-9


@pytest.mark.parametrize("kind, b, n", [
    ("sigma", 220.0, 700),
    ("orth", 2.0 * (2.0 * 128 + 1) + 40.0, 4096),  # orth_check's defaults
    ("orth", 2.0 * (2.0 * 32 + 1) + 40.0, 2048),
    ("orth", 2.0 * (2.0 * 4 + 1) + 40.0, 512),
    ("decay", 14.0 * 16.0, 3200),  # wave_decay_probe's defaults
    ("decay", 14.0 * 16.0, 1600),
    ("decay", 14.0 * 16.0, 200),
])
def test_suite_interval_rules_are_the_hand_maps_they_replace(kind, b, n):
    """On the suites' own inputs `_gauss_rule(0, b, n)` is, bit for bit, the
    map each suite wrote by hand; orth_check's weights, now its Grid's
    w_radial, take the surface factor as before."""
    x, w = fields._legendre_rule(n)
    nodes, weights = fields._gauss_rule(0.0, b, n)
    hand_x, hand_w = {"sigma": (110.0 * (x + 1.0), 110.0 * w),
                      "orth": (0.5 * b * (x + 1.0), 0.5 * b * w),
                      "decay": (b * (x + 1) / 2, b / 2 * w)}[kind]
    assert nodes.tobytes() == hand_x.tobytes() and weights.tobytes() == hand_w.tobytes()
    if kind == "orth":
        surf = fields.sphere_area(1)
        assert (weights * surf * nodes).tobytes() == (0.5 * b * w * surf * hand_x).tobytes()
        grid = Grid(d=1, n_rho=n, r_max=b)
        assert grid.rho.tobytes() == nodes.tobytes()
        assert grid.w_radial.tobytes() == (weights * surf * nodes).tobytes()


def test_checks_take_their_rules_from_the_interval_rule(monkeypatch):
    """orth_check (through its Grid) and wave_decay_probe ask `_gauss_rule` for
    (0, R, n_quad) and (0, lam_hi, n_quad): no map of their own."""
    calls = []
    real = verify._gauss_rule

    def recording(a0, a1, n):
        calls.append((a0, a1, n))
        return real(a0, a1, n)

    monkeypatch.setattr(verify, "_gauss_rule", recording)
    monkeypatch.setattr(fields, "_gauss_rule", recording)
    verify.orth_check(ells=(1, 2), n_quad=512)
    verify.wave_decay_probe(times=(1.0, 2.0), n_quad=200)
    assert calls == [(0.0, 2.0 * (2.0 * 4 + 1) + 40.0, 512), (0.0, 224.0, 200)]
