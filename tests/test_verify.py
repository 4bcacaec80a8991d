"""Report plumbing and a couple of cheap verification suites end to end."""

from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import hharm
from hharm.config import ConfigError, RunConfig
from hharm.fields import (
    Grid,
    MixedNormSpec,
    RadialField,
    l2_norm,
    mixed_norm,
    random_packet,
    sample_packets,
)
from hharm.propagators import CauchyDataS, schrodinger_evolve, transport_reference
from hharm.restriction import SigmaMeasure, restrict_sigma, sigma_norm_sq
from hharm.report import CheckResult, VerificationReport, _jsonable
from hharm.transform import SpectralField, inverse
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
    # one kernel provider: the recurrence, its writers, the series and the real
    # multiplicity are defined in specfun alone, and restriction and twisted
    # read K_ell through its writers, not through the recurrence
    kernel_defs = ("def _start(", "def _recurrence(", "def _kernel_diag(",
                   "def wigner_radial_table(", "def _kernel_series(", "def _mult_real(")
    assert [m for m in src if any(k in src[m] for k in kernel_defs)] == ["specfun"]
    for m in ("restriction", "twisted"):
        assert not re.search(r"\b_(recurrence|start)\b", src[m]), m
    assert not any("kernel_rows" in text for text in src.values())
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


def test_band_projected_builds_the_tables_of_two_passes(monkeypatch):
    """The band-limited field is analysed and synthesised in one pass over
    the kernel blocks, and its spectrum is a second: the tables of two
    forward transforms, where forward, inverse and forward built three."""
    real = transform.wigner_radial_table
    builds = []
    monkeypatch.setattr(transform, "wigner_radial_table",
                        lambda *a: builds.append(a[0]) or real(*a))
    cfg = RunConfig(n_rho=64, n_s=128, L_max=8)
    transform.forward(RadialField(cfg.grid(), np.zeros((64, 128))), 8)
    one_forward = list(builds)
    builds.clear()
    f, sf = verify._band_projected(cfg, np.random.default_rng(3), 1)
    assert builds == 2 * one_forward
    assert sf.values.tobytes() == transform.forward(f, 8).values.tobytes()


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


def test_suite_names_are_refused_by_the_config_and_run_suites():
    """A string of suites was split into letters, and an unknown name ended
    in a KeyError; both are a ConfigError (CLI exit 2) now."""
    with pytest.raises(ConfigError, match="suites must be a list or tuple of suite names"):
        RunConfig(suites="hardy")
    with pytest.raises(ConfigError, match="suites must be a list or tuple"):
        RunConfig(suites=("hardy", 3))
    assert RunConfig(suites=["hardy"]).suites == ("hardy",)
    known = ", ".join(sorted(set(SUITES) | {"all"}))
    with pytest.raises(ConfigError) as exc:
        run_suites(RunConfig(suites=("hardy", "everything")))
    assert str(exc.value) == f"unknown suite 'everything'; known: {known}"


@pytest.mark.parametrize("names", [(), [], ("hardy", "hardy"), ["all", "hardy", "all"]])
def test_an_empty_or_repeated_suite_list_is_refused(names):
    """An empty list gave a report that passed with no checks, and a repeated
    name gave two rows of one name; both are a ConfigError (CLI exit 2)."""
    with pytest.raises(ConfigError, match="at least one suite, each once"):
        RunConfig(suites=names)


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


# MiB: the traced peaks at the parent design were 38.6 (transport), 42.0
# (wave-energy), 40.1 (decay-probe) and 27.7 (translate-identity), and
# before that 52.7 (transport) and 53.2 (translate-identity)
_SUITE_PEAK_BOUND = 32 * 2**20


def test_transport_suite_lets_go_of_its_fields(traced_peak):
    """A memory bound, not a timing: on the 256 x 2048 grid each band is
    evolved one time at a time, each slice and its reference are dropped at
    their last use, and the difference is formed in the reference's buffer,
    so no two slices of a flow and no two bands' fields are alive at once."""
    out, peak = traced_peak(lambda: SUITES["transport"](RunConfig(seed=42)))
    assert all(r.passed for r in out)
    assert peak <= _SUITE_PEAK_BOUND


@pytest.mark.parametrize("name", ["wave-energy", "decay-probe"])
def test_flow_reducing_suites_hold_a_slice_of_the_flow(traced_peak, name):
    """A memory bound, not a timing: wave-energy takes its 65 unitarity
    norms over chunks of 8 times (the whole flow is 32.5 MiB), and the decay
    probe's offset table has 128 rows (26 MB at 512)."""
    out, peak = traced_peak(lambda: SUITES[name](RunConfig(seed=42)))
    assert all(r.passed for r in out)
    assert peak <= _SUITE_PEAK_BOUND


def test_wave_energy_norms_are_the_whole_flow_norms(monkeypatch):
    """The unitarity norms, taken over chunks of 8 times, are bit for bit
    the norms of the whole 65-time flow (the expression the suite had), and
    so is the reported drift."""
    taken = []
    real = verify.l2_norm

    def recording(f):
        taken.append(real(f))
        return taken[-1]

    monkeypatch.setattr(verify, "l2_norm", recording)
    cfg = RunConfig(seed=42)
    rows = {r.name: r.measured for r in SUITES["wave-energy"](cfg)}
    grid = dataclasses.replace(cfg.grid(), d=1, n_rho=128, n_s=256)
    rng = np.random.default_rng(cfg.seed + 59)
    th0 = verify._cplx(rng, (9, 1)) * verify.bump(np.abs(grid.lam), 0.5, 2.0)
    flow = schrodinger_evolve(CauchyDataS(SpectralField(grid, th0)), np.linspace(0.0, 3.0, 65))
    whole = real(flow)
    assert len(taken) == 9
    assert np.concatenate(taken).tobytes() == whole.tobytes()
    assert rows["schrodinger-unitarity"]["max_rel_drift"] == float(np.abs(whole / whole[0] - 1.0).max())


def test_transport_figures_are_the_whole_flow_figures():
    """Each band evolved one time at a time gives, bit for bit, the slices of
    its two-time flow, and the suite's figures are those of the expressions
    it had over the whole flow, kept here."""
    cfg = RunConfig(seed=42)
    rows = {r.name: r.measured for r in SUITES["transport"](cfg)}
    worst_shift, drifts = {}, []
    for d in (1, 2):
        grid = dataclasses.replace(cfg.grid(), d=d, n_s=max(cfg.n_s, 2048))
        errs = []
        for ell in (0, 1, 2):
            sf = verify._single_band(grid, 8, ell)
            u0 = inverse(sf)
            times = (16.0 * grid.h_s / (4.0 * (2 * ell + d)), 0.2374)
            st = schrodinger_evolve(CauchyDataS(sf), list(times))
            for k, t in enumerate(times):
                one = schrodinger_evolve(CauchyDataS(sf), [t]).values[0]
                assert one.tobytes() == st.values[k].tobytes()
                diff = st.values[k] - transport_reference(u0, ell, t).values
                errs.append(l2_norm(RadialField(grid, diff)) / l2_norm(u0))
            for p in (1.0, 2.0, np.inf):
                spec = MixedNormSpec((p, p), ("Y", "s"))
                n0 = mixed_norm(u0, spec)
                drifts += [abs(mixed_norm(RadialField(grid, v), spec) / n0 - 1.0)
                           for v in st.values]
        worst_shift[f"d{d}"] = float(np.max(errs))
    assert rows["transport-shift"]["max_rel_l2_err"] == worst_shift
    assert rows["transport-lp-invariance"]["max_rel_drift"] == float(np.max(drifts))


def test_translate_identity_holds_no_mesh_sized_float_array(traced_peak):
    """A memory bound, not a timing: the 80 x 80 x 128 mesh is filled one
    y-slice at a time, and s is contracted once per lam into an 80 x 80
    array, so the weighted field (12.5 MiB) is the one mesh-sized array.
    Once scipy has loaded its Legendre code, the traced peak is 13.3 MiB; a
    mesh-sized product per (lam, ell) made it 25.6 MiB."""
    out, peak = traced_peak(translate_identity_check)
    assert out["max_rel_err"] <= 1e-5
    assert peak <= 16 * 2**20


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
