"""Configuration loading/validation and the command-line entry point."""

from __future__ import annotations

import dataclasses
import json
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hharm.cli import EXIT_OK, EXIT_REFUSED, EXIT_TOLERANCE, EXIT_USAGE, main
from hharm.config import SCHEMA, ConfigError, RunConfig
from hharm.container import read_hhfld, write_hhfld
from hharm import transform
from hharm.fields import ELL_MAX, N_RHO_MAX, N_T_MAX, Grid, RadialField, SpaceTimeField
from hharm.transform import SpectralField, forward, inverse
from hharm.verify import SUITES
from hharm.windows import bump


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------

def test_config_defaults():
    cfg = RunConfig()
    assert (cfg.d, cfg.L_max, cfg.n_rho, cfg.n_s) == (1, 64, 256, 512)
    assert (cfg.r_max, cfg.s_half, cfg.seed) == (12.0, 40.0, 42)
    g = cfg.grid()
    assert (g.n_rho, g.n_s, g.d) == (256, 512, 1)


@pytest.mark.parametrize(
    "kw, frag",
    [
        ({"d": 0}, "d must be"),
        ({"L_max": -1}, "L_max"),
        ({"n_rho": 4}, "n_rho"),
        ({"n_s": 100}, "power of two"),
        ({"n_s": 4}, "power of two"),
        ({"r_max": 0.0}, "positive"),
        ({"n_t": 1}, "n_t"),
        ({"t_final": 0.0}, "t_final"),
        ({"s_half": -2.0}, "positive"),
        ({"t_final": float("nan")}, "t_final"),
        ({"t_final": float("inf")}, "t_final"),
        ({"r_max": float("inf")}, "finite"),
        ({"s_half": float("nan")}, "finite"),
        ({"L_max": 8.5}, "L_max must be an integer"),
        ({"n_s": 512.0}, "n_s must be an integer"),
        ({"seed": -3}, "seed must be an int >= 0"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"n_rho": N_RHO_MAX + 1}, "n_rho must be <= 8192"),
        ({"r_max": True}, "r_max must be finite and positive"),  # was taken as 1
        ({"t_final": True}, "t_final must be finite and positive"),
    ],
)
def test_config_validation(kw, frag):
    with pytest.raises(ConfigError, match=frag):
        RunConfig(**kw)


# Each geometry field is drawn, one time in four, from ints, floats, bools,
# NaN, +-inf and ints past the float range, and otherwise from a plausible
# range; n_rho stays small, or is just past the cap, so no large
# Gauss-Legendre rule is built.
_any_number = (st.integers(-1, 400) | st.booleans() | st.floats()
               | st.sampled_from([float("nan"), float("inf"), -float("inf"),
                                  10**400, -(10**400), N_RHO_MAX + 1]))


def _field(plausible):
    return st.integers(0, 3).flatmap(lambda i: plausible if i else _any_number)


_length = st.integers(1, 100) | st.floats(0.5, 50.0)
_GEOMETRY = st.fixed_dictionaries({
    "d": _field(st.integers(1, 3)),
    "n_rho": _field(st.integers(1, 64)),
    "r_max": _field(_length),
    "n_s": _field(st.sampled_from([4, 8, 16, 32, 64, 100, 128])),
    "s_half": _field(_length),
})


_VALID_GEOMETRY = {"d": 1, "n_rho": 8, "r_max": 12.0, "n_s": 8, "s_half": 40.0}


@settings(max_examples=300)
@given(kw=_GEOMETRY)
@example(kw=dict(_VALID_GEOMETRY, n_s=2**1100))  # raised OverflowError
@example(kw=dict(_VALID_GEOMETRY, s_half=1e308))  # h_s = inf
@example(kw=dict(_VALID_GEOMETRY, s_half=5e-324))  # lam = -inf
@example(kw=dict(_VALID_GEOMETRY, s_half=1e-150))  # accepted: dlam |lam| ~ 4e301
@example(kw=dict(_VALID_GEOMETRY, n_s=2, s_half=1e307))  # accepted: h_s = 1e307
@example(kw=dict(_VALID_GEOMETRY, d=100, r_max=1.0))  # accepted: |lam|^100 ~ 5e-51
def test_config_and_grid_refuse_alike(kw):
    """A Grid builds, with finite weights and no warning, or raises
    ValueError, and RunConfig refuses exactly the geometries Grid refuses,
    plus those its own size rules refuse."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            grid = Grid(**kw)
            grid_refused = False
        except ValueError:
            grid_refused = True
        if not grid_refused:
            for a in (grid.s, grid.w_lam, grid.w_radial):
                assert np.isfinite(a).all()
            assert grid.h_s > 0
        config_only = not grid_refused and (
            kw["n_rho"] < 8 or kw["n_s"] < 8 or kw["n_s"] & (kw["n_s"] - 1) != 0)
        try:
            RunConfig(**kw)
            config_refused = False
        except ConfigError:
            config_refused = True
    assert config_refused == (grid_refused or config_only)


def test_config_json_roundtrip(tmp_path):
    cfg = RunConfig(L_max=16, n_rho=64, n_s=128, seed=7)
    d = cfg.as_dict()
    assert d["schema"] == SCHEMA
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(d))
    back = RunConfig.from_json(p)
    assert dataclasses.asdict(back) == dataclasses.asdict(cfg)
    assert list(d) == ["schema"] + [f.name for f in dataclasses.fields(RunConfig)]


@pytest.mark.parametrize(
    "text, frag",
    [
        ("{not json", "not valid JSON"),
        ("[1, 2]", "top level"),
        ('{"schema": "other/9"}', "schema"),
        (f'{{"schema": "{SCHEMA}", "n_sigma": 3}}', "unknown keys"),
    ],
)
def test_config_from_json_errors(tmp_path, text, frag):
    p = tmp_path / "bad.json"
    p.write_text(text)
    with pytest.raises(ConfigError, match=frag):
        RunConfig.from_json(p)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

SMALL = {
    "schema": SCHEMA, "d": 1, "L_max": 8, "n_rho": 64, "r_max": 12.0,
    "n_s": 128, "s_half": 40.0, "n_t": 5, "t_final": 0.5,
}


@pytest.fixture
def small_cfg(tmp_path):
    p = tmp_path / "small.json"
    p.write_text(json.dumps(SMALL))
    return str(p)


@pytest.fixture
def small_grid():
    return Grid(d=1, n_rho=64, r_max=12.0, n_s=128, s_half=40.0)


@pytest.fixture
def band_file(tmp_path, small_grid):
    """A radial field band-limited to ell <= 4, carriers inside |lam| in [.5, 2]."""
    theta = np.zeros((5, small_grid.n_s), dtype=complex)
    for ell in range(5):
        theta[ell] = (0.8**ell) * bump(np.abs(small_grid.lam), 0.5, 2.0)
    f = inverse(SpectralField(small_grid, theta))
    p = tmp_path / "band.hhfld"
    write_hhfld(p, f)
    return str(p)


def test_transform_fwd_roundtrip(tmp_path, small_cfg, band_file, capsys):
    spec_path = str(tmp_path / "band_spec.hhfld")
    code = main(["transform", "--dir", "fwd", "--in", band_file,
                 "--out", spec_path, "--config", small_cfg])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "plancherel ratio" in out
    sf = read_hhfld(spec_path)
    assert isinstance(sf, SpectralField)

    back_path = str(tmp_path / "band_back.hhfld")
    code = main(["transform", "--dir", "inv", "--in", spec_path,
                 "--out", back_path, "--config", small_cfg])
    assert code == EXIT_OK
    f0 = read_hhfld(band_file)
    f1 = read_hhfld(back_path)
    num = np.sqrt(np.sum(np.abs(f1.values - f0.values) ** 2))
    den = np.sqrt(np.sum(np.abs(f0.values) ** 2))
    assert num / den < 1e-8


def test_transform_missing_file(tmp_path, capsys):
    code = main(["transform", "--dir", "fwd", "--in", str(tmp_path / "nope.hhfld"),
                 "--out", str(tmp_path / "o.hhfld")])
    assert code == EXIT_USAGE
    assert "missing file" in capsys.readouterr().err


def test_transform_wrong_kind(tmp_path, small_cfg, band_file, capsys):
    spec_path = str(tmp_path / "s.hhfld")
    main(["transform", "--dir", "fwd", "--in", band_file,
          "--out", spec_path, "--config", small_cfg])
    capsys.readouterr()
    code = main(["transform", "--dir", "fwd", "--in", spec_path,
                 "--out", str(tmp_path / "o.hhfld"), "--config", small_cfg])
    assert code == EXIT_USAGE
    assert "radial-field" in capsys.readouterr().err


def test_transform_refuses_bands_the_kernel_floor_cuts(tmp_path, capsys):
    """At L_max = 2000 a 64 x 128 field reaches u = 2 |lam|max r_max^2 =
    1446.6, past the kernel floor's cut: refused (exit 4) with L_max and u
    named, where the cut bands used to show as a Plancherel breach (exit 3)."""
    grid = Grid(d=1, n_rho=64, r_max=12.0, n_s=128, s_half=40.0)
    field = tmp_path / "normal.hhfld"
    write_hhfld(field, RadialField(grid, np.random.default_rng(1).standard_normal((64, 128))))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_rho": 64, "n_s": 128, "L_max": 2000}))
    code = main(["transform", "--dir", "fwd", "--in", str(field),
                 "--out", str(tmp_path / "o.hhfld"), "--config", str(cfg)])
    assert code == EXIT_REFUSED
    assert "L_max=2000 at d=1 reaches u = 2|lam| rho^2 = 1446.6" in capsys.readouterr().err


def test_transform_corrupt_container(tmp_path, capsys):
    p = tmp_path / "junk.hhfld"
    p.write_bytes(b"NOTHH" + b"\x00" * 64)
    code = main(["transform", "--dir", "fwd", "--in", str(p),
                 "--out", str(tmp_path / "o.hhfld")])
    assert code == EXIT_USAGE
    assert "hharm:" in capsys.readouterr().err


def test_transform_refuses_file_with_foreign_weights(tmp_path, small_cfg, band_file, capsys):
    """Radial weights that are not the grid's rule are a bad file (exit 2),
    not a Plancherel breach of the data (exit 3, "ratio: inf")."""
    raw = Path(band_file).read_bytes()
    (hlen,) = struct.unpack("<I", raw[6:10])
    header = json.loads(raw[10 : 10 + hlen])
    header["grid"]["rho_weights"] = [1e300] * len(header["grid"]["rho_weights"])
    blob = json.dumps(header, sort_keys=True, ensure_ascii=True).encode()
    p = tmp_path / "heavy.hhfld"
    p.write_bytes(raw[:6] + struct.pack("<I", len(blob)) + blob + raw[10 + hlen :])
    code = main(["transform", "--dir", "fwd", "--in", str(p),
                 "--out", str(tmp_path / "o.hhfld"), "--config", small_cfg])
    assert code == EXIT_USAGE
    assert "rho weights" in capsys.readouterr().err


def test_transform_tolerance_breach(tmp_path, band_file, capsys):
    """The file holds bands 0-4: truncated at L_max = 3 the Plancherel ratio
    is off by 6.8e-2, at L_max = 4 by 1.6e-15."""
    p = tmp_path / "truncating.json"
    p.write_text(json.dumps(dict(SMALL, L_max=3)))
    code = main(["transform", "--dir", "fwd", "--in", band_file,
                 "--out", str(tmp_path / "o.hhfld"), "--config", str(p)])
    assert code == EXIT_TOLERANCE
    assert "tolerance breach" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, frag", [
    ({"tolerances": {}}, "unknown keys"),
    ({"d": 200}, "radial weights overflow"),
    ({"d": 171}, "radial weights overflow"),
    ({"d": 1, "r_max": 1e300}, "radial weights overflow"),
    ({"r_max": True}, "r_max must be finite and positive"),
    ({"r_max": 5e-324}, "radial weights underflow"),
    ({"suites": []}, "suites must name at least one suite"),
])
def test_config_refusals_are_usage_errors(tmp_path, cfg, frag, capsys):
    """A `tolerances` key, geometries whose radial weights overflow, a
    JSON true for r_max and an empty suite list exit 2.  At d = 200 the run
    died on an OverflowError; at d = 171 and r_max = 1e300 it exited 0 with
    a nan band-tail fraction, r_max = true ran on r_max = 1, r_max = 5e-324
    ran on a grid whose radial nodes and weights are all 0, and the empty
    suite list ran, because the CLI replaces the config's suites."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(cfg, n_rho=8, n_s=8, L_max=2)))
    code = main(["verify", "hardy", "--config", str(p), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_USAGE
    assert frag in capsys.readouterr().err


@pytest.mark.parametrize("geometry", [{"s_half": 1e308}, {"s_half": 5e-324},
                                      {"n_s": 2**1100}])
def test_config_with_a_non_finite_s_axis_is_a_usage_error(tmp_path, geometry, capsys):
    """h_s or the spectral weights would not be finite: exit 2.  Before the s-axis
    check n_s = 2**1100 died on an OverflowError, and the two s_half ran."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(SMALL, **geometry)))
    code = main(["propagate", "--eq", "schrodinger", "--transport-ell", "0",
                 "--config", str(p)])
    assert code == EXIT_USAGE
    assert "s-axis step or spectral weights" in capsys.readouterr().err


def test_config_above_the_n_rho_cap_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """n_rho above the cap exits 2 before a Gauss-Legendre rule is built."""
    from hharm import fields

    def no_rule(n):
        raise AssertionError("a Gauss-Legendre rule was built")

    monkeypatch.setattr(fields, "roots_legendre", no_rule)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n_rho": N_RHO_MAX + 1}))
    code = main(["verify", "hardy", "--config", str(p), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_USAGE
    assert "n_rho" in capsys.readouterr().err


def test_config_above_the_n_s_cap_is_a_usage_error(tmp_path, monkeypatch, capsys):
    """n_s = 2**40 was accepted, and the grid of every command would have
    asked for 8 TB s and lam arrays; it exits 2 before any is built."""
    from hharm import fields

    def no_rule(n):
        raise AssertionError("a Gauss-Legendre rule was looked up")

    monkeypatch.setattr(fields, "_legendre_rule", no_rule)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"n_rho": 8, "n_s": 2**40}))
    code = main(["verify", "hardy", "--config", str(p), "--out", str(tmp_path / "r.json")])
    assert code == EXIT_USAGE
    assert "n_s must be <= 65536" in capsys.readouterr().err


def _edit_container(path, edit_header=None, edit_values=None):
    """Rewrite an HHFLD file with an edited header or payload."""
    import struct

    raw = Path(path).read_bytes()
    (hlen,) = struct.unpack("<I", raw[6:10])
    header = json.loads(raw[10 : 10 + hlen])
    payload = raw[10 + hlen :]
    if edit_header:
        edit_header(header)
    if edit_values:
        vals = np.frombuffer(payload, dtype="<c16").copy()
        edit_values(vals)
        payload = vals.tobytes()
    blob = json.dumps(header, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(raw[:6] + struct.pack("<I", len(blob)) + blob + payload)


@pytest.mark.parametrize("key", ["grid", "shape"])
def test_transform_header_without_key_is_usage_error(tmp_path, small_cfg, band_file,
                                                     key, capsys):
    _edit_container(band_file, edit_header=lambda h: h.pop(key))
    code = main(["transform", "--dir", "fwd", "--in", band_file,
                 "--out", str(tmp_path / "o.hhfld"), "--config", small_cfg])
    assert code == EXIT_USAGE
    assert "bad header" in capsys.readouterr().err


def test_transform_nan_payload_is_usage_error(tmp_path, small_cfg, band_file, capsys):
    _edit_container(band_file, edit_values=lambda v: v.__setitem__(5, np.nan))
    code = main(["transform", "--dir", "fwd", "--in", band_file,
                 "--out", str(tmp_path / "o.hhfld"), "--config", small_cfg])
    assert code == EXIT_USAGE
    assert "non-finite" in capsys.readouterr().err


def test_transform_nan_ratio_is_breach(tmp_path, small_cfg, band_file, capsys):
    # finite samples whose squared norms overflow: the ratio is inf/inf = nan
    _edit_container(band_file, edit_values=lambda v: v.__imul__(1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["transform", "--dir", "fwd", "--in", band_file,
                     "--out", str(tmp_path / "o.hhfld"), "--config", small_cfg])
    captured = capsys.readouterr()
    assert "relative error: nan" in captured.out
    assert code == EXIT_TOLERANCE
    assert "tolerance breach" in captured.err


def test_transform_zero_field_writes_zero_spectrum(tmp_path, small_cfg, small_grid,
                                                   capsys):
    zero = tmp_path / "zero.hhfld"
    write_hhfld(zero, RadialField(small_grid, np.zeros((small_grid.n_rho,
                                                        small_grid.n_s))))
    out_path = tmp_path / "zero_spec.hhfld"
    code = main(["transform", "--dir", "fwd", "--in", str(zero),
                 "--out", str(out_path), "--config", small_cfg])
    assert code == EXIT_OK
    assert "spectral energy 0" in capsys.readouterr().out
    sf = read_hhfld(out_path)
    assert isinstance(sf, SpectralField) and not np.any(sf.values)


@pytest.mark.parametrize("key", ["s_half", "n_s"])
def test_transform_header_grid_with_zero_extent_is_usage_error(tmp_path, small_cfg,
                                                               band_file, key, capsys):
    _edit_container(band_file, edit_header=lambda h: h["grid"].__setitem__(key, 0))
    code = main(["transform", "--dir", "fwd", "--in", band_file,
                 "--out", str(tmp_path / "o.hhfld"), "--config", small_cfg])
    assert code == EXIT_USAGE
    assert "bad header" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("d", 1.5), ("n_s", 128.0)])
def test_transform_header_grid_field_goes_to_grid_as_written(tmp_path, small_cfg,
                                                             band_file, key, value, capsys):
    """The reader used to cast the header with int(), so d = 1.5 read as d = 1."""
    _edit_container(band_file, edit_header=lambda h: h["grid"].__setitem__(key, value))
    code = main(["transform", "--dir", "fwd", "--in", band_file,
                 "--out", str(tmp_path / "o.hhfld"), "--config", small_cfg])
    assert code == EXIT_USAGE
    assert f"{key} must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["transform", "--dir", "inv"],
                                  ["propagate", "--eq", "schrodinger"]])
def test_spectral_file_without_bands_is_usage_error(tmp_path, small_cfg, small_grid,
                                                    argv, capsys):
    p = tmp_path / "no_bands.hhfld"
    write_hhfld(p, SpectralField(small_grid, np.ones((1, small_grid.n_s))))
    _edit_container(p, edit_header=lambda h: h.__setitem__("shape", [0, small_grid.n_s]))
    raw = p.read_bytes()
    p.write_bytes(raw[: len(raw) - 16 * small_grid.n_s])  # zero bands: empty payload
    code = main(argv + ["--in", str(p), "--out", str(tmp_path / "o.hhfld"),
                        "--config", small_cfg])
    assert code == EXIT_USAGE
    assert "bad field" in capsys.readouterr().err


def test_propagate_transport_demo(small_cfg, capsys):
    code = main(["propagate", "--eq", "schrodinger", "--transport-ell", "1",
                 "--t", "0.25", "--config", small_cfg])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "expected s-shift 4*t*(2*ell+d) = 3" in out


def test_config_caps_L_max_and_n_t():
    """L_max and n_t are capped at ELL_MAX and N_T_MAX (4096 each); the caps
    themselves are accepted."""
    assert ELL_MAX == N_T_MAX == 4096
    RunConfig(L_max=ELL_MAX, n_t=N_T_MAX)
    with pytest.raises(ConfigError, match="L_max must be <= 4096"):
        RunConfig(L_max=ELL_MAX + 1)
    with pytest.raises(ConfigError, match="n_t must be <= 4096"):
        RunConfig(n_t=N_T_MAX + 1)


def _fail(*args, **kwargs):
    raise AssertionError("an array was built before the refusal")


@pytest.mark.parametrize("argv, cfg, frag", [
    (["transform", "--dir", "fwd"], {"L_max": 10**15}, "L_max must be <= 4096"),
    (["propagate", "--eq", "schrodinger"], {"n_t": 10**15}, "n_t must be <= 4096"),
    (["propagate", "--eq", "schrodinger", "--transport-ell", str(10**15)], {},
     "--transport-ell must be <= 4096"),
    (["propagate", "--eq", "schrodinger", "--transport-ell", "-1"], {},
     "--transport-ell must be an int >= 0"),
])
def test_band_and_time_counts_past_the_caps_are_usage_errors(
        tmp_path, band_file, monkeypatch, capsys, argv, cfg, frag):
    """L_max = 10**15 hung `transform` in the Python multiplicity list, and
    n_t = 10**15 and --transport-ell 10**15 died on a MemoryError traceback.
    Each exits 2 before any band table or field array is built (the small
    time ladder of `propagate` comes first)."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(dict(SMALL, **cfg)))
    monkeypatch.setattr(transform, "_mult_table", _fail)
    for name in ("zeros", "empty"):
        monkeypatch.setattr(np, name, _fail)
    if "--transport-ell" not in argv:
        monkeypatch.setattr(np, "linspace", _fail)
        argv = argv + ["--in", band_file, "--out", str(tmp_path / "o.hhfld")]
    code = main(argv + ["--config", str(p)])
    assert code == EXIT_USAGE
    assert frag in capsys.readouterr().err


@pytest.mark.parametrize("flag, frag", [
    ("--in", "propagate expects a radial or spectral container as --in"),
    ("--u1", "--u1 expects 'zero' or a radial/spectral container"),
])
def test_propagate_refuses_a_container_of_another_kind(tmp_path, small_cfg, small_grid,
                                                       band_file, capsys, flag, frag):
    """A spacetime container as --in or as --u1 exits 2, each with its message."""
    st_file = str(tmp_path / "st.hhfld")
    write_hhfld(st_file, SpaceTimeField(small_grid.with_times([0.0, 0.1]),
                                        np.zeros((2, small_grid.n_rho, small_grid.n_s))))
    files = {"--in": band_file, "--u1": band_file, flag: st_file}
    code = main(["propagate", "--eq", "wave", "--in", files["--in"], "--u1", files["--u1"],
                 "--config", small_cfg])
    assert code == EXIT_USAGE
    assert frag in capsys.readouterr().err


def test_propagate_bad_time(small_cfg, capsys):
    code = main(["propagate", "--eq", "schrodinger", "--transport-ell", "0",
                 "--t", "-1", "--config", small_cfg])
    assert code == EXIT_USAGE
    assert "t_final must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("eq", ["schrodinger", "wave"])
@pytest.mark.parametrize("t", ["nan", "inf"])
def test_propagate_nonfinite_time_is_usage_error(tmp_path, small_cfg, band_file, eq, t,
                                                 capsys):
    out_path = tmp_path / "st.hhfld"
    code = main(["propagate", "--eq", eq, "--in", band_file, "--t", t,
                 "--out", str(out_path), "--config", small_cfg])
    assert code == EXIT_USAGE
    assert "t_final must be finite and positive" in capsys.readouterr().err
    assert not out_path.exists()


def test_propagate_nan_config_time_is_usage_error(tmp_path, band_file, capsys):
    p = tmp_path / "nan.json"
    p.write_text(json.dumps(dict(SMALL, t_final=float("nan"))))  # writes NaN
    code = main(["propagate", "--eq", "schrodinger", "--in", band_file,
                 "--config", str(p)])
    assert code == EXIT_USAGE
    assert "t_final" in capsys.readouterr().err


@pytest.mark.parametrize("eq", ["schrodinger", "wave"])
def test_propagate_nan_drift_is_breach(tmp_path, small_cfg, band_file, eq, capsys):
    # finite samples whose squared norms overflow: the drift is inf/inf = nan
    _edit_container(band_file, edit_values=lambda v: v.__imul__(1e200))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["propagate", "--eq", eq, "--in", band_file,
                     "--config", small_cfg])
    captured = capsys.readouterr()
    assert "conservation drift: nan" in captured.out
    assert code == EXIT_TOLERANCE
    assert "tolerance breach" in captured.err


def test_propagate_transport_needs_schrodinger(small_cfg, capsys):
    code = main(["propagate", "--eq", "wave", "--transport-ell", "0",
                 "--config", small_cfg])
    assert code == EXIT_USAGE


def test_propagate_schrodinger_conserves(tmp_path, small_cfg, band_file, capsys):
    out_path = str(tmp_path / "st.hhfld")
    code = main(["propagate", "--eq", "schrodinger", "--in", band_file,
                 "--out", out_path, "--config", small_cfg])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "L2 conservation drift" in out
    st = read_hhfld(out_path)
    assert st.values.shape[0] == SMALL["n_t"]


def test_propagate_wave_zero_velocity(small_cfg, band_file, capsys):
    code = main(["propagate", "--eq", "wave", "--in", band_file,
                 "--config", small_cfg])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "velocity datum is zero" in out
    assert "energy conservation drift" in out


@pytest.mark.parametrize("velocity", [False, True])
def test_propagate_wave_splits_once_and_matches_the_public_pair(
        tmp_path, small_cfg, small_grid, band_file, velocity, monkeypatch, capsys):
    """`propagate --eq wave` of a radial file runs the half-wave split once
    per kernel block, on that block's columns, and never on the whole
    spectrum; its output file holds the bytes of wave_evolve and its printed
    drift is that of wave_energy_series."""
    from hharm import propagators
    from hharm.propagators import CauchyDataW, wave_energy_series, wave_evolve

    sf0 = forward(read_hhfld(band_file), SMALL["L_max"])
    if velocity:
        theta1 = 0.5 * sf0.values * bump(np.abs(small_grid.lam), 0.6, 1.8)[None, :]
        u1 = SpectralField(small_grid, theta1)
        write_hhfld(tmp_path / "u1.hhfld", u1)
        u1_arg = str(tmp_path / "u1.hhfld")
    else:
        u1 = SpectralField(small_grid, np.zeros_like(sf0.values))
        u1_arg = "zero"
    times = np.linspace(0.0, SMALL["t_final"], SMALL["n_t"])
    data = CauchyDataW(sf0, u1)
    st_ref = wave_evolve(data, times)
    energy = wave_energy_series(data, times)
    drift = float(np.abs(energy / energy[0] - 1.0).max())

    calls = []
    split = propagators._halfwaves
    monkeypatch.setattr(propagators, "_halfwaves",
                        lambda th0, *a: calls.append(th0.shape) or split(th0, *a))
    out = tmp_path / "wave.hhfld"
    code = main(["propagate", "--eq", "wave", "--in", band_file, "--u1", u1_arg,
                 "--config", small_cfg, "--out", str(out)])
    assert code == EXIT_OK
    blocks = [(SMALL["L_max"] + 1, sl.stop - sl.start)
              for _, sl in transform._lam_blocks(small_grid, SMALL["L_max"])]
    assert calls == blocks
    assert read_hhfld(out).values.tobytes() == st_ref.values.tobytes()
    assert f"energy conservation drift: {drift:.3e}" in capsys.readouterr().out


def test_propagate_wave_refuses_central_velocity(tmp_path, small_cfg, small_grid,
                                                 band_file, capsys):
    # as many bands as the forward transform of --in at the config's L_max
    theta1 = np.zeros((SMALL["L_max"] + 1, small_grid.n_s), dtype=complex)
    theta1[0, small_grid.izero + 1] = 1.0  # velocity mass next to lambda = 0
    u1 = tmp_path / "u1.hhfld"
    write_hhfld(u1, SpectralField(small_grid, theta1))
    code = main(["propagate", "--eq", "wave", "--in", band_file,
                 "--u1", str(u1), "--config", small_cfg])
    err = capsys.readouterr().err
    assert code == EXIT_REFUSED
    assert "refused" in err and "lambda = 0" in err


@pytest.mark.parametrize("argv, line", [
    (["--eq", "schrodinger", "--in", "{band}", "--u1", "{missing}"],
     "--u1 applies to --eq wave"),
    (["--eq", "schrodinger", "--in", "{band}", "--u1", "zero"], "--u1 applies to --eq wave"),
    (["--eq", "schrodinger", "--transport-ell", "0", "--in", "{missing}"],
     "--transport-ell builds its own datum; it takes no --in"),
    (["--eq", "schrodinger", "--transport-ell", "0", "--in", "{band}"],
     "--transport-ell builds its own datum; it takes no --in"),
])
def test_propagate_refuses_a_flag_it_would_ignore(tmp_path, small_cfg, band_file, argv, line,
                                                  capsys):
    """`--u1` with the Schrodinger flow and `--in` with the transport
    demonstration ran as if the flag were absent (exit 0, a missing path
    never opened).  Each is refused with exit 2 and one stderr line, and
    no output is written."""
    out = tmp_path / "o.hhfld"
    paths = {"band": band_file, "missing": str(tmp_path / "missing.hhfld")}
    code = main(["propagate"] + [a.format(**paths) for a in argv]
                + ["--out", str(out), "--config", small_cfg])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"hharm: {line}\n"
    assert not out.exists()


def _propagate_case(tmp_path, d, n_t, flow):
    """A band-limited radial file, its config, the --u1 argument of `flow`
    and the velocity spectrum that argument stands for."""
    cfg = dict(SMALL, d=d, n_t=n_t)
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    grid = Grid(d=d, n_rho=SMALL["n_rho"], r_max=SMALL["r_max"], n_s=SMALL["n_s"],
                s_half=SMALL["s_half"])
    band = bump(np.abs(grid.lam), 0.5, 2.0)
    theta = np.array([(0.8**ell) * band for ell in range(5)])
    write_hhfld(tmp_path / "in.hhfld", inverse(SpectralField(grid, theta)))
    L = SMALL["L_max"]
    u1 = SpectralField(grid, np.zeros((L + 1, grid.n_s), dtype=complex))
    u1_arg = "zero"
    if flow in ("wave-spectral", "wave-radial"):
        rng = np.random.default_rng(40 + d)
        u1 = SpectralField(grid, bump(np.abs(grid.lam), 0.6, 1.8)
                           * (rng.standard_normal((L + 1, grid.n_s)) + 0.5j))
        u1_arg = str(tmp_path / "u1.hhfld")
        if flow == "wave-radial":  # the CLI forwards it first
            write_hhfld(u1_arg, inverse(u1))
            u1 = forward(read_hhfld(u1_arg), L)
        else:
            write_hhfld(u1_arg, u1)
    return cfg, str(tmp_path / "cfg.json"), str(tmp_path / "in.hhfld"), u1_arg, u1


@pytest.mark.parametrize("flow", ["schrodinger", "wave-zero", "wave-spectral", "wave-radial"])
@pytest.mark.parametrize("n_t", [2, 9])
@pytest.mark.parametrize("d", [1, 2])
def test_propagate_of_a_radial_file_has_the_bytes_of_forward_then_evolve(tmp_path, d, n_t,
                                                                         flow, capsys):
    """The one-pass `propagate` of a radial file writes the file and prints
    the lines of forward -> schrodinger_evolve or forward ->
    wave_evolve and wave_energy_series, byte for byte, for every kind of --u1."""
    from hharm.propagators import CauchyDataS, CauchyDataW, wave_energy_series, wave_evolve
    from hharm.propagators import schrodinger_evolve
    from hharm.fields import l2_norm

    cfg, cfg_path, in_path, u1_arg, u1 = _propagate_case(tmp_path, d, n_t, flow)
    sf0 = forward(read_hhfld(in_path), cfg["L_max"])
    times = np.linspace(0.0, cfg["t_final"], n_t)
    out = tmp_path / "out.hhfld"
    head = f"over {n_t} times, t in [0, {cfg['t_final']:g}]"
    if flow == "schrodinger":
        st = schrodinger_evolve(CauchyDataS(sf0), times)
        norms = l2_norm(st)
        drift = float(np.abs(norms / norms[0] - 1.0).max())
        lines = [f"free evolution {head}", f"L2 conservation drift: {drift:.3e}"]
        extra = []
    else:
        data = CauchyDataW(sf0, u1)
        st, energy = wave_evolve(data, times), wave_energy_series(data, times)
        drift = float(np.abs(energy / energy[0] - 1.0).max())
        lines = [f"wave evolution {head}", f"energy conservation drift: {drift:.3e}"]
        if flow == "wave-zero":
            lines.insert(0, "half-wave split: gamma_pm = u0_hat / 2 (velocity datum is zero)")
        extra = ["--u1", u1_arg]
    write_hhfld(tmp_path / "ref.hhfld", st)
    eq = flow.split("-")[0]
    code = main(["propagate", "--eq", eq, "--in", in_path, "--out", str(out),
                 "--config", cfg_path] + extra)
    assert code == (EXIT_OK if drift <= 1e-10 else EXIT_TOLERANCE)
    assert out.read_bytes() == (tmp_path / "ref.hhfld").read_bytes()
    lines.append(f"spacetime field written to {out}")
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


@pytest.mark.parametrize("eq", ["schrodinger", "wave"])
def test_propagate_of_a_radial_file_builds_each_kernel_table_once(tmp_path, small_cfg,
                                                                  band_file, eq, monkeypatch):
    """Analysis, multiplier and synthesis run block by block, so a
    `propagate` of a radial file builds the kernel tables of one forward
    transform, not those of a forward and an inverse."""
    real = transform.wigner_radial_table
    builds = []
    monkeypatch.setattr(transform, "wigner_radial_table",
                        lambda *a: builds.append(a[0]) or real(*a))
    forward(read_hhfld(band_file), SMALL["L_max"])
    one_forward = list(builds)
    assert one_forward.count(SMALL["L_max"]) == 2  # 64 |lam| rows, 2 blocks
    builds.clear()
    code = main(["propagate", "--eq", eq, "--in", band_file, "--config", small_cfg,
                 "--out", str(tmp_path / "o.hhfld")])
    assert code == EXIT_OK
    assert builds == one_forward


@pytest.mark.parametrize("u1_grid, bands, frag", [
    (Grid(d=1, n_rho=64, r_max=12.0, n_s=128, s_half=20.0), 5, "different grid"),
    (None, 3, "L_max=2"),  # was exit 4: operands could not be broadcast together
])
def test_propagate_wave_refuses_a_velocity_it_cannot_pair(tmp_path, small_cfg, small_grid,
                                                          u1_grid, bands, frag, capsys):
    """`CauchyDataW` refuses the pair, and the CLI maps that to exit 2."""
    band = bump(np.abs(small_grid.lam), 0.5, 2.0)
    u0, u1 = tmp_path / "u0.hhfld", tmp_path / "u1.hhfld"
    write_hhfld(u0, SpectralField(small_grid, np.tile(band, (5, 1))))
    write_hhfld(u1, SpectralField(u1_grid or small_grid, np.tile(band, (bands, 1))))
    code = main(["propagate", "--eq", "wave", "--in", str(u0), "--u1", str(u1),
                 "--config", small_cfg])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert "--u1 does not match --in" in err and frag in err


def test_propagate_wave_forwards_a_radial_u1_at_the_band_count_of_in(tmp_path, small_grid):
    """A radial --u1 has no band count of its own: it is forwarded at that of
    --in.  With a spectral --in of L_max 16 and a config L_max of 32 it was
    forwarded at 32 and refused (exit 2, "velocity u1 has L_max=32, position
    u0 has L_max=16")."""
    from hharm.propagators import CauchyDataW, wave_evolve

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SMALL, L_max=32)))
    rng = np.random.default_rng(45)
    band = bump(np.abs(small_grid.lam), 0.6, 1.8)
    u0 = SpectralField(small_grid, band * rng.standard_normal((17, small_grid.n_s)))
    v = inverse(SpectralField(small_grid, band * (rng.standard_normal((17, small_grid.n_s))
                                                  + 0.5j)))
    paths = {k: str(tmp_path / f"{k}.hhfld") for k in ("u0", "u1", "out")}
    write_hhfld(paths["u0"], u0)
    write_hhfld(paths["u1"], v)
    code = main(["propagate", "--eq", "wave", "--in", paths["u0"], "--u1", paths["u1"],
                 "--config", str(cfg), "--out", paths["out"]])
    assert code == EXIT_OK
    times = np.linspace(0.0, SMALL["t_final"], SMALL["n_t"])
    st = wave_evolve(CauchyDataW(u0, forward(v, 16)), times)
    assert read_hhfld(paths["out"]).values.tobytes() == st.values.tobytes()


def test_verify_unknown_suite(capsys):
    code = main(["verify", "everything"])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown suite" in err and "plancherel" in err


_KNOWN = ", ".join(sorted(set(SUITES) | {"all"}))


@pytest.mark.parametrize("argv, line", [
    (["transform", "--dir", "fwd", "--in", "{spec}", "--out", "{out}"],
     "--dir fwd expects a radial-field container"),
    (["transform", "--dir", "inv", "--in", "{band}", "--out", "{out}"],
     "--dir inv expects a spectral container"),
    (["propagate", "--eq", "wave", "--transport-ell", "0"],
     "--transport-ell applies to --eq schrodinger"),
    (["propagate", "--eq", "schrodinger", "--transport-ell", "-1"],
     "--transport-ell must be an int >= 0, got -1"),
    (["propagate", "--eq", "schrodinger"],
     "--in is required unless --transport-ell is given"),
    (["propagate", "--eq", "wave", "--in", "{spec}", "--u1", "{foreign}"],
     "--u1 does not match --in: velocity u1 lives on a different grid than position u0"),
    (["verify", "everything"], f"unknown suite 'everything'; known: {_KNOWN}"),
    (["verify", "everything/x"], f"unknown suite 'everything'; known: {_KNOWN}"),
    (["verify", "all/hardy-spike"],
     "'all/hardy-spike': a row is named SUITE/ROW of a suite not run whole"),
    (["verify", "hardy/hardy-p4"],
     "unknown row 'hardy-p4' of suite 'hardy'; its rows: hardy-p1.5, hardy-p2, hardy-p3, "
     "hardy-spike"),
])
def test_cli_usage_errors_exit_2_with_one_stderr_line(tmp_path, small_cfg, small_grid,
                                                      band_file, argv, line, capsys):
    """Each usage error the commands raise themselves exits 2 with exactly
    this line on stderr."""
    band = bump(np.abs(small_grid.lam), 0.5, 2.0)
    paths = {"band": band_file, "out": str(tmp_path / "o.hhfld")}
    for name, grid in (("spec", small_grid),
                       ("foreign", dataclasses.replace(small_grid, s_half=20.0))):
        paths[name] = str(tmp_path / f"{name}.hhfld")
        write_hhfld(paths[name], SpectralField(grid, np.tile(band, (5, 1))))
    argv = [a.format(**paths) for a in argv]
    if argv[0] != "verify":
        argv += ["--config", small_cfg]
    code = main(argv)
    assert code == EXIT_USAGE == 2
    assert capsys.readouterr().err == f"hharm: {line}\n"


def test_verify_suite_report(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["verify", "hardy", "--seed", "42", "--out", str(out_path)])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.out == ""  # report goes to the file, not stdout
    assert "wall time" in captured.err
    rep = json.loads(out_path.read_text())
    assert rep["schema"] == "hharm-report/1"
    assert rep["results"] and all(r["passed"] for r in rep["results"])


def test_verify_one_row_report(capsys):
    """`hharm verify SUITE/ROW` reports that row alone, equal to its entry
    in the golden `verify all --seed 42` report."""
    code = main(["verify", "hardy/hardy-spike", "--seed", "42"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    assert captured.err.startswith("[PASS] hardy-spike\n1/1 checks passed")
    rep = json.loads(captured.out)
    golden = Path(__file__).parent / "golden" / "verify_all_seed42.json"
    assert rep["results"] == [r for r in json.loads(golden.read_text())["results"]
                              if r["name"] == "hardy-spike"]
    assert rep["diagnostics"]["suites"] == ["hardy/hardy-spike"]


def test_verify_stdout_and_determinism(tmp_path, capsys):
    code = main(["verify", "translate-identity", "--seed", "42"])
    first = capsys.readouterr().out
    assert code == EXIT_OK
    code = main(["verify", "translate-identity", "--seed", "42"])
    second = capsys.readouterr().out
    assert code == EXIT_OK
    assert first == second
    rep = json.loads(first)
    assert rep["config"]["seed"] == 42
    assert rep["passed"] is True


def test_python_dash_m_hharm_exits_with_the_cli_code():
    """`python -m hharm` runs `cli.main` in a fresh interpreter, which a
    checkout without the installed `hharm` script relies on, and exits with
    its code."""
    run = [sys.executable, "-m", "hharm", "verify"]
    proc = subprocess.run(run + ["hardy", "--seed", "42"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr[-2000:]
    rep = json.loads(proc.stdout)
    assert rep["schema"] == "hharm-report/1" and rep["passed"] is True
    proc = subprocess.run(run + ["everything"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == EXIT_USAGE
    assert proc.stdout == "" and "unknown suite 'everything'" in proc.stderr


@pytest.mark.parametrize(
    "cfg, argv",
    [({"seed": -3}, []), ({"seed": 1.5}, []), ({}, ["--seed", "-3"])],
)
def test_verify_bad_seed_is_usage_error(tmp_path, cfg, argv, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    code = main(["verify", "hardy", "--config", str(p)] + argv)
    assert code == EXIT_USAGE
    assert "seed must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, rows",
    [
        ("bernstein", ("bernstein-ring-ratio", "bernstein-ring-slope")),
        ("strichartz-scaling", ("strichartz-flatness-p2q2", "strichartz-flatness-p2qinf")),
    ],
)
def test_verify_on_a_grid_too_small_for_the_data_fails_rows(tmp_path, suite, rows, capsys):
    """On an 8 x 8 grid the ring and scaling data vanish, so a norm ratio is
    0/0 (numpy warns "invalid value"): the rows fail with a "nan" figure
    instead of raising."""
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps({"n_rho": 8, "n_s": 8, "L_max": 2}))
    out = tmp_path / "report.json"
    with pytest.warns(RuntimeWarning, match="invalid value"):
        code = main(["verify", suite, "--config", str(p), "--out", str(out)])
    assert code == EXIT_TOLERANCE
    got = {r["name"]: r for r in json.loads(out.read_text())["results"]}
    for name in rows:
        assert got[name]["passed"] is False
        assert "nan" in json.dumps(got[name]["measured"])


# ---------------------------------------------------------------------------
# Config fuzzing
# ---------------------------------------------------------------------------

# Grid and band sizes are capped (n_rho <= 64, n_s <= 128, L_max <= 16,
# n_t <= 16): the fuzz checks exit codes, and an uncapped draw could ask for
# gigabytes.  The caps are the only filter on the drawn values, and an n_rho
# above the library's N_RHO_MAX passes them: it is refused before any grid
# is built.
_SIZE_CAPS = {"n_rho": 64, "n_s": 128, "L_max": 16, "n_t": 16}

_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)
# positive floats, and ints up to past the largest float
_positive = (st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
             | st.integers(min_value=1, max_value=2**1100))
# a value of the right type and near the valid range for every key
_PLAUSIBLE = {
    "schema": st.just(SCHEMA),
    "d": st.integers(1, 400),
    "L_max": st.integers(0, 16),
    "n_rho": st.integers(8, 64) | st.integers(N_RHO_MAX + 1, 2**64),
    "r_max": _positive,
    "n_s": st.sampled_from([8, 16, 32, 64, 128]),
    "s_half": _positive,
    "n_t": st.integers(2, 16),
    "t_final": _positive,
    "seed": st.integers(min_value=0),
    "suites": st.just(["all"]),
}
assert set(_PLAUSIBLE) == {"schema"} | {f.name for f in dataclasses.fields(RunConfig)}
_near_valid = st.fixed_dictionaries({}, optional=_PLAUSIBLE)


def _small(cfg):
    return all(not isinstance(cfg.get(k), int) or cfg[k] <= cap
               or (k == "n_rho" and cfg[k] > N_RHO_MAX)
               for k, cap in _SIZE_CAPS.items())


_configs = st.one_of(
    _near_valid,
    # one real or unknown key set to any JSON value
    st.tuples(_near_valid, st.sampled_from(sorted(_PLAUSIBLE)) | st.text(max_size=6), _json)
    .map(lambda t: {**t[0], t[1]: t[2]}).filter(_small),
    _json.filter(lambda v: not isinstance(v, dict)),  # not an object
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    grid = Grid(d=1, n_rho=64, r_max=12.0, n_s=128, s_half=40.0)
    theta = np.tile(bump(np.abs(grid.lam), 0.5, 2.0), (3, 1))  # bands 0-2
    write_hhfld(d / "radial.hhfld", inverse(SpectralField(grid, theta)))
    return d


@settings(max_examples=150)
@given(raw=_configs, command=st.sampled_from(["verify", "transform", "propagate"]))
def test_fuzzed_config_exits_with_a_documented_code(fuzz_dir, raw, command):
    """Any JSON config gives exit 0, 2, 3 or 4: never a traceback."""
    cfg, radial, out = fuzz_dir / "cfg.json", str(fuzz_dir / "radial.hhfld"), fuzz_dir / "o"
    cfg.write_text(json.dumps(raw))
    argv = {
        "verify": ["verify", "hardy", "--out", str(out)],
        "transform": ["transform", "--dir", "fwd", "--in", radial, "--out", str(out)],
        "propagate": ["propagate", "--eq", "schrodinger", "--in", radial],
    }[command]
    with np.errstate(all="ignore"):
        code = main(argv + ["--config", str(cfg)])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_TOLERANCE, EXIT_REFUSED)
    n_rho = raw.get("n_rho") if isinstance(raw, dict) else None
    if isinstance(n_rho, int) and not isinstance(n_rho, bool) and n_rho > N_RHO_MAX:
        assert code == EXIT_USAGE
