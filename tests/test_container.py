"""HHFLD container: deterministic round-trips and strict failure modes."""

from __future__ import annotations

import numpy as np
import pytest

from hharm.container import HHFLDError, MAGIC, read_hhfld, write_hhfld
from hharm.fields import Grid, RadialField, SpaceTimeField
from hharm.transform import SpectralField

G = Grid(d=1, n_rho=64, r_max=10.0, n_s=128, s_half=20.0)


def radial_fixture():
    rng = np.random.default_rng(11)
    vals = rng.standard_normal((G.n_rho, G.n_s)) + 1j * rng.standard_normal(
        (G.n_rho, G.n_s)
    )
    return RadialField(G, vals)


def test_radial_roundtrip(tmp_path):
    f = radial_fixture()
    p = tmp_path / "f.hhfld"
    write_hhfld(p, f)
    g = read_hhfld(p)
    assert isinstance(g, RadialField)
    assert np.array_equal(g.values, f.values)
    assert np.array_equal(g.grid.rho, G.rho)
    assert np.array_equal(g.grid.w_radial, G.w_radial)
    assert g.grid.d == 1 and g.grid.s_half == 20.0


def test_spectral_roundtrip(tmp_path):
    rng = np.random.default_rng(12)
    theta = rng.standard_normal((5, G.n_s)) + 1j * rng.standard_normal((5, G.n_s))
    sf = SpectralField(G, theta)
    p = tmp_path / "sf.hhfld"
    write_hhfld(p, sf)
    back = read_hhfld(p)
    assert isinstance(back, SpectralField)
    assert back.L_max == 4
    assert np.array_equal(back.values, sf.values)
    # the lam = 0 column is zeroed on construction and stays zeroed on load
    assert np.all(back.values[:, G.izero] == 0.0)


def test_spacetime_roundtrip(tmp_path):
    times = np.linspace(0.0, 0.5, 4)
    gt = Grid(d=1, n_rho=64, r_max=10.0, n_s=128, s_half=20.0, t_nodes=times)
    rng = np.random.default_rng(13)
    vals = rng.standard_normal((4, 64, 128)) * (1 + 0j)
    u = SpaceTimeField(gt, vals)
    p = tmp_path / "u.hhfld"
    write_hhfld(p, u)
    back = read_hhfld(p)
    assert isinstance(back, SpaceTimeField)
    assert np.array_equal(back.grid.t_nodes, times)
    assert np.array_equal(back.values, vals)


def test_write_read_write_byte_identical(tmp_path):
    f = radial_fixture()
    p1 = tmp_path / "a.hhfld"
    p2 = tmp_path / "b.hhfld"
    write_hhfld(p1, f)
    write_hhfld(p2, read_hhfld(p1))
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_bad_magic(tmp_path):
    p = tmp_path / "junk.hhfld"
    p.write_bytes(b"NOPE!" + bytes(32))
    with pytest.raises(HHFLDError, match="magic"):
        read_hhfld(p)


def test_rejects_bad_version(tmp_path):
    f = radial_fixture()
    p = tmp_path / "v.hhfld"
    write_hhfld(p, f)
    raw = bytearray(p.read_bytes())
    raw[5] = 99
    p.write_bytes(bytes(raw))
    with pytest.raises(HHFLDError, match="version"):
        read_hhfld(p)


def test_rejects_truncated_payload(tmp_path):
    f = radial_fixture()
    p = tmp_path / "t.hhfld"
    write_hhfld(p, f)
    raw = p.read_bytes()
    p.write_bytes(raw[:-16])
    with pytest.raises(HHFLDError, match="payload"):
        read_hhfld(p)


def test_rejects_corrupted_grid_nodes(tmp_path):
    f = radial_fixture()
    p = tmp_path / "g.hhfld"
    write_hhfld(p, f)
    raw = p.read_bytes()
    # perturb one stored rho node inside the JSON header
    import json
    import struct

    (hlen,) = struct.unpack("<I", raw[6:10])
    header = json.loads(raw[10 : 10 + hlen])
    header["grid"]["rho_nodes"][3] += 0.5
    blob = json.dumps(header, sort_keys=True, ensure_ascii=True).encode()
    p.write_bytes(raw[:6] + struct.pack("<I", len(blob)) + blob + raw[10 + hlen :])
    with pytest.raises(HHFLDError, match="rho nodes"):
        read_hhfld(p)


def test_rejects_unserializable_object(tmp_path):
    with pytest.raises(TypeError):
        write_hhfld(tmp_path / "x.hhfld", np.zeros(4))


def test_magic_constant():
    assert MAGIC == b"HHFLD"


def _rewrite_header(path, edit):
    """Apply `edit` to the JSON header of an HHFLD file in place."""
    import json
    import struct

    raw = path.read_bytes()
    (hlen,) = struct.unpack("<I", raw[6:10])
    header = json.loads(raw[10 : 10 + hlen])
    edit(header)
    blob = json.dumps(header, sort_keys=True, ensure_ascii=True).encode()
    path.write_bytes(raw[:6] + struct.pack("<I", len(blob)) + blob + raw[10 + hlen :])


@pytest.mark.parametrize("key", ["grid", "shape"])
def test_rejects_header_without_required_key(tmp_path, key):
    p = tmp_path / "h.hhfld"
    write_hhfld(p, radial_fixture())
    _rewrite_header(p, lambda h: h.pop(key))
    with pytest.raises(HHFLDError, match="header"):
        read_hhfld(p)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rejects_non_finite_payload(tmp_path, bad):
    f = radial_fixture()
    f.values[3, 7] = bad
    p = tmp_path / "n.hhfld"
    write_hhfld(p, f)
    with pytest.raises(HHFLDError, match="non-finite"):
        read_hhfld(p)


@pytest.mark.parametrize("key, value", [("s_half", 0), ("n_s", 0)])
def test_rejects_header_grid_that_does_not_build(tmp_path, key, value):
    p = tmp_path / "g.hhfld"
    write_hhfld(p, radial_fixture())
    _rewrite_header(p, lambda h: h["grid"].__setitem__(key, value))
    with pytest.raises(HHFLDError, match="bad header"):
        read_hhfld(p)


def test_rejects_spectral_field_without_bands(tmp_path):
    import struct

    p = tmp_path / "s.hhfld"
    write_hhfld(p, SpectralField(G, np.ones((1, G.n_s))))
    _rewrite_header(p, lambda h: h.__setitem__("shape", [0, G.n_s]))
    raw = p.read_bytes()
    (hlen,) = struct.unpack("<I", raw[6:10])
    p.write_bytes(raw[: 10 + hlen])  # an empty payload matches the shape
    with pytest.raises(HHFLDError, match="bad field"):
        read_hhfld(p)
