"""HHFLD container: deterministic round-trips and strict failure modes."""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

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
    # its checked header writes back byte for byte
    write_hhfld(tmp_path / "again.hhfld", back)
    assert (tmp_path / "again.hhfld").read_bytes() == p.read_bytes()


@pytest.mark.parametrize("edit, frag", [
    ("midpoint", "disagree with the lam lattice"),
    ("no-lam-nodes", "lam nodes are missing"),
    ("L_max", "L_max 5 != 4"),
])
def test_rejects_a_spectrum_off_its_lattice_or_its_shape(tmp_path, edit, frag):
    """A spectrum whose lam nodes sit on the midpoint lattice (the integer
    lattice shifted by dlam / 2), one without lam nodes, and one whose L_max
    is not its shape's last band each read back as a SpectralField on the
    integer lattice; each is refused now."""
    p = tmp_path / "sf.hhfld"
    write_hhfld(p, SpectralField(G, np.ones((5, G.n_s))))

    def corrupt(h):
        if edit == "midpoint":
            h["lam_nodes"] = [lam + G.dlam / 2 for lam in h["lam_nodes"]]
        elif edit == "no-lam-nodes":
            del h["lam_nodes"]
        else:
            h["L_max"] = 5

    _rewrite_header(p, corrupt)
    with pytest.raises(HHFLDError, match=frag):
        read_hhfld(p)


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


@pytest.mark.parametrize("layout", ["fortran", "big-endian"])
def test_payload_is_written_without_a_copy_and_with_the_old_bytes(tmp_path, layout):
    """The payload is written from the buffer of the C-ordered little-endian
    values, with no bytes copy; a Fortran-ordered or big-endian array still
    gives the bytes of that copy."""
    rng = np.random.default_rng(8)
    vals = rng.standard_normal((G.n_rho, G.n_s)) + 1j * rng.standard_normal((G.n_rho, G.n_s))
    f = RadialField(G, np.asfortranarray(vals))
    if layout == "big-endian":
        f.values = vals.astype(">c16")
    assert not (f.values.flags.c_contiguous and f.values.dtype == "<c16")
    write_hhfld(tmp_path / "f.hhfld", f)
    raw = (tmp_path / "f.hhfld").read_bytes()
    payload = np.ascontiguousarray(f.values, dtype="<c16").tobytes()
    assert raw.endswith(payload) and len(raw) > len(payload)
    write_hhfld(tmp_path / "c.hhfld", RadialField(G, vals))
    assert raw == (tmp_path / "c.hhfld").read_bytes()


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


@pytest.mark.parametrize("edit", ["all-huge", "one-off"])
def test_rejects_corrupted_grid_weights(tmp_path, edit):
    """Finite weights that are not the declared grid's quadrature are refused,
    as the nodes are; all-1e300 weights used to read back and make
    `transform` report a plancherel ratio of inf."""
    p = tmp_path / "w.hhfld"
    write_hhfld(p, radial_fixture())

    def corrupt(h):
        w = h["grid"]["rho_weights"]
        if edit == "all-huge":
            h["grid"]["rho_weights"] = [1e300] * len(w)
        else:
            w[3] *= 1.0 + 1e-6

    _rewrite_header(p, corrupt)
    with pytest.raises(HHFLDError, match="rho weights"):
        read_hhfld(p)


def test_rejects_unserializable_object(tmp_path):
    with pytest.raises(TypeError):
        write_hhfld(tmp_path / "x.hhfld", np.zeros(4))


def test_magic_constant():
    assert MAGIC == b"HHFLD"


def _header_of(raw):
    (hlen,) = struct.unpack("<I", raw[6:10])
    return json.loads(raw[10 : 10 + hlen])


def _with_header(raw, header):
    """The HHFLD bytes `raw` with `header` (any JSON value) as its header."""
    (hlen,) = struct.unpack("<I", raw[6:10])
    blob = json.dumps(header, sort_keys=True, ensure_ascii=True).encode()
    return raw[:6] + struct.pack("<I", len(blob)) + blob + raw[10 + hlen :]


def _rewrite_header(path, edit):
    """Apply `edit` to the JSON header of an HHFLD file in place."""
    raw = path.read_bytes()
    header = _header_of(raw)
    edit(header)
    path.write_bytes(_with_header(raw, header))


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


@pytest.mark.parametrize("key, value", [("s_half", 0), ("n_s", 0), ("d", 200),
                                        ("r_max", 1e300)])
def test_rejects_header_grid_that_does_not_build(tmp_path, key, value):
    p = tmp_path / "g.hhfld"
    write_hhfld(p, radial_fixture())
    _rewrite_header(p, lambda h: h["grid"].__setitem__(key, value))
    with pytest.raises(HHFLDError, match="bad header"):
        read_hhfld(p)


@pytest.mark.parametrize("key, value", [("d", 1.5), ("n_s", 128.0), ("n_rho", 64.0),
                                        ("r_max", True), ("s_half", "20.0")])
def test_header_grid_fields_go_to_grid_as_written(tmp_path, key, value):
    """The reader used to cast them with int() and float(): d = 1.5 read as 1."""
    p = tmp_path / "g.hhfld"
    write_hhfld(p, radial_fixture())
    _rewrite_header(p, lambda h: h["grid"].__setitem__(key, value))
    with pytest.raises(HHFLDError, match="bad header"):
        read_hhfld(p)


def test_reader_uses_the_grid_it_builds(tmp_path):
    """The stored nodes are checked against the grid, not put in its place."""
    p = tmp_path / "f.hhfld"
    write_hhfld(p, radial_fixture())
    _rewrite_header(p, lambda h: h["grid"]["rho_nodes"].__setitem__(0, G.rho[0] + 1e-14))
    g = read_hhfld(p).grid
    for name in ("rho", "w_rho", "w_radial"):
        assert getattr(g, name).tobytes() == getattr(G, name).tobytes()


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


def test_rejects_deeply_nested_header(tmp_path):
    """json raises RecursionError on a header nested 200000 deep."""
    blob = b"[" * 200_000 + b"]" * 200_000
    p = tmp_path / "deep.hhfld"
    p.write_bytes(MAGIC + bytes([1]) + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(HHFLDError, match="bad header"):
        read_hhfld(p)


@pytest.mark.parametrize(
    "kind, rows, match",
    [
        ("radial", 8, "does not match"),  # shape (8, 8) against (300000, 8)
        ("radial", 300_000, "payload size"),  # the shape agrees, the payload does not
        ("spectral", 8, "missing or malformed"),  # a spectrum's shape has no n_rho
    ],
)
def test_short_file_declaring_a_large_grid_is_refused_before_the_grid(
    tmp_path, monkeypatch, kind, rows, match
):
    """The header is checked before the grid is built: building its
    300000-node Gauss-Legendre rule kept the reader busy for minutes."""
    from hharm import container

    small = Grid(d=1, n_rho=8, r_max=4.0, n_s=8, s_half=4.0)
    obj = (RadialField(small, np.ones((8, 8))) if kind == "radial"
           else SpectralField(small, np.ones((8, 8))))
    p = tmp_path / "big.hhfld"
    write_hhfld(p, obj)

    def declare_large_grid(h):  # over the same 8 x 8 payload, no stored nodes
        h["grid"]["n_rho"] = 300_000
        del h["grid"]["rho_nodes"], h["grid"]["rho_weights"]
        h["shape"] = [rows, 8]

    _rewrite_header(p, declare_large_grid)

    def no_grid(*args, **kwargs):
        raise AssertionError("the reader built the declared grid")

    monkeypatch.setattr(container, "Grid", no_grid)
    with pytest.raises(HHFLDError, match=match):
        read_hhfld(p)


@pytest.mark.parametrize("kind", ["radial", "spectral"])
def test_header_above_the_n_rho_cap_is_refused_before_the_rule(tmp_path, monkeypatch, kind):
    """A file consistent in every size but with n_rho = N_RHO_MAX + 1 is
    refused without building its Gauss-Legendre rule (about n_rho^2 work:
    3.1 s at 10000 nodes).  A spectrum's payload does not grow with n_rho."""
    from hharm import fields

    n = fields.N_RHO_MAX + 1
    small = Grid(d=1, n_rho=8, r_max=4.0, n_s=8, s_half=4.0)
    obj = (RadialField(small, np.ones((8, 8))) if kind == "radial"
           else SpectralField(small, np.ones((3, 8))))
    p = tmp_path / "cap.hhfld"
    write_hhfld(p, obj)
    raw = p.read_bytes()
    header = _header_of(raw)
    header["grid"].update(n_rho=n, rho_nodes=np.linspace(0.0, 4.0, n).tolist(),
                          rho_weights=np.full(n, 4.0 / n).tolist())
    (hlen,) = struct.unpack("<I", raw[6:10])
    payload = raw[10 + hlen:]
    if kind == "radial":
        header["shape"] = [n, 8]
        payload = np.ones((n, 8), dtype="<c16").tobytes()
    blob = json.dumps(header, sort_keys=True).encode()
    p.write_bytes(raw[:6] + struct.pack("<I", len(blob)) + blob + payload)

    def no_rule(m):
        raise AssertionError("the reader built a Gauss-Legendre rule")

    monkeypatch.setattr(fields, "roots_legendre", no_rule)
    with pytest.raises(HHFLDError, match="n_rho must be <= 8192"):
        read_hhfld(p)


# --- fuzzing: a returned field or HHFLDError, nothing else -----------------


_SMALL = Grid(d=1, n_rho=4, r_max=3.0, n_s=4, s_half=2.0, t_nodes=[0.0, 0.5])
_RNG = np.random.default_rng(5)
_VALID = {
    "radial": RadialField(_SMALL, _RNG.standard_normal((4, 4)) + 0j),
    "spectral": SpectralField(_SMALL, _RNG.standard_normal((3, 4)) + 0j),
    "spacetime": SpaceTimeField(_SMALL, _RNG.standard_normal((2, 4, 4)) + 0j),
}
_FUZZ = settings(max_examples=150,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])

_sizes = st.one_of(
    st.integers(-3, 9),
    st.sampled_from([-(2**63), -1, 0, 2**31, 2**63, 10**30, 300_000]),
    st.integers(-(2**70), 2**70),
)
_json = st.recursive(
    st.none() | st.booleans() | st.floats() | _sizes | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
_grid_keys = ["d", "n_rho", "r_max", "n_s", "s_half", "t_nodes", "rho_nodes", "rho_weights"]
_header_keys = ["schema", "kind", "d", "dtype", "order", "shape", "L_max", "lam_nodes", "grid"]


def _valid_bytes(tmp_path, kind):
    p = tmp_path / f"valid-{kind}.hhfld"
    write_hhfld(p, _VALID[kind])
    return p.read_bytes()


def _read_outcome(path, data):
    """Read `data` from `path`; a field or HHFLDError are the only outcomes."""
    path.write_bytes(data)
    try:
        out = read_hhfld(path)
    except HHFLDError:
        return
    assert isinstance(out, (RadialField, SpectralField, SpaceTimeField))
    assert np.isfinite(out.values).all()


@_FUZZ
@given(kind=st.sampled_from(sorted(_VALID)), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_fuzz_truncated_file(tmp_path, kind, cut):
    raw = _valid_bytes(tmp_path, kind)
    _read_outcome(tmp_path / "f.hhfld", raw[: int(cut * len(raw))])


@_FUZZ
@given(kind=st.sampled_from(sorted(_VALID)), in_header=st.booleans(),
       flips=st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                                st.integers(1, 255)), min_size=1, max_size=4))
def test_fuzz_flipped_bytes(tmp_path, kind, in_header, flips):
    raw = bytearray(_valid_bytes(tmp_path, kind))
    (hlen,) = struct.unpack("<I", raw[6:10])
    lo, hi = (0, 10 + hlen) if in_header else (10 + hlen, len(raw))
    for where, mask in flips:
        raw[lo + int(where * (hi - lo))] ^= mask
    _read_outcome(tmp_path / "f.hhfld", bytes(raw))


@_FUZZ
@given(kind=st.sampled_from(sorted(_VALID)),
       sizes=st.dictionaries(st.sampled_from(["d", "n_rho", "n_s"]), _sizes, min_size=1),
       shape=st.none() | st.lists(_sizes, max_size=4))
def test_fuzz_header_sizes(tmp_path, kind, sizes, shape):
    """Grid sizes and the shape replaced by huge, negative or zero values."""

    raw = _valid_bytes(tmp_path, kind)
    h = _header_of(raw)
    h["grid"].update(sizes)
    h["shape"] = h["shape"] if shape is None else shape
    _read_outcome(tmp_path / "f.hhfld", _with_header(raw, h))


@_FUZZ
@given(kind=st.sampled_from(sorted(_VALID)),
       header=st.dictionaries(st.sampled_from(_header_keys), _json, max_size=3),
       grid=st.dictionaries(st.sampled_from(_grid_keys), _json, max_size=3),
       drop=st.lists(st.sampled_from(_header_keys + _grid_keys), max_size=2),
       whole=st.none() | _json)
def test_fuzz_random_header(tmp_path, kind, header, grid, drop, whole):
    """A valid header with keys replaced by random JSON or dropped, or a
    random JSON value as the whole header."""

    raw = _valid_bytes(tmp_path, kind)
    h = _header_of(raw)
    h["grid"].update(grid)
    h.update(header)
    for key in drop:
        h.pop(key, None)
        if isinstance(h.get("grid"), dict):
            h["grid"].pop(key, None)
    _read_outcome(tmp_path / "f.hhfld", _with_header(raw, h if whole is None else whole))


# --- the reader and Grid refuse the same grids ------------------------------

# Each grid field is drawn, one time in four, from ints, floats, bools,
# strings, 1.5, NaN, +-inf and ints past the float range, and otherwise from
# a small valid range, so n_rho stays small.
_odd = (st.integers(-2, 300) | st.booleans() | st.floats() | st.text(max_size=3)
        | st.sampled_from([1.5, float("nan"), float("inf"), -float("inf"),
                           10**400, -(10**400), 2**1100]))


def _field(valid):
    return st.integers(0, 3).flatmap(lambda i: valid if i else _odd)


_length = st.integers(1, 30) | st.floats(0.5, 30.0)
_GRID_FIELDS = st.fixed_dictionaries({
    "d": _field(st.integers(1, 3)),
    "n_rho": _field(st.integers(1, 16)),
    "r_max": _field(_length),
    "n_s": _field(st.sampled_from([2, 4, 6, 8, 16])),
    "s_half": _field(_length),
})
_BASE = dict(d=1, n_rho=8, r_max=4.0, n_s=8, s_half=4.0)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kw=_GRID_FIELDS)
@example(kw=dict(_BASE, d=1.5))  # once read as d = 1
@example(kw=dict(_BASE, n_s=8.0))  # and this as n_s = 8
@example(kw=dict(_BASE, s_half=1e308))
def test_reader_and_grid_refuse_alike(tmp_path, kw):
    """A radial file whose header holds the drawn grid fields (on the drawn
    grid when it builds, else over a valid 8 x 8 file) reads back exactly
    when Grid(**kw) builds, and raises HHFLDError, never another exception,
    exactly when Grid raises ValueError."""
    try:
        grid = Grid(**kw)
    except ValueError:
        grid = None
    p = tmp_path / "f.hhfld"
    base = Grid(**_BASE) if grid is None else grid
    write_hhfld(p, RadialField(base, np.ones((base.n_rho, base.n_s))))
    _rewrite_header(p, lambda h: h["grid"].update(kw))
    try:
        got = read_hhfld(p)
    except HHFLDError:
        assert grid is None
        return
    assert grid is not None and got.grid.compatible(grid)
