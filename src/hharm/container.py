"""HHFLD container: a tiny binary format for fields and spectra.

Layout
------
bytes 0..4   magic b"HHFLD"
byte  5      format version (0x01)
bytes 6..10  uint32 little-endian header length H
next H bytes UTF-8 JSON header
rest         payload: complex128 little-endian, interleaved (re, im),
             row-major in the declared shape

The header records the kind ("radial" | "spectral" | "spacetime"), the half
dimension d, the grid parameters, the payload dtype tag "c128le", and the
array shape.  Floats survive JSON exactly (repr round-trip), and the payload
is raw bytes, so write -> read -> write is byte-identical.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .fields import Grid, RadialField, SpaceTimeField

MAGIC = b"HHFLD"
VERSION = 1

__all__ = ["HHFLDError", "write_hhfld", "read_hhfld", "MAGIC", "VERSION"]


class HHFLDError(ValueError):
    """Malformed or unsupported HHFLD content."""


def _grid_header(grid: Grid) -> dict:
    return {
        "d": grid.d,
        "n_rho": grid.n_rho,
        "r_max": grid.r_max,
        "n_s": grid.n_s,
        "s_half": grid.s_half,
        "t_nodes": None if grid.t_nodes is None else [float(t) for t in grid.t_nodes],
        "rho_nodes": [float(r) for r in grid.rho],
        "rho_weights": [float(w) for w in grid.w_rho],
    }


def write_hhfld(path, obj) -> None:
    """Serialize a RadialField, SpectralField, or SpaceTimeField."""
    from .transform import SpectralField  # avoid import cycle

    if isinstance(obj, RadialField):
        kind = "radial"
    elif isinstance(obj, SpectralField):
        kind = "spectral"
    elif isinstance(obj, SpaceTimeField):
        kind = "spacetime"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    header = {
        "schema": "hhfld/1",
        "kind": kind,
        "d": obj.grid.d,
        "grid": _grid_header(obj.grid),
        "dtype": "c128le",
        "order": "row-major",
        "shape": list(obj.values.shape),
    }
    if kind == "spectral":
        header["L_max"] = obj.L_max
        header["lam_nodes"] = obj.grid.lam.tolist()
    blob = json.dumps(header, sort_keys=True, ensure_ascii=True).encode("utf-8")
    payload = np.ascontiguousarray(obj.values, dtype="<c16").tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)


def _rebuild_grid(h: dict) -> Grid:
    grid = Grid(
        d=int(h["d"]),
        n_rho=int(h["n_rho"]),
        r_max=float(h["r_max"]),
        n_s=int(h["n_s"]),
        s_half=float(h["s_half"]),
        t_nodes=None if h.get("t_nodes") is None else np.asarray(h["t_nodes"]),
    )
    stored = np.asarray(h.get("rho_nodes", grid.rho), dtype=float)
    if stored.shape != grid.rho.shape or not np.allclose(
        stored, grid.rho, rtol=0, atol=1e-12 * grid.r_max
    ):
        raise HHFLDError("stored rho nodes disagree with the declared grid")
    # the stored arrays are authoritative (robust across quadrature libraries)
    grid.rho = stored
    grid.w_rho = np.asarray(h.get("rho_weights", grid.w_rho), dtype=float)
    from .fields import sphere_area

    grid.w_radial = grid.w_rho * sphere_area(grid.d) * grid.rho ** (2 * grid.d - 1)
    return grid


def read_hhfld(path):
    """Load an HHFLD file back into its field object."""
    from .transform import SpectralField

    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 10 or raw[:5] != MAGIC:
        raise HHFLDError("not an HHFLD file (bad magic)")
    if raw[5] != VERSION:
        raise HHFLDError(f"unsupported HHFLD version {raw[5]}")
    (hlen,) = struct.unpack("<I", raw[6:10])
    if len(raw) < 10 + hlen:
        raise HHFLDError("truncated header")
    try:
        header = json.loads(raw[10 : 10 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HHFLDError(f"bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise HHFLDError("bad header: not a JSON object")
    if header.get("dtype") != "c128le" or header.get("order") != "row-major":
        raise HHFLDError("unsupported payload encoding")
    try:
        shape = tuple(int(n) for n in header["shape"])
        grid = _rebuild_grid(header["grid"])
    except HHFLDError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise HHFLDError(f"bad header: missing or malformed field ({exc})") from exc
    expected = int(np.prod(shape)) * 16
    payload = raw[10 + hlen :]
    if len(payload) != expected:
        raise HHFLDError(
            f"payload size {len(payload)} != expected {expected} for shape {shape}"
        )
    values = np.frombuffer(payload, dtype="<c16").reshape(shape).copy()
    if not np.isfinite(values).all():
        raise HHFLDError("payload holds non-finite values")
    kind = header.get("kind")
    try:
        if kind == "radial":
            return RadialField(grid, values)
        if kind == "spectral":
            return SpectralField(grid, values)
        if kind == "spacetime":
            return SpaceTimeField(grid, values)
    except ValueError as exc:  # e.g. a shape the field kind does not accept
        raise HHFLDError(f"bad field: {exc}") from exc
    raise HHFLDError(f"unknown kind {kind!r}")
