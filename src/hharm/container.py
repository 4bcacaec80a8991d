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
array shape; a spectrum also records its L_max and lam nodes, and the reader
refuses one whose nodes are not the lam lattice of the declared grid.
Floats survive JSON exactly (repr round-trip), and the payload is raw bytes,
so write -> read -> write is byte-identical.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from .fields import _GEOMETRY, Grid, RadialField, SpaceTimeField
from .transform import SpectralField

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
    # written from its own buffer: a copy only when the layout or byte
    # order differs from the payload's
    payload = np.ascontiguousarray(obj.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(bytes([VERSION]))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        fh.write(payload)


def _declared_shape(kind, g: dict, shape: tuple) -> tuple:
    """The payload shape the header's grid sizes declare for `kind`; the band
    count of a spectrum is whatever its shape says."""
    if kind == "radial":
        return (g["n_rho"], g["n_s"])
    if kind == "spacetime":
        return (len(g["t_nodes"]), g["n_rho"], g["n_s"])
    if kind == "spectral":
        return (shape[0] if shape else None, g["n_s"])
    raise HHFLDError(f"unknown kind {kind!r}")


def _rebuild_grid(h: dict) -> Grid:
    """`Grid` of the header's values as written, so the reader refuses what
    the library refuses; the stored rho nodes and weights are only checked."""
    # the stored quadrature comes with the grid sizes it claims, so a header
    # cannot ask for a Gauss-Legendre rule larger than the file that holds it
    stored = np.asarray(h["rho_nodes"], dtype=float)
    weights = np.asarray(h["rho_weights"], dtype=float)
    if not stored.shape == weights.shape == (h["n_rho"],):
        raise HHFLDError(
            "bad header: stored rho nodes and weights do not have n_rho entries"
        )
    if not (np.isfinite(stored).all() and np.isfinite(weights).all()):
        raise HHFLDError("bad header: stored rho nodes or weights are not finite")
    grid = Grid(**{k: h[k] for k in _GEOMETRY}, t_nodes=h.get("t_nodes"))
    if not np.allclose(stored, grid.rho, rtol=0, atol=1e-12 * grid.r_max):
        raise HHFLDError("stored rho nodes disagree with the declared grid")
    if not np.allclose(weights, grid.w_rho, rtol=0, atol=1e-12 * grid.r_max):
        raise HHFLDError("stored rho weights disagree with the declared grid")
    return grid


def _check_spectrum(h: dict, sf: SpectralField) -> None:
    """The header's L_max and lam nodes must be those of the spectrum read, so
    a file on another lam lattice is refused, not read onto the grid's."""
    L_max = h.get("L_max")
    if not (isinstance(L_max, int) and not isinstance(L_max, bool) and L_max == sf.L_max):
        raise HHFLDError(f"bad header: L_max {L_max!r} != {sf.L_max}, the shape's last band")
    try:
        lam = np.asarray(h.get("lam_nodes"), dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise HHFLDError(f"bad header: malformed lam nodes ({exc})") from exc
    grid = sf.grid
    if lam.shape != (grid.n_s,) or not np.isfinite(lam).all():
        raise HHFLDError("bad header: stored lam nodes are missing, not finite or not n_s long")
    if not np.allclose(lam, grid.lam, rtol=0, atol=1e-12 * grid.dlam):
        raise HHFLDError("stored lam nodes disagree with the lam lattice of the declared grid")


def read_hhfld(path):
    """Load an HHFLD file back into its field object.

    The header's shape is checked against the declared grid sizes and the
    payload length before the grid (and its Gauss-Legendre rule) is built, so
    a short file cannot make the reader build a large grid.
    """
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
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise HHFLDError(f"bad header: {exc}") from exc
    if not isinstance(header, dict):
        raise HHFLDError("bad header: not a JSON object")
    if header.get("dtype") != "c128le" or header.get("order") != "row-major":
        raise HHFLDError("unsupported payload encoding")
    kind = header.get("kind")
    payload = raw[10 + hlen :]
    try:
        shape = header["shape"]
        if not isinstance(shape, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape
        ):
            raise HHFLDError(f"bad header: shape {shape!r} is not a list of sizes")
        shape = tuple(shape)
        declared = _declared_shape(kind, header["grid"], shape)
        if shape != declared:
            raise HHFLDError(
                f"bad header: shape {list(shape)} does not match the {kind} "
                f"layout {declared} of the declared grid"
            )
        expected = math.prod(shape) * 16
        if len(payload) != expected:
            raise HHFLDError(
                f"payload size {len(payload)} != expected {expected} for shape {shape}"
            )
        grid = _rebuild_grid(header["grid"])
    except HHFLDError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise HHFLDError(f"bad header: missing or malformed field ({exc})") from exc
    values = np.frombuffer(payload, dtype="<c16").reshape(shape).copy()
    if not np.isfinite(values).all():
        raise HHFLDError("payload holds non-finite values")
    try:
        if kind == "radial":
            return RadialField(grid, values)
        if kind == "spacetime":
            return SpaceTimeField(grid, values)
        sf = SpectralField(grid, values)  # _declared_shape refused other kinds
    except ValueError as exc:  # e.g. a shape the field kind does not accept
        raise HHFLDError(f"bad field: {exc}") from exc
    _check_spectrum(header, sf)
    return sf
