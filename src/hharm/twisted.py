"""Twisted convolution on the plane and band-projection operators (d = 1).

(f *_lam g)(Y) = int f(Y - w) g(w) e^{2 i lam sigma(Y, w)} dw,
sigma((y, eta), (y', eta')) = eta y' - eta' y.

The radial band kernels reproduce themselves under twisted convolution,

    K_ell *_lam K_m = delta_{ell m} (pi / (2 lam))^d K_ell   (lam > 0),

so T_ell f = f *_lam K_ell is (pi/(2 lam))^d times an orthogonal projection
and its L^2 -> L^2 norm is exactly (pi / (2 |lam|))^d.

Fields live on a square lattice containing the origin and are treated as
zero outside the box, which makes the lattice of differences Y - w a subset
of the (padded) sample lattice and the discrete convolution exact for
box-supported data.  `twisted_convolve` evaluates that lattice sum in
O(n^4) as one Toeplitz gemm per row of f, with O(n^2) temporaries.

Gaussian tails of f and g can each sit above the normal-range floor
`specfun._FLOOR` = 2^-969 and still meet in a product below it, which an
x86 gemm forms about 8x slower.  So `twisted_convolve` cuts every real and
imaginary part of f and of g too small to reach the floor against the other
field's largest part, skips the gemm of every f row that is then all 0, and
returns exact 0 when even the two largest parts multiply to less than the
floor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fields import _check_int
from .specfun import _FLOOR, _kernel_diag

__all__ = [
    "PlanarGrid",
    "PlanarField",
    "planar_norm",
    "twisted_convolve",
    "kernel_field",
    "tn_apply",
    "operator_norm",
]


@dataclass
class PlanarGrid:
    """Uniform square lattice on [-half_width, half_width]^2 (d = 1 plane).

    `n` must be an odd int >= 3 so the origin is a sample and differences
    of lattice points stay on the (extended) lattice; `half_width` must be
    > 0 and the box width 2 * half_width finite.
    """

    half_width: float = 8.0
    n: int = 97
    axis: np.ndarray = field(init=False, repr=False)
    h: float = field(init=False)

    def __post_init__(self):
        _check_int("n", self.n, 3)
        if self.n % 2 == 0:
            raise ValueError("n must be odd (origin-centred lattice)")
        if not (self.half_width > 0 and np.isfinite(2.0 * self.half_width)):
            raise ValueError(
                f"half_width must be > 0 with a finite box width, got {self.half_width!r}"
            )
        self.axis = np.linspace(-self.half_width, self.half_width, self.n)
        self.h = 2.0 * self.half_width / (self.n - 1)

    def mesh(self):
        y, eta = np.meshgrid(self.axis, self.axis, indexing="ij")
        return y, eta

    def compatible(self, other: "PlanarGrid") -> bool:
        return self.n == other.n and abs(self.half_width - other.half_width) < 1e-12


@dataclass
class PlanarField:
    grid: PlanarGrid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (self.grid.n, self.grid.n):
            raise ValueError(f"values shape {v.shape} != {(self.grid.n, self.grid.n)}")
        self.values = v


def planar_norm(f: PlanarField, p: float) -> float:
    """L^p norm on the plane with the lattice cell weight h^2; p = inf gives
    the largest modulus, and a p that is not > 0 (NaN too) is refused."""
    if not p > 0:
        raise ValueError(f"p must be positive, got {p!r}")
    a = np.abs(f.values)
    if np.isinf(p):
        return float(a.max())
    return float((f.grid.h**2 * np.sum(a**p)) ** (1.0 / p))


def _outer_band_fraction(values: np.ndarray) -> float:
    n = values.shape[0]
    m = max(1, n // 10)
    total = float(np.abs(values).sum())
    if total == 0.0:
        return 0.0
    inner = float(np.abs(values[m : n - m, m : n - m]).sum())
    return (total - inner) / total


def twisted_convolve(f: PlanarField, g: PlanarField, lam: float) -> PlanarField:
    """Twisted convolution of two box-supported planar fields.

    Exact lattice evaluation: the difference Y - w is always a lattice
    point of the zero-padded f, and the phase splits as

        e^{2 i lam sigma(Y, w)} = e^{2 i lam eta_j y_k} e^{-2 i lam eta_l y_i}

    for Y = (y_i, eta_j), w = (y_k, eta_l).  With lo = (n - 1) / 2 the
    output is

        h^2 sum_{k, l} e^{2 i lam eta_j y_k} g[k, l] e^{-2 i lam eta_l y_i}
            f[i - k + lo, j - l + lo].

    Each f row p = i - k + lo gives one n x n Toeplitz matrix
    T_p[l, j] = f[p, j - l + lo] (zero outside the box); the rows
    g[k, .] e^{-2 i lam eta_. y_i} of every pair (i, k) that meets row p go
    through one gemm against it, and the product rows, times
    e^{2 i lam eta_j y_k}, are added into output row i.  Cost O(n^4) as n
    gemms of at most n x n by n x n, with O(n^2) temporaries.

    No gemm forms a subnormal product, by the floor `specfun._FLOOR` = 2^-969.
    With M_f and M_g the largest real or imaginary part of f and of g, and
    r = sqrt(2^-969 / (M_f M_g)), every part of f below r M_f and every part
    of g below r M_g is set to 0 (after the refusal and the edge warning,
    which read the fields as given), so a product of a part of f with a part
    of g is 0 or at least 2^-969.  The gemm's left rows are g's turned by
    unit phases, which scale a part by |cos| or |sin| of the angle and keep
    such a product normal while those exceed 2^-53.  For unit-scale fields
    r is about 2^-484, and what is dropped is about 1e-146 of the output's
    scale.  An f row that is then all 0 costs no gemm.  When M_f M_g is
    itself below the floor (r > 1), every part is cut and the result is
    exact 0.

    Fields should carry negligible mass near the box edge (a warning is
    raised when the outer 10% frame holds > 1e-5 of either).  Non-finite
    samples or a non-finite lam are refused with ValueError.
    """
    grid = f.grid
    if not grid.compatible(g.grid):
        raise ValueError("planar grids differ")
    if not np.isfinite(lam):
        raise ValueError(f"lam must be finite, got {lam!r}")
    for name, fld in (("f", f), ("g", g)):
        if not np.isfinite(fld.values).all():
            raise ValueError(f"twisted_convolve: {name} holds non-finite values")
        frac = _outer_band_fraction(fld.values)
        if frac > 1e-5:
            warnings.warn(
                f"twisted_convolve: {name} carries {frac:.2e} of its mass in the "
                "outer 10% frame; the zero-outside-box truncation will bite",
                stacklevel=2,
            )
    n = grid.n
    a = grid.axis
    A = np.exp(2j * lam * np.outer(a, a))  # A[j, k] = e^{2 i lam a_j a_k}, symmetric
    B = np.conj(A)
    lo = (n - 1) // 2
    padded = np.zeros((n, 2 * n - 1), dtype=complex)
    padded[:, lo : lo + n] = f.values
    gv = g.values.copy()
    out = np.zeros((n, n), dtype=complex)
    fp, gp = padded.view(float), gv.view(float)
    mf, mg = np.abs(fp).max(), np.abs(gp).max()
    if mf == 0.0 or mg == 0.0:
        return PlanarField(grid, out)
    # the cuts r M_f = sqrt(2^-969 M_f / M_g) and r M_g, taken through log2
    # so that no product M_f M_g is formed to overflow or underflow
    lf, lg, l0 = math.log2(mf), math.log2(mg), math.log2(_FLOOR)
    np.copyto(fp, 0.0, where=np.abs(fp) < 2.0 ** ((l0 + lf - lg) / 2.0))
    np.copyto(gp, 0.0, where=np.abs(gp) < 2.0 ** ((l0 + lg - lf) / 2.0))
    windows = sliding_window_view(padded, n, axis=1)  # windows[p, m, j] = padded[p, m + j]
    for p in np.flatnonzero(padded.any(axis=1)):
        i0, i1 = max(0, p - lo), min(n, p + lo + 1)  # rows i with k = i - p + lo in the box
        k0, k1 = i0 - p + lo, i1 - p + lo
        T = np.ascontiguousarray(windows[p, ::-1])  # T[l, j] = f[p, j - l + lo]
        out[i0:i1] += np.matmul(gv[k0:k1] * B[i0:i1], T) * A[k0:k1]
    return PlanarField(grid, grid.h**2 * out)


def kernel_field(grid: PlanarGrid, ell: int, lam: float) -> PlanarField:
    """Samples of the band kernel K_ell(lam, Y) = e^{-|lam||Y|^2} L_ell(2|lam||Y|^2)."""
    y, eta = grid.mesh()
    u = 2.0 * abs(lam) * (y**2 + eta**2)
    return PlanarField(grid, _kernel_diag([ell], u[None], 1)[0])


def tn_apply(f: PlanarField, ell: int, lam: float) -> PlanarField:
    """Band projection up to scale: T_ell f = f *_lam K_ell."""
    return twisted_convolve(f, kernel_field(f.grid, ell, lam), lam)


def operator_norm(ell: int, lam: float, d: int = 1) -> float:
    """Exact L^2 -> L^2 norm of T_ell: (pi / (2 |lam|))^d.

    T_ell is self-adjoint (real, even kernel) and T_ell^2 = c T_ell with
    c = (pi/(2|lam|))^d by the self-reproducing identity, so T_ell / c is an
    orthogonal projection; the norm is attained on K_ell itself.
    """
    if not np.isfinite(lam) or lam == 0.0:
        raise ValueError(f"lam must be finite and nonzero, got {lam!r}")
    return float((np.pi / (2.0 * abs(lam))) ** d)
