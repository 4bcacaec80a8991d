"""Special-function kernels for radial analysis on the Heisenberg group H^d.

The group Fourier transform of a radial function is carried entirely by the
scaled Laguerre kernels

    K_ell(lam, Y) = exp(-|lam| |Y|^2) * L_ell^{(d-1)}(2 |lam| |Y|^2),

whose value at Y = 0 equals the multiplicity binom(ell+d-1, ell) of the
ell-th matrix diagonal.  `_recurrence` is the one place they are evaluated,
behind `kernel_rows` (a fresh array per band) and `wigner_radial_table` (a
table filled in place): it runs the Laguerre three-term recurrence on the
scaled functions e^{-u/2} L_ell(u) themselves, with the exponential folded
into the two starting rows (Gil, Segura and Temme, *Numerical Methods for
Special Functions*, 2007).  Those values are bounded by the multiplicity, so no
band count overflows, whereas the product of an unscaled L_ell(u) with an
underflowed e^{-u/2} gives inf * 0 = NaN.  The transform, the propagators,
restriction, extension and twisted convolution all draw their kernels from
it.

The starting row K_0 = e^{-u/2} is set to 0 where it falls below the
normal-range floor `_FLOOR` = tiny * 2^53 = 2^-969 (u > 1938 ln 2, about
1343.3), and the linear recurrence then gives exact 0 in every band there.
So no kernel table holds a subnormal float, and no gemm, FFT or sum over it
runs on one (an x86 product that touches a subnormal value is about 8x
slower).  What the cut drops is small while the bands are: past the
largest Laguerre zero, e^{-u/2} |L_ell(u)| falls with u, and at u = 1343 it
is about 1e-182 for ell = 64 and 5e-26 for ell = 256, against
K_ell(0) = multiplicity.  From ell ~ 300 on the kernel is no longer small
there, and the cut truncates it, as the underflow of e^{-u/2} at u ~ 1490
already did.  Where K_0 is 0, every K_ell is exactly 0, and the transform
leaves those outer radii out of its tables and contractions.  The unscaled
`laguerre_table` remains for quadrature rules whose weight already carries
the exponential.
"""

from __future__ import annotations

from math import comb

import numpy as np

# The normal-range floor of the Gaussian tails: tiny * 2^53 = 2^-969.  A
# value at or above it is a normal float, and so is every nonzero sum or
# difference of two such values (their exact result is a multiple of
# 2^-1021), and the real and imaginary parts of m e^{i x}, |m| >= 2^-969,
# stay normal while |cos x| and |sin x| exceed 2^-53.  `kernel_rows`,
# `wigner_radial_table` and `fields.GaussianClosure` set the factors they
# produce below it to exact 0.
_FLOOR = np.finfo(float).tiny * 2.0**53

__all__ = [
    "kernel_rows",
    "laguerre_table",
    "multiplicity",
    "wigner_radial",
    "wigner_radial_table",
    "normalized_kernel",
    "eigenvalue",
]


def kernel_rows(lmax, u, d=1):
    """Yield e^{-u/2} L_ell^{(d-1)}(u) for ell = 0..lmax, one array per band.

    The recurrence is the Laguerre one,

        (k+1) K_{k+1} = (2k+d-u) K_k - (k+d-1) K_{k-1},

    started from K_0 = e^{-u/2} and K_1 = (d-u) e^{-u/2}; it is linear, so
    the scaled functions obey it unchanged.  K_0 is 0 where e^{-u/2} is
    below `_FLOOR`, so every band is exactly 0 there.  Each yielded array is
    fresh (callers may keep it) and has the shape of `u`, which may stack
    any number of arguments, e.g. one row of per-band arguments per band.
    """
    u = np.asarray(u, dtype=float)
    k0 = _start(u, np.empty(u.shape))
    yield k0
    yield from _recurrence(lmax, u, d, k0, lambda k: np.empty(u.shape))


def _start(u, out):
    """K_0 = e^{-u/2} written into out, set to 0 where it is below `_FLOOR`
    (a NaN u stays NaN)."""
    np.exp(np.divide(u, -2, out=out), out=out)
    np.copyto(out, 0.0, where=out < _FLOOR)
    return out


def _recurrence(lmax, u, d, k0, row):
    """The one scaled-Laguerre recurrence: from K_0 = k0, write K_k into the
    array row(k) (of u's shape) and yield it, for k = 1..lmax.

    Each step is out= ufuncs in a fixed order, (c - u) * K_k, then
    K_{k-1} * (k + alpha) into one scratch array, subtract, / (k+1), so a
    row is bit-equal whether it lands in a fresh array or in a table.
    """
    if lmax < 1:
        return
    alpha = d - 1
    k1 = np.subtract(1.0 + alpha, u, out=row(1))
    k1 *= k0
    yield k1
    tmp = np.empty(u.shape)
    for k in range(1, lmax):
        nxt = np.subtract(2 * k + alpha + 1, u, out=row(k + 1))
        nxt *= k1
        nxt -= np.multiply(k0, k + alpha, out=tmp)
        nxt /= k + 1
        k0, k1 = k1, nxt
        yield nxt


def laguerre_table(lmax, alpha, x):
    """Unscaled L_ell^{(alpha)}(x) for ell = 0..lmax; shape (lmax+1,) + x.shape.

    Only for quadrature whose weight already holds e^{-x} (the Gauss-Laguerre
    closure transform): the unscaled values grow like x^ell / ell!.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty((lmax + 1,) + x.shape)
    out[0] = 1.0
    if lmax >= 1:
        out[1] = 1.0 + alpha - x
    for k in range(1, lmax):
        out[k + 1] = ((2 * k + alpha + 1 - x) * out[k] - (k + alpha) * out[k - 1]) / (k + 1)
    return out


def multiplicity(ell: int, d: int) -> int:
    """Exact spectral multiplicity binom(ell+d-1, ell) as a Python int."""
    if ell < 0 or d < 1:
        raise ValueError("need ell >= 0 and d >= 1")
    return comb(ell + d - 1, ell)


def _mult_table(L_max: int, d: int):
    """multiplicity(ell, d) for ell = 0..L_max, each exact before it becomes a float."""
    return np.array([multiplicity(l, d) for l in range(L_max + 1)], dtype=float)


def wigner_radial(ell, lam, rho, d=1):
    """Radial spectral kernel exp(-|lam| rho^2) L_ell^{(d-1)}(2 |lam| rho^2).

    Its value at rho=0 is multiplicity(ell, d); it is even in lam and bounded
    by the multiplicity in absolute value.  `lam` and `rho` broadcast.
    """
    u = 2.0 * np.abs(lam) * np.asarray(rho, dtype=float) ** 2
    for K in kernel_rows(ell, u, d):
        pass
    return K[()]  # a scalar for scalar arguments, as from a ufunc


def wigner_radial_table(lmax, lam, rho, d=1):
    """Radial kernels for all degrees 0..lmax; shape (lmax+1,) + the broadcast
    shape of lam and rho (the transform passes a column of |lam| rows).

    The table is filled in place, band by band, by the `kernel_rows`
    recurrence (with its floor on K_0), with no per-band temporaries.
    """
    u = 2.0 * np.abs(lam) * np.asarray(rho, dtype=float) ** 2
    out = np.empty((lmax + 1,) + u.shape)
    k0 = _start(u, out[0, ...])
    for _ in _recurrence(lmax, u, d, k0, lambda k: out[k, ...]):
        pass
    return out


def normalized_kernel(ell, rho, d=1):
    """Unit-scale kernel [mult^{-1} (2ell+d)^{-(d+1)}]^{1/2} K_ell(1/(2ell+d), rho).

    This is the kernel evaluated at its own sphere frequency 1/(2ell+d) and
    weighted by the square root of the surface-measure weight, which makes the
    squared L^2(Y) masses decay like 1/ell (see the orthogonality suite).
    """
    lam = 1.0 / (2 * ell + d)
    w = 1.0 / (multiplicity(ell, d) * float(2 * ell + d) ** (d + 1))
    return np.sqrt(w) * wigner_radial(ell, lam, rho, d)


def eigenvalue(ell, lam, d=1):
    """Sub-Laplacian spectral value 4|lam|(2ell+d) on the (ell, lam) ray."""
    return 4.0 * np.abs(lam) * (2 * np.asarray(ell) + d)
