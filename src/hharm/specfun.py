"""Special-function kernels for radial analysis on the Heisenberg group H^d.

The group Fourier transform of a radial function is carried entirely by the
scaled Laguerre kernels

    K_ell(lam, Y) = exp(-|lam| |Y|^2) * L_ell^{(d-1)}(2 |lam| |Y|^2),

whose value at Y = 0 equals the multiplicity binom(ell+d-1, ell) of the
ell-th matrix diagonal.  `kernel_rows` is the one place they are evaluated:
it runs the Laguerre three-term recurrence on the scaled functions
e^{-u/2} L_ell(u) themselves, with the exponential folded into the two
starting rows (Gil, Segura and Temme, *Numerical Methods for Special
Functions*, 2007).  Those values are bounded by the multiplicity, so no
band count overflows, whereas the product of an unscaled L_ell(u) with an
underflowed e^{-u/2} gives inf * 0 = NaN.  The transform, the propagators,
restriction, extension and twisted convolution all draw their kernels from
it.  The unscaled `laguerre_table` remains for quadrature rules whose weight
already carries the exponential.
"""

from __future__ import annotations

from math import comb

import numpy as np

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
    the scaled functions obey it unchanged.  Each yielded array is fresh
    (callers may keep it) and has the shape of `u`, which may stack any
    number of arguments, e.g. one row of per-band arguments per band.
    """
    u = np.asarray(u, dtype=float)
    alpha = d - 1
    k0 = np.exp(-u / 2)
    yield k0
    if lmax < 1:
        return
    k1 = (1.0 + alpha - u) * k0
    yield k1
    for k in range(1, lmax):
        k0, k1 = k1, ((2 * k + alpha + 1 - u) * k1 - (k + alpha) * k0) / (k + 1)
        yield k1


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
    return K


def wigner_radial_table(lmax, lam, rho, d=1):
    """Radial kernels for all degrees 0..lmax; shape (lmax+1,) + the broadcast
    shape of lam and rho (the transform passes a column of |lam| rows)."""
    u = 2.0 * np.abs(lam) * np.asarray(rho, dtype=float) ** 2
    return np.stack(list(kernel_rows(lmax, u, d)))


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
