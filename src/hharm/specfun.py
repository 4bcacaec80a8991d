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
already carries the exponential, and the Hermite route below is an
independent oracle for the tests.
"""

from __future__ import annotations

from math import comb

import numpy as np

__all__ = [
    "kernel_rows",
    "laguerre",
    "laguerre_table",
    "multiplicity",
    "wigner_radial",
    "wigner_radial_table",
    "normalized_kernel",
    "eigenvalue",
    "hermite_function",
    "wigner_bruteforce",
    "frequency_distance",
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


def laguerre(ell, alpha, x):
    """Generalized Laguerre polynomial L_ell^{(alpha)}(x): row ell of laguerre_table."""
    if ell < 0:
        raise ValueError("degree must be nonnegative")
    return laguerre_table(ell, alpha, x)[ell]


def multiplicity(ell: int, d: int) -> int:
    """Exact spectral multiplicity binom(ell+d-1, ell) as a Python int."""
    if ell < 0 or d < 1:
        raise ValueError("need ell >= 0 and d >= 1")
    return comb(ell + d - 1, ell)


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


# ---------------------------------------------------------------------------
# Hermite route (independent of the Laguerre kernels; used for cross-checks)
# ---------------------------------------------------------------------------

def hermite_function(m, x):
    """Orthonormal Hermite function h_m on the line.

    h_0(x) = pi^{-1/4} exp(-x^2/2) and
    h_m = x sqrt(2/m) h_{m-1} - sqrt((m-1)/m) h_{m-2}.
    Orthonormal in L^2(R); satisfies -h'' + x^2 h = (2m+1) h.
    """
    x = np.asarray(x, dtype=float)
    h0 = np.pi ** -0.25 * np.exp(-x * x / 2)
    if m == 0:
        return h0
    h1 = np.sqrt(2.0) * x * h0
    for k in range(2, m + 1):
        h0, h1 = h1, x * np.sqrt(2.0 / k) * h1 - np.sqrt((k - 1) / k) * h0
    return h1


def _gauss_legendre(n):
    # scipy's roots are used elsewhere; numpy's are identical for Legendre
    return np.polynomial.legendre.leggauss(n)


def wigner_bruteforce(n, m, lam, Y, n_quad=400, tol=1e-8):
    """Matrix-entry kernel at d=1 by direct oscillatory quadrature.

    Computes  W(n, m, lam, Y) = int e^{2 i lam eta z} H_n,lam(y+z) H_m,lam(-y+z) dz
    for Y = (y, eta), where H_k,lam(x) = |lam|^{1/4} h_k(|lam|^{1/2} x) is the
    lam-scaled orthonormal Hermite function.  The result is complex in
    general; diagonal entries (n == m) are real and radial, equal to
    wigner_radial(n, lam, |Y|).

    The integral is done with Gauss-Legendre on [-z_max, z_max],
    z_max = 10/sqrt(|lam|) + |y|, and the error is estimated by doubling the
    node count; raises if the estimate exceeds `tol`.
    """
    if lam == 0:
        raise ValueError("lam must be nonzero")
    y, eta = float(Y[0]), float(Y[1])
    al = abs(float(lam))
    zmax = 10.0 / np.sqrt(al) + abs(y)

    def quad(nq):
        xq, wq = _gauss_legendre(nq)
        z = zmax * xq
        w = zmax * wq
        Hn = al ** 0.25 * hermite_function(n, np.sqrt(al) * (y + z))
        Hm = al ** 0.25 * hermite_function(m, np.sqrt(al) * (-y + z))
        return np.sum(w * np.exp(2j * lam * eta * z) * Hn * Hm)

    v1 = quad(n_quad)
    v2 = quad(2 * n_quad)
    if abs(v2 - v1) > tol * max(1.0, abs(v2)):
        raise RuntimeError(
            f"oscillatory quadrature not converged: |delta|={abs(v2 - v1):.3e}"
        )
    return v2


# ---------------------------------------------------------------------------
# Frequency-domain distance
# ---------------------------------------------------------------------------

def frequency_distance(p, q, d=None):
    """l^1-type distance between frequency points (n, m, lam).

    Each point is (n, m, lam) with n, m tuples of equal length d (the half
    dimension).  Distance:

        sum_j |lam(n_j+m_j) - lam'(n_j'+m_j')|
      + sum_j |(n_j-m_j) - (n_j'-m_j')|
      + d |lam - lam'|

    Symmetric, satisfies the triangle inequality, and vanishes iff the points
    coincide (the last term separates lam, then the first two separate n+m
    and n-m, hence n and m).
    """
    n1, m1, l1 = p
    n2, m2, l2 = q
    n1 = np.asarray(n1, dtype=float)
    m1 = np.asarray(m1, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    m2 = np.asarray(m2, dtype=float)
    if not (n1.shape == m1.shape == n2.shape == m2.shape):
        raise ValueError("index tuples must share a common length")
    dd = d if d is not None else n1.size
    t1 = np.sum(np.abs(l1 * (n1 + m1) - l2 * (n2 + m2)))
    t2 = np.sum(np.abs((n1 - m1) - (n2 - m2)))
    t3 = dd * abs(l1 - l2)
    return float(t1 + t2 + t3)
