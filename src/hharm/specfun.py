"""Special-function kernels for radial analysis on the Heisenberg group H^d.

The group Fourier transform of a radial function is carried entirely by the
scaled Laguerre kernels

    K_ell(lam, Y) = exp(-|lam| |Y|^2) * L_ell^{(d-1)}(2 |lam| |Y|^2),

whose value at Y = 0 equals the multiplicity binom(ell+d-1, ell) of the
ell-th matrix diagonal.  This module is the one place they are evaluated:
`_recurrence` runs the Laguerre three-term recurrence on the scaled functions
e^{-u/2} L_ell(u) themselves, with the exponential folded into the starting
row (Gil, Segura and Temme, *Numerical Methods for Special Functions*, 2007,
chapter 4).  Those values are bounded by the multiplicity, so no band count
overflows, whereas an unscaled L_ell(u) times an underflowed e^{-u/2} gives
inf * 0 = NaN.  It has two writers: `wigner_radial_table`, every band at
shared arguments, filled in place, and `_kernel_diag`, band ells[i] at its
own arguments u[i], on three rolling rows.  `_kernel_series` sums the
explicit series instead, for many large bands at small arguments.

The starting row K_0 = e^{-u/2} is set to 0 where it falls below the
normal-range floor `_FLOOR` = tiny * 2^53 = 2^-969 (u > `_U_CUT` = 1938 ln 2,
about 1343.3), and the linear recurrence then gives exact 0 in every band
there.  So no kernel table holds a subnormal float, and no gemm, FFT or sum
over it runs on one (an x86 product that touches a subnormal value is about
8x slower).  Past the turning point 4 ell + 2d, e^{-u/2} |L_ell(u)| falls
with u; at u = 1343 it is about 1e-182 of the multiplicity for ell = 64,
1.7e-14 for ell = 284 and 4.5e-13 for ell = 288 (d = 1).  So both writers
refuse, with `ValueError`, a band whose turning point is past `_TURN_MAX` =
1140 at an argument past `_U_CUT` (`hharm` exit 4).  Where K_0 is 0, every
K_ell is exactly 0, and the transform leaves those outer radii out of its
tables and contractions.  Started from K_0 = 1 instead, the recurrence gives
the unscaled L_ell^{(d-1)}, which the transform's Gauss-Laguerre closure
rule uses, as its weight already carries the exponential.  The tables of
the transform, restriction and extension come through `_kept`, which keeps
them for a caller's `kept_kernels()` scope.
"""

from __future__ import annotations

from contextlib import contextmanager
from math import comb

import numpy as np
from scipy.special import gammaln

# The normal-range floor of the Gaussian tails: tiny * 2^53 = 2^-969.  A
# value at or above it is a normal float, and so is every nonzero sum or
# difference of two such values (their exact result is a multiple of
# 2^-1021), and the real and imaginary parts of m e^{i x}, |m| >= 2^-969,
# stay normal while |cos x| and |sin x| exceed 2^-53.  `_start` (so every
# kernel) and `fields.GaussianClosure` set the factors they produce below it
# to exact 0.
_FLOOR = np.finfo(float).tiny * 2.0**53

__all__ = [
    "multiplicity",
    "wigner_radial",
    "wigner_radial_table",
    "normalized_kernel",
    "eigenvalue",
    "kept_kernels",
]

# The open kept_kernels() scope's tables by key; None outside every scope.
_scope = None


@contextmanager
def kept_kernels():
    """Keep each kernel table built in the scope, read-only and bit-equal to
    one built afresh, until the outermost scope exits."""
    global _scope
    if _scope is not None:  # nested: the outermost scope owns the tables
        yield
        return
    _scope = {}
    try:
        yield
    finally:
        _scope = None


def _kept(key, build):
    """build(), or in a kept_kernels() scope the read-only table kept under
    key(), which must name everything the table is built from."""
    if _scope is None:
        return build()
    k = key()
    if k not in _scope:
        _scope[k] = build()
        _scope[k].flags.writeable = False
    return _scope[k]


# The floor keeps e^{-u/2} for u <= _U_CUT; a band with 4 ell + 2d <= _TURN_MAX
# loses at most 2e-14 of its multiplicity past it (mpmath; a test checks it).
_U_CUT = 1938.0 * np.log(2.0)
_TURN_MAX = 1140


def _check_cut(L_max, d, u):
    """Refuse band L_max at the arguments u when the floor cuts it: its
    turning point 4 L_max + 2d is past `_TURN_MAX` and an argument is past
    `_U_CUT` (a NaN argument is not)."""
    if 4 * L_max + 2 * d > _TURN_MAX:
        u = np.asarray(u)
        past = u[u > _U_CUT]
        if past.size:
            raise ValueError(f"L_max={L_max} at d={d} reaches u = 2|lam| rho^2 = "
                             f"{past.max():.6g}, past {_U_CUT:.2f}, where the kernel floor "
                             f"cuts bands above ell = {(_TURN_MAX - 2 * d) // 4}")


def _start(u, out):
    """K_0 = e^{-u/2} written into out, set to 0 where it is below `_FLOOR`
    (a NaN u stays NaN)."""
    np.exp(np.divide(u, -2, out=out), out=out)
    np.copyto(out, 0.0, where=out < _FLOOR)
    return out


def _recurrence(lmax, u, d, k0, row):
    """The one scaled-Laguerre recurrence, (k+1) K_{k+1} = (2k+d-u) K_k -
    (k+d-1) K_{k-1} with K_1 = (d-u) K_0: from K_0 = k0, write K_k into the
    array row(k) (of u's shape) and yield it, for k = 1..lmax.

    Each step is out= ufuncs in a fixed order, (c - u) * K_k, then
    K_{k-1} * (k + alpha) into one scratch array, subtract, / (k+1), so a
    row is bit-equal in whichever array it lands.
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


def _kernel_diag(ells, u, d):
    """K_{ells[i]}(u[i]) for consecutive bands ells, each at its own
    arguments u[i]: one recurrence over u on three rolling rows, row i
    copied out at the step that reaches band ells[i].  The rows whose band
    the floor can cut are checked first."""
    lo = int(ells[0])
    _check_cut(int(ells[-1]), d, u[max(0, (_TURN_MAX - 2 * d) // 4 + 1 - lo):])
    out = np.empty_like(u)
    rows = np.empty((3,) + u.shape)
    k0 = _start(u, rows[0])
    if lo == 0:
        out[0] = k0[0]
    for ell, K in enumerate(_recurrence(int(ells[-1]), u, d, k0, lambda k: rows[k % 3]), 1):
        if ell >= lo:
            out[ell - lo] = K[ell - lo]
    return out


def wigner_radial_table(lmax, lam, rho, d=1):
    """Radial kernels for all degrees 0..lmax; shape (lmax+1,) + the broadcast
    shape of lam and rho (the transform passes a column of |lam| rows).

    The table is filled in place, band by band, by the one recurrence (with
    its floor on K_0), with no per-band temporaries.
    """
    u = 2.0 * np.abs(lam) * np.asarray(rho, dtype=float) ** 2
    _check_cut(lmax, d, u)
    out = np.empty((lmax + 1,) + u.shape)
    k0 = _start(u, out[0, ...])
    for _ in _recurrence(lmax, u, d, k0, lambda k: out[k, ...]):
        pass
    return out


def wigner_radial(ell, lam, rho, d=1):
    """Radial spectral kernel exp(-|lam| rho^2) L_ell^{(d-1)}(2 |lam| rho^2).

    Its value at rho=0 is multiplicity(ell, d); it is even in lam and bounded
    by the multiplicity in absolute value.  `lam` and `rho` broadcast.
    """
    u = 2.0 * np.abs(lam) * np.asarray(rho, dtype=float) ** 2
    return _kernel_diag([ell], u[None], d)[0][()]  # a scalar for scalar arguments


def multiplicity(ell: int, d: int) -> int:
    """Exact spectral multiplicity binom(ell+d-1, ell) as a Python int."""
    if ell < 0 or d < 1:
        raise ValueError("need ell >= 0 and d >= 1")
    return comb(ell + d - 1, ell)


def _mult_table(L_max: int, d: int):
    """multiplicity(ell, d) for ell = 0..L_max, each exact before it becomes a float."""
    return np.array([multiplicity(l, d) for l in range(L_max + 1)], dtype=float)


def _mult_real(x, d):
    """Multiplicity binom(x+d-1, x) continued to real band index x."""
    x = np.asarray(x, dtype=float)
    return np.exp(gammaln(x + d) - gammaln(x + 1) - gammaln(d))


def _kernel_series(ells, u, d):
    """Explicit 48-term sum for e^{-u/2} L_ell^{(d-1)}(u) at u = u[i], fast
    for many large bands.

    term_0 = mult(ell) e^{-u/2}; term_{k+1} = term_k * (-u)(ell-k)/((k+1)(d+k)).
    The effective argument is x = ell*u; cancellation costs a factor
    ~e^{2 sqrt(x)} in precision, so callers must keep x moderate (<= ~64).
    Returns (values, magnitude of the last increment).
    """
    ells = np.asarray(ells, dtype=float)[:, None]
    term = _mult_real(ells, d) * np.exp(-u / 2.0)
    acc = term.copy()
    for k in range(48):
        term = term * (-u) * (ells - k) / ((k + 1.0) * (d + k))
        acc += term
    return acc, float(np.abs(term).max())


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
