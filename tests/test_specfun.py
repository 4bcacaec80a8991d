"""Special-function layer: recurrences against scipy, explicit sums, and the
oscillatory brute-force route for the matrix-entry kernels (an independent
Hermite-function oracle, kept here with the tests that use it)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre

from hharm.specfun import (
    eigenvalue,
    kernel_rows,
    laguerre_table,
    multiplicity,
    normalized_kernel,
    wigner_radial,
    wigner_radial_table,
)

X = np.linspace(0.0, 30.0, 121)


# ---------------------------------------------------------------------------
# Hermite route: independent of the Laguerre kernels, used as the oracle
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


@pytest.mark.parametrize("ell", [0, 1, 2, 3, 7, 16, 40])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
def test_laguerre_matches_scipy(ell, alpha):
    ours = laguerre_table(ell, alpha, X)[ell]
    ref = eval_genlaguerre(ell, alpha, X)
    scale = np.maximum(np.abs(ref), 1.0)
    assert np.max(np.abs(ours - ref) / scale) < 1e-12


def test_laguerre_explicit_small_degrees():
    # independent route: the explicit polynomials, no recurrence involved
    x = np.linspace(0.0, 9.0, 37)
    assert np.allclose(laguerre_table(1, 0.0, x)[1], 1.0 - x, atol=1e-14)
    assert np.allclose(laguerre_table(2, 0.0, x)[2], 1.0 - 2.0 * x + 0.5 * x**2, atol=1e-13)
    assert np.allclose(
        laguerre_table(2, 1.0, x)[2], 3.0 - 3.0 * x + 0.5 * x**2, atol=1e-13
    )


def test_laguerre_table_consistency():
    # a shorter table is the prefix of a longer one: row ell does not depend
    # on how many rows follow it
    tab = laguerre_table(12, 1.0, X)
    for ell in (0, 3, 12):
        assert np.array_equal(tab[ell], laguerre_table(ell, 1.0, X)[ell])


@pytest.mark.parametrize(
    "d,expected",
    [
        (1, [1, 1, 1, 1, 1]),
        (2, [1, 2, 3, 4, 5]),
        (3, [1, 3, 6, 10, 15]),
    ],
)
def test_multiplicity_values(d, expected):
    assert [multiplicity(ell, d) for ell in range(5)] == expected


def test_multiplicity_rejects_bad_arguments():
    with pytest.raises(ValueError):
        multiplicity(-1, 1)
    with pytest.raises(ValueError):
        multiplicity(0, 0)


def test_wigner_radial_origin_and_bound():
    rho = np.linspace(0.0, 8.0, 200)
    for d in (1, 2):
        for ell in (0, 1, 5):
            k = wigner_radial(ell, 0.9, rho, d)
            assert k[0] == multiplicity(ell, d)
            assert np.max(np.abs(k)) <= multiplicity(ell, d) + 1e-12


def test_wigner_radial_even_in_lam():
    rho = np.linspace(0.0, 5.0, 50)
    assert np.array_equal(
        wigner_radial(3, 1.7, rho), wigner_radial(3, -1.7, rho)
    )


def test_wigner_radial_of_scalars_is_a_scalar():
    v = wigner_radial(3, 1.3, 0.7, d=2)
    assert isinstance(v, np.float64) and v == wigner_radial_table(3, 1.3, 0.7, d=2)[3]


def test_wigner_radial_table_consistency():
    rho = np.linspace(0.0, 5.0, 50)
    tab = wigner_radial_table(6, 1.3, rho, d=2)
    for ell in (0, 2, 6):
        assert np.array_equal(tab[ell], wigner_radial(ell, 1.3, rho, d=2))


@pytest.mark.parametrize("lmax", [0, 1, 2, 64])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("lam", [10.0, np.array([[6.0], [8.0], [10.0]])])
def test_table_fill_equals_stacked_kernel_rows(lam, d, lmax):
    """The in-place fill runs the kernel_rows recurrence bit for bit, on u
    from 0 to ~2900, past e^{-u/2}'s underflow at ~1490."""
    rho = np.linspace(0.0, 12.0, 97)
    tab = wigner_radial_table(lmax, lam, rho, d)
    u = 2.0 * lam * rho**2
    assert np.array_equal(tab, np.stack(list(kernel_rows(lmax, u, d))))


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
@pytest.mark.parametrize("lam", [0.7, -1.3])
def test_wigner_diagonal_matches_bruteforce(ell, lam):
    """Diagonal matrix entries computed by direct oscillatory quadrature over
    scaled Hermite products must reproduce the radial Laguerre kernel."""
    Y = (0.8, 0.4)
    val = wigner_bruteforce(ell, ell, lam, Y)
    ref = wigner_radial(ell, lam, np.hypot(*Y))
    assert abs(val.imag) < 1e-9
    assert abs(val.real - ref) < 1e-8


def test_wigner_bruteforce_flags_bad_quadrature():
    with pytest.raises(RuntimeError):
        wigner_bruteforce(3, 3, 0.5, (0.5, 2.0), n_quad=6)
    with pytest.raises(ValueError):
        wigner_bruteforce(0, 0, 0.0, (0.5, 0.5))


def test_eigenvalue_values():
    assert eigenvalue(0, 1.0, 1) == 4.0
    assert eigenvalue(1, 0.5, 1) == 6.0
    assert eigenvalue(2, 1.0, 3) == 28.0
    assert eigenvalue(0, -1.0, 1) == 4.0  # even in lam


def test_hermite_functions_orthonormal():
    # Gauss-Legendre on [-12, 12] resolves h_m for m <= 6 to near roundoff
    x, w = np.polynomial.legendre.leggauss(400)
    x, w = 12.0 * x, 12.0 * w
    H = np.array([hermite_function(m, x) for m in range(7)])
    G = (H * w) @ H.T
    assert np.max(np.abs(G - np.eye(7))) < 1e-12


def test_normalized_kernel_origin():
    # at rho = 0 the weight collapses to sqrt(mult) / (2 ell + d)^{(d+1)/2}
    for ell in (0, 1, 3, 10):
        v = normalized_kernel(ell, np.array([0.0]), d=1)[0]
        assert abs(v - 1.0 / (2 * ell + 1)) < 1e-14


# arguments from the oscillatory region up to far past underflow of e^{-u/2}
ARGS = st.lists(
    st.floats(0.0, 4000.0) | st.floats(0.0, 1e300), min_size=1, max_size=16
)


@settings(max_examples=200, deadline=None)
@given(u=ARGS, lmax=st.integers(0, 256), d=st.integers(1, 3))
def test_kernel_rows_finite_and_bounded_by_multiplicity(u, lmax, d):
    rows = list(kernel_rows(lmax, np.array(u), d))
    assert len(rows) == lmax + 1
    for ell, K in enumerate(rows):
        assert np.all(np.isfinite(K))
        assert np.all(np.abs(K) <= multiplicity(ell, d) * (1.0 + 1e-12))


@settings(max_examples=100, deadline=None)
@given(u=st.lists(st.floats(0.0, 2000.0), min_size=1, max_size=16),
       lmax=st.integers(0, 256), d=st.integers(1, 3))
def test_kernel_rows_match_scipy(u, lmax, d):
    u = np.array(u)
    for ell, K in enumerate(kernel_rows(lmax, u, d)):
        with np.errstate(all="ignore"):
            ref = eval_genlaguerre(ell, d - 1, u) * np.exp(-u / 2)
        ok = np.isfinite(ref)
        assert np.all(np.abs(K[ok] - ref[ok]) <= 1e-10 * multiplicity(ell, d))
