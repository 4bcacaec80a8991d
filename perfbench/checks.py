"""Correctness checks on the outputs of each workload, in plain numpy.

Every check compares against a closed form, against the input it was given,
or against an identity the method must satisfy.  None compares against a
stored copy of an earlier output.  A check raises `CheckFailed` with the
measured error; `not err <= tol` also rejects NaN.
"""

from __future__ import annotations

import json
from math import comb

import numpy as np

# Tolerances, against the errors measured today (README.md): the closed form
# and the shifts hold to ~1e-13; re-analysing a synthesized field loses up
# to ~4e-7 in the top band ell = L_max, where the radial rule resolves the
# kernels least.  A perturbed coefficient or a one-cell shift moves the
# errors by many orders of magnitude.
TOL_CLOSED_FORM = 1e-9
TOL_REANALYSIS = 1e-5
TOL_NORM = 1e-10
TOL_ROLL = 1e-9
TOL_ADJOINT = 1e-9


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(name, err, tol):
    if not err <= tol:
        raise CheckFailed(f"{name}: error {err:.3e} exceeds {tol:g}")
    return err


def rel_err(got, want):
    """max |got - want| / max |want| over the arrays."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        raise CheckFailed(f"shape {got.shape} != expected {want.shape}")
    return float(np.abs(got - want).max() / np.abs(want).max())


def check_finite(name, values):
    if not np.all(np.isfinite(values)):
        raise CheckFailed(f"{name}: {int(np.sum(~np.isfinite(values)))} non-finite values")


def trapezoid_weights(t):
    w = np.zeros_like(t)
    w[:-1] += np.diff(t) / 2
    w[1:] += np.diff(t) / 2
    return w


# ---------------------------------------------------------------------------
# field-pipeline
# ---------------------------------------------------------------------------

def check_spectrum(name, theta, theta_ref, izero, tol):
    """Spectral output against reference coefficients, off the lam = 0 column."""
    keep = np.ones(theta_ref.shape[-1], dtype=bool)
    keep[izero] = False
    check_finite(name, theta)
    return require(name, rel_err(theta[..., keep], theta_ref[..., keep]), tol)


def l2_norms(values, w_radial, h_s):
    """L2 norm of each time slice: sqrt(sum w_radial |u|^2 h_s)."""
    dens = np.abs(values) ** 2 * w_radial[:, None] * h_s
    return np.sqrt(dens.sum(axis=(-2, -1)))


def check_norms(name, values, w_radial, h_s):
    """Schrodinger flow keeps the L2 norm of the datum at every time."""
    check_finite(name, values)
    norms = l2_norms(values, w_radial, h_s)
    return require(name, float(np.abs(norms / norms[0] - 1.0).max()), TOL_NORM)


def check_rolled(name, values, datum, cells_per_step):
    """Slice i equals the datum moved by i * cells_per_step s-cells (toward -s)."""
    want = np.stack([np.roll(datum, -i * cells_per_step, axis=1)
                     for i in range(values.shape[0])])
    return require(name, rel_err(values, want), TOL_ROLL)


def wave_multiplier(times, lam, L_max, d):
    """cos(t sqrt(4 |lam| (2 ell + d))) on (time, ell, lam)."""
    ell = np.arange(L_max + 1)[:, None]
    omega = np.sqrt(4.0 * np.abs(lam)[None, :] * (2 * ell + d))
    return np.cos(np.asarray(times)[:, None, None] * omega[None])


def check_wave(name, theta_mix, theta0, times, weights, lam, izero, d):
    """Wave output re-analysed = cos(t omega) times the input coefficients.

    One analysis tests every time slice: `theta_mix` analyses
    sum_i weights[i] u(t_i), which by linearity must equal
    sum_i weights[i] cos(t_i omega) theta0.  With distinct positive weights a
    corrupted slice cannot cancel out.
    """
    mult = wave_multiplier(times, lam, theta0.shape[0] - 1, d)
    want = np.tensordot(weights, mult, axes=1) * theta0
    return check_spectrum(name, theta_mix, want, izero, TOL_REANALYSIS)


# ---------------------------------------------------------------------------
# restriction-sweep
# ---------------------------------------------------------------------------

def physical_pairing(u, v, w_radial, h_s):
    """sum over (rho, s) of w_radial h_s u conj(v), over trailing axes."""
    return np.sum(w_radial[:, None] * h_s * u * np.conj(v), axis=(-2, -1))


def inversion_constant(d):
    return 2.0 ** (d - 1) / np.pi ** (d + 1)


def multiplicities(n_bands, d):
    """binom(ell + d - 1, ell) for ell < n_bands."""
    return np.array([comb(ell + d - 1, ell) for ell in range(n_bands)], dtype=float)


def check_sigma_adjoint(name, u, ext, times, w_radial, h_s, rest, vals, window, d):
    """<u, E v>_{L2(dt dY ds)} = c <R u, v>_{dSigma} with c = 2^{d-1}/pi^{d+1}.

    `rest` and `vals` are the restriction of u and the values extended into
    `ext`, each carrying alpha, alpha_weights, theta_plus and theta_minus.
    """
    lhs = np.sum(trapezoid_weights(times) * physical_pairing(u, ext, w_radial, h_s))
    ell = np.arange(rest.theta_plus.shape[1])
    c_ell = 1.0 / (4.0 * (2.0 * ell + d))
    wl = multiplicities(ell.size, d) * c_ell ** (d + 1)
    wq = rest.alpha_weights * rest.alpha**d * window(rest.alpha)
    rhs = inversion_constant(d) * np.sum(
        wq[:, None] * wl[None, :]
        * (rest.theta_plus * np.conj(vals.theta_plus)
           + rest.theta_minus * np.conj(vals.theta_minus))
    )
    return require(name, float(abs(lhs - rhs) / abs(rhs)), TOL_ADJOINT)


def check_sphere_adjoint(name, f, ext, w_radial, h_s, rest, radius, d):
    """<f, E R f>_{L2(H)} = c ||R f||^2_{dsigma} with c = 2^{d-1}/pi^{d+1}."""
    lhs = physical_pairing(f, ext, w_radial, h_s)
    ell = np.arange(rest.theta_plus.size)
    w = multiplicities(ell.size, d) * radius**d / (2.0 * ell + d) ** (d + 1)
    rhs = inversion_constant(d) * np.sum(
        w * (np.abs(rest.theta_plus) ** 2 + np.abs(rest.theta_minus) ** 2)
    )
    return require(name, float(abs(lhs - rhs) / abs(rhs)), TOL_ADJOINT)


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

def check_report(name, text, first_text=None):
    """Every check in the report passed, and the bytes repeat within the run."""
    doc = json.loads(text)
    failed = [r["name"] for r in doc["results"] if r["passed"] is not True]
    if failed or doc["passed"] is not True:
        raise CheckFailed(f"{name}: checks failed: {failed}")
    if first_text is not None and text != first_text:
        raise CheckFailed(f"{name}: report bytes differ from the first pass of the run")
    return len(doc["results"])
