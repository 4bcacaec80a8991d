"""Radial spectral transform on H^d and its inverse, norms, and localizers.

Conventions (fixed across the package)
--------------------------------------
For a radial field f(|Y|, s) the spectral coefficients are indexed by the
Laguerre band ell >= 0 and the central frequency lam != 0:

    theta(ell, lam) = multiplicity^{-1} *
        int exp(-i s lam) K_ell(lam, Y) f(Y, s) dY ds,

with K_ell(lam, Y) = exp(-|lam| |Y|^2) L_ell^{(d-1)}(2 |lam| |Y|^2) (whose
value at 0 is the multiplicity binom(ell+d-1, ell)).  Inversion:

    f(Y, s) = (2^{d-1} / pi^{d+1}) * sum_ell int exp(i s lam)
              K_ell(lam, Y) theta(ell, lam) |lam|^d dlam,

with no extra multiplicity factor (it lives inside K_ell).  The Plancherel
identity in these conventions reads

    sum_ell mult_ell int |theta|^2 |lam|^d dlam
        = (pi^{d+1} / 2^{d-1}) * int |f|^2 dY ds.

The lam = 0 column is excluded from the model space: forward output is
exactly 0 there and no synthesis or norm touches it.  On the product group
R_t x H^d the transform composes a uniform-grid t-DFT (frequencies alpha)
with the radial transform; the Plancherel constant picks up 2 pi.

The spectral measure mult_ell dlam |lam|^d has one home,
`SpectralField.weights()` (0 on the lam = 0 column); every pairing, norm
and energy reads it.  `SpectralField.eig()` is the one table of
eigenvalue(ell, lam), with the massless lam = 0 column set to 1 so that
negative powers and divisions stay finite there.

Computation
-----------
After the s-FFT, both directions are, at each frequency lam, one real
matrix product with the (L+1, n_rho) kernel table K(lam): one BLAS gemm
per block of |lam| rows and sign of lam (`_lam_contract`).  The table is
evaluated on the even half lam > 0 only, 32 |lam| rows at a time (about
4 MB at 65 bands x 256 radii), filled in place and only on the radii where
it is not 0.  The kernel is exactly 0 where e^{-|lam| rho^2} is below the
floor 2^-969 (`specfun._FLOOR`, u = 2 |lam| rho^2 > 1343), so its tables
hold no subnormal float, and neither do the samples of a `GaussianClosure`:
no gemm or FFT here runs on one unless the caller's data brings it.  The
table is rebuilt on every call and never stored: the default grid's tables
would raise the resident memory by more than the benchmark's 10 % peak-RSS
bound.  Batch axes (times, alpha, stacked
samples) and the real and imaginary parts are the gemm columns.  The
inverse's s-synthesis then writes one C-ordered buffer, which the returned
field keeps as its values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import roots_genlaguerre

from .fields import (
    GaussianClosure,
    Grid,
    MixedNormSpec,
    RadialField,
    SpaceTimeField,
    mixed_norm,
    s_analysis,
    s_synthesis,
    sphere_area,
)
from .specfun import _mult_table, eigenvalue, laguerre_table, wigner_radial_table
from .windows import ball_profile, ring_profile

__all__ = [
    "SpectralField",
    "SpectralFieldD",
    "forward",
    "inverse",
    "spectral_inner",
    "plancherel_constant",
    "sobolev_norm",
    "sobolev_multiplier",
    "LocalizerSpec",
    "localize",
    "bernstein_check",
    "transform_D",
    "spectral_inner_D",
]


def plancherel_constant(d: int) -> float:
    """Ratio (spectral energy) / (physical energy): pi^{d+1} / 2^{d-1}."""
    return np.pi ** (d + 1) / 2.0 ** (d - 1)


@dataclass
class SpectralField:
    """Spectral coefficients theta(ell, lam_k) on a grid's frequency lattice.

    values has shape (L_max+1, n_s); the lam = 0 column is identically zero.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if (self.values.ndim != 2 or self.values.shape[0] < 1
                or self.values.shape[1] != self.grid.n_s):
            raise ValueError("values must have shape (L_max+1, n_s) with L_max >= 0")
        self.values[:, self.grid.izero] = 0.0

    @property
    def L_max(self) -> int:
        return self.values.shape[0] - 1

    @property
    def d(self) -> int:
        return self.grid.d

    def weights(self):
        """Spectral measure weights mult_ell dlam |lam|^d, shape (L_max+1, n_s)."""
        return _spectral_weights(self.grid, self.L_max)

    def eig(self):
        """eigenvalue(ell, lam), shape (L_max+1, n_s), with the lam = 0 column
        (which carries no mass) set to 1."""
        ells = np.arange(self.L_max + 1)
        eig = eigenvalue(ells[:, None], self.grid.lam[None, :], self.grid.d)
        eig[:, self.grid.izero] = 1.0
        return eig


def _spectral_weights(grid: Grid, L_max: int):
    return _mult_table(L_max, grid.d)[:, None] * grid.w_lam[None, :]


# |lam| rows per kernel block: one block is (rows, L+1, n_rho) float64,
# about 4 MB at 65 bands x 256 radii.  Rebuilt on every call, never stored:
# a store of the default grid's tables costs more resident memory than the
# benchmark's 10 % peak-RSS bound allows
_LAM_BLOCK = 32


def _lam_contract(grid: Grid, X, L_max, adjoint=False):
    """Per-frequency kernel products of lam-major data X (n_s, n, B), complex.

    Returns Z with Z[k] = K(lam_k) @ X[k], K the (L+1, n_rho) table of K_ell,
    or K(lam_k)^T @ X[k] when `adjoint`; Z[izero] (lam = 0) is 0.  K is even
    in lam, so `wigner_radial_table` (one `kernel_rows` pass) builds it on
    the half |lam| = dlam m, m = 1..n_s/2, _LAM_BLOCK rows at a time.  Each
    block is one np.matmul for the rows izero + m (a contiguous lam slice;
    m = n_s/2 has no +lam row) and one for the rows izero - m (the same
    block reversed, as a view).  Complex X is read as interleaved float64,
    so the real kernel sees the real and imaginary parts of every batch
    index as 2B gemm columns.

    K is exactly 0 at the radii where e^{-|lam| rho^2} is below the floor
    `specfun._FLOOR`, and for the ascending rho these form a tail that is
    longest at the largest |lam|.  A block is therefore built and
    contracted on the radii before the first zero of its smallest |lam| row
    only; the adjoint's rows beyond them are set to 0.  On the default
    256 x 512 grid that skips 28 % of the kernel entries.  A NaN or inf
    sample at such a radius (or, for the adjoint, in a lam row of such a
    block) therefore reaches only the frequencies whose kernel is nonzero
    there: the forward output at the other |lam| and the adjoint's cut rows
    stay finite, where a product with the exact-zero kernel would have made
    them NaN.
    """
    n_s, izero = grid.n_s, grid.izero
    Z = np.empty((n_s, grid.n_rho if adjoint else L_max + 1, X.shape[-1]), dtype=complex)
    Z[izero] = 0.0
    Xf, Zf = X.view(float), Z.view(float)
    for m0 in range(1, izero + 1, _LAM_BLOCK):
        m1 = min(m0 + _LAM_BLOCK, izero + 1)
        lam = np.abs(grid.lam[izero - np.arange(m0, m1)])
        p = np.count_nonzero(wigner_radial_table(0, lam[0], grid.rho, grid.d))
        K = wigner_radial_table(L_max, lam[:, None], grid.rho[None, :p], grid.d)
        pos = slice(izero + m0, min(izero + m1, n_s))
        neg = slice(izero - m1 + 1, izero - m0 + 1)
        if adjoint:
            K = K.transpose(1, 2, 0)
            Zf[pos, p:] = Zf[neg, p:] = 0.0
            Xp, Zp = Xf, Zf[:, :p]
        else:
            K = K.transpose(1, 0, 2)
            Xp, Zp = Xf[:, :p], Zf
        np.matmul(K[:pos.stop - pos.start], Xp[pos], out=Zp[pos])
        np.matmul(K[::-1], Xp[neg], out=Zp[neg])
    return Z


def _forward_samples(grid: Grid, values, L_max):
    """Sampled forward: samples (..., n_rho, n_s) -> coefficients (..., L+1, n_s).

    The leading batch indices move innermost, into the gemm columns of one
    _lam_contract pass.
    """
    fhat = s_analysis(grid, values)  # (..., n_rho, n_s)
    batch = fhat.shape[:-2]
    fhat = fhat.reshape((-1,) + fhat.shape[-2:])
    C = np.multiply(fhat.T, grid.w_radial[:, None], order="C")  # (n_s, n_rho, B)
    theta = _lam_contract(grid, C, L_max)  # (n_s, L+1, B)
    mults = _mult_table(L_max, grid.d)
    out = np.divide(theta.T, mults[:, None], order="C")
    return out.reshape(batch + out.shape[1:])


def _inverse_samples(grid: Grid, theta):
    """Synthesis: coefficients (..., L+1, n_s) -> samples (..., n_rho, n_s).

    The mirror of _forward_samples: one adjoint _lam_contract pass, whose
    lam = 0 row is zero (the lam = 0 column of theta has no effect), then
    the s-synthesis of every batch index at once.  Its C-ordered output is
    returned as a view, so the contraction output G and that array are the
    only sample-sized arrays a call holds.
    """
    d = grid.d
    batch = theta.shape[:-2]
    theta = theta.reshape((-1,) + theta.shape[-2:])
    w = (2.0**d / np.pi**d) * np.abs(grid.lam) ** d
    T = np.multiply(theta.T, w[:, None, None], order="C")  # (n_s, L+1, B)
    G = _lam_contract(grid, T, theta.shape[1] - 1, adjoint=True)  # (n_s, n_rho, B)
    del T  # freed before the synthesis, which sets the peak memory
    f = s_synthesis(grid, G.T)  # (B, n_rho, n_s)
    return f.reshape(batch + f.shape[1:])


def _check_L_max(L_max):
    if not isinstance(L_max, (int, np.integer)) or L_max < 0:
        raise ValueError(f"L_max must be an int >= 0, got {L_max!r}")


def forward(f, L_max: int = 64, grid: Grid | None = None) -> SpectralField:
    """Radial spectral transform; the quadrature follows the type of f.

    A RadialField: the Y-integral uses the grid's Gauss-Legendre rule and
    the s-integral the exact uniform-grid DFT.

    A GaussianClosure (or a list or tuple of them): lam-adapted generalized
    Gauss-Laguerre quadrature — for each lam the substitution
    u = 2|lam| rho^2 turns the radial integral into a weight e^{-pu} u^{d-1}
    integral with p = a/(2|lam|) + 1/2, which the rule integrates exactly
    for every band ell <= 2 n_quad - 1, with n_quad = max(48, L_max // 2 + 8).
    `grid` supplies the frequency lattice.
    """
    _check_L_max(L_max)
    if isinstance(f, RadialField):
        return SpectralField(f.grid, _forward_samples(f.grid, f.values, L_max))
    closures = f if isinstance(f, (list, tuple)) else [f]
    if not all(isinstance(c, GaussianClosure) for c in closures):
        raise TypeError("forward expects a RadialField or GaussianClosure data")
    if grid is None:
        raise ValueError("GaussianClosure data need a target grid")
    return _forward_closure(closures, grid, L_max, max(48, L_max // 2 + 8))


def _forward_closure(closures, grid: Grid, L_max: int, n_quad: int) -> SpectralField:
    d = grid.d
    uq, wq = roots_genlaguerre(n_quad, d - 1)
    theta = np.zeros((L_max + 1, grid.n_s), dtype=complex)
    al = np.abs(grid.lam)
    live = al > 0
    mults = _mult_table(L_max, d)
    pref = sphere_area(d) / (2.0 * (2.0 * al[live]) ** d)
    for c in closures:
        p = c.a / (2.0 * al[live]) + 0.5  # (n_live,)
        # radial integral: p^{-d} sum_q w_q L_ell^{(d-1)}(u_q / p)
        x = uq[None, :] / p[:, None]  # (n_live, n_quad)
        tab = laguerre_table(L_max, d - 1, x)  # (L+1, n_live, n_quad)
        rad = (tab * wq[None, None, :]).sum(-1) * p[None, :] ** (-d) * pref[None, :]
        theta[:, live] += (c.phat(grid.lam[live])[None, :] * rad) / mults[:, None]
    return SpectralField(grid, theta)


def inverse(sf: SpectralField) -> RadialField:
    """Synthesis back to the radial grid (exact inverse on the model space)."""
    return RadialField(sf.grid, _inverse_samples(sf.grid, sf.values))


def spectral_inner(sf: SpectralField, sg: SpectralField) -> complex:
    """Spectral pairing sum_ell mult int theta_f conj(theta_g) |lam|^d dlam."""
    if sf.grid is not sg.grid and not sf.grid.compatible(sg.grid):
        raise ValueError("spectral fields live on different grids")
    if sf.L_max != sg.L_max:
        raise ValueError("band sizes differ")
    return complex(np.sum(sf.weights() * sf.values * np.conj(sg.values)))


def sobolev_norm(sf: SpectralField, sigma: float) -> float:
    """Homogeneous Sobolev norm of order sigma via the spectral multiplier.

    ||f||_sigma^2 = (2^{d-1}/pi^{d+1}) sum_ell mult int
                    (4 |lam| (2 ell + d))^sigma |theta|^2 |lam|^d dlam,
    so sigma = 0 recovers the physical L^2 norm.  For sigma < 0 the call is
    refused when more than 1e-12 of the spectral mass sits in the two
    frequency bins adjacent to lam = 0 (the negative power is then dominated
    by unresolved low frequencies).
    """
    grid = sf.grid
    dens = sf.weights() * np.abs(sf.values) ** 2
    total = dens.sum()
    if sigma < 0:
        edge = dens[:, grid.izero - 1].sum() + dens[:, grid.izero + 1].sum()
        if total > 0 and edge > 1e-12 * total:
            raise ValueError(
                "negative-order norm refused: spectral mass within one bin of lam=0"
            )
    val = (dens * sf.eig() ** sigma).sum() / plancherel_constant(grid.d)
    return float(np.sqrt(val))


@dataclass(frozen=True)
class LocalizerSpec:
    """Smooth spectral localizer at scale Lambda.

    kind="ball": profile 1 on eigenvalue <= Lambda^2/2, 0 above Lambda^2.
    kind="ring": supported on eigenvalue in [Lambda^2/4, Lambda^2].
    """

    kind: str = "ball"
    scale: float = 1.0

    def profile(self, eig):
        x = np.asarray(eig, dtype=float) / self.scale**2
        if self.kind == "ball":
            return ball_profile(x)
        if self.kind == "ring":
            return ring_profile(x)
        raise ValueError(f"unknown localizer kind {self.kind!r}")


def localize(sf: SpectralField, loc: LocalizerSpec) -> SpectralField:
    return SpectralField(sf.grid, sf.values * loc.profile(sf.eig()))


def sobolev_multiplier(sf: SpectralField, sigma: float) -> SpectralField:
    """Diagonal derivative multiplier: theta -> eig^{sigma/2} theta.

    Commutes exactly with localize (both are diagonal in (ell, lam));
    sobolev_norm(sf, sigma) equals sobolev_norm(sobolev_multiplier(sf, sigma), 0).
    """
    return SpectralField(sf.grid, sf.values * sf.eig() ** (sigma / 2.0))


def bernstein_check(f: RadialField, loc: LocalizerSpec, p: float, q: float,
                    scales=(1.0, 2.0, 4.0, 8.0), L_max: int = 64) -> dict:
    """Norm-comparison exponent for localized fields across dilation scales.

    Localizes f with `loc`, then forms the exact dilation family (the same
    sample array read on grids shrunk by 1/scale in Y and 1/scale^2 in s) and
    measures ||f_a||_q / ||f_a||_p.  Both norms are exactly covariant, so the
    fitted log-log exponent must match Q (1/p - 1/q), Q = 2d + 2.
    """
    if q < p:
        raise ValueError("needs p <= q")
    f0 = inverse(localize(forward(f, L_max=L_max), loc))
    g0 = f0.grid
    Q = 2.0 * g0.d + 2.0
    ratios = []
    for a in scales:
        ga = Grid(d=g0.d, n_rho=g0.n_rho, r_max=g0.r_max / a,
                  n_s=g0.n_s, s_half=g0.s_half / a**2)
        fa = RadialField(ga, f0.values)
        num = mixed_norm(fa, MixedNormSpec((q, q), ("Y", "s")))
        den = mixed_norm(fa, MixedNormSpec((p, p), ("Y", "s")))
        ratios.append(num / den)
    scales = np.asarray(scales, dtype=float)
    ratios = np.asarray(ratios)
    fitted = float(np.polyfit(np.log(scales), np.log(ratios), 1)[0])
    return {
        "scales": scales,
        "ratios": ratios,
        "fitted_exponent": fitted,
        "target_exponent": Q * (1.0 / p - 1.0 / q),
    }


# ---------------------------------------------------------------------------
# Product group R_t x H^d
# ---------------------------------------------------------------------------

@dataclass
class SpectralFieldD:
    """Joint spectrum on R_t x H^d: values[q, ell, k] at (alpha_q, ell, lam_k)."""

    grid: Grid
    alpha: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        self.alpha = np.asarray(self.alpha, dtype=float)

    @property
    def L_max(self) -> int:
        return self.values.shape[1] - 1


def transform_D(u: SpaceTimeField, L_max: int = 64) -> SpectralFieldD:
    """Euclidean t-DFT composed with the radial transform.

    Requires uniformly spaced t_nodes (the t axis is treated as periodic with
    weight dt, so discrete Parseval is exact for t-compact packets).
    """
    _check_L_max(L_max)
    grid = u.grid
    t = grid.t_nodes
    n_t = t.size
    if n_t < 2:
        raise ValueError("transform_D needs at least two time nodes")
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=0, atol=1e-12 * abs(dt)):
        raise ValueError("transform_D needs uniform t_nodes")
    m = np.arange(n_t) - n_t // 2
    alpha = 2.0 * np.pi * m / (n_t * dt)
    fw = np.fft.fftshift(np.fft.fft(u.values, axis=0), axes=0)
    fw *= dt * np.exp(-1j * t[0] * alpha)[:, None, None]
    theta = _forward_samples(grid, fw, L_max)  # batched over alpha
    return SpectralFieldD(grid, alpha, theta)


def spectral_inner_D(a: SpectralFieldD, b: SpectralFieldD) -> complex:
    """sum_alpha dalpha sum_ell mult int theta conj(theta') |lam|^d dlam."""
    if a.grid is not b.grid and not a.grid.compatible(b.grid):
        raise ValueError("spectral fields live on different grids")
    if a.values.shape != b.values.shape or not np.array_equal(a.alpha, b.alpha):
        raise ValueError("joint spectra differ in alpha nodes or band sizes")
    dal = a.alpha[1] - a.alpha[0]
    w = _spectral_weights(a.grid, a.L_max)
    return complex(dal * np.sum(w[None] * a.values * np.conj(b.values)))
