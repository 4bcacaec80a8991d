"""Frequency-surface measures, their pairings, restriction and extension.

Two surfaces are supported, both parametrized by the band index ell and the
central frequency lam:

* the unit-frequency sphere: rays lam_ell = R / (2 ell + d) on both signs of
  lam, weighted by mult * R^d (2 ell + d)^{-(d+1)};

* the localized paraboloid of the Schrodinger symbol: points
  (alpha, ell, lam = +- alpha c_ell) with c_ell = 1 / (4 (2 ell + d)),
  weighted by mult * c_ell^{d+1} alpha^d psi(alpha) dalpha for a smooth
  compactly supported window psi (alpha is the joint time-frequency; the
  chart alpha = 4 |lam| (2 ell + d) = eigenvalue).

Each measure has one home: `_sphere_rays` and `_sigma_rays` give the rays
and the band weights at (possibly real) band indices, `_alpha_density` the
alpha^d psi(alpha) dalpha factor, and `SphereValues.weights()` and
`SigmaValues.weights()` the weight of each restricted ray pair.  The
pairings, norms and extensions all read them; an extension divides out the
multiplicity, which K_ell already carries.

Both surfaces are lists of rays (ell, lam) off the lambda lattice, so
restriction and extension are one ray contraction and its adjoint.
`_restrict_rays` evaluates the transform of samples (Q, n_rho, n_s) on rays
lam[ell, q] rho first, as the transform does: one real gemm of the weighted
kernel table w_radial K_ell(lam, rho), (Q, L+1, n_rho), with the samples
read as interleaved float64, then each (q, ell) row dotted with its phase
row h_s e^{-+ i s lam} (the exact nonuniform DFT in s).  The table depends
only on the radial rule and the rays, and the verify suites restrict 200
samples per geometry, so `_ray_table` keeps the last few tables of at most
`_RAY_TABLE_BYTES` (1 MB), read-only, keyed on d and the bytes of the
radial nodes, the radial weights and the rays; larger ones are built per
call.  The complex phase rows are rebuilt on every call: keeping them as
well raised the peak resident memory of `hharm verify all` by far more than
their size, as the allocator keeps the freed blocks around them.
`_extend_rays` synthesises from ray values with one @ over the flattened
(ell, q) axis and builds its kernels per call.  The sphere is one ray per
band (Q = 1); the paraboloid first contracts t against w_t e^{-i t alpha}
and has a ray per Gauss node alpha_q.

The kernels are exactly 0 where e^{-lam rho^2} is below the floor 2^-969
(`specfun._FLOOR`), and `GaussianClosure` samples are exactly 0 where their
Gaussian is, so on the verify suites' packets the ray gemm runs on no
subnormal float: one would make it about 8x slower (4.1 ms against 0.53 ms
for the default-size sphere gemm on one packet, x86).  Samples that carry
subnormal values from elsewhere are contracted as given, at that speed.

Pairings of smooth spectral functions against these measures converge like
sum (2 ell + d)^{-(d+1)}; band tails are completed by a continuation
integral (error O(L^{-3})) or by Richardson extrapolation of the partial
sums (error O(L^{-2})), and the tail estimate is always reported with the
value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import gammaln, roots_legendre

from .fields import Grid, RadialField, SpaceTimeField
from .specfun import _mult_table, kernel_rows
from .windows import sigma_window

__all__ = [
    "SphereMeasure",
    "SigmaMeasure",
    "sphere_pair",
    "sigma_pair",
    "g_function",
    "g_sigma",
    "SphereValues",
    "SigmaValues",
    "restrict_sphere",
    "extend_sphere",
    "sphere_norm_sq",
    "restrict_sigma",
    "extend_sigma",
    "sigma_norm_sq",
]


def _check_radius(radius):
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be positive and finite, got {radius}")


@dataclass(frozen=True)
class SphereMeasure:
    radius: float = 1.0

    def __post_init__(self):
        _check_radius(self.radius)


@dataclass
class SigmaMeasure:
    window: Callable = sigma_window
    support: tuple = (0.0, 1.0)

    def __post_init__(self):
        a0, a1 = self.support
        if not (0.0 <= a0 < a1 < np.inf):
            raise ValueError(f"support must satisfy 0 <= a0 < a1 < inf, got {self.support}")


def _mult_real(x, d):
    """Multiplicity binom(x+d-1, x) continued to real band index x."""
    x = np.asarray(x, dtype=float)
    return np.exp(gammaln(x + d) - gammaln(x + 1) - gammaln(d))


def _sphere_rays(x, d, R):
    """Sphere rays lam = R / (2x+d) and weights mult R^d (2x+d)^{-(d+1)} at
    band indices x (integer bands, or real ones for the tail continuation)."""
    return R / (2.0 * x + d), _mult_real(x, d) * R**d / (2.0 * x + d) ** (d + 1)


def _sigma_rays(x, d):
    """Paraboloid slopes c = 1 / (4 (2x+d)), so lam = +- alpha c, and band
    weights mult c^{d+1} at band indices x."""
    c = 1.0 / (4.0 * (2.0 * x + d))
    return c, _mult_real(x, d) * c ** (d + 1)


def _alpha_density(measure, alpha, dalpha, d):
    """Paraboloid alpha weights alpha^d psi(alpha) dalpha at quadrature nodes."""
    return dalpha * alpha**d * measure.window(alpha)


def _band_tail_integral(h, L, d, n_quad=64):
    """int_{L+1/2}^infty h(x) dx via the compactifying map u = 1/(2x+d).

    `h` must accept a real array of band indices; the integrand it produces
    for surface pairings is smooth in u, so Gauss-Legendre converges fast.
    """
    u0 = 1.0 / (2.0 * (L + 0.5) + d)
    xq, wq = roots_legendre(n_quad)
    u = 0.5 * u0 * (xq + 1.0)
    w = 0.5 * u0 * wq
    x = (1.0 / u - d) / 2.0
    return float(np.sum(w * h(x) / (2.0 * u**2)))


def sphere_pair(theta, measure: SphereMeasure, d: int = 1) -> dict:
    """Pair a spectral function against the sphere measure.

    <d sigma_R, theta> = sum_ell mult * R^d (2ell+d)^{-(d+1)}
                         [theta(ell, lam_ell) + theta(ell, -lam_ell)],
    lam_ell = R/(2ell+d).  `theta(ells, lams)` must broadcast over arrays; it
    is also called at real band indices to complete the series by a
    continuation integral past L = 10000 (midpoint-rule argument in reverse:
    error O(L^{-3})).
    """
    L_max = 10000

    def h(x):
        lx, w = _sphere_rays(x, d, measure.radius)
        return w * (theta(x, lx) + theta(x, -lx))

    ells = np.arange(L_max + 1)
    partial = float(np.sum(h(ells)))
    tail_val = _band_tail_integral(h, L_max, d)
    return {"value": partial + tail_val, "partial": partial, "tail": tail_val}


def _alpha_rule(measure: SigmaMeasure, n_alpha: int):
    a0, a1 = measure.support
    xq, wq = roots_legendre(n_alpha)
    return 0.5 * (a1 - a0) * (xq + 1.0) + a0, 0.5 * (a1 - a0) * wq


def sigma_pair(theta, measure: SigmaMeasure, d: int = 1) -> dict:
    """Pair Theta(alpha, ell, lam) against the localized paraboloid measure.

    <d Sigma, Theta> = sum_ell mult c_ell^{d+1} int
        [Theta(alpha, ell, +alpha c_ell) + Theta(alpha, ell, -alpha c_ell)]
        alpha^d psi(alpha) dalpha,      c_ell = 1/(4(2ell+d)).

    Theta is called as theta(alpha_array, band, lam_array) per band (band may
    be a real number in the tail continuation past L = 4096), at 48 Gauss
    nodes in alpha.
    """
    L_max = 4096
    al, wa = _alpha_rule(measure, 48)
    wa = _alpha_density(measure, al, wa, d)

    def h(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        c, w = _sigma_rays(x, d)
        out = np.empty_like(x)
        for i in range(x.size):
            tp = theta(al, x[i], al * c[i])
            tm = theta(al, x[i], -al * c[i])
            out[i] = np.sum(wa * (tp + tm))
        return w * out

    ells = np.arange(L_max + 1)
    partial = float(np.sum(h(ells)))
    tail_val = _band_tail_integral(h, L_max, d)
    return {"value": partial + tail_val, "partial": partial, "tail": tail_val}


# ---------------------------------------------------------------------------
# Physical-side kernels of the surface measures
# ---------------------------------------------------------------------------

def _kernel_diag(ells, U, d):
    """K_{ells[i]}(U[i]) for consecutive bands, with per-band arguments U[i].

    One kernel_rows pass over the stacked arguments; row i is taken at the
    step that reaches band ells[i].
    """
    lo = int(ells[0])
    out = np.empty_like(U)
    for ell, K in enumerate(kernel_rows(int(ells[-1]), U, d)):
        if ell >= lo:
            out[ell - lo] = K[ell - lo]
    return out


def _kernel_series(ells, U, d, n_terms=48):
    """Explicit sum for e^{-u/2} L_ell^{(d-1)}(u) at u = U[i], fast for many
    large bands.

    term_0 = mult(ell) e^{-u/2}; term_{k+1} = term_k * (-u)(ell-k)/((k+1)(d+k)).
    The effective argument is x = ell*u; cancellation costs a factor
    ~e^{2 sqrt(x)} in precision, so callers must keep x moderate (<= ~64).
    Returns (values, magnitude of the last increment).
    """
    ells = np.asarray(ells, dtype=float)[:, None]
    term = _mult_real(ells, d) * np.exp(-U / 2.0)
    acc = term.copy()
    for k in range(n_terms):
        term = term * (-U) * (ells - k) / ((k + 1.0) * (d + k))
        acc += term
    return acc, float(np.abs(term).max())


# bands below this use the recurrence in g_function, the rest the series
_SERIES_SWITCH = 256


def g_function(rho, s, d: int = 1, radius: float = 1.0, L_max: int = 4096):
    """Physical kernel of the sphere measure, with extrapolated band tail.

    G_R(rho, s) = (2^d / pi^{d+1}) sum_ell (2ell+d)^{-(d+1)} R^d
                  cos(R s / (2ell+d)) K_ell(R/(2ell+d), rho)

    (K_ell carries the multiplicity: K_ell(lam, 0) = mult; consequently
    G_1(0, 0) = 1/4 at d = 1).  Partial sums converge like 1/L with a smooth
    1/ell expansion, so the returned value is the Richardson extrapolant
    2 S_L - S_{L/2}, and the reported tail estimate is |S_L - S_{L/2}|
    (doubling-stable at the 1e-6 level for the default L_max).

    Returns (value, tail_estimate) broadcast over the inputs.
    """
    _check_radius(radius)
    rho_b, s_b = np.broadcast_arrays(np.asarray(rho, float), np.asarray(s, float))
    shape = rho_b.shape
    rf = rho_b.ravel()[None, :]
    sf = s_b.ravel()[None, :]
    R = radius
    const = 2.0**d / np.pi ** (d + 1)
    # the explicit-sum block loses ~e^{2 sqrt(R rho^2)} in precision; fall
    # back to the recurrence everywhere when that would bite
    switch = _SERIES_SWITCH if float(np.max(R * rf**2)) <= 64.0 else L_max + 1

    def block_sum(l_lo, l_hi, exact):
        ells = np.arange(l_lo, l_hi)
        lam, _ = _sphere_rays(ells[:, None], d, R)
        U = 2.0 * lam * rf**2
        if exact:
            Kg = _kernel_diag(ells, U, d)
        else:
            Kg, last = _kernel_series(ells, U, d)
            if last > 1e-10:
                raise RuntimeError("kernel series block not converged")
        # the sphere weight without the multiplicity K_ell carries, in this
        # order: the golden gfun-rescaling figure depends on it
        terms = (2.0 * ells[:, None] + d) ** -(d + 1) * R**d * np.cos(lam * sf) * Kg
        return terms.sum(axis=0)

    Lh = L_max // 2
    cut = min(switch, Lh)
    s_half = block_sum(0, cut, exact=True)
    if cut < Lh:
        s_half = s_half + block_sum(cut, Lh, exact=False)
    s_full = s_half + block_sum(Lh, L_max + 1, exact=(L_max < switch))
    value = const * (2.0 * s_full - s_half)
    tail = const * np.abs(s_full - s_half)
    if shape == ():
        return float(value[0]), float(tail[0])
    return value.reshape(shape), tail.reshape(shape)


def g_sigma(t, rho, s, measure: SigmaMeasure | None = None, d: int = 1) -> dict:
    """Physical kernel of the paraboloid measure by adaptive quadrature.

    g(t, rho, s) = 2 pi int alpha^d G_1(sqrt(alpha) rho, alpha s)
                   e^{-i t alpha} psi(alpha) dalpha.

    16-node Gauss panels over supp(psi) are doubled, up to 64 panels, until
    the value moves by less than 1e-8 (relative); G_1 sums 2048 bands.  The
    dict reports the value, the last refinement delta, and the panel count
    used.
    """
    measure = measure or SigmaMeasure()
    a0, a1 = measure.support
    xq, wq = roots_legendre(16)

    def evaluate(n_panels):
        edges = np.linspace(a0, a1, n_panels + 1)
        al = np.concatenate(
            [0.5 * (e1 - e0) * (xq + 1.0) + e0 for e0, e1 in zip(edges, edges[1:])]
        )
        wa = np.concatenate([0.5 * (e1 - e0) * wq for e0, e1 in zip(edges, edges[1:])])
        gvals, _ = g_function(np.sqrt(al) * rho, al * s, d=d, radius=1.0, L_max=2048)
        density = _alpha_density(measure, al, wa, d)
        return 2.0 * np.pi * np.sum(density * gvals * np.exp(-1j * t * al))

    n = 2
    prev = evaluate(n)
    delta = np.inf
    while n < 64:
        n *= 2
        cur = evaluate(n)
        delta = abs(cur - prev)
        prev = cur
        if delta <= 1e-8 * (1.0 + abs(cur)):
            break
    return {"value": prev, "refinement_delta": float(delta), "panels": n}


# ---------------------------------------------------------------------------
# Restriction / extension operators
# ---------------------------------------------------------------------------

@dataclass
class SphereValues:
    """Spectral restriction to the sphere: values on both lam signs per band."""

    measure: SphereMeasure
    d: int
    theta_plus: np.ndarray
    theta_minus: np.ndarray

    @property
    def L_max(self) -> int:
        return self.theta_plus.size - 1

    def weights(self):
        """d sigma weight of each band's ray pair, shape (L_max+1,)."""
        return _sphere_rays(np.arange(self.L_max + 1), self.d, self.measure.radius)[1]


@dataclass
class SigmaValues:
    """Spectral restriction to the paraboloid at Gauss nodes in alpha."""

    measure: SigmaMeasure
    d: int
    alpha: np.ndarray
    alpha_weights: np.ndarray
    theta_plus: np.ndarray  # (n_alpha, L_max+1)
    theta_minus: np.ndarray

    @property
    def L_max(self) -> int:
        return self.theta_plus.shape[1] - 1

    def weights(self):
        """d Sigma weight of each ray pair (alpha_q, ell), shape (n_alpha, L_max+1)."""
        _, wl = _sigma_rays(np.arange(self.L_max + 1), self.d)
        wa = _alpha_density(self.measure, self.alpha, self.alpha_weights, self.d)
        return wa[:, None] * wl[None, :]


def _bands(L_max: int) -> np.ndarray:
    if L_max < 0:
        raise ValueError(f"L_max must be >= 0, got {L_max}")
    return np.arange(L_max + 1)


# Weighted ray-kernel tables of at most this many bytes are kept between
# calls, the last _RAY_TABLES of them: the verify suites' sphere and
# paraboloid tables are 34-460 KB.  A larger ray set is built per call.
_RAY_TABLE_BYTES = 1 << 20
_RAY_TABLES = 4


@lru_cache(maxsize=_RAY_TABLES)
def _ray_table(d, rho, w_radial, lam, shape):
    """Read-only w_radial K_ell(lam[ell, q], rho), shape (Q, L+1, n_rho), for
    rays lam of `shape` (L+1, Q); rho, w_radial and lam come as the bytes of
    their float64 arrays, so the key is everything the table is built from."""
    rho, w_radial = np.frombuffer(rho), np.frombuffer(w_radial)
    lam = np.frombuffer(lam).reshape(shape)
    K = _kernel_diag(np.arange(shape[0]), 2.0 * lam[:, :, None] * rho**2, d)
    wK = np.multiply(K.transpose(1, 0, 2), w_radial, order="C")
    wK.flags.writeable = False
    return wK


def _ray_kernel(grid: Grid, lam):
    """`_ray_table` of the grid's radial rule on rays lam (L+1, Q), kept
    between calls when it fits in _RAY_TABLE_BYTES."""
    key = (grid.d, grid.rho.tobytes(), grid.w_radial.tobytes(), lam.tobytes(), lam.shape)
    if lam.size * grid.n_rho * 8 > _RAY_TABLE_BYTES:
        return _ray_table.__wrapped__(*key)
    return _ray_table(*key)


def _restrict_rays(grid: Grid, values, lam):
    """theta_+-[ell, q] = mult^{-1} int K_ell(lam, Y) e^{-+ i s lam} values[q] dY ds.

    `values` (Q, n_rho, n_s) are samples and `lam` (L+1, Q) positive ray
    frequencies off the lambda lattice; the s-integral is the exact
    nonuniform DFT of the samples (the trigonometric interpolant of the grid
    spectrum).  One real gemm contracts rho, then an einsum dots each
    (q, ell) row with its phase row.  Returns theta_plus, theta_minus, each
    (L+1, Q).
    """
    V = np.ascontiguousarray(values, dtype=complex)
    W = np.matmul(_ray_kernel(grid, lam), V.view(float)).view(complex)  # (Q, L+1, n_s)
    E = grid.h_s * np.exp(-1j * (lam.T[:, :, None] * grid.s))  # (Q, L+1, n_s)
    mult = _mult_table(lam.shape[0] - 1, grid.d)
    tp = np.einsum("qls,qls->ql", W, E) / mult
    tm = np.einsum("qls,qls->ql", W, np.conj(E)) / mult
    return tp.T, tm.T


def _extend_rays(grid: Grid, A, lam, c_plus, c_minus):
    """out[b] = sum_{ell, q} A[b, q] K_ell(lam, Y) (c_+ e^{i s lam} + c_- e^{-i s lam}).

    The adjoint of `_restrict_rays`: `A` is (B, Q), `lam`, `c_plus` and
    `c_minus` are (L+1, Q), and the sum is one @ over the flattened (ell, q)
    axis, so no (Q, n_rho, n_s) array is built.  Returns (B, n_rho, n_s).
    """
    n_l, n_q = lam.shape
    E = np.exp(1j * (lam[:, :, None] * grid.s))  # (L+1, Q, n_s)
    T = c_plus[:, :, None] * E + c_minus[:, :, None] * np.conj(E)
    K = _kernel_diag(np.arange(n_l), 2.0 * lam[:, :, None] * grid.rho**2, grid.d)
    M = A[:, None, None, :] * K.transpose(2, 0, 1)  # (B, n_rho, L+1, Q)
    return M.reshape(len(A), grid.n_rho, n_l * n_q) @ T.reshape(n_l * n_q, grid.n_s)


def restrict_sphere(f: RadialField, measure: SphereMeasure, L_max: int = 64) -> SphereValues:
    """Evaluate the spectral transform of f on the sphere's rays lam_ell = R/(2ell+d)."""
    grid = f.grid
    lam, _ = _sphere_rays(_bands(L_max), grid.d, measure.radius)
    tp, tm = _restrict_rays(grid, f.values[None], lam[:, None])
    return SphereValues(measure, grid.d, tp[:, 0], tm[:, 0])


def sphere_norm_sq(vals: SphereValues) -> float:
    """Squared L^2(d sigma) norm of restricted values."""
    dens = np.abs(vals.theta_plus) ** 2 + np.abs(vals.theta_minus) ** 2
    return float(np.sum(vals.weights() * dens))


def extend_sphere(vals: SphereValues, grid: Grid) -> RadialField:
    """Adjoint of restrict_sphere (with the inversion constant included).

    E(v)(Y, s) = (2^{d-1}/pi^{d+1}) sum_ell R^d (2ell+d)^{-(d+1)}
                 K_ell(lam_ell, Y) [v_+ e^{i s lam_ell} + v_- e^{-i s lam_ell}];

    satisfies <f, E(v)>_{L^2(H)} = (2^{d-1}/pi^{d+1}) <restrict(f), v>_{d sigma}.
    """
    d = grid.d
    if vals.d != d:
        raise ValueError(f"values are for d={vals.d}, the grid has d={d}")
    ells = np.arange(vals.L_max + 1)
    lam, w = _sphere_rays(ells, d, vals.measure.radius)
    coeff = 2.0 ** (d - 1) / np.pi ** (d + 1) * (w / _mult_real(ells, d))
    out = _extend_rays(grid, np.ones((1, 1)), lam[:, None],
                       (coeff * vals.theta_plus)[:, None], (coeff * vals.theta_minus)[:, None])
    return RadialField(grid, out[0])


def restrict_sigma(u: SpaceTimeField, measure: SigmaMeasure, L_max: int = 32,
                   n_alpha: int = 24) -> SigmaValues:
    """Evaluate the spacetime transform of u on the paraboloid points.

    Theta(alpha_q, ell, +-) = mult^{-1} sum_n w_t e^{-i t_n alpha_q}
        int K_ell(alpha_q c_ell, Y) e^{-+ i s alpha_q c_ell} u(t_n, Y, s) dY ds

    at Gauss-Legendre nodes alpha_q on supp(psi).  The t-integral uses the
    field's (windowed) trapezoid ladder: for fields that are not t-compact
    the values depend on the window, which callers must normalize for.
    """
    grid = u.grid
    c, _ = _sigma_rays(_bands(L_max), grid.d)
    al, wa = _alpha_rule(measure, n_alpha)
    B = grid.w_t[:, None] * np.exp(-1j * np.outer(grid.t_nodes, al))  # (n_t, n_q)
    # contract the time axis first: (n_q, n_rho, n_s)
    Ut = np.tensordot(B, u.values, axes=(0, 0))
    tp, tm = _restrict_rays(grid, Ut, c[:, None] * al)
    return SigmaValues(measure, grid.d, al, wa, tp.T, tm.T)


def sigma_norm_sq(vals: SigmaValues) -> float:
    """Squared L^2(d Sigma) norm of restricted values."""
    dens = np.abs(vals.theta_plus) ** 2 + np.abs(vals.theta_minus) ** 2
    return float(np.sum(vals.weights() * dens))


def extend_sigma(vals: SigmaValues, grid: Grid) -> SpaceTimeField:
    """Adjoint of restrict_sigma (with the inversion constant included).

    E(Theta)(t, Y, s) = (2^{d-1}/pi^{d+1}) sum_ell c_ell^{d+1}
        int e^{i t alpha} K_ell(alpha c_ell, Y)
        [Theta_+ e^{i s alpha c_ell} + Theta_- e^{-i s alpha c_ell}]
        alpha^d psi(alpha) dalpha.

    Satisfies <u, E(Theta)>_{L^2(dt dY ds)} =
    (2^{d-1}/pi^{d+1}) <restrict(u), Theta>_{d Sigma}.  When Theta restricts
    the transform of a Schrodinger datum and psi == 1 on its alpha-support,
    this reproduces the free evolution exactly: the chart alpha = eigenvalue
    turns the extension into the inversion formula with phases
    e^{i t alpha} = e^{i t eig}.
    """
    if grid.t_nodes is None:
        raise ValueError("target grid needs t_nodes")
    d = grid.d
    if vals.d != d:
        raise ValueError(f"values are for d={vals.d}, the grid has d={d}")
    ells = np.arange(vals.L_max + 1)
    c, wl = _sigma_rays(ells, d)
    al = vals.alpha
    wq = _alpha_density(vals.measure, al, vals.alpha_weights, d)
    # (const c^{d+1}) w_alpha in this order: the golden extension figure is
    # a rounding-level number that depends on it
    coeff = 2.0 ** (d - 1) / np.pi ** (d + 1) * (wl / _mult_real(ells, d))[:, None] * wq
    A = np.exp(1j * np.outer(grid.t_nodes, al))  # (n_t, n_q)
    out = _extend_rays(grid, A, c[:, None] * al, coeff * vals.theta_plus.T,
                       coeff * vals.theta_minus.T)
    return SpaceTimeField(grid, out)
