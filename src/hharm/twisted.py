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
O(n^3 log n) as batched FFT row convolutions (numpy.fft), `_K_BLOCK` shifts
at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_legendre

from .specfun import kernel_rows, normalized_kernel
from .fields import sphere_area

__all__ = [
    "PlanarGrid",
    "PlanarField",
    "planar_norm",
    "twisted_convolve",
    "kernel_field",
    "tn_apply",
    "operator_norm",
    "est2_scan",
    "orth_check",
    "hardy_check",
    "young_check",
    "algebra_scaling",
    "tn_norm_proxy",
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
        if not isinstance(self.n, (int, np.integer)) or self.n < 3:
            raise ValueError(f"n must be an int >= 3, got {self.n!r}")
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
    """L^p norm on the plane with the lattice cell weight h^2."""
    a = np.abs(f.values)
    if np.isinf(p):
        return float(a.max())
    if p <= 0:
        raise ValueError("p must be positive")
    return float((f.grid.h**2 * np.sum(a**p)) ** (1.0 / p))


def _outer_band_fraction(values: np.ndarray) -> float:
    n = values.shape[0]
    m = max(1, n // 10)
    total = float(np.abs(values).sum())
    if total == 0.0:
        return 0.0
    inner = float(np.abs(values[m : n - m, m : n - m]).sum())
    return (total - inner) / total


_K_BLOCK = 16  # shifts k per batched FFT: each temporary stays under 4 MB at n = 97


def _fft_length(m: int) -> int:
    """Smallest 5-smooth integer >= m: the FFT length of the row convolutions."""
    while True:
        r = m
        for q in (2, 3, 5):
            while r % q == 0:
                r //= q
        if r == 1:
            return m
        m += 1


def twisted_convolve(f: PlanarField, g: PlanarField, lam: float) -> PlanarField:
    """Twisted convolution of two box-supported planar fields.

    Exact lattice evaluation: the difference Y - w is always a lattice
    point of the zero-padded f, and the phase splits as

        e^{2 i lam sigma(Y, w)} = e^{2 i lam eta_j y_k} e^{-2 i lam eta_l y_i}

    for Y = (y_i, eta_j), w = (y_k, eta_l).  With
    gB_k[i, l] = g[k, l] e^{-2 i lam eta_l y_i}, the output is

        h^2 sum_k e^{2 i lam eta_j y_k} D_k[i, j],
        D_k[i, j] = sum_l gB_k[i, l] f[i - k + lo, j - l + lo],

    lo = (n - 1) / 2, and each row of D_k is a 1-D linear convolution in l
    of the row gB_k[i, .] with the row i - k + lo of f (zero outside the
    box).  Those convolutions run as circular ones of length M, the
    smallest 5-smooth integer >= lo + n, with the f row at circular offsets
    -lo..lo: a shift j - l in [-(n - 1), n - 1] then never wraps onto the
    row's support.  f's rows are transformed once; the rows gB_k of
    `_K_BLOCK` shifts k go through one batched FFT, multiply, inverse FFT
    and contraction with e^{2 i lam eta_j y_k}, so the temporaries stay
    O(_K_BLOCK n M).  Cost O(n^3 log n).

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
    A = np.exp(2j * lam * np.outer(a, a))  # A[j, k] = e^{2 i lam a_j a_k}
    B = np.conj(A)
    lo = (n - 1) // 2
    M = _fft_length(lo + n)
    # row p of f at circular offsets -lo..lo; its spectrum sits at
    # Fhat[lo + p] between lo zero spectra on each side, so the f row that
    # output row i meets at shift k (p = i - k + lo) is Fhat[i - k + n - 1]
    rows = np.zeros((n, M), dtype=complex)
    rows[:, : lo + 1] = f.values[:, lo:]
    rows[:, M - lo :] = f.values[:, :lo]
    Fhat = np.zeros((2 * n - 1, M), dtype=complex)
    Fhat[lo : lo + n] = np.fft.fft(rows, axis=1)
    acc = np.zeros((n, n), dtype=complex)
    i = np.arange(n)
    for k0 in range(0, n, _K_BLOCK):
        ks = np.arange(k0, min(k0 + _K_BLOCK, n))
        gB = g.values[ks, None, :] * B[None, :, :]  # gB[k, i, l]
        prod = np.fft.fft(gB, n=M, axis=2)
        prod *= Fhat[i[None, :] - ks[:, None] + n - 1]
        D = np.fft.ifft(prod, axis=2)[:, :, :n]  # D[k, i, j]
        acc += np.einsum("kij,kj->ij", D, A[:, ks].T)
    return PlanarField(grid, grid.h**2 * acc)


def kernel_field(grid: PlanarGrid, ell: int, lam: float) -> PlanarField:
    """Samples of the band kernel K_ell(lam, Y) = e^{-|lam||Y|^2} L_ell(2|lam||Y|^2)."""
    y, eta = grid.mesh()
    u = 2.0 * abs(lam) * (y**2 + eta**2)
    for K in kernel_rows(ell, u, 1):
        pass
    return PlanarField(grid, K)


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


def est2_scan(p: float = 2.0, lams=(0.25, 0.5, 1.0, 2.0, 4.0), seed: int = 42) -> dict:
    """Scale behaviour of f -> f *_lam K_0 from L^p into L^{p'}.

    Measures ||f_lam *_lam K_0||_{p'} / ||f_lam||_p along a lam ladder on
    the default PlanarGrid for the lam-adapted family
    f_lam(Y) = phi(sqrt(lam) Y), phi a fixed random mixture of three
    Gaussians.  Twisted scaling covariance makes the ratio exactly
    proportional to lam^{-2d/p'} (d = 1), so the fitted log-log slope is the
    sharp exponent and ratio * lam^{2d/p'} is flat.
    """
    if not 1.0 <= p <= 2.0:
        raise ValueError("p must lie in [1, 2]")
    grid = PlanarGrid()
    n_terms = 3
    pp = np.inf if p == 1.0 else p / (p - 1.0)
    rng = np.random.default_rng(seed)
    kappas = rng.uniform(6.0, 10.0, n_terms)
    coefs = rng.standard_normal(n_terms) + 1j * rng.standard_normal(n_terms)
    y, eta = grid.mesh()
    rsq = y**2 + eta**2
    ratios = []
    for lam in lams:
        vals = sum(c * np.exp(-k * lam * rsq) for c, k in zip(coefs, kappas))
        f = PlanarField(grid, vals)
        out = tn_apply(f, 0, lam)
        ratios.append(planar_norm(out, pp) / planar_norm(f, p))
    ratios = np.asarray(ratios)
    lams = np.asarray(lams, dtype=float)
    target = 0.0 if np.isinf(pp) else -2.0 / pp
    slope = float(np.polyfit(np.log(lams), np.log(ratios), 1)[0])
    return {
        "p": p,
        "p_prime": float(pp) if np.isfinite(pp) else np.inf,
        "lams": lams,
        "ratios": ratios,
        "slope": slope,
        "target_slope": target,
        "flattened": ratios * lams ** (-target),
    }


def orth_check(ells=(1, 2, 4, 8, 16, 32, 64), d: int = 1, n_quad: int = 4096) -> dict:
    """Near-orthogonality of the normalized per-band kernels.

    k_ell = normalized_kernel(ell, .) carries its own central frequency
    lam_ell = 1/(2 ell + d).  The pair integrals use absolute values,
    I(ell, m) = int |k_ell| |k_m| over R^{2d}, so cancellation gets no
    credit; the diagonal I(ell, ell) = (pi/2)^d / (2 ell + d) exactly, and
    I(ell, 2 ell) decays like 1/max = 1/(2 ell).  Radial Gauss-Legendre
    quadrature over [0, R] with R past both kernels' turning points.
    """
    ells = np.asarray(ells, dtype=int)
    surf = sphere_area(d)
    m_big = int(ells.max()) * 2
    R = 2.0 * (2.0 * m_big + d) + 40.0
    xq, wq = roots_legendre(n_quad)
    rho = 0.5 * R * (xq + 1.0)
    w = 0.5 * R * wq * surf * rho ** (2 * d - 1)
    table = {int(l): np.abs(normalized_kernel(int(l), rho, d)) for l in ells}
    table.update(
        {2 * int(l): np.abs(normalized_kernel(2 * int(l), rho, d)) for l in ells}
    )
    diag = np.array([np.sum(w * table[int(l)] ** 2) for l in ells])
    diag_target = (np.pi / 2.0) ** d / (2.0 * ells + d)
    off = np.array([np.sum(w * table[int(l)] * table[2 * int(l)]) for l in ells])
    slope = float(np.polyfit(np.log(ells), np.log(off), 1)[0])
    growth = float(np.polyfit(np.log(ells), np.log(2.0 * ells * off), 1)[0])
    pairs = [(int(a), int(b)) for a in ells for b in ells if a != b]
    scaled = [max(a, b) * np.sum(w * table[a] * table[b]) for a, b in pairs]
    return {
        "ells": ells,
        "diag": diag,
        "diag_target": diag_target,
        "diag_rel_err": float(np.max(np.abs(diag - diag_target) / diag_target)),
        "offdiag": off,
        "offdiag_slope": slope,
        "scaled_growth_slope": growth,
        "max_scaled_offdiag": float(np.max(scaled)),
    }


def young_check(seed: int = 7) -> dict:
    """Twisted Young inequality ||f *_lam g||_inf <= ||f||_1 ||g||_inf at lam = 1.

    The phase has modulus one, so the bound holds configuration by
    configuration; four random Gaussian-mixture pairs on the default
    PlanarGrid probe the discretization.  The worst ratio is an np.max, so
    a NaN trial propagates.
    """
    lam = 1.0
    grid = PlanarGrid()
    rng = np.random.default_rng(seed)
    y, eta = grid.mesh()
    rsq = y**2 + eta**2
    ratios = []
    for _ in range(4):
        ka, kb = rng.uniform(0.5, 3.0, 2)
        ca = rng.standard_normal() + 1j * rng.standard_normal()
        cb = rng.standard_normal() + 1j * rng.standard_normal()
        f = PlanarField(grid, ca * np.exp(-ka * rsq))
        g = PlanarField(grid, cb * np.exp(-kb * rsq) * np.cos(y))
        out = twisted_convolve(f, g, lam)
        bound = planar_norm(f, 1.0) * planar_norm(g, np.inf)
        ratios.append(planar_norm(out, np.inf) / bound)
    return {"lam": lam, "worst_ratio": float(np.max(ratios)), "bound": 1.0}


def algebra_scaling(lams=(0.5, 1.0, 2.0, 4.0)) -> dict:
    """lam-slope of ||f *_lam g||_2 / (||f||_2 ||g||_2) on the kernel family.

    For f = g = K_0(lam, .) the self-reproducing identity plus
    ||K_0||_2^2 = (pi/(2 lam))^d gives the ratio (pi/(2 lam))^{d/2}
    exactly, so the fitted slope is -d/2: the kernels saturate the twisted
    L^2 algebra bound C |lam|^{-d/2}.
    """
    grid = PlanarGrid()
    ratios = []
    for lam in lams:
        k = kernel_field(grid, 0, lam)
        out = twisted_convolve(k, k, lam)
        ratios.append(planar_norm(out, 2.0) / planar_norm(k, 2.0) ** 2)
    lams = np.asarray(lams, dtype=float)
    ratios = np.asarray(ratios)
    slope = float(np.polyfit(np.log(lams), np.log(ratios), 1)[0])
    return {
        "lams": lams,
        "ratios": ratios,
        "slope": slope,
        "target_slope": -0.5,
        "exact_ratios": np.sqrt(np.pi / (2.0 * lams)),
    }


def tn_norm_proxy(ell: int, lam: float, n: int = 49, n_inputs: int = 64,
                  seed: int = 0) -> dict:
    """Rayleigh-quotient lower estimate of ||T_ell|| over seeded random inputs.

    A measured norm proxy only — max over `n_inputs` random smooth fields of
    ||T f||_2 / ||f||_2 — never larger than the exact value (pi/(2|lam|))^d,
    and close to it because K_ell itself is nearly in the random span.
    Runs on a coarser n x n lattice of half-width 8 to keep the O(n^3 log n) cost
    down.  The max is an np.max, so a NaN input propagates.
    """
    grid = PlanarGrid(half_width=8.0, n=n)
    rng = np.random.default_rng(seed)
    y, eta = grid.mesh()
    rsq = y**2 + eta**2
    ratios = []
    for _ in range(n_inputs):
        kap = rng.uniform(0.5, 2.0)
        mix = (
            rng.standard_normal() * np.exp(-kap * rsq)
            + rng.standard_normal() * np.exp(-1.3 * kap * rsq) * np.cos(rng.uniform(0.3, 2.0) * y)
            + 1j * rng.standard_normal() * np.exp(-0.8 * kap * rsq) * np.sin(rng.uniform(0.3, 2.0) * eta)
        )
        f = PlanarField(grid, mix)
        out = tn_apply(f, ell, lam)
        ratios.append(planar_norm(out, 2.0) / planar_norm(f, 2.0))
    return {
        "ell": ell,
        "lam": lam,
        "measured_norm_proxy": float(np.max(ratios)),
        "exact_norm": operator_norm(ell, lam),
        "n_inputs": n_inputs,
    }


def hardy_check(p: float = 2.0, n_seeds: int = 1000, seed: int = 0) -> dict:
    """Averaging-operator bound: ||(1/m) sum_{l<=m} |a_l|||_p <= p/(p-1) ||a||_p.

    Random nonnegative sequences of length N = 512 probe the inequality;
    the single-spike sequence e_1 gives the explicit value
    (sum_{m<=N} m^{-p})^{1/p}, which at p = 2 converges to pi/sqrt(6) with
    an O(1/N) defect.
    """
    if p <= 1.0:
        raise ValueError("p must exceed 1 (the bound p/(p-1) degenerates)")
    n = 512
    rng = np.random.default_rng(seed)
    m = np.arange(1, n + 1, dtype=float)
    a = np.abs(rng.standard_normal((n_seeds, n)))
    b = np.cumsum(a, axis=1) / m[None, :]
    ratios = (b**p).sum(axis=1) ** (1.0 / p) / (a**p).sum(axis=1) ** (1.0 / p)
    e1_ratio = float(np.sum(m**-p) ** (1.0 / p))
    return {
        "p": p,
        "bound": p / (p - 1.0),
        "worst_ratio": float(ratios.max()),
        "n_seeds": n_seeds,
        "n": n,
        "e1_ratio": e1_ratio,
        "e1_limit": float(np.pi / np.sqrt(6.0)) if p == 2.0 else None,
        "e1_defect_allowance": 1.0 / n,
    }
