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
negative powers and divisions stay finite there; one rule,
`_refuse_near_lam0`, refuses a negative power on data next to it.

Computation
-----------
After the s-FFT, both directions are, at each frequency lam, one real
matrix product with the (L+1, n_rho) kernel table K(lam): one BLAS gemm
per block of |lam| rows and sign of lam, over the blocks of the one loop
`_lam_blocks`.  The table is
evaluated on the even half lam > 0 only, 32 |lam| rows at a time (about
4 MB at 65 bands x 256 radii), filled in place and only on the radii where
it is not 0.  The kernel is exactly 0 where e^{-|lam| rho^2} is below the
floor 2^-969 (`specfun._FLOOR`, u = 2 |lam| rho^2 > 1343), so its tables
hold no subnormal float, and neither do the samples of a `GaussianClosure`:
no gemm or FFT here runs on one unless the caller's data brings it.  A
call builds its tables, unless a `specfun.kept_kernels()` scope keeps them
for every call on the same frequencies, radii and band count.  Batch axes
(times, alpha, stacked samples) and the real and imaginary parts are the
gemm columns.  Each direction gathers a block's input into a block-sized
scratch and writes the block's result straight into its lam columns of the
batch-major output.  The forward takes the s-FFT into one new buffer and
leaves it in FFT column order: each block reads its columns there (the
fftshift) through the s-analysis factor h_s e^{i S lam}, so that buffer and
the output are the only sample-sized arrays it makes.  `transform_D` runs
its t-FFT, the t factor and the s-FFT in one buffer, and the forward
gathers the alpha rows in ascending order.  The synthesis writes through
the s-synthesis phase into the ifftshift columns, then runs the inverse FFT
and the division by h_s in place, so its output, which the returned field
keeps as its values, is the only sample-sized array it makes.  Every product
keeps the operand order of the plain expressions (numpy's SIMD complex
multiply is not bitwise commutative), so the bytes are those of the
shifted-FFT path.

Synthesis has one home, `_multiplier_pass`: a diagonal multiplier of a
spectrum, or of the forward of a radial field, then the inverse, in one
pass over the blocks.  `inverse` is the pass with the identity; the
Schrodinger and wave flows, Duhamel and `verify`'s forward -> multiplier ->
inverse chains are passes with their own multipliers.  The two directions
share their block bodies (`_analysis`, `_synthesis`): each block's
coefficients (read from the spectrum, or analysed as `forward` does, one
gemm column pair) are multiplied and synthesised (B = the batch) before the
next block's table is built, so each table is built once and read while it
is hot.  The pass makes no spectrum of the batch; for a radial field it
returns the forward's spectrum and takes the s-FFT into its output, whose
columns a block overwrites only after reading them.  `_lam_blocks` thus has
two callers, this pass and `_forward_fft`, the analysis of `forward` and
`transform_D`.  Each multiplier has one home that acts on a block's columns
as on the whole spectrum (`_localized` for `localize` too, the half-waves
for `wave_energy_series` too).  A factor even in lam, such as the phases
exp(i t eig), is evaluated once per |lam| block (`_even_in_lam`): the block
at +lam reads the table of its mirror at -lam, which `_lam_blocks` yields
just before it.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from math import inf

import numpy as np
from scipy.special import roots_genlaguerre

from .fields import (
    ELL_MAX,
    GaussianClosure,
    Grid,
    RadialField,
    SpaceTimeField,
    _analysis_phase,
    _check_finite,
    _check_int,
    _check_positive,
    _synthesis_phase,
    _synthesis_tail,
    _uniform_step,
    sphere_area,
)
from .specfun import (_check_cut, _kept, _mult_table, _recurrence, eigenvalue,
                      wigner_radial_table)
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
        self.values = np.array(self.values, dtype=complex)  # a copy: zeroed below
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
        return _eig_table(self.grid, self.L_max)


def _check_spectrum(u, name):
    """Refuse (TypeError) a u, called `name` in the message, that is not a
    SpectralField."""
    if not isinstance(u, SpectralField):
        raise TypeError(f"{name} must be a SpectralField, got {type(u).__name__}")


def _spectral_weights(grid: Grid, L_max: int):
    return _mult_table(L_max, grid.d)[:, None] * grid.w_lam[None, :]


def _eig_table(grid: Grid, L_max: int):
    """`SpectralField.eig()` of the spectra with L_max + 1 bands on grid."""
    ells = np.arange(L_max + 1)
    eig = eigenvalue(ells[:, None], grid.lam[None, :], grid.d)
    eig[:, grid.izero] = 1.0
    return eig


# |lam| rows per kernel block: one block is (rows, L+1, n_rho) float64,
# about 4 MB at 65 bands x 256 radii; a kept_kernels() scope keeps all of
# them (8 blocks, 24.7 MB, for the default grid at L = 64)
_LAM_BLOCK = 32


def _lam_blocks(grid: Grid, L_max):
    """The kernel blocks of both directions: yields (K, sl), K the
    (L+1, rows, p) table of K_ell at the lam of the ascending lam slice sl
    and at the first p radii, past which every entry of the block is 0.
    Every lam but lam = 0 (izero) is in one slice.

    K is even in lam, so `wigner_radial_table` builds it on the half
    |lam| = dlam m, m = 1..n_s/2, _LAM_BLOCK rows at a time (kept in a
    `kept_kernels()` scope).  A block is yielded for the rows izero - m
    (the table reversed, as a view) and then for the rows izero + m (a
    contiguous lam slice; m = n_s/2 has no +lam row), the order
    `_even_in_lam` relies on.

    K is exactly 0 at the radii where e^{-|lam| rho^2} is below the floor
    `specfun._FLOOR`, and for the ascending rho these form a tail that is
    longest at the largest |lam|.  A block is therefore built and
    contracted on the radii before the first zero of its smallest |lam| row
    only; on the default 256 x 512 grid that skips 28 % of the kernel
    entries.  A NaN or inf sample at such a radius (or, for the inverse, a
    coefficient in a lam column of such a block) therefore reaches only the
    frequencies whose kernel is nonzero there: the forward output at the
    other |lam| and the inverse's cut radii stay finite, where a product
    with the exact-zero kernel would have made them NaN.  The cut radii are
    never built, so the grid's largest argument 2 |lam|max r_max^2 goes
    through `specfun._check_cut` before the first block.
    """
    n_s, izero = grid.n_s, grid.izero
    _check_cut(L_max, grid.d, 2.0 * np.abs(grid.lam).max() * grid.rho[-1] ** 2)
    for m0 in range(1, izero + 1, _LAM_BLOCK):
        m1 = min(m0 + _LAM_BLOCK, izero + 1)
        lam = np.abs(grid.lam[izero - np.arange(m0, m1)])
        p = np.count_nonzero(wigner_radial_table(0, lam[0], grid.rho, grid.d))
        K = _kept(lambda: ("lam", grid.d, L_max, lam.tobytes(), grid.rho[:p].tobytes()),
                  lambda: wigner_radial_table(L_max, lam[:, None], grid.rho[None, :p], grid.d))
        yield K[:, ::-1], slice(izero - m1 + 1, izero - m0 + 1)
        pos = slice(izero + m0, min(izero + m1, n_s))
        yield K[:, :pos.stop - pos.start], pos


def _forward_samples(grid: Grid, values, L_max):
    """Sampled forward: samples (..., n_rho, n_s) -> coefficients (..., L+1, n_s).

    The s-FFT goes into one new buffer, in its own column order, and
    `_forward_fft` contracts it: that buffer and the output are the only
    sample-sized arrays a call makes.
    """
    return _forward_fft(grid, np.fft.fft(values, axis=-1), L_max)


def _fft_columns(sl, n):
    """The FFT columns of the ascending lam slice sl, which lies on one side
    of lam = 0 (column n): the fftshift swaps the two halves of the axis."""
    return slice(sl.start - n, sl.stop - n) if sl.start > n else slice(sl.start + n, sl.stop + n)


def _analysis(grid: Grid, F, L_max, roll=0):
    """The forward's block body over F (B, n_rho, n_s), the s-FFT of the
    samples in FFT column order, which it only reads: returns
    analyse(K, sl), the coefficients (L+1, rows, B) of the kernel block
    (K, sl) of `_lam_blocks`, those of np.roll(F, roll, axis=0), as a view of
    its scratch that the next block overwrites.

    The s-analysis factor (`fields._analysis_phase`, the left operand as in
    s_analysis) times the block's FFT columns on its p radii, times the
    radial weights, is gathered into a scratch (p, rows, B): the fftshift
    and the factor cost no sample-sized array.  One np.matmul with K
    (rows, L+1, p) writes the coefficients into a second scratch,
    (L+1, rows, B), where they are divided by the multiplicities.  The batch
    indices are the innermost gemm columns, and complex data is read as
    interleaved float64, so the real kernel sees the real and imaginary
    parts of every batch index as 2B columns.  A scratch keeps the lam rows
    of each radius (or band) together, so every copy moves (rows, B) tiles.
    A gemm column's bytes can depend on its place among the columns, so a
    roll is gathered, not applied to the output.
    """
    B, c, n = len(F), _analysis_phase(grid), grid.izero
    # (gemm columns, rows of F) of np.roll(F, roll, axis=0)
    parts = [(slice(roll, B), slice(0, B - roll))]
    if roll:
        parts.append((slice(0, roll), slice(B - roll, B)))
    mults = _mult_table(L_max, grid.d)[:, None, None]
    rows = min(_LAM_BLOCK, n)
    X = np.empty((grid.n_rho, rows, B), dtype=complex)
    Z = np.empty((L_max + 1, rows, B), dtype=complex)
    Xf, Zf = X.view(float), Z.view(float)

    def analyse(K, sl):
        r, p = K.shape[1:]
        for to, rows_of_F in parts:
            np.multiply(c[sl, None], F[rows_of_F, :p, _fft_columns(sl, n)].transpose(1, 2, 0),
                        out=X[:p, :r, to])
        X[:p, :r] *= grid.w_radial[:p, None, None]
        np.matmul(K.transpose(1, 0, 2), Xf[:p, :r].transpose(1, 0, 2),
                  out=Zf[:, :r].transpose(1, 0, 2))
        Z[:, :r] /= mults
        return Z[:, :r]

    return analyse


def _synthesis(grid: Grid, n_bands, B):
    """The inverse's block body: returns (f, synthesise), f the one C-ordered
    output (B, n_rho, n_s), whose lam = 0 column is 0, and
    synthesise(K, sl, theta) the step that writes the samples of the
    coefficients theta (B, L+1, rows) of the kernel block (K, sl) into f.
    After the last block, `fields._synthesis_tail` finishes f in place.

    The coefficients times w(lam) = (2/pi)^d |lam|^d are gathered into a
    scratch (L+1, rows, B), one np.matmul with K^T writes the samples on the
    first p radii into a second one, (n_rho, rows, B), whose other radii
    are 0, and these, times the s-synthesis phase, are copied straight into
    their ifftshift columns of f.
    """
    d, n = grid.d, grid.izero
    w = (2.0**d / np.pi**d) * np.abs(grid.lam) ** d
    phase = _synthesis_phase(grid)
    f = np.empty((B, grid.n_rho, grid.n_s), dtype=complex)
    f[..., 0] = 0.0  # the ifftshift column of lam = 0
    rows = min(_LAM_BLOCK, n)
    X = np.empty((n_bands, rows, B), dtype=complex)
    Z = np.empty((grid.n_rho, rows, B), dtype=complex)
    Xf, Zf = X.view(float), Z.view(float)

    def synthesise(K, sl, theta):
        r, p = K.shape[1:]
        np.multiply(theta.transpose(1, 2, 0), w[sl, None], out=X[:, :r])
        Z[p:, :r] = 0.0
        np.matmul(K.transpose(1, 2, 0), Xf[:, :r].transpose(1, 0, 2),
                  out=Zf[:p, :r].transpose(1, 0, 2))
        Z[:, :r] *= phase[sl, None]
        np.copyto(f[..., _fft_columns(sl, n)].transpose(1, 2, 0), Z[:, :r])

    return f, synthesise


def _forward_fft(grid: Grid, F, L_max, roll=0):
    """The forward from F (..., n_rho, n_s), the s-FFT of the samples in FFT
    column order, which it only reads; with a roll, F is (B, n_rho, n_s) and
    the output is that of np.roll(F, roll, axis=0), gathered in that order.
    Each kernel block's coefficients (`_analysis`) are copied into their lam
    columns of the batch-major output (B, L+1, n_s).
    """
    batch = F.shape[:-2]
    F = F.reshape((-1,) + F.shape[-2:])
    out = np.empty(F.shape[:1] + (L_max + 1, grid.n_s), dtype=complex)
    out[..., grid.izero] = 0.0
    analyse = _analysis(grid, F, L_max, roll)
    for K, sl in _lam_blocks(grid, L_max):
        np.copyto(out[..., sl].transpose(1, 2, 0), analyse(K, sl))
    return out.reshape(batch + out.shape[1:])


def _even_in_lam(grid: Grid, table):
    """table(sl), a table of the ascending lam slice sl (last axis) that is
    even in lam, evaluated once per |lam| block of a `_multiplier_pass`:
    `_lam_blocks` yields each block at -lam just before its mirror at +lam,
    which reads the first's table reversed (a view, one column shorter
    where lam = -pi/h_s has no twin)."""
    n, last = grid.izero, [slice(0, 0), None]

    def at(sl):
        if sl.start - n == n - (last[0].stop - 1):  # the mirror of the last block
            return last[1][..., ::-1][..., :sl.stop - sl.start]
        last[:] = sl, table(sl)
        return last[1]

    return at


def _identity(theta, sl):
    """The identity multiplier: a `_multiplier_pass` with it is the inverse
    of a spectrum, or forward then inverse of a radial field."""
    return theta


def _multiplier_pass(u, L_max, multiplier, batch=()):
    """The one synthesis of the package: a diagonal multiplier of the
    spectrum of u and the inverse, in one pass over the kernel blocks.
    Returns (the spectrum, samples), the samples (*batch, n_rho, n_s) being,
    bit for bit, those of the inverse of the multiplier applied to the whole
    spectrum.

    u is a SpectralField, whose columns are read as they are and which is
    returned as the spectrum (its band count is its shape; L_max is not
    read), or a RadialField, analysed at L_max, an int in [0, ELL_MAX]: per
    block, its s-FFT columns go through the forward's block body
    (`_analysis`, B = 1), so the spectrum returned is forward(u, L_max).

    multiplier(theta, sl) maps the coefficients theta (L+1, rows) of the
    ascending lam slice sl to (*batch, L+1, rows) without reading other
    columns, as every multiplier of the package does on its own table
    sliced to sl.  Per block of `_lam_blocks`, the multiplied block is
    synthesised by the inverse's block body (`_synthesis`, B =
    prod(batch)) before the next block's table is built: each table is
    built once, and no spectrum of the batch is made.  A radial field's
    s-FFT is taken into the output, so for either kind of u the output is
    the only sample-sized array a pass makes.
    """
    grid = u.grid
    radial = not isinstance(u, SpectralField)
    if radial:
        _check_int("L_max", L_max, 0, ELL_MAX)
        theta = np.empty((L_max + 1, grid.n_s), dtype=complex)
        theta[:, grid.izero] = 0.0
    else:
        theta, L_max = u.values, u.L_max
    out, synthesise = _synthesis(grid, L_max + 1, int(np.prod(batch)))
    if radial:
        # the s-FFT is taken into the output's first slice: a block's
        # synthesis overwrites there only the FFT columns its analysis has read
        F = np.fft.fft(u.values, axis=-1, out=out[0] if len(out) else None)
        F[:, 0] = 0.0  # lam = 0, which no block reads: the output's 0 there
        analyse = _analysis(grid, F[None], L_max)
    for K, sl in _lam_blocks(grid, L_max):
        if radial:
            np.copyto(theta[:, sl, None], analyse(K, sl))
        block = multiplier(theta[:, sl], sl)
        synthesise(K, sl, block.reshape((len(out),) + block.shape[-2:]))
    _synthesis_tail(grid, out)
    spectrum = SpectralField(grid, theta) if radial else u
    return spectrum, out.reshape(batch + out.shape[1:])


def forward(f, L_max: int = 64, grid: Grid | None = None) -> SpectralField:
    """Radial spectral transform; the quadrature follows the type of f.

    A RadialField: the Y-integral uses the grid's Gauss-Legendre rule and
    the s-integral the exact uniform-grid DFT.

    A GaussianClosure (or a list or tuple of them): lam-adapted generalized
    Gauss-Laguerre quadrature — for each lam the substitution
    u = 2|lam| rho^2 turns the radial integral into a weight e^{-pu} u^{d-1}
    integral with p = a/(2|lam|) + 1/2, which the rule integrates exactly
    for every band ell <= 2 n_quad - 1, with n_quad = max(48, L_max // 2 + 8).
    `grid` supplies the frequency lattice.  L_max is an int in [0, ELL_MAX].
    """
    _check_int("L_max", L_max, 0, ELL_MAX)
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
        tab = np.empty((L_max + 1,) + x.shape)  # (L+1, n_live, n_quad)
        tab[0] = 1.0  # the unscaled L_ell^{(d-1)}: the weight holds e^{-u}
        for _ in _recurrence(L_max, x, d, tab[0], lambda k: tab[k]):
            pass
        rad = (tab * wq[None, None, :]).sum(-1) * p[None, :] ** (-d) * pref[None, :]
        theta[:, live] += (c.phat(grid.lam[live])[None, :] * rad) / mults[:, None]
    return SpectralField(grid, theta)


def inverse(sf: SpectralField) -> RadialField:
    """Synthesis back to the radial grid (exact inverse on the model space):
    the `_multiplier_pass` of sf with the identity."""
    _check_spectrum(sf, "the input of inverse")
    return RadialField(sf.grid, _multiplier_pass(sf, None, _identity)[1])


def spectral_inner(sf: SpectralField, sg: SpectralField) -> complex:
    """Spectral pairing sum_ell mult int theta_f conj(theta_g) |lam|^d dlam."""
    if not sf.grid.compatible(sg.grid):
        raise ValueError("spectral fields live on different grids")
    if sf.L_max != sg.L_max:
        raise ValueError("band sizes differ")
    return complex(np.sum(sf.weights() * sf.values * np.conj(sg.values)))


def sobolev_norm(sf: SpectralField, sigma: float) -> float:
    """Homogeneous Sobolev norm of order sigma via the spectral multiplier.

    ||f||_sigma^2 = (2^{d-1}/pi^{d+1}) sum_ell mult int
                    (4 |lam| (2 ell + d))^sigma |theta|^2 |lam|^d dlam,
    so sigma = 0 recovers the physical L^2 norm.  A sigma that is not
    finite, or whose power leaves the float range, is refused, and so is a
    sigma < 0 on a spectrum with values next to lam = 0 (`_eig_power`).
    """
    _check_finite("sigma", sigma)
    power = _eig_power(sf, sigma, f"sobolev_norm(sigma={sigma!r})")
    dens = sf.weights() * np.abs(sf.values) ** 2
    val = (dens * power).sum() / plancherel_constant(sf.grid.d)
    return float(np.sqrt(val))


# ln of the largest float and of the smallest normal one, each moved inward
# by 1e-12 of itself, so a power that passes the test of its logs is a normal
# float whatever the rounding of the log
_LOG_MAX = np.log(np.finfo(float).max) * (1.0 - 1e-12)
_LOG_TINY = np.log(np.finfo(float).tiny) * (1.0 - 1e-12)


def _eig_power(sf: SpectralField, power: float, what: str):
    """sf.eig() ** power, for the operation `what`, which a refusal names.

    Refused with ValueError when the power at the table's smallest or
    largest eigenvalue is not a normal float (inf, or below the normal
    range), decided from the logs of the two before any power is taken;
    the table's other entries lie between them (the lam = 0 column's 1
    too).  Then a negative power is refused by `_refuse_near_lam0`."""
    eig = sf.eig()
    lo, hi = eig.min(), eig.max()
    logs = power * np.log([lo, hi])
    if not (logs.min() >= _LOG_TINY and logs.max() <= _LOG_MAX):
        raise ValueError(f"{what}: the eigenvalues {lo:.6g} to {hi:.6g} to the "
                         f"power {power!r} leave the normal float range")
    if power < 0:
        _refuse_near_lam0(sf, what)
    return eig ** power


def _refuse_near_lam0(sf: SpectralField, what: str):
    """The one refusal of negative powers of the eigenvalue (`_eig_power`,
    the half-waves' `propagators._omega`): ValueError naming `what` and up
    to 8 (ell, lam) bins when a value of sf in the two bins next to lam = 0,
    where eig is smallest, is above 1e-12 of sf's largest in modulus.  For
    d <= 3 it refuses all that a 1e-12 share of the weighted mass there did,
    at any L_max <= ELL_MAX: a spectrum refused by that rule and passed by
    this one needs binom(L_max + d, d) > 2^{d-1} 1e12, at d = 4 from L_max =
    3720."""
    n = sf.grid.izero
    ells, ks = np.nonzero(np.abs(sf.values[:, n - 1:n + 2]) > 1e-12 * np.abs(sf.values).max())
    if ells.size:
        bins = ", ".join(f"ell={l} lambda={sf.grid.lam[n - 1 + k]:+.6g}"
                         for l, k in zip(ells[:8], ks[:8]))
        more = f" and {ells.size - 8} more" if ells.size > 8 else ""
        raise ValueError(f"{what}: spectral mass next to the lambda = 0 line ({bins}{more}); "
                         "a negative power of the eigenvalue is ill-conditioned there, so "
                         "it is refused (localize away from lambda = 0)")


@dataclass(frozen=True)
class LocalizerSpec:
    """Smooth spectral localizer at scale Lambda.

    kind="ball": profile 1 on eigenvalue <= Lambda^2/2, 0 above Lambda^2.
    kind="ring": supported on eigenvalue in [Lambda^2/4, Lambda^2].
    Another kind, or a scale that is not finite and > 0 or whose square
    (the profile divides by it) is not a normal float, is refused.
    """

    kind: str = "ball"
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("ball", "ring"):
            raise ValueError(f"unknown localizer kind {self.kind!r}")
        _check_positive("scale", self.scale)
        try:  # in Python floats, which raise past the float range
            square = float(self.scale) ** 2
        except OverflowError:
            square = inf
        if not sys.float_info.min <= square <= sys.float_info.max:
            raise ValueError(f"scale**2 must be a normal float, got scale={self.scale!r}")

    def profile(self, eig):
        # a ratio past the float range goes on as inf, where both profiles are 0
        with np.errstate(over="ignore"):
            x = np.asarray(eig, dtype=float) / self.scale**2
            return ball_profile(x) if self.kind == "ball" else ring_profile(x)


def localize(sf: SpectralField, loc: LocalizerSpec) -> SpectralField:
    return SpectralField(sf.grid, _localized(sf.values, sf.eig(), loc))


def _localized(theta, eig, loc: LocalizerSpec):
    """The localizer's multiplier: theta times loc's profile of the
    eigenvalues eig, on any columns of the spectrum (`localize`, and per
    block in a `_multiplier_pass`)."""
    return theta * loc.profile(eig)


def sobolev_multiplier(sf: SpectralField, sigma: float) -> SpectralField:
    """Diagonal derivative multiplier: theta -> eig^{sigma/2} theta.

    Commutes exactly with localize (both are diagonal in (ell, lam));
    sobolev_norm(sf, sigma) equals sobolev_norm(sobolev_multiplier(sf, sigma), 0),
    or both refuse sigma: when it is not finite, when eig^(sigma/2) leaves the
    float range, or when it is < 0 on values next to lam = 0 (`_eig_power`).
    """
    _check_finite("sigma", sigma)
    return SpectralField(sf.grid, sf.values * _eig_power(
        sf, sigma / 2.0, f"sobolev_multiplier(sigma={sigma!r})"))


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
    weight dt, so discrete Parseval is exact for t-compact packets).  L_max
    is an int in [0, ELL_MAX].  The t-FFT, its factor dt e^{-i t_0 alpha} and
    the s-FFT run in FFT order in one buffer, the only sample-sized array
    besides the output; the forward gathers the alpha rows ascending.
    """
    _check_int("L_max", L_max, 0, ELL_MAX)
    grid = u.grid
    t = grid.t_nodes
    n_t = t.size
    dt = _uniform_step(t, "transform_D")
    m = np.arange(n_t) - n_t // 2
    alpha = 2.0 * np.pi * m / (n_t * dt)
    # the t-FFT, its factor and the s-FFT in FFT order, in one buffer; the
    # forward gathers the alpha rows in ascending order (the fftshift)
    buf = np.fft.fft(u.values, axis=0)
    buf *= np.fft.ifftshift(dt * np.exp(-1j * t[0] * alpha))[:, None, None]
    np.fft.fft(buf, axis=-1, out=buf)
    return SpectralFieldD(grid, alpha, _forward_fft(grid, buf, L_max, roll=n_t // 2))


def spectral_inner_D(a: SpectralFieldD, b: SpectralFieldD) -> complex:
    """sum_alpha dalpha sum_ell mult int theta conj(theta') |lam|^d dlam."""
    if not a.grid.compatible(b.grid):
        raise ValueError("spectral fields live on different grids")
    if a.values.shape != b.values.shape or not np.array_equal(a.alpha, b.alpha):
        raise ValueError("joint spectra differ in alpha nodes or band sizes")
    dal = a.alpha[1] - a.alpha[0]
    w = _spectral_weights(a.grid, a.L_max)
    return complex(dal * np.sum(w[None] * a.values * np.conj(b.values)))
