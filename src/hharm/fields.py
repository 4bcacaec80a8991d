"""Grids, field containers, and physical-side field operations.

Geometry conventions
--------------------
A point of H^d is (Y, s) with Y in R^{2d} and s central; the group law is
(Y, s)(Y', s') = (Y + Y', s + s' + 2 sigma(Y, Y')) with the symplectic form
sigma((y, eta), (y', eta')) = <eta, y'> - <eta', y>.  Haar measure is
Lebesgue, dilations act by delta_a(Y, s) = (aY, a^2 s), and the homogeneous
dimension is Q = 2d + 2.

Radial fields depend on (|Y|, s) only and are stored as complex arrays of
shape (n_rho, n_s) on a tensor grid:

* rho: Gauss-Legendre nodes on [0, r_max].  The radial measure weight
  |S^{2d-1}| rho^{2d-1} is folded into ``Grid.w_radial`` so that
  sum(w_radial * h_s * f) approximates the full group integral.
* s: uniform nodes s_j = -S + j h_s on the circle of circumference 2S.  The
  conjugate frequencies are lam_k = pi k / S for k in [-n_s/2, n_s/2); the
  lam = 0 column is excluded from the model space throughout (fields are
  treated modulo their s-mean; see ``transform``).

``s_analysis``/``s_synthesis`` implement the uniform-grid Fourier pair

    theta_k = h_s * sum_j exp(-i s_j lam_k) f_j
    f_j     = (1 / 2S) * sum_k exp(+i s_j lam_k) theta_k

which are exact mutual inverses (discrete Parseval holds with weights h_s
and 1/(2S) = dlam/(2 pi)).
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import factorial, inf, isfinite, pi
from numbers import Real

import numpy as np
from scipy.special import roots_legendre

from .specfun import _FLOOR

_LOG_FLOOR = np.log(_FLOOR)

__all__ = [
    "Grid",
    "RadialField",
    "SpaceTimeField",
    "MixedNormSpec",
    "GaussianClosure",
    "random_packet",
    "sample_packets",
    "s_analysis",
    "s_synthesis",
    "mixed_norm",
    "l2_norm",
    "l2_inner",
    "s_translate",
    "dilate",
    "sphere_area",
]


def _check_int(name, v, low, high=None):
    """Refuse v unless it is an int (a bool is not one) >= low and, given a
    high, <= high."""
    if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if v < low:
        raise ValueError(f"{name} must be an int >= {low}, got {v!r}")
    if high is not None and v > high:
        raise ValueError(f"{name} must be <= {high}, got {v!r}")


def _check_positive(name, v):
    """Refuse v unless it is a real number (a bool is not one), finite and > 0:
    bounded by the largest float, so an int past the float range is refused."""
    if not (isinstance(v, Real) and not isinstance(v, bool) and 0 < v <= sys.float_info.max):
        raise ValueError(f"{name} must be finite and positive, got {v!r}")


def _uniform_step(t, who):
    """The step of t, a ladder of >= 2 evenly spaced times; `who` names the
    caller in the refusal."""
    if t.size < 2:
        raise ValueError(f"{who} needs at least two time nodes")
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=0, atol=1e-12 * abs(dt)):
        raise ValueError(f"{who} needs uniform time nodes")
    return dt


def sphere_area(d: int) -> float:
    """Surface area of the unit sphere in R^{2d}: 2 pi^d / (d-1)!."""
    return 2.0 * np.pi**d / factorial(d - 1)


# The largest number of radial nodes a Grid takes.  Its Gauss-Legendre rule
# costs about n_rho^2 to build (about 2 s at this size, 3.1 s at 10000), and
# an HHFLD header or a config may ask for any size.
N_RHO_MAX = 8192

# The largest number of s nodes a Grid takes (the package's own grids use
# up to 2048): a config has no other bound on n_s, and a field costs
# n_rho * n_s * 16 bytes.
N_S_MAX = 2**16

# The largest L_max (the package asks for up to 4096; the multiplicity table is
# a Python list) and n_t (the package uses up to 65) the library and a config take.
ELL_MAX = 4096
N_T_MAX = 4096

# The fields of a Grid that `_check_geometry` rules on, in its order.
_GEOMETRY = ("d", "n_rho", "r_max", "n_s", "s_half")


def _check_geometry(d, n_rho, r_max, n_s, s_half):
    """The one rule for which (d, n_rho, r_max, n_s, s_half) make a Grid,
    decided from the five numbers before any array is built; a refusal is a
    ValueError, never an OverflowError.  Past each number's own check, the
    radial weights |S^{2d-1}| rho^(2d-1) w_rho (at most their value at rho =
    w_rho = r_max), h_s = 2 s_half / n_s > 0 and the spectral weight
    dlam |lam|^d at the largest |lam| = pi (n_s/2) / s_half must be finite,
    n_s at most N_S_MAX, and the largest radial weight a normal float.  That
    weight is at least the weights' mean, >= 2 |S^{2d-1}| (r_max/2)^{2d} / n_rho
    (the rule sums the convex (1 + x)^{2d-1} to >= 2), and r_max is refused where
    that bound is below 2^-1021, within a factor 2 of the exact edge (a test
    checks it).  The weights scale as r_max^{2d} and the nodes as r_max, so an
    accepted grid has r_max >= 2^-512 and normal nodes (a test checks r_max up
    to 2.5 times the smallest node's edge).  A zero first weight alone (d = 100)
    is kept."""
    _check_int("d", d, 1)
    _check_int("n_rho", n_rho, 1, N_RHO_MAX)
    _check_int("n_s", n_s, 1)
    if n_s % 2:
        raise ValueError("n_s must be even")
    _check_positive("r_max", r_max)
    _check_positive("s_half", s_half)
    # in Python numbers, which overflow to inf or raise, and never warn
    dd, nn, r, sh = int(d), int(n_s), float(r_max), float(s_half)
    try:  # pi^d, (d-1)! or r^(2d-1) past a float
        radial = r * sphere_area(dd) * r ** (2 * dd - 1)
    except OverflowError:
        radial = inf
    if not isfinite(radial):
        raise ValueError(f"radial weights overflow at d={d}, r_max={r_max}")
    try:  # n_s or |lam|^d past a float
        h_s, spectral = 2.0 * sh / nn, pi / sh * (pi * (nn // 2) / sh) ** dd
    except OverflowError:
        h_s = spectral = inf
    if not (0 < h_s < inf and isfinite(spectral)):
        raise ValueError(f"s-axis step or spectral weights not finite and > 0 at "
                         f"d={d}, n_s={n_s}, s_half={s_half}")
    if nn > N_S_MAX:
        raise ValueError(f"n_s must be <= {N_S_MAX}, got {n_s!r}")
    # the factor 2 covers rounding, of a subnormal (r/2)^{2d} that passes too
    if not sphere_area(dd) * (r / 2) ** (2 * dd) * 2.0 / int(n_rho) >= 2 * sys.float_info.min:
        raise ValueError(f"radial weights underflow at d={d}, n_rho={n_rho}, r_max={r_max}: "
                         f"the largest is not a normal float")


@lru_cache(maxsize=16)
def _legendre_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only and shared by
    every grid with n radial nodes (`Grid.with_times` rebuilds its grid) and
    by the quadrature rules of the checks in `hharm.verify`.

    `hharm verify all` asks for 12 sizes (12, 16, 48, 64, 80, 96, 128, 192,
    256, 700, 3200 and 4096 nodes, 142 KB in all), so 16 entries leave room
    for a user's grid beside them.  Callers only read a rule and build new arrays
    from it."""
    x, w = roots_legendre(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_rule(a0, a1, n):
    """The n-node Gauss-Legendre rule on [a0, a1] from `_legendre_rule`: the one
    interval rule of the grids, the surface pairings and the checks.  On [0, b]
    it is 0.5 b (x + 1) and 0.5 b w, bit for bit (+ 0.0 keeps a positive node)."""
    xq, wq = _legendre_rule(n)
    return 0.5 * (a1 - a0) * (xq + 1.0) + a0, 0.5 * (a1 - a0) * wq


@dataclass
class Grid:
    """Tensor grid for radial fields on H^d (optionally with a time axis).

    `_check_geometry` decides which (d, n_rho, r_max, n_s, s_half) build, and
    t_nodes must be a 1-D array of finite ints or floats (checked before any
    cast).  Anything else is refused with ValueError before the Gauss-Legendre
    rule is built; `RunConfig`, the HHFLD reader and every evolution rely on it.
    rho and w_rho are `_gauss_rule` on [0, r_max], and w_radial is the one place
    the package applies the surface factor |S^{2d-1}| rho^(2d-1).
    """

    d: int = 1
    n_rho: int = 256
    r_max: float = 12.0
    n_s: int = 512
    s_half: float = 40.0
    t_nodes: np.ndarray | None = None

    rho: np.ndarray = field(init=False, repr=False)
    w_rho: np.ndarray = field(init=False, repr=False)
    w_radial: np.ndarray = field(init=False, repr=False)
    s: np.ndarray = field(init=False, repr=False)
    lam: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_geometry(self.d, self.n_rho, self.r_max, self.n_s, self.s_half)
        if self.t_nodes is not None:
            t = np.asarray(self.t_nodes)  # its own dtype: no cast before the check
            if t.ndim != 1 or t.dtype.kind not in "iuf" or not np.isfinite(t).all():
                raise ValueError("t_nodes must be a 1-D array of finite times")
            self.t_nodes = t.astype(float)
        self.rho, self.w_rho = _gauss_rule(0.0, self.r_max, int(self.n_rho))
        self.w_radial = self.w_rho * sphere_area(self.d) * self.rho ** (2 * self.d - 1)
        self.h_s = 2.0 * self.s_half / self.n_s
        self.s = -self.s_half + self.h_s * np.arange(self.n_s)
        k = np.arange(self.n_s) - self.n_s // 2
        self.lam = np.pi * k / self.s_half
        self.dlam = np.pi / self.s_half
        self.izero = self.n_s // 2

    @property
    def w_lam(self):
        """Spectral measure weights dlam * |lam|^d with the lam=0 bin zeroed."""
        w = self.dlam * np.abs(self.lam) ** self.d
        w[self.izero] = 0.0
        return w

    @property
    def w_t(self):
        """Trapezoid weights on the time axis."""
        t = self.t_nodes
        if t is None:
            raise ValueError("grid has no time axis")
        if t.size == 1:
            return np.ones(1)
        w = np.zeros_like(t)
        dt = np.diff(t)
        w[:-1] += dt / 2
        w[1:] += dt / 2
        return w

    def with_times(self, t_nodes) -> "Grid":
        """This grid on the time axis t_nodes, refused as `Grid` refuses it."""
        return replace(self, t_nodes=t_nodes)

    def compatible(self, other: "Grid") -> bool:
        """Same geometry and time axis (so true for the grid itself)."""
        a, b = self.t_nodes, other.t_nodes
        return (all(getattr(self, k) == getattr(other, k) for k in _GEOMETRY)
                and (a is b or a is not None and b is not None and np.array_equal(a, b)))


@dataclass
class RadialField:
    """Radial field sampled on a Grid; values has shape (n_rho, n_s)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n_rho, self.grid.n_s):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n_rho}, {self.grid.n_s})"
            )


@dataclass
class SpaceTimeField:
    """Time-indexed radial field; values has shape (n_t, n_rho, n_s)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.grid.t_nodes is None:
            raise ValueError("grid must carry t_nodes")
        # C order: reductions such as mixed_norm sum in memory order
        self.values = np.ascontiguousarray(self.values, dtype=complex)
        expect = (len(self.grid.t_nodes), self.grid.n_rho, self.grid.n_s)
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape}, expected {expect}")


# ---------------------------------------------------------------------------
# Uniform s-axis Fourier pair
# ---------------------------------------------------------------------------

def s_analysis(grid: Grid, values):
    """h_s-weighted DFT of the last axis onto the ascending frequencies grid.lam."""
    fw = np.fft.fftshift(np.fft.fft(values, axis=-1), axes=-1)
    # phase accounts for the grid origin at s = -S
    phase = np.exp(1j * grid.s_half * grid.lam)
    return grid.h_s * phase * fw


def s_synthesis(grid: Grid, theta):
    """Exact inverse of s_analysis, on the last axis.

    Returns one new C-ordered complex array of theta's shape, whatever
    theta's memory layout: theta times the phase is written straight into
    the ifftshift positions of that buffer (two half-slices), and
    `_synthesis_tail` finishes it in place.  No other batch-sized array is
    made.  The inverse transform writes its own buffer the same way, one
    kernel block at a time, and finishes it with the same tail.
    """
    phase = _synthesis_phase(grid)
    n = grid.izero  # ifftshift on an even axis swaps its two halves
    buf = np.empty(theta.shape, dtype=complex)
    np.multiply(theta[..., n:], phase[n:], out=buf[..., :n])
    np.multiply(theta[..., :n], phase[:n], out=buf[..., n:])
    return _synthesis_tail(grid, buf)


def _synthesis_phase(grid: Grid):
    """e^{-i S lam}, the factor of s_synthesis for the grid origin at s = -S;
    column k of its input, times this, goes to column (k - n_s/2) mod n_s."""
    return np.exp(-1j * grid.s_half * grid.lam)


def _synthesis_tail(grid: Grid, buf):
    """The inverse FFT of the last axis of buf, then / h_s, both in place;
    buf holds the phased, ifftshifted input.  Returns buf."""
    np.fft.ifft(buf, axis=-1, out=buf)
    buf /= grid.h_s
    return buf


# ---------------------------------------------------------------------------
# Mixed norms
# ---------------------------------------------------------------------------

_AXIS_ORDER_RADIAL = {"Y": 0, "s": 1}
_AXIS_ORDER_SPACETIME = {"t": 0, "Y": 1, "s": 2}


@dataclass(frozen=True)
class MixedNormSpec:
    """Iterated-norm request, axes listed outermost first.

    ``MixedNormSpec((2, np.inf), ("Y", "s"))`` is the L^2_Y of the sup over s.
    Exponents must be >= 1 or inf.
    """

    exponents: tuple
    axes: tuple

    def __post_init__(self):
        if len(self.exponents) != len(self.axes):
            raise ValueError("exponents and axes must align")
        for p in self.exponents:
            if not (p == np.inf or p >= 1):
                raise ValueError(f"exponent {p} out of range")
        if len(set(self.axes)) != len(self.axes):
            raise ValueError("repeated axis")


def _axis_weights(f, name):
    g = f.grid
    if name == "Y":
        return g.w_radial
    if name == "s":
        return np.full(g.n_s, g.h_s)
    if name == "t":
        return g.w_t
    raise ValueError(f"unknown axis {name!r}")


def _reduce(f, spec: MixedNormSpec, table):
    """|f.values| reduced over the axes of `spec`, numbered by `table`,
    innermost (last listed) first; axes not in `spec` stay."""
    work = np.abs(f.values)
    # numeric axis ids shrink as we reduce
    live = dict(table)
    for p, name in zip(reversed(spec.exponents), reversed(spec.axes)):
        ax = live.pop(name)
        if p == np.inf:
            work = work.max(axis=ax)
        else:
            w = _axis_weights(f, name)
            shp = [1] * work.ndim
            shp[ax] = w.size
            # in place: |f.values| is the one field-sized array a norm makes
            work **= p
            work *= w.reshape(shp)
            work = work.sum(axis=ax) ** (1.0 / p)
        for other in live:
            if live[other] > ax:
                live[other] -= 1
    return work


def mixed_norm(f, spec: MixedNormSpec) -> float:
    """Iterated L^p norm of a RadialField or SpaceTimeField.

    Reduction runs innermost-first.  Finite exponents use the grid quadrature
    weights (Gauss-Legendre in Y with the surface factor, uniform in s,
    trapezoid in t); p = inf takes the grid maximum.
    """
    table = _AXIS_ORDER_SPACETIME if isinstance(f, SpaceTimeField) else _AXIS_ORDER_RADIAL
    if set(spec.axes) != set(table):
        raise ValueError(f"norm must cover axes {tuple(table)} exactly, got {spec.axes}")
    return float(_reduce(f, spec, table))


def l2_norm(f):
    """L^2(dY ds) norm of a RadialField, as a float.

    For a SpaceTimeField, the (n_t,) array of the L^2(dY ds) norms at each
    time, each reduced in the same order as the norm of that time's
    RadialField (s, then Y), so the two agree bit for bit.
    """
    spec = MixedNormSpec((2, 2), ("Y", "s"))
    if isinstance(f, SpaceTimeField):
        return _reduce(f, spec, {"Y": 1, "s": 2})
    return mixed_norm(f, spec)


def l2_inner(f, g):
    """Group-measure inner product (f, g) = int f conj(g) of two RadialFields,
    as a complex.

    For two SpaceTimeFields, the (n_t,) array of the inner products at each
    time, each summed in the same order as that time's RadialField pair, so
    the two agree bit for bit.  Fields of different kinds or shapes, or on
    grids that are not compatible, are refused with ValueError.
    """
    if type(f) is not type(g) or f.values.shape != g.values.shape:
        raise ValueError("l2_inner pairs two fields of one kind and shape")
    if not f.grid.compatible(g.grid):
        raise ValueError("fields live on different grids")
    gr = f.grid
    prod = gr.w_radial[:, None] * f.values * np.conj(g.values)
    if isinstance(f, SpaceTimeField):
        return prod.sum(axis=(1, 2)) * gr.h_s
    return complex(np.sum(prod) * gr.h_s)


# ---------------------------------------------------------------------------
# Translations / dilations
# ---------------------------------------------------------------------------

def s_translate(f: RadialField, s0: float) -> RadialField:
    """Central translation: output(Y, s) = input(Y, s - s0).

    Shifts by integer multiples of h_s are exact circular rolls; other shifts
    go through the trigonometric interpolant (spectrum times e^{-i s0 lam}),
    which is exact on the trigonometric model space and L^2-isometric.
    A shift that is not finite in steps of h_s is refused with ValueError.
    """
    g = f.grid
    steps = s0 / g.h_s
    if not isfinite(steps):
        raise ValueError(f"shift s0 must be finite in steps of h_s, got s0={s0!r}")
    if abs(steps - round(steps)) < 1e-12:
        return RadialField(g, np.roll(f.values, round(steps), axis=1))
    theta = s_analysis(g, f.values)
    theta *= np.exp(-1j * s0 * g.lam)[None, :]
    return RadialField(g, s_synthesis(g, theta))


def _barycentric_resample(grid: Grid, values, targets):
    # Polynomial interpolation is stable on the Gauss-Legendre node family.
    # For Gauss nodes the barycentric weights are (-1)^j sqrt((1-x_j^2) w_j)
    # up to a common factor that cancels in the quotient, so no O(n^2)
    # difference products are needed; x_j and w_j are the `_legendre_rule`
    # entries the grid's nodes were mapped from.  The contraction is an
    # einsum rather than a gemm so the reduction order is fixed and the
    # resample is bitwise reproducible run to run.
    x, w = _legendre_rule(grid.n_rho)
    bw = np.sqrt((1.0 - x**2) * w)
    bw[1::2] *= -1.0
    diff = targets[:, None] - grid.rho[None, :]
    exact = diff == 0.0
    with np.errstate(divide="ignore"):
        coef = bw[None, :] / diff
    hit = exact.any(axis=1)
    coef[hit] = 0.0
    coef[exact] = 1.0
    num = np.einsum("tj,js->ts", coef, values)
    return num / coef.sum(axis=1)[:, None]


def dilate(f: RadialField, a: float) -> RadialField:
    """Dilated field f(delta_a (Y,s)) = f(aY, a^2 s) on the same grid.

    Arguments that land outside the computational box are treated as 0 (the
    box is not periodized under dilation); if more than 1% of the squared
    mass of f lives in the truncated region a warning is issued.

    Resampling: trigonometric interpolation in s, barycentric polynomial
    interpolation on the Gauss-Legendre nodes in rho.  A factor a that is
    not finite and > 0 is refused with ValueError.
    """
    _check_positive("dilation factor a", a)
    g = f.grid
    if a > 1:
        mass = np.abs(f.values) ** 2 * g.w_radial[:, None] * g.h_s
        lost = mass[:, np.abs(g.s) > g.s_half / a**2].sum()
        lost += mass[g.rho > g.r_max / a, :].sum()
        total = np.sum(mass)
        if total > 0 and lost / total > 0.01:
            warnings.warn(
                f"dilate: {100 * lost / total:.1f}% of squared mass truncated",
                stacklevel=2,
            )
    # s axis: evaluate the trig interpolant at a^2 s_j (0 outside the box)
    s_targets = a**2 * g.s
    inside = np.abs(s_targets) < g.s_half
    theta = s_analysis(g, f.values)
    kernel = np.exp(1j * np.outer(s_targets[inside], g.lam)) / (2 * g.s_half)
    vals_s = np.zeros_like(f.values)
    # einsum, not a gemm: BLAS threading is free to reorder the reduction,
    # which breaks bitwise reproducibility of verification reports
    vals_s[:, inside] = np.einsum("rk,tk->rt", theta, kernel)
    # rho axis: barycentric resample at a * rho_i (0 beyond r_max)
    r_targets = a * g.rho
    r_inside = r_targets <= g.r_max
    out = np.zeros_like(f.values)
    out[r_inside, :] = _barycentric_resample(g, vals_s, r_targets[r_inside])
    return RadialField(g, out)


# ---------------------------------------------------------------------------
# Analytic closures for test data
# ---------------------------------------------------------------------------
#
# A closure's samples are exact 0 where |amp| e^{-a rho^2} e^{-b (s-s0)^2}
# is below the normal-range floor `specfun._FLOOR` = 2^-969, so their
# Gaussian tails hold no subnormal float for the transforms and restrictions
# to run on.  The cut is decided from the exponents
# log|amp| - a rho^2 - b (s-s0)^2 before the 2-D product is formed, and the
# product is formed only where it is kept.  Sampled data from elsewhere is
# used as given: subnormal values in it are not flushed.

@dataclass
class GaussianClosure:
    """Separable packet amp * e^{-a rho^2} * e^{-b (s-s0)^2} e^{i omega s}.

    Sampled (`values`, `sample`), it is exact 0 wherever
    |amp| e^{-a rho^2} e^{-b (s-s0)^2} < 2^-969, the floor that keeps the
    samples in the normal floating-point range (see the section comment).

    Carries its own s-Fourier transform and, through the Laplace transform of
    the Laguerre family, the exact spectral coefficients: with
    phat(lam) = amp sqrt(pi/b) exp(-(lam-omega)^2/(4b)) exp(-i (lam-omega) s0),

        coefficients(ell, lam) = phat(lam) pi^d (a-|lam|)^ell / (a+|lam|)^{ell+d}.
    """

    d: int = 1
    a: float = 1.0
    b: float = 0.5
    omega: float = 5.0
    s0: float = 0.0
    amp: complex = 1.0

    def values(self, rho, s):
        rho = np.asarray(rho, dtype=float)
        s = np.asarray(s, dtype=float)
        out = np.empty(np.broadcast_shapes(rho.shape, s.shape), dtype=complex)
        return self._fill(rho, s, out)[()]

    def sample(self, grid: Grid) -> RadialField:
        buf = np.empty((grid.n_rho, grid.n_s), dtype=complex)
        return RadialField(grid, self._sample_into(grid, buf))

    def _sample_into(self, grid: Grid, buf):
        """`values` on the grid, written into buf (n_rho, n_s)."""
        return self._fill(grid.rho[:, None], grid.s, buf)

    def _fill(self, rho, s, out):
        """`values` at broadcast rho and s, written into out: the products
        amp e^{-a rho^2}, times e^{-b (s-s0)^2}, times e^{i omega s} on the
        entries above the floor, and 0 on the others.  A NaN exponent keeps
        its entry, so NaN parameters give NaN samples."""
        e_r = -self.a * rho**2
        with np.errstate(divide="ignore"):  # amp = 0 cuts every entry
            log_r = np.log(abs(self.amp)) + e_r
        e_s = -self.b * (s - self.s0) ** 2
        keep = ~(e_s < _LOG_FLOOR - log_r)
        # complex before the masked product: a real one would be cast
        # through the complex `out` and warn
        radial = np.asarray(self.amp * np.exp(e_r), dtype=complex)
        out.fill(0.0)
        np.multiply(radial, np.exp(e_s), out=out, where=keep)
        out *= np.exp(1j * self.omega * s)
        return out

    def phat(self, lam):
        lam = np.asarray(lam, dtype=float)
        return (
            self.amp
            * np.sqrt(np.pi / self.b)
            * np.exp(-((lam - self.omega) ** 2) / (4 * self.b))
            * np.exp(-1j * (lam - self.omega) * self.s0)
        )

    def coefficients(self, ells, lam):
        """Exact spectral coefficients on an (ells x lam) product grid."""
        ells = np.asarray(ells)[:, None]
        lam = np.asarray(lam, dtype=float)[None, :]
        al = np.abs(lam)
        rad = np.pi**self.d * (self.a - al) ** ells / (self.a + al) ** (ells + self.d)
        return self.phat(lam[0])[None, :] * rad


def random_packet(rng, d=1, n_terms=2, omega_range=(4.0, 6.5)):
    """Seeded sum of modulated Gaussian closures, each centred at s0 = 0.

    The default carrier range [4, 6.5] keeps essentially no spectral mass on
    the lam = 0 line; pass a low omega_range for data meant to overlap
    small frequencies (for example the sphere's rays lam <= 1/d).
    """
    parts = []
    for _ in range(n_terms):
        parts.append(
            GaussianClosure(
                d=d,
                a=rng.uniform(0.7, 1.5),
                b=rng.uniform(0.4, 0.8),
                omega=rng.uniform(*omega_range) * rng.choice([-1.0, 1.0]),
                amp=rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.uniform()),
            )
        )
    return parts


def sample_packets(parts, grid: Grid) -> RadialField:
    """The sum of the closures' samples on the grid, through one scratch buffer."""
    out = np.zeros((grid.n_rho, grid.n_s), dtype=complex)
    buf = np.empty_like(out)
    for p in parts:
        out += p._sample_into(grid, buf)
    return RadialField(grid, out)
