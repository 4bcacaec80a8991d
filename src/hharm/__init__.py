"""Numerical radial harmonic analysis on the Heisenberg group.

Band transforms, spectral Schrodinger/wave propagators, frequency-surface
measures with restriction/extension operators, twisted convolution, and a
verification harness over all of it.
"""

from __future__ import annotations

import os as _os

# HH_THREADS caps the BLAS/OpenMP pools.  It must take effect before numpy
# initializes its backends, hence before any submodule import below.
_n = _os.environ.get("HH_THREADS")
if _n:
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        _os.environ.setdefault(_var, _n)
del _os, _n

__version__ = "0.1.0"

from .config import ConfigError, RunConfig
from .container import HHFLDError, read_hhfld, write_hhfld
from .fields import (
    GaussianClosure,
    Grid,
    MixedNormSpec,
    RadialField,
    SpaceTimeField,
    dilate,
    l2_inner,
    l2_norm,
    mixed_norm,
    random_packet,
    s_translate,
    sample_packets,
)
from .propagators import (
    CauchyDataS,
    CauchyDataW,
    admissible,
    duhamel,
    schrodinger_evolve,
    transport_reference,
    wave_energy_series,
    wave_evolve,
)
from .report import CheckResult, VerificationReport
from .restriction import (
    SigmaMeasure,
    SigmaValues,
    SphereMeasure,
    SphereValues,
    extend_sigma,
    extend_sphere,
    g_function,
    g_sigma,
    restrict_sigma,
    restrict_sphere,
    sigma_norm_sq,
    sigma_pair,
    sphere_norm_sq,
    sphere_pair,
)
from .specfun import eigenvalue, multiplicity, wigner_radial
from .transform import (
    LocalizerSpec,
    SpectralField,
    SpectralFieldD,
    forward,
    inverse,
    localize,
    plancherel_constant,
    sobolev_multiplier,
    sobolev_norm,
    spectral_inner,
    transform_D,
)
from .twisted import (
    PlanarField,
    PlanarGrid,
    kernel_field,
    operator_norm,
    tn_apply,
    twisted_convolve,
)
from .verify import SUITES, run_suites

__all__ = [
    "__version__",
    "ConfigError",
    "RunConfig",
    "HHFLDError",
    "read_hhfld",
    "write_hhfld",
    "GaussianClosure",
    "Grid",
    "MixedNormSpec",
    "RadialField",
    "SpaceTimeField",
    "dilate",
    "l2_inner",
    "l2_norm",
    "mixed_norm",
    "random_packet",
    "s_translate",
    "sample_packets",
    "CauchyDataS",
    "CauchyDataW",
    "admissible",
    "duhamel",
    "schrodinger_evolve",
    "transport_reference",
    "wave_energy_series",
    "wave_evolve",
    "CheckResult",
    "VerificationReport",
    "SigmaMeasure",
    "SigmaValues",
    "SphereMeasure",
    "SphereValues",
    "extend_sigma",
    "extend_sphere",
    "g_function",
    "g_sigma",
    "restrict_sigma",
    "restrict_sphere",
    "sigma_norm_sq",
    "sigma_pair",
    "sphere_norm_sq",
    "sphere_pair",
    "eigenvalue",
    "multiplicity",
    "wigner_radial",
    "LocalizerSpec",
    "SpectralField",
    "SpectralFieldD",
    "forward",
    "inverse",
    "localize",
    "plancherel_constant",
    "sobolev_multiplier",
    "sobolev_norm",
    "spectral_inner",
    "transform_D",
    "PlanarField",
    "PlanarGrid",
    "kernel_field",
    "operator_norm",
    "tn_apply",
    "twisted_convolve",
    "SUITES",
    "run_suites",
]
