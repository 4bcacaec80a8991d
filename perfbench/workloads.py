"""The benchmark's workloads: seeded inputs, one timed operation, its checks.

Each workload is a closed loop with one client: `make_input()` builds the
next input (not timed), `run()` is the timed operation and returns the time
of each of its steps, and `check()` tests the outputs (not timed).  Input
generation and checks call into hharm only while the tracer is paused, so a
traced run counts the operations alone.

Importing this module imports hharm; the caller sets HH_THREADS first.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import struct
import time
from pathlib import Path

import numpy as np

# Layer functions are called through their modules, so that the rebinding
# done by tracing.Tracer.install() reaches the calls made from here.
from hharm import cli, propagators, restriction, transform, verify
from hharm.config import RunConfig
from hharm.container import write_hhfld
from hharm.fields import Grid, RadialField, random_packet, sample_packets
from hharm.propagators import CauchyDataS
from hharm.restriction import SigmaMeasure, SigmaValues, SphereMeasure
from hharm.transform import SpectralField
from hharm.windows import bump

import checks
from tracing import VERIFY_SUITES

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CONFIG = ROOT / "configs" / "default.json"


class OpFailed(Exception):
    """A CLI command exited with a nonzero code."""


def read_hhfld_values(path):
    """The values of an HHFLD file, parsed apart from hharm.container."""
    raw = Path(path).read_bytes()
    if raw[:5] != b"HHFLD":
        raise checks.CheckFailed(f"{path}: bad magic")
    (hlen,) = struct.unpack("<I", raw[6:10])
    header = json.loads(raw[10:10 + hlen])
    return np.frombuffer(raw[10 + hlen:], dtype="<c16").reshape(header["shape"])


class Workload:
    ops_per_round = 1
    warm_up = True  # run one untimed operation during set-up

    def __init__(self, seed, workdir, tracer=None):
        self.rng = np.random.default_rng(seed)
        self.workdir = Path(workdir)
        self.tracer = tracer

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def untraced(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()


# ---------------------------------------------------------------------------
# field-pipeline
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class FieldInput:
    theta_ref: np.ndarray  # expected forward output, (L_max+1, n_s)
    datum: np.ndarray  # the radial field written to the input file
    t_final: float | None = None  # --t, for single-band data
    cells_per_step: int = 0  # whole s-cells moved per time step


class FieldPipeline(Workload):
    """transform fwd, transform inv, propagate schrodinger, propagate wave.

    Rounds of four inputs: three random Gaussian packets, then one
    single-band datum whose final time moves it by whole s-cells.
    """

    name = "field-pipeline"
    ops_per_round = 4

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.cfg = RunConfig.from_json(DEFAULT_CONFIG)
        self.grid = self.cfg.grid()
        self.count = 0
        self.paths = {k: str(self.workdir / f"{k}.hhfld")
                      for k in ("in", "spec", "inv", "schrodinger", "wave")}

    def make_input(self):
        g, L, d = self.grid, self.cfg.L_max, self.cfg.d
        self.count += 1
        with self.untraced():
            if self.count % 4:
                # carriers |omega| >= 5 keep the s-mean, which the transform
                # drops, from moving the CLI's Plancherel ratio by more than
                # ~3e-9 (the default range reaches 5.6e-7; see README.md)
                parts = random_packet(self.rng, d=d, omega_range=(5.0, 6.5))
                f = sample_packets(parts, g)
                ref = sum(p.coefficients(np.arange(L + 1), g.lam) for p in parts)
                inp = FieldInput(ref, f.values)
            else:
                ell = int(self.rng.integers(0, 9))
                lo = self.rng.uniform(0.4, 1.0)
                theta = np.zeros((L + 1, g.n_s), dtype=complex)
                theta[ell] = bump(g.lam, lo, lo + self.rng.uniform(0.8, 1.6))
                f = transform.inverse(SpectralField(g, theta))
                m = int(self.rng.integers(1, 4))
                # shift 4 t (2 ell + d) at t = T i / (n_t - 1) is i * m cells
                t_final = (self.cfg.n_t - 1) * m * g.h_s / (4.0 * (2 * ell + d))
                inp = FieldInput(theta, f.values, t_final, m)
            write_hhfld(self.paths["in"], f)
        return inp

    def _cli(self, step, argv):
        out = io.StringIO()
        with self.span(f"cli.{step}"), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            code = cli.main(argv + ["--config", str(DEFAULT_CONFIG)])
        if code != 0:
            raise OpFailed(f"{step}: exit code {code}: {out.getvalue()[-300:]}")

    def run(self, inp):
        p = self.paths
        t_arg = [] if inp.t_final is None else ["--t", repr(inp.t_final)]
        argvs = {
            "transform_fwd": ["transform", "--dir", "fwd", "--in", p["in"], "--out", p["spec"]],
            "transform_inv": ["transform", "--dir", "inv", "--in", p["spec"], "--out", p["inv"]],
            "propagate_schrodinger": ["propagate", "--eq", "schrodinger", "--in", p["in"],
                                      "--out", p["schrodinger"]] + t_arg,
            "propagate_wave": ["propagate", "--eq", "wave", "--u1", "zero", "--in", p["in"],
                               "--out", p["wave"]] + t_arg,
        }
        steps = {}
        for step, argv in argvs.items():
            t0 = time.perf_counter()
            self._cli(step, argv)
            steps[step] = time.perf_counter() - t0
        return steps

    def _analyse(self, values):
        return transform.forward(RadialField(self.grid, values), self.cfg.L_max).values

    def check(self, inp):
        g, cfg = self.grid, self.cfg
        with self.untraced():
            theta = read_hhfld_values(self.paths["spec"])
            checks.check_spectrum("forward vs closed form", theta, inp.theta_ref, g.izero,
                                  checks.TOL_CLOSED_FORM)

            f_inv = read_hhfld_values(self.paths["inv"])
            checks.check_finite("inverse", f_inv)
            checks.check_spectrum("inverse re-analysed", self._analyse(f_inv), theta, g.izero,
                                  checks.TOL_REANALYSIS)

            u = read_hhfld_values(self.paths["schrodinger"])
            checks.check_norms("schrodinger L2 norm", u, g.w_radial, g.h_s)
            if inp.t_final is not None:
                checks.check_rolled("schrodinger single-band shift", u, inp.datum,
                                    inp.cells_per_step)

            w = read_hhfld_values(self.paths["wave"])
            checks.check_finite("wave", w)
            t_final = cfg.t_final if inp.t_final is None else inp.t_final
            times = np.linspace(0.0, t_final, cfg.n_t)
            weights = 1.0 + np.arange(times.size) / times.size
            mix = self._analyse(np.tensordot(weights, w, axes=1))
            checks.check_wave("wave re-analysed", mix, inp.theta_ref, times, weights, g.lam,
                              g.izero, cfg.d)


# ---------------------------------------------------------------------------
# restriction-sweep
# ---------------------------------------------------------------------------

# the shape of the sigma suite's refinement loop in hharm.verify
SIGMA_SHAPE = {"n_rho": 96, "n_s": 256, "L_max": 12, "n_alpha": 12}
SIGMA_TIMES = np.linspace(0.0, 0.25, 5)


@dataclasses.dataclass
class RestrictionInput:
    grid: Grid
    datum: RadialField
    v_plus: np.ndarray  # values extended by extend_sigma, (n_alpha, L_max+1)
    v_minus: np.ndarray


class RestrictionSweep(Workload):
    """forward, schrodinger_evolve, restrict/extend sigma, restrict/extend sphere.

    Every operation draws a new grid geometry (r_max, s_half), so nothing
    keyed on geometry repeats between operations.
    """

    name = "restriction-sweep"

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        self.sigma = SigmaMeasure()
        self.sphere = SphereMeasure()

    def make_input(self):
        rng = self.rng
        with self.untraced():
            grid = Grid(d=1, n_rho=SIGMA_SHAPE["n_rho"], r_max=rng.uniform(10.0, 14.0),
                        n_s=SIGMA_SHAPE["n_s"], s_half=rng.uniform(32.0, 48.0))
            datum = sample_packets(random_packet(rng, d=1, omega_range=(0.0, 0.3)), grid)
        shape = (SIGMA_SHAPE["n_alpha"], SIGMA_SHAPE["L_max"] + 1)
        vp = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        vm = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return RestrictionInput(grid, datum, vp, vm)

    def run(self, inp):
        t0 = time.perf_counter()
        sf = transform.forward(inp.datum, SIGMA_SHAPE["L_max"])
        u = propagators.schrodinger_evolve(CauchyDataS(sf), SIGMA_TIMES)
        rs = restriction.restrict_sigma(u, self.sigma, L_max=SIGMA_SHAPE["L_max"],
                            n_alpha=SIGMA_SHAPE["n_alpha"])
        vals = SigmaValues(self.sigma, 1, rs.alpha, rs.alpha_weights, inp.v_plus, inp.v_minus)
        ev = restriction.extend_sigma(vals, inp.grid.with_times(SIGMA_TIMES))
        t1 = time.perf_counter()
        rsp = restriction.restrict_sphere(inp.datum, self.sphere)
        esp = restriction.extend_sphere(rsp, inp.grid)
        t2 = time.perf_counter()
        self.out = (u, rs, vals, ev, rsp, esp)
        return {"sigma": t1 - t0, "sphere": t2 - t1}

    def check(self, inp):
        u, rs, vals, ev, rsp, esp = self.out
        g = inp.grid
        for name, arr in (("evolution", u.values), ("extend_sigma", ev.values),
                          ("restrict_sigma", rs.theta_plus), ("extend_sphere", esp.values)):
            checks.check_finite(name, arr)
        checks.check_sigma_adjoint("sigma adjoint", u.values, ev.values, SIGMA_TIMES,
                                   g.w_radial, g.h_s, rs, vals, self.sigma.window, g.d)
        checks.check_sphere_adjoint("sphere adjoint", inp.datum.values, esp.values,
                                    g.w_radial, g.h_s, rsp, self.sphere.radius, g.d)


# ---------------------------------------------------------------------------
# verify-suites
# ---------------------------------------------------------------------------

class VerifySuites(Workload):
    """`hharm verify` at seed 42 over VERIFY_SUITES, in-process, one report.

    A pass takes about 25 s.  Rather than an untimed warm-up pass, a round
    is two timed passes: the first is the cold pass a fresh `hharm verify`
    process pays, and the second must repeat its report byte for byte.
    """

    name = "verify-suites"
    ops_per_round = 2
    warm_up = False

    def __init__(self, seed, workdir, tracer=None):
        super().__init__(seed, workdir, tracer)
        # as `hharm verify all --seed 42` builds it, with the suite list cut
        self.cfg = dataclasses.replace(RunConfig(), suites=VERIFY_SUITES, seed=42)
        self.first = None

    def make_input(self):
        return self.cfg

    def run(self, cfg):
        t0 = time.perf_counter()
        self.text = verify.run_suites(cfg).to_json()
        return {"verify": time.perf_counter() - t0}

    def check(self, cfg):
        checks.check_report("verify report", self.text, self.first)
        if self.first is None:
            self.first = self.text


WORKLOADS = {w.name: w for w in (FieldPipeline, RestrictionSweep, VerifySuites)}
