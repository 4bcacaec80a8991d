"""Command-line front end: transform / propagate / verify.

Exit codes: 0 success, 2 usage or input error, 3 tolerance breach,
4 refused precondition.  Reports are deterministic for a fixed config and
seed (wall time goes to stderr, never into the JSON).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

import numpy as np

from .config import ConfigError, RunConfig
from .container import HHFLDError, read_hhfld, write_hhfld
from .fields import ELL_MAX, RadialField, _check_int, l2_norm
from .propagators import (
    CauchyDataS,
    _check_paired,
    _schrodinger,
    _wave,
    schrodinger_evolve,
    transport_reference,
)
from .transform import (
    SpectralField,
    forward,
    inverse,
    plancherel_constant,
    spectral_inner,
)
from .verify import _single_band, run_suites

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_TOLERANCE = 3
EXIT_REFUSED = 4

__all__ = ["main", "EXIT_OK", "EXIT_USAGE", "EXIT_TOLERANCE", "EXIT_REFUSED"]


def _load_config(path) -> RunConfig:
    if path is None:
        return RunConfig()
    return RunConfig.from_json(path)


def _err(msg: str) -> None:
    print(f"hharm: {msg}", file=sys.stderr)


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------

def cmd_transform(args) -> int:
    cfg = _load_config(args.config)
    obj = read_hhfld(args.infile)
    if args.direction == "fwd":
        if not isinstance(obj, RadialField):
            raise HHFLDError("--dir fwd expects a radial-field container")
        sf = forward(obj, cfg.L_max)
        write_hhfld(args.out, sf)
        spectral = float(spectral_inner(sf, sf).real)
        physical = float(l2_norm(obj) ** 2)
        if physical == 0.0:  # a zero field has no ratio; its spectrum must vanish
            print(f"zero field: spectral energy {spectral:.12g}")
            if spectral != 0.0:
                _err("tolerance breach: a zero field has nonzero spectral energy")
                return EXIT_TOLERANCE
            return EXIT_OK
        ratio = spectral / physical
        const = plancherel_constant(obj.grid.d)
        rel = abs(ratio - const) / const
        print(f"plancherel ratio: {ratio:.12g}")
        print(f"constant pi^(d+1)/2^(d-1) at d={obj.grid.d}: {const:.12g}")
        print(f"relative error: {rel:.3e}")
        tol = 1e-6
        if not rel <= tol:  # a NaN ratio is a breach too
            _err(
                f"tolerance breach: {rel:.3e} > {tol:g} "
                f"(is the field band-limited to L_max={cfg.L_max}?)"
            )
            return EXIT_TOLERANCE
        return EXIT_OK
    if not isinstance(obj, SpectralField):
        raise HHFLDError("--dir inv expects a spectral container")
    f = inverse(obj)
    write_hhfld(args.out, f)
    print(f"inverse written: L2 norm {l2_norm(f):.12g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# propagate
# ---------------------------------------------------------------------------

def _spectrum(path, L_max, refusal):
    """The spectrum of the field in an HHFLD file: forward() of a radial field,
    a spectral one as read; another kind is refused (exit 2) with `refusal`."""
    obj = read_hhfld(path)
    if isinstance(obj, RadialField):
        return forward(obj, L_max)
    if isinstance(obj, SpectralField):
        return obj
    raise HHFLDError(refusal)


def cmd_propagate(args) -> int:
    cfg = _load_config(args.config)
    if args.t is not None:  # RunConfig refuses a bad --t as it does t_final
        cfg = dataclasses.replace(cfg, t_final=args.t)
    t_final = cfg.t_final
    times = np.linspace(0.0, t_final, cfg.n_t)
    cons_tol = 1e-10
    if args.eq == "schrodinger" and args.u1 is not None:
        raise ConfigError("--u1 applies to --eq wave")

    if args.transport_ell is not None:
        if args.eq != "schrodinger":
            raise ConfigError("--transport-ell applies to --eq schrodinger")
        if args.infile is not None:
            raise ConfigError("--transport-ell builds its own datum; it takes no --in")
        ell, d = args.transport_ell, cfg.d
        try:  # the band rule of L_max, before any array
            _check_int("--transport-ell", ell, 0, ELL_MAX)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        grid = cfg.grid()
        sf0 = _single_band(grid, ell, ell)
        u0 = inverse(sf0)
        st = schrodinger_evolve(CauchyDataS(sf0), times)
        shift = 4.0 * t_final * (2 * ell + d)
        ref = transport_reference(u0, ell, t_final)
        dev = l2_norm(RadialField(grid, st.values[-1] - ref.values)) / l2_norm(u0)
        print(f"transport mode: ell={ell} d={d} t={t_final:g}")
        print(f"expected s-shift 4*t*(2*ell+d) = {shift:g}")
        print(f"relative L2 deviation from the shifted profile: {dev:.3e}")
        if args.out:
            write_hhfld(args.out, st)
        tol = 1e-8
        if not dev <= tol:
            _err(f"tolerance breach: {dev:.3e} > {tol:g}")
            return EXIT_TOLERANCE
        return EXIT_OK

    if not args.infile:
        raise ConfigError("--in is required unless --transport-ell is given")
    # either kind of datum is evolved and synthesised in one pass over the
    # kernel blocks, which analyses a radial one at the config's L_max
    u0 = read_hhfld(args.infile)
    if not isinstance(u0, (RadialField, SpectralField)):
        raise HHFLDError("propagate expects a radial or spectral container as --in")
    L_max = cfg.L_max if isinstance(u0, RadialField) else u0.L_max

    if args.eq == "schrodinger":
        st = _schrodinger(u0, L_max, times)
        norms = l2_norm(st)
        drift = float(np.abs(norms / norms[0] - 1.0).max()) if norms[0] else 0.0
        print(f"free evolution over {times.size} times, t in [0, {t_final:g}]")
        print(f"L2 conservation drift: {drift:.3e}")
    else:
        if args.u1 in (None, "zero"):
            u1 = SpectralField(u0.grid, np.zeros((L_max + 1, u0.grid.n_s), dtype=complex))
            print("half-wave split: gamma_pm = u0_hat / 2 (velocity datum is zero)")
        else:  # a radial --u1 is forwarded at the band count of --in
            u1 = _spectrum(args.u1, L_max,
                           "--u1 expects 'zero' or a radial/spectral container")
        try:
            _check_paired(u1, u0.grid, L_max)
        except ValueError as exc:  # --u1 cannot be paired with --in
            raise HHFLDError(f"--u1 does not match --in: {exc}") from None
        st, energy = _wave(u0, u1, times)
        drift = float(np.abs(energy / energy[0] - 1.0).max()) if energy[0] else 0.0
        print(f"wave evolution over {times.size} times, t in [0, {t_final:g}]")
        print(f"energy conservation drift: {drift:.3e}")

    if args.out:
        write_hhfld(args.out, st)
        print(f"spacetime field written to {args.out}")
    if not drift <= cons_tol:  # a NaN drift is a breach too
        _err(f"tolerance breach: conservation drift {drift:.3e} > {cons_tol:g}")
        return EXIT_TOLERANCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    cfg = _load_config(args.config)
    overrides = {"suites": (args.suite,)}
    if args.seed is not None:
        overrides["seed"] = args.seed
    cfg = dataclasses.replace(cfg, **overrides)
    t0 = time.perf_counter()
    report = run_suites(cfg)
    wall = time.perf_counter() - t0
    for r in report.results:
        print(r.line(), file=sys.stderr)
    ok, total = report.counts()
    print(f"{ok}/{total} checks passed in {wall:.1f}s wall time "
          "(timing is reported here only, never in the JSON)", file=sys.stderr)
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if report.passed else EXIT_TOLERANCE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hharm",
        description="Radial harmonic analysis on the Heisenberg group: "
                    "transforms, propagators, verification suites.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("transform", help="forward/inverse transform of an HHFLD file")
    tr.add_argument("--dir", dest="direction", choices=("fwd", "inv"), required=True)
    tr.add_argument("--in", dest="infile", required=True, metavar="PATH")
    tr.add_argument("--out", required=True, metavar="PATH")
    tr.add_argument("--config", metavar="PATH")
    tr.set_defaults(func=cmd_transform)

    pr = sub.add_parser("propagate", help="evolve Cauchy data and check conservation")
    pr.add_argument("--eq", choices=("schrodinger", "wave"), required=True)
    pr.add_argument("--in", dest="infile", metavar="PATH")
    pr.add_argument("--u1", metavar="PATH|zero",
                    help="wave velocity datum (default: zero); --eq wave only")
    pr.add_argument("--t", type=float, default=None, help="final time")
    pr.add_argument("--transport-ell", type=int, default=None,
                    help="run the single-band transport demonstration at this band "
                         "(no --in)")
    pr.add_argument("--out", metavar="PATH")
    pr.add_argument("--config", metavar="PATH")
    pr.set_defaults(func=cmd_propagate)

    ve = sub.add_parser("verify", help="run verification suites, emit a JSON report")
    ve.add_argument("suite", help="suite name, SUITE/ROW (one row of a suite) or 'all'")
    ve.add_argument("--config", metavar="PATH")
    ve.add_argument("--seed", type=int, default=None)
    ve.add_argument("--out", metavar="PATH", help="report path (default: stdout)")
    ve.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except (ConfigError, HHFLDError) as exc:
        _err(str(exc))
        code = EXIT_USAGE
    except FileNotFoundError as exc:
        _err(f"missing file: {exc.filename}")
        code = EXIT_USAGE
    except ValueError as exc:
        _err(f"refused: {exc}")
        code = EXIT_REFUSED
    return code


if __name__ == "__main__":
    sys.exit(main())
