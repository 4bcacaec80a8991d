"""Spans around the calls into each hharm layer, recorded from outside.

`Tracer.install()` rebinds every function named in `TARGETS` in each hharm
module that holds it (for example `hharm.cli.forward` and
`hharm.propagators.inverse`), and the suite functions in
`hharm.verify.SUITES`.  No source file of the program changes.  Spans stay
in memory as `[name, start, end, parent]` and are written out by `dump()`.

`layer_metrics()` turns the spans of a run into the per-layer metrics of
BENCHMARK.json, each a total per operation.  A layer's self time is its span
minus the time covered by its direct child spans; calls run on one thread,
so the children never overlap.

This module imports nothing from hharm or numpy at import time: the
benchmark's parent process reads `PER_LAYER` without loading the program.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import os
import sys
import time

# layer -> public functions whose calls get a span
TARGETS = {
    "fields": ("s_analysis", "s_synthesis"),
    "container": ("read_hhfld", "write_hhfld"),
    "specfun": ("wigner_radial",),
    "transform": ("forward", "inverse"),
    "propagators": ("schrodinger_evolve", "wave_evolve", "wave_energy_series"),
    "restriction": (
        "restrict_sigma",
        "extend_sigma",
        "restrict_sphere",
        "extend_sphere",
        "g_function",
    ),
    "twisted": ("twisted_convolve",),
}

# Suites the verify-suites workload runs, in the order of hharm.verify.
# `plancherel` and `sigma` are left out; perfbench/README.md says why.
VERIFY_SUITES = (
    "roundtrip",
    "transport",
    "bernstein",
    "hausdorff-young",
    "gfun",
    "sphere",
    "est2",
    "orth",
    "hardy",
    "strichartz-scaling",
    "wave-energy",
    "decay-probe",
    "translate-identity",
)

CLI_STEPS = ("transform_fwd", "transform_inv", "propagate_schrodinger", "propagate_wave")

# (metric, unit, kind, span name); kinds: "ms"/"s" total time, "self_ms"
# self time, "calls" span count, "bytes" summed payload, all per operation
PER_LAYER = (
    [(f"cli.{s}_ms", "ms", "ms", f"cli.{s}") for s in CLI_STEPS]
    + [
        ("fields.s_analysis_ms", "ms", "ms", "fields.s_analysis"),
        ("fields.s_synthesis_ms", "ms", "ms", "fields.s_synthesis"),
        ("transform.forward_self_ms", "ms", "self_ms", "transform.forward"),
        ("transform.inverse_self_ms", "ms", "self_ms", "transform.inverse"),
        ("transform.forward_calls", "count", "calls", "transform.forward"),
        ("transform.inverse_calls", "count", "calls", "transform.inverse"),
        ("propagators.inverse_calls_per_evolve", "count", "per_evolve", "transform.inverse"),
        ("propagators.schrodinger_evolve_self_ms", "ms", "self_ms",
         "propagators.schrodinger_evolve"),
        ("propagators.wave_evolve_self_ms", "ms", "self_ms", "propagators.wave_evolve"),
        ("propagators.wave_energy_series_ms", "ms", "ms", "propagators.wave_energy_series"),
        ("container.read_hhfld_ms", "ms", "ms", "container.read_hhfld"),
        ("container.write_hhfld_ms", "ms", "ms", "container.write_hhfld"),
        ("container.bytes_written", "B", "bytes", "container.write_hhfld"),
        ("restriction.restrict_sigma_ms", "ms", "ms", "restriction.restrict_sigma"),
        ("restriction.extend_sigma_ms", "ms", "ms", "restriction.extend_sigma"),
        ("restriction.restrict_sphere_ms", "ms", "ms", "restriction.restrict_sphere"),
        ("restriction.extend_sphere_ms", "ms", "ms", "restriction.extend_sphere"),
        ("restriction.g_function_ms", "ms", "ms", "restriction.g_function"),
        ("restriction.g_function_calls", "count", "calls", "restriction.g_function"),
        ("twisted.twisted_convolve_ms", "ms", "ms", "twisted.twisted_convolve"),
        ("twisted.twisted_convolve_calls", "count", "calls", "twisted.twisted_convolve"),
        ("specfun.wigner_radial_ms", "ms", "ms", "specfun.wigner_radial"),
        ("specfun.wigner_radial_calls", "count", "calls", "specfun.wigner_radial"),
    ]
    + [(f"verify.{s}_s", "s", "s", f"verify.{s}") for s in VERIFY_SUITES]
)

_EVOLVES = ("propagators.schrodinger_evolve", "propagators.wave_evolve")


class Tracer:
    """In-memory span recorder; spans form a tree through their parent index."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, bytes]
        self._stack = []
        self._paused = False
        self._undo = []

    @contextlib.contextmanager
    def span(self, name):
        if self._paused:
            yield
            return
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside, e.g. while the benchmark checks outputs."""
        was, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = was

    def _wrap(self, name, fn):
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as rec:
                out = fn(*args, **kwargs)
                if rec is not None and name == "container.write_hhfld":
                    rec[4] = os.path.getsize(args[0])
                return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Rebind the target functions in every loaded hharm module."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hharm" or n.startswith("hharm."))]
        for layer, names in TARGETS.items():
            home = importlib.import_module(f"hharm.{layer}")
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, orig))
        suites = importlib.import_module("hharm.verify").SUITES
        for sname, fn in list(suites.items()):
            suites[sname] = self._wrap(f"verify.{sname}", fn)
            self._undo.append((suites, sname, fn))

    def uninstall(self):
        for holder, attr, orig in reversed(self._undo):
            if isinstance(holder, dict):
                holder[attr] = orig
            else:
                setattr(holder, attr, orig)
        self._undo.clear()

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "bytes"],
                       "spans": self.spans}, fh)


def layer_metrics(spans, n_ops):
    """Per-operation totals for every metric in PER_LAYER (0 if never called)."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total, selft, calls, nbytes, per_evolve = {}, {}, {}, {}, 0
    for i, (name, start, end, parent, size) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        selft[name] = selft.get(name, 0.0) + (end - start - child_time[i])
        calls[name] = calls.get(name, 0) + 1
        nbytes[name] = nbytes.get(name, 0) + size
        if name == "transform.inverse" and parent >= 0 and spans[parent][0] in _EVOLVES:
            per_evolve += 1
    evolves = sum(calls.get(n, 0) for n in _EVOLVES)
    out = {}
    for metric, unit, kind, span in PER_LAYER:
        if kind == "ms":
            v = 1e3 * total.get(span, 0.0) / n_ops
        elif kind == "s":
            v = total.get(span, 0.0) / n_ops
        elif kind == "self_ms":
            v = 1e3 * selft.get(span, 0.0) / n_ops
        elif kind == "calls":
            v = calls.get(span, 0) / n_ops
        elif kind == "bytes":
            v = nbytes.get(span, 0) / n_ops
        else:  # per_evolve
            v = per_evolve / evolves if evolves else 0.0
        out[metric] = {"value": v, "unit": unit}
    return out
