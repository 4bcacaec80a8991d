"""Each correctness check of the benchmark passes on the program's outputs and
fails on a corrupted copy of them.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py

Kept out of the Tier-1 `testpaths`; takes about half a minute.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from pathlib import Path

os.environ.setdefault("HH_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import hharm  # noqa: E402,F401  reads HH_THREADS before numpy starts its pools
import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hharm.config import RunConfig  # noqa: E402
from hharm.verify import run_suites  # noqa: E402

import checks  # noqa: E402
from workloads import FieldPipeline, RestrictionSweep, read_hhfld_values  # noqa: E402


def rewrite_payload(path, change):
    """Apply `change` to the values of an HHFLD file in place."""
    raw = Path(path).read_bytes()
    (hlen,) = struct.unpack("<I", raw[6:10])
    values = read_hhfld_values(path)
    values = change(values.copy())
    Path(path).write_bytes(raw[:10 + hlen] + np.ascontiguousarray(values, "<c16").tobytes())


def perturb_one(values, rel):
    idx = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    values[idx] += rel * np.abs(values).max()
    return values


@pytest.fixture(scope="module")
def field(tmp_path_factory):
    """A field-pipeline workload that has run one packet and one single-band op."""
    wl = FieldPipeline(7, tmp_path_factory.mktemp("field"))
    packet = wl.make_input()
    for _ in range(2):
        wl.make_input()
    single = wl.make_input()
    assert single.t_final is not None and packet.t_final is None
    return wl, packet, single


def run_and_corrupt(wl, inp, name, change):
    # the datum file is rewritten by make_input, so restore it for run()
    from hharm.container import write_hhfld
    from hharm.fields import RadialField

    write_hhfld(wl.paths["in"], RadialField(wl.grid, inp.datum))
    wl.run(inp)
    wl.check(inp)  # the untouched outputs pass
    rewrite_payload(wl.paths[name], change)
    with pytest.raises(checks.CheckFailed):
        wl.check(inp)


def shift_last_slice(values):
    values[-1] = np.roll(values[-1], 1, axis=-1)
    return values


@pytest.mark.parametrize("name, change", [
    ("spec", lambda v: perturb_one(v, 1e-6)),
    ("inv", lambda v: np.roll(v, 1, axis=-1)),
    ("schrodinger", lambda v: perturb_one(v, 1e-3)),
    ("wave", shift_last_slice),
    ("wave", lambda v: v * np.nan),
])
def test_field_packet_outputs(field, name, change):
    wl, packet, _ = field
    run_and_corrupt(wl, packet, name, change)


def test_field_single_band_shifted_by_one_cell(field):
    wl, _, single = field
    run_and_corrupt(wl, single, "schrodinger", lambda v: np.roll(v, 1, axis=-1))


def test_wave_check_rejects_slices_in_wrong_order():
    lam = np.linspace(-4, 4, 16)
    theta0 = np.ones((3, 16), dtype=complex)
    times = np.linspace(0.0, 0.5, 5)
    weights = 1.0 + np.arange(5) / 5
    slices = checks.wave_multiplier(times, lam, 2, 1) * theta0
    checks.check_wave("wave", np.tensordot(weights, slices, axes=1), theta0, times,
                      weights, lam, 8, 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_wave("wave", np.tensordot(weights, slices[::-1], axes=1), theta0,
                          times, weights, lam, 8, 1)


def shift_in_place(values):
    values[...] = np.roll(values, 1, axis=-1)


@pytest.mark.parametrize("target, change", [
    ("extend_sigma", shift_in_place),
    ("restrict_sigma", lambda v: perturb_one(v, 1e-6)),
    ("restrict_sphere", lambda v: perturb_one(v, 1e-6)),
    ("extend_sphere", shift_in_place),
])
def test_restriction_adjoints(tmp_path, target, change):
    wl = RestrictionSweep(3, tmp_path)
    inp = wl.make_input()
    wl.run(inp)
    wl.check(inp)
    u, rs, vals, ev, rsp, esp = wl.out
    change({"extend_sigma": ev.values, "restrict_sigma": rs.theta_plus,
            "restrict_sphere": rsp.theta_minus, "extend_sphere": esp.values}[target])
    with pytest.raises(checks.CheckFailed):
        wl.check(inp)


@pytest.fixture(scope="module")
def report_text():
    return run_suites(RunConfig(suites=("hardy", "wave-energy"))).to_json()


def test_report_passes(report_text):
    assert checks.check_report("report", report_text, report_text) > 0


def test_report_with_one_check_flipped(report_text):
    doc = json.loads(report_text)
    doc["results"][0]["passed"] = False
    with pytest.raises(checks.CheckFailed):
        checks.check_report("report", json.dumps(doc, indent=2, sort_keys=True) + "\n")


def test_report_bytes_differ_between_passes(report_text):
    changed = report_text.replace('"passed": true', '"passed":  true', 1)
    with pytest.raises(checks.CheckFailed):
        checks.check_report("report", changed, report_text)
