"""Benchmark for hharm: one workload per call, result as JSON on the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository.  The workloads are
described in perfbench/README.md; `restriction-sweep` runs by hand only and
is not listed in BENCHMARK.json, because its timings drift with the
machine's speed by more than the bounds allow.  Each workload runs in fresh
single-threaded processes (HH_THREADS=1, set before hharm is imported):

* with --trace 0, two processes that only set up (import hharm, generate
  inputs, one warm-up operation) and then one that sets up and runs whole
  rounds of operations until S seconds have passed.  The last line is
  {"correct", "attempted", "failed", "metrics"} with the end-to-end metrics:
  op_ms (median time of one operation), ops_per_s (operations per second of
  operation time), peak_rss_mb (the measuring process) and setup_s (median
  of the three set-ups).
* with --trace 1, one process that sets up, rebinds the hharm layers to
  record spans (perfbench/tracing.py), and runs as above.  The metrics are
  the per-layer totals per operation; the spans go to perfbench/out/.

Exit code 0 when the run finished; 1 when a process failed; 2 for bad
arguments or when the program's sources are missing.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("field-pipeline", "restriction-sweep", "verify-suites")
SETUP_ONLY_PROCESSES = 2
RUN_LIMIT_S = 175  # a whole run, all its processes included


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

def percentile_tail(samples):
    """(label, value) of the highest percentile with ten samples beyond it,
    or None below forty samples, where that percentile would be no tail."""
    n = len(samples)
    if n < 40:
        return None
    pct = int(100 * (n - 10) / n)
    return f"p{pct}", statistics.quantiles(samples, n=100)[pct - 1]


def check(wl, inp):
    """[] if the outputs of the last operation are correct, else [the reason]."""
    try:
        wl.check(inp)
    except Exception as exc:  # noqa: BLE001  unreadable output is wrong output
        return ["".join(traceback.format_exception_only(exc)).strip()]
    return []


def worker(args):
    import resource

    import hharm  # noqa: F401  reads HH_THREADS before numpy starts its pools

    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS as CLASSES
    import tracing

    workdir = OUT / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = CLASSES[args.workload](args.seed, workdir)
        if wl.warm_up:
            warm = wl.make_input()
            wl.run(warm)
        setup_s = time.perf_counter() - _T0
        if args.role == "setup":
            return {"setup_s": setup_s}
        wrong = []
        if wl.warm_up:
            wrong += check(wl, warm)

        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            wl.tracer = tracer
        attempted = failed = 0
        op_errors, latencies, steps = [], [], {}
        start = time.perf_counter()
        while True:
            for _ in range(wl.ops_per_round):
                inp = wl.make_input()
                attempted += 1
                t0 = time.perf_counter()
                try:
                    parts = wl.run(inp)
                except Exception as exc:  # noqa: BLE001  a traceback fails the operation
                    failed += 1
                    op_errors.append("".join(traceback.format_exception_only(exc)).strip())
                    continue
                latencies.append(time.perf_counter() - t0)
                for k, v in parts.items():
                    steps.setdefault(k, []).append(v)
                wrong += check(wl, inp)
            if time.perf_counter() - start >= args.seconds:
                break
        res = {
            "setup_s": setup_s,
            "attempted": attempted,
            "failed": failed,
            "correct": not wrong,
            "errors": (wrong + op_errors)[:20],
            "latencies": latencies,
            "steps": steps,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer:
            tracer.uninstall()
            res["per_layer"] = tracing.layer_metrics(tracer.spans, max(len(latencies), 1))
            tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        return res
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# parent process
# ---------------------------------------------------------------------------

def spawn(args, role):
    env = dict(os.environ, HH_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--role", role]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, _T0 + RUN_LIMIT_S - time.perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(args, res, setups):
    ms = lambda xs: [1e3 * x for x in xs]  # noqa: E731
    ok = "all outputs correct" if res["correct"] else "WRONG OUTPUTS"
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{res['attempted']} operations attempted, {res['failed']} failed, {ok}")
    for err in res["errors"]:
        print(f"  error: {err}")
    rows = [("op", ms(res["latencies"]))] + [(k, ms(v)) for k, v in res["steps"].items()]
    for name, xs in rows:
        if not xs:
            continue
        line = f"  {name + '_ms':28s} median {statistics.median(xs):10.2f} ms  n={len(xs)}"
        tail = percentile_tail(xs)
        if tail:
            line += f"  {tail[0]} {tail[1]:.2f} ms"
        print(line)
    if setups:
        print("  setup_s " + " ".join(f"{s:.3f}" for s in setups))


def main(argv=None):
    args = parse_args(argv)
    if args.role:
        print(json.dumps(worker(args)))
        return 0
    if not (ROOT / "src" / "hharm" / "__init__.py").is_file():
        print(f"run.py: no hharm sources under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        setups = []
        if not args.trace:
            setups = [spawn(args, "setup")["setup_s"] for _ in range(SETUP_ONLY_PROCESSES)]
        res = spawn(args, "measure")
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if not res["latencies"]:
        print("run.py: no operation completed", file=sys.stderr)
        return 1
    setups.append(res["setup_s"])
    summary(args, res, setups)
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "op_ms": {"value": 1e3 * statistics.median(res["latencies"]), "unit": "ms"},
            "ops_per_s": {"value": len(res["latencies"]) / sum(res["latencies"]),
                          "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
