"""Pipeline benchmark: one workload per process, checked, optionally traced.

    python3 perfbench/run.py --workload spectrum-b30 --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the last line is a JSON object with the end-to-end
metrics (setup_s, wall_s, peak_rss_mb); with ``--trace 1`` it carries the
per-layer metrics of a traced pass, whose spans are written to
``perfbench/out/``.  The line before it holds the correctness gates.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# One BLAS thread (the package itself runs with threads=1): on 2 cores,
# OpenBLAS's second thread makes operator-ladder 1.6x slower (README)
BLAS_THREADS = "1"
SETUP_SAMPLES = 3


def _load(workload, seed):
    """Import the package from this checkout and build the workload's inputs."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "obrealize" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'obrealize'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import workloads
    setup, run, check = workloads.WORKLOADS[workload]
    return setup(seed), run, check


def _setup_s(workload, seed):
    """Median wall time of fresh processes that only set the workload up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, timeout=120)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _more(times, seconds, count):
    """Another round: `count` not reached, or (no count) the next round,
    at the median round time so far, still ends within `seconds`."""
    if count:
        return len(times) < count
    return not times or sum(times) + statistics.median(times) <= seconds


def _rounds(run, check, inputs, seconds, count=None, tracer=None):
    """Whole timed rounds for up to `seconds` (at least one), or `count` rounds.

    With a tracer, only the rounds are traced, not the checks.
    """
    times, attempted, failed, ok, gates = [], 0, 0, True, {}
    while _more(times, seconds, count):
        with tracer or nullcontext():
            t0 = perf_counter()
            res = run(inputs)
            times.append(perf_counter() - t0)
        attempted += res.attempted
        failed += res.failed
        good, gates = check(inputs, res)
        ok &= good
        del res                 # so one round's outputs do not swell the next's peak
    return times, attempted, failed, ok, gates


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["spectrum-b30", "operator-ladder", "lyapunov-lorenz",
                             "xi-ladder"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    inputs, run, check = _load(args.workload, args.seed)
    if args.setup_only:
        return 0
    times, attempted, failed, ok, gates = _rounds(run, check, inputs, args.seconds)
    if args.trace:
        import spans
        tracer = spans.Tracer()
        ttimes, tatt, tfail, tok, _ = _rounds(run, check, inputs, 0, len(times), tracer)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{args.workload}-seed{args.seed}.json")
        attempted, failed, ok = attempted + tatt, failed + tfail, ok and tok
        metrics = {k: {"value": v, "unit": _unit(k)}
                   for k, v in spans.layer_metrics(tracer.spans, len(ttimes)).items()}
        metrics["bench.trace_overhead_s"] = {
            "value": statistics.median(ttimes) - statistics.median(times), "unit": "s"}
    else:
        metrics = {
            "setup_s": {"value": _setup_s(args.workload, args.seed), "unit": "s"},
            "wall_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
        }
    print("gates: " + json.dumps({"rounds": len(times), **gates}))
    print(json.dumps({"correct": bool(ok), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _unit(name):
    if name.endswith("_us_per_call") or name.endswith("_us_per_step"):
        return "us"
    return "s" if name.endswith("_s") else "count"


if __name__ == "__main__":
    sys.exit(main())
