"""Benchmark of gradedosp: one workload, one run, one JSON result line.

Run from the root of a gradedosp checkout:

    python3 bench/run.py --workload report-ospB-2111 --seed 1 --seconds 40 --trace 0

With `--trace 0` the run measures the end-to-end metrics with no tracing:
for `--seconds` it repeats a fixed reference job (calibration.py), one
fresh-interpreter set-up and one untraced pass of the workload, and reports
the fastest pass and set-up scaled by the reference job's fastest time. With
`--trace 1` it runs one untraced pass, then traced passes for `--seconds`,
and reports the per-layer metrics (medians over traced passes) and the
tracing overhead; the spans go to `.bench_out/`.

Every pass is gated on correct output (see workloads.py). The last line of
standard output is the JSON result; the exit status is 0 only when every
output check passed. `--plant-defect` plants the workload's known defect,
which the gate must catch (bench/test_gate.py).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import calibration

SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import gradedosp.cli as c; "
    "c.build_parser().parse_args(sys.argv[1:])"
)

END_TO_END_UNITS = {
    "norm_wall_s": "s",
    "norm_instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}


def _load_program() -> None:
    """Put the checkout's own source first on the path, or fail."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "gradedosp", "__init__.py")):
        sys.exit("bench/run.py: src/gradedosp not found; run from the root of a gradedosp checkout")
    sys.path.insert(0, src)
    import gradedosp

    if not os.path.abspath(gradedosp.__file__).startswith(src + os.sep):
        sys.exit(f"bench/run.py: imported gradedosp from {gradedosp.__file__}, not from {src}")


def setup_command(argv: list[str]) -> list[str]:
    """A fresh interpreter importing gradedosp.cli and parsing `argv`."""
    return [sys.executable, "-I", "-c", SETUP_CODE, *argv]


def time_setup(cmd: list[str]) -> float:
    start = perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def _repeat(run_pass, seconds: float) -> list:
    """Closed loop: passes back to back, starting another only while the
    median pass still fits in `seconds`; at least one pass."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass())
        elapsed = perf_counter() - start
        if elapsed + statistics.median(p.wall_s for p in passes) > seconds:
            return passes


def timed_run(workload, seconds: float) -> tuple[dict, list, dict]:
    """The end-to-end metrics. Before every pass the run times the fixed
    reference job (calibration.py) and one fresh-interpreter set-up; the
    fastest pass and the fastest set-up are scaled by the job's fastest
    time. The raw figures are returned too, for printing."""
    cmd = setup_command(workload.setup_argv)
    time_setup(cmd)  # untimed: compiles the bytecode
    calibrations = []
    setups = []

    def calibrated_pass():
        calibrations.append(calibration.calibrate())
        setups.append(time_setup(cmd))
        return workload.run_pass()

    passes = _repeat(calibrated_pass, seconds)
    best_s = min(p.wall_s for p in passes)
    scale = calibration.REFERENCE_S / min(calibrations)
    metrics = {
        "norm_wall_s": best_s * scale,
        "norm_instances_per_s": passes[0].instances / (best_s * scale),
        "setup_s": min(setups) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "instances_per_s": (statistics.median(p.instances / p.wall_s for p in passes), "1/s"),
        "best_wall_s": (best_s, "s"),
        "best_calibration_s": (min(calibrations), "s"),
        "setup_median_s": (statistics.median(setups), "s"),
        "passes": (len(passes), "count"),
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, passes, raw


def traced_run(workload, seed: int, seconds: float, units: dict) -> tuple[dict, list]:
    import tracer
    import workloads

    base = workload.run_pass(parallelism=1)
    tracers = []

    def traced_pass():
        t = tracer.Tracer(seed + len(tracers))
        t.install()
        try:
            result = workload.run_pass(parallelism=1)
        finally:
            t.uninstall()
        tracers.append((t, result))
        return result

    passes = [base] + _repeat(traced_pass, seconds)
    per_pass = []
    for t, result in tracers:
        m = t.metrics()
        m["trace.overhead_ratio"] = result.wall_s / base.wall_s
        per_pass.append(m)
    # median_low keeps counts whole: every traced pass does the same work.
    metrics = {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}
    speedup, extra = workload.parallel_speedup()
    metrics["algebras.jacobi_parallel_speedup"] = speedup
    if extra is not None:
        passes.append(extra)

    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    path = os.path.join(workloads.OUT_DIR, f"trace.{workload.name}.seed{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {"workload": workload.name, "seed": seed,
             "passes": [{"spans": [s for s in t.spans if s], "metrics": m} for (t, _), m in zip(tracers, per_pass)]},
            handle,
        )
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics not produced: {sorted(missing)}")
    return {k: (metrics[k], units[k]) for k in units}, passes, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-defect", action="store_true", help="plant the workload's known defect")
    args = parser.parse_args(argv)

    _load_program()
    import workloads

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    workload = workloads.make(args.workload)
    workload.setup(args.seed)
    if args.plant_defect:
        workload.plant_defect()

    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        measured, passes, raw = traced_run(workload, args.seed, args.seconds, units)
    else:
        measured, passes, raw = timed_run(workload, args.seconds)

    attempted = sum(p.instances + len(p.checks) for p in passes)
    failed = sum(p.failed_instances + len(p.failed_checks) for p in passes)
    if not args.trace:
        measured["pass_ratio"] = (1 - failed / attempted, "ratio")
    for p in passes:
        for name in p.failed_checks:
            print(f"FAILED CHECK: {name}", file=sys.stderr)
    for name, (value, unit) in {**raw, **measured}.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in measured.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
