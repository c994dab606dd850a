#!/usr/bin/env python3
"""CI regression gate for the controller's control-plane pipeline.

Runs bench_controller_scale, parses its machine-readable `CONTROLLER_SCALE ...`
line, and fails when any of:
  - the pipeline and reference sweeps disagreed on any grant/period/counter
    (grants_equal != 1) — a correctness failure, checked in every matrix;
  - pipeline RunOnce throughput at 4096 controlled threads fell more than 2x
    below the committed baseline (BENCH_controller_baseline.json); or
  - the pipeline-vs-reference RunOnce speedup at 4096 threads dropped below the
    5x bar the optimization is pinned to.

The perf thresholds only mean anything on an optimized build, so the sanitizer
matrix runs with --equality-only (grants equality alone). The 2x tolerance
absorbs CI-runner speed variance; a real algorithmic regression (the pipeline
degenerating back to per-tick sweeps) overshoots it by an order of magnitude.
Refresh the baseline with:
  scripts/check_controller_scale.py BUILD_DIR --write-baseline
"""
import json
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
BASELINE = REPO / "BENCH_controller_baseline.json"
MIN_SPEEDUP = 5.0
MAX_REGRESSION = 2.0


def run_bench(build_dir: pathlib.Path, equality_only: bool) -> dict:
    bench = build_dir / "bench" / "bench_controller_scale"
    if not bench.exists():
        sys.exit(f"error: {bench} not found — build bench_controller_scale first")
    # Equality-only skips the timed throughput sections inside the bench itself:
    # under ASan/UBSan they are minutes of wall time producing numbers this mode
    # never reads.
    cmd = [str(bench)]
    cmd += ["--equality-only"] if equality_only else ["--benchmark_min_time=0.01"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    match = re.search(r"^CONTROLLER_SCALE (.*)$", out, re.M)
    if not match:
        sys.exit("error: bench output has no CONTROLLER_SCALE line")
    fields = dict(kv.split("=", 1) for kv in match.group(1).split())
    return {k: float(v) for k, v in fields.items()}


def main() -> int:
    args = [a for a in sys.argv[1:] if not a.startswith("--")]
    build_dir = pathlib.Path(args[0]) if args else REPO / "build"
    measured = run_bench(build_dir, equality_only="--equality-only" in sys.argv)

    failures = []
    if measured["grants_equal"] != 1:
        failures.append("grants_equal != 1: pipeline and RunOnceReference diverged")

    if "--write-baseline" in sys.argv:
        if failures:
            sys.exit(f"refusing to write baseline: {failures[0]}")
        BASELINE.write_text(json.dumps(measured, indent=2, sort_keys=True) + "\n")
        print(f"[check_controller_scale] wrote {BASELINE}")
        return 0

    if "--equality-only" not in sys.argv:
        baseline = json.loads(BASELINE.read_text())
        key = "pipeline_runonce_per_wsec"
        floor = baseline[key] / MAX_REGRESSION
        if measured[key] < floor:
            failures.append(
                f"{key} = {measured[key]:.0f} is more than {MAX_REGRESSION}x below the "
                f"baseline {baseline[key]:.0f} (floor {floor:.0f})")
        if measured["speedup"] < MIN_SPEEDUP:
            failures.append(
                f"speedup = {measured['speedup']:.2f}x at 4096 threads is below the "
                f"pinned {MIN_SPEEDUP}x bar")
        print(f"[check_controller_scale] baseline: {baseline}")

    print(f"[check_controller_scale] measured: {measured}")
    if failures:
        for failure in failures:
            print(f"[check_controller_scale] FAIL: {failure}", file=sys.stderr)
        return 1
    print("[check_controller_scale] OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
