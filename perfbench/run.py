#!/usr/bin/env python3
"""The repository benchmark: host speed and simulated outcomes of the realrate
simulator on three workloads, end to end and layer by layer.

Run from the repository root:

  python3 perfbench/run.py --workload web_farm --seed 7 --seconds 10 --trace 0
  python3 perfbench/run.py --compare base.jsonl new.jsonl

The first run configures and builds perfbench/ (a Release build of ../src plus
the rrbench program) into .bench_build/. Each run then executes rrbench in a
process of its own, so peak memory is per workload and a crash fails only that
run. The last line of output is one JSON object:

  {"correct": true, "attempted": 12, "failed": 0,
   "metrics": {"setup_s": {"value": 0.0248, "unit": "s"}, ...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. "attempted" counts simulation runs; a failed check fails all of
them. The line before the result holds the host fingerprint, the offered load
and any failed checks. --out FILE appends the whole record to FILE as one JSON
line; --compare reads two such files and, when their fingerprints agree,
judges the second against the first with the bounds of BENCHMARK.json.

Metric definitions, per workload where they differ. Host rates come from the
fastest repetition of a run, set-up time is the median repetition, and the
farms' simulated outcomes are medians over the run's seeded request streams.
  served_per_host_s   requests served (dense_pipelines: pipeline items
                      consumed) per host second of the run span.
  sim_s_per_host_s    simulated seconds per host second of the run span.
  setup_s             host seconds before the first simulated event: stream
                      generation on the farms, machine wiring on dense_pipelines.
  peak_rss_mb         peak resident memory of the workload's process after its
                      first simulation run.
  req_p*_ms           simulated request latency (dense_pipelines: item latency
                      from the producer's push to the consumer's last pop).
  drop_frac           (refused + 1) / (offered + 1): requests dropped at the
                      listen or worker queues (dense_pipelines: producer pushes a
                      full queue refused); the extra one keeps a closed loop,
                      which refuses nothing, off zero.
Per-layer times are net of the calibrated cost of the timing itself
(bench.span_cost_ns); workloads.generate_s is the time to build a run's inputs
from its seed (the request stream, or dense_pipelines' seeded pipeline shape).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
# A run must end within 180 s of its start, not counting the first build.
RUN_DEADLINE_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("no BENCHMARK.json at the repository root " + ROOT)
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no realrate sources under " + os.path.join(ROOT, "src") +
             "; run from a full checkout of the repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))


def run_child(args):
    """Runs rrbench to completion; returns its stdout lines and exit code."""
    cmd = [os.path.join(BUILD_DIR, "rrbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_DEADLINE_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
    return out.splitlines(), proc.returncode


def measure(args, spec):
    build()
    lines, code = run_child(args)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if not lines or not lines[-1].startswith("{"):
        # The process died mid-run: every run it started counts as failed.
        started = max(1, sum(1 for line in lines if line.startswith("run ")))
        record.update(fingerprint=None, offered=None,
                      errors=["rrbench exited with code %d before reporting" % code],
                      result={"correct": False, "attempted": started, "failed": started,
                              "metrics": {}})
        return record, 1
    child = json.loads(lines[-1])

    values = child["metrics"]
    errors = list(child["errors"])
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            errors.append("metric %s was not measured" % m["name"])
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    correct = code == 0 and not errors
    result = {"correct": correct, "attempted": child["attempted"],
              "failed": 0 if correct else child["attempted"], "metrics": metrics}
    record.update(fingerprint=child["fingerprint"], offered=values.get("offered"),
                  errors=errors, result=result)
    return record, 0 if correct else 1


def compare(base_path, new_path, spec):
    """Medians of two --out files, metric by metric, against BENCHMARK.json's bounds."""
    def load(path):
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]
    base, new = load(base_path), load(new_path)
    prints = {json.dumps(r["fingerprint"], sort_keys=True) for r in base + new}
    if len(prints) != 1:
        print("re-baseline: the results come from different hosts or builds, so no verdict:")
        for p in sorted(prints):
            print("  " + p)
        return 3
    regressed = False
    for workload in sorted({r["workload"] for r in base}):
        for m in spec["end_to_end"]:
            def median(records):
                vals = [r["result"]["metrics"][m["name"]]["value"] for r in records
                        if r["workload"] == workload and not r["trace"]
                        and m["name"] in r["result"]["metrics"]]
                return statistics.median(vals) if vals else None
            b, n = median(base), median(new)
            if b is None or n is None or b == 0:
                continue
            worse = (n - b) / b if m["better"] == "lower" else (b - n) / b
            verdict = "regressed" if worse > m["bound"] else "ok"
            regressed |= verdict == "regressed"
            print("%-16s %-18s %14.6g -> %14.6g  %+7.2f%% worse  %s" %
                  (workload, m["name"], b, n, 100 * worse, verdict))
    return 1 if regressed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the whole record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        sys.exit(compare(args.compare[0], args.compare[1], spec))
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))
    started = time.monotonic()
    record, code = measure(args, spec)
    record["host_seconds"] = round(time.monotonic() - started, 3)
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(record["result"]))
    sys.exit(code)


if __name__ == "__main__":
    main()
