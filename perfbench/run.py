#!/usr/bin/env python3
"""End-to-end benchmark of a whole ELink run.

    python3 perfbench/run.py --workload pipeline_4k --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The first run configures and builds
perfbench/ (the library from src/ plus the e2e_bench driver) in
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only check
that the build is current.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  The lines
before it are the driver's human-readable report (every metric with its
unit, the exact-count fingerprint, the machine provenance).

Every workload does a fixed amount of work (10-30 s of timed work on a
4-vCPU Xeon VM); --seconds is recorded, it does not pace the run.  A
traced run first repeats the same workload untraced, so it can report the
tracing overhead and check that both runs have the same fingerprint.

Exit status: 0 when every output matched its oracle and the fingerprint
matched; 1 when an operation failed or the fingerprint moved (the result line
is still printed); 2 when the benchmark cannot build or run at all (no
result line).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("pipeline_4k", "serve_2500", "churn_2500")
DEFAULT_SEED = 1
# Seed kept out of tuning, for confirming a later claim (choosing-metrics
# section 6.3).
HELD_OUT_SEED = 977

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics, every workload prints all of them (0 where the layer is
# not on that workload's path).  The first group comes from spans, the second
# is the exact-count fingerprint.
PER_LAYER = {
    "data.generate_s": "s",
    "data.diameter_s": "s",
    "cluster.quadtree_s": "s",
    "cluster.elink_s": "s",
    "cluster.maintenance_s": "s",
    "timeseries.rls_s": "s",
    "index.trees_s": "s",
    "index.mtree_s": "s",
    "index.backbone_s": "s",
    "index.range_query_ms": "ms",
    "index.path_query_ms": "ms",
    "sim.sends_per_s": "1/s",
    "sim.hops_per_send": "ratio",
    "core.update_ms": "ms",
    "serve.publish_ms": "ms",
    "serve.writer_late_ms": "ms",
    "serve.hit_rate": "ratio",
    "serve.hits": "count",
    "serve.lookups": "count",
    "serve.hit_p50_us": "us",
    "serve.range_miss_p50_us": "us",
    "serve.path_miss_p50_us": "us",
    "obs.trace_overhead_pct": "%",
    "data.edges": "count",
    "cluster.clusters": "count",
    "cluster.elink_sends": "count",
    "cluster.elink_units": "count",
    "cluster.elink_sim_time": "simtime",
    "cluster.maintenance_sends": "count",
    "cluster.churn_drops": "count",
    "cluster.epoch_bumps": "count",
    "index.query_sends": "count",
    "sim.events": "count",
    "proto.decode_errors": "count",
    "serve.views_built": "count",
    "serve.epoch_bumps": "count",
}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FINGERPRINTS = HERE / "fingerprints.json"


class BenchFailure(Exception):
    """The benchmark cannot produce a result."""


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchFailure("library sources not found: %s" % (ROOT / "src"))
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=300).returncode != 0:
            raise BenchFailure("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "--target", "e2e_bench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                      timeout=840).returncode != 0:
        raise BenchFailure("build failed")
    return out / "e2e_bench"


def run_driver(binary, args, trace, trace_out=None):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_wrong_answer:
        cmd.append("--inject-wrong-answer")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=170)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchFailure("e2e_bench exited with %d" % proc.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return json.loads(lines[-1])


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fingerprint_problems(args, result, untraced=None):
    """Differences from the recorded default-seed fingerprint, and between
    the traced and untraced runs of one seed."""
    problems = []
    if untraced is not None and untraced["fingerprint"] != result["fingerprint"]:
        problems.append("traced and untraced fingerprints differ")
    if args.tiny or not FINGERPRINTS.is_file():
        return problems
    recorded = json.loads(FINGERPRINTS.read_text()).get(args.workload, {})
    if recorded.get("seed") != args.seed:
        return problems
    for key in ("fingerprint", "telemetry"):
        want = recorded.get(key, {})
        got = result.get(key, {})
        if key == "telemetry" and not got:
            continue
        for name in sorted(set(want) | set(got)):
            if want.get(name) != got.get(name):
                problems.append("%s %s: recorded %s, measured %s" %
                                (key, name, want.get(name), got.get(name)))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (perfbench/test_perfbench.py).
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inject-wrong-answer", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-fingerprint", action="store_true",
                        help="store this run's fingerprint as the workload's "
                             "reference (needs --trace 1 and the default "
                             "seed); only for a change that alters a "
                             "workload on purpose")
    args = parser.parse_args()
    if args.record_fingerprint and (not args.trace or args.tiny or
                                    args.seed != DEFAULT_SEED):
        parser.error("--record-fingerprint needs --trace 1 and --seed %d" %
                     DEFAULT_SEED)

    try:
        binary = build()
        if args.trace:
            untraced = run_driver(binary, args, trace=False)
            trace_dir = build_dir() / "traces"
            trace_dir.mkdir(exist_ok=True)
            trace_out = trace_dir / ("%s-seed%d.json" % (args.workload,
                                                         args.seed))
            result = run_driver(binary, args, trace=True, trace_out=trace_out)
            print("trace written to %s" % trace_out)
        else:
            untraced = None
            result = run_driver(binary, args, trace=False)
    except (BenchFailure, subprocess.TimeoutExpired, OSError,
            ValueError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 2

    if args.record_fingerprint and result["failed"] == 0:
        recorded = (json.loads(FINGERPRINTS.read_text())
                    if FINGERPRINTS.is_file() else {})
        recorded[args.workload] = {"seed": args.seed,
                                   "fingerprint": result["fingerprint"],
                                   "telemetry": result["telemetry"]}
        FINGERPRINTS.write_text(json.dumps(recorded, indent=2,
                                           sort_keys=True) + "\n")
    problems = fingerprint_problems(args, result, untraced)
    for p in problems:
        print("FINGERPRINT: %s" % p)
    provenance = dict(result["provenance"], git_commit=git_commit(),
                      seed=args.seed, seconds=args.seconds)
    print("provenance: " + json.dumps(provenance, sort_keys=True))

    if args.trace:
        metrics = {}
        layers = result["layers"]
        counts = dict(result["fingerprint"], **result["telemetry"])
        base = untraced["metrics"]["run_s"]["value"]
        overhead = 100.0 * (result["metrics"]["run_s"]["value"] / base - 1.0)
        for name, unit in PER_LAYER.items():
            if name == "obs.trace_overhead_pct":
                value = overhead
            elif name in layers:
                value = layers[name]["value"]
            else:
                value = float(counts.get(name, 0))
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics = {name: {"value": result["metrics"][name]["value"],
                          "unit": unit}
                   for name, unit in END_TO_END.items()}

    correct = result["failed"] == 0 and not problems
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
