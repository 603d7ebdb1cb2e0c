#!/usr/bin/env python3
"""Repository benchmark: build the perfbench program and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload spec_sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 10] [--trace 0|1]

The first form builds libc8t and the perfbench binary from source into
.bench_build/ (Release), runs the workload, times setup_s by starting the
binary in its set-up-only mode before and after it, and prints two JSON
lines: a detail line (provenance, error_rate, errors, workload extras)
and, last, the result line {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

--all runs every workload and prints a table of every metric with its
unit, error_rate and paper_gap_pp.

Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["spec_sweep", "vdd_l2_sweep", "explore_grid", "daemon_mix"]
SETUP_SPAWNS = 15
PROBE_TIMEOUT_S = 30


def run_timeout(seconds):
    """Deadline for one workload run: its measuring time, the checks and
    traced passes after it, and a margin for a slow host."""
    return 3 * seconds + 60


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the Release binary; returns its path."""
    out = build_dir()
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", str(os.cpu_count() or 1)]]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def source_digest():
    """sha256 over the library and benchmark sources (path + bytes)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def bench_env():
    """The environment without C8T_* settings: the library runs with its
    defaults and writes no side files."""
    return {k: v for k, v in os.environ.items() if not k.startswith("C8T_")}


def bench_args(binary, tmp, workload, seed):
    return [binary, "--workload", workload, "--seed", str(seed),
            "--tmp", os.path.relpath(tmp, ROOT)]


def setup_samples(binary, tmp, workload, seed):
    """Seconds from process start to the point where the first job would
    be submitted, in several fresh processes. A probe's teardown (the
    daemon's shutdown waits out its heartbeat sleep) is not timed, so
    the next probe starts while it finishes."""
    samples, procs = [], []
    try:
        for _ in range(SETUP_SPAWNS):
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                bench_args(binary, tmp, workload, seed) + ["--setup-only"],
                cwd=ROOT, env=bench_env(), stdout=subprocess.PIPE, text=True)
            procs.append(proc)
            readable, _, _ = select.select([proc.stdout], [], [],
                                           PROBE_TIMEOUT_S)
            if not readable:
                raise RuntimeError("set-up probe for %s not ready within %d s"
                                   % (workload, PROBE_TIMEOUT_S))
            if proc.stdout.readline().strip() != "ready":
                raise RuntimeError("set-up probe failed for " + workload)
            samples.append(time.perf_counter() - t0)
        for proc in procs:
            proc.communicate(timeout=PROBE_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError("set-up probe failed for " + workload)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return samples


def run_workload(binary, workload, seed, seconds, trace):
    """Run one workload; returns (detail, result) dictionaries."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Set-up probes run before and after the workload, so their median
    # spans the same stretch of host time as the workload's own medians.
    setup = None if trace else setup_samples(binary, tmp, workload, seed)
    cmd = bench_args(binary, tmp, workload, seed) + [
        "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, env=bench_env(),
                          stdout=subprocess.PIPE, text=True,
                          timeout=run_timeout(seconds))
    if proc.returncode != 0:
        raise RuntimeError("perfbench exited with %d" % proc.returncode)
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = out["metrics"]
    if setup is not None:
        setup += setup_samples(binary, tmp, workload, seed)
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    missing = [m for m in declared_metrics(trace) if m not in metrics]
    if missing:
        raise RuntimeError("perfbench did not report: " + ", ".join(missing))
    # The result line carries exactly the declared metrics, in order.
    metrics = {m: metrics[m] for m in declared_metrics(trace)}

    detail = {k: v for k, v in out.items()
              if k not in ("correct", "attempted", "failed", "metrics")}
    detail["workload"] = workload
    detail["seed"] = seed
    detail["error_rate"] = out["failed"] / out["attempted"]
    detail["provenance"]["git_commit"] = git_commit()
    detail["provenance"]["source_sha256"] = source_digest()
    if setup is not None:
        detail["setup_samples_s"] = setup
    result = {"correct": out["correct"] and out["failed"] == 0,
              "attempted": out["attempted"], "failed": out["failed"],
              "metrics": metrics}
    return detail, result


def run_all(binary, seed, seconds, trace):
    """Every workload in turn, as a table of name, value and unit."""
    ok = True
    for workload in WORKLOADS:
        detail, result = run_workload(binary, workload, seed, seconds, trace)
        ok = ok and result["correct"]
        print("== %s (seed %d, %s) attempted=%d failed=%d error_rate=%g"
              % (workload, seed, "traced" if trace else "untraced",
                 result["attempted"], result["failed"], detail["error_rate"]))
        for name, m in result["metrics"].items():
            print("  %-40s %16.6g %s" % (name, m["value"], m["unit"]))
        for key in ("paper_gap_pp", "job_samples", "p50_class", "p99_class"):
            if key in detail:
                print("  %-40s %16s" % (key, detail[key]))
        for err in detail.get("errors", []):
            print("  error: " + err)
    prov = detail["provenance"]
    print("provenance: " + json.dumps(prov, sort_keys=True))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not args.all and not args.workload:
        ap.error("give --workload or --all")
    if args.seconds < 1 or args.seed < 0:
        ap.error("--seconds must be >= 1 and --seed >= 0")
    try:
        binary = build()
        if args.all:
            return run_all(binary, args.seed, args.seconds, bool(args.trace))
        detail, result = run_workload(binary, args.workload, args.seed,
                                      args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
