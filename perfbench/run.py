#!/usr/bin/env python3
"""End-to-end benchmark for nanocache.

Builds perfbench/ (a CMake package that compiles the library from this
checkout's sources) into .bench_build, then runs one workload:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

An untraced run (--trace 0) is split over several processes run one after
another, each timing an equal share of --seconds; every metric is the median
of the per-process values.  The last line of standard output is the result
object {"correct", "attempted", "failed", "metrics"}; the lines before it
are each process's metric table and report line (host block, input
properties) and the per-process values.

    python3 perfbench/run.py --all [--seed n] [--seconds s] [--trace 0|1]
        runs the four workloads one after another.
    python3 perfbench/run.py --self-test
        runs the benchmark's own tests at a tiny load.

Exits non-zero when the sources are missing, the build fails, any output
check fails, or the metrics do not match BENCHMARK.json.
"""
import argparse
import fcntl
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["batch_cold", "batch_replay", "serve_mix", "design_study"]
REQUIRED = ["CMakeLists.txt", "src/api/batch_io.h", "include/nanocache/service.h",
            "tests/data/batch_requests.jsonl",
            "tests/data/batch_responses_golden.jsonl"]
RUN_TIMEOUT_S = 175
# An untraced run is split over this many processes, one after another, and
# each metric is the median of their values.  One process's speed depends
# on where its memory and thread land: on a shared 4-vCPU host, medians of
# single-process runs of one seed differed by up to 40%.
PROCESSES = 5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure once, then build incrementally; serialized by a lock file."""
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", bdir, "--target",
                        "nanocache_perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "nanocache_perfbench")


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha1()
    for top in ["CMakeLists.txt", "include", "src", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "source-sha1:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_child(cmd, deadline):
    """One benchmark process; returns (exit code, stdout lines, result)."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"no result within {RUN_TIMEOUT_S} s")
        return 1, [], None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        return proc.returncode, lines[:-1], json.loads(lines[-1])
    except (ValueError, IndexError):
        log(f"no result line (exit {proc.returncode})")
        sys.stderr.write(proc.stdout)
        return proc.returncode or 1, lines, None


def run_one(binary, workload, seed, seconds, trace, commit):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    processes = 1 if trace else PROCESSES
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds / processes), "--trace", str(trace),
           "--work-dir", ".bench_work", "--root", ".", "--commit", commit]
    status, results = 0, []
    for _ in range(processes):
        code, lines, result = run_child(cmd, deadline)
        status = status or code
        if result is None:
            log(f"{workload}: a benchmark process printed no result")
            return status, None
        results.append(result)
        sys.stdout.write("".join(line + "\n" for line in lines))
    values = {}
    for r in results:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    result = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": statistics.median(v),
                           "unit": results[0]["metrics"][name]["unit"]}
                    for name, v in values.items()},
    }
    want = expected_metrics(trace)
    if want is not None and set(result["metrics"]) != want:
        log(f"{workload}: metrics differ from BENCHMARK.json: "
            f"missing {sorted(want - set(result['metrics']))}, "
            f"extra {sorted(set(result['metrics']) - want)}")
        status = status or 1
    if processes > 1:
        print(json.dumps({"per_process": values}))
    print(json.dumps(result), flush=True)
    return status, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        log("nanocache sources not found next to perfbench/: " + ", ".join(missing))
        return 2
    if not (args.workload or args.all or args.self_test):
        parser.error("one of --workload, --all or --self-test is required")
    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 2

    if args.self_test:
        return subprocess.run([binary, "--self-test", "--work-dir",
                               ".bench_work/selftest", "--root", "."],
                              cwd=ROOT, timeout=600).returncode
    commit = source_revision()
    if args.workload:
        status, _ = run_one(binary, args.workload, args.seed, args.seconds,
                            args.trace, commit)
        return status
    worst = 0
    summary = {}
    for workload in WORKLOADS:
        status, result = run_one(binary, workload, args.seed, args.seconds,
                                 args.trace, commit)
        worst = worst or status
        summary[workload] = result
    print(json.dumps({"all": summary}))
    return worst


if __name__ == "__main__":
    sys.exit(main())
