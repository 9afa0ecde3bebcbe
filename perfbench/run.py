#!/usr/bin/env python3
"""Benchmark of record for tristream (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the harness from the repository's sources (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to the
repository root), runs the arithmetic self-tests, generates and caches the
workload's seeded inputs and ground truth, runs the workload for S seconds
and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. The full record (host, config, checks, metrics) is written
beside the build under results/ and echoed on the line before.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("count_default", "count_sharded", "count_churn", "serve_mixed")
BUILD_TIMEOUT_S = 840
PREPARE_TIMEOUT_S = 600
RUN_DEADLINE_S = 170  # a run ends by then, unless it had to build
MIN_RUN_S = 100


def log(message):
    print(message, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(2)


def work_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(REPO, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, timeout):
    """Runs cmd with its output on stderr; dies on failure or timeout."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (exit %d): %s" % (done.returncode, " ".join(cmd)))


def build(root):
    if not (os.path.isfile(os.path.join(REPO, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(REPO, "src"))):
        fail("the tristream sources (CMakeLists.txt, src/) are not next to "
             "perfbench/; run from a full checkout")
    build_dir = os.path.join(root, "build")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", build_dir, "--target",
                "perfbench_harness", "perfbench_selftest", "-j",
                str(min(4, os.cpu_count() or 1))], BUILD_TIMEOUT_S)
    return build_dir


def source_digest():
    """SHA-256 over the library and CLI sources: identifies the code even
    where no git metadata exists."""
    h = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(REPO, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            h.update(os.path.relpath(name, REPO).encode())
            with open(name, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def host_record():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    # Only the checkout's own .git: a plain `git rev-parse` would walk up
    # into whatever repository happens to contain the checkout.
    git_dir = os.path.join(REPO, ".git")
    if os.path.isdir(git_dir):
        try:
            done = subprocess.run(["git", "--git-dir", git_dir, "rev-parse",
                                   "HEAD"], capture_output=True, text=True,
                                  timeout=10, check=False)
            if done.returncode == 0:
                commit = done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        "commit": commit or "unknown (no git metadata)",
        "source_sha256": source_digest(),
    }


def declared_metrics(trace):
    """{name: unit} that BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(REPO, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    if not args.selftest and (args.seed < 0 or args.seconds <= 0):
        parser.error("--seed must be >= 0 and --seconds > 0")

    started = time.monotonic()
    root = work_dir()
    build_dir = build(root)
    harness = os.path.join(build_dir, "perfbench_harness")
    selftest = os.path.join(build_dir, "perfbench_selftest")
    run_logged([selftest], 60)
    if args.selftest:
        return 0

    data = os.path.join(root, "data")
    tmp = os.path.join(root, "tmp")
    results = os.path.join(root, "results")
    for d in (data, tmp, results):
        os.makedirs(d, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--data", data]
    run_logged([harness, "prepare"] + common, PREPARE_TIMEOUT_S)

    # A hung run is killed by the deadline. A first run, which builds, gets
    # at least MIN_RUN_S more; a traced run on a slow host needs about that
    # (seven jobs of up to 9 s plus the warm-up).
    deadline = max(RUN_DEADLINE_S - (time.monotonic() - started), MIN_RUN_S)
    cmd = [harness, "run"] + common + [
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--tmp", tmp]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=deadline, check=False)
    except subprocess.TimeoutExpired:
        fail("the measured run exceeded its %.0f s deadline" % deadline)
    if done.returncode != 0:
        fail("harness run failed with exit %d" % done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("harness printed no result")
    record = json.loads(lines[-1])

    expected = declared_metrics(bool(args.trace))
    reported = {k: m["unit"] for k, m in record["metrics"].items()}
    if expected is not None and reported != expected:
        record["correct"] = False
        record["problems"].append(
            "metrics or units differ from BENCHMARK.json: %s"
            % sorted(set(reported.items()) ^ set(expected.items())))
    record["host"] = host_record()
    record["workload"] = args.workload
    record["seed"] = args.seed
    record["seconds"] = args.seconds
    record["trace"] = args.trace
    record["wall_s"] = time.monotonic() - started
    name = "%s-seed%d-trace%d-%d.json" % (args.workload, args.seed,
                                          args.trace, int(time.time()))
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    for metric, m in sorted(record["metrics"].items()):
        log("  %-34s %14.6g %s" % (metric, m["value"], m["unit"]))
    for problem in record["problems"]:
        log("  CHECK FAILED: " + problem)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
