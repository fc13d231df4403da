#!/usr/bin/env python3
"""Repository benchmark: builds the driver from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Builds perfbench/ (which compiles the library from ../src) into
.bench_build/perfbench, runs the driver with BNCG_THREADS=4, checks its
result against the pins in perfbench/spec.json, writes the full record
(provenance, errors, pin and path checks) to .bench_build/results/, and
prints as its last line one JSON object with the keys correct, attempted,
failed and metrics. Exits non-zero without a result line when the driver
cannot be built or run.

setup_s comes from SETUP_PROCESSES fresh driver processes, half started
before the measured run and half after it, each printing its --setup-only
figure (a median over set-up rounds); setup_s is the lowest of them. On a
shared machine, single-threaded set-up code runs up to half slower in some
processes and some stretches of seconds than in others, and such slow
phases only ever add time, so the least disturbed process is the steady
figure; a change that makes set-up itself slower moves every process.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(REPO_ROOT, ".bench_build", "perfbench")
# Relative to REPO_ROOT, the driver's working directory, so that the unix
# socket paths of serve-session under it stay short.
RESULTS_DIR = os.path.join(".bench_build", "results")
THREADS = "4"
DRIVER_TIMEOUT_S = 120
SETUP_PROCESSES = 12
SETUP_TIMEOUT_S = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def checkout_env(**extra):
    """The environment of every child process: temporary files (the
    compiler's included) and any compiler cache stay inside the checkout."""
    tmp = os.path.join(REPO_ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, CCACHE_DIR=os.path.join(REPO_ROOT, ".bench_build", "ccache"),
                **extra)


def build():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(REPO_ROOT, needed)):
            fail(f"no {needed} next to perfbench/: the driver builds the library from source")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", THREADS, "--target", "perfbench"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=checkout_env()).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, "perfbench")


def run_driver(command, timeout_s):
    """Runs the driver once and returns its last output line as JSON."""
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             env=checkout_env(BNCG_THREADS=THREADS),
                             cwd=REPO_ROOT, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {timeout_s} s")
    if run.returncode != 0:
        fail(f"driver exited with code {run.returncode}")
    lines = run.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result")
    return json.loads(lines[-1])


def git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    if not os.path.exists(os.path.join(REPO_ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the measured
    code even where the checkout carries no git metadata."""
    files = [os.path.join(REPO_ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(REPO_ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    digest = hashlib.sha256()
    for path in files:
        digest.update(os.path.relpath(path, REPO_ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def check_against_spec(result, spec):
    """Pinned warm-up digests (development and held-out seeds) and expected
    path counts. A pin mismatch is a wrong output; a path-count mismatch is a
    silent tier or storage switch, reported but not counted as wrong."""
    workload = spec["workloads"][result["workload"]]
    notes = {"pin": None, "path_mismatches": []}
    if result["provenance"]["smoke"]:
        return True, notes
    pin = workload["pins"].get(str(result["seed"]))
    if pin is not None:
        notes["pin"] = pin == result["provenance"]["warmup_digest"]
    if result["trace"] == 1:
        for name, want in workload["expected_path_counts"].items():
            got = result["metrics"][name]["value"]
            if got != want:
                notes["path_mismatches"].append({"metric": name, "expected": want, "got": got})
    return notes["pin"] is not False, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--smoke", action="store_true", help="tiny instances (benchmark self-test)")
    args = parser.parse_args()

    with open(os.path.join(BENCH_DIR, "spec.json")) as f:
        spec = json.load(f)
    if args.workload not in spec["workloads"]:
        fail(f"unknown workload {args.workload}")
    driver = build()

    os.makedirs(os.path.join(REPO_ROOT, RESULTS_DIR), exist_ok=True)
    command = [driver, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace, "--out", RESULTS_DIR]
    if args.smoke:
        command.append("--smoke")
    setup_processes = SETUP_PROCESSES // 2 if args.trace == "0" else 0
    setups = [run_driver(command + ["--setup-only"], SETUP_TIMEOUT_S)
              for _ in range(setup_processes)]
    result = run_driver(command, DRIVER_TIMEOUT_S)
    setups += [run_driver(command + ["--setup-only"], SETUP_TIMEOUT_S)
               for _ in range(setup_processes)]
    if setups:
        values = [s["setup_s"] for s in setups]
        result["metrics"] = dict({"setup_s": {"value": min(values), "unit": "s"}},
                                 **result["metrics"])
        result["provenance"]["setup_s_per_process"] = values
        result["provenance"]["setups"] = sum(s["setups"] for s in setups)

    pin_ok, notes = check_against_spec(result, spec)
    for mismatch in notes["path_mismatches"]:
        print(f"perfbench: path count changed: {mismatch}", file=sys.stderr)
    result["provenance"].update({"git_sha": git_sha(), "source_sha256": source_digest(),
                                 "spec_checks": notes})
    # A pinned warm-up result that differs is one more failed request.
    failed = result["failed"] if pin_ok else min(result["attempted"], result["failed"] + 1)
    correct = result["correct"] and pin_ok
    record = os.path.join(REPO_ROOT, RESULTS_DIR,
                          f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump(dict(result, correct=correct, failed=failed), f, indent=2)
        f.write("\n")

    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": result["metrics"]}))


if __name__ == "__main__":
    main()
