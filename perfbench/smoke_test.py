#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Usage (from the repository root):

    python3 perfbench/smoke_test.py

Runs every workload of BENCHMARK.json at smoke sizes through
perfbench/run.py, untraced and traced, and asserts that
  * the result line has exactly the keys correct, attempted, failed, metrics;
  * every end-to-end (untraced) or per-layer (traced) metric BENCHMARK.json
    names is emitted, with its unit, and nothing else;
  * every request passed its output check, and every traced request gave
    the same certificate or trajectory (verdict, witness, move counts) as
    its untraced twin;
  * the traced run's warm-up result equals the untraced run's;
and that the benchmark refuses to run, with a non-zero exit and no result
line, from a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RESULTS = os.path.join(REPO_ROOT, ".bench_build", "results")


def run(cwd, workload, trace):
    command = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
               "--seed", "1", "--seconds", "0.5", "--trace", trace, "--smoke"]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=900)


def check_workload(bench, workload):
    warmups = []
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        proc = run(REPO_ROOT, workload, trace)
        assert proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}"
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
        want = {m["name"]: m["unit"] for m in bench[section]}
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        assert got == want, f"{workload} trace {trace}: metrics {sorted(set(got) ^ set(want))}"
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1, line
        with open(os.path.join(RESULTS, f"{workload}-seed1-trace{trace}.json")) as f:
            warmups.append(json.load(f)["provenance"]["warmup_digest"])
    assert warmups[0] == warmups[1], f"{workload}: traced warm-up {warmups[1]} != {warmups[0]}"


def check_refuses_without_sources():
    isolated = os.path.join(REPO_ROOT, ".bench_build", "isolated")
    shutil.rmtree(isolated, ignore_errors=True)
    os.makedirs(isolated)
    shutil.copy(os.path.join(REPO_ROOT, "BENCHMARK.json"), isolated)
    shutil.copytree(BENCH_DIR, os.path.join(isolated, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(isolated, "certify-gnm", "0")
    shutil.rmtree(isolated)
    assert proc.returncode != 0, "ran without the library sources"
    assert proc.stdout.strip() == "", "printed a result without the library sources"


def main():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in bench["workloads"]:
        check_workload(bench, workload["name"])
        print(f"smoke: {workload['name']} ok")
    check_refuses_without_sources()
    print("smoke: refuses without sources ok")
    print("smoke: OK")


if __name__ == "__main__":
    main()
