#!/usr/bin/env python3
"""Tiny-scale smoke check of the benchmark.

    python3 perfbench/tests/smoke.py

Runs every workload of BENCHMARK.json with --tiny, untraced and traced,
and asserts that each run is correct, prints the result object as its
last line, and emits exactly the metrics BENCHMARK.json names for that
mode (end_to_end untraced, per_layer traced), each with its declared
unit. Takes a couple of minutes, most of it the first build.
"""
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    for key in ("git_sha", "compiler", "cpu_model", "nproc", "isa_dispatch",
                "seed"):
        assert key in meta, f"{workload}: metadata lacks {key}"
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], \
        f"{workload}: result keys {sorted(result)}"
    assert result["correct"] is True, f"{workload} trace={trace} incorrect"
    assert result["attempted"] >= 1 and result["failed"] == 0
    return result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    workloads = [w["name"] for w in bench["workloads"]]
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for trace in (0, 1):
        for name in declared[trace]:
            assert name_re.match(name), f"bad metric name {name}"

    for workload in workloads:
        for trace in (0, 1):
            metrics = run(workload, trace)
            want = declared[trace]
            assert sorted(metrics) == sorted(want), (
                f"{workload} trace={trace}: emitted "
                f"{sorted(set(metrics) ^ set(want))} unexpectedly or not")
            for name, m in metrics.items():
                assert m["unit"] == declared[trace][name], (
                    f"{workload}: {name} has unit {m['unit']}, declared "
                    f"{declared[trace][name]}")
                assert isinstance(m["value"], (int, float))
            print(f"ok  {workload} trace={trace}: {len(metrics)} metrics")
    print("smoke: all metrics emitted with their units")


if __name__ == "__main__":
    main()
