#!/usr/bin/env python3
"""Self-test of the veriqec benchmark; runs in well under a minute.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

Builds veriqec_bench like run.py, then for every workload it knows:
  * runs the small inputs (surface3, steane, tanner2 and a short batch)
    untraced and traced, and requires every check to pass;
  * requires the printed metric names and units to be exactly those
    BENCHMARK.json lists (end_to_end untraced, per_layer traced);
  * plants a wrong expected answer and requires the run to fail, with
    failed > 0 and a non-zero exit code.
It also requires an unknown workload to be refused without a result.
Exits non-zero on the first violation.
"""

import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import run  # noqa: E402


def fail(msg):
    print(f"selftest: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def drive(args):
    """Runs veriqec_bench; returns (exit code, parsed last stdout line)."""
    proc = subprocess.run([run.BINARY] + args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main():
    if not run.build():
        fail("build failed")
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = [w["name"] for w in spec["workloads"]]
    if not set(listed) <= set(run.WORKLOADS):
        fail(f"BENCHMARK.json names workloads veriqec_bench lacks: {listed}")
    wanted = {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }

    for name in run.WORKLOADS:
        base = ["--workload", name, "--seed", "7", "--seconds", "1",
                "--small"]
        for trace in (0, 1):
            code, result = drive(base + ["--trace", str(trace)])
            where = f"{name} --trace {trace}"
            if code != 0 or result is None:
                fail(f"{where}: exit {code}, result {result}")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 \
                    or result["attempted"] < 1:
                fail(f"{where}: checks failed: {result}")
            got = [(k, v["unit"]) for k, v in result["metrics"].items()]
            if sorted(got) != sorted(wanted[trace]):
                fail(f"{where}: metrics {got} != BENCHMARK.json "
                     f"{wanted[trace]}")
            for k, v in result["metrics"].items():
                value = v["value"]
                if not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    fail(f"{where}: {k} = {value!r}")
                if trace == 0 and value <= 0:
                    fail(f"{where}: end-to-end {k} = {value}")
        code, result = drive(base + ["--trace", "0", "--plant-wrong-answer"])
        if code == 0 or result is None or result["correct"] \
                or result["failed"] == 0:
            fail(f"{name}: a planted wrong answer went unnoticed "
                 f"(exit {code}, {result})")
        print(f"selftest: {name} ok")

    code, result = drive(["--workload", "no_such_workload", "--seed", "1",
                          "--seconds", "1", "--trace", "0"])
    if code == 0 or result is not None:
        fail("an unknown workload was not refused")
    print("selftest: ok")


if __name__ == "__main__":
    main()
