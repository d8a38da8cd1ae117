#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

At the tiny size it runs every workload of BENCHMARK.json untraced and
traced, and checks that each prints exactly the metrics BENCHMARK.json
names, each with its unit, as a correct result.  Then, for each
offline workload, it records reference digests, checks that a run
against them passes, corrupts one digest and checks that the oracle
fails the run (exit code nonzero, "correct": false).  Exits nonzero on
the first failed check.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

OFFLINE = ("offline_gcc_sharded", "offline_suite")


def fail(message):
    sys.exit("selftest: FAIL: " + message)


def result_of(out):
    lines = out.strip().splitlines()
    if not lines:
        fail("no output")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(result))
    return result


def invoke(binary, data_dir, workload, trace, extra=()):
    args = ["--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", str(trace), "--size", "tiny",
            "--data-dir", data_dir,
            "--reference", os.path.join(data_dir, "none.json")]
    return bench.run(binary, args + list(extra))


def check_metrics(spec, binary, data_dir):
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, out = invoke(binary, data_dir, workload, trace)
            if code != 0:
                fail("%s trace=%d exited %d" % (workload, trace, code))
            result = result_of(out)
            if not result["correct"] or result["attempted"] < 1:
                fail("%s trace=%d is not correct" % (workload, trace))
            metrics = result["metrics"]
            want = {m["name"]: m["unit"] for m in spec[key]}
            if set(metrics) != set(want):
                fail("%s trace=%d metrics differ: %s" % (
                    workload, trace, sorted(set(metrics) ^ set(want))))
            for name, unit in want.items():
                got = metrics[name]
                if got.get("unit") != unit:
                    fail("%s: %s has unit %r, want %r"
                         % (workload, name, got.get("unit"), unit))
                if not isinstance(got.get("value"), (int, float)):
                    fail("%s: %s has no numeric value" % (workload, name))
                if "metric %s = " % name not in out and \
                        "layer %s = " % name not in out:
                    fail("%s: %s is not printed by name" % (workload, name))
            print("selftest: %s trace=%d prints all %d %s metrics"
                  % (workload, trace, len(want), key))


def check_oracle(binary, data_dir):
    reference = os.path.join(data_dir, "reference.json")
    if os.path.exists(reference):
        os.remove(reference)
    ref_args = ["--reference", reference]
    for workload in OFFLINE:
        code, _ = invoke(binary, data_dir, workload, 0,
                         ref_args + ["--write-reference"])
        if code != 0:
            fail("%s: writing the reference exited %d" % (workload, code))
        code, out = invoke(binary, data_dir, workload, 0, ref_args)
        if code != 0 or not result_of(out)["correct"]:
            fail("%s: run against its own reference failed" % workload)

        with open(reference) as f:
            ref = json.load(f)
        cells = ref["workloads"][workload]
        cell = sorted(cells)[0]
        digest = cells[cell]["lanes"]
        cells[cell]["lanes"] = digest[:-1] + ("0" if digest[-1] != "0"
                                              else "1")
        with open(reference, "w") as f:
            json.dump(ref, f)
        code, out = invoke(binary, data_dir, workload, 0, ref_args)
        result = result_of(out)
        if code == 0 or result["correct"] or result["failed"] < 1:
            fail("%s: a corrupted reference digest passed the oracle"
                 % workload)
        cells[cell]["lanes"] = digest
        with open(reference, "w") as f:
            json.dump(ref, f)
        print("selftest: %s fails on a corrupted reference digest"
              % workload)


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = bench.build()
    data_dir = os.path.join(bench.build_root(), "perfbench-selftest")
    os.makedirs(data_dir, exist_ok=True)
    check_metrics(spec, binary, data_dir)
    check_oracle(binary, data_dir)
    print("selftest: ok")


if __name__ == "__main__":
    main()
