#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the root of a checkout:

  python3 perfbench/selftest.py

Builds perfbench, runs its built-in `selftest` mode (input determinism,
the percentile rule, the open-loop source's release times), checks the
input hash of one workload across two processes, and checks how run.py
assembles metrics and accounts for failed events.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep perfbench/ free of __pycache__
import run  # noqa: E402

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
        print("FAIL: %s" % what)


def main():
    binary = run.build(run.build_dir())
    proc = subprocess.run([binary, "selftest"])
    expect(proc.returncode == 0, "perfbench selftest")

    # The same seed gives byte-identical inputs across processes too.
    def input_hash(seed):
        return run.call(binary, "hash", "--workload", "bursty_replay",
                        "--seed", seed)["input_hash"]

    a, b, c = input_hash(5), input_hash(5), input_hash(6)
    expect(a == b, "one seed, one input hash across processes")
    expect(a != c, "another seed, another input hash")

    # The result line carries exactly the metrics BENCHMARK.json lists,
    # with its units, and a metric the program did not report is an error.
    specs = [{"name": "ev_per_s", "unit": "1/s"},
             {"name": "setup_s", "unit": "s"}]
    expect(run.result_metrics(specs, {"ev_per_s": 2.5, "setup_s": 0.1,
                                      "other": 1}) ==
           {"ev_per_s": {"value": 2.5, "unit": "1/s"},
            "setup_s": {"value": 0.1, "unit": "s"}},
           "result metrics follow BENCHMARK.json")
    try:
        run.result_metrics(specs, {"ev_per_s": 2.5})
        expect(False, "a missing metric is an error")
    except run.BenchError:
        pass

    # Failure accounting: undelivered events fail; a pass whose counts
    # differ from the reference fails all of its events.
    ref = [[3, 3], [0, 0]]
    passes = [
        {"attempted": 10, "delivered": 10, "counts": [[3, 3], [0, 0]]},
        {"attempted": 10, "delivered": 7, "counts": [[3, 3], [0, 0]]},
        {"attempted": 10, "delivered": 10, "counts": [[3, 2], [0, 0]]},
    ]
    expect(run.account(passes, ref) == (30, 13), "failure accounting")

    print("selftest.py: %s" % ("OK" if not failures else
                               "%d FAILED" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
