#!/usr/bin/env python3
"""The repository benchmark: end-to-end and per-layer cost of tcsm.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), generates workload W from seed N, checks
every pass's per-query match counts against a reference from an
independent enumeration path, and prints as its last stdout line

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (closed-loop
throughput, open-loop latency, peak RSS, set-up time); with --trace 1 the
per-layer ones from a separate traced run, whose chrome-trace file is
validated with tools/check_trace.py. The line before it is a JSON object
with the details (per-phase counts, latency sample count, source
lateness, input hash). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Every binary call must end well inside the benchmark's 180 s limit.
CALL_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        raise BenchError("%s failed (exit %d)" % (what, proc.returncode))


def build(out_dir):
    """Configures once, then (re)builds the perfbench target."""
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        os.makedirs(out_dir, exist_ok=True)
        cmd = ["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        try:
            run_quiet(cmd, "cmake configure")
        except BenchError:
            # Leave no half-configured tree for the next run to trust.
            shutil.rmtree(out_dir, ignore_errors=True)
            raise
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", out_dir, "--target", "perfbench",
               "-j", jobs], "build")
    return os.path.join(out_dir, "perfbench")


def call(binary, mode, *args):
    cmd = [binary, mode] + [str(x) for x in args]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("perfbench %s timed out" % mode)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError("perfbench %s failed (exit %d)" %
                         (mode, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_counts(binary, out_dir, workload, seed, input_hash):
    """Per-query [occurred, expired] from the independent path: pinned in
    reference.json for the default seed, computed once per other seed."""
    with open(os.path.join(HERE, "reference.json")) as f:
        pinned = json.load(f)
    entry = pinned["workloads"].get(workload)
    if seed == pinned["seed"] and entry is not None:
        if entry["input_hash"] != input_hash:
            raise BenchError("inputs of %s seed %d no longer match the pinned "
                             "reference (hash %s, pinned %s)" %
                             (workload, seed, input_hash, entry["input_hash"]))
        return entry["counts"]
    cache = os.path.join(out_dir, "reference-%s-%d.json" % (workload, seed))
    if os.path.exists(cache):
        with open(cache) as f:
            cached = json.load(f)
        if cached.get("input_hash") == input_hash:
            return cached["counts"]
    ref = call(binary, "reference", "--workload", workload, "--seed", seed)
    if ref["error"]:
        raise BenchError("reference path failed: %s" % ref["error"])
    with open(cache, "w") as f:
        json.dump({"input_hash": input_hash, "counts": ref["counts"]}, f)
    return ref["counts"]


def pin_reference(binary, seed):
    """Rewrites reference.json for `seed` and every workload perfbench
    knows, from the independent path."""
    pinned = {"seed": seed, "workloads": {}}
    for workload in call(binary, "workloads")["workloads"]:
        ref = call(binary, "reference", "--workload", workload, "--seed", seed)
        if ref["error"]:
            raise BenchError("reference path failed: %s" % ref["error"])
        pinned["workloads"][workload] = {
            "input_hash": ref["input_hash"], "engine": ref["engine"],
            "counts": ref["counts"]}
    with open(os.path.join(HERE, "reference.json"), "w") as f:
        json.dump(pinned, f, indent=1)
        f.write("\n")


def account(passes, reference):
    """Events attempted and failed over every pass. A pass whose counts
    differ from the reference fails all of its events."""
    attempted = failed = 0
    for p in passes:
        attempted += p["attempted"]
        if p["counts"] != reference:
            failed += p["attempted"]
        else:
            failed += p["attempted"] - p["delivered"]
    return attempted, failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def result_metrics(specs, values):
    """The metrics BENCHMARK.json lists, with its units, from `values`."""
    missing = [m["name"] for m in specs if m["name"] not in values]
    if missing:
        raise BenchError("perfbench reported no %s" % ", ".join(missing))
    return {m["name"]: metric(values[m["name"]], m["unit"]) for m in specs}


def check_trace(path):
    checker = os.path.join(ROOT, "tools", "check_trace.py")
    proc = subprocess.run([sys.executable, checker, path],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    return proc.returncode == 0, proc.stdout.strip().splitlines()[-1:]


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help="a workload of BENCHMARK.json, or one of the "
                             "ungated ones (see README.md)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin-reference", action="store_true",
                        help="rewrite reference.json for --seed and exit")
    args = parser.parse_args(argv)
    if not args.pin_reference and args.workload is None:
        parser.error("--workload is required")

    out_dir = build_dir()
    binary = build(out_dir)
    if args.pin_reference:
        pin_reference(binary, args.seed)
        return 0
    run_args = ("--workload", args.workload, "--seed", args.seed)
    inputs = call(binary, "hash", *run_args)
    reference = reference_counts(binary, out_dir, args.workload, args.seed,
                                 inputs["input_hash"])

    detail = {"workload": args.workload, "seed": args.seed,
              "input_hash": inputs["input_hash"]}
    checks_ok = True
    if args.trace:
        trace_path = os.path.join(out_dir, "trace-%s-%d.json" %
                                  (args.workload, args.seed))
        out = call(binary, "trace", *run_args, "--seconds", args.seconds,
                   "--trace-out", trace_path)
        trace_ok, trace_msg = check_trace(trace_path)
        detail["trace"] = trace_path
        detail["check_trace"] = trace_msg
        detail["checks"] = out["checks"]
        detail["trace_spans"] = out["trace_spans"]
        checks_ok = trace_ok and all(out["checks"].values())
        metrics = result_metrics(bench["per_layer"], out["metrics"])
    else:
        out = call(binary, "measure", *run_args, "--seconds", args.seconds)
        # Open-loop latency is reported but not gated: its run-to-run
        # spread on a shared host exceeds any bound BENCHMARK.json may set
        # (see README.md).
        detail["latency"] = {
            "lat_p50_us": metric(out["open"]["lat_p50_us"], "us"),
            "lat_p99_us": metric(out["open"]["lat_p99_us"], "us"),
        }
        detail["closed"] = out["closed"]
        detail["open"] = out["open"]
        detail["setup_samples"] = out["setup_samples"]
        if not out["open"]["valid"]:
            sys.stderr.write("warning: open-loop source fell behind its "
                             "schedule (gen_late_ms=%.3f); latency invalid\n" %
                             out["open"]["gen_late_ms"])
        metrics = result_metrics(bench["end_to_end"], {
            "ev_per_s": out["closed"]["ev_per_s"],
            "peak_rss_mb": out["peak_rss_mb"],
            "setup_s": out["setup_s"],
        })

    if out["input_hash"] != inputs["input_hash"]:
        raise BenchError("inputs differ between two generations of one seed")
    attempted, failed = account(out["passes"], reference)
    phases = sorted({p["phase"] for p in out["passes"]})
    detail["phases_agree"] = all(p["counts"] == out["passes"][0]["counts"]
                                 for p in out["passes"])
    detail["phases"] = phases
    detail["fail_frac"] = failed / attempted if attempted else 1.0
    detail["errors"] = sorted({p["error"] for p in out["passes"] if p["error"]})
    correct = failed == 0 and checks_ok and detail["phases_agree"]
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(1)
