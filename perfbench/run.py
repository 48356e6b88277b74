#!/usr/bin/env python3
"""End-to-end benchmark of the cgstream simulator.

Run from the repository root:

    python3 perfbench/run.py --workload paper_cells --seed 1 --seconds 20 --trace 0

Builds the library and the benchmark binary (Release, into .bench_build/),
runs one workload for the given time, checks every job's trace_hash against
the recorded references, stamps the result with the host class, steal time
and CPU-to-wall ratio, and prints one JSON object as the last line of
stdout.  --trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones.

Maintenance modes:

    python3 perfbench/run.py --selftest                  # helper self-test
    python3 perfbench/run.py --record-refs [WORKLOAD...]  # rewrite references
"""

import argparse
import json
import os
import re
import resource
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RESULTS_DIR = os.path.join(".bench_build", "results")
WORKLOADS = ["paper_cells", "fig3_grid", "multihop_tcp"]
# The benchmark binary must finish well within a run's 180 s budget.
RUN_TIMEOUT_S = 170
# A run whose steal share exceeds this is flagged as slowed by the host.
STEAL_WARN = 0.05


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def nproc():
    return len(os.sched_getaffinity(0))


def build(targets):
    """Configure (Release only) and build `targets`; returns the build dir."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found", 2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(".bench_build", "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", str(nproc()),
                      "--target", *targets])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build step failed: {' '.join(cmd)} (log: {log_path})")
    build_type = read_cmake_cache().get("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail(f"refusing a {build_type!r} build; delete {BUILD_DIR} to "
             "reconfigure as Release", 2)
    return BUILD_DIR


def read_cmake_cache():
    out = {}
    with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                out[m.group(1)] = m.group(2)
    return out


def compiler():
    for root, _, files in os.walk(os.path.join(BUILD_DIR, "CMakeFiles")):
        if "CMakeCXXCompiler.cmake" in files:
            text = open(os.path.join(root, "CMakeCXXCompiler.cmake")).read()
            cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
            ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
            return f"{cid.group(1) if cid else '?'} {ver.group(1) if ver else '?'}"
    return "?"


def host_class():
    model, mhz = "?", "?"
    with open("/proc/cpuinfo") as f:
        for line in f:
            key, _, value = line.partition(":")
            key = key.strip()
            if key == "model name" and model == "?":
                model = value.strip()
            elif key == "cpu MHz" and mhz == "?":
                mhz = value.strip()
    return {"nproc": nproc(), "cpu_model": model, "cpu_mhz": mhz,
            "build_type": "Release", "compiler": compiler()}


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def benchmark_metrics():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_result(result, expected):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result has keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("result attempted no job")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail(f"metrics {sorted(set(metrics) ^ set(expected))} do not match "
             "BENCHMARK.json")
    for name, m in metrics.items():
        if m["unit"] != expected[name]:
            fail(f"{name} has unit {m['unit']}, BENCHMARK.json says "
                 f"{expected[name]}")


def run(args):
    binary = os.path.join(build(["cgs_perfbench"]), "cgs_perfbench")
    end_to_end, per_layer = benchmark_metrics()
    scratch = os.path.join(".bench_build", "run", f"{args.workload}-{os.getpid()}")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--refs", os.path.join(BENCH_DIR, "refs", f"{args.workload}.tsv"),
           "--scratch", scratch]

    steal0, total0 = cpu_jiffies()
    usage0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    wall = time.monotonic() - t0
    usage1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    steal1, total1 = cpu_jiffies()
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        fail(f"cgs_perfbench exited with {proc.returncode}")

    lines = proc.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    check_result(result, per_layer if args.trace else end_to_end)

    cpu = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)
    steal = (steal1 - steal0) / max(1, total1 - total0)
    stamp = {"host": host_class(), "wall_s": wall, "cpu_to_wall": cpu / wall,
             "steal_frac": steal}
    spans = os.path.join(scratch, "spans.tsv")
    if os.path.exists(spans):
        kept = os.path.join(RESULTS_DIR,
                            f"spans-{args.workload}-seed{args.seed}.tsv")
        shutil.move(spans, kept)
        stamp["spans"] = kept
    shutil.rmtree(scratch, ignore_errors=True)
    with open(os.path.join(RESULTS_DIR, "results.jsonl"), "a") as f:
        f.write(json.dumps({"workload": args.workload, "seed": args.seed,
                            "seconds": args.seconds, "trace": args.trace,
                            **stamp, "result": result}) + "\n")

    print("\n".join(lines[:-1]))
    h = stamp["host"]
    print(f"  host: nproc={h['nproc']} cpu=\"{h['cpu_model']}\" "
          f"mhz={h['cpu_mhz']} build={h['build_type']} "
          f"compiler=\"{h['compiler']}\"")
    print(f"  run: wall={wall:.2f} s cpu/wall={stamp['cpu_to_wall']:.2f} "
          f"steal={100 * steal:.2f}%"
          + ("  WARNING: host steal time is high; this run was slowed by "
             "the host" if steal > STEAL_WARN else ""))
    if "spans" in stamp:
        print(f"  spans: {stamp['spans']}")
    print(json.dumps(result))


def record_refs(workloads):
    binary = os.path.join(build(["cgs_perfbench"]), "cgs_perfbench")
    for w in workloads or WORKLOADS:
        refs = os.path.join(BENCH_DIR, "refs", f"{w}.tsv")
        os.makedirs(os.path.dirname(refs), exist_ok=True)
        if subprocess.call([binary, "--workload", w, "--refs", refs,
                            "--record-refs"]) != 0:
            fail(f"recording {w} failed")


def selftest():
    build_dir = build(["perfbench_selftest"])
    sys.exit(subprocess.call(["ctest", "--test-dir", build_dir,
                              "--output-on-failure"]))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record-refs", nargs="*", metavar="WORKLOAD")
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root: BENCHMARK.json not found", 2)
    if args.selftest:
        selftest()
    elif args.record_refs is not None:
        record_refs(args.record_refs)
    elif args.workload:
        run(args)
    else:
        p.error("--workload is required")


if __name__ == "__main__":
    main()
