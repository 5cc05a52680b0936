#!/usr/bin/env python3
"""Build and run the edge-stack benchmark.

    python3 edgebench/run.py --workload chat-sessions --seed 1 \
        --seconds 25 --trace 0

Run from the root of a checkout. The first call configures and builds
edgebench/CMakeLists.txt (which compiles ../src) into .bench_build/;
later calls only rebuild what changed. The edgebench binary runs
pinned to one kernel thread. Build logs go to stderr.

BENCHMARK.json at the checkout root is the one list of metric names and
units. The binary prints what it measured; this script checks that
every name it printed is listed with the same unit and that every
listed end-to-end metric (--trace 0) or per-layer metric (--trace 1) is
there, and prints the result as the last stdout line. Only per-layer
metrics of a layer the workload does not run (NOT_RUN) read 0; any
other missing metric fails the run.
"""
import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("chat-sessions", "long-decode", "lora-finetune")
RUN_TIMEOUT_S = 170

# Per-layer metric name prefixes a workload has no layer for. The decode
# anatomy runs on the workloads whose steps are mostly decode rows;
# only lora-finetune trains.
NOT_RUN = {
    "chat-sessions": ("serve.engine.overhead_us_per_step", "nn."),
    "long-decode": ("nn.train_", "nn.optim_"),
    "lora-finetune": (),
}


def log_to_stderr(cmd, cwd):
    proc = subprocess.run(cmd, cwd=cwd, stdout=sys.stderr, stderr=sys.stderr)
    return proc.returncode == 0


def check_metrics(result, listed, workload):
    """Return the result's metrics in BENCHMARK.json order, or raise
    ValueError naming the first metric that does not match."""
    got = result["metrics"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, m in got.items():
        if name not in units:
            raise ValueError("edgebench printed %s, which BENCHMARK.json does "
                             "not list" % name)
        if m["unit"] != units[name]:
            raise ValueError("%s: unit %s, BENCHMARK.json says %s"
                             % (name, m["unit"], units[name]))
    out = {}
    for m in listed:
        name = m["name"]
        if name in got:
            out[name] = got[name]
        elif name.startswith(NOT_RUN[workload]):
            out[name] = {"value": 0, "unit": m["unit"]}
        else:
            raise ValueError("edgebench did not print %s" % name)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(repo, "src", "CMakeLists.txt")):
        print("edgebench: no src/ next to edgebench/; run from a full "
              "checkout", file=sys.stderr)
        return 2
    with open(os.path.join(repo, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(repo, ".bench_build", "edgebench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not log_to_stderr(["cmake", "-S", bench_dir, "-B", build_dir,
                              "-DCMAKE_BUILD_TYPE=Release"], repo):
            print("edgebench: cmake configure failed", file=sys.stderr)
            return 1
    if not log_to_stderr(["cmake", "--build", build_dir, "--target",
                          "edgebench", "-j", "4"], repo):
        print("edgebench: build failed", file=sys.stderr)
        return 1

    env = dict(os.environ, QT8_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("QT8_TRACE", None)
    cmd = [os.path.join(build_dir, "edgebench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(repo, ".bench_build", "edgebench-out")]
    try:
        proc = subprocess.run(cmd, cwd=repo, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("edgebench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 3
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 2
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
        result["metrics"] = check_metrics(result, listed, args.workload)
    except (ValueError, KeyError) as e:
        print("edgebench: bad result: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(result))
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
