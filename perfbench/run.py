#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test

The binary is built with CMake into $CARGO_TARGET_DIR (default .bench_build)
on the first run; later runs only check it is up to date. The last line of
stdout is the run's result object (see perfbench/README.md); build output
goes to stderr. --all runs every workload untraced and then traced and
prints each run's metric table. --self-test checks that corrupted expected results and a
dropped service reply are reported as failures.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected.json")
WORKLOADS = ["fig7-exhaustive", "fig8-accepted", "service-mixed",
             "cluster-halving"]


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds perfbench; returns the binary's path."""
    src = os.path.join(HERE, "..", "src", "dse", "DseEngine.h")
    if not os.path.exists(src):
        sys.exit("perfbench: library sources not found next to perfbench/")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def traces_dir():
    """Where traced runs write their spans and service-mixed its requests."""
    path = os.path.join(build_dir(), "traces")
    os.makedirs(path, exist_ok=True)
    return path


def run(binary, args):
    """Runs perfbench; returns (exit code, parsed result or None)."""
    proc = subprocess.run([binary, *args, "--out-dir", traces_dir()],
                          stdout=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def corrupt(path):
    """A copy of the expected results with every accepted config's
    objectives off by one cycle and each space's first accepted config
    turned into a rejection."""
    with open(EXPECTED) as f:
        data = json.load(f)
    for space in data["spaces"].values():
        space["accepted"] = space["accepted"][1:]
        for entry in space["accepted"]:
            for key in ("full", "exact", "service_estimate",
                        "service_simulate"):
                entry[key][0] += 1
    with open(path, "w") as f:
        json.dump(data, f)


def self_test(binary):
    bad = os.path.join(build_dir(), "expected-corrupted.json")
    corrupt(bad)
    cases = [(w, ["--expected", bad]) for w in WORKLOADS]
    cases.append(("service-mixed", ["--expected", EXPECTED, "--drop-reply"]))
    ok = True
    for workload, extra in cases:
        code, result = run(binary, ["--workload", workload, "--seed", "1",
                                    "--seconds", "1", "--trace", "0", *extra])
        caught = (code != 0 and result is not None and result["failed"] > 0
                  and not result["correct"])
        print(f"self-test {workload} {' '.join(extra[2:]) or 'corrupted'}: "
              f"{'failures reported' if caught else 'NOT DETECTED'} "
              f"({result and result['failed']} of "
              f"{result and result['attempted']} ops failed)")
        ok = ok and caught
    return 0 if ok else 1


def run_all(binary, argv):
    """Every workload, untraced and traced; exits non-zero on a failure."""
    opts = dict(zip(argv[::2], argv[1::2]))
    failed = False
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            print(f"== {workload} (trace {trace})", flush=True)
            code = subprocess.run(
                [binary, "--workload", workload,
                 "--seed", opts.get("--seed", "1"),
                 "--seconds", opts.get("--seconds", "20"), "--trace", trace,
                 "--expected", EXPECTED, "--out-dir", traces_dir()]).returncode
            failed = failed or code != 0
    return 1 if failed else 0


def main():
    argv = sys.argv[1:]
    binary = build()
    if argv == ["--self-test"]:
        return self_test(binary)
    if argv[:1] == ["--all"]:
        return run_all(binary, argv[1:])
    return subprocess.run([binary, *argv, "--expected", EXPECTED,
                           "--out-dir", traces_dir()]).returncode


if __name__ == "__main__":
    sys.exit(main())
