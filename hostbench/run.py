#!/usr/bin/env python3
"""Build the host-cost benchmark from source and run it.

    python3 hostbench/run.py --workload rodinia|fleet|dataplane \
        --seed N --seconds S --trace 0|1
    python3 hostbench/run.py --self-test

Run from the root of the repository.  The benchmark and the AvA
libraries it links are built with dune into .bench_build/.  The last
line of standard output is the JSON result of main.exe; it is checked
against BENCHMARK.json (every end-to-end metric with --trace 0, every
per-layer metric with --trace 1, with the declared units) and the run
fails if it does not match.  Spans of a traced run go to
.bench_build/traces/.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGETS = ["hostbench/main.exe", "hostbench/selftest.exe"]

# The stack allocates and frees MB blobs on every large call.  With
# glibc's default thresholds each one is mapped and unmapped afresh, so
# page faults become a quarter of the run's CPU time and swing it by
# +-15% with the machine's memory traffic.  A long-running process
# keeps such blocks in its heap; so does the benchmark.
ENV = dict(os.environ, GLIBC_TUNABLES=(
    "glibc.malloc.mmap_threshold=268435456:"
    "glibc.malloc.trim_threshold=1073741824"))


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune not found")


def build():
    cmd = dune() + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                    "--profile", "release"] + TARGETS
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        sys.exit("run.py: build failed")


def exe(name):
    return os.path.join(BUILD_DIR, "default", "hostbench", name)


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def self_test(spec):
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    return subprocess.run([exe("selftest.exe"),
                           "--calls-bound", str(bound["calls_per_s"]),
                           "--alloc-bound", str(bound["alloc_kb_per_call"])],
                          env=ENV).returncode


def check(result, spec, traced):
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if traced else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        sys.exit(f"run.py: metrics do not match BENCHMARK.json "
                 f"(missing {missing}, unexpected {extra})")


def main(argv):
    if not os.path.isfile("BENCHMARK.json"):
        sys.exit("run.py: run from the repository root")
    spec = load_spec()
    build()
    if argv == ["--self-test"]:
        return self_test(spec)
    traced = "--trace" in argv and argv[argv.index("--trace") + 1] == "1"
    out = os.path.join(BUILD_DIR, "traces")
    os.makedirs(out, exist_ok=True)
    done = subprocess.run([exe("main.exe")] + argv + ["--out", out],
                          stdout=subprocess.PIPE, text=True, env=ENV)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        sys.exit(f"run.py: main.exe exited with {done.returncode}")
    check(json.loads(lines[-1]), spec, traced)
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
