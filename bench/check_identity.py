#!/usr/bin/env python3
"""Virtual-time identity check against bench/BASELINE.json.

Virtual time is deterministic, so an unchanged stack regenerates its
baseline sections exactly; a one-sided tolerance gate cannot see an
identity break.  Each argument pairs a bench output file with its
baseline section: FILE=SECTION checks that BENCH_FILE.json equals
section SECTION of bench/BASELINE.json.  Run from the repository root
after the benches have written their BENCH_*.json files:

    python3 bench/check_identity.py fig5_opencl=fig5-opencl pool=pool-scaling

Exits non-zero, naming the differing files, when any pair differs.
"""
import json
import sys


def main(args):
    pairs = [a.split("=", 1) for a in args]
    if not pairs or any(len(p) != 2 or not all(p) for p in pairs):
        sys.exit(__doc__)
    with open("bench/BASELINE.json") as f:
        base = json.load(f)
    bad = []
    for name, section in pairs:
        with open(f"BENCH_{name}.json") as f:
            if json.load(f) != base[section]:
                bad.append(name)
    if bad:
        sys.exit(f"virtual time differs from bench/BASELINE.json: {bad}")
    print("ok: virtual time identical to baseline")


if __name__ == "__main__":
    main(sys.argv[1:])
