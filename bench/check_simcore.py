#!/usr/bin/env python3
"""Wall-clock gate for BENCH_simcore.json against bench/BASELINE.json: each
load must keep ns_per_event <= base * 1.75 + 100 ns and
alloc_bytes_per_event <= base * 1.75.  Run from the repository root after
`bench/main.exe -- simcore`; --self-test checks that the run inflated by
200% (plus 200, past the ns floor) fails instead.
"""
import json
import sys

SLACK = {"ns_per_event": 100.0, "alloc_bytes_per_event": 0.0}


def regressions(cur):
    base = json.load(open("bench/BASELINE.json"))["simcore"]["loads"]
    now = {load["name"]: load for load in cur["loads"]}
    bad = []
    for b in base:
        for m, slack in SLACK.items():
            got = now.get(b["name"], {}).get(m, float("inf"))
            if got > b[m] * 1.75 + slack:
                bad.append(f"{b['name']} {m} {got:.1f} (base {b[m]:.1f})")
    return bad


args = sys.argv[1:]
if args not in ([], ["--self-test"]):
    sys.exit(__doc__)
cur = json.load(open("BENCH_simcore.json"))
if args:
    for load in cur["loads"]:
        for m in SLACK:
            load[m] = load[m] * 3 + 200
    if not regressions(cur):
        sys.exit("self-test: a run inflated by 200% passed the simcore gate")
    print("self-test ok: the simcore gate fails on +200% inflation")
elif bad := regressions(cur):
    sys.exit("simcore regressed: " + "; ".join(bad))
else:
    print("ok: simcore within 1.75x (+100 ns) of bench/BASELINE.json")
