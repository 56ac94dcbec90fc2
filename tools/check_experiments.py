#!/usr/bin/env python3
"""Check the E1-E3 numbers EXPERIMENTS.md quotes against the bench output.

    python3 tools/check_experiments.py              # check, exit 1 on drift
    python3 tools/check_experiments.py --self-test  # a doctored number must fail

Run from the root of the repository.  E1 (the Figure 5 OpenCL table:
each benchmark's measured ratio, the mean and the max) is read against
BENCH_fig5_opencl.json; E3 (the async-forwarding ablation: mean
speedup, mean overhead, and the per-benchmark speedups the text names)
against BENCH_async.json.  A quoted number agrees when the bench value,
rounded to the number of decimals the text shows, prints the same; a
"~0 %" agrees when the value rounds to 0.  E2 (the NCS bar) has no
committed bench file, so its numbers are not checked.

Each E1/E3 number is found by a pattern tied to the document's wording;
a pattern that no longer matches is reported as an error too, so a
rewritten section cannot silently drop out of the check.
"""

import json
import re
import sys

DOC = "EXPERIMENTS.md"
FIG5 = "BENCH_fig5_opencl.json"
ASYNC = "BENCH_async.json"


def section(text, heading):
    """The body of the '## <heading>' section, up to the next '## '."""
    start = text.find("## " + heading)
    if start < 0:
        return None
    end = text.find("\n## ", start + 3)
    return text[start:] if end < 0 else text[start:end]


def agrees(quoted, value):
    """Does the quoted decimal string print [value] at its precision?"""
    if quoted.startswith("~"):
        return round(value) == float(quoted[1:])
    decimals = len(quoted.split(".")[1]) if "." in quoted else 0
    return f"{value:.{decimals}f}" == quoted


def check_e1(text, fig5, errors):
    body = section(text, "E1")
    if body is None:
        errors.append("E1: section not found")
        return 0
    rows = {r["name"]: r["relative"] for r in fig5["rows"]}
    expected = dict(rows)
    expected["mean"] = fig5["mean_relative"]
    expected["max"] = fig5["max_relative"]
    checked = 0
    for name, value in expected.items():
        # | bfs | ~1.16 (max) | **1.164** |   or   | **mean** | ... | **1.086** |
        m = re.search(
            r"^\|\s*(?:\*\*)?" + re.escape(name) + r"(?:\*\*)?\s*\|[^|\n]*\|\s*\*\*([0-9.]+)\*\*\s*\|",
            body, re.M)
        if m is None:
            errors.append(f"E1: no measured value quoted for {name}")
            continue
        checked += 1
        if not agrees(m.group(1), value):
            errors.append(f"E1: {name} quotes {m.group(1)}, {FIG5} has {value:.4f}")
    return checked


def check_e3(text, ablation, errors):
    body = section(text, "E3")
    if body is None:
        errors.append("E3: section not found")
        return 0
    measured = body[body.find("Measured:"):] if "Measured:" in body else ""
    if not measured:
        errors.append("E3: no 'Measured:' paragraph")
        return 0
    speedups = {r["name"]: r["speedup_pct"] for r in ablation["rows"]}
    checked = 0
    for label, pattern, value in [
        ("mean speedup", r"mean speedup[^*]*\*\*([0-9.]+) %\*\*",
         ablation["mean_speedup_pct"]),
        ("mean overhead", r"mean overhead\s*\*\*([0-9.]+) %\*\*",
         ablation["mean_overhead_pct"]),
    ]:
        m = re.search(pattern, measured)
        if m is None:
            errors.append(f"E3: {label} not quoted")
            continue
        checked += 1
        if not agrees(m.group(1), value):
            errors.append(f"E3: {label} quotes {m.group(1)} %, {ASYNC} has {value:.3f} %")
    # "~0 % (srad/bfs, ...)" and "48.0 % (pathfinder, ...)": each
    # percentage followed by the benchmarks it names.
    named = re.findall(r"(~?[0-9.]+) %\s*\(([a-z/]+)", measured)
    if not named:
        errors.append("E3: no per-benchmark speedup quoted")
    for quoted, names in named:
        for name in names.split("/"):
            if name not in speedups:
                errors.append(f"E3: {name} is not a benchmark of {ASYNC}")
                continue
            checked += 1
            if not agrees(quoted, speedups[name]):
                errors.append(
                    f"E3: {name} speedup quotes {quoted} %, {ASYNC} has {speedups[name]:.3f} %")
    return checked


def check(text, fig5, ablation):
    errors = []
    checked = check_e1(text, fig5, errors) + check_e3(text, ablation, errors)
    return checked, errors


def load():
    with open(DOC) as f:
        text = f.read()
    with open(FIG5) as f:
        fig5 = json.load(f)
    with open(ASYNC) as f:
        ablation = json.load(f)
    return text, fig5, ablation


def self_test():
    """The real document passes; one doctored E1 and one doctored E3
    number each fail."""
    text, fig5, ablation = load()
    checked, errors = check(text, fig5, ablation)
    if errors:
        sys.exit("self-test: the committed document fails:\n  " + "\n  ".join(errors))
    bfs_value = next(r["relative"] for r in fig5["rows"] if r["name"] == "bfs")
    bfs = f"**{bfs_value + 0.01:.3f}**"
    doctored_e1 = re.sub(r"(\| bfs \|[^|\n]*\| )\*\*[0-9.]+\*\*", lambda m: m.group(1) + bfs,
                         text, count=1)
    doctored_e3 = re.sub(r"(mean speedup[^*]*\*\*)([0-9.]+)( %\*\*)",
                         lambda m: m.group(1) + f"{float(m.group(2)) + 1:.1f}" + m.group(3),
                         text, count=1)
    for what, doctored in [("E1 bfs", doctored_e1), ("E3 mean speedup", doctored_e3)]:
        if doctored == text:
            sys.exit(f"self-test: could not doctor the {what} number")
        _, errs = check(doctored, fig5, ablation)
        if not errs:
            sys.exit(f"self-test: a doctored {what} number passed")
    print(f"self-test: ok ({checked} numbers checked; doctored E1 and E3 numbers fail)")


def main():
    if sys.argv[1:] == ["--self-test"]:
        self_test()
        return
    if sys.argv[1:]:
        sys.exit(__doc__)
    checked, errors = check(*load())
    if errors:
        print("\n".join(errors))
        sys.exit(f"check_experiments: {len(errors)} E1-E3 numbers disagree with the bench")
    print(f"check_experiments: {checked} E1-E3 numbers agree with {FIG5} and {ASYNC}")


if __name__ == "__main__":
    main()
