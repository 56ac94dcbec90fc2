#!/usr/bin/env python3
"""Flag exported values in lib/**/*.mli that nothing outside their module uses.

The scan is conservative: a value counts as used if its name appears as a
whole word in any OCaml source file (.ml or .mli) of the repository other
than its own module's .ml and .mli, comments included.  So it never flags a
value that something uses; it can miss a dead value whose name is common.

Run from the repository root:

    python3 tools/check_exports.py          # exit 1 on an unlisted unused value
    python3 tools/check_exports.py --list   # print every unused value, allowed or not

A value kept on purpose goes in ALLOWED below with a one-line reason.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP_DIRS = {"_build", ".bench_build", ".git", "_opam"}

# Exported values with no user outside their module, kept on purpose.
ALLOWED = {
    "Server.status_ok": "the status-code set is documented whole; 0 is its success code",
    "Stub.sva_min_bytes": "the documented threshold above which SVA pins a blob",
}

VAL = re.compile(r"^\s*val\s+([a-z_][A-Za-z0-9_']*)")
OPEN_SIG = re.compile(r"^\s*module\s+(?:type\s+)?([A-Z][A-Za-z0-9_']*)\b.*\bsig\b")
END = re.compile(r"^\s*end\b")


def sources():
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for f in filenames:
            if f.endswith((".ml", ".mli")):
                yield os.path.join(dirpath, f)


def exported(mli):
    """(qualified name, value name) for each `val` of [mli]."""
    top = os.path.basename(mli)[:-4].capitalize()
    path = [top]
    out = []
    with open(mli) as fh:
        for line in fh:
            m = OPEN_SIG.match(line)
            if m:
                path.append(m.group(1))
                if re.search(r"\bend\b", line.split("sig", 1)[1]):
                    path.pop()
                continue
            if END.match(line) and len(path) > 1:
                path.pop()
                continue
            m = VAL.match(line)
            if m:
                out.append((".".join(path + [m.group(1)]), m.group(1)))
    return out


def main(argv):
    files = sorted(sources())
    text = {}
    for f in files:
        with open(f, errors="replace") as fh:
            text[f] = fh.read()
    words = {}
    for f, body in text.items():
        for w in set(re.findall(r"[A-Za-z_][A-Za-z0-9_']*", body)):
            words.setdefault(w, set()).add(f)
    unused = []
    for mli in files:
        rel = os.path.relpath(mli, ROOT)
        if not (rel.startswith("lib" + os.sep) and mli.endswith(".mli")):
            continue
        own = {mli, mli[:-1]}
        for qual, name in exported(mli):
            if not (words.get(name, set()) - own):
                unused.append((rel, qual))
    failures = [(rel, q) for rel, q in unused if q not in ALLOWED]
    if "--list" in argv:
        for rel, q in unused:
            tag = "allowed" if q in ALLOWED else "UNUSED"
            print(f"{tag:8} {q:45} {rel}")
    stale = sorted(set(ALLOWED) - {q for _, q in unused})
    for q in stale:
        print(f"stale allowlist entry (now used or gone): {q}")
    for rel, q in failures:
        print(f"{rel}: {q} is exported but nothing outside its module uses it")
    if failures or stale:
        return 1
    print(f"ok: every exported value in lib/ has a user ({len(unused)} allowed)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
