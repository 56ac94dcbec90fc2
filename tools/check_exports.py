#!/usr/bin/env python3
"""Flag exported values in lib/**/*.mli that nothing outside their module uses.

A value `v` of module `M` counts as used when an OCaml source file (.ml or
.mli) of the repository other than its own module's .ml and .mli, comments
included, mentions it qualified, as `M.v` (or `X.v` where the file aliases
`module X = ...M`), or mentions `v` as a whole word while opening or
including `M` (`open M`, `let open M in`, `M.( ... )`, `include M`).  So a
local that happens to share the value's name does not hide a dead export.
A value declared in a `module type` has no one module name to qualify it,
so any whole-word mention counts for it.

Run from the repository root:

    python3 tools/check_exports.py          # exit 1 on an unlisted unused value
    python3 tools/check_exports.py --list   # print every unused value, allowed or not,
                                            # and every value only test/ uses

`--list` tags a value whose every user lies under test/ as `tests-only`;
the gate counts a test as a user, so such values pass it.

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
OPEN_SIG = re.compile(r"^\s*module\s+(type\s+)?([A-Z][A-Za-z0-9_']*)\b.*\bsig\b")
END = re.compile(r"^\s*end\b")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
QUALIFIED = re.compile(r"\b([A-Z][A-Za-z0-9_']*)\.([a-z_][A-Za-z0-9_']*)")
ALIAS = re.compile(r"\bmodule\s+([A-Z][A-Za-z0-9_']*)\s*=\s*(?:[A-Z][A-Za-z0-9_']*\.)*([A-Z][A-Za-z0-9_']*)\b(?!\s*\()")
OPENS = re.compile(
    r"\b(?:open!?|include)\s+(?:[A-Z][A-Za-z0-9_']*\.)*([A-Z][A-Za-z0-9_']*)"
    r"|\b([A-Z][A-Za-z0-9_']*)\.\(")


def sources():
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for f in filenames:
            if f.endswith((".ml", ".mli")):
                yield os.path.join(dirpath, f)


def exported(mli):
    """(qualified name, module, value name, in a module type) for each
    `val` of [mli]; [module] is the innermost module the value sits in."""
    top = os.path.basename(mli)[:-4].capitalize()
    path = [(top, False)]
    out = []
    with open(mli) as fh:
        for line in fh:
            m = OPEN_SIG.match(line)
            if m:
                path.append((m.group(2), bool(m.group(1))))
                if re.search(r"\bend\b", line.split("sig", 1)[1]):
                    path.pop()
                continue
            if END.match(line) and len(path) > 1:
                # `end) : sig` closes a functor's parameter and opens its
                # result, whose values the functor's name qualifies.
                if not re.search(r"\bsig\b", line):
                    path.pop()
                continue
            m = VAL.match(line)
            if m:
                qual = ".".join([p for p, _ in path] + [m.group(1)])
                in_type = any(t for _, t in path)
                out.append((qual, path[-1][0], m.group(1), in_type))
    return out


class Uses:
    """What one source file mentions: bare words, `M.v` pairs (aliases
    resolved to the module they name) and the modules it opens."""

    def __init__(self, body):
        self.words = set(WORD.findall(body))
        aliases = {x: m for x, m in ALIAS.findall(body)}
        self.qualified = set()
        for m, v in QUALIFIED.findall(body):
            self.qualified.add((m, v))
            if m in aliases:
                self.qualified.add((aliases[m], v))
        self.opened = set()
        for a, b in OPENS.findall(body):
            m = a or b
            self.opened.add(m)
            self.opened.add(aliases.get(m, m))

    def uses(self, module, name, in_type):
        if in_type:
            return name in self.words
        return (module, name) in self.qualified or (
            module in self.opened and name in self.words)


def main(argv):
    files = sorted(sources())
    uses = {}
    for f in files:
        with open(f, errors="replace") as fh:
            uses[f] = Uses(fh.read())
    unused = []
    tests_only = []
    n_vals = 0
    for mli in files:
        rel = os.path.relpath(mli, ROOT)
        if not (rel.startswith("lib" + os.sep) and mli.endswith(".mli")):
            continue
        own = {mli, mli[:-1]}
        for qual, module, name, in_type in exported(mli):
            n_vals += 1
            users = [f for f, u in uses.items()
                     if f not in own and u.uses(module, name, in_type)]
            if not users:
                unused.append((rel, qual))
            elif all(os.path.relpath(f, ROOT).startswith("test" + os.sep)
                     for f in users):
                tests_only.append((rel, qual))
    failures = [(rel, q) for rel, q in unused if q not in ALLOWED]
    if "--list" in argv:
        for rel, q in unused:
            tag = "allowed" if q in ALLOWED else "UNUSED"
            print(f"{tag:10} {q:45} {rel}")
        for rel, q in tests_only:
            print(f"{'tests-only':10} {q:45} {rel}")
        print(f"{len(unused)} unused, {len(tests_only)} tests-only")
    stale = sorted(set(ALLOWED) - {q for _, q in unused})
    for q in stale:
        print(f"stale allowlist entry (now used or gone): {q}")
    for rel, q in failures:
        print(f"{rel}: {q} is exported but nothing outside its module uses it")
    if failures or stale:
        return 1
    print(f"ok: every exported value in lib/ has a user "
          f"({n_vals} values, {len(unused)} allowed)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
