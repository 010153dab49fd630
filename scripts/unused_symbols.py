#!/usr/bin/env python3
"""Library-surface probe: global functions of libfcc.a nothing uses.

Lists the global text symbols (nm type T) that libfcc.a defines and
that no other object of the library references, nor any object of a
tool, example or bench binary (the main build's CMakeFiles/, test
binaries excluded), nor the fccbench program (.bench_build/). Names
are compared demangled, so a constructor's complete and base-object
variants count as one symbol.

The probe cannot see two kinds of use, so those symbols are listed in
a committed allowlist of known false positives:
  - calls inside the defining translation unit, which nm does not
    record as references;
  - virtual functions, reached only through their class's vtable.

The probe fails when a symbol outside the allowlist is flagged: a
function that only tests (or nothing) call belongs in the tests or
nowhere. It also fails when an allowlist entry is no longer flagged
(the function went, or something now calls it), so the list shrinks
with the library instead of keeping excuses for code that is gone.

Usage (after building the main tree with tests off and running
`python3 perfbench/run.py --selftest`, which builds fccbench):
  scripts/unused_symbols.py [--build build]
                            [--bench-build .bench_build/perfbench]
                            [--allowlist scripts/unused_symbols.allow]
                            [--list]
--list prints every flagged symbol, allowlisted or not.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def nm(paths):
    """(object, type, symbol) for each symbol line of `nm -A -P`:
    "<file or archive[member]>: <symbol> <type> [<value> <size>]"."""
    out = subprocess.run(["nm", "-A", "-P"] + paths, check=True,
                         capture_output=True, text=True).stdout
    for line in out.splitlines():
        where, _, rest = line.rpartition(": ")
        fields = rest.split()
        if where and len(fields) >= 2:
            yield where, fields[1], fields[0]


def objects(root, skip):
    """Object files under root's CMakeFiles/<target>.dir trees,
    except the targets skip() rejects."""
    found = []
    cmake_files = os.path.join(root, "CMakeFiles")
    for target in sorted(os.listdir(cmake_files)):
        if not target.endswith(".dir") or skip(target[:-4]):
            continue
        for dirpath, _, names in os.walk(os.path.join(cmake_files,
                                                      target)):
            found += [os.path.join(dirpath, n) for n in sorted(names)
                      if n.endswith(".o")]
    return found


def demangle(symbols):
    out = subprocess.run(["c++filt"], input="\n".join(symbols),
                         check=True, capture_output=True,
                         text=True).stdout
    return dict(zip(symbols, out.splitlines()))


def probe(build, bench_build):
    """Flagged symbols, demangled and sorted."""
    library = os.path.join(build, "libfcc.a")
    users = objects(build, lambda t: t == "fcc" or t.startswith("test_"))
    bench = objects(bench_build, lambda t: t != "fccbench")
    if not os.path.isfile(library) or not users or not bench:
        sys.exit("unused_symbols: need %s, the tool/example/bench "
                 "objects of %s and fccbench's objects under %s"
                 % (library, build, bench_build))

    defined = {}       # mangled -> defining library member
    lib_refs = {}      # mangled -> library members that reference it
    for member, kind, sym in nm([library]):
        if kind == "T":
            defined[sym] = member
        elif kind == "U":
            lib_refs.setdefault(sym, set()).add(member)
    user_refs = {sym for _, kind, sym in nm(users + bench)
                 if kind == "U"}

    names = demangle(sorted(defined))
    used = set()
    for sym, member in defined.items():
        if sym in user_refs or lib_refs.get(sym, set()) - {member}:
            used.add(names[sym])
    return len(set(names.values())), sorted(set(names.values()) - used)


def read_allowlist(path):
    with open(path, encoding="utf-8") as f:
        return {line.rstrip("\n") for line in f
                if line.strip() and not line.startswith("#")}


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build", default=os.path.join(ROOT, "build"),
                        help="main CMake build tree (default: build)")
    parser.add_argument("--bench-build",
                        default=os.path.join(ROOT, ".bench_build",
                                             "perfbench"),
                        help="perfbench build tree "
                             "(default: .bench_build/perfbench)")
    parser.add_argument("--allowlist",
                        default=os.path.join(HERE,
                                             "unused_symbols.allow"),
                        help="known false positives, one demangled "
                             "name a line")
    parser.add_argument("--list", action="store_true",
                        help="print every flagged symbol")
    args = parser.parse_args()

    total, flagged = probe(args.build, args.bench_build)
    allowed = read_allowlist(args.allowlist)
    new = [s for s in flagged if s not in allowed]
    stale = sorted(allowed - set(flagged))

    if args.list:
        for sym in flagged:
            print(sym)
    print("unused_symbols: %d global text symbols, %d flagged, "
          "%d allowlisted, %d new, %d allowlist entries no longer "
          "flagged" % (total, len(flagged), len(flagged) - len(new),
                       len(new), len(stale)))
    for sym in stale:
        print("  STALE: " + sym)
    for sym in new:
        print("  NEW: " + sym)
    if stale:
        print("unused_symbols: %d allowlist entry(ies) no longer "
              "flagged: drop them from the allowlist" % len(stale))
    if new:
        print("unused_symbols: %d symbol(s) no tool, example, bench or "
              "perfbench object reaches: delete them, or allowlist a "
              "same-TU call or virtual override" % len(new))
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
