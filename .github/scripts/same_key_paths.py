#!/usr/bin/env python3
"""Check that a regenerated bench JSON file keeps the committed file's keys.

    python3 .github/scripts/same_key_paths.py BENCH_3.json [REV]

Compares the key paths of the file in the working tree (as a bench binary
just wrote it) with those of the same file at REV (default HEAD), in
order. A path is the chain of object keys and array indices down to a
scalar, such as `escale[3].events_per_sec`. Exits 1 and prints the first
difference when the two lists differ.
"""

import json
import subprocess
import sys


def key_paths(value, prefix=""):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from key_paths(item, f"{prefix}.{key}" if prefix else key)
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from key_paths(item, f"{prefix}[{index}]")
    else:
        yield prefix


def main():
    path = sys.argv[1]
    rev = sys.argv[2] if len(sys.argv) > 2 else "HEAD"
    committed = subprocess.run(
        ["git", "show", f"{rev}:{path}"], check=True, capture_output=True, text=True
    ).stdout
    with open(path, encoding="utf-8") as f:
        written = list(key_paths(json.load(f)))
    expected = list(key_paths(json.loads(committed)))
    if written == expected:
        print(f"{path}: {len(written)} key paths, same order as {rev}")
        return 0
    for index, (got, want) in enumerate(zip(written, expected)):
        if got != want:
            print(f"{path}: key path {index} is `{got}`, {rev} has `{want}`")
            return 1
    print(f"{path}: {len(written)} key paths, {rev} has {len(expected)}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
