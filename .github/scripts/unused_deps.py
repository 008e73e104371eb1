#!/usr/bin/env python3
"""Fail on a declared dependency that no Rust source file names.

    python3 .github/scripts/unused_deps.py [ROOT]

Reads the workspace manifest at ROOT (default `.`). For the root package
and for each workspace member, every `[dependencies]` and
`[dev-dependencies]` name, with `-` read as `_`, must appear as a word in
some `.rs` file under that package's `src/`, `tests/`, `benches/` or
`examples/`. Prints one line per dependency that appears in none and
exits 1; exits 0 when every dependency is named. Needs Python 3.11+
(`tomllib`) and nothing outside the standard library.
"""

import glob
import os
import re
import sys
import tomllib

SECTIONS = ("dependencies", "dev-dependencies")
SOURCE_DIRS = ("src", "tests", "benches", "examples")


def manifest(path):
    with open(path, "rb") as f:
        return tomllib.load(f)


def package_dirs(root):
    """The root package (if any) and every member directory, in order."""
    workspace = manifest(os.path.join(root, "Cargo.toml"))
    dirs = [root] if "package" in workspace else []
    for pattern in workspace.get("workspace", {}).get("members", []):
        dirs.extend(sorted(glob.glob(os.path.join(root, pattern))))
    return dirs


def rust_sources(package_dir):
    """The text of every `.rs` file under the package's source dirs."""
    for name in SOURCE_DIRS:
        pattern = os.path.join(package_dir, name, "**", "*.rs")
        for path in sorted(glob.glob(pattern, recursive=True)):
            with open(path, encoding="utf-8") as f:
                yield f.read()


def unused(package_dir):
    """(section, name) for each declared dependency no source names."""
    toml = manifest(os.path.join(package_dir, "Cargo.toml"))
    declared = [(s, name) for s in SECTIONS for name in toml.get(s, {})]
    text = "\n".join(rust_sources(package_dir))
    return [
        (section, name)
        for section, name in declared
        if not re.search(rf"\b{re.escape(name.replace('-', '_'))}\b", text)
    ]


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    failures = 0
    for package_dir in package_dirs(root):
        for section, name in unused(package_dir):
            manifest_path = os.path.relpath(os.path.join(package_dir, "Cargo.toml"), root)
            print(f"{manifest_path}: [{section}] {name} is named in no .rs file")
            failures += 1
    if failures:
        return 1
    print(f"{root}: every declared dependency is named in a source file")
    return 0


if __name__ == "__main__":
    sys.exit(main())
