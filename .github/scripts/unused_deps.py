#!/usr/bin/env python3
"""Fail on a declared dependency that no Rust source file names, and on
workspace entries and vendored crates that nothing uses.

    python3 .github/scripts/unused_deps.py [ROOT]

Reads the workspace manifest at ROOT (default `.`) and checks three things:

* For the root package and for each workspace member, every
  `[dependencies]` and `[dev-dependencies]` name, with `-` read as `_`,
  must appear as a word in some `.rs` file under that package's `src/`,
  `tests/`, `benches/` or `examples/`.
* Every `[workspace.dependencies]` entry must be declared by some package.
* Every `vendor/*` directory and every `exclude` entry must be reached by
  a `[workspace.dependencies]` path, directly or through the path
  dependencies of the manifests it reaches (so `vendor/serde` may pull in
  another vendored crate).

Prints one line per violation and exits 1; exits 0 when there is none.
Needs Python 3.11+ (`tomllib`) and nothing outside the standard library.
"""

import glob
import os
import re
import sys
import tomllib

SECTIONS = ("dependencies", "dev-dependencies")
ALL_SECTIONS = SECTIONS + ("build-dependencies",)
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


def undeclared_workspace_deps(root):
    """`[workspace.dependencies]` names that no package manifest declares."""
    workspace = manifest(os.path.join(root, "Cargo.toml")).get("workspace", {})
    declared = set()
    for package_dir in package_dirs(root):
        toml = manifest(os.path.join(package_dir, "Cargo.toml"))
        for section in ALL_SECTIONS:
            declared.update(toml.get(section, {}))
    return [name for name in workspace.get("dependencies", {}) if name not in declared]


def unreached_dirs(root):
    """`vendor/*` directories and `exclude` entries (relative to ROOT) that
    no workspace dependency path reaches, directly or transitively."""
    workspace = manifest(os.path.join(root, "Cargo.toml")).get("workspace", {})
    pending = [
        os.path.normpath(os.path.join(root, spec["path"]))
        for spec in workspace.get("dependencies", {}).values()
        if isinstance(spec, dict) and "path" in spec
    ]
    reached = set()
    while pending:
        path = pending.pop()
        if path in reached:
            continue
        reached.add(path)
        manifest_path = os.path.join(path, "Cargo.toml")
        if not os.path.exists(manifest_path):
            continue
        toml = manifest(manifest_path)
        for section in ALL_SECTIONS:
            for spec in toml.get(section, {}).values():
                if isinstance(spec, dict) and "path" in spec:
                    pending.append(os.path.normpath(os.path.join(path, spec["path"])))
    candidates = sorted(glob.glob(os.path.join(root, "vendor", "*", "")))
    candidates += [os.path.join(root, entry) for entry in workspace.get("exclude", [])]
    unreached = []
    for candidate in candidates:
        relative = os.path.relpath(os.path.normpath(candidate), root)
        if os.path.normpath(candidate) not in reached and relative not in unreached:
            unreached.append(relative)
    return unreached


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    failures = 0
    for package_dir in package_dirs(root):
        for section, name in unused(package_dir):
            manifest_path = os.path.relpath(os.path.join(package_dir, "Cargo.toml"), root)
            print(f"{manifest_path}: [{section}] {name} is named in no .rs file")
            failures += 1
    for name in undeclared_workspace_deps(root):
        print(f"Cargo.toml: [workspace.dependencies] {name} is declared by no package")
        failures += 1
    for path in unreached_dirs(root):
        print(f"{path} is reached by no [workspace.dependencies] path")
        failures += 1
    if failures:
        return 1
    print(
        f"{root}: every declared dependency is named in a source file, every "
        "workspace dependency is declared, and every vendored crate is reached"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
