#!/usr/bin/env python3
"""Golden-snapshot check of the stable ``repro.api`` surface.

Records every name in ``repro.api.__all__`` with its kind and — for
functions, methods, and classes — its signature, then diffs against the
committed snapshot (``tools/api-surface.json``).  Any drift (a removed
name, a changed signature, a new export that is not yet in the
snapshot) fails the check, so API breaks are a deliberate, reviewed
diff of the snapshot file rather than an accident.

Usage::

    python tools/check_api_surface.py            # verify (CI / make lint)
    python tools/check_api_surface.py --update   # regenerate the snapshot
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SNAPSHOT = os.path.join(ROOT, "tools", "api-surface.json")
sys.path.insert(0, os.path.join(ROOT, "src"))


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (ValueError, TypeError):
        return "(?)"


def _describe(name: str, obj) -> dict:
    if inspect.isclass(obj):
        # Members inherited from first-party bases count: callers see
        # them on the class.
        members = {}
        for klass in reversed(obj.__mro__):
            if klass.__module__.split(".")[0] == "repro":
                members.update(vars(klass))
        methods = {}
        for attr, member in sorted(members.items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if inspect.isfunction(member):
                methods[attr] = _signature(member)
            elif isinstance(member, classmethod):
                methods[attr] = _signature(member.__func__)
            elif isinstance(member, staticmethod):
                methods[attr] = _signature(member.__func__)
            elif isinstance(member, property):
                methods[attr] = "<property>"
        return {"kind": "class", "methods": methods}
    if inspect.isfunction(obj):
        return {"kind": "function", "signature": _signature(obj)}
    return {"kind": "constant", "type": type(obj).__name__}


def current_surface() -> dict:
    import repro.api as api

    missing = [name for name in api.__all__ if not hasattr(api, name)]
    if missing:
        raise SystemExit(f"repro.api.__all__ names missing attributes: {missing}")
    return {
        name: _describe(name, getattr(api, name)) for name in sorted(api.__all__)
    }


def _diff(snapshot: dict, current: dict) -> list:
    problems = []
    for name in snapshot:
        if name not in current:
            problems.append(f"removed from repro.api: {name}")
    for name in current:
        if name not in snapshot:
            problems.append(f"new export not in snapshot: {name}")
    for name, want in snapshot.items():
        have = current.get(name)
        if have is None or have == want:
            continue
        if want.get("kind") != have.get("kind"):
            problems.append(
                f"{name}: kind changed {want.get('kind')} -> {have.get('kind')}"
            )
            continue
        if want.get("kind") == "function":
            problems.append(
                f"{name}: signature changed {want.get('signature')} -> "
                f"{have.get('signature')}"
            )
            continue
        want_methods = want.get("methods", {})
        have_methods = have.get("methods", {})
        for method in want_methods:
            if method not in have_methods:
                problems.append(f"{name}.{method}: removed")
            elif want_methods[method] != have_methods[method]:
                problems.append(
                    f"{name}.{method}: signature changed "
                    f"{want_methods[method]} -> {have_methods[method]}"
                )
        for method in have_methods:
            if method not in want_methods:
                problems.append(f"{name}.{method}: new method not in snapshot")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true", help="regenerate the committed snapshot"
    )
    args = parser.parse_args()
    current = current_surface()
    if args.update:
        with open(SNAPSHOT, "w") as handle:
            json.dump(current, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"api-surface: wrote {len(current)} exports to {SNAPSHOT}")
        return 0
    if not os.path.exists(SNAPSHOT):
        print(
            f"api-surface: no snapshot at {SNAPSHOT}; run with --update",
            file=sys.stderr,
        )
        return 1
    with open(SNAPSHOT) as handle:
        snapshot = json.load(handle)
    problems = _diff(snapshot, current)
    if problems:
        print("api-surface: the stable repro.api surface drifted:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        print(
            "  (intentional? rerun with --update and commit the diff)",
            file=sys.stderr,
        )
        return 1
    print(f"api-surface: {len(current)} exports match the snapshot")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
