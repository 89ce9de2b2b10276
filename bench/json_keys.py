#!/usr/bin/env python3
"""Print the sorted set of key paths in a JSON document.

Used by CI to diff a freshly generated `server` bench report
(BENCH_server.json) against its committed schema (BENCH_server.keys):
values change run to run, the key structure must not drift silently.
List elements collapse onto one `[]` segment, so arrays of uniform
objects contribute each field once.

    python3 bench/json_keys.py BENCH_server.json | diff -u bench/BENCH_server.keys -
"""
import json
import sys


def paths(node, prefix, out):
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{prefix}.{key}" if prefix else key
            out.add(path)
            paths(value, path, out)
    elif isinstance(node, list):
        for value in node:
            paths(value, prefix + "[]", out)


def main():
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} FILE.json")
    with open(sys.argv[1]) as f:
        doc = json.load(f)
    out = set()
    paths(doc, "", out)
    print("\n".join(sorted(out)))


if __name__ == "__main__":
    main()
