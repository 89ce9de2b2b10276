#!/usr/bin/env python3
"""Check a fresh `bench -- scale` report against the committed one.

    python3 bench/check_scale_cells.py COMMITTED.json FRESH.json

Every cell of FRESH (one port at one scale) must equal the committed
cell of the same port and scale in every field except the host
wall-clock columns seq_ms, par_ms and seq_mcycles_per_s.  The other
fields are simulated, so they are deterministic and a difference means
the simulation moved.  FRESH may cover fewer scales than COMMITTED (a
smoke run with a lower SCALE_MAX); both must use the same worker count.
Exits 1 naming every differing field.
"""
import json
import sys

HOST_FIELDS = {"seq_ms", "par_ms", "seq_mcycles_per_s"}


def cells(report):
    return {
        (port["workload"], cell["scale"]): cell
        for port in report["ports"]
        for cell in port["cells"]
    }


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} COMMITTED.json FRESH.json")
    with open(sys.argv[1]) as f:
        committed = json.load(f)
    with open(sys.argv[2]) as f:
        fresh = json.load(f)
    errors = []
    if committed["workers"] != fresh["workers"]:
        errors.append(f"workers: committed {committed['workers']}, fresh {fresh['workers']}")
    want = cells(committed)
    for key, cell in sorted(cells(fresh).items()):
        if key not in want:
            errors.append(f"{key[0]} scale {key[1]}: no committed cell")
            continue
        for field in sorted((set(cell) | set(want[key])) - HOST_FIELDS):
            got, expected = cell.get(field), want[key].get(field)
            if got != expected:
                errors.append(f"{key[0]} scale {key[1]} {field}: committed {expected}, fresh {got}")
    for e in errors:
        print(e)
    if errors:
        sys.exit(1)
    print(f"{len(cells(fresh))} cells match the committed simulated fields")


if __name__ == "__main__":
    main()
