#!/usr/bin/env python3
"""Fail on dead references in the repository's markdown docs.

Scans README.md, DESIGN.md, EXPERIMENTS.md, docs/*.md and the verify
skill (.claude/skills/verify/SKILL.md) for four kinds of reference,
and exits 1 listing every one that is dead:

- inline markdown links and images (``[text](target)``).  Absolute
  URLs (http/https/mailto) and pure in-page anchors (``#...``) are
  skipped; everything else resolves relative to the containing file.
  Anchor fragments (``RUNTIME.md#host-parallelism``) are checked for
  file existence only — heading slugs are not verified;
- backticked repository paths under lib/, bin/, bench/, test/, tools/,
  examples/, docs/ or perfbench/, resolved from the repository root
  (a backticked span may wrap onto the next line).
  A dune executable ``X.exe`` resolves to its source ``X.ml``, a
  brace list (``prof_{ptr,flow}.ml``) must exist in every expansion
  and a glob (``*.ml``) must match something; placeholders
  (``<name>``) are skipped;
- backticked module references ``privateer_lib.Module`` (or the OCaml
  path ``Privateer_lib.Module``) with no ``module.ml``/``.mli`` in the
  directory of the dune library named ``privateer_lib``;
- fenced ``bench`` blocks, quotes of the committed evaluation: each
  must occur verbatim in BENCH_paper.txt as consecutive whole lines.

Other fenced code blocks are skipped: their contents are illustrative.
ROADMAP.md and CHANGES.md record history and are not scanned.

Usage: python3 tools/check_links.py  (from the repository root)
"""

import os
import re
import sys
from pathlib import Path

LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SKIP = ("http://", "https://", "mailto:")
CODE = re.compile(r"`([^`]+)`")
PATH = re.compile(
    r"(?<![\w./-])((?:lib|bin|bench|test|tools|examples|docs|perfbench)/"
    r"(?:\{[^{}\s]*\}|[^\s`'\"(),;{])*)")
MODULE = re.compile(r"(?<![\w.])([Pp]rivateer(?:_[a-z]+)?)\.([A-Z]\w*)")
LIBRARY = re.compile(r"\(library\s*\(name\s+(\w+)\)")
BENCH = re.compile(r"^```bench\n(.*?)^```", re.S | re.M)


def doc_files(root: Path):
    files = [root / "README.md", root / "DESIGN.md", root / "EXPERIMENTS.md",
             *(root / "docs").glob("*.md"),
             root / ".claude" / "skills" / "verify" / "SKILL.md"]
    return sorted(f for f in files if f.exists())


def libraries(root: Path):
    """Map each dune library name to its directory."""
    libs = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d != "_build" and not d.startswith(".")]
        if "dune" in filenames:
            text = (Path(dirpath) / "dune").read_text(encoding="utf-8")
            for m in LIBRARY.finditer(text):
                libs[m.group(1)] = Path(dirpath)
    return libs


def expand_braces(path: str):
    m = re.match(r"(.*?)\{([^{}]*)\}(.*)", path)
    if not m:
        return [path]
    return [x for alt in m.group(2).split(",")
            for x in expand_braces(m.group(1) + alt + m.group(3))]


def path_exists(root: Path, path: str) -> bool:
    for p in expand_braces(path):
        if p.endswith(".exe"):
            p = p[: -len(".exe")] + ".ml"
        if not (any(root.glob(p)) if "*" in p else (root / p).exists()):
            return False
    return True


def module_exists(libs, library: str, module: str) -> bool:
    d = libs.get(library.lower())
    if d is None:
        return False
    stem = module[0].lower() + module[1:]
    return any((d / (stem + ext)).exists() for ext in (".ml", ".mli"))


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    files = doc_files(root)
    libs = libraries(root)
    paper = "\n" + (root / "BENCH_paper.txt").read_text(encoding="utf-8")
    dead = []
    links = paths = modules = quotes = 0
    for md in files:
        raw = md.read_text(encoding="utf-8")
        rel = md.relative_to(root)
        for m in BENCH.finditer(raw):
            quotes += 1
            if "\n" + m.group(1) not in paper:
                line = raw.count("\n", 0, m.start()) + 1
                dead.append(f"{rel}:{line}: bench excerpt not in BENCH_paper.txt")
        # Strip fenced code blocks: references inside them are illustrative.
        text = re.sub(r"```.*?```", "", raw, flags=re.S)
        for m in LINK.finditer(text):
            target = m.group(1)
            if target.startswith(SKIP) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            links += 1
            if not (md.parent / path).exists():
                dead.append(f"{rel}: dead link -> {target}")
        for span in CODE.finditer(text):
            for m in PATH.finditer(span.group(1)):
                path = m.group(1)
                if "<" in path:
                    continue
                paths += 1
                if not path_exists(root, path):
                    dead.append(f"{rel}: dead path `{path}`")
            for m in MODULE.finditer(span.group(1)):
                modules += 1
                if not module_exists(libs, m.group(1), m.group(2)):
                    dead.append(f"{rel}: dead module `{m.group(0)}`")
    for line in dead:
        print(line, file=sys.stderr)
    print(f"checked {links} relative links, {paths} code paths, {modules} "
          f"module names and {quotes} bench excerpts in {len(files)} files: "
          f"{'OK' if not dead else f'{len(dead)} dead'}")
    return 1 if dead else 0


if __name__ == "__main__":
    sys.exit(main())
