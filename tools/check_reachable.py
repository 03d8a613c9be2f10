#!/usr/bin/env python3
"""Fail when a library header under src/ is reached by no artifact.

The artifacts are the figure/table/ablation benches (bench/), the examples
(examples/), the developer tools (tools/) and the benchmark driver
(perfbench/src/). Starting from every source file there, the script follows
`#include "..."` lines (resolved against the including file's directory,
then against src/); a header under src/ also pulls in its same-stem .cpp,
since that is the code the header declares. Every src/**/*.hpp outside the
resulting closure is printed and the exit status is 1.

Usage (from anywhere): python3 tools/check_reachable.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ARTIFACT_DIRS = ("bench", "examples", "tools", "perfbench/src")
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}
INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def resolve(name: str, including: Path) -> Path | None:
    for base in (including.parent, SRC):
        candidate = (base / name).resolve()
        if candidate.is_file():
            return candidate
    return None


def closure() -> set[Path]:
    pending = [
        p.resolve()
        for d in ARTIFACT_DIRS
        for p in sorted((ROOT / d).rglob("*"))
        if p.suffix in SOURCE_SUFFIXES and p.is_file()
    ]
    seen: set[Path] = set()
    while pending:
        path = pending.pop()
        if path in seen:
            continue
        seen.add(path)
        for name in INCLUDE.findall(path.read_text(encoding="utf-8")):
            target = resolve(name, path)
            if target is None:
                continue
            pending.append(target)
            implementation = target.with_suffix(".cpp")
            if target.suffix == ".hpp" and implementation.is_file():
                pending.append(implementation)
    return seen


def main() -> int:
    reached = closure()
    unreached = sorted(
        h.relative_to(ROOT).as_posix() for h in SRC.rglob("*.hpp") if h.resolve() not in reached
    )
    for header in unreached:
        print(f"unreached: {header}")
    if unreached:
        print(
            f"{len(unreached)} header(s) under src/ are included by no artifact "
            f"({', '.join(ARTIFACT_DIRS)}); delete them or use them",
            file=sys.stderr,
        )
        return 1
    print(f"ok: every header under src/ is reached from {', '.join(ARTIFACT_DIRS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
