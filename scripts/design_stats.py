#!/usr/bin/env python3
"""Print the design-size numbers of the package: code lines and public names.

* ``src_lines`` — lines in every ``src/**/*.py`` file, the count
  ``find src -name '*.py' | xargs cat | wc -l`` gives;
* ``public_symbols`` — names listed in every module-level ``__all__``
  under ``src/repro``, read with ``ast`` so nothing is imported.

Both should trend down as duplicate paths are deleted.  The script only
reports; it gates nothing.

Usage:
    python scripts/design_stats.py
"""

from __future__ import annotations

import ast
import json
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def src_lines(src: Path) -> int:
    """Newline count over every Python file under ``src``."""
    return sum(path.read_bytes().count(b"\n") for path in src.rglob("*.py"))


def all_names(path: Path) -> list[str]:
    """The names a module's top-level ``__all__ = [...]`` lists."""
    names: list[str] = []
    for node in ast.parse(path.read_bytes(), filename=str(path)).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            names.extend(ast.literal_eval(node.value))
    return names


def public_symbols(package: Path) -> int:
    """Total length of the ``__all__`` lists of every module in ``package``."""
    return sum(len(all_names(path)) for path in package.rglob("*.py"))


def main() -> int:
    stats = {
        "src_lines": src_lines(SRC),
        "public_symbols": public_symbols(SRC / "repro"),
    }
    print(json.dumps(stats, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
