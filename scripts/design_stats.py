#!/usr/bin/env python3
"""Print the design-size numbers of the package: lines, public names, knobs.

* ``src_lines`` — lines in every ``src/**/*.py`` file, the count
  ``find src -name '*.py' | xargs cat | wc -l`` gives;
* ``public_symbols`` — names listed in every module-level ``__all__``
  under ``src/repro``;
* ``settable_values`` — the fields of every ``*Config`` / ``*Conf``
  dataclass plus the keyword parameters (those with a default, and every
  keyword-only one) of the public callables a module defines and lists in
  its ``__all__``: functions, and classes through their ``__init__``.

Everything is read with ``ast``, so nothing is imported.  All three should
trend down as duplicate paths and unused knobs are deleted.  With
``--baseline FILE`` (a JSON object of committed values, such as
``benchmarks/baselines/BENCH_design.json``) each number is printed beside
its committed value and the delta.  The script only reports; it gates
nothing.

Usage:
    python scripts/design_stats.py [--baseline FILE]
"""

from __future__ import annotations

import argparse
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


def keyword_parameters(function: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    """Parameters of ``function`` a caller may set by keyword to change a default."""
    args = function.args
    return len(args.defaults) + len(args.kwonlyargs)


def is_config(node: ast.ClassDef) -> bool:
    """Whether ``node`` is a ``*Config`` / ``*Conf`` dataclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    return node.name.endswith(("Config", "Conf")) and any(
        getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators
    )


def settable_values(package: Path) -> int:
    """Config dataclass fields plus keyword parameters of public callables."""
    total = 0
    for path in package.rglob("*.py"):
        public = set(all_names(path))
        for node in ast.parse(path.read_bytes(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef) and is_config(node):
                total += sum(
                    isinstance(item, ast.AnnAssign)
                    and "ClassVar" not in ast.unparse(item.annotation)
                    for item in node.body
                )
            elif getattr(node, "name", None) not in public:
                continue
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                total += keyword_parameters(node)
            elif isinstance(node, ast.ClassDef):
                total += sum(
                    keyword_parameters(item)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "__init__"
                )
    return total


def design_stats(src: Path) -> dict[str, int]:
    """The three design-size numbers of the package under ``src``."""
    return {
        "src_lines": src_lines(src),
        "public_symbols": public_symbols(src / "repro"),
        "settable_values": settable_values(src / "repro"),
    }


def against_baseline(
    stats: dict[str, int], baseline: dict[str, int]
) -> dict[str, dict[str, int | None]]:
    """Each number beside its committed value and ``value - baseline``.

    A number the baseline lacks gets ``None`` for both.
    """
    return {
        name: {
            "value": value,
            "baseline": baseline.get(name),
            "delta": value - baseline[name] if name in baseline else None,
        }
        for name, value in stats.items()
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=Path, help="JSON object of committed values to compare"
    )
    args = parser.parse_args(argv)
    stats: dict = design_stats(SRC)
    if args.baseline is not None:
        stats = against_baseline(stats, json.loads(args.baseline.read_text()))
    print(json.dumps(stats, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
