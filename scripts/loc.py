"""Count the code, docstring, comment and blank lines of each tikhoflow module.

    python scripts/loc.py [package_dir]

A docstring line is any line of a module, class or function docstring, its
blank lines included. Of the other lines, a blank line holds only
whitespace, a comment line only a comment, and every other line is code (a
line with code and a trailing comment is code). The package directory
defaults to src/tikhoflow next to this script.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> dict:
    """The number of lines of each kind in one module's source."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstring.update(range(doc.lineno, doc.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if lineno in docstring:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "tikhoflow"
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{k:>10}" for k in KINDS) + f"{'all':>10}")
    for path in sorted(root.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for k in KINDS:
            total[k] += counts[k]
        print(f"{path.name:<16}" + "".join(f"{counts[k]:>10}" for k in KINDS)
              + f"{sum(counts.values()):>10}")
    print(f"{'total':<16}" + "".join(f"{total[k]:>10}" for k in KINDS) + f"{sum(total.values()):>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
