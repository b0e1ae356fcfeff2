"""List public top-level names in ``src/`` that nothing outside ``tests/`` reaches.

A public top-level function, class or assignment in a ``src/`` module (not an
``__init__.py``) must be used by some file under ``src/`` (``__init__.py``
re-exports do not count), ``examples/``, ``perfbench/``, ``benchmarks/`` or
``ci/``.  Python files count a use by AST (a loaded name, an attribute or an
imported name); shell scripts count a whole-word match.  The definition
itself does not count.  Methods and UPPERCASE constants are exempt.

Run from the repository root: python ci/check_reachable.py
Exits 1 and lists each unreached name as ``path:line name``.
"""

from __future__ import annotations

import ast
import re
import sys
from collections import Counter
from pathlib import Path

SOURCES = ("src", "examples", "perfbench", "benchmarks", "ci")


def used_names(node: ast.AST) -> Counter:
    """Count every name ``node`` loads, reads as an attribute or imports."""
    names: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            names[sub.name.rpartition(".")[2]] += 1
    return names


def public_definitions(tree: ast.Module):
    """Yield ``(name, node)`` for each public top-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            pairs = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in pairs if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if not name.startswith("_") and not name.isupper():
                yield name, node


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    uses: Counter = Counter()
    shell_text = []
    definitions = []
    for top in SOURCES:
        for path in sorted((root / top).rglob("*")):
            if path.suffix == ".sh":
                shell_text.append(path.read_text())
            if path.suffix != ".py" or (top == "src" and path.name == "__init__.py"):
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            uses += used_names(tree)
            if top == "src":
                definitions += [(path, name, node) for name, node in public_definitions(tree)]
    shell = "\n".join(shell_text)
    unreached = [
        (path, name, node)
        for path, name, node in definitions
        if uses[name] - used_names(node)[name] <= 0 and not re.search(rf"\b{name}\b", shell)
    ]
    for path, name, node in unreached:
        print(f"{path.relative_to(root)}:{node.lineno} {name}")
    if unreached:
        print(f"{len(unreached)} public name(s) in src/ reached only from tests/", file=sys.stderr)
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
