"""Source hygiene: every module-level import in the package is used."""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "gradenet"


def unused_imports(path: Path) -> list:
    """Names a module imports at top level but never references."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(line, name) for name, line in imported.items() if name not in used]
    return [f"{path.name}:{line}: {name}" for line, name in sorted(unused)]


def test_no_unused_imports():
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [entry for path in modules for entry in unused_imports(path)] == []
