"""Source hygiene: every module-level import in the package is used, every
module-level function and class has a caller inside the package, every
public field and method of a class is read there, and the CLI loads no
scipy subpackage but `scipy.special`."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def names_used(path: Path) -> set:
    """Names and attributes a module references, outside the definitions they name."""
    used = set()
    for statement in ast.parse(path.read_text(encoding="utf-8")).body:
        names = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(statement)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            names.discard(statement.name)
        used |= names
    return used


def test_every_public_name_has_a_caller():
    # private module-level names too, so that a test-only oracle stays in
    # tests/; synth.py's planted_two_band_config is a helper for library
    # users; a re-export from __init__.py is not a caller
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    used = set().union(*(names_used(path) for path in modules))
    uncalled = [
        f"{path.name}:{node.lineno}: {node.name}"
        for path in modules
        if path.name != "synth.py"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in used
    ]
    assert uncalled == []


def test_numeric_layers_take_adjacency_arrays():
    # stats and nullmodels read the dense adjacency that the pipeline builds
    # from a scope Graph; modularity is a test oracle in conftest.py
    for name in ("nullmodels.py", "stats.py"):
        tree = ast.parse((SOURCE / name).read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        referenced = imported | names_used(SOURCE / name)
        assert not referenced & {"Graph", "_adjacency_matrix"}, name
    defined = {
        node.name
        for path in SOURCE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert "modularity" not in defined


# Class members that nothing in src/ reads as an attribute, with the reason each stays.
MEMBERS_READ_ELSEWHERE = {
    "_Parser.error": "argparse calls it on a usage error",
    "CommunityPartition.dendrogram": "the Girvan-Newman oracle tests compare it step by step",
}


def test_every_class_member_is_read():
    # a member counts as read when any attribute of its name is loaded in
    # src/, so a name shared with another read escapes: a method named copy
    # would pass unread, as records._read_columns reads `rows[name].copy()`
    modules = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in modules}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for name, tree in trees.items():
        if name == "synth.py":
            continue
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for member in cls.body:
                if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    attr = member.target.id
                elif isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    attr = member.name
                else:
                    continue
                key = f"{cls.name}.{attr}"
                if attr not in read and key not in MEMBERS_READ_ELSEWHERE:
                    unread.append(f"{name}:{member.lineno}: {key}")
    assert unread == []


def test_cli_imports_only_scipy_special():
    # a fresh interpreter: this process already holds scipy.spatial and
    # scipy.stats through conftest.py
    probe = (
        "import sys; import gradenet.cli; "
        "print(sorted(name for name, module in sys.modules.items() "
        "if name.startswith('scipy.') and name.count('.') == 1 "
        "and not name.startswith('scipy._') and hasattr(module, '__path__')))"
    )
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert ast.literal_eval(out) == ["scipy.special"]
