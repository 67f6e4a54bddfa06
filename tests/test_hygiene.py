"""Source hygiene: every module-level import in the package is used, and every
name the package defines is named somewhere besides its definition."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "datactl"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")  # __init__ re-exports
# Where a definition may be named: the package, its tests and its benchmark.
CORPUS = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # Names inside string annotations, e.g. ``tuple["Term", ...]``.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_is_reported():
    source = "from __future__ import annotations\nimport os\nfrom typing import Any, List\nx: List = 1\n"
    assert unused_imports(source) == ["line 2: os", "line 3: Any"]


def definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of each module-level function, class and constant, and of
    each method, dunders excepted."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef):
            found += [(item.name, item.lineno) for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [(name, line) for name, line in found
            if not (name.startswith("__") and name.endswith("__"))]


def references(source: str) -> set[str]:
    """Every name the source reads, imports or spells as an identifier string
    (string annotations, names looked up by string)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[-1])
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(inner) if isinstance(n, ast.Name)}
    return names


def unreferenced(source: str, referenced: set[str]) -> list[str]:
    return [f"line {line}: {name}" for name, line in definitions(source)
            if name not in referenced]


def test_every_definition_is_referenced():
    referenced = set().union(*(references(p.read_text(encoding="utf-8")) for p in CORPUS))
    found = {path.name: unreferenced(path.read_text(encoding="utf-8"), referenced)
             for path in MODULES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_unreferenced_definition_is_reported():
    source = (
        "LIMIT = 3\nUSED = 4\n\n\ndef helper():\n    return USED\n\n\n"
        "class Box:\n    def __init__(self):\n        self.x = helper()\n\n"
        "    def unused(self):\n        return self.x\n"
    )
    assert unreferenced(source, references(source)) == [
        "line 1: LIMIT", "line 9: Box", "line 13: unused"
    ]
