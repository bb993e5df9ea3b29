"""No module of the package imports another module's private name: what
one module uses of another is that module's public API."""

import ast
from pathlib import Path

import aspeq

SOURCES = sorted(Path(aspeq.__file__).parent.glob("*.py"))


def test_no_private_cross_module_imports():
    private = [
        f"{path.name}:{node.lineno} {alias.name}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert SOURCES and private == []
