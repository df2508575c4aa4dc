"""Module layering: a todgen module uses only the public names of another."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "todgen"


def _todgen_imports(path: Path) -> list:
    """The ``from ... import`` nodes of ``path`` that name a todgen module."""
    return [
        node for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "todgen")
    ]


def test_no_module_imports_private_names_of_another():
    offenders = {
        f"{path.name}: from {node.module} import {alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in _todgen_imports(path)
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert offenders == set()


def test_values_is_a_leaf_module():
    assert _todgen_imports(SRC / "values.py") == []
    tree = ast.parse((SRC / "values.py").read_text(encoding="utf-8"))
    assert not any(
        alias.name.split(".")[0] == "todgen"
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    )
