"""Module layering: a todgen module uses only the public names of another,
no module imports a name it never uses, and only ``llm`` builds a
completion request."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "todgen"


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


def _unused_imports(path: Path) -> list:
    """The names ``path`` imports and never references, ``__all__`` and
    ``from __future__`` aside."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "__all__"):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    offenders = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in sorted([*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py")])
        for name in _unused_imports(path)
    }
    assert offenders == set()


def test_only_llm_builds_completion_requests():
    """Every request goes through ``llm.complete_validated``, which builds it
    from the config; no other module calls ``CompletionRequest(``."""
    offenders = {
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "llm.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "CompletionRequest" in (getattr(node.func, "id", None),
                                    getattr(node.func, "attr", None))
    }
    assert offenders == set()
