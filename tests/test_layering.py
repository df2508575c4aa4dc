"""Module layering: a todgen module uses only the public names of another,
no module imports a name it never uses, only ``llm`` builds a completion
request, only ``mr`` spells the MR's getter, referral and self-correction
forms, only ``realizer`` spells the style keys, the transport in ``llm``
stands below the pipeline and only ``cli`` picks the mock backend."""

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


def test_only_mr_spells_the_mr_forms():
    """Other modules build and read the ``get_<service>`` getter, the
    ``ordered_by``/``index`` selectors and the ``self_correction`` segment
    through ``mr``'s helpers; f-string pieces count. Sampler's
    ``SELF_CORRECTION`` phenomenon label is the one other spelling."""
    forms = {"self_correction", "ordered_by", "index", "get_"}
    offenders = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "mr.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        label = {
            node.value for node in ast.walk(tree)
            if path.name == "sampler.py" and isinstance(node, ast.Assign)
            and [getattr(t, "id", None) for t in node.targets]
            == ["SELF_CORRECTION"]
        }
        offenders |= {
            f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in forms
            and node not in label
        }
    assert offenders == set()


def test_only_realizer_spells_the_style_keys():
    """Other modules take the six ``verbosity_...`` keys from
    ``realizer.SIX_KEYS`` or ``style_key``; f-string pieces count."""
    offenders = {
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in sorted(SRC.glob("*.py")) if path.name != "realizer.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and node.value.startswith("verbosity_")
    }
    assert offenders == set()


def _imported_modules(path: Path) -> set:
    """The todgen modules ``path`` imports when it runs: imports under ``if
    TYPE_CHECKING:`` are left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    type_only = {
        id(inner) for node in ast.walk(tree)
        if isinstance(node, ast.If) and getattr(node.test, "id", None)
        == "TYPE_CHECKING"
        for inner in ast.walk(node)
    }
    modules = set()
    for node in ast.walk(tree):
        if id(node) in type_only:
            continue
        if isinstance(node, ast.ImportFrom) and (node.level or (
                node.module or "").split(".")[0] == "todgen"):
            name = (node.module or "").removeprefix("todgen").lstrip(".")
            modules |= {name} if name else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            modules |= {a.name.split(".")[1] for a in node.names
                        if a.name.startswith("todgen.")}
    return modules


def test_llm_imports_only_runner():
    """The transport needs the dialog turn from ``runner`` and nothing of the
    pipeline; its one type-only import names the config it reads."""
    assert _imported_modules(SRC / "llm.py") == {"runner"}


def test_only_cli_imports_mock():
    """The pipeline takes whatever backend ``cli.make_backend`` builds; no
    stage knows the mock."""
    importers = {path.name for path in sorted(SRC.glob("*.py"))
                 if "mock" in _imported_modules(path)}
    assert importers == {"cli.py"}
