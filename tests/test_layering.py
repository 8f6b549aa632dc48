"""Package layering: the query layer never imports the analysis layer.

``repro.analysis`` sits above the query layer (its verifier and lint rules
import ``repro.query``), so any ``repro.query`` → ``repro.analysis`` import —
even a function-level one that dodges the cycle at import time — inverts
the dependency.  The scan reads every module's AST, so imports inside
functions count too.

``repro.core`` sits above ``repro.query`` and imports it at module level, so
a function-level ``repro.query`` import in a core module dodges no cycle and
only hides the dependency; those are rejected too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
QUERY_MODULES = sorted((PACKAGE_ROOT / "query").rglob("*.py"))
CORE_MODULES = sorted((PACKAGE_ROOT / "core").rglob("*.py"))


def imported_modules(source: str, package: str) -> list[tuple[int, str]]:
    """Every absolute module name *source* imports, with its line number.

    *package* is the package the module lives in, for resolving relative
    imports.  ``from X import Y`` reports both ``X`` and ``X.Y``, since
    ``Y`` may be a submodule.
    """
    return _imports_in(ast.parse(source), package)


def function_level_imports(source: str, package: str) -> list[tuple[int, str]]:
    """Like :func:`imported_modules`, but only imports inside a function."""
    found: set[tuple[int, str]] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update(_imports_in(node, package))
    return sorted(found)


def _imports_in(tree: ast.AST, package: str) -> list[tuple[int, str]]:
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parts = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(parts + ([node.module] if node.module else []))
            found.append((node.lineno, base))
            found.extend((node.lineno, f"{base}.{alias.name}") for alias in node.names)
    return found


def _analysis_imports(source: str, package: str) -> list[tuple[int, str]]:
    return [
        (line, name)
        for line, name in imported_modules(source, package)
        if name == "repro.analysis" or name.startswith("repro.analysis.")
    ]


def _function_level_query_imports(source: str, package: str) -> list[tuple[int, str]]:
    return [
        (line, name)
        for line, name in function_level_imports(source, package)
        if name == "repro.query" or name.startswith("repro.query.")
    ]


def _package_of(path: Path) -> str:
    # A module's package is its directory, ``__init__.py`` included.
    return ".".join(path.relative_to(PACKAGE_ROOT.parent).parent.parts)


def test_the_scan_sees_function_level_and_relative_imports():
    source = (
        "def f():\n"
        "    from ..analysis.ir import verify_program\n"
        "    from repro import analysis\n"
        "    import repro.analysis.codelint\n"
    )
    names = {name for _line, name in _analysis_imports(source, "repro.query")}
    assert {"repro.analysis.ir", "repro.analysis", "repro.analysis.codelint"} <= names
    assert _analysis_imports("from ..relational import index\n", "repro.query") == []


@pytest.mark.parametrize(
    "path", QUERY_MODULES, ids=lambda path: path.relative_to(PACKAGE_ROOT).as_posix()
)
def test_query_modules_do_not_import_analysis(path):
    offending = [
        f"{path.relative_to(PACKAGE_ROOT.parent)}:{line} imports {name}"
        for line, name in _analysis_imports(
            path.read_text(encoding="utf-8"), _package_of(path)
        )
    ]
    assert not offending, "\n".join(offending)


def test_the_function_level_scan_ignores_module_level_imports():
    source = (
        "from repro.query.ast import Constant\n"
        "class C:\n"
        "    def method(self):\n"
        "        from ..query.parser import parse_query\n"
        "        def inner():\n"
        "            import repro.query.evaluator\n"
    )
    assert _function_level_query_imports(source, "repro.core") == [
        (4, "repro.query.parser"),
        (4, "repro.query.parser.parse_query"),
        (6, "repro.query.evaluator"),
    ]


@pytest.mark.parametrize(
    "path", CORE_MODULES, ids=lambda path: path.relative_to(PACKAGE_ROOT).as_posix()
)
def test_core_modules_import_query_at_module_level(path):
    offending = [
        f"{path.relative_to(PACKAGE_ROOT.parent)}:{line} imports {name} inside a function"
        for line, name in _function_level_query_imports(
            path.read_text(encoding="utf-8"), _package_of(path)
        )
    ]
    assert not offending, "\n".join(offending)
