"""Package layering: the query layer never imports the analysis layer.

``repro.analysis`` sits above the query layer (its verifier and lint rules
import ``repro.query``), so any ``repro.query`` → ``repro.analysis`` import —
even a function-level one that dodges the cycle at import time — inverts
the dependency.  The scan reads every module's AST, so imports inside
functions count too.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent
QUERY_MODULES = sorted((PACKAGE_ROOT / "query").rglob("*.py"))


def imported_modules(source: str, package: str) -> list[tuple[int, str]]:
    """Every absolute module name *source* imports, with its line number.

    *package* is the package the module lives in, for resolving relative
    imports.  ``from X import Y`` reports both ``X`` and ``X.Y``, since
    ``Y`` may be a submodule.
    """
    found: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(source)):
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
    # A module's package is its directory, ``__init__.py`` included.
    package = ".".join(path.relative_to(PACKAGE_ROOT.parent).parent.parts)
    offending = [
        f"{path.relative_to(PACKAGE_ROOT.parent)}:{line} imports {name}"
        for line, name in _analysis_imports(path.read_text(encoding="utf-8"), package)
    ]
    assert not offending, "\n".join(offending)
