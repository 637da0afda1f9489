"""The package imports only the standard library.

pyproject.toml declares `dependencies = []`. A third-party package that
happens to be installed (numpy, say) would still import here, so this
parses every module of the package and refuses any absolute import whose
top-level name is not a standard-library module.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "wildquery"


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the absolute imports outside the stdlib."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [
        name for name in names
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]


def test_the_check_sees_foreign_imports():
    source = (
        "import os, numpy.linalg\n"
        "from numpy import array\n"
        "from . import dht\n"
        "from collections import Counter\n"
        "def f():\n"
        "    import scipy\n"
    )
    assert foreign_imports(source) == ["numpy.linalg", "numpy", "scipy"]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    for path in modules:
        assert foreign_imports(path.read_text()) == [], path.name
