"""The package imports only the standard library.

pyproject.toml declares `dependencies = []`. A third-party package that
happens to be installed (numpy, say) would still import here, so this
parses every module of the package and refuses any absolute import whose
top-level name is not a standard-library module. It also refuses a
private name imported from a standard-library module, such as
`from random import _sha512`: CPython may rename or drop it in any
release. The package's own private names, imported relatively, stay
allowed. Last, importing the package must not load `dataclasses` or the
`inspect`/`ast`/`dis` chain it pulls in: every run would pay about 1 MB
of memory and 5 ms of start-up for them.
"""

import ast
import json
import subprocess
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


def private_stdlib_imports(source: str) -> list[str]:
    """`module.name` of each underscore name imported from the stdlib."""
    return [
        f"{node.module}.{alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.partition(".")[0] in sys.stdlib_module_names
        for alias in node.names
        if alias.name.startswith("_")
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


def test_the_check_sees_private_stdlib_imports():
    source = (
        "from __future__ import annotations\n"
        "from random import _sha512, Random\n"
        "from .dht import _ruler\n"
        "from numpy import _private\n"
        "from os.path import _joinrealpath as j\n"
        "def f():\n"
        "    from collections import _count_elements\n"
    )
    assert private_stdlib_imports(source) == [
        "random._sha512", "os.path._joinrealpath", "collections._count_elements",
    ]


def test_package_imports_no_private_stdlib_name():
    for path in sorted(PACKAGE.rglob("*.py")):
        assert private_stdlib_imports(path.read_text()) == [], path.name


# what the benchmark worker imports before the package
_WORKER_IMPORTS = ("hashlib", "json", "resource", "traceback", "pathlib")
_HEAVY_MODULES = {"dataclasses", "inspect", "ast", "dis"}

_ADDED_MODULES = f"""
import json, sys
sys.path.insert(0, {str(PACKAGE.parent)!r})
import {", ".join(_WORKER_IMPORTS)}
before = set(sys.modules)
import wildquery.experiments, wildquery.cli
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_package_import_loads_no_dataclasses_or_inspect():
    # -I: no user site or PYTHON* variables; the diff leaves out whatever
    # the interpreter or a site .pth loaded before the package
    out = subprocess.run(
        [sys.executable, "-I", "-c", _ADDED_MODULES],
        capture_output=True, text=True, check=True,
    ).stdout
    added = set(json.loads(out))
    assert "wildquery.cli" in added
    assert added & _HEAVY_MODULES == set()
