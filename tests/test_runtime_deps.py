"""The runtime dependency stays at numpy alone: every import in the package
is relative, from the standard library, or numpy."""

import ast
import sys
from pathlib import Path

import pvseval

PACKAGE = Path(pvseval.__file__).parent


def foreign_imports(source: str) -> list[str]:
    """Top-level names of the absolute imports in source that are neither
    standard library nor numpy."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [n for n in names
            if n.split(".")[0] not in sys.stdlib_module_names and n.split(".")[0] != "numpy"]


def test_package_imports_only_numpy_and_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    found = {p.name: foreign_imports(p.read_text()) for p in sources}
    assert {name: bad for name, bad in found.items() if bad} == {}


def test_guard_catches_a_foreign_import():
    source = "import numpy as np\nfrom . import ccl\nimport scipy.ndimage\n" \
             "def f():\n    from sklearn import metrics\n"
    assert foreign_imports(source) == ["scipy.ndimage", "sklearn"]
