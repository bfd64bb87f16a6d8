"""Every top-level import of a package module is used in that module.

No linter is installed, so this is the unused-import check. `__init__.py`
imports to re-export, and a `# noqa: F401` line imports a name for the
benchmark's tracer, which test_trace_hooks checks against its wraps.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sparsecp"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a top-level import binds that no expression of the module reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {lineno})" for name, lineno in bound.items() if name not in read]


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from .io import (\n    read,\n    write,\n)\n"
        "from .tracer import hook  # noqa: F401\n"
        "def f(x) -> np.ndarray:\n    return read(x)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "write (line 6)"]


@pytest.mark.parametrize("name", MODULES)
def test_module_uses_every_import(name):
    assert unused_imports((SRC / name).read_text(encoding="utf-8")) == []
