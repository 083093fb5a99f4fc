"""``tests/oracles.py`` is the independent check on the package, so it
must not import the package: a shared bug would then agree with itself."""

import ast
from pathlib import Path

import pytest

ORACLES = Path(__file__).with_name("oracles.py")


def package_imports(source: str) -> list[str]:
    """Every import in ``source`` that could reach triplepass: absolute
    imports of it, relative imports, and dynamic imports of any module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] in ("triplepass", "importlib")]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.split(".")[0] in ("triplepass", "importlib"):
                found.append(module)
        elif isinstance(node, ast.Name) and node.id == "__import__":
            found.append("__import__")
    return found


def test_oracles_import_nothing_from_the_package():
    assert package_imports(ORACLES.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "import triplepass",
        "import triplepass.actions as a",
        "from triplepass.actions import act",
        "from . import actions",
        "import importlib",
        "m = __import__('triplepass')",
    ],
)
def test_every_import_form_is_caught(source):
    assert package_imports(source)
