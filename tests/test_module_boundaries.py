"""Design rule: no module of the package uses another module's private
(``_``-prefixed) names, by ``from m import _name`` or as ``m._name``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hestonlab"


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_uses(source: str) -> list[str]:
    """``line N: module.name`` for each private name that ``source`` takes
    from a module it imports."""
    tree = ast.parse(source)
    modules, uses = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if is_private(alias.name):
                    uses.append(f"line {node.lineno}: {node.module}.{alias.name}")
                elif node.module is None:  # from . import module
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and is_private(node.attr)):
            uses.append(f"line {node.lineno}: {node.value.id}.{node.attr}")
    return sorted(uses)


@pytest.mark.parametrize("module", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_module_uses_another_modules_private_names(module):
    assert private_uses(module.read_text()) == []


def test_the_rule_sees_both_forms():
    source = "from .simulate import _finite, XYPath\nfrom . import model\nmodel._kron(1)\n"
    assert private_uses(source) == ["line 1: simulate._finite", "line 3: model._kron"]
    assert private_uses("from __future__ import annotations\nimport numpy as np\n") == []
