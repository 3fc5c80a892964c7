"""Design rules: no module of the package uses another module's private
(``_``-prefixed) names, by ``from m import _name`` or as ``m._name``; and
only ``simulate`` and ``kernel`` bind the compiled kernel's loader and the
stages of the numpy pipeline."""

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


# The lane-group engine: simulate.advance_lanes alone chooses between the
# compiled kernel and these numpy stages, for Monte Carlo runs and single
# paths alike
ENGINE_NAMES = {"lane_kernel", "draw_normals", "lane_generators", "advance_variance",
                "price_block"}
ENGINE_MODULES = {"simulate.py", "kernel.py"}


def bound_names(source: str) -> set[str]:
    """Every name that ``source`` binds: by import, assignment or definition."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


@pytest.mark.parametrize("module", sorted(p for p in PACKAGE.glob("*.py")
                                           if p.name not in ENGINE_MODULES),
                         ids=lambda p: p.name)
def test_only_the_engine_binds_the_kernel_and_the_numpy_stages(module):
    bound = bound_names(module.read_text()) & ENGINE_NAMES
    if module.name == "__init__.py":
        # the package namespace re-exports the public seeding helper
        bound -= {"lane_generators"}
    assert bound == set()


def test_the_binding_rule_sees_imports_and_assignments():
    source = ("from .kernel import lane_kernel\nfrom .simulate import draw_normals as dn\n"
              "price_block = None\ndef advance_variance(): pass\n")
    assert bound_names(source) & ENGINE_NAMES == {"lane_kernel", "price_block",
                                                  "advance_variance"}
