"""The export lists: each module's __all__ names real objects, and the package
re-exports only names its modules list."""

import ast
import importlib
from pathlib import Path

import pytest

import neuralbandit

PACKAGE_INIT = Path(neuralbandit.__file__)
MODULES_WITH_EXPORTS = ("confidence", "environments", "harness", "network", "ntk", "policies")


def package_imports():
    """(module, name) for every `from neuralbandit.<module> import <name>` in __init__.py."""
    tree = ast.parse(PACKAGE_INIT.read_text(encoding="utf-8"))
    return [(node.module.removeprefix("neuralbandit."), alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


@pytest.mark.parametrize("module_name", MODULES_WITH_EXPORTS)
def test_every_exported_name_exists(module_name):
    module = importlib.import_module(f"neuralbandit.{module_name}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"neuralbandit.{module_name}.__all__ lists missing names {missing}"
    assert len(set(module.__all__)) == len(module.__all__)


def test_package_imports_only_exported_names():
    imports = package_imports()
    assert imports, "the package imports nothing from its modules"
    assert {module for module, _ in imports} <= set(MODULES_WITH_EXPORTS)
    unlisted = [f"{module}.{name}" for module, name in imports
                if name not in importlib.import_module(f"neuralbandit.{module}").__all__]
    assert unlisted == []
