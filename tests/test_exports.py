"""Every exported name resolves: a stale entry in a module's __all__ or in the
package's re-exports fails here."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mergegame

MODULES = sorted(m.name for m in pkgutil.iter_modules(mergegame.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"mergegame.{module}")
    names = getattr(mod, "__all__", None)
    assert names, f"mergegame.{module} has no __all__"
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(mod, n)] == []


def test_package_reexports_are_public_names_of_their_modules():
    tree = ast.parse(Path(mergegame.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"mergegame.{node.module}")
        for alias in node.names:
            assert alias.name in mod.__all__, f"{node.module}.{alias.name}"
            assert getattr(mergegame, alias.name) is getattr(mod, alias.name)
