"""Every exported name resolves and has one home: a stale entry in a module's
__all__, a name re-listed by a module that does not define it, or a name
bound on the package fails here."""

import importlib
import inspect
import pkgutil

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


@pytest.mark.parametrize("module", MODULES)
def test_every_class_and_function_in_all_is_defined_there(module):
    mod = importlib.import_module(f"mergegame.{module}")
    objs = {n: getattr(mod, n) for n in mod.__all__}
    elsewhere = [f"{n} (from {obj.__module__})" for n, obj in objs.items()
                 if (inspect.isclass(obj) or inspect.isfunction(obj))
                 and obj.__module__ != mod.__name__]
    assert elsewhere == []


def test_package_binds_only_its_submodules():
    for module in MODULES:
        importlib.import_module(f"mergegame.{module}")
    bound = [n for n, obj in vars(mergegame).items() if not n.startswith("__")
             and not (inspect.ismodule(obj) and obj.__name__ == f"mergegame.{n}")]
    assert bound == []
