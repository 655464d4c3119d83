"""Tests for the package's public names."""

import importlib
import inspect
import pkgutil

import fracsob


def _modules():
    yield fracsob
    for info in pkgutil.iter_modules(fracsob.__path__):
        yield importlib.import_module(f"fracsob.{info.name}")


def test_every_public_definition_is_listed_and_every_listed_name_resolves():
    for mod in _modules():
        if not hasattr(mod, "__all__"):
            continue
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.__all__ lists missing {name}"
        for name, obj in vars(mod).items():
            defined_here = (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == mod.__name__
            if defined_here and not name.startswith("_"):
                assert name in mod.__all__, f"{mod.__name__}.{name} is missing from __all__"
