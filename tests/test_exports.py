"""Every name the package and its modules export resolves, so a stale entry
left in an __all__ after its definition is deleted fails here."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import divseq

MODULES = ["divseq"] + [f"divseq.{info.name}"
                        for info in pkgutil.iter_modules(divseq.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = []
    for attr in getattr(module, "__all__", ()):
        try:
            getattr(module, attr)
        except AttributeError:
            missing.append(attr)
    assert missing == [], f"{name}.__all__ names undefined {missing}"
