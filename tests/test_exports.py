"""Every public name the package and its modules export resolves.

The benchmark's tracer wraps each name in every ``__all__`` with
``getattr``, so a stale export would crash a traced run.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import polymer_lab

MODULES = ["polymer_lab"] + [
    f"polymer_lab.{m.name}" for m in pkgutil.iter_modules(polymer_lab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
