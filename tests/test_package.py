"""Every name a kmatch module lists in ``__all__`` is bound, so that
``from kmatch.<module> import *`` works for the package and each module."""

import importlib

import pytest

MODULES = [
    "kmatch",
    "kmatch.analytic",
    "kmatch.cli",
    "kmatch.experiments",
    "kmatch.graph",
    "kmatch.matching",
    "kmatch.oracle",
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
