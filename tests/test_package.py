"""Every name a kmatch module lists in ``__all__`` is bound, so that
``from kmatch.<module> import *`` works for the package and each module;
importing the package leaves scipy unloaded."""

import importlib
import subprocess
import sys
from pathlib import Path

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


def test_import_leaves_scipy_unloaded():
    # scipy.sparse costs about 0.2 s to import; only a graph build needs it
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); "
        "import kmatch, kmatch.cli, kmatch.oracle; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"
