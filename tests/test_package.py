"""Every name a kmatch module lists in ``__all__`` is bound, so that
``from kmatch.<module> import *`` works for the package and each module;
importing the package leaves scipy unloaded; every import is read or
exported, apart from the names the benchmark harness wraps."""

import ast
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


# bench/run.py wraps these by name on the importing module; they are read
# there, not here
BENCH_ONLY_IMPORTS = {
    ("kmatch.experiments", "is_k_matching"),
    ("kmatch.matching", "bounded_ball"),
    ("kmatch.matching", "distance_to_set"),
    ("kmatch.oracle", "exact_um_k"),
    ("kmatch.oracle", "from_edges"),
}


def test_every_import_is_used():
    unused = set()
    for name in MODULES:
        tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
        imported, read, exported = set(), set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for alias in node.names:
                    imported.add(alias.asname or alias.name.partition(".")[0])
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
        unused |= {(name, n) for n in imported - read - exported}
    assert unused == BENCH_ONLY_IMPORTS
