"""The package imports cleanly and every exported name resolves."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rslocal"
EXPORTING = ("characters", "coeffs", "padic", "series", "suites", "symplectic")


def test_import_rslocal_in_a_fresh_interpreter():
    subprocess.run([sys.executable, "-c", "import rslocal"], check=True, timeout=60)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module("rslocal." + name)
    assert mod.__all__
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


# Bindings that stay although their module does not use them:
# perfbench/test_perfbench.py::Wrapping asserts that the tracer wraps
# ``series.product_char`` and ``series.tensor_decompose``.
UNUSED_IMPORTS_ALLOWED = {("series", "product_char"), ("series", "tensor_decompose")}


def _unused_top_level_imports(path):
    """Names bound by the module's top-level imports that nothing in it reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:  # a name listed in __all__ is exported, hence used
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return bound - read


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_no_unused_top_level_imports(path):
    unused = {(path.stem, name) for name in _unused_top_level_imports(path)}
    assert unused - UNUSED_IMPORTS_ALLOWED == set()
