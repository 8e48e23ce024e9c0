"""The package imports cleanly and every exported name resolves."""

import importlib
import subprocess
import sys

import pytest

EXPORTING = ("characters", "coeffs", "padic", "series", "suites", "symplectic")


def test_import_rslocal_in_a_fresh_interpreter():
    subprocess.run([sys.executable, "-c", "import rslocal"], check=True, timeout=60)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module("rslocal." + name)
    assert mod.__all__
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
