"""No floating point in the package, read statically from the source with ``ast``.

Every module of ``src/rslocal`` is parsed and walked.  Allowed are no float
or complex literal, no call to ``float``, ``round`` or ``complex``, no
``/=``, and from ``math`` only its integer functions.  True division
``/`` itself stays allowed: the package divides ``Fraction``s with it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rslocal"
FLOAT_CALLS = frozenset({"float", "round", "complex"})
MATH_ALLOWED = frozenset({"gcd", "lcm", "comb", "isqrt", "prod"})


def inexact_sites(source: str) -> list[str]:
    """'line: reason' for each construct of ``source`` that can bring in floating point."""
    tree = ast.parse(source)
    math_names = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "math"
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append("%d: literal %r" % (node.lineno, node.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in FLOAT_CALLS):
            found.append("%d: call of %s" % (node.lineno, node.func.id))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            found.append("%d: /=" % node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend("%d: math.%s" % (node.lineno, alias.name)
                         for alias in node.names if alias.name not in MATH_ALLOWED)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in math_names and node.attr not in MATH_ALLOWED):
            found.append("%d: math.%s" % (node.lineno, node.attr))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_source_has_no_floating_point(path):
    assert inexact_sites(path.read_text()) == []


@pytest.mark.parametrize(
    "source, site",
    [
        ("x = 0.5", "1: literal 0.5"),
        ("x = 2j", "1: literal 2j"),
        ("y = float(x)", "1: call of float"),
        ("y = round(x)", "1: call of round"),
        ("y = complex(x)", "1: call of complex"),
        ("x /= 2", "1: /="),
        ("from math import gcd, sqrt", "1: math.sqrt"),
        ("import math\ny = math.log(x)", "2: math.log"),
        ("import math as m\ny = m.pi", "2: math.pi"),
    ],
    ids=["float-literal", "complex-literal", "float-call", "round-call", "complex-call",
         "true-division-assignment", "math-from-import", "math-attribute", "math-alias"],
)
def test_each_inexact_construct_is_found(source, site):
    assert inexact_sites(source) == [site]


def test_exact_constructs_pass():
    source = (
        "import math\nfrom math import gcd, lcm\nfrom fractions import Fraction\n"
        "x = Fraction(1, 3) / 2\nx //= 2\ny = math.isqrt(10) + math.comb(5, 2) + math.prod([2])\n"
    )
    assert inexact_sites(source) == []
