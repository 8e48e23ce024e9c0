"""The package imports cleanly and every exported name resolves."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rslocal"
EXPORTING = ("characters", "coeffs", "padic", "series", "suites", "symplectic")


def test_import_rslocal_in_a_fresh_interpreter():
    # pytest's pythonpath option reaches only this process, so the child gets src/ itself
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    subprocess.run([sys.executable, "-c", "import rslocal"], check=True, timeout=60, env=env)


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


def _functions_no_other_code_names(src):
    """(module, name) for each top-level function and method of ``src`` named by no other code.

    Private helpers count too, so a helper that a refactor leaves without
    callers is caught.  A method is listed as ``Class.method``; dunder
    methods, which Python calls itself, are left out.

    A use is a name or an attribute read anywhere in ``src`` outside the
    function's own definition.  A ``@classmethod`` is used only when it is
    read as ``Class.name`` or ``module.Class.name``, since a bare attribute
    name is shared by methods of other classes.  ``__all__`` strings are
    constants, not names, and ``__init__.py`` only re-exports, so neither
    counts.
    """
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in src.glob("*.py")}
    del trees["__init__"]
    defined, readers = [], {}
    for stem, tree in trees.items():
        for top in tree.body:
            # each method of a class is its own owner; the rest of the class is the class's
            owned = [(top, getattr(top, "name", None))]
            if isinstance(top, ast.ClassDef):
                owned = [(node, "%s.%s" % (top.name, node.name)
                          if isinstance(node, ast.FunctionDef) else top.name) for node in top.body]
            for part, owner in owned:
                if isinstance(part, ast.FunctionDef) and not (
                        part.name.startswith("__") and part.name.endswith("__")):
                    classmethod_ = any(isinstance(d, ast.Name) and d.id == "classmethod"
                                       for d in part.decorator_list)
                    defined.append((stem, owner, owner if classmethod_ else part.name))
                for node in ast.walk(part):
                    if isinstance(node, ast.Name):
                        names = [node.id]
                    elif isinstance(node, ast.Attribute):
                        # Class.name, or module.Class.name, also as the qualified name
                        names = [node.attr]
                        value = node.value
                        if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
                            value = ast.Name(value.attr)
                        if isinstance(value, ast.Name):
                            names.append("%s.%s" % (value.id, node.attr))
                    else:
                        continue
                    for name in names:
                        readers.setdefault(name, set()).add((stem, owner))
    return sorted(
        (stem, owner) for stem, owner, name in defined
        if not readers.get(name, set()) - {(stem, owner)}
    )


def test_every_top_level_function_is_named_by_other_src_code():
    # class methods too: a method kept only for the tests fails as an orphaned function does
    assert _functions_no_other_code_names(SRC) == []


def _private_reads_of(module, path):
    """The private names of ``rslocal.<module>`` that the file at ``path`` imports or reads.

    A private name starts with one underscore.  A read is an attribute of a
    name bound to the module, such as ``characters._pack``.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    private = lambda name: name.startswith("_") and not name.startswith("__")
    aliases, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (module, "rslocal." + module):
            found.update(a.name for a in node.names if private(a.name))
        elif isinstance(node, ast.ImportFrom) and node.module in (None, "rslocal"):
            aliases.update(a.asname or a.name for a in node.names if a.name == module)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and private(node.attr)):
            found.add(node.attr)
    return found


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.stem != "characters"), ids=lambda p: p.stem
)
def test_only_characters_reads_its_private_names(path):
    # the packed key format stays inside characters; LaurentPoly.from_terms builds from exponents
    assert _private_reads_of("characters", path) == set()


# The module-level dicts that stay memos.  The three of characters back public
# builders: perfbench's tracer wraps plain functions only, so a functools.cache
# there would leave char_A1, char_B2 or product_char untraced.  _SPACES backs
# symplectic.flag_space for the same reason, and tests replace it.  Every other
# memo is a functools.cache on a private function, keyed by its arguments.
DICT_MEMOS = ["characters._A1_CACHE", "characters._B2_CACHE", "characters._PROD_CACHE",
              "symplectic._SPACES"]
TRACED = ("characters", "coeffs", "padic", "series", "symplectic")


def _module_bindings(path):
    """(name, value) for each top-level assignment of the module at ``path``."""
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, ast.Assign):
            yield from ((t.id, node.value) for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and node.value and isinstance(node.target, ast.Name):
            yield node.target.id, node.value


def _module_level_dicts(src):
    """``module.name`` for each module-level name of ``src`` bound to ``{}`` or ``dict()``."""
    return sorted(
        "%s.%s" % (path.stem, name)
        for path in src.glob("*.py")
        for name, value in _module_bindings(path)
        if (isinstance(value, ast.Dict) and not value.keys) or (
            isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "dict" and not value.args and not value.keywords)
    )


def _is_cache(node):
    """Whether ``node`` is ``cache`` or ``lru_cache``, bare or as ``functools.``, or a call of one."""
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("cache", "lru_cache")


def _cached_public_functions(src):
    """``module.name`` for each public function of the traced modules that a cache wraps.

    A wrapper is a ``cache`` or ``lru_cache`` decorator, or a module-level
    binding of a public name to a call of one.
    """
    found = []
    for stem in TRACED:
        path = src / (stem + ".py")
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef) and any(map(_is_cache, node.decorator_list)):
                found.append((stem, node.name))
        found += [(stem, name) for name, value in _module_bindings(path)
                  if isinstance(value, ast.Call) and _is_cache(value.func)]
    return sorted("%s.%s" % hit for hit in found if not hit[1].startswith("_"))


def test_every_other_memo_is_a_functools_cache():
    # a dict memo has a hand-built key; a functools.cache is keyed by the arguments it reads
    found = _module_level_dicts(SRC)
    extra = [name for name in found if name not in DICT_MEMOS]
    assert not extra, "module-level dicts beyond the kept memos: " + ", ".join(extra)
    assert found == DICT_MEMOS


def test_no_public_function_is_wrapped_by_a_cache():
    # inspect.isfunction is False for a cache wrapper, so the tracer would skip it silently
    assert _cached_public_functions(SRC) == []


def test_suites_builds_no_matrix():
    # the entries of every sample matrix are written once, by padic's builders;
    # the suites draw their integers and compare what padic computes from them
    tree = ast.parse((SRC / "suites.py").read_text())
    named = {getattr(n, key, None) for n in ast.walk(tree) for key in ("id", "attr", "name")}
    assert "QMatrix" not in named
