"""The benchmark's probes in ``bench/child.py`` wrap package attributes by name.

A rename or deletion in the package would break ``bench/run.py --trace 1``
only when the benchmark runs; these tests read the probe tables and every
``module.attribute`` reference of that file (without importing it) and check
that each attribute still exists.
"""

import ast
import importlib
import os

import pytest

from glmmselect import engine as engine_module
from glmmselect.engine import GibbsEngine

CHILD = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "child.py")


@pytest.fixture(scope="module")
def child():
    """(syntax tree of bench/child.py, {name it binds by a glmmselect import: the object})."""
    with open(CHILD, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), CHILD)
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module and node.module.split(".")[0] == "glmmselect":
            package = importlib.import_module(node.module)
            for alias in node.names:
                try:
                    obj = importlib.import_module(f"{node.module}.{alias.name}")
                except ModuleNotFoundError:
                    obj = getattr(package, alias.name)
                names[alias.asname or alias.name] = obj
    return tree, names


def assigned(tree, name):
    """The value expression of a module-level ``name = ...`` in the tree."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"bench/child.py assigns no {name}")


def test_engine_spans_name_engine_methods(child):
    tree, _ = child
    spans = ast.literal_eval(assigned(tree, "ENGINE_SPANS"))
    assert spans
    missing = [method for method in spans if not callable(getattr(GibbsEngine, method, None))]
    assert not missing


def test_module_spans_name_module_functions(child):
    tree, names = child
    entries = assigned(tree, "MODULE_SPANS").elts
    assert entries
    missing = []
    for entry in entries:
        module, attr, _ = entry.elts
        if not callable(getattr(names[module.id], ast.literal_eval(attr), None)):
            missing.append(f"{module.id}.{ast.literal_eval(attr)}")
    assert not missing


def test_every_referenced_attribute_exists(child):
    tree, names = child
    refs = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in names
    }
    # the counters and slice probes of --trace 1
    for ref in [("GibbsEngine", "_ll_terms"), ("GibbsEngine", "_block_eta"),
                ("engine", "slice_update"), ("engine", "slice_update_vec")]:
        assert ref in refs
    missing = sorted(f"{name}.{attr}" for name, attr in refs if not hasattr(names[name], attr))
    assert not missing


def test_slice_kinds_have_engine_stats(child):
    tree, _ = child
    kinds = ast.literal_eval(assigned(tree, "SLICE_KINDS"))
    assert set(kinds) <= set(engine_module._SLICE_KINDS)
