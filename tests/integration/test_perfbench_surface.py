"""Every program name the end-to-end benchmark binds still exists.

``perfbench/`` is frozen: it imports names from ``repro`` and patches
the layer bindings listed in ``perfbench/spans.py``.  A deletion that
removes one of them would only surface when the benchmark runs; these
checks read the benchmark's files without importing them, so the same
deletion fails here instead.
"""

import ast
import importlib
from pathlib import Path

import pytest

from repro.lightyear.compose import check_global_no_transit
from repro.topology import generate_network
from repro.topology.reference import build_reference_configs

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _layers():
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(
            node.target, "id", None
        ) == "LAYERS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no LAYERS")


def _bindings():
    return [
        (layer, module, path)
        for layer, bindings in sorted(_layers().items())
        for module, path in bindings
    ]


def _repro_imports():
    """``(file, module, name)`` for every ``from repro… import name`` in
    a perfbench source file, and the module-level aliases bound to
    ``repro`` modules."""
    found = []
    for source in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(source.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.module or ""
            ).split(".")[0] == "repro":
                for alias in node.names:
                    found.append((source.name, node.module, alias.name))
    return found


def _resolve(module, path):
    target = importlib.import_module(module)
    for part in path.split("."):
        target = getattr(target, part)
    return target


@pytest.mark.parametrize(
    "layer, module, path", _bindings(),
    ids=[f"{layer}:{module}.{path}" for layer, module, path in _bindings()],
)
def test_layer_binding_resolves(layer, module, path):
    assert callable(_resolve(module, path))


@pytest.mark.parametrize(
    "source, module, name", _repro_imports(),
    ids=[f"{s}:{m}.{n}" for s, m, n in _repro_imports()],
)
def test_imported_name_exists(source, module, name):
    owner = importlib.import_module(module)
    if not hasattr(owner, name):
        # ``from repro.x import submodule``
        importlib.import_module(f"{module}.{name}")


def test_attributes_read_off_imported_modules_exist():
    """``compose.IncrementalGlobalChecker``-style reads in workloads.py."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.module or ""
        ).split(".")[0] == "repro":
            for alias in node.names:
                try:
                    modules[alias.asname or alias.name] = (
                        importlib.import_module(f"{node.module}.{alias.name}")
                    )
                except ImportError:
                    pass  # a name, not a submodule
    reads = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert reads, "workloads.py reads no attribute off a repro module"
    missing = sorted(
        f"{alias}.{attr}" for alias, attr in reads
        if not hasattr(modules[alias], attr)
    )
    assert missing == []


def test_global_check_accepts_changed_routers():
    topology = generate_network("ring", 4).topology
    configs = build_reference_configs(topology)
    result = check_global_no_transit(configs, topology, changed_routers=set())
    assert result.holds
