"""The query package keeps one executor: no private names cross its module
boundaries, and the executor switch cannot grow back.  Transactions and the
query layer read committed state only through the engine's interface.
``src/repro`` holds the engine only: no workload harness, no test imports."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
QUERY = SRC / "repro" / "query"


def test_query_modules_import_no_private_name_from_a_sibling():
    offenders = []
    for path in sorted(QUERY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            sibling = node.level > 0 or (node.module or "").startswith("repro.query")
            for alias in node.names:
                if sibling and alias.name.startswith("_"):
                    offenders.append(f"{path.name}:{node.lineno} {alias.name}")
    assert offenders == []


def test_query_modules_import_nothing_from_the_core_engine():
    """The query layer reads through ``repro.api.Transaction`` only."""
    offenders = []
    for path in sorted(QUERY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                if module == "repro.core" or module.startswith("repro.core."):
                    offenders.append(f"{path.name}:{node.lineno} {module}")
    assert offenders == []


def test_no_query_executor_switch_under_src():
    assert [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "query_executor" in path.read_text()
    ] == []


#: Modules above the storage substrate: they reach committed state through
#: ``_read_committed`` / ``committed_ids`` / ``committed_count``, never by
#: touching the record store or the version store themselves.
READ_LAYER = [
    SRC / "repro" / "engine.py",
    SRC / "repro" / "core" / "si_transaction.py",
    SRC / "repro" / "locking" / "rc_transaction.py",
    *sorted(QUERY.glob("*.py")),
]


def test_read_layer_touches_no_store_or_version_store():
    """Only ``GraphEngine``'s own methods may use its ``self.store``."""
    offenders = []
    for path in READ_LAYER:
        tree = ast.parse(path.read_text())
        owned = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "GraphEngine"
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("store", "versions")
                and id(node) not in owned
            ):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno} .{node.attr}")
    assert offenders == []


def test_entity_keys_are_plain_ints():
    """An entity key is a packed int (``REL_TAG | id`` for relationships):
    no module under ``src/repro`` defines a key class or builds a key by
    calling one, so every dict/set probe on a key hashes and compares in C."""
    from repro.graph import entity

    assert entity.EntityKey is int
    assert type(entity.node_key(1)) is int and type(entity.rel_key(1)) is int
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name.endswith("Key"):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno} class {node.name}")
            elif isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                    name = f"{func.value.id}.{func.attr}"
                elif isinstance(func, ast.Name):
                    name = func.id
                else:
                    continue
                if name in ("EntityKey", "EntityKey.node", "EntityKey.relationship"):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno} {name}(")
    assert offenders == []


def test_src_holds_the_engine_only():
    """Graph builders, anomaly probes and workload drivers live beside the
    tests and benchmarks that use them; nothing under ``src/repro`` reaches
    back into ``tests/``."""
    assert not (SRC / "repro" / "workload").exists()
    with pytest.raises(ImportError):
        importlib.import_module("repro.workload")
    offenders = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            for module in modules:
                if module.split(".")[0] in ("harness", "tests"):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno} {module}")
    assert offenders == []
