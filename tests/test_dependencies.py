"""The runtime dependency is numpy only: every library import is pinned."""

import ast
import sys
from pathlib import Path

import xsrank

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "xsrank"}


def test_library_imports_only_stdlib_and_numpy():
    sources = sorted(Path(xsrank.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    found = {}
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # a relative import stays inside the package
                names = ["xsrank" if node.level else node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.split(".")[0], path.name)
    assert "numpy" in found
    stray = {top: where for top, where in found.items() if top not in ALLOWED}
    assert not stray, f"imports outside the stdlib and numpy: {stray}"


def test_library_never_encodes_through_json_dump():
    # json.dump to a file handle takes the pure-Python encoder, float by
    # float; json.dumps and JSONEncoder.encode take the C one
    found = []
    for path in sorted(Path(xsrank.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found += [f"{path.name}:{node.lineno}" for alias in node.names if alias.name == "dump"]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "dump" and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "json"):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"json.dump calls: {found}"


def test_library_reads_every_name_it_imports():
    # __init__.py imports to re-export, and a __future__ import binds nothing
    unused = []
    for path in sorted(Path(xsrank.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno}: {name}" for name in bound
                       if name not in read]
    assert not unused, f"imported names never read: {unused}"
