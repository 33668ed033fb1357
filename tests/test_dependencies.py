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
