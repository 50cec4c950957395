"""Every import in the package and its tests is used, and the command line
loads no module that it does not need.

A name bound by an import counts as used when the module reads it anywhere
(a bare name, or the head of a dotted one).  Package `__init__.py` files are
exempt: their imports are the public re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\nimport x.y\nx.y\ne\n") == [
        "c (line 2)",
        "os (line 1)",
    ]
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_command_line_does_not_load_dataclasses():
    # the records are NamedTuples and slotted classes; creating dataclasses
    # cost most of the package's import time
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = "import sys, wrlat.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
