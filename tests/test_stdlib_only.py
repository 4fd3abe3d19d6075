"""The package imports nothing outside the standard library; the test-only
oracles (hypothesis, networkx) must not leak into ``src/invmatch``."""

import ast
import sys
from pathlib import Path

import invmatch

PACKAGE = Path(invmatch.__file__).parent


def test_every_import_is_relative_or_standard_library():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            stray += [f"{path.name}: {name}" for name in names
                      if name.split(".")[0] not in sys.stdlib_module_names]
    assert stray == []
