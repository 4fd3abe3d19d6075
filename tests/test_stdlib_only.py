"""Static scans of ``src/invmatch``. The package imports nothing outside
the standard library; the test-only oracles (hypothesis, networkx) must not
leak into it. And no function calls itself by name: a recursive search
overflows the stack on a large enough input, so every search keeps an
explicit stack instead."""

import ast
import sys
from pathlib import Path

import invmatch

PACKAGE = Path(invmatch.__file__).parent


def parsed_modules():
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_every_import_is_relative_or_standard_library():
    stray = []
    for name, tree in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            stray += [f"{name}: {module}" for module in modules
                      if module.split(".")[0] not in sys.stdlib_module_names]
    assert stray == []


def test_no_function_calls_itself_by_name():
    recursive = []
    for name, tree in parsed_modules():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == fn.name
                for call in ast.walk(fn)
            ):
                recursive.append(f"{name}: {fn.name}")
    assert recursive == []
