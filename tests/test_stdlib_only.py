"""Static scans of ``src/invmatch``. The package imports nothing outside
the standard library; the test-only oracles (hypothesis, networkx) must not
leak into it. And no function calls itself by name: a recursive search
overflows the stack on a large enough input, so every search keeps an
explicit stack instead. And every function and lambda reads each of its
parameters but self and cls: one that none reads is dead weight that every
caller still has to pass. And every module-level function and class, and
every method, is read by some other code in the package or exported: code
that only tests reach belongs in the tests."""

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


def test_every_parameter_is_read():
    unread = []
    for name, tree in parsed_modules():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
                continue
            a = fn.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if p is not None]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)}
            unread += [f"{name}: {getattr(fn, 'name', 'lambda')}({p})"
                       for p in params
                       if p not in ("self", "cls") and p not in read]
    assert unread == []


# Read by no package code, kept for a reader the scan cannot see.
UNREAD_BUT_KEPT = {
    # the root parser, which bench/run.py builds before its first call and
    # the tests read
    "cli.py: build_parser",
    # the signature-class route that the acceptance tests read
    "transformations.py: signature_class_degree",
    "transformations.py: tn_matching_via_classes",
}


def test_every_definition_is_read_in_the_package():
    modules = dict(parsed_modules())
    exported = {alias.asname or alias.name
                for node in ast.walk(modules["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    defs = []
    for name, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            defs.append((f"{name}: {node.name}", node.name, node))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{name}: {node.name}.{m.name}", m.name, m)
                         for m in node.body
                         if isinstance(m, (ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                         and not (m.name.startswith("__")
                                  and m.name.endswith("__"))]
    # every name read anywhere, with the nodes it is read at
    reads: dict[str, list[ast.AST]] = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.id, []).append(node)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                reads.setdefault(node.attr, []).append(node)
    unread = []
    for label, short, node in defs:
        if short in exported or short.startswith("cmd_"):
            continue
        inside = {id(n) for n in ast.walk(node)}
        if all(id(n) in inside for n in reads.get(short, ())):
            unread.append(label)
    assert set(unread) == UNREAD_BUT_KEPT
