"""Code in ``src/`` serves the package; a reference only tests use lives under ``tests/``.

Every module-level function or class in ``src/anyonsim`` is public (in
``anyonsim.__all__``) or referenced by a name or attribute somewhere in
``src/`` outside its own body; a docstring mention does not count.  No
function binds a local name (other than ``_``-prefixed) that it never
reads, and no module but ``__init__`` imports a name it never reads.  The
Jordan-Wigner reference the tests check the kernel against imports nothing
from the package.
"""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import anyonsim

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def references(node: ast.AST) -> Counter:
    """How often each name is read as a ``Name`` or an ``Attribute`` under ``node``."""
    seen = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            seen[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            seen[sub.attr] += 1
    return seen


def test_every_module_level_definition_is_public_or_used_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted((SRC / "anyonsim").glob("*.py"))}
    total = sum((references(tree) for tree in trees.values()), Counter())
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in anyonsim.__all__
        and total[node.name] == references(node)[node.name]
    ]
    assert unused == []


def test_the_jordan_wigner_reference_imports_nothing_from_the_package():
    code = "import json, sys, jw_oracle; print(json.dumps(sorted(n for n in sys.modules if n.startswith('anyonsim'))))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}  # the package is importable, so only jw_oracle's own imports decide
    proc = subprocess.run([sys.executable, "-c", code], cwd=TESTS, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def _scope_stores(func: ast.AST) -> set[str]:
    """Names a function binds by assignment in its own scope, not in a nested function or class."""
    stores, todo = set(), list(ast.iter_child_nodes(func))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores.add(node.id)
        todo.extend(ast.iter_child_nodes(node))
    return stores


def _reads(node: ast.AST) -> set[str]:
    """Names read anywhere under ``node``, nested scopes included."""
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}


def test_no_function_assigns_a_local_it_never_reads():
    unread = []
    for path in sorted((SRC / "anyonsim").glob("*.py")):
        tree = ast.parse(path.read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                declared = {name for node in ast.walk(func) if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
                for name in sorted(_scope_stores(func) - _reads(func) - declared):
                    if not name.startswith("_"):
                        unread.append(f"{path.stem}.{func.name}: {name}")
    assert unread == []


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted((SRC / "anyonsim").glob("*.py")):
        if path.stem == "__init__":  # its imports are the public names
            continue
        tree = ast.parse(path.read_text())
        used = _reads(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append(f"{path.stem}: {name}")
    assert unused == []
