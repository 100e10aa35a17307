"""Code in ``src/`` serves the package; a reference only tests use lives under ``tests/``.

Every module-level function or class in ``src/anyonsim`` is public (in
``anyonsim.__all__``) or referenced by a name or attribute somewhere in
``src/`` outside its own body; a docstring mention does not count.  The
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
