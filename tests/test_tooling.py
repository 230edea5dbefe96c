"""Checks on the source tree itself.

The traced benchmark wraps package functions by looking each one up
in its owner's ``__dict__``; a refactor that moves or renames one of
them would make the traced run raise, so every target is checked here.
A module-level name that nothing else in the package uses is dead code.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
PACKAGE = ROOT / "src" / "siolab"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_are_bound_on_their_owners():
    targets = _load_tracing()._targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in targets
        if attr not in owner.__dict__
    ]
    assert missing == []


def _defined_names(tree):
    """(name, line) of each module-level def, class and assignment target."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node.lineno


def _used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_module_level_name_is_used_in_the_package():
    trees = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.rglob("*.py"))}
    assert trees
    used = {name for tree in trees.values() for name in _used_names(tree)}
    dead = [
        f"{path.relative_to(PACKAGE)}:{line} {name}"
        for path, tree in trees.items()
        for name, line in _defined_names(tree)
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ]
    assert dead == []
