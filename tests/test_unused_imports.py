"""Unused imports in ``src/repro``: the offline twin of ``ci.yml``'s lint
step (ruff F401), which the build container cannot install.

A name a module imports and never references is what a deletion leaves
behind — a parameter goes, its type's import stays.  ``__init__.py``
re-exports and ``# noqa: F401`` lines are exempt, as in ``pyproject.toml``.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                yield node.returns


def unused_imports(source):
    """``(line, name)`` for every imported name *source* never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*" or "noqa: F401" in lines[alias.lineno - 1]:
                    continue
                # `import a.b` binds `a`
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = alias.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations (`Optional["Transaction"]`) name types too
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    # a name listed in __all__ is re-exported on purpose
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in imported.items() if name not in used
    )


def test_no_unused_imports_in_src():
    found = {
        str(path.relative_to(SRC)): unused
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        and (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import os\n", [(1, "os")]),
        ("import os.path\nprint(os.path.sep)\n", []),
        ("from a import b, c as d\nprint(d)\n", [(1, "b")]),
        ("from a import (\n    b,\n    c,  # noqa: F401\n)\n", [(2, "b")]),
        ("from a import T\ndef f(x: 'Optional[T]'): ...\n", []),
        ("from a import T\ndef f() -> 'T': ...\n", []),
        ("from a import b\n__all__ = ['b']\n", []),
        ("from __future__ import annotations\n", []),
    ],
)
def test_the_walk_itself(source, expected):
    assert unused_imports(source) == expected
