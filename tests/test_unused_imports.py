"""Unused imports in ``src/repro``: the offline twin of ``ci.yml``'s lint
step (ruff F401), which the build container cannot install.

A name a module imports and never references is what a deletion leaves
behind — a parameter goes, its type's import stays.  ``__init__.py``
re-exports and ``# noqa: F401`` lines are exempt, as in ``pyproject.toml``.
Like pyflakes, the walk is scope-aware: an import inside a function
counts as used only where that function (or a function nested in it)
uses it, not where the rest of the module does.
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


def _used_names(node):
    """The names *node*'s subtree reads, quoted annotations included."""
    used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    # quoted annotations (`Optional["Transaction"]`) name types too
    for annotation in _annotations(node):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                quoted = ast.parse(sub.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def unused_imports(source):
    """``(line, name)`` for every imported name *source* never uses in
    the scope that imports it: the module, or the function the import
    statement sits in."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # (scope, name) -> line

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child)
                continue
            if isinstance(child, ast.ImportFrom) and child.module == "__future__":
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    if alias.name == "*" or "noqa: F401" in lines[alias.lineno - 1]:
                        continue
                    # `import a.b` binds `a`
                    name = alias.asname or alias.name.split(".")[0]
                    imported[scope, name] = alias.lineno
            visit(child, scope)

    visit(tree, tree)
    used = {}  # scope -> the names it reads
    for scope, _ in imported:
        if scope not in used:
            used[scope] = _used_names(scope)
    # a name listed in __all__ is re-exported on purpose
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.setdefault(tree, set()).update(ast.literal_eval(node.value))
    return sorted(
        (line, name)
        for (scope, name), line in imported.items()
        if name not in used.get(scope, ())
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
        # a function-local import is used by its own function only
        ("def f():\n    from a import b\n\ndef g(b):\n    return b\n", [(2, "b")]),
        ("from a import b\ndef f():\n    return b\n", []),
        ("def f():\n    from a import b\n    def g():\n        return b\n", []),
    ],
)
def test_the_walk_itself(source, expected):
    assert unused_imports(source) == expected
