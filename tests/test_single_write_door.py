"""One door for row writes: index entries are touched in
``catalog/catalog.py`` and nowhere else under ``src/repro``.

``TableInfo.insert/delete/update/restore`` do the heap write and settle
what every index is owed for it.  A module that calls
``<index>.structure.insert`` or ``<index>.structure.delete`` itself is a
second maintenance loop — one more place to forget an index (wrong
results through that index).

The allow-list is one file, by name: ``catalog/catalog.py`` holds the
four operations and ``create_index``'s bulk build.  A new entry here is
a design decision, not a lint fix.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
ALLOWED = {"catalog/catalog.py"}


def _is(node, name):
    """*node* is ``<anything>.name`` or the bare variable ``name``."""
    return (isinstance(node, ast.Attribute) and node.attr == name) or (
        isinstance(node, ast.Name) and node.id == name
    )


def maintenance_calls(source):
    """``(line, call)`` for every index-entry write."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        method, owner = node.func.attr, node.func.value
        if method in ("insert", "delete") and _is(owner, "structure"):
            found.append((node.lineno, f"structure.{method}"))
    return sorted(found)


def test_only_the_catalog_maintains_indexes():
    found = {
        name: calls
        for path in sorted(SRC.rglob("*.py"))
        if (name := path.relative_to(SRC).as_posix()) not in ALLOWED
        and (calls := maintenance_calls(path.read_text(encoding="utf-8")))
    }
    assert found == {}
    # the door is really there: the allow-listed file makes both calls
    inside = maintenance_calls((SRC / "catalog/catalog.py").read_text("utf-8"))
    assert {call for _, call in inside} == {
        "structure.insert",
        "structure.delete",
    }


@pytest.mark.parametrize(
    "source, expected",
    [
        ("index.structure.insert(key, rid)\n", [(1, "structure.insert")]),
        ("ix.structure.delete(k, r)\n", [(1, "structure.delete")]),
        ("self.structure.insert(k, rid)\n", [(1, "structure.insert")]),
        ("structure = ix.structure\nstructure.delete(k, r)\n", [(2, "structure.delete")]),
        ("info.heap.insert(row)\ninfo.delete(rid, row)\n", []),
        ("structure.insert(key_of(row), rid)\n", [(1, "structure.insert")]),
        ("structure.search(key)\nzones.entry(0, 0)\n", []),
        ("def widen(self, page_no, row): ...\n", []),
    ],
)
def test_the_walk_itself(source, expected):
    assert maintenance_calls(source) == expected
