"""One door for row writes: index entries and zone bounds are touched in
``catalog/catalog.py`` and nowhere else under ``src/repro``.

``TableInfo.insert/delete/update/restore`` do the heap write and settle
what every derived structure is owed for it.  A module that calls
``<index>.structure.insert``, ``<index>.structure.delete`` or
``zones.widen`` itself is a second maintenance loop — one more place to
forget an index (wrong results through that index) or a zone bound (rows
silently skipped by every columnar scan).

The allow-list is one file, by name: ``catalog/catalog.py`` holds the
four operations, ``create_index``'s bulk build and ``analyze``'s zone
rebuild.  A new entry here is a design decision, not a lint fix.
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
    """``(line, call)`` for every index-entry or zone-bound write."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        method, owner = node.func.attr, node.func.value
        if method in ("insert", "delete") and _is(owner, "structure"):
            found.append((node.lineno, f"structure.{method}"))
        elif method == "widen" and _is(owner, "zones"):
            found.append((node.lineno, "zones.widen"))
    return sorted(found)


def test_only_the_catalog_maintains_indexes_and_zones():
    found = {
        name: calls
        for path in sorted(SRC.rglob("*.py"))
        if (name := path.relative_to(SRC).as_posix()) not in ALLOWED
        and (calls := maintenance_calls(path.read_text(encoding="utf-8")))
    }
    assert found == {}
    # the door is really there: the allow-listed file makes all three calls
    inside = maintenance_calls((SRC / "catalog/catalog.py").read_text("utf-8"))
    assert {call for _, call in inside} == {
        "structure.insert",
        "structure.delete",
        "zones.widen",
    }


@pytest.mark.parametrize(
    "source, expected",
    [
        ("index.structure.insert(key, rid)\n", [(1, "structure.insert")]),
        ("ix.structure.delete(k, r)\n", [(1, "structure.delete")]),
        ("info.zones.widen(rid[0], row)\n", [(1, "zones.widen")]),
        ("zones = Z()\nzones.widen(0, row)\n", [(2, "zones.widen")]),
        ("info.heap.insert(row)\ninfo.delete(rid, row)\n", []),
        ("structure.insert(key_of(row), rid)\n", [(1, "structure.insert")]),
        ("structure.search(key)\nzones.entry(0, 0)\n", []),
        ("def widen(self, page_no, row): ...\n", []),
    ],
)
def test_the_walk_itself(source, expected):
    assert maintenance_calls(source) == expected
