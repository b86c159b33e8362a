"""The reach census: every definition in ``src/repro`` is named by a program.

A function, method or class stays only if some *program file* names it
somewhere other than inside its own definition.  Program files are what
the repository runs as a program:

* ``src/repro/**/*.py`` — an ``__init__.py`` re-export (its imports and
  ``__all__``) does not count, or every exported name would reach itself;
* ``benchmarks/**/*.py`` and ``examples/*.py``;
* ``.github/workflows/ci.yml`` (its inline scripts).

Tests are not program files: a definition only tests call is a
definition nothing needs, and it goes with the tests that exist only to
call it.  Exempt are dunders (the interpreter calls them),
``@operator_for``-registered operator classes (the registry builds them;
``test_operator_census.py`` pins which plan node each serves), and the
short ``ORACLES`` list below — names the tests need as an independent
check and no program has reason to call, each with its reason.  An
oracle that gains a program caller leaves the list.

The limit: this is a name census, not a call graph.  A name counts as
reached when *any* program file names *any* definition of it, so a dead
``describe`` method hides behind a live ``describe`` of another class,
and a name that only a dead function mentions still reads as reached.
Those need a call trace of what the programs actually run (EXPERIMENTS.md
E37/E38 give the method); this test keeps what the trace found from
coming back under a fresh, unique name.
"""

import ast
import functools
import pathlib
import re
from collections import defaultdict

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

ORACLES = {
    # structural invariants the tests check after every mutation
    "BPlusTree.validate": "the B+-tree invariant check of the index and crash tests",
    "BufferPool.pinned_pages": "the pin-leak check of the buffer and statement-path tests",
    "BufferPool.contains": "the residency check of the replacement-policy tests",
    "VersionStore.tables_with_versions": "the version-chain leak check of the MVCC tests",
    # independent references the fast paths are compared against
    "gather_columns": "test_gather's RID-list form of the page gather",
    "parse_expression": "the expression-grammar entry the parser and eval tests drive",
    "schema_of": "the schema shorthand the storage and expression tests build fixtures with",
    "Database.last_trace": "the last request's span tree the tracing contract tests read",
    # repro.qa, the oracle package: the differential and crash harnesses
    "load_dataset": "repro.qa: loads a random workload into a differential twin",
    "RandomWorkload": "repro.qa: the random-query generator of the differential matrix",
    "RandomWorkload.cases": "repro.qa: the generated cases of the differential matrix",
    "repro_script": "repro.qa: prints a failing differential case as a script",
    "run_crash_sweep": "repro.qa: the failpoint crash sweep against the committed prefix",
}


def _program_files():
    yield from sorted(SRC.rglob("*.py"))
    yield from sorted((ROOT / "benchmarks").rglob("*.py"))
    yield from sorted((ROOT / "examples").glob("*.py"))


def _reexport(node):
    """An import or the ``__all__`` list: an ``__init__.py``'s re-exports."""
    return isinstance(node, (ast.Import, ast.ImportFrom)) or (
        isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )


def mentions():
    """Identifier -> [(path, line)] of every place a program file names it."""
    found = defaultdict(list)
    for path in _program_files():
        tree = ast.parse(path.read_text())
        skip = set()
        if path.name == "__init__.py":
            for node in ast.walk(tree):
                if _reexport(node):
                    skip.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.rsplit(".", 1)[-1]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value  # getattr(obj, "name") and the like
                if not name.isidentifier():
                    continue
            else:
                continue
            found[name].append((path, node.lineno))
    ci = ROOT / ".github" / "workflows" / "ci.yml"
    for word in re.findall(r"[A-Za-z_]\w*", ci.read_text()):
        found[word].append((ci, 0))
    return found


def _registered(node):
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "operator_for"
        for d in node.decorator_list
    )


def definitions():
    """Every function, method and class of ``src/repro`` as
    ``(qualname, path, node)``; nested definitions included."""
    out = []

    def visit(parent, prefix, path):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((prefix + node.name, path, node))
                visit(node, prefix + node.name + ".", path)
            else:
                visit(node, prefix, path)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text()), "", path)
    return out


@functools.lru_cache(maxsize=None)
def unreached():
    """Qualnames of the definitions no program file names outside the
    definition itself (dunders and registered operators left out)."""
    found = mentions()
    out = []
    for qualname, path, node in definitions():
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        if isinstance(node, ast.ClassDef) and _registered(node):
            continue
        inside = range(node.lineno, node.end_lineno + 1)
        if not any(
            where != path or line not in inside for where, line in found.get(name, ())
        ):
            out.append(qualname)
    return tuple(out)


def test_every_definition_has_a_program_caller():
    orphans = sorted(set(unreached()) - set(ORACLES))
    assert orphans == [], (
        f"defined in src/repro, named by no program file: {orphans} — "
        "delete them (and the tests that only call them), or give the "
        "ORACLES entry a reason"
    )


def test_oracles_are_defined_and_still_unreached():
    defined = {qualname for qualname, _path, _node in definitions()}
    assert sorted(set(ORACLES) - defined) == [], "ORACLES names a definition that is gone"
    reached = sorted(set(ORACLES) - set(unreached()))
    assert reached == [], f"a program calls these now; drop them from ORACLES: {reached}"
