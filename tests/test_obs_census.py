"""The ``repro.obs`` census: every name the package exports serves
something outside the package and its tests.

A name in ``repro.obs.__all__`` must be imported from ``repro.obs`` (or
one of its modules) by the program — ``src/`` outside ``src/repro/obs/``,
``benchmarks/`` or ``examples/`` — or by a step of ``ci.yml``.  A name
only the package itself or a test reads is not part of its surface: it
stays in its module, reachable by its module path.  Adding an export
therefore needs a caller, and losing the last caller of one shows up
here as a failure naming it.
"""

import ast
import pathlib
import re

import repro.obs

ROOT = pathlib.Path(__file__).resolve().parent.parent
OBS = ROOT / "src" / "repro" / "obs"

EXPORTS = {
    # the switch and the stores the engine wires together
    "ObsConfig", "InstrumentLevel", "MetricsRegistry", "QueryLog",
    "QueryLogRecord", "StatementStore", "FeedbackStore", "WaitEventStats",
    "AutoExplain", "ActivityRegistry", "ActivityEntry",
    "register_system_tables",
    # spans: the statement path, the server, the CI tracing smoke step
    "Span", "Tracer", "RequestTrace", "trace_span", "active_tracer",
    "activate_tracer", "export_chrome_trace", "validate_chrome_trace",
    # what the optimizer and the benchmarks read
    "SearchTrace", "RegionSearch", "feedback_key", "scan_key",
    "plan_fingerprint", "q_error", "statement_fingerprint", "plan_diff",
    "plan_shape_text",
}


def _obs_module(node, path):
    """True when *node* (an ImportFrom in *path*) imports from repro.obs."""
    if node.level == 0:
        return node.module is not None and (
            node.module == "repro.obs" or node.module.startswith("repro.obs.")
        )
    package = path.parent.relative_to(ROOT / "src").parts
    base = package[: len(package) - node.level + 1]
    module = ".".join(base + tuple((node.module or "").split(".")))
    return module == "repro.obs" or module.startswith("repro.obs.")


def _program_files():
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if OBS not in path.parents:
                yield path


def callers():
    """Name -> the files outside obs/ and tests/ that import it."""
    found = {}
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and _obs_module(node, path):
                for alias in node.names:
                    found.setdefault(alias.name, []).append(path.name)
    ci = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    for names in re.findall(r"from repro\.obs(?:\.\w+)? import ([\w, ]+)", ci):
        for name in names.split(","):
            found.setdefault(name.strip(), []).append("ci.yml")
    return found


def test_exports_are_pinned():
    assert set(repro.obs.__all__) == EXPORTS
    assert len(repro.obs.__all__) == len(EXPORTS)  # no name listed twice


def test_every_export_has_a_caller_outside_obs_and_tests():
    found = callers()
    orphans = sorted(name for name in repro.obs.__all__ if name not in found)
    assert orphans == [], f"exported with no caller outside obs/ and tests/: {orphans}"


def test_every_export_resolves():
    for name in repro.obs.__all__:
        assert getattr(repro.obs, name) is not None, name
