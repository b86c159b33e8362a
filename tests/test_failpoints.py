"""The failpoint grammar: ``REPRO_FAILPOINTS=site=N[:mode],…``.

An armed point that can never fire must be an error, not a run that
completes and gets reported as a skipped kill: a misspelled site, or a
mode its site does not implement (``wal.fsync`` writes nothing it could
tear, so it has no ``partial``), is rejected when the spec is parsed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.wal.failpoints import CRASH_EXIT_CODE, SITES, FaultError, parse_spec


@pytest.mark.parametrize(
    "spec, armed",
    [
        ("wal.append=3", {"wal.append": (3, "before")}),
        ("wal.append=2:partial", {"wal.append": (2, "partial")}),
        (
            " checkpoint.page=1:after , page.writeback=4",
            {"checkpoint.page": (1, "after"), "page.writeback": (4, "before")},
        ),
        ("", {}),
    ],
    ids=["default-mode", "partial", "two-sites", "empty"],
)
def test_accepted(spec, armed):
    assert parse_spec(spec) == armed


@pytest.mark.parametrize(
    "spec, message",
    [
        ("wal.append=1:sideways", "unknown failpoint mode"),
        ("wal.apend=1", "unknown failpoint site"),
        ("wal.fsync=1:partial", "does not implement mode"),
        ("page.writeback=1:partial", "does not implement mode"),
        ("wal.append=0", "must be >= 1"),
        ("wal.append=x", "bad failpoint count"),
        ("wal.append", "want site=N"),
    ],
    ids=[
        "unknown-mode",
        "unknown-site",
        "fsync-partial",
        "writeback-partial",
        "count-zero",
        "count-not-int",
        "no-count",
    ],
)
def test_rejected(spec, message):
    with pytest.raises(FaultError, match=message):
        parse_spec(spec)


def test_every_site_mode_pair_parses():
    for site, modes in SITES.items():
        for mode in modes:
            assert parse_spec(f"{site}=1:{mode}") == {site: (1, mode)}


def test_bad_spec_fails_the_process_at_import():
    """A spec the registry rejects stops the process before it does any
    work: neither a clean exit (a sweep's "skipped") nor an injected
    crash."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env["REPRO_FAILPOINTS"] = "wal.fsync=1:partial"
    proc = subprocess.run(
        [sys.executable, "-c", "import repro"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode not in (0, CRASH_EXIT_CODE)
    assert "FaultError" in proc.stderr
