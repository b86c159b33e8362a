"""The serving engine's import closure: what a server loads serves.

A durable ``Database`` behind a ``DatabaseServer``, driven through a
``Client`` over every statement kind a server sees, must not import the
laboratory: the QA kit (reference evaluator, random queries, crash
workload), the paper harness, the workload generators or the baseline
join-order planners.  Runs in a fresh interpreter, since this test
session has imported all of them already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

LABORATORY = ("repro.qa", "repro.bench", "repro.workloads", "repro.optimizer.baselines")

SCRIPT = """
import json, sys, tempfile
from repro import Database
from repro.server import Client, DatabaseServer

with tempfile.TemporaryDirectory() as d:
    db = Database(data_dir=d)
    with DatabaseServer(db) as server:
        with Client(*server.address) as c:
            c.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
            c.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
            c.execute("BEGIN")
            c.execute("INSERT INTO t VALUES (3, 30)")
            c.execute("COMMIT")
            c.execute("ANALYZE")
            assert c.query("SELECT v FROM t WHERE k = 3").rows == [(30,)]
            c.query("EXPLAIN ANALYZE SELECT v FROM t WHERE k > 1")
            c.execute("CHECKPOINT")
            assert c.query("SELECT calls FROM sys_stat_statements").rows
    db.close()
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def test_server_imports_no_laboratory_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env.pop("REPRO_FAILPOINTS", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "repro.server" in loaded and "repro.wal.failpoints" in loaded
    lab = [
        m for m in loaded
        if any(m == p or m.startswith(p + ".") for p in LABORATORY)
    ]
    assert lab == []
