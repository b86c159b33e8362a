"""The server process: one default-configured engine behind its own
socket server, driven from ``run.py`` over stdin/stdout.

On a fresh ``--data-dir`` it builds the workload's data set and times
the three setup layers; on an existing one (every workload's
kill-and-restart) the engine recovers from what the killed process left.  It then prints one JSON
line with the port and the setup split, answers each ``snapshot`` line
on stdin with one JSON line of the engine's public counters, and on
stdin-EOF stops serving, runs the layers pass if asked to, writes
everything to ``--out`` and closes the database cleanly.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from typing import Any, Dict, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(HERE, "..", "..", "src")]

from repro import Database  # noqa: E402
from repro.server import DatabaseServer  # noqa: E402

import layers  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS  # noqa: E402


class TimedDb:
    """Stands in for the Database while a data set loads and times the
    calls by layer: bulk load (storage), CREATE INDEX (index), ANALYZE
    (catalog)."""

    def __init__(self, db: Database):
        self._db = db
        self.seconds = {"load": 0.0, "index": 0.0, "analyze": 0.0}
        self.rows = 0
        self.user_bytes = 0

    def _timed(self, layer: str, call, *args) -> Any:
        start = time.perf_counter()
        try:
            return call(*args)
        finally:
            self.seconds[layer] += time.perf_counter() - start

    def execute(self, sql: str) -> Any:
        layer = "index" if " INDEX " in sql.upper() else "load"
        return self._timed(layer, self._db.execute, sql)

    def insert_rows(self, table: str, rows: Sequence[Sequence[Any]]) -> int:
        self.rows += len(rows)
        self.user_bytes += sum(
            len(v.encode()) if isinstance(v, str) else 8
            for row in rows
            for v in row
        )
        return self._timed("load", self._db.insert_rows, table, rows)

    def analyze(self) -> None:
        self._timed("analyze", self._db.analyze)


def counters(db: Database) -> Dict[str, Any]:
    """The public counters the per-layer table reads, as of now."""
    writer = db.txn.writer
    return {
        "taken": time.time(),
        "pool": vars(db.pool.stats.snapshot()),
        "disk": vars(db.disk.stats.snapshot()),
        "wal": {"appends": writer.appends, "fsyncs": writer.fsyncs},
        "waits": db.waits.as_dict(),
        "plan_cache": {
            "hits": db.plan_cache.stats.hits,
            "misses": db.plan_cache.stats.misses,
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def stored_pages(db: Database) -> int:
    return sum(
        info.num_pages
        + sum(ix.structure.num_pages for ix in info.indexes.values())
        for info in db.catalog.tables()
    )


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--data-dir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--layers", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload]
    scale = SMOKE if args.smoke else FULL

    fresh = not os.path.exists(os.path.join(args.data_dir, "wal.log"))
    db = Database(data_dir=args.data_dir)
    hello: Dict[str, Any] = {"fresh": fresh}
    if fresh:
        timed = TimedDb(db)
        workload.setup(timed, args.seed, scale)
        pages = stored_pages(db)
        hello["setup"] = {
            **timed.seconds,
            "rows": timed.rows,
            "user_bytes": timed.user_bytes,
            "pages": pages,
            "stored_bytes": pages * db.disk.page_size,
        }
    else:
        hello["recovery"] = db.last_recovery.summary()
    server = DatabaseServer(db).start()
    hello["port"] = server.address[1]
    print(json.dumps(hello), flush=True)

    for line in sys.stdin:
        if line.strip() == "snapshot":
            print(json.dumps(counters(db)), flush=True)
    server.stop()
    out: Dict[str, Any] = {"final": counters(db)}
    if args.layers:
        out["layers"] = layers.run(
            db, workload, args.seed, scale, args.data_dir, args.trace_out
        )
    with open(args.out, "w") as f:
        json.dump(out, f)
    db.close()


if __name__ == "__main__":
    main()
