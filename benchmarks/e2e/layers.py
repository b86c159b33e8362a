"""The layers pass: replay a seeded sample of the workload's statements
in the server process, through the layers' public functions, with
benchmark-side spans around every call.

Three replays of the same statement mix run against the loaded engine:
untraced (``Session.execute`` only), traced (a span and the buffer-pool
and plan-cache counts around every ``Session.execute``), and decomposed
(``parse`` / ``Database.plan`` / ``Database.run_plan`` /
``encode_message`` one by one for every statement the traced replay
saw).  A fourth, untraced replay runs on a twin database built with
``ObsConfig.off()``.  Micro-measurements on scratch structures cover
the layers a replay cannot single out (B+-tree insert, WAL append and
fsync).  The spans stay in memory and are written as Chrome trace-event
JSON at the end.  End-to-end numbers never come from here.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List

from repro import Database, DataType, ObsConfig
from repro.executor import ExecContext
from repro.executor import run as run_physical
from repro.index import BPlusTree
from repro.server.protocol import encode_message
from repro.sql import SelectStmt, parse
from repro.storage import BufferPool, DiskManager
from repro.wal import WalRecordType, open_wal

from workloads import shape

#: stream ids of the replays (0..2 belong to the socket clients)
UNTRACED_STREAM, TRACED_STREAM = 3, 4
#: the replays share one random sequence, so they issue the same statements
MIX = "replay"
REPLAY_SECONDS = 0.9
CHUNKS = 3
MICRO_OPS = 200


class SpanLog:
    """Spans as ``[name, start, end, parent index, statement id]``."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: List[List[Any]] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, stmt_id: int) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), 0.0, parent, stmt_id]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> Dict[int, float]:
        """Duration of the *name* span of each statement."""
        return {s[4]: s[2] - s[1] for s in self.spans if s[0] == name}

    def write_chrome_trace(self, path: str) -> None:
        events = [
            {
                "name": name, "ph": "X", "pid": 1, "tid": 1,
                "ts": start * 1e6, "dur": (end - start) * 1e6,
                "args": {"statement": stmt_id, "parent": parent},
            }
            for name, start, end, parent, stmt_id in self.spans
        ]
        with open(path, "w") as f:
            json.dump({"traceEvents": events}, f)


class Replay:
    """One stream replayed through one session, in chunks; *statements*
    collects what the traced replay counted around each statement."""

    def __init__(self, db: Database, stream, spans: SpanLog):
        self.db, self.stream, self.spans = db, stream, spans
        self.session = db.create_session()
        self.statements: List[Dict[str, Any]] = []
        self.ops = 0
        self.seconds = 0.0
        self.ok = stream.prepare(lambda sql: self.session.execute(sql).rows)

    def _execute(self, sql: str):
        session, db = self.session, self.db
        if not self.spans.enabled:
            return session.execute(sql).rows
        fixes = db.pool.stats.accesses
        cache_hits = db.plan_cache.stats.hits
        with self.spans.span("engine.execute", len(self.statements)):
            result = session.execute(sql)
        self.statements.append(
            {
                "sql": sql,
                "columns": list(result.columns),
                "rows": result.rows,
                "fixes": db.pool.stats.accesses - fixes,
                "plan_cached": db.plan_cache.stats.hits > cache_hits,
                "autocommit": not session.in_transaction,
            }
        )
        return result.rows

    def chunk(self, ops: int = 0, budget_s: float = 0.0) -> int:
        """Exactly *ops* ops, or whole rounds until *budget_s* is spent."""
        whole = getattr(self.stream, "round_size", 1)
        done = 0
        start = time.perf_counter()
        while done < ops or (
            not ops and (time.perf_counter() - start < budget_s or done % whole)
        ):
            self.ok &= self.stream.run_one(self._execute)[1]
            done += 1
        self.seconds += time.perf_counter() - start
        self.ops += done
        return done

    def close(self) -> None:
        self.session.close()


def decompose(db: Database, statements, spans: SpanLog) -> None:
    """Call the layers one by one for every replayed statement."""
    for i, st in enumerate(statements):
        with spans.span("layers", i):
            with spans.span("sql.parse", i):
                stmt = parse(st["sql"])
            if isinstance(stmt, SelectStmt):
                with spans.span("optimizer.plan", i):
                    plan = db.plan(st["sql"])
                with spans.span("executor.run", i):
                    db.run_plan(plan)
            with spans.span("server.encode", i):
                encode_message(
                    {
                        "ok": True,
                        "columns": st["columns"],
                        "rows": [list(row) for row in st["rows"]],
                        "in_transaction": not st["autocommit"],
                    }
                )


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _us_each(call, items) -> float:
    """Median microseconds of ``call(item)`` over *items*."""
    times = []
    for item in items:
        start = time.perf_counter()
        call(item)
        times.append(time.perf_counter() - start)
    return _median(times) * 1e6


def scan_krows_s(db: Database, stream, columnar: bool) -> float:
    """Input rows per second of the workload's scan-aggregate plan."""
    plan = db.plan(stream.scan_query)
    rows = db.table(stream.probe_table).num_rows
    best = float("inf")
    for _ in range(3):
        ctx = ExecContext(
            db.pool, db.work_mem_pages, batch_size=db.batch_size, columnar=columnar
        )
        start = time.perf_counter()
        run_physical(plan, ctx)
        best = min(best, time.perf_counter() - start)
    return rows / best / 1000.0


def micro(db: Database, stream, data_dir: str, rng: random.Random) -> Dict[str, float]:
    """Direct calls into index and wal on structures no statement
    shares."""
    info = db.table(stream.probe_table)
    tree = info.indexes[stream.probe_column].structure
    keys = [rng.randrange(max(1, info.num_rows)) for _ in range(MICRO_OPS)]
    scratch = BPlusTree(BufferPool(DiskManager(), 256), DataType.INT, "scratch")
    new_keys = rng.sample(range(10 * MICRO_OPS), 2 * MICRO_OPS)
    wal_dir = os.path.join(data_dir, "scratch_wal")
    os.makedirs(wal_dir, exist_ok=True)
    writer = open_wal(wal_dir, 1)
    try:
        append_us = _us_each(
            lambda i: writer.append(WalRecordType.INSERT, 1, "scratch", 0, i, b"r" * 64),
            range(MICRO_OPS),
        )
        # flush_to needs something new to make durable: each call is one
        # small append plus the fsync that seals it
        fsync_us = _us_each(
            lambda i: writer.flush_to(writer.append(WalRecordType.COMMIT, 1)),
            range(MICRO_OPS),
        )
    finally:
        writer.close()
    return {
        "index.search_us": _us_each(tree.search, keys),
        "index.insert_us": _us_each(lambda k: scratch.insert(k, (0, k)), new_keys),
        "wal.append_us": append_us,
        "wal.fsync_us": fsync_us,
    }


def run(db: Database, workload, seed: int, scale, data_dir: str, trace_out) -> Dict[str, Any]:
    """The whole layers pass; returns ``{"metrics": ..., "ok": ...}``."""
    writer = db.txn.writer
    spans = SpanLog(True)
    untraced = Replay(db, workload(seed, UNTRACED_STREAM, scale, MIX), SpanLog(False))
    traced = Replay(db, workload(seed, TRACED_STREAM, scale, MIX), spans)
    appends = wal_bytes = 0
    # alternate the two so drift in the machine lands on both alike
    for _ in range(CHUNKS):
        ops = untraced.chunk(budget_s=REPLAY_SECONDS / CHUNKS)
        before = writer.appends, os.path.getsize(writer.path)
        traced.chunk(ops=ops)
        appends += writer.appends - before[0]
        wal_bytes += os.path.getsize(writer.path) - before[1]
    untraced.close()
    traced.close()
    statements = traced.statements
    decompose(db, statements, spans)

    twin_db = Database(data_dir=os.path.join(data_dir, "obs_off"), obs=ObsConfig.off())
    try:
        workload.setup(twin_db, seed, scale)
        twin = Replay(twin_db, workload(seed, UNTRACED_STREAM, scale, MIX), SpanLog(False))
        twin.chunk(ops=untraced.ops)
        twin.close()
    finally:
        twin_db.close()

    execute = spans.seconds("engine.execute")
    parse_s = spans.seconds("sql.parse")
    plan_s = {i: s - parse_s[i] for i, s in spans.seconds("optimizer.plan").items()}
    run_s = spans.seconds("executor.run")
    encode_s = spans.seconds("server.encode")
    accounted = sum(
        parse_s[i] + run_s[i] + (0.0 if statements[i]["plan_cached"] else plan_s[i])
        for i in run_s
    )
    selects_s = sum(execute[i] for i in run_s)
    commits = sum(
        st["autocommit"] and not st["sql"].startswith("SELECT") for st in statements
    )
    by_shape: Dict[str, List[float]] = {}
    for i, st in enumerate(statements):
        by_shape.setdefault(shape(st["sql"]), []).append(execute[i])

    def fixes_per(verb: str) -> float:
        counts = [st["fixes"] for st in statements if st["sql"].startswith(verb)]
        return statistics.fmean(counts) if counts else 0.0

    stream = traced.stream
    metrics = {
        "sql.parse_us": _median(parse_s.values()) * 1e6,
        "optimizer.plan_us": _median(plan_s.values()) * 1e6,
        "executor.run_us": _median(run_s.values()) * 1e6,
        "engine.execute_us": _median(execute.values()) * 1e6,
        "engine.unaccounted_share": 1.0 - accounted / selects_s if selects_s else 0.0,
        "server.encode_us_per_row": sum(encode_s.values())
        / sum(max(1, len(st["rows"])) for st in statements)
        * 1e6,
        "obs.overhead_share": 1.0 - twin.seconds / untraced.seconds,
        "trace.overhead_share": traced.seconds / untraced.seconds - 1.0,
        "executor.row_krows_s": scan_krows_s(db, stream, columnar=False),
        "executor.columnar_krows_s": scan_krows_s(db, stream, columnar=True),
        "storage.page_fixes_per_select": fixes_per("SELECT"),
        "storage.page_fixes_per_insert": fixes_per("INSERT"),
        "storage.page_fixes_per_update": fixes_per("UPDATE"),
        "storage.page_fixes_per_delete": fixes_per("DELETE"),
        "wal.appends_per_commit": appends / commits if commits else 0.0,
        "wal.bytes_per_commit": wal_bytes / commits if commits else 0.0,
        **micro(db, stream, data_dir, random.Random(f"{seed}/micro")),
    }
    if trace_out:
        spans.write_chrome_trace(trace_out)
    return {
        "metrics": metrics,
        "execute_s_by_shape": {k: _median(v) for k, v in by_shape.items()},
        "ok": bool(untraced.ok and traced.ok and twin.ok),
        "replayed_ops": traced.ops,
        "replayed_statements": len(statements),
        "spans": len(spans.spans),
    }
