"""Interactive SQL shell: ``python -m repro``.

A minimal REPL over an in-memory :class:`repro.Database`.  Statements end
with ``;``.  Meta-commands:

* ``\\d``            — list tables (rows, pages, indexes)
* ``\\strategy X``   — switch the join-order strategy
* ``\\timing``       — toggle per-query metrics
* ``\\metrics``      — dump the process-wide metrics snapshot (JSON);
  ``\\metrics prom`` renders Prometheus text exposition instead
* ``\\trace``        — show the last request's span tree (trace id,
  lock/WAL/MVCC spans included); ``\\trace export FILE`` writes the last
  request trace as Chrome trace-event JSON for Perfetto/chrome://tracing
* ``\\search``       — show the optimizer's search trace for the last
  planned query (ranked join-order/access-path alternatives)
* ``\\qlog [N]``     — last N query-log records (default 10) with q-error
  and plan-change flags
* ``\\waits``        — cumulative wait events (where time goes); the same
  data SQL sees as ``SELECT * FROM sys_stat_waits``
* ``\\slow [N]``     — last N auto_explain captures (default 5);
  ``\\slow on [MS]`` / ``\\slow off`` toggles capture (threshold in ms)
* ``\\cache``        — plan cache shapes, variants and replans, hit rate
  and last invalidation; ``\\cache on`` / ``\\cache off`` toggles it
* ``\\load demo``    — load the wholesale demo schema
* ``\\q``            — quit

The ``sys_stat_*`` system tables (statements, tables, waits, metrics,
activity, traces, locks) are ordinary SELECT targets — e.g.
``SELECT * FROM sys_stat_statements ORDER BY total_ms DESC LIMIT 5;``.
The shell runs with observability on; it is one switch (``ObsConfig``),
so no meta-command turns a part of it off.
"""

from __future__ import annotations

import json
import sys

from . import Database
from .optimizer import STRATEGIES


def _print_result(result, timing: bool) -> None:
    if result.columns:
        widths = [
            max(len(c), *(len(str(row[i])) for row in result.rows))
            if result.rows
            else len(c)
            for i, c in enumerate(result.columns)
        ]
        print(" | ".join(c.ljust(w) for c, w in zip(result.columns, widths)))
        print("-+-".join("-" * w for w in widths))
        for row in result.rows:
            print(
                " | ".join(str(v).ljust(w) for v, w in zip(row, widths))
            )
        print(f"({result.rowcount} rows)")
    if timing and result.io is not None:
        print(
            f"[plan {result.planning_seconds * 1000:.1f} ms, "
            f"exec {result.execution_seconds * 1000:.1f} ms, "
            f"{result.io.reads} reads / {result.io.writes} writes]"
        )


def _describe(db: Database) -> None:
    for info in db.catalog.tables():
        indexes = ", ".join(
            f"{ix.name}({column}{', clustered' if ix.clustered else ''})"
            for column, ix in info.indexes.items()
        )
        print(
            f"  {info.name}: {info.num_rows} rows, {info.num_pages} pages"
            + (f"  [{indexes}]" if indexes else "")
        )


def main(argv=None) -> int:
    db = Database(buffer_pages=512, work_mem_pages=64)
    timing = False
    print("repro SQL shell — \\q quits, \\d lists tables, \\load demo for data")
    buffer = ""
    while True:
        try:
            prompt = "repro> " if not buffer else "  ...> "
            line = input(prompt)
        except (EOFError, KeyboardInterrupt):
            print()
            return 0
        stripped = line.strip()
        if not buffer and stripped.startswith("\\"):
            parts = stripped.split()
            command = parts[0]
            if command in ("\\q", "\\quit"):
                return 0
            if command == "\\d":
                _describe(db)
            elif command == "\\timing":
                timing = not timing
                print(f"timing {'on' if timing else 'off'}")
            elif command == "\\metrics":
                if len(parts) > 1 and parts[1] == "prom":
                    print(db.metrics_snapshot(format="prom"), end="")
                else:
                    print(json.dumps(db.metrics_snapshot(), indent=2))
            elif command == "\\trace":
                if len(parts) > 2 and parts[1] == "export":
                    try:
                        db.last_trace_export(parts[2])
                        print(
                            f"wrote {parts[2]} — open it in "
                            "https://ui.perfetto.dev or chrome://tracing"
                        )
                    except Exception as exc:
                        print(f"error: {exc}")
                elif len(parts) > 1 and parts[1] == "export":
                    print("usage: \\trace export FILE")
                elif db.last_request_trace is not None:
                    print(db.last_request_trace.pretty())
                elif db.last_trace is not None:
                    print(db.last_trace.pretty())
                else:
                    print("no query traced yet")
            elif command == "\\search":
                if db.last_search is None or not len(db.last_search):
                    print("no search trace yet (plan a SELECT first)")
                else:
                    print(db.last_search.render(verbose=True))
            elif command == "\\qlog":
                n = 10
                if len(parts) > 1 and parts[1].isdigit():
                    n = int(parts[1])
                records = db.query_log.entries()[-n:]
                if not records:
                    print("query log is empty")
                for record in records:
                    sql_text = " ".join(record.sql.split())
                    if len(sql_text) > 48:
                        sql_text = sql_text[:45] + "..."
                    flag = " PLAN-CHANGED" if record.plan_changed else ""
                    print(
                        f"  q-err={record.q_error:7.2f}  "
                        f"exec={record.execution_ms:7.2f}ms{flag}  "
                        f"{sql_text}"
                    )
            elif command == "\\waits":
                rows = db.waits.rows()
                if not rows:
                    print("no wait events recorded yet")
                for event, count, total_ms, mean_ms in rows:
                    print(
                        f"  {event:<20} n={count:<8} "
                        f"total={total_ms:9.2f}ms  mean={mean_ms:7.3f}ms"
                    )
            elif command == "\\slow":
                if len(parts) > 1 and parts[1] in ("on", "off"):
                    enabled = parts[1] == "on"
                    kwargs = {"enabled": enabled}
                    if enabled and len(parts) > 2:
                        try:
                            kwargs["threshold_ms"] = float(parts[2])
                        except ValueError:
                            print("usage: \\slow on [THRESHOLD_MS]")
                            continue
                    db.auto_explain.configure(**kwargs)
                    state = "on" if enabled else "off"
                    print(
                        f"auto_explain {state}"
                        + (
                            f" (threshold {db.auto_explain.threshold_ms} ms)"
                            if enabled
                            else ""
                        )
                    )
                    continue
                n = 5
                if len(parts) > 1 and parts[1].isdigit():
                    n = int(parts[1])
                captures = db.auto_explain.entries()[-n:]
                if not captures:
                    state = "on" if db.auto_explain.enabled else "off"
                    print(
                        f"no slow-query captures (auto_explain is {state}; "
                        "\\slow on [MS] enables)"
                    )
                for entry in captures:
                    sql_text = " ".join(entry["sql"].split())
                    if len(sql_text) > 60:
                        sql_text = sql_text[:57] + "..."
                    print(
                        f"-- exec={entry['execution_ms']:.2f}ms "
                        f"plan={entry['planning_ms']:.2f}ms "
                        f"rows={entry['rows']}  {sql_text}"
                    )
                    print(entry["plan"])
            elif command == "\\cache":
                plans = db.plan_cache
                if len(parts) > 1 and parts[1] in ("on", "off"):
                    enabled = parts[1] == "on"
                    plans.size = db.obs.plan_cache_size if enabled else 0
                    if not enabled:
                        plans.invalidate("\\cache off")
                    print(f"plan cache {'on' if enabled else 'off'}")
                    continue
                s = plans.stats
                last = (
                    f"  last invalidation: {s.last_invalidation}"
                    if s.last_invalidation
                    else ""
                )
                print(
                    f"  plan   [{'on ' if plans.size > 0 else 'off'}] "
                    f"{len(plans)}/{plans.size} variants of "
                    f"{plans.shapes} shapes  replans={s.replans}  "
                    f"hits={s.hits} misses={s.misses} "
                    f"hit_rate={s.hit_rate:.1%} "
                    f"dropped={s.invalidations}{last}"
                )
            elif command == "\\strategy":
                if len(parts) > 1 and parts[1] in STRATEGIES:
                    db.set_strategy(parts[1])
                    print(f"strategy = {parts[1]}")
                else:
                    print(f"usage: \\strategy {{{'|'.join(STRATEGIES)}}}")
            elif command == "\\load" and len(parts) > 1 and parts[1] == "demo":
                from .workloads import WholesaleScale, load_wholesale

                counts = load_wholesale(db, WholesaleScale.small())
                print(f"loaded: {counts}")
            else:
                print(f"unknown meta-command {command!r}")
            continue
        buffer += ("\n" if buffer else "") + line
        if not buffer.strip():
            buffer = ""
            continue
        if not buffer.rstrip().endswith(";"):
            continue
        sql, buffer = buffer, ""
        try:
            result = db.execute(sql)
            _print_result(result, timing)
        except Exception as exc:  # REPL: report, don't die
            print(f"error: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
