"""The `Database` facade: the library's main public entry point.

::

    from repro import Database

    db = Database(buffer_pages=128, work_mem_pages=32)
    db.execute("CREATE TABLE t (id INT, name TEXT)")
    db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    db.execute("CREATE INDEX ix ON t (id)")
    db.execute("ANALYZE t")
    result = db.query("SELECT name FROM t WHERE id = 2")
    print(result.rows)            # [('b',)]
    print(db.explain("SELECT ...")) # the physical plan with estimates

Ties together catalog, SQL front-end, rewriter, optimizer and executor,
and exposes the per-query metrics the benchmark harness consumes.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algebra import build_plan
from ..catalog import Catalog, TableInfo
from ..executor import ExecContext, ExecMetrics, run
from ..executor.scans import live_rows
from ..expr import Literal, fold_constants
from ..obs import (
    ActivityRegistry,
    AutoExplain,
    FeedbackStore,
    InstrumentLevel,
    MetricsRegistry,
    ObsConfig,
    PlanBaselineStore,
    QueryLog,
    QueryLogRecord,
    RequestTrace,
    SearchTrace,
    Span,
    StatementLatency,
    TraceRing,
    Tracer,
    WaitEventStats,
    activate_tracer,
    active_tracer,
    export_chrome_trace,
    plan_diff,
    plan_fingerprint,
    plan_shape_text,
    q_error,
    register_system_tables,
    statement_fingerprint,
    trace_span,
)
from ..optimizer import (
    CostModel,
    Planner,
    PlannerOptions,
    PlannerStats,
    access_paths,
)
from ..physical import PhysicalPlan, PIndexScan, PLimit
from ..sql import (
    AnalyzeStmt,
    BeginStmt,
    CheckpointStmt,
    CommitStmt,
    CreateIndexStmt,
    CreateTableStmt,
    CreateViewStmt,
    DeleteStmt,
    DropTableStmt,
    DropViewStmt,
    ExplainStmt,
    InsertStmt,
    RollbackStmt,
    SelectStmt,
    UpdateStmt,
    parse,
)
from ..qa import faults
from ..wal import (
    RecoveryReport,
    Transaction,
    TxnManager,
    WalRecordType,
    open_wal,
    recover,
    write_checkpoint,
)
from .cache import (
    CachedPlan,
    Lifted,
    PlanCache,
    lift_select,
    lift_where,
    relation_estimator,
)
from .session import Session
from .statement import StatementContext
from .views import Expansion, ViewDef, ViewExpander
from ..storage import BufferPool, BufferStats, DiskManager, IOStats, Replacement
from ..types import Column, Schema


class EngineError(Exception):
    """Raised for statements the engine cannot execute."""


@dataclass
class QueryResult:
    """Rows plus everything the experiments need to know about the run."""

    rows: List[Tuple[Any, ...]]
    columns: List[str]
    plan: Optional[PhysicalPlan] = None
    io: Optional[IOStats] = None
    buffer: Optional[BufferStats] = None
    exec_metrics: Optional[ExecMetrics] = None
    planner_stats: Optional[PlannerStats] = None
    planning_seconds: float = 0.0
    execution_seconds: float = 0.0
    trace: Optional[Span] = None

    @property
    def rowcount(self) -> int:
        return len(self.rows)

    def as_dicts(self) -> List[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]


class _Harvested:
    """A store the recorder feeds, kept under ``_<name>``.  Reading it by
    its public name harvests what is still queued first — the one door
    every reader, ``sys_stat_*`` providers included, goes through."""

    def __set_name__(self, owner: type, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, db: Optional["Database"], owner: Optional[type] = None):
        if db is None:
            return self
        if db._pending:
            db.harvest_pending()
        return getattr(db, self.slot)


#: what the harvest feeds per SELECT and per DML statement, as
#: ``MetricsRegistry.bind`` takes them: (counters, histograms, gauges)
_SELECT_INSTRUMENTS = (
    (
        "queries_total", "rows_returned_total", "pages_read_total",
        "pages_written_total", "spills_total", "temp_files_total",
        "pages_skipped_total", "exec_row_fallbacks_total",
    ),
    ("planning_ms", "execution_ms"),
    ("buffer_hit_ratio",),
)
_DML_INSTRUMENTS = (
    ("dml_statements_total", "rows_modified_total"), ("dml_execution_ms",), (),
)


class Database:
    """An in-process relational database with a cost-based optimizer."""

    #: queued recorder entries at which the enqueuer harvests inline
    PENDING_BOUND = 64

    metrics, query_log, latency = _Harvested(), _Harvested(), _Harvested()
    baselines, feedback, traces = _Harvested(), _Harvested(), _Harvested()
    last_request_trace = _Harvested()

    def __init__(
        self,
        buffer_pages: int = 256,
        work_mem_pages: int = 32,
        page_size: int = 4096,
        replacement: Replacement = Replacement.LRU,
        options: Optional[PlannerOptions] = None,
        obs: Optional[ObsConfig] = None,
        batch_size: int = ExecContext.DEFAULT_BATCH_SIZE,
        columnar: bool = True,
        data_dir: Optional[str] = None,
    ):
        self.disk = DiskManager(page_size)
        self.pool = BufferPool(self.disk, buffer_pages, replacement)
        self.catalog = Catalog(self.pool)
        #: transaction manager: lifecycle, undo, table locks; doubles as
        #: the WAL hook target (writer attached below when durable)
        self.txn = TxnManager()
        self.catalog.txn = self.txn
        self.pool.evict_guard = self.txn.may_evict
        self.pool.write_hook = self.txn.before_page_write
        self.pool.clean_hook = self.txn.page_clean
        #: the snapshot of the statement currently inside ``_stmt_lock``;
        #: nested internal selects (view materialization, subqueries)
        #: inherit it so one statement reads one consistent view
        self._active_snapshot = None
        self.work_mem_pages = work_mem_pages
        self.batch_size = batch_size
        #: run queries through the columnar batch engine (ColumnBatch
        #: flow, vectorized kernels, zone-map page skipping) and price
        #: plans for it; False is the paper's tuple-at-a-time engine
        self.columnar = columnar
        self.options = options or PlannerOptions()
        self.model = CostModel(
            work_mem_pages=work_mem_pages,
            buffer_pages=buffer_pages,
            vector_cpu_factor=0.25 if columnar else 1.0,
        )
        self.views: Dict[str, ViewDef] = {}
        self._live_transients: List[str] = []
        self.obs = obs or ObsConfig()
        #: what finished statements and requests left for the stores
        #: below, oldest first, as ``(harvester, args)``: queued on the
        #: reply path, run by ``harvest_pending`` one at a time
        self._pending: deque = deque()
        self._harvest_lock = threading.Lock()
        self._metrics = MetricsRegistry()
        self._query_log = QueryLog()
        self.last_trace: Optional[Span] = None
        #: the most recent request's full trace (id + span tree), kept
        #: regardless of duration; ``last_trace_export()`` renders it
        self._last_request_trace: Optional[RequestTrace] = None
        #: bounded ring of *slow* request traces — captured when
        #: auto_explain is enabled and the request crosses its threshold
        #: (one knob for both capture paths); served by ``sys_stat_traces``
        self._traces = TraceRing()
        #: per-fingerprint statement latency quantiles (log-bucketed),
        #: surfaced as ``statement_latency_ms`` in the Prometheus export
        self._latency = StatementLatency()
        #: plan baselines per normalized statement (plan-change detection)
        self._baselines = PlanBaselineStore()
        #: est-vs-actual cardinality evidence, harvested from executions;
        #: consulted at planning time only when options.use_feedback is set
        self._feedback = FeedbackStore()
        #: the optimizer SearchTrace of the most recent planning pass
        self.last_search: Optional[SearchTrace] = None
        #: cumulative wait-event accounting (io/lock/exec classes);
        #: attached to the buffer pool, the lock manager and the WAL
        #: writer so page I/O, lock contention and fsyncs are timed at
        #: the source
        self.waits = WaitEventStats()
        self.pool.waits = self.txn.waits = (
            self.waits if self.obs.enabled else None
        )
        #: in-flight user statements (serves ``sys_stat_activity``)
        self.activity = ActivityRegistry()
        #: slow-statement capture (``auto_explain``-style)
        self.auto_explain = AutoExplain(self.obs.auto_explain)
        #: inter-query cache: physical plans keyed by literal-lifted
        #: statement shape; see ``engine.cache``
        self.plan_cache = PlanCache(self.obs.plan_cache_size)
        #: the engine-wide statement lock: one statement mutates or plans
        #: at a time; lock *waits* (table locks) happen outside it, and
        #: COMMIT's fsync happens after it, so sessions still overlap
        #: usefully (group commit) without a thread-safe executor
        self._stmt_lock = threading.RLock()
        self._session_guard = threading.Lock()
        self._sessions: Dict[int, Session] = {}
        self._next_session_id = 1
        #: the default session behind the plain ``db.execute(sql)`` API
        self._session = self.create_session()
        self.data_dir = data_dir
        self.last_recovery: Optional[RecoveryReport] = None
        self._closed = False
        register_system_tables(self)
        if data_dir is not None:
            os.makedirs(data_dir, exist_ok=True)
            self.last_recovery = recover(self, data_dir)
            self.txn.writer = open_wal(
                data_dir,
                self.last_recovery.next_lsn,
                waits=self.txn.waits,
            )
            self.txn.set_next_txn_id(self.last_recovery.next_txn_id)

    @property
    def options(self) -> PlannerOptions:
        return self._options

    @options.setter
    def options(self, options: PlannerOptions) -> None:
        self._options = options
        #: part of every plan-cache shape, so plans picked under other
        #: options are never served; rendered here, not per lookup
        self._options_key = repr(options)

    # -- cache invalidation ------------------------------------------------------------

    def _invalidate_caches(self, reason: str) -> None:
        """Anything that can change what the optimizer would pick — DDL,
        new statistics, a planner-options switch — drops every cached
        plan."""
        dropped = self.plan_cache.invalidate(reason)
        if dropped and self.obs.enabled:
            self._metrics.counter("cache_invalidations_total").inc(dropped)

    # -- sessions and transactions -----------------------------------------------------

    def create_session(self) -> Session:
        """Open a new session (one logical connection)."""
        with self._session_guard:
            session_id = self._next_session_id
            self._next_session_id += 1
            session = Session(self, session_id)
            self._sessions[session_id] = session
            return session

    def sessions(self) -> List[Session]:
        with self._session_guard:
            return list(self._sessions.values())

    def _forget_session(self, session: Session) -> None:
        with self._session_guard:
            self._sessions.pop(session.id, None)

    def rollback_session_txn(self, session: Session) -> None:
        """Roll back a session's open explicit transaction, if any."""
        txn = session.txn
        session.txn = None
        if txn is not None:
            self._rollback_txn(txn)

    def _commit_txn(self, txn: Transaction) -> None:
        """COMMIT: make durable, then release locks."""
        with trace_span("txn.commit") as sp:
            sp.add("txn_id", float(txn.id))
            self.txn.commit(txn)

    def _rollback_txn(self, txn: Transaction) -> None:
        # undo mutates heaps and indexes, so it runs as a statement
        # (lock ordering is safe: a statement-lock holder never waits on
        # table locks — those are always acquired first)
        with trace_span("txn.rollback") as sp:
            sp.add("txn_id", float(txn.id))
            with self._stmt_lock:
                self.txn.rollback(txn, self.catalog)

    def _txn_control(self, session: Session, stmt: Any) -> QueryResult:
        """BEGIN / COMMIT / ROLLBACK."""
        if isinstance(stmt, RollbackStmt):
            self.rollback_session_txn(session)
        elif isinstance(stmt, CommitStmt):
            txn = session.txn
            session.txn = None
            if txn is not None:
                self._commit_txn(txn)
        elif session.txn is not None:
            raise EngineError("already in a transaction")
        else:
            session.txn = self.txn.begin(session.id, explicit=True)
        return QueryResult(rows=[], columns=[])

    # -- the statement path ------------------------------------------------------------
    #
    # One entry (``_run_statement``: query span, parse, dispatch, trace),
    # one read envelope (``_read``), one write envelope (``_write``), one
    # recorder (``_record``); a ``StatementContext`` is what they share.

    def execute(
        self, sql: str, session: Optional[Session] = None
    ) -> QueryResult:
        """Parse and run one statement of any kind."""
        return self._run_statement(sql, session)

    def query(self, sql: str, session: Optional[Session] = None) -> QueryResult:
        """Run a SELECT and return rows + metrics."""
        return self._run_statement(sql, session, select_only=True)

    def _run_statement(
        self,
        source: Any,
        session: Optional[Session] = None,
        select_only: bool = False,
    ) -> QueryResult:
        """The one statement entry.  *source* is SQL text, or an already
        parsed SELECT for the nested internal selects (view
        materialization, subquery substitution): those run under a trace
        of their own and, having no text, are neither shown in
        ``sys_stat_activity`` nor logged.  A user statement joins the
        tracer active on its thread (the server's per-request one) or
        opens its own; everything below goes through ``trace_span``.
        Whoever owns the tracer owns the request and finalizes it —
        :meth:`capture_trace`, then :meth:`harvest_pending`: here before
        returning, the server once its reply is on the wire."""
        session = session or self._session
        sql = source if isinstance(source, str) else None
        tracer = None if sql is None else active_tracer()
        own = tracer is None
        if own:
            tracer = Tracer(enabled=self.obs.enabled)
        entry = None if sql is None else self.activity.begin(sql, session.id)
        try:
            with activate_tracer(tracer), tracer.span("query"):
                if sql is None:
                    stmt = source
                else:
                    with tracer.span("parse"):
                        stmt = parse(sql)
                st = StatementContext(session, sql, entry)
                if isinstance(stmt, SelectStmt):
                    result = self._read(st, stmt)
                elif select_only:
                    raise EngineError("query() expects a SELECT; use execute()")
                elif isinstance(stmt, ExplainStmt):
                    result = self._explain(st, stmt)
                elif isinstance(stmt, (BeginStmt, CommitStmt, RollbackStmt)):
                    result = self._txn_control(session, stmt)
                elif isinstance(stmt, CheckpointStmt):
                    result = self.checkpoint()
                elif isinstance(stmt, (InsertStmt, DeleteStmt, UpdateStmt)):
                    result = self._dml(st, stmt)
                else:
                    result = self._utility(st, stmt)
        finally:
            if entry is not None:
                self.activity.finish(entry)
        if own and tracer.root is not None:
            result.trace = tracer.root
            self.last_trace = tracer.root
            if sql is not None:
                self.capture_trace(tracer, sql, session_id=session.id)
        if own and self._pending:
            self.harvest_pending()
        return result

    def _read(
        self,
        st: StatementContext,
        stmt: SelectStmt,
        analyze: bool = False,
        collect_search: Optional[bool] = None,
    ) -> QueryResult:
        """The read envelope: pin or acquire the snapshot, take the
        statement lock, run, record, release."""
        # MVCC: user statements read through a commit-timestamp snapshot
        # instead of locking — they never block on writers and never see
        # uncommitted rows.  Inside an explicit transaction the snapshot
        # is pinned at the first SELECT and reused until COMMIT/ROLLBACK
        # (repeatable reads, released by TxnManager._finish); autocommit
        # SELECTs take a statement snapshot (read committed).  Nested
        # internal selects inherit the outer statement's view below, so
        # one statement reads one consistent state.
        release = False
        if st.sql is not None:
            txn = st.txn = st.session.txn
            if txn is None or txn.snapshot is None:
                with trace_span("mvcc.acquire") as sp:
                    st.snapshot = self.txn.versions.acquire(
                        txn.id if txn is not None else 0
                    )
                    sp.set_attr(
                        "scope", "statement" if txn is None else "transaction"
                    )
                    sp.add("snapshot_ts", float(st.snapshot.ts))
                if txn is None:
                    release = True
                else:
                    txn.snapshot = st.snapshot
            else:
                st.snapshot = txn.snapshot
            st.entry.snapshot_ts = st.snapshot.ts
            st.entry.snapshot_acquired = st.snapshot.acquired_at
        try:
            with self._stmt_lock:
                outer_snapshot = self._active_snapshot
                if st.snapshot is None:
                    st.snapshot = outer_snapshot
                self._active_snapshot = st.snapshot
                before = len(self._live_transients)
                try:
                    result = self._run_select(st, stmt, analyze, collect_search)
                finally:
                    # transient tables created for THIS statement's views
                    self._drop_transients_from(before)
                    self._active_snapshot = outer_snapshot
                self._record(st, result, result.rowcount)
        finally:
            if release:
                with trace_span("mvcc.release"):
                    self.txn.versions.release(st.snapshot)
        return result

    def _run_select(
        self,
        st: StatementContext,
        stmt: SelectStmt,
        analyze: bool,
        collect_search: Optional[bool],
    ) -> QueryResult:
        """Plan (or fetch the cached plan) and execute, inside the read
        envelope; leaves the chosen plan on *st*."""
        # Cacheable = user-issued, not EXPLAIN ANALYZE (which must show a
        # cold plan), feedback off (feedback-corrected plans drift between
        # executions), and no subqueries (decomposition bakes subquery
        # *results* into the plan as literals; the lifting walk is what
        # finds them).
        lifted = None
        if (
            st.sql is not None
            and not analyze
            and not self.options.use_feedback
            and self.plan_cache.size
        ):
            lifted = lift_select(stmt)
        pstats = PlannerStats()

        def plan_cold(stmt: SelectStmt) -> PhysicalPlan:
            nonlocal pstats
            with trace_span("plan"):
                physical, pstats = self.plan_select(stmt, collect_search)
            return physical

        if lifted is not None:
            st.plan, cached, st.plan_cache_hit = self._cached_plan(
                lifted, lambda: plan_cold(lifted.stmt)
            )
            if cached is not None:
                st.plan_fp = cached.fingerprint
        else:
            st.plan = plan_cold(stmt)
        planning = time.perf_counter() - st.start
        st.phase("executing")
        blocked = self.waits.blocked_seconds()
        with trace_span("execute"):
            result = self.run_plan(
                st.plan, analyze=analyze, activity=st.entry,
                snapshot=st.snapshot,
            )
        if self.obs.enabled:
            # exec.cpu = wall execution time minus the time this thread
            # spent blocked during it (another session's fsync is not
            # ours), so cpu + io + lock adds back up to measured
            # execution time
            blocked = self.waits.blocked_seconds() - blocked
            self.waits.record(
                "exec.cpu", max(0.0, result.execution_seconds - blocked)
            )
        result.planner_stats = pstats
        result.planning_seconds = planning
        return result

    def _write(self, st: StatementContext, tables: Sequence[str], body) -> Any:
        """The write envelope, shared by DDL, INSERT/UPDATE/DELETE,
        ``insert_rows`` and ``analyze``: run *body* under the session's
        transaction (or an implicit autocommitted one).  Table locks are
        taken *before* the statement lock — lock waits must not block the
        engine — and an implicit COMMIT's fsync happens *after* the
        statement lock is released (group commit batching)."""
        session = st.session
        own = session.txn
        txn = st.txn = own if own is not None else self.txn.begin(session.id)
        try:
            st.phase("lock wait")
            for table in tables:
                self.txn.lock_table(txn, table)
            st.phase("executing")
            with self.txn.activate(txn), self._stmt_lock:
                out = body()
        except BaseException:
            # statement failure aborts the whole transaction (a partially
            # applied statement cannot be left behind)
            if own is not None:
                session.txn = None
            self._rollback_txn(txn)
            raise
        if own is None:
            self._commit_txn(txn)
        return out

    def _dml(self, st: StatementContext, stmt: Any) -> QueryResult:
        """INSERT/UPDATE/DELETE: through the write envelope, then recorded."""
        insert = isinstance(stmt, InsertStmt)
        st.kind = (
            "insert"
            if insert
            else "delete" if isinstance(stmt, DeleteStmt) else "update"
        )
        st.io0 = self.disk.stats.snapshot()

        def body() -> int:
            with trace_span("execute") as sp:
                if insert:
                    count = self._insert(stmt)
                else:
                    # the access path that located the victims, and
                    # whether it came out of the plan cache
                    apply = self._delete if st.kind == "delete" else self._update
                    count, st.plan, st.plan_cache_hit = apply(stmt)
                    sp.set_attr(
                        "access_path",
                        st.plan.index.name
                        if isinstance(st.plan, PIndexScan)
                        else "seq",
                    )
                sp.add("rows_modified", float(count))
            return count

        count = self._write(st, [stmt.table], body)
        self._record(st, None, count)
        if insert:
            return QueryResult(rows=[], columns=[])
        return QueryResult(rows=[(count,)], columns=[f"{st.kind}d"])

    def _explain(self, st: StatementContext, stmt: ExplainStmt) -> QueryResult:
        """EXPLAIN [(ANALYZE | VERBOSE | SEARCH | DIFF)]: render the plan
        (with actuals when executed), optionally followed by the
        optimizer's search trace, or diffed against the stored baseline."""
        collect_search = True if stmt.search else None
        if stmt.analyze and not stmt.diff:
            inner = self._read(
                st, stmt.inner, analyze=True, collect_search=collect_search
            )
            text = inner.plan.pretty(actuals=True)
            text += (
                f"\nplanning: {inner.planning_seconds * 1000:.1f} ms"
                f"\nexecution: {inner.execution_seconds * 1000:.1f} ms, "
                f"{inner.io.reads} reads / {inner.io.writes} writes, "
                f"{inner.rowcount} rows"
            )
            text += self._search_section(stmt)
            return dc_replace(
                inner,
                rows=[(line,) for line in text.splitlines()],
                columns=["plan"],
            )
        physical, pstats = self._plan_only(stmt.inner, collect_search)
        planning = time.perf_counter() - st.start
        if not stmt.diff:
            text = physical.pretty() + self._search_section(stmt)
        else:
            # diffing is a read-only question: the baseline is NOT advanced
            baseline = self.baselines.get(statement_fingerprint(st.sql))
            if baseline is None:
                text = (
                    physical.pretty()
                    + "\n\n(no stored baseline for this statement yet — "
                    "run it once to establish one)"
                )
            else:
                text = plan_diff(
                    baseline.plan_shape,
                    plan_shape_text(physical),
                    baseline.est_cost,
                    physical.total_est_cost(),
                )
        return QueryResult(
            rows=[(line,) for line in text.splitlines()],
            columns=["plan"],
            plan=physical,
            planner_stats=pstats,
            planning_seconds=planning,
        )

    def _search_section(self, stmt: ExplainStmt) -> str:
        if not stmt.search or self.last_search is None:
            return ""
        return "\n\nSearch:\n" + self.last_search.render(verbose=stmt.verbose)

    def _plan_only(
        self, stmt: SelectStmt, collect_search: Optional[bool] = None
    ) -> Tuple[PhysicalPlan, PlannerStats]:
        """Plan without executing — ``EXPLAIN``, ``EXPLAIN DIFF``,
        :meth:`plan`, :meth:`explain`.  Planning materializes
        non-mergeable views and ``sys_stat_*`` snapshots into real catalog
        tables, so it holds the statement lock, and it drops those
        transients before it returns."""
        with self._stmt_lock:
            before = len(self._live_transients)
            try:
                with trace_span("plan"):
                    return self.plan_select(stmt, collect_search)
            finally:
                self._drop_transients_from(before)

    def _utility(
        self, st: StatementContext, stmt: Any, **stats_options: Any
    ) -> QueryResult:
        """DDL and ANALYZE: autocommitted through the write envelope and
        logged as DDL (recovery replays the text).  *stats_options* are
        :meth:`analyze`'s histogram settings."""
        if st.session.txn is not None:
            raise EngineError(
                "DDL and utility statements autocommit and cannot run "
                "inside an explicit transaction"
            )

        def body() -> QueryResult:
            result = self._apply_utility(stmt, st.sql, **stats_options)
            self.txn.log_ddl(json.dumps({"sql": st.sql}).encode("utf-8"))
            return result

        return self._write(st, self._utility_lock_targets(stmt), body)

    def _utility_lock_targets(self, stmt: Any) -> List[str]:
        """Tables a DDL/utility statement must quiesce before running."""
        if isinstance(stmt, (CreateIndexStmt, DropTableStmt)):
            if self.catalog.has_table(stmt.table):
                return [stmt.table]
            return []
        if isinstance(stmt, AnalyzeStmt):
            if stmt.table is None:
                return sorted(info.name for info in self.catalog.tables())
            if self.catalog.has_table(stmt.table):
                return [stmt.table]
        return []

    def _apply_utility(
        self, stmt: Any, sql: str, **stats_options: Any
    ) -> QueryResult:
        if isinstance(stmt, CreateTableStmt):
            schema = Schema(
                Column(c.name, c.dtype, stmt.table, c.nullable)
                for c in stmt.columns
            )
            self._invalidate_caches("CREATE TABLE")
            self.catalog.create_table(stmt.table, schema)
            for c in stmt.columns:
                if c.primary_key:
                    self.catalog.create_index(
                        f"pk_{stmt.table}_{c.name}",
                        stmt.table,
                        c.name,
                        clustered=True,
                    )
            return QueryResult(rows=[], columns=[])
        if isinstance(stmt, CreateIndexStmt):
            self._invalidate_caches("CREATE INDEX")
            self.catalog.create_index(
                stmt.name, stmt.table, stmt.column, stmt.clustered
            )
            return QueryResult(rows=[], columns=[])
        if isinstance(stmt, DropTableStmt):
            self._invalidate_caches("DROP TABLE")
            self.catalog.drop_table(stmt.table)
            # a later table reusing the name must not inherit stale chains
            self.txn.versions.drop_table(stmt.table)
            return QueryResult(rows=[], columns=[])
        if isinstance(stmt, CreateViewStmt):
            key = stmt.name.lower()
            if self.catalog.has_table(stmt.name) or key in self.views:
                raise EngineError(f"name {stmt.name!r} already in use")
            self._invalidate_caches("CREATE VIEW")
            self.views[key] = ViewDef(stmt.name, stmt.select, sql)
            return QueryResult(rows=[], columns=[])
        if isinstance(stmt, DropViewStmt):
            if stmt.name.lower() not in self.views:
                raise EngineError(f"no such view: {stmt.name}")
            self._invalidate_caches("DROP VIEW")
            del self.views[stmt.name.lower()]
            return QueryResult(rows=[], columns=[])
        if isinstance(stmt, AnalyzeStmt):
            self._invalidate_caches("ANALYZE")
            if stmt.table is None:
                self.catalog.analyze_all(**stats_options)
                analyzed = sorted(
                    self.catalog.tables(), key=lambda info: info.name
                )
            else:
                self.catalog.analyze(stmt.table, **stats_options)
                analyzed = [self.catalog.table(stmt.table)]
            # one summary row per table, zone-map coverage included
            rows = []
            for info in analyzed:
                zone_pages, zone_entries = (
                    info.zones.summary() if info.zones is not None else (0, 0)
                )
                rows.append(
                    (
                        info.name,
                        info.stats.num_rows if info.stats else 0,
                        info.num_pages,
                        zone_pages,
                        zone_entries,
                    )
                )
            return QueryResult(
                rows=rows,
                columns=[
                    "table",
                    "rows",
                    "pages",
                    "zone_pages",
                    "zone_entries",
                ],
            )
        raise EngineError(f"unsupported statement {type(stmt).__name__}")

    # -- planning ---------------------------------------------------------------------------

    def plan_select(
        self, stmt: SelectStmt, collect_search: Optional[bool] = None
    ) -> Tuple[PhysicalPlan, PlannerStats]:
        """Plan a SELECT.  Views referenced by *stmt* are expanded here; a
        non-mergeable view is materialized into a transient table that the
        statement owning the planning drops when it finishes (the read
        envelope and ``_plan_only`` clean up after themselves; direct
        callers own the cleanup via :meth:`drop_transients`)."""
        with trace_span("view_expansion") as span:
            expansion = self._expand_views(stmt)
            if expansion.transient_tables:
                span.add("views_materialized", len(expansion.transient_tables))
        self._materialize_system_tables(expansion.stmt)
        with trace_span("decorrelation") as span:
            before = len(self._live_transients)
            stmt = self._decompose_subqueries(expansion.stmt)
            if len(self._live_transients) > before:
                span.add(
                    "subqueries_decorrelated",
                    len(self._live_transients) - before,
                )
        logical = build_plan(stmt, self.catalog)
        if collect_search is None:
            collect_search = self.obs.enabled
        search = SearchTrace() if collect_search else None
        planner = Planner(
            self.catalog,
            self.model,
            self.options,
            feedback=self.feedback,
            search=search,
        )
        physical = planner.plan_logical(logical)
        if search is not None:
            self.last_search = search
        return physical, planner.last_stats or PlannerStats()

    # -- views -------------------------------------------------------------------------

    def _expand_views(self, stmt: SelectStmt) -> Expansion:
        if not self.views:
            return Expansion(stmt)
        expander = ViewExpander(
            views=self.views,
            is_table=self.catalog.has_table,
            materialize=self._materialize_view,
            table_columns=self._table_columns,
            view_output_names=lambda s: [],
        )
        return expander.expand(stmt)

    def _table_columns(self, table: str) -> List[str]:
        if self.catalog.has_table(table):
            return self.catalog.table(table).schema.names()
        view = self.views.get(table.lower())
        if view is None:
            return []
        # output names of a view: derived from its select list
        names: List[str] = []
        for item in view.select.items:
            if item.is_star:
                for ref in list(view.select.from_tables) + [
                    j.table for j in view.select.joins
                ]:
                    for column in self._table_columns(ref.table):
                        if column not in names:
                            names.append(column)
                continue
            if item.alias:
                names.append(item.alias)
            else:
                from ..expr import ColumnRef

                if isinstance(item.expr, ColumnRef):
                    names.append(item.expr.name.split(".")[-1])
                else:
                    names.append(str(item.expr))
        return names

    def _materialize_view(self, inner: SelectStmt, table_name: str) -> str:
        result = self._run_statement(inner)
        schema = Schema(
            Column(column.name, column.dtype, table_name, True)
            for column in result.plan.schema
        )
        self.catalog.create_table(table_name, schema)
        # registered at once, so it is dropped with the statement even
        # when a later view or subquery of the same statement fails
        self._live_transients.append(table_name)
        self.catalog.insert_rows(table_name, result.rows)
        self.catalog.analyze(table_name)
        return table_name

    def _materialize_system_tables(self, stmt: SelectStmt) -> None:
        """Snapshot every ``sys_stat_*`` table *stmt* references into a
        transient heap table of the same name (dropped when the statement
        finishes, exactly like a materialized view).

        Materializing — rather than teaching the executor about virtual
        tables — means the planner prices a system table like any small,
        freshly-ANALYZEd table and every SQL feature (filters, joins,
        ORDER BY, aggregation, EXPLAIN) composes with zero special cases.
        The snapshot is taken once, at statement start, so self-joins of a
        system table see one consistent picture.  A user table with the
        same name shadows the provider (``is_system_table`` is False),
        which also makes re-materialization within one statement a no-op.
        """
        catalog = self.catalog
        if not catalog.system_table_names():
            return
        refs = [ref.table for ref in stmt.from_tables]
        refs += [join.table.table for join in stmt.joins]
        for name in refs:
            key = name.lower()
            if not catalog.is_system_table(key):
                continue
            schema, rows = catalog.system_table_rows(key)
            catalog.create_table(key, schema)
            self._live_transients.append(key)
            catalog.insert_rows(key, rows)
            catalog.analyze(key)

    def drop_transients(self) -> None:
        """Drop transient tables left over from planning view queries."""
        self._drop_transients_from(0)

    def _drop_transients_from(self, before: int) -> None:
        """Drop the transients registered past index *before* — the ones
        the current statement created."""
        mine = self._live_transients[before:]
        del self._live_transients[before:]
        for name in mine:
            if self.catalog.has_table(name):
                self.catalog.drop_table(name)

    # -- subquery decomposition (INGRES-style) ----------------------------------------

    def _decompose_subqueries(self, stmt: SelectStmt) -> SelectStmt:
        """Replace uncorrelated subquery predicates with their results.

        The classic decomposition strategy: run each independent inner
        query first, substitute its answer as literals, then optimize the
        (now subquery-free) outer query.  Correlated subqueries are
        rejected (the inner query must plan standalone).
        """
        from dataclasses import replace as dc_replace

        from ..expr import Expr, SubqueryExpr, contains_subquery, map_expr

        def rewrite(expr: Optional[Expr]) -> Optional[Expr]:
            if expr is None or not contains_subquery(expr):
                return expr
            return map_expr(expr, self._substitute_subquery)

        stmt = self._decorrelate(stmt)
        changed = False
        where = rewrite(stmt.where)
        having = rewrite(stmt.having)
        joins = []
        for join in stmt.joins:
            condition = rewrite(join.condition)
            if condition is not join.condition:
                changed = True
                join = dc_replace(join, condition=condition)
            joins.append(join)
        if where is stmt.where and having is stmt.having and not changed:
            return stmt
        out = SelectStmt(
            items=stmt.items,
            from_tables=stmt.from_tables,
            joins=joins,
            where=where,
            group_by=stmt.group_by,
            having=having,
            order_by=stmt.order_by,
            limit=stmt.limit,
            distinct=stmt.distinct,
        )
        return out

    # -- correlated subqueries: semi-join decorrelation -------------------------------

    def _decorrelate(self, stmt: SelectStmt) -> SelectStmt:
        """Rewrite correlated ``IN``/``EXISTS`` conjuncts as semi-joins.

        The classic decorrelation: a top-level-conjunct subquery whose only
        references to the outer query are equality links becomes a join
        against the DISTINCT projection of the inner query over its link
        (and output) columns.  The inner query is materialized into a
        transient table first (decomposition), so the optimizer then sees a
        plain join.

        Unsupported shapes (negated forms, non-equality correlation,
        correlated aggregates, subqueries under OR) are left alone and fail
        later with a clear error if genuinely correlated.
        """
        from ..expr import ColumnRef, SubqueryExpr, eq, split_conjuncts
        from ..sql.ast import TableRef

        if stmt.where is None:
            return stmt
        conjuncts = split_conjuncts(stmt.where)
        if not any(isinstance(c, SubqueryExpr) for c in conjuncts):
            return stmt

        outer_bindings = {
            ref.binding: ref.table
            for ref in list(stmt.from_tables) + [j.table for j in stmt.joins]
        }
        out_conjuncts: List[Any] = []
        extra_tables: List[TableRef] = []
        changed = False
        for conjunct in conjuncts:
            replacement = None
            if (
                isinstance(conjunct, SubqueryExpr)
                and not conjunct.negated
                and conjunct.kind in ("in", "exists")
            ):
                replacement = self._decorrelate_one(
                    conjunct, outer_bindings, extra_tables,
                    len(extra_tables),
                )
            if replacement is None:
                out_conjuncts.append(conjunct)
            else:
                out_conjuncts.extend(replacement)
                changed = True
        if not changed:
            return stmt
        from ..expr import conjoin

        return SelectStmt(
            items=stmt.items,
            from_tables=list(stmt.from_tables) + extra_tables,
            joins=stmt.joins,
            where=conjoin(out_conjuncts),
            group_by=stmt.group_by,
            having=stmt.having,
            order_by=stmt.order_by,
            limit=stmt.limit,
            distinct=stmt.distinct,
        )

    def _decorrelate_one(
        self,
        sub,
        outer_bindings: Dict[str, str],
        extra_tables: List[Any],
        counter: int,
    ) -> Optional[List[Any]]:
        """Try to turn one correlated subquery conjunct into join conjuncts
        plus a transient FROM entry.  Returns None when not applicable
        (including the uncorrelated case, which the literal-substitution
        path handles better)."""
        from ..expr import (
            ColEqCol,
            ColumnRef,
            classify_conjunct,
            conjoin,
            eq,
            referenced_columns,
            split_conjuncts,
        )
        from ..sql.ast import SelectItem, TableRef

        inner: SelectStmt = sub.payload
        if (
            inner.group_by
            or inner.having is not None
            or inner.order_by
            or inner.limit is not None
        ):
            return None
        if sub.kind == "in" and len(inner.items) != 1:
            return None
        inner_refs = list(inner.from_tables) + [j.table for j in inner.joins]
        inner_columns: Dict[str, int] = {}
        for ref in inner_refs:
            for column in self._table_columns(ref.table):
                inner_columns[column] = inner_columns.get(column, 0) + 1
        inner_bindings = {ref.binding for ref in inner_refs}

        def side_of(name: str) -> Optional[str]:
            if "." in name:
                qualifier = name.split(".", 1)[0]
                if qualifier in inner_bindings:
                    return "inner"
                if qualifier in outer_bindings:
                    return "outer"
                return None
            if inner_columns.get(name, 0) == 1:
                return "inner"
            if inner_columns.get(name, 0) > 1:
                return None  # ambiguous inside the subquery
            for table in outer_bindings.values():
                if name in self._table_columns(table):
                    return "outer"
            return None

        pure_inner: List[Any] = []
        links: List[Any] = []  # (inner ColumnRef, outer ColumnRef)
        for conjunct in split_conjuncts(inner.where):
            refs = referenced_columns(conjunct)
            sides = {side_of(name) for name in refs}
            if None in sides:
                return None
            if sides <= {"inner"}:
                pure_inner.append(conjunct)
                continue
            classified = classify_conjunct(conjunct)
            if not isinstance(classified, ColEqCol):
                return None  # non-equality correlation: bail
            left_side = side_of(classified.left)
            right_side = side_of(classified.right)
            if {left_side, right_side} != {"inner", "outer"}:
                return None
            inner_name, outer_name = (
                (classified.left, classified.right)
                if left_side == "inner"
                else (classified.right, classified.left)
            )
            links.append((ColumnRef(inner_name), ColumnRef(outer_name)))
        if not links:
            return None  # uncorrelated: let literal substitution handle it

        # Build the inner DISTINCT projection over output + link columns.
        items: List[SelectItem] = []
        if sub.kind == "in":
            items.append(SelectItem(inner.items[0].expr, "__c0"))
        for i, (inner_col, _) in enumerate(links):
            items.append(SelectItem(inner_col, f"__l{i}"))
        derived = SelectStmt(
            items=items,
            from_tables=list(inner.from_tables),
            joins=list(inner.joins),
            where=conjoin(pure_inner),
            distinct=True,
        )
        alias = f"__dq{counter}_{len(self._live_transients)}"
        table_name = self._materialize_view(derived, f"__decorr_{alias}")
        extra_tables.append(TableRef(table_name, alias))

        conjuncts_out: List[Any] = []
        if sub.kind == "in":
            conjuncts_out.append(eq(sub.operand, ColumnRef(f"{alias}.__c0")))
        for i, (_, outer_col) in enumerate(links):
            conjuncts_out.append(eq(ColumnRef(f"{alias}.__l{i}"), outer_col))
        return conjuncts_out

    def _substitute_subquery(self, expr):
        from ..expr import InList, Literal, SubqueryExpr

        if not isinstance(expr, SubqueryExpr):
            return expr
        inner: SelectStmt = expr.payload
        try:
            result = self._run_statement(inner)
        except Exception as exc:
            raise EngineError(
                "subquery failed (correlated subqueries are not supported: "
                f"the inner query must run standalone): {exc}"
            ) from exc
        if expr.kind == "exists":
            return Literal(bool(result.rows) != expr.negated)
        if expr.kind == "scalar":
            if len(result.columns) != 1:
                raise EngineError("scalar subquery must return one column")
            if len(result.rows) > 1:
                raise EngineError("scalar subquery returned more than one row")
            value = result.rows[0][0] if result.rows else None
            return Literal(value)
        # 'in'
        if len(result.columns) != 1:
            raise EngineError("IN subquery must return exactly one column")
        values = {row[0] for row in result.rows if row[0] is not None}
        had_null = any(row[0] is None for row in result.rows)
        if not values and not had_null:
            return Literal(expr.negated)  # IN () = FALSE, NOT IN () = TRUE
        items = tuple(Literal(v) for v in sorted(values, key=repr))
        if had_null:
            items = items + (Literal(None),)
        return InList(expr.operand, items, expr.negated)

    def plan(self, sql: str) -> PhysicalPlan:
        stmt = parse(sql)
        if isinstance(stmt, ExplainStmt):
            stmt = stmt.inner
        if not isinstance(stmt, SelectStmt):
            raise EngineError("plan() expects a SELECT")
        return self._plan_only(stmt)[0]

    def explain(self, sql: str) -> str:
        return self.plan(sql).pretty()

    # -- execution ---------------------------------------------------------------------------

    def run_plan(
        self,
        physical: PhysicalPlan,
        cold: bool = False,
        analyze: bool = False,
        activity: Optional[Any] = None,
        snapshot: Optional[Any] = None,
    ) -> QueryResult:
        """Execute an already-built physical plan, measuring real I/O.

        ``cold=True`` clears the buffer pool first so the run pays full
        page-fetch costs (what the experiments usually want).
        ``analyze=True`` runs at FULL instrumentation (per-operator timing
        and attributed buffer/disk counters) instead of ROWS; an enabled
        ``auto_explain`` forces the same, so captures carry per-node
        timing — the trade PostgreSQL's ``auto_explain.log_analyze`` makes.
        """
        if cold:
            self.pool.clear()
        before_io = self.disk.stats.snapshot()
        before_buf = self.pool.stats.snapshot()
        ctx = ExecContext(
            self.pool,
            self.work_mem_pages,
            instrument=(
                InstrumentLevel.FULL
                if analyze or self.auto_explain.enabled
                else InstrumentLevel.ROWS
            ),
            batch_size=self.batch_size,
            activity=activity,
            columnar=self.columnar,
            snapshot=snapshot if snapshot is not None else self._active_snapshot,
        )
        start = time.perf_counter()
        rows = run(physical, ctx)
        elapsed = time.perf_counter() - start
        return QueryResult(
            rows=rows,
            columns=physical.schema.names(),
            plan=physical,
            io=self.disk.stats.delta(before_io),
            buffer=self.pool.stats.delta(before_buf),
            exec_metrics=ctx.metrics,
            execution_seconds=elapsed,
        )

    # -- request traces -----------------------------------------------------------------

    def capture_trace(self, tracer: Tracer, sql: str, session_id: int = 0) -> None:
        """Queue a finished tracer for :meth:`harvest_pending` to keep as
        a :class:`RequestTrace` (nothing is built on the reply path)."""
        if tracer.enabled and tracer.root is not None:
            self._pending.append((self._keep_trace, (tracer, sql, session_id)))
            if len(self._pending) >= self.PENDING_BOUND:
                self.harvest_pending()

    def _keep_trace(self, tracer: Tracer, sql: str, session_id: int) -> None:
        """Always remembered as ``last_request_trace``; additionally pushed
        into the slow-trace ring when auto_explain is enabled and the
        request crossed its ``threshold_ms`` (the same knob that gates
        slow-plan capture — one definition of "slow")."""
        trace = RequestTrace(
            tracer.trace_id, sql, tracer.root, session_id=session_id
        )
        self._last_request_trace = trace
        slow = self.auto_explain.config
        if slow.enabled and trace.duration_ms >= slow.threshold_ms:
            self._traces.record(trace)
            self._metrics.counter("traces_captured_total").inc()
            self._metrics.counter("trace_spans_total").inc(trace.span_count())

    def last_trace_export(self, path: Optional[str] = None) -> str:
        """The most recent request trace as Chrome trace-event JSON —
        load the written file in Perfetto (https://ui.perfetto.dev) or
        ``chrome://tracing``.  Returns the JSON text; writes *path* when
        given (the REPL's ``\\trace export FILE``)."""
        trace = self.last_request_trace
        if trace is None:
            raise EngineError("no request trace captured yet")
        return export_chrome_trace(trace, path)

    def _cached_plan(
        self, lifted: Lifted, plan_cold
    ) -> Tuple[PhysicalPlan, Optional[CachedPlan], bool]:
        """Lookup-or-plan through the plan cache, for a SELECT and for the
        scan that locates an UPDATE/DELETE's rows alike: the executable
        plan for *lifted*'s literals, its cache entry, and whether that
        was a hit.  On a miss *plan_cold* plans the statement and the
        result becomes the template of a new variant — unless it leans on
        transient tables, in which case it is run as it is and there is
        no entry.  A cached template is never executed itself."""
        shape = (self._options_key, lifted.key)
        cache = self.plan_cache
        replans = cache.stats.replans
        cached = cache.lookup(shape, lifted.params)
        hit = cached is not None
        if self.obs.enabled:
            self._metrics.counter(
                "cache_plan_hits_total" if hit else "cache_plan_misses_total"
            ).inc()
            if cache.stats.replans != replans:
                self._metrics.counter("cache_plan_replans_total").inc()
        if cached is None:
            before = len(self._live_transients)
            physical = plan_cold()
            if len(self._live_transients) > before:
                return physical, None, False
            cached = CachedPlan(
                physical, lifted.params, self.options.estimator
            )
            cache.store(shape, cached)
        return cached.bind(lifted.params), cached, hit

    def _record(
        self, st: StatementContext, result: Optional[QueryResult], rows: int
    ) -> None:
        """The one recorder, on the reply path: queue a finished statement
        — a SELECT with its *result*, or a DML statement (*result* is
        None) — for :meth:`_harvest`, keeping only what will not be there
        to read later: a DML statement's latency as the client saw it
        (for autocommit DML that includes the COMMIT's group-batched
        fsync) and its disk delta, and the search trace an auto_explain
        capture would render.  The result's row list is not kept."""
        if not self.obs.enabled:
            return
        if result is None:
            elapsed_ms = (time.perf_counter() - st.start) * 1000.0
            measured = (0.0, elapsed_ms, self.disk.stats.delta(st.io0), None, 0)
        else:
            measured = (
                result.planning_seconds * 1000.0,
                result.execution_seconds * 1000.0,
                result.io, result.exec_metrics, result.buffer.hits,
            )
        self._pending.append(
            (self._harvest, (st, rows, self.last_search, *measured))
        )
        if len(self._pending) >= self.PENDING_BOUND:
            self.harvest_pending()

    def harvest_pending(self) -> None:
        """Run everything queued, oldest first: what a request's owner
        does once the reply is out, and what every reader of a harvested
        store does first.  An entry leaves the queue only when it has
        been harvested, so a reader that finds the queue empty has missed
        nothing, and one that does not waits here for the lock."""
        pending = self._pending
        with self._harvest_lock:
            while pending:
                harvester, args = pending[0]
                try:
                    harvester(*args)
                finally:
                    pending.popleft()

    def _harvest(
        self, st: StatementContext, rows: int, search: Optional[SearchTrace],
        planning_ms: float, execution_ms: float, io: IOStats,
        em: Optional[ExecMetrics], buffer_hits: int,
    ) -> None:
        """All of what ``ObsConfig.enabled`` buys besides span trees and
        wait hooks: feed one recorded statement into the metrics
        registry, the feedback and baseline stores, the latency store,
        the query log (with session/txn attribution) and auto_explain.
        *rows* is what it returned or modified; ``st.plan`` is the
        SELECT's plan or the scan that located an UPDATE/DELETE's rows
        (None for INSERT), whose estimates the log scores against *rows*.
        Runs under the harvest lock, so it reaches the stores by their
        private names, never through the harvesting door."""
        sql, plan = st.sql, st.plan
        select = st.kind == "select"
        est_cost = 0.0 if plan is None else plan.total_est_cost()
        spills = temp_files = 0
        change = None
        if select:
            (
                queries, returned, read, written, spilled, temps, skipped,
                fallbacks, planning_h, execution_h, hit_ratio,
            ) = self._metrics.bind(_SELECT_INSTRUMENTS)
            queries.inc()
            planning_h.observe(planning_ms)
            execution_h.observe(execution_ms)
            returned.inc(rows)
            for counter, amount in (
                (read, io.reads), (written, io.writes), (spilled, em.spills),
                (temps, em.temp_files), (skipped, em.pages_skipped),
                (fallbacks, em.row_fallbacks),
            ):
                if amount:
                    counter.inc(amount)
            hit_ratio.set(self.pool.stats.hit_rate)
            # plans under a LIMIT are not harvested: early termination
            # leaves actuals that reflect the cutoff, not the data, and
            # learning from them would poison the corrections
            if self.obs.feedback:
                self._feedback.harvest(plan, unless=PLimit)
            if sql is None:
                return  # a nested internal select: no text to record under
            statement_fp = statement_fingerprint(sql)
            fingerprint = st.plan_fp or plan_fingerprint(plan)
            spills, temp_files = em.spills, em.temp_files
            change = self._baselines.observe(
                statement_fp,
                sql,
                fingerprint,
                est_cost,
                plan,  # rendered only for a new or changed plan
                execution_ms,
            )
            if change is not None:
                self._metrics.counter("plan_changes_total").inc()
                if change.is_regression:
                    self._metrics.counter("plan_regressions_total").inc()
        else:
            statements, modified, execution_h = self._metrics.bind(
                _DML_INSTRUMENTS
            )
            statements.inc()
            modified.inc(rows)
            execution_h.observe(execution_ms)
            # the log names a SELECT by its plan, a DML statement by its text
            fingerprint = statement_fp = statement_fingerprint(sql)
        self._latency.observe(statement_fp, planning_ms + execution_ms)
        est_rows = float(rows) if plan is None else plan.est_rows
        self._query_log.record(
            QueryLogRecord(
                sql=sql,
                fingerprint=fingerprint,
                est_rows=est_rows,
                actual_rows=rows,
                q_error=q_error(est_rows, float(rows)),
                est_cost=est_cost,
                actual_reads=io.reads,
                actual_writes=io.writes,
                planning_ms=planning_ms,
                execution_ms=execution_ms,
                spills=spills,
                temp_files=temp_files,
                plan_changed=change is not None,
                baseline_cost_delta=0.0 if change is None else change.cost_delta,
                buffer_hits=buffer_hits,
                plan_cache_hit=st.plan_cache_hit,
                kind=st.kind,
                session_id=st.session.id,
                txn_id=st.txn.id if st.txn is not None else 0,
            )
        )
        if select and self.auto_explain.config.enabled:
            # capture user statements that crossed the auto_explain threshold
            captured = self.auto_explain.maybe_capture(
                sql=sql,
                execution_ms=execution_ms,
                planning_ms=planning_ms,
                rows=rows,
                plan_text=plan.pretty(actuals=True),
                reads=io.reads,
                writes=io.writes,
                search_summary=search.render(top=3) if search else None,
            )
            if captured is not None:
                self._metrics.counter("slow_queries_captured_total").inc()

    def metrics_snapshot(self, format: str = "json") -> Any:
        """Process-wide observability snapshot: registry instruments plus
        the storage layer's cumulative counters.

        ``format="json"`` (default) returns nested plain dicts;
        ``format="prom"`` returns Prometheus text exposition (the storage
        counters render as gauges alongside the registry instruments).
        """
        if format not in ("json", "prom"):
            raise EngineError(f"unknown metrics format {format!r}")
        bstats, dstats, versions = self.pool.stats, self.disk.stats, self.txn.versions
        # the one list of storage counters: nested as it is for JSON,
        # flattened to ``section_name`` gauges for Prometheus
        storage = {
            "buffer_pool": {
                "hits": bstats.hits,
                "misses": bstats.misses,
                "evictions": bstats.evictions,
                "dirty_writebacks": bstats.dirty_writebacks,
                "hit_rate": bstats.hit_rate,
            },
            "disk": {
                "reads": dstats.reads,
                "writes": dstats.writes,
                "seq_reads": dstats.seq_reads,
                "allocations": dstats.allocations,
            },
            "mvcc": {
                "last_commit_ts": versions.last_commit_ts,
                "active_snapshots": versions.active_snapshots(),
                "live_versions": versions.live_versions(),
                "versions_recorded": versions.versions_recorded,
                "versions_pruned": versions.versions_pruned,
                "snapshots_taken": versions.snapshots_taken,
            },
        }
        if format == "prom":
            extras = {
                f"{section}_{name}": float(value)
                for section, counters in storage.items()
                for name, value in counters.items()
            }
            extras.update(
                query_log_entries=float(len(self.query_log)),
                feedback_entries=float(len(self.feedback)),
                plan_baselines=float(len(self.baselines)),
                wait_events_total=float(len(self.waits)),
                slow_query_captures=float(self.auto_explain.captured_total),
                statement_latency_fingerprints=float(len(self.latency)),
                slow_traces_captured=float(self.traces.captured),
            )
            # one pair of series per wait event, dots flattened for the
            # exposition grammar (io.read -> wait_io_read_*)
            for event, count, total_ms, _ in self.waits.rows():
                flat = event.replace(".", "_")
                extras[f"wait_{flat}_count"] = float(count)
                extras[f"wait_{flat}_seconds"] = total_ms / 1000.0
            # per-fingerprint latency quantiles as one labeled family;
            # sorted label bodies keep the exposition byte-stable
            labeled = []
            quantiles = self.latency.quantiles()
            if quantiles:
                labeled.append(
                    (
                        "statement_latency_ms",
                        "gauge",
                        [
                            (
                                f'fingerprint="{fp}",quantile="{q}"',
                                value,
                            )
                            for fp, q, value in quantiles
                        ],
                    )
                )
            return self.metrics.render_prometheus(
                extras=extras, labeled=labeled
            )
        snap: Dict[str, Any] = self.metrics.snapshot()
        snap.update(storage)
        # JSON only: None while no snapshot is open
        snap["mvcc"]["oldest_snapshot_ts"] = versions.oldest_snapshot_ts()
        snap["query_log_entries"] = len(self.query_log)
        snap["waits"] = self.waits.as_dict()
        snap["auto_explain"] = {
            "enabled": self.auto_explain.enabled,
            "captured_total": self.auto_explain.captured_total,
            "entries": len(self.auto_explain),
        }
        snap["traces"] = {
            "captured_total": self.traces.captured,
            "entries": len(self.traces.entries()),
            "last_trace_id": (
                self.last_request_trace.trace_id
                if self.last_request_trace is not None
                else None
            ),
        }
        snap["statement_latency"] = self.latency.snapshot()
        return snap

    def _insert(self, stmt: InsertStmt) -> int:
        info = self.catalog.table(stmt.table)
        names = [column.name for column in info.schema]
        columns = names if stmt.columns is None else stmt.columns
        if len(set(columns)) != len(columns):
            duplicated = sorted({c for c in columns if columns.count(c) > 1})
            raise EngineError(f"INSERT names a column twice: {duplicated}")
        unknown = sorted(set(columns) - set(names))
        if unknown:
            raise EngineError(f"unknown INSERT columns: {unknown}")
        #: schema position -> position in the statement's value lists
        source = [
            columns.index(name) if name in columns else None for name in names
        ]
        # every row is shaped before the first is stored
        rows = []
        for value_row in stmt.rows:
            if len(value_row) != len(columns):
                raise EngineError(
                    f"INSERT has {len(columns)} columns "
                    f"but {len(value_row)} values"
                )
            literals: List[Any] = []
            for expr in value_row:
                folded = fold_constants(expr)
                if not isinstance(folded, Literal):
                    raise EngineError(
                        f"INSERT values must be constants, got {expr}"
                    )
                literals.append(folded.value)
            rows.append(
                tuple(None if i is None else literals[i] for i in source)
            )
        return self.catalog.insert_rows(stmt.table, rows)

    def _victims(
        self, info: TableInfo, where
    ) -> Tuple[List[Tuple[Any, Any]], PhysicalPlan, bool]:
        """The (rid, row) pairs an UPDATE/DELETE touches, the scan that
        found them, and whether that scan came out of the plan cache: the
        cheapest access path the optimizer prices for *where* — the
        estimator and cost model a SELECT is planned with, and the same
        cache, keyed by table and WHERE shape — run against the current
        heap (the caller holds the table's exclusive lock; its own
        uncommitted rows are visible).  Never index-only: the old row is
        needed for undo and index maintenance.  Every fetched row is
        re-checked against the whole WHERE, and the list is complete
        before the first mutation, so an UPDATE that moves the key of the
        index being scanned visits each row once.  The candidates are
        priced without the vectorized-CPU discount: ``live_rows`` walks
        tuples with a scalar predicate whichever engine runs queries, so a
        SELECT and an UPDATE with one WHERE may pick different paths."""
        from ..expr import compile_predicate, split_conjuncts

        # compiled first: a mistyped WHERE fails before anything is priced
        predicate = (
            compile_predicate(where, info.schema)
            if where is not None
            else None
        )

        def plan_cold(where) -> PhysicalPlan:
            candidates = access_paths(
                info,
                info.name,
                split_conjuncts(where),
                relation_estimator(
                    info,
                    info.name,
                    self.options.estimator,
                    self.feedback if self.options.use_feedback else None,
                ),
                self.model.undiscounted(),
                consider_unbounded_index=False,
            )
            return min(candidates, key=lambda cand: cand.cost.total).plan

        lifted = None
        if self.plan_cache.size and not self.options.use_feedback:
            lifted = lift_where(info.name, where)
        if lifted is not None:
            plan, _, hit = self._cached_plan(
                lifted, lambda: plan_cold(lifted.stmt)
            )
        else:
            plan, hit = plan_cold(where), False
        return list(live_rows(plan, predicate)), plan, hit

    def _delete(self, stmt: DeleteStmt) -> Tuple[int, PhysicalPlan, bool]:
        info = self.catalog.table(stmt.table)
        victims, path, hit = self._victims(info, stmt.where)
        for rid, row in victims:
            info.delete(rid, row)
        return len(victims), path, hit

    def _update(self, stmt: UpdateStmt) -> Tuple[int, PhysicalPlan, bool]:
        from ..expr import compile_expr

        info = self.catalog.table(stmt.table)
        schema = info.schema
        positions = []
        setters = []
        for column, expr in stmt.assignments:
            positions.append(schema.index_of(column))
            setters.append(compile_expr(expr, schema))
        victims, path, hit = self._victims(info, stmt.where)
        for rid, row in victims:
            new_row = list(row)
            for pos, setter in zip(positions, setters):
                new_row[pos] = setter(row)
            info.update(rid, row, new_row)
        return len(victims), path, hit

    # -- durability ---------------------------------------------------------------------------

    def checkpoint(self) -> QueryResult:
        """Fuzzy checkpoint: snapshot the page store and trim the WAL
        without quiescing writers.

        No table locks are taken — transactions stay open across the
        checkpoint.  Under the statement lock (so no heap mutation
        interleaves; COMMITs still proceed, they only touch the WAL):

        1. log a ``CHECKPOINT_BEGIN`` record carrying the active-
           transaction table and the dirty-page table (page -> recLSN);
        2. write back every *committed*-dirty page — pages dirtied by an
           active transaction are skipped (no-steal: uncommitted bytes
           never reach disk), so their on-disk snapshot images are stale;
        3. ``redo_lsn`` = the minimum recLSN over pages still dirty — no
           record below it is needed to rebuild any page, every record at
           or above it is replayed idempotently on recovery;
        4. snapshot the page store, stamp ``redo_lsn`` into the meta,
           drop WAL records below ``redo_lsn``, and log ``CHECKPOINT_END``.

        Recovery redoes committed work from ``redo_lsn`` against the
        (partly stale, partly ahead) snapshot images; replay is
        idempotent, so images that already contain a suffix record
        converge instead of corrupting.
        """
        if self.data_dir is None:
            raise EngineError(
                "CHECKPOINT requires a database opened with data_dir"
            )
        writer = self.txn.writer
        with self._stmt_lock:
            att = self.txn.active_txn_ids()
            dpt = self.txn.dirty_page_table()
            payload = json.dumps(
                {
                    "active_txns": att,
                    "dirty_pages": {
                        f"{pid[0]}:{pid[1]}": rec for pid, rec in dpt.items()
                    },
                }
            ).encode("utf-8")
            with trace_span("checkpoint.begin") as sp:
                sp.add("active_txns", float(len(att)))
                action = faults.FAILPOINTS.hit("checkpoint.begin")
                begin_lsn = writer.append(
                    WalRecordType.CHECKPOINT_BEGIN, 0, payload=payload
                )
                writer.flush_to(begin_lsn)
                if action is not None:
                    faults.crash()
            flushed = 0
            with trace_span("checkpoint.flush") as sp:
                for pid in self.pool.dirty_pages():
                    if not self.txn.may_evict(pid):
                        continue  # no-steal: an active txn owns this page
                    action = faults.FAILPOINTS.hit("checkpoint.flush")
                    if self.pool.flush_page(pid):
                        flushed += 1
                    if action is not None:
                        faults.crash()
                writer.flush_all()
                sp.add("pages_flushed", float(flushed))
            last = writer.flushed_lsn
            rec = self.txn.min_rec_lsn()
            redo_lsn = rec if rec is not None else last + 1
            with trace_span("checkpoint.end") as sp:
                sp.add("redo_lsn", float(redo_lsn))
                write_checkpoint(
                    self,
                    self.data_dir,
                    last,
                    self.txn.next_txn_id,
                    redo_lsn=redo_lsn,
                    active_txns=att,
                )
                writer.retain_from(redo_lsn)
                action = faults.FAILPOINTS.hit("checkpoint.end")
                lsn = writer.append(
                    WalRecordType.CHECKPOINT_END,
                    0,
                    payload=json.dumps(
                        {"redo_lsn": redo_lsn, "last_lsn": last}
                    ).encode("utf-8"),
                )
                writer.flush_to(lsn)
                if action is not None:
                    faults.crash()
            if self.obs.enabled:
                self._metrics.counter("checkpoints_total").inc()
                self._metrics.counter("checkpoint_pages_flushed_total").inc(
                    flushed
                )
        return QueryResult(
            rows=[(last, redo_lsn, len(att))],
            columns=["checkpoint_lsn", "redo_lsn", "active_txns"],
        )

    def close(self) -> None:
        """Shut down cleanly: roll back open transactions, checkpoint
        (durable databases reopen from the snapshot with an empty WAL),
        and close the WAL file."""
        if self._closed:
            return
        self._closed = True
        for session in self.sessions():
            if session.txn is not None:
                self.rollback_session_txn(session)
        if self.data_dir is not None and self.txn.writer is not None:
            self.checkpoint()
            self.txn.writer.close()
            self.txn.writer = None

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- convenience --------------------------------------------------------------------------

    def insert_rows(
        self,
        table: str,
        rows: Sequence[Sequence[Any]],
        session: Optional[Session] = None,
    ) -> int:
        """Bulk insert under the session's transaction (or an implicit
        autocommitted one) — the programmatic twin of INSERT."""
        return self._write(
            StatementContext(session or self._session),
            [table],
            lambda: self.catalog.insert_rows(table, rows),
        )

    def analyze(self, table: Optional[str] = None, **kwargs: Any) -> None:
        """The programmatic twin of ANALYZE (*kwargs*: the histogram
        settings of :meth:`Catalog.analyze`)."""
        sql = f"ANALYZE {table}" if table is not None else "ANALYZE"
        self._utility(
            StatementContext(self._session, sql=sql), AnalyzeStmt(table), **kwargs
        )

    def table(self, name: str) -> TableInfo:
        return self.catalog.table(name)

    def reset_io(self) -> None:
        self.disk.reset_stats()
        self.pool.reset_stats()

    def set_strategy(self, strategy: str, **kwargs: Any) -> None:
        """Switch join-order strategy ('dp', 'greedy', 'naive', ...)."""
        self._invalidate_caches("options change")
        self.options = PlannerOptions(strategy=strategy, **kwargs)
