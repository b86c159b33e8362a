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

A dispatcher: it wires catalog, optimizer, executor, transaction
manager, WAL and observability together, and keeps sessions, the public
entry points, request traces, the harvest and ``close``.  The work is
done where it is owned: the statement path in :mod:`.statement`,
preprocessing in :mod:`.preprocess`, the fuzzy checkpoint in
:mod:`repro.wal.checkpoint` and the metrics export in
:mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..algebra import build_plan
from ..catalog import Catalog, TableInfo
from ..executor import ExecContext, run
from ..obs import (
    ActivityRegistry,
    AutoExplain,
    FeedbackStore,
    InstrumentLevel,
    MetricsRegistry,
    ObsConfig,
    QueryLog,
    RequestTrace,
    SearchTrace,
    Span,
    StatementStore,
    Tracer,
    WaitEventStats,
    export_chrome_trace,
    register_system_tables,
    trace_span,
)
from ..obs.metrics import metrics_snapshot
from ..optimizer import CostModel, Planner, PlannerOptions, PlannerStats
from ..physical import PhysicalPlan
from ..sql import AnalyzeStmt, CommitStmt, ExplainStmt, RollbackStmt, SelectStmt, parse
from ..wal import RecoveryReport, Transaction, TxnManager, fuzzy_checkpoint, open_wal, recover
from .cache import PlanCache
from .preprocess import preprocess
from .session import Session
from .statement import (
    EngineError,
    QueryResult,
    StatementContext,
    run_statement,
    scoped,
    utility,
    write,
)
from .views import ViewDef
from ..storage import BufferPool, DiskManager


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


class Database:
    """An in-process relational database with a cost-based optimizer."""

    #: queued recorder entries at which the enqueuer harvests inline
    PENDING_BOUND = 64
    #: what a closed database answers every statement with
    CLOSED = "the database is closed"

    metrics, query_log, statements = _Harvested(), _Harvested(), _Harvested()
    feedback, auto_explain, last_request_trace = (
        _Harvested(), _Harvested(), _Harvested()
    )

    def __init__(
        self,
        buffer_pages: int = 256,
        work_mem_pages: int = 32,
        page_size: int = 4096,
        options: Optional[PlannerOptions] = None,
        obs: Optional[ObsConfig] = None,
        batch_size: int = ExecContext.DEFAULT_BATCH_SIZE,
        columnar: bool = True,
        data_dir: Optional[str] = None,
    ):
        if batch_size < 1:
            raise ValueError("batch size must be at least 1 row")
        self.disk = DiskManager(page_size)
        self.pool = BufferPool(self.disk, buffer_pages)
        self.catalog = Catalog(self.pool)
        #: transaction manager: lifecycle, rollback, table locks; doubles
        #: as the WAL hook target (writer attached below when durable)
        self.txn = TxnManager()
        self.catalog.txn = self.txn
        self.txn.pool = self.pool
        #: the snapshot of the statement currently inside ``_stmt_lock``;
        #: nested internal selects (view materialization, subqueries)
        #: inherit it so one statement reads one consistent view
        self._active_snapshot = None
        self.work_mem_pages = work_mem_pages
        self.batch_size = batch_size
        #: run queries through the columnar batch engine (ColumnBatch
        #: flow, vectorized kernels) and price plans for it; False is the
        #: paper's tuple-at-a-time engine
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
        #: the most recent request's full trace (id + span tree), kept
        #: regardless of duration; ``last_trace`` is its tree and
        #: ``last_trace_export()`` renders it
        self._last_request_trace: Optional[RequestTrace] = None
        #: slow-request capture (``auto_explain``-style): the one ring of
        #: requests at or above its threshold, with their span trees and
        #: a SELECT's plan; serves ``sys_stat_traces`` and ``\slow``
        self._auto_explain = AutoExplain(self.obs.auto_explain)
        #: one entry per normalized statement: calls, execution-time
        #: histogram, row and page sums, a SELECT's plan baseline; serves
        #: ``sys_stat_statements``, ``statement_latency_ms`` and
        #: ``EXPLAIN DIFF``
        self._statements = StatementStore()
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
        #: inter-query cache: physical plans keyed by the statement shape
        #: the parser yields; see ``engine.cache``
        self.plan_cache = PlanCache()
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
        #: why the engine refuses statements: None while it serves;
        #: ``CLOSED`` after ``close``, or what failed when a rollback
        #: raised (fail-stop)
        self._refusal: Optional[str] = None
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
        # rollback rewrites heaps and indexes, so it runs as a statement
        # (lock ordering is safe: a statement-lock holder never waits on
        # table locks — those are always acquired first)
        with trace_span("txn.rollback") as sp:
            sp.add("txn_id", float(txn.id))
            with self._stmt_lock:
                try:
                    self.txn.rollback(txn, self.catalog)
                except Exception as exc:
                    # fail-stop: the transaction stays active with its
                    # table locks and its owned frames, because
                    # releasing the frames would let its uncommitted bytes
                    # reach the disk, and redo-only recovery cannot take
                    # them back.  The disk never saw them, so a reopen
                    # recovers the committed state.
                    self._refusal = (
                        f"the engine has stopped: the rollback of "
                        f"transaction {txn.id} failed "
                        f"({type(exc).__name__}: {exc}); reopen the database"
                    )
                    raise EngineError(self._refusal) from exc

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
            session.txn = self.txn.begin()
        return QueryResult(rows=[], columns=[])

    # -- the public entry points: every statement takes engine/statement.py's path -----

    def execute(
        self, sql: str, session: Optional[Session] = None
    ) -> QueryResult:
        """Parse and run one statement of any kind."""
        return run_statement(self, sql, session)

    def query(self, sql: str, session: Optional[Session] = None) -> QueryResult:
        """Run a SELECT and return rows + metrics."""
        return run_statement(self, sql, session, select_only=True)

    def plan_select(
        self, stmt: SelectStmt, collect_search: Optional[bool] = None
    ) -> Tuple[PhysicalPlan, PlannerStats]:
        """Plan a SELECT.  Preprocessing (views, system tables,
        subqueries) materializes transient tables that the statement
        owning the planning drops when it finishes (its
        :func:`.statement.scoped`)."""
        with trace_span("plan"):
            stmt = preprocess(
                stmt, self.catalog, self.views, self._live_transients,
                lambda select: run_statement(self, select),
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

    def plan(self, sql: str) -> PhysicalPlan:
        stmt = parse(sql)
        if isinstance(stmt, ExplainStmt):
            stmt = stmt.inner
        if not isinstance(stmt, SelectStmt):
            raise EngineError("plan() expects a SELECT")
        return scoped(self, StatementContext(self._session), self.plan_select, stmt)[0]

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
                if analyze or self._auto_explain.enabled
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

    @property
    def last_trace(self) -> Optional[Span]:
        """The span tree of the most recent request: an embedded
        statement's ``query`` root, or a served request's ``request``."""
        trace = self.last_request_trace
        return None if trace is None else trace.root

    def capture_trace(self, tracer: Tracer, sql: str, session_id: int = 0) -> None:
        """Queue a finished tracer for :meth:`harvest_pending` to keep as
        a :class:`RequestTrace` (nothing is built on the reply path)."""
        if tracer.enabled and tracer.root is not None:
            self._pending.append((self._keep_trace, (tracer, sql, session_id)))
            if len(self._pending) >= self.PENDING_BOUND:
                self.harvest_pending()

    def _keep_trace(self, tracer: Tracer, sql: str, session_id: int) -> None:
        """Always remembered as ``last_request_trace``; the one place that
        decides whether a request was slow (its root span took at least
        auto_explain's ``threshold_ms``) and captures it, with what the
        recorder left of its statement — a SELECT's plan included."""
        trace = RequestTrace(
            tracer.trace_id, sql, tracer.root, session_id=session_id
        )
        self._last_request_trace = trace
        if tracer.statement is None:
            captured = self._auto_explain.maybe_capture(trace)
        else:
            st, rows, planning_ms, execution_ms, io, _, _, search = tracer.statement
            select = st.kind == "select"
            captured = self._auto_explain.maybe_capture(
                trace, execution_ms, planning_ms, rows, io.reads, io.writes,
                st.plan if select else None, search if select else None,
            )
        if captured is not None:
            self._metrics.counter("slow_queries_captured_total").inc()
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

    def metrics_snapshot(self, format: str = "json") -> Any:
        """:func:`repro.obs.metrics.metrics_snapshot`, *format* ``json`` or ``prom``."""
        if format not in ("json", "prom"):
            raise EngineError(f"unknown metrics format {format!r}")
        return metrics_snapshot(self, format)

    # -- durability ---------------------------------------------------------------------------

    def checkpoint(self) -> QueryResult:
        """Fuzzy checkpoint (:func:`repro.wal.checkpoint.fuzzy_checkpoint`):
        snapshot the page store and trim the WAL without quiescing
        writers, under the statement lock."""
        if self._refusal is not None or self.txn.writer is None:
            raise EngineError(
                self._refusal or "CHECKPOINT requires a database opened with data_dir"
            )
        with self._stmt_lock:
            last, redo_lsn, att, flushed = fuzzy_checkpoint(self)
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
        and close the WAL file.  An engine that has stopped (a rollback
        failed) only closes the WAL, and a reopen redoes the committed
        work since the last checkpoint.  Every later statement is
        refused."""
        if self._refusal is self.CLOSED:
            return
        try:
            if self._refusal is None:
                for session in self.sessions():
                    self.rollback_session_txn(session)
                if self.txn.writer is not None:
                    self.checkpoint()
                    # no transaction is left, so every page is on disk:
                    # the log goes, the checkpoint's END marker with it
                    self.txn.writer.retain_from(self.txn.writer.next_lsn)
        finally:
            self._refusal = self.CLOSED
            if self.txn.writer is not None:
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
        return write(
            self,
            StatementContext(session or self._session),
            [table],
            lambda: self.catalog.insert_rows(table, rows),
        )

    def analyze(self, table: Optional[str] = None, **kwargs: Any) -> None:
        """The programmatic twin of ANALYZE (*kwargs*: the histogram
        settings of :meth:`Catalog.analyze`)."""
        sql = f"ANALYZE {table}" if table is not None else "ANALYZE"
        utility(
            self, StatementContext(self._session, sql=sql), AnalyzeStmt(table), **kwargs
        )

    def table(self, name: str) -> TableInfo:
        return self.catalog.table(name)

    def set_strategy(self, strategy: str, **kwargs: Any) -> None:
        """Switch join-order strategy ('dp', 'greedy', 'naive', ...)."""
        self._invalidate_caches("options change")
        self.options = PlannerOptions(strategy=strategy, **kwargs)
