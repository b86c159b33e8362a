"""repro — Evaluation and Optimization (VLDB 1977).

A complete reproduction of foundational-era cost-based query evaluation and
optimization: a relational engine (storage, buffer pool, B+-tree indexes,
SQL front-end, Volcano executor, WAL, socket server) whose planner
implements the classic cost model, selectivity estimation, access-path
selection, and System-R dynamic-programming join enumeration with
interesting orders.  Beside the engine, and outside what a server
imports, sits the laboratory that regenerates the evaluation:
the baseline planners (``repro.optimizer.baselines``), the paper harness
(``repro.bench``), the workload generators (``repro.workloads``) and the
QA kit (``repro.qa``).

Quickstart::

    from repro import Database

    db = Database()
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v FLOAT)")
    db.execute("INSERT INTO t VALUES (1, 2.5), (2, 7.5)")
    db.execute("ANALYZE t")
    print(db.query("SELECT v FROM t WHERE id = 2").rows)
"""

from .engine import Database, EngineError, QueryResult, Session
from .obs import InstrumentLevel, MetricsRegistry, ObsConfig, QueryLog, Span, Tracer
from .optimizer import Cost, CostModel, Planner, PlannerOptions
from .types import DataType

__version__ = "1.0.0"

__all__ = [
    "Database",
    "EngineError",
    "QueryResult",
    "Session",
    "Cost",
    "CostModel",
    "Planner",
    "PlannerOptions",
    "DataType",
    "InstrumentLevel",
    "MetricsRegistry",
    "ObsConfig",
    "QueryLog",
    "Span",
    "Tracer",
    "__version__",
]
