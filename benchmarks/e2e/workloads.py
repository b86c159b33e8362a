"""The four workloads: data sets, statement streams and result checks.

Shared by the load generator (``run.py``), the server process
(``server_main.py``) and the layers pass (``layers.py``), so the three
agree on what was loaded and what every reply must contain.

A *stream* is one closed-loop caller: ``run_one(execute)`` issues the
statements of one op through ``execute(sql) -> rows``, checks every reply
against the stream's own model of the data, and returns
``(kind, ok, rows)``.  Everything a stream does is drawn from
``random.Random(f"{seed}/{workload}/{stream_id}")``; the program under
test sees only the SQL text.  Streams that write own disjoint keys
(inserts) and a disjoint partition of the base keys (updates), so each
stream can verify its own reads exactly whatever the others do.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.workloads.wholesale import (
    WHOLESALE_QUERIES,
    WholesaleScale,
    load_wholesale,
)

Rows = List[Tuple[Any, ...]]
Execute = Callable[[str], Rows]
OpResult = Tuple[str, bool, int]

#: stream ids: 0 is the end-to-end pass's caller, 0..1 the layers run's
#: two-caller phase, the rest belong to the layers run's one-caller
#: phase and in-process replays; writers partition the base keys and the
#: ``t<i>`` tables by stream id
MAX_STREAMS = 8
CHECKPOINT_EVERY = 200
INSERTS_PER_TXN = 4


@dataclass(frozen=True)
class Scale:
    kv_rows: int
    wholesale: WholesaleScale


FULL = Scale(kv_rows=4000, wholesale=WholesaleScale.small())
SMOKE = Scale(kv_rows=500, wholesale=WholesaleScale.tiny())


def _rng(seed: int, workload: str, stream_id: Any) -> random.Random:
    return random.Random(f"{seed}/{workload}/{stream_id}")


def shape(sql: str) -> str:
    """Statements that differ only in their numbers share a shape."""
    return re.sub(r"\d+", "", sql)[:32]


class Stream:
    """What every workload's stream shares.  *mix* names the random
    sequence; it defaults to the stream id, and the layers pass gives
    its replays one common mix so they issue the same statements (each
    still on its own keys)."""

    tables: Tuple[str, ...] = ()
    #: the end-to-end pass ends with SIGKILL under load and a restart
    crash = False

    def __init__(self, seed: int, stream_id: int, scale: Scale, mix: Any = None):
        self.sid = stream_id
        self.rng = _rng(seed, self.name, stream_id if mix is None else mix)

    def prepare(self, execute: Execute) -> bool:
        """Anything the stream must read before its first op."""
        return True


# -- kv: point_read and mixed_oltp ----------------------------------------------


def kv_values(seed: int, n: int) -> List[int]:
    rng = _rng(seed, "kv", "values")
    return [rng.randrange(1_000_000) for _ in range(n)]


def setup_kv(db, seed: int, scale: Scale) -> None:
    rng = _rng(seed, "kv", "pad")
    db.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT, pad TEXT)")
    db.insert_rows(
        "kv",
        [
            (k, v, "p" * rng.randrange(20, 60))
            for k, v in enumerate(kv_values(seed, scale.kv_rows))
        ],
    )
    db.analyze()


class PointRead(Stream):
    """Uniform point SELECTs; nearly every statement text is distinct."""

    name = "point_read"
    tables = ("kv",)
    probe_table, probe_column = "kv", "k"
    scan_query = "SELECT COUNT(*) AS n, SUM(v) AS s FROM kv"
    setup = staticmethod(setup_kv)

    def __init__(self, seed: int, stream_id: int, scale: Scale, mix: Any = None):
        super().__init__(seed, stream_id, scale, mix)
        self.values = kv_values(seed, scale.kv_rows)

    def run_one(self, execute: Execute) -> OpResult:
        k = self.rng.randrange(len(self.values))
        rows = execute(f"SELECT v FROM kv WHERE k = {k}")
        return "select", rows == [(self.values[k],)], 1

    def final_check(self, execute: Execute, streams: Sequence[Any]) -> bool:
        return execute("SELECT COUNT(*) FROM kv") == [(len(self.values),)]


class MixedOltp(Stream):
    """70 % point SELECT, 10 % 50-row range SELECT, 8 % INSERT, 4 % UPDATE
    by PK, 8 % DELETE of the stream's own oldest inserted key."""

    name = "mixed_oltp"
    tables = ("kv",)
    probe_table, probe_column = "kv", "k"
    scan_query = PointRead.scan_query
    setup = staticmethod(setup_kv)
    RANGE = 50
    BLOCK = {"select": 35, "range": 5, "insert": 4, "update": 2, "delete": 4}

    def __init__(self, seed: int, stream_id: int, scale: Scale, mix: Any = None):
        super().__init__(seed, stream_id, scale, mix)
        self.values = kv_values(seed, scale.kv_rows)
        #: this stream's writes: base keys it updated, own keys it inserted
        self.updated: Dict[int, int] = {}
        self.live: List[Tuple[int, int]] = []  # (key, v), oldest first
        self.last_deleted: Optional[int] = None
        self.next_key = (stream_id + 1) * 10_000_000
        self.inserted = self.deleted = 0
        self.block: List[str] = []

    def _check_base(self, k: int, v: Any) -> bool:
        if k % MAX_STREAMS == self.sid:
            return v == self.updated.get(k, self.values[k])
        return isinstance(v, int)

    def run_one(self, execute: Execute) -> OpResult:
        if not self.block:
            # the mix holds exactly in every block of 50 ops, in shuffled
            # order: drawing each op's kind independently would let the
            # share of 12 ms writes in a slice wander by a tenth
            self.block = [k for k, n in self.BLOCK.items() for _ in range(n)]
            self.rng.shuffle(self.block)
        kind = self.block.pop()
        if kind == "delete" and not self.live:
            kind = "insert"  # nothing of its own to delete yet
        return getattr(self, "_" + kind)(execute)

    def _select(self, execute: Execute) -> OpResult:
        rng = self.rng
        own = rng.random() < 0.10
        if own and self.live and rng.random() < 0.5:
            k, v = self.live[-1]
            ok = execute(f"SELECT v FROM kv WHERE k = {k}") == [(v,)]
        elif own and self.last_deleted is not None:
            k = self.last_deleted
            ok = execute(f"SELECT v FROM kv WHERE k = {k}") == []
        else:
            k = rng.randrange(len(self.values))
            rows = execute(f"SELECT v FROM kv WHERE k = {k}")
            ok = len(rows) == 1 and self._check_base(k, rows[0][0])
        return "select", ok, 1

    def _range(self, execute: Execute) -> OpResult:
        a = self.rng.randrange(len(self.values) - self.RANGE + 1)
        rows = execute(
            f"SELECT k, v FROM kv WHERE k BETWEEN {a} AND {a + self.RANGE - 1}"
        )
        ok = sorted(row[0] for row in rows) == list(
            range(a, a + self.RANGE)
        ) and all(self._check_base(k, v) for k, v in rows)
        return "range", ok, len(rows)

    def _insert(self, execute: Execute) -> OpResult:
        k, v = self.next_key, self.rng.randrange(1_000_000)
        self.next_key += 1
        rows = execute(f"INSERT INTO kv VALUES ({k}, {v}, 'own')")
        self.inserted += 1
        self.live.append((k, v))
        return "insert", rows == [], 1

    def _update(self, execute: Execute) -> OpResult:
        slots = len(self.values) // MAX_STREAMS
        k = self.rng.randrange(slots) * MAX_STREAMS + self.sid
        v = self.rng.randrange(1_000_000)
        rows = execute(f"UPDATE kv SET v = {v} WHERE k = {k}")
        self.updated[k] = v
        return "update", rows == [(1,)], 1

    def _delete(self, execute: Execute) -> OpResult:
        k, _ = self.live[0]
        rows = execute(f"DELETE FROM kv WHERE k = {k}")
        self.deleted += 1
        self.live.pop(0)
        self.last_deleted = k
        return "delete", rows == [(1,)], 1

    def final_check(self, execute: Execute, streams: Sequence[Any]) -> bool:
        """Callers of this workload are stopped between ops, never killed
        under one, so every write sent was acknowledged."""
        net = sum(s.inserted - s.deleted for s in streams)
        return execute("SELECT COUNT(*) FROM kv") == [(len(self.values) + net,)]


# -- txn_commit -------------------------------------------------------------------


def setup_txn(db, seed: int, scale: Scale) -> None:
    for i in range(MAX_STREAMS):
        db.execute(
            f"CREATE TABLE t{i} (id INT PRIMARY KEY, grp INT, "
            "amount FLOAT, note TEXT)"
        )
        db.execute(f"CREATE INDEX ix_t{i}_grp ON t{i} (grp)")
    db.analyze()


class TxnCommit(Stream):
    """One op = BEGIN, four INSERTs, COMMIT on the stream's own table;
    stream 0 issues CHECKPOINT every 200 of its commits (an op of kind
    ``checkpoint``, which the metrics leave out)."""

    name = "txn_commit"
    crash = True
    tables = tuple(f"t{i}" for i in range(MAX_STREAMS))
    probe_table, probe_column = "t0", "id"
    setup = staticmethod(setup_txn)

    def __init__(self, seed: int, stream_id: int, scale: Scale, mix: Any = None):
        super().__init__(seed, stream_id, scale, mix)
        self.table = self.probe_table = f"t{stream_id}"  # this stream's own
        self.scan_query = (
            f"SELECT grp, COUNT(*) AS n, SUM(amount) AS s FROM {self.table} "
            "GROUP BY grp"
        )
        self.commits = 0
        self.next_id = 0
        self.checkpoint_due = False

    def run_one(self, execute: Execute) -> OpResult:
        if self.checkpoint_due:
            self.checkpoint_due = False
            return "checkpoint", len(execute("CHECKPOINT")) == 1, 0
        rng = self.rng
        ok = execute("BEGIN") == []
        for _ in range(INSERTS_PER_TXN):
            ok &= execute(
                f"INSERT INTO {self.table} VALUES ({self.next_id}, "
                f"{rng.randrange(100)}, {rng.random() * 1000.0!r}, "
                f"'n{rng.randrange(10**6)}')"
            ) == []
            self.next_id += 1
        ok &= execute("COMMIT") == []
        self.commits += 1
        if self.sid == 0 and self.commits % CHECKPOINT_EVERY == 0:
            self.checkpoint_due = True
        return "txn", ok, INSERTS_PER_TXN

    def final_check(self, execute: Execute, streams: Sequence[Any]) -> bool:
        """Every acknowledged transaction is present, whole, and nothing
        else is: the transaction on the wire at the kill may be either."""
        ok = True
        for s in streams:
            ((count, lo, hi),) = execute(
                f"SELECT COUNT(*), MIN(id), MAX(id) FROM {s.table}"
            )
            acked = INSERTS_PER_TXN * s.commits
            ok &= count in (acked, acked + INSERTS_PER_TXN)
            ok &= count == 0 or (lo == 0 and hi == count - 1)
        return ok


# -- analytic ------------------------------------------------------------------------

WHOLESALE_TABLES = (
    "region", "nation", "customer", "supplier", "orders", "lineitem",
)
#: base tables each query reads (``rows_per_s`` sums their cardinalities)
QUERY_TABLES = {
    "Q1_status_rollup": ("orders",),
    "Q2_region_revenue": ("orders", "customer", "nation", "region"),
    "Q3_top_customers": ("orders", "customer"),
    "Q4_line_revenue": ("lineitem", "supplier"),
    "Q5_big_orders_by_segment": ("orders", "customer"),
    "Q6_five_way": ("lineitem", "orders", "customer", "nation", "region"),
    "Q7_selective_point": ("orders", "lineitem"),
    "Q8_priority_scan": ("orders",),
}


def setup_analytic(db, seed: int, scale: Scale) -> None:
    """The data set is the library's default one whatever the seed, which
    only shuffles the queries: another data seed moves single queries by
    half (Q4 takes 34 to 77 ms as the share of suppliers it keeps
    changes), and a run is compared with runs of other seeds."""
    load_wholesale(db, scale.wholesale)


def wholesale_oracle(t: Dict[str, Rows]) -> Dict[str, Rows]:
    """The eight answers computed with dicts and loops from the raw
    tables — no planner, no operators, none of the engine's joins or
    aggregates — so a wrong plan or a wrong operator cannot agree with it."""
    region = {r[0]: r[1] for r in t["region"]}
    nation_region = {n[0]: region[n[1]] for n in t["nation"]}
    cust = {c[0]: c for c in t["customer"]}  # id, nation_id, segment, name, balance
    supp = {s[0]: s for s in t["supplier"]}  # id, nation_id, name, rating
    orders = {o[0]: o for o in t["orders"]}  # id, cust_id, status, total, priority

    def group(pairs) -> Dict[Any, List[float]]:
        out: Dict[Any, List[float]] = {}
        for key, value in pairs:
            out.setdefault(key, []).append(value)
        return out

    def top(sums: Dict[Any, List[float]], limit: int) -> Rows:
        rows = [(k, math.fsum(v)) for k, v in sums.items()]
        return sorted(rows, key=lambda r: -r[1])[:limit]

    live = [o for o in orders.values() if o[1] in cust]
    q1 = group((o[2], o[3]) for o in orders.values())
    q8 = group((o[4], o[3]) for o in orders.values() if o[2] != "open")
    q6 = group(
        (nation_region[cust[orders[l[1]][1]][1]], 1)
        for l in t["lineitem"]
        if l[1] in orders
        and orders[l[1]][2] == "returned"
        and orders[l[1]][1] in cust
    )
    return {
        "Q1_status_rollup": [
            (k, len(v), math.fsum(v)) for k, v in q1.items()
        ],
        "Q2_region_revenue": top(
            group((nation_region[cust[o[1]][1]], o[3]) for o in live), len(region)
        ),
        "Q3_top_customers": top(
            group((cust[o[1]][3], o[3]) for o in live if o[2] == "delivered"), 10
        ),
        "Q4_line_revenue": top(
            group(
                (supp[l[2]][2], l[4] * l[3] * (1 - l[5]))
                for l in t["lineitem"]
                if l[2] in supp and supp[l[2]][3] >= 4
            ),
            5,
        ),
        "Q5_big_orders_by_segment": [
            (k, len(v))
            for k, v in group(
                (cust[o[1]][2], 1) for o in live if o[3] > 4500
            ).items()
        ],
        "Q6_five_way": [(k, len(v)) for k, v in q6.items()],
        "Q7_selective_point": [
            (17, orders[17][3]) for l in t["lineitem"] if l[1] == 17
        ],
        "Q8_priority_scan": [
            (k, math.fsum(v) / len(v)) for k, v in q8.items()
        ],
    }


def rows_match(got: Rows, want: Rows) -> bool:
    """Multiset equality with floats compared to 1e-9 relative: the
    engine and the oracle sum in different orders."""

    def key(row):
        return tuple(repr(v) for v in row if not isinstance(v, float))

    if len(got) != len(want):
        return False
    for a, b in zip(sorted(got, key=key), sorted(want, key=key)):
        for x, y in zip(a, b):
            if isinstance(x, float) or isinstance(y, float):
                if not math.isclose(x, y, rel_tol=1e-9):
                    return False
            elif x != y:
                return False
    return True


class Analytic(Stream):
    """Rounds of the eight wholesale queries in seeded shuffled order;
    one op = one query, its kind the query's name."""

    name = "analytic"
    tables = WHOLESALE_TABLES
    probe_table, probe_column = "orders", "id"
    scan_query = WHOLESALE_QUERIES["Q1_status_rollup"]
    setup = staticmethod(setup_analytic)
    round_size = len(WHOLESALE_QUERIES)

    def __init__(self, seed: int, stream_id: int, scale: Scale, mix: Any = None):
        super().__init__(seed, stream_id, scale, mix)
        self.pending: List[str] = []
        self.expected: Dict[str, Rows] = {}
        self.first: Dict[str, Rows] = {}
        self.cardinality: Dict[str, int] = {}

    def prepare(self, execute: Execute) -> bool:
        """Read the base tables with plain scans and compute the oracle."""
        tables = {name: execute(f"SELECT * FROM {name}") for name in self.tables}
        self.expected = wholesale_oracle(tables)
        self.cardinality = {
            q: sum(len(tables[name]) for name in names)
            for q, names in QUERY_TABLES.items()
        }
        return all(tables.values())

    def run_one(self, execute: Execute) -> OpResult:
        if not self.pending:
            self.pending = list(WHOLESALE_QUERIES)
            self.rng.shuffle(self.pending)
        name = self.pending.pop()
        rows = execute(WHOLESALE_QUERIES[name])
        if name in self.first:
            ok = rows == self.first[name]  # identical across rounds
        else:
            self.first[name] = rows
            ok = rows_match(rows, self.expected[name])
        return name, ok, self.cardinality[name]

    def final_check(self, execute: Execute, streams: Sequence[Any]) -> bool:
        return all(
            rows_match(execute(WHOLESALE_QUERIES[q]), self.expected[q])
            for q in WHOLESALE_QUERIES
        )


WORKLOADS = {w.name: w for w in (PointRead, MixedOltp, TxnCommit, Analytic)}
