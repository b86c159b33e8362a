"""UPDATE/DELETE find their rows through access-path selection — and
must change exactly the rows a heap walk with the same WHERE would.

One table is built five ways (no index, a secondary index, the same
declared ``USING hash`` — a spelling old WALs carry, a B+-tree like any
other — composite, clustered + secondary).  For every layout ×
predicate × statement shape the engine is compared with a plain Python
list: the affected count and the resulting table equal the model's, the
victims equal what ``SELECT * … WHERE <same predicate>`` returned just
before, every B+-tree validates, and every index holds exactly the
heap's (key, rid) pairs.  Further down: the same search inside
transactions (own inserts, rollback, snapshot readers, key-moving
updates), and a page-access bound that fails if the search ever goes
back to walking the heap.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.engine.cache import relation_estimator
from repro.expr import split_conjuncts
from repro.optimizer.access import access_paths
from repro.physical import PIndexScan, PSeqScan
from repro.sql import parse

#: layout -> its index DDL
LAYOUTS = {
    "none": [],
    "btree": ["CREATE INDEX ix_k ON t (k)"],
    "hash": ["CREATE INDEX hx_k ON t (k) USING hash"],
    "composite": ["CREATE INDEX ix_gk ON t (g, k)"],
    "clustered": [
        "CREATE CLUSTERED INDEX cx_k ON t (k)",
        "CREATE INDEX hx_g ON t (g) USING hash",
    ],
}


def seed_rows():
    """120 rows in k order; k and g both carry NULLs, k has duplicates."""
    rows = []
    for i in range(120):
        k = None if i % 29 == 28 else (i - 1 if i % 31 == 30 else i)
        g = None if i % 17 == 16 else i % 6
        rows.append((k, g, i % 10, f"x{i % 23}"))
    return sorted(rows, key=lambda r: (r[0] is not None, r[0] or 0))


def build(layout):
    db = Database(buffer_pages=64, work_mem_pages=8)
    db.execute("CREATE TABLE t (k INT, g INT, v INT, s TEXT)")
    db.insert_rows("t", seed_rows())
    for ddl in LAYOUTS[layout]:
        db.execute(ddl)
    db.execute("ANALYZE t")
    return db


def _cmp(op):
    """SQL comparison on nullable operands: NULL never matches."""
    return lambda a, b: a is not None and b is not None and op(a, b)


_eq = _cmp(lambda a, b: a == b)
_ne = _cmp(lambda a, b: a != b)
_lt = _cmp(lambda a, b: a < b)
_ge = _cmp(lambda a, b: a >= b)
_gt = _cmp(lambda a, b: a > b)
_le = _cmp(lambda a, b: a <= b)

#: (WHERE text or None, model predicate over (k, g, v, s))
PREDICATES = [
    ("k = 17", lambda r: _eq(r[0], 17)),
    ("k = 29", lambda r: _eq(r[0], 29)),  # a duplicated key
    ("k < 10", lambda r: _lt(r[0], 10)),
    ("k >= 100", lambda r: _ge(r[0], 100)),
    ("k >= 20 AND k < 30", lambda r: _ge(r[0], 20) and _lt(r[0], 30)),
    ("k BETWEEN 40 AND 45", lambda r: _ge(r[0], 40) and _le(r[0], 45)),
    ("k <> 5", lambda r: _ne(r[0], 5)),
    ("k = 3 OR k = 90", lambda r: _eq(r[0], 3) or _eq(r[0], 90)),
    ("k IS NULL", lambda r: r[0] is None),
    ("k = NULL", lambda r: False),
    ("k > 1000", lambda r: False),
    ("k = 5.0", lambda r: _eq(r[0], 5)),
    ("t.k = 64", lambda r: _eq(r[0], 64)),
    ("g = 2", lambda r: _eq(r[1], 2)),  # composite prefix
    ("g = 2 AND k < 50", lambda r: _eq(r[1], 2) and _lt(r[0], 50)),
    ("g = 2 AND k = 14", lambda r: _eq(r[1], 2) and _eq(r[0], 14)),
    ("g = 1 AND v > 2", lambda r: _eq(r[1], 1) and _gt(r[2], 2)),
    ("v = 3", lambda r: _eq(r[2], 3)),  # no index on v or s anywhere
    ("s = 'x7' AND k < 60", lambda r: r[3] == "x7" and _lt(r[0], 60)),
    (None, lambda r: True),
]


def _plus(value, delta):
    return None if value is None else value + delta


#: (statement with a {where} slot, model row -> new row or None = gone)
ACTIONS = {
    "update_nonkey": (
        "UPDATE t SET v = v + 1000{where}",
        lambda r: (r[0], r[1], r[2] + 1000, r[3]),
    ),
    "update_key": (
        "UPDATE t SET k = k + 1000{where}",
        lambda r: (_plus(r[0], 1000), r[1], r[2], r[3]),
    ),
    "update_both_keys": (
        "UPDATE t SET g = g + 1, k = k - 7{where}",
        lambda r: (_plus(r[0], -7), _plus(r[1], 1), r[2], r[3]),
    ),
    "delete": ("DELETE FROM t{where}", lambda r: None),
}


def check_indexes(db):
    """Every index holds exactly the heap's (key, rid) pairs (NULL keys
    included) and is well-formed."""
    info = db.table("t")
    heap = list(info.heap.scan())
    for index in info.indexes.values():
        expected = Counter((index.key_of(row), rid) for rid, row in heap)
        assert Counter(index.structure.items()) == expected, index.name
        index.structure.validate()


def apply_and_check(db, run, model, where, matches, action):
    """Run one statement through *run* (``db.execute`` or a session's)
    and on the list *model*; returns the new model after asserting the
    engine agrees with it."""
    template, change = ACTIONS[action]
    clause = "" if where is None else f" WHERE {where}"
    victims = [r for r in model if matches(r)]
    before = run(f"SELECT * FROM t{clause}").rows
    assert Counter(before) == Counter(victims), where
    result = run(template.format(where=clause))
    assert result.rows == [(len(victims),)], (where, action)
    after = [r if not matches(r) else change(r) for r in model]
    after = [r for r in after if r is not None]
    assert Counter(run("SELECT * FROM t").rows) == Counter(after), where
    check_indexes(db)
    return after


@pytest.mark.parametrize("action", list(ACTIONS))
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_matches_list_model(layout, action):
    # one build per case; every predicate starts from the seed rows
    # because its statement is rolled back — which must itself put every
    # heap row and index entry back
    db = build(layout)
    session = db.create_session()
    seed = seed_rows()
    for where, matches in PREDICATES:
        session.execute("BEGIN")
        apply_and_check(db, session.execute, seed, where, matches, action)
        session.execute("ROLLBACK")
        assert Counter(db.query("SELECT * FROM t").rows) == Counter(seed)
        check_indexes(db)


def _path(db):
    return db.last_trace.find("execute").attrs["access_path"]


@pytest.mark.parametrize(
    "layout, where, expected",
    [
        ("none", "k = 17", "seq"),
        ("btree", "k = 17", "ix_k"),
        ("btree", "k >= 20 AND k < 30", "ix_k"),
        ("btree", "k <> 5", "seq"),
        ("btree", "k = 3 OR k = 90", "seq"),
        ("btree", "v = 3", "seq"),
        ("btree", None, "seq"),
        ("hash", "k = 17", "hx_k"),
        ("hash", "k = 5.0", "hx_k"),
        ("hash", "k < 10", "hx_k"),  # a range: the index is a B+-tree
        ("composite", "g = 2 AND k = 14", "ix_gk"),
        ("composite", "k = 14", "seq"),  # not a key prefix
        ("clustered", "k BETWEEN 40 AND 45", "cx_k"),
        ("clustered", "k IS NULL", "seq"),
    ],
)
def test_cost_model_picks_the_path(layout, where, expected):
    """The matrix above is only worth its name if indexes are really
    used: pin the path the optimizer picks for the telling cases."""
    db = build(layout)
    clause = "" if where is None else f" WHERE {where}"
    for template, _ in ACTIONS.values():
        db.execute(template.format(where=clause))
        assert _path(db) == expected, template


def test_select_and_update_are_each_priced_for_their_own_executor():
    """One WHERE, one table, two legitimate answers.  A SELECT runs the
    vectorized scan, so its candidates carry the model's CPU discount and
    one page of 120 rows is cheaper scanned than probed.  An UPDATE's
    victims are walked tuple-at-a-time whatever engine serves queries,
    so its candidates are priced undiscounted and the probe wins."""
    db = build("btree")
    assert db.columnar and db.model.vector_cpu_factor < 1.0
    info = db.table("t")
    conjuncts = split_conjuncts(parse("SELECT * FROM t WHERE k = 17").where)
    estimator = relation_estimator(info, "t")

    def priced(model):
        """path name -> total cost of every candidate under *model*."""
        return {
            cand.plan.index.name
            if isinstance(cand.plan, PIndexScan)
            else "seq": cand.cost.total
            for cand in access_paths(
                info,
                "t",
                conjuncts,
                estimator,
                model,
                consider_unbounded_index=False,
            )
        }

    vectorized = priced(db.model)
    scalar = priced(db.model.undiscounted())
    assert vectorized["seq"] < vectorized["ix_k"] == scalar["ix_k"]
    assert scalar["ix_k"] < scalar["seq"]

    scan = db.plan("SELECT * FROM t WHERE k = 17").child
    assert isinstance(scan, PSeqScan)
    assert scan.est_cost.total == vectorized["seq"]

    db.execute("UPDATE t SET v = v + 1000 WHERE k = 17")
    assert _path(db) == "ix_k"
    assert db.query_log.entries()[-1].est_cost == scalar["ix_k"]


# -- random statement sequences ------------------------------------------------

_COLUMNS = {"k": 0, "g": 1, "v": 2}
_OPS = {"=": _eq, "<>": _ne, "<": _lt, ">=": _ge, ">": _gt, "<=": _le}


@st.composite
def _comparison(draw):
    column = draw(st.sampled_from(sorted(_COLUMNS)))
    op = draw(st.sampled_from(sorted(_OPS)))
    const = draw(st.integers(-5, 130))
    pos, fn = _COLUMNS[column], _OPS[op]
    return f"{column} {op} {const}", lambda r: fn(r[pos], const)


@st.composite
def _where(draw):
    parts = draw(st.lists(_comparison(), min_size=0, max_size=3))
    if not parts:
        return None, lambda r: True
    glue = draw(st.sampled_from(["AND", "OR"]))
    combine = all if glue == "AND" else any
    text = f" {glue} ".join(f"({sql})" for sql, _ in parts)
    return text, lambda r: combine(fn(r) for _, fn in parts)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    layout=st.sampled_from(sorted(LAYOUTS)),
    statements=st.lists(
        st.tuples(_where(), st.sampled_from(sorted(ACTIONS))),
        min_size=1,
        max_size=5,
    ),
)
def test_random_statement_sequences(layout, statements):
    db = build(layout)
    model = seed_rows()
    for (where, matches), action in statements:
        model = apply_and_check(
            db, db.execute, model, where, matches, action
        )


# -- transactions and concurrent readers ---------------------------------------


@pytest.fixture
def kv():
    db = Database()
    db.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
    db.insert_rows("kv", [(i, i) for i in range(500)])
    db.execute("CREATE INDEX hx_v ON kv (v) USING hash")
    db.execute("ANALYZE kv")
    return db


def _probe(db, k):
    """Rows under key *k* by index probe and by heap walk (``k + 0``
    is not sargable, so the second SELECT cannot use the index)."""
    by_index = db.query(f"SELECT k, v FROM kv WHERE k = {k}")
    assert "IndexScan" in by_index.plan.pretty()
    by_heap = db.query(f"SELECT k, v FROM kv WHERE k + 0 = {k}")
    assert "SeqScan" in by_heap.plan.pretty()
    assert by_index.rows == by_heap.rows
    return by_index.rows


class TestInsideTransactions:
    def test_own_insert_is_found_through_the_index(self, kv):
        s = kv.create_session()
        s.execute("BEGIN")
        s.execute("INSERT INTO kv VALUES (9001, 1), (9002, 2)")
        assert s.execute("UPDATE kv SET v = 77 WHERE k = 9001").rows == [(1,)]
        assert _path(kv) == "pk_kv_k"
        assert s.execute("DELETE FROM kv WHERE k = 9002").rows == [(1,)]
        assert _path(kv) == "pk_kv_k"
        assert s.execute("SELECT k, v FROM kv WHERE k >= 9000").rows == [
            (9001, 77)
        ]
        s.execute("COMMIT")
        assert _probe(kv, 9001) == [(9001, 77)]
        assert _probe(kv, 9002) == []

    def test_rollback_restores_rows_and_index_entries(self, kv):
        s = kv.create_session()
        s.execute("BEGIN")
        s.execute("DELETE FROM kv WHERE k = 10")
        s.execute("UPDATE kv SET v = -1 WHERE k = 11")
        s.execute("UPDATE kv SET k = 7000 WHERE k = 12")
        s.execute("DELETE FROM kv WHERE k BETWEEN 20 AND 29")
        assert s.execute("SELECT COUNT(*) FROM kv").rows == [(489,)]
        s.execute("ROLLBACK")
        for k in (10, 11, 12, 20, 25, 29):
            assert _probe(kv, k) == [(k, k)]
        assert _probe(kv, 7000) == []
        assert kv.query("SELECT k FROM kv WHERE v = 11").rows == [(11,)]
        assert kv.query("SELECT COUNT(*) FROM kv").rows == [(500,)]
        info = kv.table("kv")
        heap = list(info.heap.scan())
        for index in info.indexes.values():
            assert Counter(index.structure.items()) == Counter(
                (index.key_of(row), rid) for rid, row in heap
            )
        info.index_on("k").structure.validate()

    def test_repeatable_read_keeps_the_pre_images(self, kv):
        reader = kv.create_session()
        reader.execute("BEGIN")
        assert reader.execute("SELECT COUNT(*) FROM kv").rows == [(500,)]
        kv.execute("UPDATE kv SET v = -5 WHERE k = 5")
        kv.execute("UPDATE kv SET k = 8000 WHERE k = 6")
        kv.execute("DELETE FROM kv WHERE k = 7")
        kv.execute("DELETE FROM kv WHERE k BETWEEN 100 AND 109")
        assert _path(kv) == "pk_kv_k"
        # index probes, a range over the moved/deleted keys, and a walk
        for k in (5, 6, 7, 104):
            assert reader.execute(
                f"SELECT k, v FROM kv WHERE k = {k}"
            ).rows == [(k, k)]
        assert reader.execute("SELECT k FROM kv WHERE k = 8000").rows == []
        assert reader.execute(
            "SELECT k FROM kv WHERE k BETWEEN 4 AND 8"
        ).rows == [(4,), (5,), (6,), (7,), (8,)]
        assert reader.execute("SELECT COUNT(*), SUM(v) FROM kv").rows == [
            (500, sum(range(500)))
        ]
        reader.execute("COMMIT")
        assert reader.execute("SELECT COUNT(*) FROM kv").rows == [(489,)]
        assert _probe(kv, 5) == [(5, -5)]
        assert _probe(kv, 8000) == [(8000, 6)]

    def test_key_moving_update_touches_each_row_once(self, kv):
        # the moved keys land inside the range still being scanned: a scan
        # that interleaved with the writes would meet them again
        r = kv.execute("UPDATE kv SET k = k + 100000 WHERE k >= 480")
        assert r.rows == [(20,)]
        assert _path(kv) == "pk_kv_k"
        # the same statement over most of the table (priced as a heap walk)
        r = kv.execute("UPDATE kv SET k = k + 100000 WHERE k >= 10")
        assert r.rows == [(490,)]
        keys = [k for (k,) in kv.query("SELECT k FROM kv ORDER BY k").rows]
        assert keys == (
            list(range(10))
            + list(range(100010, 100480))
            + list(range(200480, 200500))
        )
        assert _probe(kv, 100479) == [(100479, 479)]
        assert _probe(kv, 200499) == [(200499, 499)]
        kv.table("kv").index_on("k").structure.validate()


# -- the page-access guard -----------------------------------------------------


def _pk_statement_accesses(rows):
    """Buffer-pool accesses of one UPDATE and one DELETE by primary key
    on a *rows*-row table."""
    db = Database(buffer_pages=512)
    db.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT, pad TEXT)")
    db.insert_rows("kv", [(i, i, "p" * 40) for i in range(rows)])
    db.execute("ANALYZE kv")
    assert db.table("kv").index_on("k").height == 2
    out = []
    for sql in (
        f"UPDATE kv SET v = 0 WHERE k = {rows // 2}",
        f"DELETE FROM kv WHERE k = {rows // 2 + 1}",
    ):
        stats = db.pool.stats
        before = stats.hits + stats.misses
        assert db.execute(sql).rows == [(1,)]
        out.append(stats.hits + stats.misses - before)
    return db.table("kv").num_pages, out


def test_pk_dml_page_accesses_do_not_grow_with_the_table():
    """Counters, not timers.  UPDATE by primary key fixes the two B+-tree
    levels, then the row's heap page to fetch, rewrite and re-read it (5);
    DELETE fixes the same path and heap page, then descends again to drop
    the index entry (7) — whatever the table size.  A return to the heap
    walk adds one access per heap page (63 and 250 here) and fails both
    assertions."""
    small_pages, small = _pk_statement_accesses(4000)
    large_pages, large = _pk_statement_accesses(16000)
    assert small == large
    assert max(small) <= 8
    assert small_pages > 60 and large_pages > 3 * small_pages
