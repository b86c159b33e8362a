"""A bound plan must return what a cold plan returns.

The plan cache plans a statement shape once and binds later statements'
literals into a copy of that plan (``repro.engine.cache``).  Everything
here runs the same statements on a caching database and on a
``plan_cache_size=0`` twin that plans every statement cold, and demands
equal rows (or the same error) every time:

* a hypothesis differential over random WHERE shapes — duplicated
  literals, coinciding and crossed bounds, contradictory ranges, foldable
  arithmetic, negative numbers, IN lists, int/float/str mixes, NULL — on
  a table with a B+-tree primary key, secondary B+-trees and a hash
  index; each shape is run with several bindings, for SELECT and for the
  victim sets of UPDATE/DELETE (including updates that move the key of
  the index being scanned);
* the tier-1 slice of the random-query matrix and the eight wholesale
  queries with their literals perturbed, on a warm cache;
* the targeted cases: pinned slots, the selectivity-bucket guard, range
  re-tightening, and invalidation between two bindings of one shape.
"""

import random
import re
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.obs import ObsConfig
from repro.physical import PIndexScan, PSeqScan, walk_plan
from repro.qa import RandomWorkload
from repro.qa.randomqueries import load_dataset
from repro.workloads import WHOLESALE_QUERIES, WholesaleScale, load_wholesale

from .test_dml_access_paths import check_indexes

# -- the two databases ---------------------------------------------------------


def rows_of_t():
    """300 rows: k unique, g and h small with duplicates and NULLs."""
    rows = []
    for i in range(300):
        g = None if i % 23 == 22 else i % 13
        h = None if i % 19 == 18 else (i * 7) % 11
        rows.append((i, g, h, (i % 97) / 2.0, f"k{i % 29}"))
    return rows


def build(plan_cache_size: int) -> Database:
    db = Database(
        buffer_pages=64,
        work_mem_pages=8,
        obs=ObsConfig(plan_cache_size=plan_cache_size),
    )
    db.execute("CREATE TABLE t (k INT PRIMARY KEY, g INT, h INT, f FLOAT, s TEXT)")
    db.insert_rows("t", rows_of_t())
    db.execute("CREATE INDEX ix_g ON t (g)")
    db.execute("CREATE INDEX hx_h ON t (h) USING HASH")
    db.execute("CREATE INDEX ix_s ON t (s)")
    db.execute("ANALYZE t")
    return db


class Twins:
    """The caching database and its cold-planning twin, one session each."""

    def __init__(self):
        self.cached, self.cold = build(128), build(0)
        self.sessions = [self.cached.create_session(), self.cold.create_session()]

    def both(self, sql: str):
        """Run *sql* on both and assert the outcomes agree: the rows as a
        multiset, or the error's type.  Returns the rows, or the error's
        name when either side failed.  A type error on one side only is
        not a difference: whether an ill-typed comparison is ever
        evaluated depends on the plan (a hash probe for ``h = 'a'``
        compares nothing; a sequential scan does, and raises)."""
        outcomes = []
        for session in self.sessions:
            try:
                outcomes.append(Counter(session.execute(sql).rows))
            except Exception as exc:  # compared, not swallowed
                outcomes.append(type(exc).__name__)
        if "TypeError_" in outcomes:
            return "TypeError_"
        assert outcomes[0] == outcomes[1], sql
        return outcomes[0]


@pytest.fixture(scope="module")
def twins():
    return Twins()


# -- random WHERE shapes -------------------------------------------------------

DOMAINS = {
    "int": st.integers(-5, 310),
    "small": st.integers(-1, 14),
    "float": st.integers(-50, 3100).map(lambda n: n / 10),
    "str": st.sampled_from(["", "a", "k1", "k17", "k28", "m", "zz"]),
}
#: column -> the domains its holes draw from, most likely first
COLUMN_DOMAINS = {
    "k": ["int", "int", "int", "float", "small"],
    "g": ["small", "small", "int", "float"],
    "h": ["small", "small", "int"],
    "f": ["float", "float", "int"],
    "s": ["str"],
}
CMP = ["=", "=", "<>", "<", "<=", ">", ">="]


def sql_literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


@st.composite
def atoms(draw, focus: str):
    """One predicate with ``{}`` holes, and the domain of each hole."""
    column = focus if draw(st.integers(0, 9)) < 7 else draw(
        st.sampled_from(sorted(COLUMN_DOMAINS))
    )
    domain = draw(st.sampled_from(COLUMN_DOMAINS[column]))
    if draw(st.integers(0, 19)) == 0:
        domain = "str" if domain != "str" else "int"  # a type error
    op = draw(st.sampled_from(CMP))
    kind = draw(st.integers(0, 11))
    if kind <= 3:
        return f"{column} {op} {{}}", [domain]
    if kind == 4:
        return f"{{}} {op} {column}", [domain]
    if kind == 5:
        neg = draw(st.sampled_from(["", "NOT "]))
        return f"{column} {neg}BETWEEN {{}} AND {{}}", [domain, domain]
    if kind == 6:
        neg = draw(st.sampled_from(["", "NOT "]))
        tail = draw(st.sampled_from(["{}", "NULL"]))
        holes = [domain] * (3 if tail == "{}" else 2)
        return f"{column} {neg}IN ({{}}, {{}}, {tail})", holes
    if kind == 7 and domain != "str":
        sign = draw(st.sampled_from(["+", "-", "*"]))
        return f"{column} {op} {{}} {sign} {{}}", [domain, "small"]
    if kind == 8 and domain != "str":
        return f"{column} + {{}} {op} {{}}", ["small", domain]
    if kind == 9:
        return f"{{}} {op} {{}}", [domain, domain]  # folds to TRUE/FALSE
    if kind == 10:
        return draw(
            st.sampled_from(
                [f"{column} IS NULL", f"{column} IS NOT NULL", f"{column} = NULL"]
            )
        ), []
    if kind == 11 and column == "s":
        return "s LIKE 'k1%'", []
    return f"{column} {op} {{}}", [domain]


@st.composite
def terms(draw, focus: str):
    text, holes = draw(atoms(focus))
    wrap = draw(st.integers(0, 7))
    if wrap == 0:
        return f"NOT ({text})", holes
    if wrap == 1:
        other, more = draw(atoms(focus))
        return f"({text} OR {other})", holes + more
    return text, holes


@st.composite
def where_shapes(draw):
    """A WHERE clause with holes, biased towards several predicates on one
    column (so bounds coincide, cross and contradict), and its hole
    domains."""
    focus = draw(st.sampled_from(["k", "k", "k", "g", "g", "h", "h", "f", "s"]))
    parts, holes = [], []
    for _ in range(draw(st.integers(1, 4))):
        text, more = draw(terms(focus))
        parts.append(text)
        holes += more
    return " AND ".join(parts), holes


@st.composite
def bindings(draw, holes, count: int):
    """*count* value vectors for *holes*; within a vector, holes of one
    domain often repeat one value (duplicated literals, ``k >= 5 AND
    k <= 5``)."""
    out = []
    for _ in range(count):
        shared = {name: draw(DOMAINS[name]) for name in set(holes)}
        out.append(
            [
                shared[name] if draw(st.booleans()) else draw(DOMAINS[name])
                for name in holes
            ]
        )
    return out


@st.composite
def shape_with_bindings(draw, count: int = 6):
    where, holes = draw(where_shapes())
    return where, draw(bindings(holes, count))


def fill(template: str, values) -> str:
    return template.format(*[sql_literal(v) for v in values])


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(case=shape_with_bindings())
def test_select_bound_equals_cold(twins, case):
    where, vectors = case
    for values in vectors:
        twins.both("SELECT k, g, h, f, s FROM t WHERE " + fill(where, values))


DML = [
    "DELETE FROM t WHERE {where}",
    "UPDATE t SET f = f + 1 WHERE {where}",
    "UPDATE t SET f = {} WHERE {where}",  # the SET value is never cached
    "UPDATE t SET g = g + {} WHERE {where}",  # moves ix_g's key
    "UPDATE t SET h = h + 1 WHERE {where}",  # moves hx_h's key
    "UPDATE t SET k = k + 1000 WHERE {where}",  # moves the primary key
    "UPDATE t SET k = k + 1000, g = {} WHERE {where}",
]


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=shape_with_bindings(count=5),
    statement=st.sampled_from(DML),
    sets=st.lists(st.integers(0, 20), min_size=5, max_size=5),
)
def test_dml_bound_equals_cold(case, statement, sets):
    """Victim sets: every statement changes as many rows on both
    databases and leaves them with the same table and sound indexes.
    Fresh twins per example (undoing a 300-row update costs more than
    building the table), so the first binding plans and the rest bind."""
    where, vectors = case
    twins = Twins()
    for values, set_value in zip(vectors, sets):
        sql = statement.replace("{where}", fill(where, values))
        if isinstance(twins.both(sql.replace("{}", str(set_value))), str):
            return  # after a one-sided type error the tables differ
    twins.both("SELECT * FROM t")
    for db in (twins.cached, twins.cold):
        check_indexes(db)
    assert len(twins.cold.plan_cache) == 0


def test_differential_runs_through_the_cache(twins):
    """Not vacuous: a fixed run of the paths above binds, re-plans and
    pins — and the twin never caches."""
    cache = twins.cached.plan_cache
    hits, replans = cache.stats.hits, cache.stats.replans
    for low in (3, 4, 250, 5):
        twins.both(f"SELECT k FROM t WHERE k > {low}")
        twins.both(f"SELECT k FROM t WHERE g = {low % 13} AND 1 + {low} > 3")
    for k in (7, 8, 9):
        twins.both(f"UPDATE t SET f = f + 1 WHERE k = {k}")
    assert cache.stats.hits >= hits + 4
    assert cache.stats.replans > replans
    assert len(twins.cold.plan_cache) == 0 and twins.cold.plan_cache.stats.hits == 0


# -- the random-query matrix and the wholesale queries, literals perturbed ----

_INT = re.compile(r"(?<![\w.])(\d+)(?![\w.])")
_FLOAT = re.compile(r"(?<![\w.])(\d+\.\d+)(?![\w.])")


def perturbed(sql: str, step: int) -> str:
    """*sql* with every numeric literal moved by *step* (floats by half)."""
    sql = _FLOAT.sub(lambda m: repr(float(m.group(1)) + step / 2), sql)
    return _INT.sub(lambda m: str(int(m.group(1)) + step), sql)


def listed(result) -> list:
    return [tuple(row) for row in result.rows]


class TestMatrixSliceOnWarmCache:
    """The 40 tier-1 matrix cases: the original text against the
    brute-force reference (twice, so the second run is served from the
    cache), and two perturbations of it against the cold twin."""

    workload = RandomWorkload(1977)

    @pytest.fixture(scope="class")
    def dbs(self):
        out = []
        for size in (128, 0):
            db = Database(
                buffer_pages=64,
                work_mem_pages=4,
                obs=ObsConfig(plan_cache_size=size),
            )
            load_dataset(db, self.workload.dataset())
            out.append(db)
        return out

    @pytest.fixture(scope="class")
    def reference(self):
        return self.workload.reference()

    @pytest.mark.parametrize("index", range(40))
    def test_case(self, dbs, reference, index):
        cached, cold = dbs
        case = self.workload.case(index)
        hits = cached.plan_cache.stats.hits
        for _ in range(2):
            assert case.matches(cached.query(case.sql).rows, reference), case.sql
        assert cached.plan_cache.stats.hits > hits
        for step in (1, 2):
            sql = perturbed(case.sql, step)
            got, want = listed(cached.query(sql)), listed(cold.query(sql))
            if case.ordered:
                assert got == want, sql
            else:
                assert Counter(got) == Counter(want), sql


class TestWholesaleOnWarmCache:
    @pytest.fixture(scope="class")
    def dbs(self):
        out = []
        for size in (128, 0):
            db = Database(obs=ObsConfig(plan_cache_size=size))
            load_wholesale(db, WholesaleScale.tiny())
            out.append(db)
        return out

    @pytest.mark.parametrize("name", sorted(WHOLESALE_QUERIES))
    def test_query(self, dbs, name):
        cached, cold = dbs
        sql = WHOLESALE_QUERIES[name]
        variants = [sql, sql, perturbed(sql, 1), perturbed(sql, 3)]
        variants += [
            sql.replace("'delivered'", "'open'").replace("'returned'", "'shipped'")
        ]
        for text in variants:
            got, want = listed(cached.query(text)), listed(cold.query(text))
            assert len(got) == len(want), text
            for a, b in zip(sorted(got, key=repr), sorted(want, key=repr)):
                assert a == pytest.approx(b), text
        assert cached.plan_cache.stats.hits >= 1


# -- targeted: pins, buckets, re-tightening ---------------------------------------


def make_range_db(**obs) -> Database:
    """2,000 rows; ``id`` is unique behind a secondary (unclustered)
    B+-tree, so a wide range is cheaper as a sequential scan."""
    db = Database(buffer_pages=64, obs=ObsConfig(**obs))
    db.execute("CREATE TABLE t (id INT, v INT, w INT)")
    db.insert_rows("t", [(i, i % 10, i % 7) for i in range(2000)])
    db.execute("CREATE INDEX ix_id ON t (id)")
    db.execute("ANALYZE t")
    return db


def scan_of(result):
    return list(walk_plan(result.plan))[-1]


class TestBucketGuard:
    def test_range_shape_keeps_one_variant_per_access_path(self):
        # 108 pages in shuffled order behind a 32-page pool: the
        # unclustered index pays for a dozen rows, not for hundreds
        db = Database(buffer_pages=32)
        db.execute("CREATE TABLE t (id INT, v INT, pad TEXT)")
        ids = list(range(3000))
        random.Random(1).shuffle(ids)
        db.insert_rows("t", [(i, i % 10, "x" * 120) for i in ids])
        db.execute("CREATE INDEX ix_id ON t (id)")
        db.execute("ANALYZE t")
        q = "SELECT v FROM t WHERE id BETWEEN {} AND {}"
        narrow = db.query(q.format(10, 12))  # 0.1 %
        wide = db.query(q.format(0, 1200))  # 40 %
        assert isinstance(scan_of(narrow), PIndexScan)
        assert isinstance(scan_of(wide), PSeqScan)
        stats = db.plan_cache.stats
        assert (stats.hits, stats.misses, stats.replans) == (0, 2, 1)
        assert (db.plan_cache.shapes, len(db.plan_cache)) == (1, 2)
        # each later binding is served by the variant of its own bucket
        # (the estimator multiplies the two halves of a BETWEEN as if
        # independent, so only a nearby low end stays in the bucket)
        again_narrow = db.query(q.format(11, 13))
        again_wide = db.query(q.format(0, 1900))
        assert stats.hits == 2
        assert isinstance(scan_of(again_narrow), PIndexScan)
        assert isinstance(scan_of(again_wide), PSeqScan)
        assert again_narrow.rowcount == 3 and again_wide.rowcount == 1901
        assert db.metrics.snapshot()["counters"]["cache_plan_replans_total"] == 1

    def test_estimates_on_a_hit_are_within_2x(self):
        db = make_range_db()
        q = "SELECT v FROM t WHERE id < {}"
        for high in range(100, 1900, 37):
            result = db.query(q.format(high))
            assert result.rowcount == high
            assert 0.5 < scan_of(result).est_rows / high < 2.0

    def test_unique_key_equality_never_replans(self):
        db = make_range_db()
        for i in (0, 1, 999, 1999, 5000, -3):
            rows = db.query(f"SELECT v FROM t WHERE id = {i}").rows
            assert rows == ([(i % 10,)] if 0 <= i < 2000 else [])
        stats = db.plan_cache.stats
        assert (stats.hits, stats.misses, stats.replans) == (5, 1, 0)


class TestPinnedSlots:
    def test_all_pinned_statement_hits_only_on_identical_values(self):
        db = make_range_db()
        q = "SELECT COUNT(*) FROM t WHERE id >= {} + {}"
        assert db.query(q.format(1, 2)).rows == [(1997,)]  # folded: id >= 3
        assert db.query(q.format(1, 2)).rows == [(1997,)]
        assert db.plan_cache.stats.hits == 1
        assert db.query(q.format(1, 3)).rows == [(1996,)]
        assert db.query(q.format(2, 1)).rows == [(1997,)]  # same sum, other values
        stats = db.plan_cache.stats
        assert (stats.hits, stats.replans) == (1, 2)

    def test_folded_comparison_pins_its_operands_only(self):
        db = make_range_db()
        q = "SELECT COUNT(*) FROM t WHERE id < {} AND {} < {}"
        assert db.query(q.format(10, 3, 5)).rows == [(10,)]
        assert db.query(q.format(12, 3, 5)).rows == [(12,)]  # free slot rebinds
        assert db.plan_cache.stats.hits == 1
        assert db.query(q.format(12, 5, 3)).rows == [(0,)]  # 5 < 3: replanned
        assert db.plan_cache.stats.replans == 1


class TestRetightenedRanges:
    @pytest.mark.parametrize(
        "where",
        [
            "id > {} AND id > {}",
            "id >= {} AND id > {}",
            "id < {} AND id <= {}",
            "id = {} AND id >= {}",
            "id >= {} AND id <= {}",
            "w >= {} AND w <= {}",  # few distinct values; bounds may coincide
        ],
    )
    def test_two_conjuncts_on_one_bound(self, where):
        db, cold = make_range_db(), make_range_db(plan_cache_size=0)
        for each in (db, cold):
            each.execute("CREATE INDEX hw ON t (w) USING HASH")
        q = "SELECT id FROM t WHERE " + where
        for a, b in [
            (5, 7), (5, 3), (9, 3), (7, 7), (1990, 1995), (1995, 1990),
            (3, 3), (3, 4), (4, 4),
        ]:
            sql = q.format(a, b)
            assert sorted(db.query(sql).rows) == sorted(cold.query(sql).rows), sql
        # nothing here pins a slot: whichever conjunct is tighter this
        # time, a binding in the same selectivity bucket is a hit
        assert db.plan_cache.stats.hits >= 2

    def test_composite_index_prefix_and_range(self):
        dbs = []
        for size in (128, 0):
            db = Database(obs=ObsConfig(plan_cache_size=size))
            db.execute("CREATE TABLE c (a INT, b INT, v INT)")
            db.insert_rows("c", [(i % 20, i % 50, i) for i in range(1000)])
            db.catalog.create_index("ix_ab", "c", ["a", "b"])
            db.execute("ANALYZE c")
            dbs.append(db)
        q = "SELECT v FROM c WHERE a >= {} AND a <= {} AND b < {}"
        for a, b, c in [(3, 3, 10), (3, 5, 10), (4, 4, 40), (7, 2, 5), (0, 19, 1)]:
            sql = q.format(a, b, c)
            got, want = (sorted(db.query(sql).rows) for db in dbs)
            assert got == want, sql
        assert dbs[0].plan_cache.stats.hits >= 1


# -- invalidation between two bindings of one shape --------------------------------


class TestInvalidation:
    def test_create_index_between_two_bindings(self):
        db = make_range_db()
        q = "SELECT id FROM t WHERE v = {} AND id < 100"
        before = db.query(q.format(3))
        assert not any(
            getattr(n, "index", None) is not None and n.index.name == "iv"
            for n in walk_plan(before.plan)
        )
        db.execute("CREATE INDEX iv ON t (v)")
        db.execute("ANALYZE t")
        q2 = "SELECT id FROM t WHERE v = {}"
        db.query(q2.format(3))
        db.execute("DROP TABLE t")
        db.execute("CREATE TABLE t (id INT, v INT, w INT)")
        db.insert_rows("t", [(i, 1, 0) for i in range(50)])
        # the same table name, another table: the old plan must not run
        assert sorted(db.query(q2.format(1)).rows) == [(i,) for i in range(50)]
        assert db.query(q2.format(3)).rows == []

    def test_new_index_is_used_by_the_next_binding(self):
        db = Database()
        db.execute("CREATE TABLE u (id INT, v INT)")
        db.insert_rows("u", [(i, i % 100) for i in range(3000)])
        db.execute("ANALYZE u")
        q = "SELECT id FROM u WHERE v = {}"
        assert isinstance(scan_of(db.query(q.format(3))), PSeqScan)
        assert isinstance(scan_of(db.query(q.format(4))), PSeqScan)
        assert db.plan_cache.stats.hits == 1
        db.execute("CREATE INDEX iv ON u (v)")
        after = db.query(q.format(5))
        assert db.plan_cache.stats.hits == 1  # a miss: the cache was dropped
        scan = scan_of(after)
        assert isinstance(scan, PIndexScan) and scan.index.name == "iv"
        assert sorted(after.rows) == [(i,) for i in range(5, 3000, 100)]

    def test_analyze_replans_the_shape(self):
        db = make_range_db()
        q = "SELECT id FROM t WHERE v = {}"
        db.query(q.format(1))
        db.insert_rows("t", [(2000 + i, 99, 0) for i in range(4000)])
        assert db.query(q.format(99)).rowcount == 4000  # bound, old statistics
        assert db.plan_cache.stats.hits == 1
        db.execute("ANALYZE t")
        assert len(db.plan_cache) == 0
        assert db.query(q.format(99)).rowcount == 4000
        assert db.plan_cache.stats.misses == 2

    def test_set_strategy_drops_parameterized_entries(self):
        db = make_range_db()
        q = "SELECT id FROM t WHERE id = {}"
        db.query(q.format(1))
        db.query(q.format(2))
        db.set_strategy("greedy")
        assert len(db.plan_cache) == 0
        assert db.query(q.format(3)).rows == [(3,)]
        assert (db.plan_cache.stats.hits, db.plan_cache.stats.misses) == (1, 2)


# -- the cache's own observability ---------------------------------------------


class TestDmlObservability:
    def test_dml_records_carry_plan_cache_hit(self):
        db = make_range_db()
        for i in (1, 2, 3):
            db.execute(f"UPDATE t SET v = 0 WHERE id = {i}")
        db.execute("DELETE FROM t WHERE id = 4")  # shares the victim scan
        flags = [
            r.plan_cache_hit for r in db.query_log.entries()
            if r.kind in ("update", "delete")
        ]
        assert flags == [False, True, True, True]
        rows = db.query(
            "SELECT statement, calls, plan_cache_hits FROM sys_stat_statements"
        ).rows
        update = next(r for r in rows if r[0].startswith("update"))
        assert update[1:] == (3, 2)

    def test_update_set_value_is_not_cached(self):
        db = make_range_db()
        for i in (1, 2, 3):
            db.execute(f"UPDATE t SET v = {i * 100} WHERE id = {i}")
        assert db.query("SELECT id, v FROM t WHERE id < 4 AND id > 0").rows == [
            (1, 100), (2, 200), (3, 300)
        ]
        assert db.plan_cache.stats.hits == 2
