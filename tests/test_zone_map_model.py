"""Seq scans and every index ≡ the heap, as a state machine.

(The file and class names date from when this machine guarded zone-map
page skipping, which is gone: a sequential scan reads every page.)

Hypothesis drives one durable ``Database(columnar=True)`` through random
INSERT / UPDATE / DELETE / BEGIN / COMMIT / ROLLBACK / ANALYZE /
close-and-reopen steps — updates that push a value far from its
neighbours, updates that grow a row until it relocates to another page,
rollbacks that put old values back, NULLs in most columns — and after
every step asks a handful of random equality, range, ``BETWEEN`` and
``IN`` predicates.  Each must return exactly the rows of ``heap.scan()``
filtered in Python: no predicate names an indexed column, so every
answer comes from the columnar ``SeqScan`` and its page decoder.

The same walk pins what a row write owes its table: columns
``a`` and ``b`` (both nullable, named by no predicate) sit behind a
single-column and a composite B+-tree, and after every rule each index
must hold exactly the heap's ``(key, rid)`` pairs (NULL keys included)
in key order — inside open transactions, after rollbacks, after recovery
rebuilt them.  (Among equal keys the tree orders rids within a leaf
only, so the pairs are compared as a multiset and the order of the walk
is ``validate()``'s to check.)
"""

import shutil
import tempfile
from collections import Counter

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import Database
from repro.catalog import TableInfo
from repro.physical import PSeqScan, walk_plan

SEED_ROWS = 300
#: small pages: the seed table spans ~22 of them, and a 200-byte string
#: does not fit beside its neighbours, so growing a row relocates it
PAGE_SIZE = 512

COLUMNS = {"id": 0, "v": 1, "f": 2, "s": 3}
_OPS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: constants around the seed data's page bounds, and far outside them
ints = st.one_of(
    st.integers(-20, SEED_ROWS + 100),
    st.sampled_from([-(10**6), 10**6]),
)
halves = st.integers(-40, 2 * SEED_ROWS + 200).map(lambda n: n / 2)
labels = st.integers(0, SEED_ROWS + 100).map(lambda n: f"r{n}")


def _constant(column):
    return {"id": ints, "v": ints, "f": halves, "s": labels}[column]


def _sql(value):
    if value is None:
        return "NULL"
    return f"'{value}'" if isinstance(value, str) else repr(value)


#: what ``update_value`` may assign: the scanned columns and the two
#: indexed ones (``SET a = NULL`` is not SQL this engine types; NULL keys
#: arrive by INSERT and leave by UPDATE)
_ASSIGNABLE = {"id": ints, "v": ints, "f": halves, "a": ints, "b": ints}


@st.composite
def _comparison(draw):
    column = draw(st.sampled_from(sorted(COLUMNS)))
    op = draw(st.sampled_from(sorted(_OPS)))
    const = draw(_constant(column))
    pos, fn = COLUMNS[column], _OPS[op]
    return (
        f"{column} {op} {_sql(const)}",
        lambda r: r[pos] is not None and fn(r[pos], const),
    )


@st.composite
def _between(draw):
    column = draw(st.sampled_from(["id", "v", "f"]))
    low, high = sorted(draw(st.tuples(*[_constant(column)] * 2)))
    pos = COLUMNS[column]
    return (
        f"{column} BETWEEN {_sql(low)} AND {_sql(high)}",
        lambda r: r[pos] is not None and low <= r[pos] <= high,
    )


@st.composite
def _in_list(draw):
    column = draw(st.sampled_from(sorted(COLUMNS)))
    items = draw(st.lists(_constant(column), min_size=1, max_size=4))
    pos = COLUMNS[column]
    return (
        f"{column} IN ({', '.join(_sql(i) for i in items)})",
        lambda r: r[pos] is not None and r[pos] in items,
    )


@st.composite
def _predicate(draw):
    """One sargable shape, or two ANDed (both can prune a page)."""
    parts = draw(
        st.lists(
            st.one_of(_comparison(), _between(), _in_list()),
            min_size=1,
            max_size=2,
        )
    )
    return (
        " AND ".join(f"({sql})" for sql, _ in parts),
        lambda r: all(fn(r) for _, fn in parts),
    )


predicates = st.lists(_predicate(), min_size=3, max_size=5)


class ZoneMapMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.data_dir = tempfile.mkdtemp(prefix="scan-index-model-")
        self.db = self._open()
        self.in_txn = False

    def _open(self):
        return Database(
            buffer_pages=64,
            page_size=PAGE_SIZE,
            data_dir=self.data_dir,
            columnar=True,
        )

    def teardown(self):
        self.db.close()
        shutil.rmtree(self.data_dir, ignore_errors=True)

    @initialize()
    def seed(self):
        db = self.db
        db.execute(
            "CREATE TABLE t (id INT, v INT, f FLOAT, s TEXT, a INT, b INT)"
        )
        db.insert_rows(
            "t",
            [
                (i, i % 7, i / 2, f"r{i}", None if i % 11 == 0 else i % 13, i % 5)
                for i in range(SEED_ROWS)
            ],
        )
        db.execute("CREATE INDEX ix_a ON t (a)")
        db.execute("CREATE INDEX ix_ba ON t (b, a)")
        db.execute("ANALYZE t")

    def check(self, preds):
        info = self.db.table("t")
        live = [row for _, row in info.heap.scan()]
        for sql, matches in preds:
            result = self.db.query(f"SELECT * FROM t WHERE {sql}")
            assert any(
                isinstance(node, PSeqScan) for node in walk_plan(result.plan)
            )
            want = Counter(row for row in live if matches(row))
            assert Counter(result.rows) == want, sql

    @invariant()
    def indexes_hold_the_heap(self):
        if not self.db.catalog.has_table("t"):
            return  # before seed()
        info = self.db.table("t")
        heap = list(info.heap.scan())
        assert len(info.indexes) == 2
        for index in info.indexes.values():
            want = Counter((index.key_of(row), rid) for rid, row in heap)
            entries = index.structure.range_scan(None, None, True, True)
            assert Counter(entries) == want, index.name
            index.structure.validate()

    # -- writes ------------------------------------------------------------

    @rule(
        row=st.tuples(
            st.none() | ints,
            st.none() | ints,
            st.none() | halves,
            labels,
            st.none() | ints,
            st.none() | ints,
        ),
        preds=predicates,
    )
    def insert(self, row, preds):
        values = ", ".join(_sql(v) for v in row)
        self.db.execute(f"INSERT INTO t VALUES ({values})")
        self.check(preds)

    @rule(
        assignment=st.sampled_from(sorted(_ASSIGNABLE)).flatmap(
            lambda column: st.tuples(st.just(column), _ASSIGNABLE[column])
        ),
        key=st.integers(0, SEED_ROWS - 1),
        preds=predicates,
    )
    def update_value(self, assignment, key, preds):
        """In place, possibly far from the values around it."""
        column, value = assignment
        self.db.execute(
            f"UPDATE t SET {column} = {_sql(value)} WHERE id = {key}"
        )
        self.check(preds)

    @rule(
        low=st.integers(0, SEED_ROWS - 1),
        span=st.integers(0, 40),
        delta=st.integers(-500, 500),
        preds=predicates,
    )
    def update_shift(self, low, span, delta, preds):
        self.db.execute(
            f"UPDATE t SET v = v + {delta}, f = f - {delta}, a = a + {delta} "
            f"WHERE id BETWEEN {low} AND {low + span}"
        )
        self.check(preds)

    @rule(
        key=st.integers(0, SEED_ROWS - 1),
        length=st.integers(150, 300),
        preds=predicates,
    )
    def update_grow(self, key, length, preds):
        """The row no longer fits its page and moves to another one."""
        self.db.execute(
            f"UPDATE t SET s = '{'y' * length}' WHERE id = {key}"
        )
        self.check(preds)

    @rule(
        low=st.integers(-5, SEED_ROWS + 20),
        span=st.integers(0, 30),
        preds=predicates,
    )
    def delete(self, low, span, preds):
        self.db.execute(
            f"DELETE FROM t WHERE id BETWEEN {low} AND {low + span}"
        )
        self.check(preds)

    # -- transactions ------------------------------------------------------

    @precondition(lambda self: not self.in_txn)
    @rule()
    def begin(self):
        self.db.execute("BEGIN")
        self.in_txn = True

    @precondition(lambda self: self.in_txn)
    @rule(preds=predicates)
    def commit(self, preds):
        self.db.execute("COMMIT")
        self.in_txn = False
        self.check(preds)

    @precondition(lambda self: self.in_txn)
    @rule(preds=predicates)
    def rollback(self, preds):
        self.db.execute("ROLLBACK")
        self.in_txn = False
        self.check(preds)

    # -- rebuilds (utility statements cannot run inside a transaction) -----

    @precondition(lambda self: not self.in_txn)
    @rule(preds=predicates)
    def analyze(self, preds):
        self.db.execute("ANALYZE t")
        self.check(preds)

    @precondition(lambda self: not self.in_txn)
    @rule(preds=predicates)
    def reopen(self, preds):
        self.db.close()
        self.db = self._open()
        self.check(preds)


ZoneMapMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=15, deadline=None
)
TestZoneMapModel = ZoneMapMachine.TestCase


@pytest.mark.slow
class TestZoneMapModelDeep(ZoneMapMachine.TestCase):
    settings = settings(
        max_examples=150, stateful_step_count=40, deadline=None
    )


def _scripted_walk():
    """Every kind of row write once, the invariant checked after each."""
    machine = ZoneMapMachine()
    try:
        machine.seed()
        for step, args in [
            (machine.insert, {"row": (1000, 3, 1.5, "r9", None, 4)}),
            (machine.update_value, {"assignment": ("b", 77), "key": 20}),
            (machine.update_grow, {"key": 21, "length": 200}),
            (machine.delete, {"low": 10, "span": 5}),
            (machine.begin, None),
            (machine.delete, {"low": 30, "span": 3}),
            (machine.update_shift, {"low": 40, "span": 3, "delta": 9}),
            (machine.rollback, {}),
        ]:
            step() if args is None else step(preds=[], **args)
            machine.indexes_hold_the_heap()
    finally:
        machine.teardown()


@pytest.mark.parametrize(
    "operation", [None, "insert", "delete", "update", "restore"]
)
def test_an_operation_that_skips_an_index_is_caught(monkeypatch, operation):
    """The invariant earns its place: let any one of ``TableInfo``'s four
    row writes forget one index and it fails (and with none mutated, the
    walk itself is sound)."""
    if operation is None:
        return _scripted_walk()
    real = getattr(TableInfo, operation)

    def mutant(self, *args):
        hidden = self.indexes.popitem() if self.indexes else None
        try:
            return real(self, *args)
        finally:
            if hidden is not None:
                self.indexes[hidden[0]] = hidden[1]

    monkeypatch.setattr(TableInfo, operation, mutant)
    with pytest.raises(AssertionError, match="ix_ba"):
        _scripted_walk()
