"""The columnar executor's native paths ≡ the code they replace, as
properties.

* Hash and global aggregation under a columnar context fold by group
  code (``CodeFold``); the row engine folds row by row into
  ``Accumulator``s.  Over the same batches, cut anywhere, both must
  give the same rows in the same order, with the same ``repr`` — float
  sums bit for bit, ``-0.0``, infinities and NaN included.
* ``BPlusTree.probe`` returns as arrays the RIDs ``range_scan`` yields,
  fixing the same pages.
* ``sorted_rows`` sorts in the order of ``make_key_fn``'s ``SortKey``.
"""

import math
from operator import itemgetter

from hypothesis import given, settings, strategies as st

from repro.catalog import TableInfo
from repro.executor import ExecContext, build_operator, make_key_fn, sorted_rows
from repro.executor.columnar import ColumnBatch
from repro.expr import AggCall, AggFunc, ColumnRef
from repro.index import BPlusTree
from repro.index.keys import MAX_KEY, MIN_KEY
from repro.physical import PAggregate, PSeqScan
from repro.storage import BufferPool, DiskManager, HeapFile
from repro.types import DataType, schema_of

# -- aggregation ----------------------------------------------------------------

SCHEMA = schema_of(
    "t",
    ("k", DataType.INT),
    ("s", DataType.TEXT),
    ("x", DataType.FLOAT),
    ("n", DataType.INT),
    ("b", DataType.BOOL),
)
NAMES = ("k", "s", "x", "n", "b")
FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, -2.25, math.inf, -math.inf, math.nan]),
    st.floats(),
)
INTS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2**62, 2**63 - 1, -(2**63), -(2**62) - 7]),
)
VALUES = {
    "k": st.integers(0, 3),
    "s": st.sampled_from(["", "a", "b", "a\x00", "é"]),
    "x": FLOATS,
    "n": INTS,
    "b": st.booleans(),
}
#: what each aggregate may take (AVG of TEXT has no answer in either fold)
ARGS = {
    AggFunc.COUNT: NAMES,
    AggFunc.SUM: ("k", "s", "x", "n", "b"),
    AggFunc.AVG: ("k", "x", "n", "b"),
    AggFunc.MIN: NAMES,
    AggFunc.MAX: NAMES,
}


@st.composite
def aggregations(draw):
    """A random aggregate over random batches: ``(group keys, aggs,
    batches)``."""
    rows = draw(
        st.lists(
            st.tuples(*(st.one_of(st.none(), VALUES[c]) for c in NAMES)),
            max_size=60,
        )
    )
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=5)))
    bounds = [0, *cuts, len(rows)]
    batches = [
        ColumnBatch.from_rows(SCHEMA, rows[lo:hi])
        for lo, hi in zip(bounds, bounds[1:])
        if hi > lo
    ]
    keys = draw(
        st.lists(st.sampled_from(("k", "s", "x", "b")), max_size=2, unique=True)
    )
    aggs = []
    for _ in range(draw(st.integers(0, 5))):
        func = draw(st.sampled_from(list(AggFunc)))
        if func is AggFunc.COUNT and draw(st.booleans()):
            aggs.append(AggCall(AggFunc.COUNT, None))
            continue
        arg = draw(st.sampled_from(ARGS[func]))
        aggs.append(AggCall(func, ColumnRef(f"t.{arg}"), draw(st.booleans())))
    return keys, tuple(aggs), batches


class Feed:
    """A child operator that hands over fixed batches."""

    def __init__(self, batches):
        self.batches = batches

    def open(self):
        self._it = iter(self.batches)

    def next_batch(self, max_rows=None):
        return next(self._it, None)

    def close(self):
        pass


def aggregate(keys, aggs, batches, columnar):
    pool = BufferPool(DiskManager(512), 8)
    scan = PSeqScan(TableInfo("t", SCHEMA, HeapFile(pool, SCHEMA, "t")), "t")
    plan = PAggregate(
        scan,
        tuple(ColumnRef(f"t.{k}") for k in keys),
        tuple(keys),
        aggs,
        scan.schema,  # the operator never reads its own schema
    )
    op = build_operator(plan, ExecContext(pool, columnar=columnar))
    op.child = Feed(batches)
    op.open()
    try:
        return [row for batch in iter(op.next_batch, None) for row in batch]
    finally:
        op.close()


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the two must fail alike
        return type(exc).__name__


@settings(max_examples=400, deadline=None)
@given(aggregations())
def test_codes_fold_equals_the_accumulator_fold(case):
    keys, aggs, batches = case
    # the scalar engine sees the rows the pages would decode to
    rows = [batch.to_rows() for batch in batches]
    want = outcome(aggregate, keys, aggs, rows, False)
    got = outcome(aggregate, keys, aggs, batches, True)
    assert got == want


def test_signed_zeros_and_nan_order_kept():
    """A sum of ``-0.0`` is ``-0.0``; ``min``/``max`` keep the first of
    ``-0.0`` and ``0.0`` within a batch and across batches, and a NaN's
    place in a group decides what they return."""
    aggs = tuple(
        AggCall(func, ColumnRef("t.x"))
        for func in (AggFunc.SUM, AggFunc.AVG, AggFunc.MIN, AggFunc.MAX)
    )
    streams = [
        [[-0.0], [-0.0]],
        [[0.0, -0.0], [-0.0]],
        [[-0.0], [0.0, -0.0]],
        [[math.nan, 1.0], [2.0]],
        [[1.0, math.nan], [0.5]],
        [[1.0], [math.nan, 0.5]],
    ]
    for stream in streams:
        batches = [
            ColumnBatch.from_rows(SCHEMA, [(0, "", x, 0, True) for x in xs])
            for xs in stream
        ]
        want = aggregate(["k"], aggs, [b.to_rows() for b in batches], False)
        assert repr(aggregate(["k"], aggs, batches, True)) == repr(want)


def test_int_sums_beyond_int64_stay_exact():
    batches = [
        ColumnBatch.from_rows(SCHEMA, [(1, "a", 0.5, 2**63 - 1, True)] * 3)
    ] * 2
    aggs = (
        AggCall(AggFunc.SUM, ColumnRef("t.n")),
        AggCall(AggFunc.AVG, ColumnRef("t.n")),
    )
    got = aggregate(["k"], aggs, batches, True)
    assert got == [(1, 6 * (2**63 - 1), (2**63 - 1) * 6 / 6)]
    assert got == aggregate(
        ["k"], aggs, [b.to_rows() for b in batches], False
    )


# -- the index probe ------------------------------------------------------------------

KEY_VALUES = {
    DataType.INT: st.integers(-4, 4),
    DataType.TEXT: st.sampled_from(["", "a", "bb", "a" * 12, "é"]),
    DataType.FLOAT: st.sampled_from([-1.5, -0.0, 0.0, 2.0, math.inf]),
}


@st.composite
def trees(draw):
    """A B+-tree of few distinct keys (so duplicates run across leaves),
    NULLs in one-column trees, some entries deleted; and probe keys."""
    dtypes = draw(
        st.lists(st.sampled_from(list(KEY_VALUES)), min_size=1, max_size=2)
    )
    composite = len(dtypes) > 1
    parts = [
        st.one_of(st.none(), KEY_VALUES[d]) if not composite and draw(
            st.booleans()
        ) else KEY_VALUES[d]
        for d in dtypes
    ]
    key = st.tuples(*parts) if composite else parts[0]
    keys = draw(st.lists(key, max_size=300))
    pool = BufferPool(DiskManager(256), 64)
    tree = BPlusTree(pool, dtypes if composite else dtypes[0], "ix")
    entries = [(k, (i // 7, i % 7)) for i, k in enumerate(keys)]
    for k, rid in entries:
        tree.insert(k, rid)
    for i in draw(st.lists(st.integers(0, max(0, len(entries) - 1)), max_size=40)):
        if entries:
            tree.delete(*entries[i])
    # a NaN probe bisects past every leaf's NULLs, in both alike
    probe = KEY_VALUES[dtypes[0]]
    if dtypes[0] is DataType.FLOAT:
        probe = st.one_of(probe, st.just(math.nan))
    probes = draw(st.lists(probe, min_size=1, max_size=6))
    return tree, composite, probes


def accesses(pool):
    return pool.stats.hits + pool.stats.misses


@settings(max_examples=150, deadline=None)
@given(trees())
def test_probe_equals_range_scan(case):
    tree, composite, probes = case
    pool = tree.pool
    for key in probes:
        bounds = ((key, MIN_KEY), (key, MAX_KEY)) if composite else (key, key)
        before = accesses(pool)
        want = [rid for _, rid in tree.range_scan(*bounds)]
        scanned = accesses(pool) - before
        before = accesses(pool)
        pages, slots = tree.probe(*bounds)
        assert accesses(pool) - before == scanned
        assert pages.dtype == slots.dtype == "int64"
        assert list(zip(pages.tolist(), slots.tolist())) == want


# -- sorting ------------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 3)),
            st.one_of(st.none(), st.sampled_from(["", "a", "b"])),
            st.one_of(st.none(), st.sampled_from([-1.0, -0.0, 0.0, 2.5])),
        ),
        max_size=40,
    ),
    st.lists(st.tuples(st.integers(0, 2), st.booleans()), min_size=1, max_size=3),
)
def test_sorted_rows_equals_sort_key_order(values, keys):
    # a unique last column makes every tie's order visible
    rows = [row + (i,) for i, row in enumerate(values)]
    evaluators = [itemgetter(c) for c, _ in keys]
    directions = [asc for _, asc in keys]
    want = sorted(rows, key=make_key_fn(evaluators, directions))
    assert repr(sorted_rows(rows, evaluators, directions)) == repr(want)
