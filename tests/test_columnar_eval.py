"""Property tests: columnar kernels match row-at-a-time evaluation.

``compile_expr_columnar`` / ``compile_predicate_columnar`` must agree
with ``compile_expr`` / ``compile_predicate`` on every row — values AND
Python types (an ``int`` result must stay ``int``, never ``float`` or
``numpy.int64``) — including three-valued NULL logic, IN lists with
NULLs, BETWEEN, LIKE, mixed INT/FLOAT coercion, and division by zero
yielding NULL.  The round-trip ``from_rows``/``to_rows`` conversion is
asserted loss-free on the same batches.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.executor.columnar import ColumnBatch, as_row_batch
from repro.expr import (
    Between,
    InList,
    IsNull,
    Like,
    and_,
    col,
    compile_expr,
    compile_predicate,
    eq,
    ge,
    gt,
    le,
    lit,
    lt,
    ne,
    not_,
    or_,
)
from repro.expr.nodes import ArithOp, Arithmetic, Negate
from repro.expr.vector import (
    compile_expr_columnar,
    compile_predicate_columnar,
)
from repro.types import DataType, schema_of

SCHEMA = schema_of(
    "t",
    ("i", DataType.INT),
    ("j", DataType.INT),
    ("f", DataType.FLOAT),
    ("s", DataType.TEXT),
)

# NULL-heavy value pools: roughly a third of all values are NULL so
# three-valued logic paths get exercised constantly
ints = st.one_of(st.none(), st.none(), st.integers(-5, 5), st.integers(-5, 5))
floats = st.one_of(st.none(), st.floats(-4, 4, allow_nan=False))
texts = st.one_of(st.none(), st.sampled_from(["", "a", "ab", "ba%", "a_c"]))

rows = st.tuples(ints, ints, floats, texts)
row_lists = st.lists(rows, min_size=0, max_size=40)

# numeric leaves mix INT columns, a FLOAT column and both literal kinds,
# so coercion edges (INT op FLOAT) are constantly exercised
num_leaf = st.one_of(
    st.sampled_from([col("i"), col("j"), col("f")]),
    st.integers(-5, 5).map(lit),
    st.floats(-4, 4, allow_nan=False).map(lit),
)

num_exprs = st.recursive(
    num_leaf,
    lambda inner: st.builds(
        Arithmetic,
        st.sampled_from(list(ArithOp)),
        inner,
        inner,
    )
    | inner.map(Negate),
    max_leaves=6,
)

comparisons = st.builds(
    lambda make, a, b: make(a, b),
    st.sampled_from([eq, ne, lt, le, gt, ge]),
    num_exprs,
    num_exprs,
)

text_comparisons = st.builds(
    lambda make, b: make(col("s"), b),
    st.sampled_from([eq, ne, lt, le, gt, ge]),
    st.sampled_from(["", "a", "ab", "zz"]).map(lit),
)

in_lists = st.builds(
    InList,
    num_exprs,
    st.lists(
        st.one_of(st.integers(-5, 5).map(lit), st.just(lit(None))),
        min_size=1,
        max_size=4,
    ).map(tuple),
    st.booleans(),
)

text_in_lists = st.builds(
    InList,
    st.just(col("s")),
    st.lists(
        st.one_of(
            st.sampled_from(["", "a", "ab"]).map(lit), st.just(lit(None))
        ),
        min_size=1,
        max_size=3,
    ).map(tuple),
    st.booleans(),
)

betweens = st.builds(Between, num_exprs, num_exprs, num_exprs, st.booleans())

likes = st.builds(
    Like,
    st.just(col("s")),
    st.sampled_from(["%", "a%", "%b", "_", "a_", "%a%", "ba\\%", ""]),
    st.booleans(),
)

null_tests = st.builds(
    IsNull,
    st.one_of(num_exprs, st.just(col("s"))),
    st.booleans(),
)

predicates = st.recursive(
    st.one_of(
        comparisons,
        text_comparisons,
        in_lists,
        text_in_lists,
        betweens,
        likes,
        null_tests,
    ),
    lambda inner: st.builds(and_, inner, inner)
    | st.builds(or_, inner, inner)
    | inner.map(not_),
    max_leaves=8,
)


def eval_columnar(expr, batch):
    """Run the columnar kernel and normalize to a Python value list."""
    kernel = compile_expr_columnar(expr, SCHEMA)
    data, valid = kernel(ColumnBatch.from_rows(SCHEMA, batch))
    values = data.tolist()
    if valid is not None:
        for i in np.flatnonzero(~valid).tolist():
            values[i] = None
    return values


def assert_identical(got, expected):
    # NaN (an overflowed quotient's remainder) is identical to NaN here
    assert len(got) == len(expected)
    assert all(a == b or (a != a and b != b) for a, b in zip(got, expected)), (
        got,
        expected,
    )
    # bit-identity includes Python types: 1 vs 1.0 vs True must not mix
    assert [type(v) for v in got] == [type(v) for v in expected]


@settings(max_examples=300, deadline=None)
@given(expr=predicates, batch=row_lists)
def test_predicate_columnar_matches_rows(expr, batch):
    row_fn = compile_expr(expr, SCHEMA)
    assert_identical(eval_columnar(expr, batch), [row_fn(r) for r in batch])

    row_pred = compile_predicate(expr, SCHEMA)
    mask = compile_predicate_columnar(expr, SCHEMA)(
        ColumnBatch.from_rows(SCHEMA, batch)
    )
    assert mask.tolist() == [row_pred(r) for r in batch]


@settings(max_examples=300, deadline=None)
@given(expr=num_exprs, batch=row_lists)
def test_arithmetic_columnar_matches_rows(expr, batch):
    row_fn = compile_expr(expr, SCHEMA)
    assert_identical(eval_columnar(expr, batch), [row_fn(r) for r in batch])


@settings(max_examples=200, deadline=None)
@given(batch=row_lists)
def test_row_round_trip_is_lossless(batch):
    cb = ColumnBatch.from_rows(SCHEMA, batch)
    assert len(cb) == len(batch)
    back = cb.to_rows()
    assert back == batch
    for row, orig in zip(back, batch):
        assert [type(v) for v in row] == [type(v) for v in orig]
    # as_row_batch passes lists through untouched and converts batches
    assert as_row_batch(batch) is batch
    assert as_row_batch(cb) == batch


def test_empty_batch():
    expr = eq(col("i"), lit(1))
    assert eval_columnar(expr, []) == []
    cb = ColumnBatch.from_rows(SCHEMA, [])
    assert not cb
    assert cb.to_rows() == []


def test_division_by_zero_is_null():
    expr = Arithmetic(ArithOp.DIV, col("i"), col("j"))
    got = eval_columnar(expr, [(6, 0, None, None), (6, 3, None, None)])
    assert got == [None, 2.0]
    mod = Arithmetic(ArithOp.MOD, col("i"), col("j"))
    assert eval_columnar(mod, [(6, 0, None, None)]) == [None]


def test_big_ints_degrade_to_object_lanes():
    huge = 2**70
    batch = [(huge, 1, None, None), (None, 2, None, None)]
    cb = ColumnBatch.from_rows(SCHEMA, batch)
    assert cb.to_rows() == batch
    expr = Arithmetic(ArithOp.ADD, col("i"), col("j"))
    assert eval_columnar(expr, batch) == [huge + 1, None]


def test_take_filter_slice_concat():
    batch = [(1, 10, 1.5, "a"), (2, None, None, "b"), (3, 30, 3.5, None)]
    cb = ColumnBatch.from_rows(SCHEMA, batch)
    assert cb.take(np.array([2, 0])).to_rows() == [batch[2], batch[0]]
    assert cb.filter(np.array([True, False, True])).to_rows() == [
        batch[0],
        batch[2],
    ]
    assert cb.slice(1, 3).to_rows() == batch[1:3]
    assert ColumnBatch.concat([cb, cb.slice(0, 1)]).to_rows() == (
        batch + batch[:1]
    )
