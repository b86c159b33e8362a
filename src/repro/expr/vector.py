"""Columnar expression kernels: the vectorized compiler.

``compile_expr_columnar(expr, schema)`` returns a kernel
``ColumnBatch -> (data, valid)`` where ``data`` is a numpy array of
per-row results and ``valid`` an optional boolean mask (``None`` = all
valid).  Three-valued logic is carried in the mask: a NULL result is an
invalid lane.  Semantics are bit-for-bit those of the scalar compiler
(``compile_expr``, ``expr/eval.py``) — the same NULL propagation, Kleene
AND/OR, IN/BETWEEN/LIKE edge cases, and ``x/0 -> NULL`` — asserted by
the hypothesis parity suite in ``tests/test_columnar_eval.py``; the
operators themselves are ``CMP_FNS``/``ARITH_FNS`` of ``expr/nodes.py``,
applied to arrays.  The two compilers know the same node classes
(``tests/test_expr_coverage.py``), so an operator that compiled its row
form can compile its kernel.

Two deliberate representation notes:

* Fixed-width INT math runs in ``int64`` and wraps past 2**63 where the
  row engine's Python ints would not; columns whose *stored* values
  exceed int64 degrade to ``object`` arrays (Python semantics, slower)
  at batch-construction time, so wrapping only arises for intermediate
  overflow of in-range inputs.
* ``object``-dtype operands (TEXT, DATE, degraded INT) are compared
  elementwise by numpy with Python operators; NULL lanes are first
  replaced by an arbitrary valid value so no ``None`` comparison is ever
  evaluated — those lanes are masked out of the result anyway.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from ..types import Schema
from .eval import infer_expr_type, like_to_regex

if TYPE_CHECKING:  # pragma: no cover - the kernels only use the protocol
    from ..executor.columnar import ColumnBatch
from .nodes import (
    ARITH_FNS,
    CMP_FNS,
    Arithmetic,
    ArithOp,
    Between,
    BoolKind,
    BoolOp,
    CmpOp,
    ColumnRef,
    Comparison,
    Expr,
    ExprError,
    InList,
    IsNull,
    Like,
    Literal,
    Negate,
    Not,
)

#: kernel result: (values array, validity mask or None-for-all-valid)
KernelResult = Tuple[np.ndarray, Optional[np.ndarray]]
Kernel = Callable[["ColumnBatch"], KernelResult]


def _and_valid(
    a: Optional[np.ndarray], b: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def _object_safe(
    data: np.ndarray, valid: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    """Copy of an object array with NULL lanes replaced by a valid value
    (so elementwise Python comparisons never see ``None``).  Returns
    ``None`` when every lane is NULL — nothing is comparable."""
    if valid is None:
        return data
    if not valid.any():
        return None
    out = data.copy()
    invalid = ~valid
    if invalid.any():
        out[invalid] = data[int(np.argmax(valid))]
    return out


def _compare(
    op: CmpOp,
    a: np.ndarray,
    av: Optional[np.ndarray],
    b: np.ndarray,
    bv: Optional[np.ndarray],
    n: int,
) -> KernelResult:
    valid = _and_valid(av, bv)
    if a.dtype == object or b.dtype == object:
        safe_a = _object_safe(a, av)
        safe_b = _object_safe(b, bv)
        if safe_a is None or safe_b is None:
            return np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        a, b = safe_a, safe_b
    with np.errstate(invalid="ignore"):
        res = CMP_FNS[op](a, b)
    return np.asarray(res, dtype=bool), valid


def _arith_object(
    fn: Callable,
    a: np.ndarray,
    av: Optional[np.ndarray],
    b: np.ndarray,
    bv: Optional[np.ndarray],
    n: int,
) -> KernelResult:
    """Elementwise Python arithmetic (*fn* of ``ARITH_FNS``) for
    object-dtype operands."""
    a_vals = a.tolist()
    b_vals = b.tolist()
    valid = _and_valid(av, bv)
    data = np.empty(n, dtype=object)
    out_valid = np.zeros(n, dtype=bool)
    lanes = range(n) if valid is None else np.flatnonzero(valid).tolist()
    for i in lanes:
        r = fn(a_vals[i], b_vals[i])
        data[i] = r
        out_valid[i] = r is not None
    return data, out_valid


def compile_expr_columnar(expr: Expr, schema: Schema) -> Kernel:
    """Compile *expr* into a ``ColumnBatch -> (data, valid)`` kernel.

    Type-checks like :func:`~repro.expr.eval.compile_expr`, and raises
    :class:`ExprError` for the same shapes it does.
    """
    infer_expr_type(expr, schema)
    return _compile_columnar(expr, schema)


def compile_predicate_columnar(
    expr: Expr, schema: Schema
) -> Callable[[ColumnBatch], np.ndarray]:
    """Columnar twin of ``compile_predicate``: a boolean *keep* mask with
    NULL mapped to False (WHERE semantics)."""
    inner = compile_expr_columnar(expr, schema)

    def run(batch: ColumnBatch) -> np.ndarray:
        data, valid = inner(batch)
        data = np.asarray(data, dtype=bool)
        if valid is None:
            return data
        return data & valid

    return run


def _compile_columnar(expr: Expr, schema: Schema) -> Kernel:
    if isinstance(expr, ColumnRef):
        idx = schema.index_of(expr.name)
        return lambda batch: batch.columns[idx]

    if isinstance(expr, Literal):
        return _literal_kernel(expr.value)

    if isinstance(expr, Comparison):
        left = _compile_columnar(expr.left, schema)
        right = _compile_columnar(expr.right, schema)
        op = expr.op

        def run_cmp(batch: ColumnBatch) -> KernelResult:
            a, av = left(batch)
            b, bv = right(batch)
            return _compare(op, a, av, b, bv, len(batch))

        return run_cmp

    if isinstance(expr, BoolOp):
        parts = [_compile_columnar(o, schema) for o in expr.operands]
        if expr.kind is BoolKind.AND:

            def run_and(batch: ColumnBatch) -> KernelResult:
                n = len(batch)
                all_true = np.ones(n, dtype=bool)
                any_false = np.zeros(n, dtype=bool)
                for part in parts:
                    d, vm = part(batch)
                    d = np.asarray(d, dtype=bool)
                    if vm is None:
                        any_false |= ~d
                        all_true &= d
                    else:
                        any_false |= vm & ~d
                        all_true &= vm & d
                # Kleene AND: False dominates NULL; the lane is valid
                # exactly when some part is False or every part is True.
                return all_true, all_true | any_false

            return run_and

        def run_or(batch: ColumnBatch) -> KernelResult:
            n = len(batch)
            any_true = np.zeros(n, dtype=bool)
            all_false = np.ones(n, dtype=bool)
            for part in parts:
                d, vm = part(batch)
                d = np.asarray(d, dtype=bool)
                if vm is None:
                    any_true |= d
                    all_false &= ~d
                else:
                    any_true |= vm & d
                    all_false &= vm & ~d
            return any_true, any_true | all_false

        return run_or

    if isinstance(expr, Not):
        inner = _compile_columnar(expr.operand, schema)

        def run_not(batch: ColumnBatch) -> KernelResult:
            d, vm = inner(batch)
            return ~np.asarray(d, dtype=bool), vm

        return run_not

    if isinstance(expr, Arithmetic):
        left = _compile_columnar(expr.left, schema)
        right = _compile_columnar(expr.right, schema)
        scalar_fn = ARITH_FNS[expr.op]
        # on arrays + - * are the table's own functions; / and % cannot
        # answer None per lane, so they mask the zero divisors out instead
        zero_is_null = expr.op in (ArithOp.DIV, ArithOp.MOD)
        array_fn = {ArithOp.DIV: np.true_divide, ArithOp.MOD: np.mod}.get(
            expr.op, scalar_fn
        )

        def run_arith(batch: ColumnBatch) -> KernelResult:
            a, av = left(batch)
            b, bv = right(batch)
            if a.dtype == object or b.dtype == object:
                return _arith_object(scalar_fn, a, av, b, bv, len(batch))
            valid = _and_valid(av, bv)
            with np.errstate(all="ignore"):
                data = array_fn(a, b)
                if zero_is_null:
                    zero = b == 0
                    valid = ~zero if valid is None else valid & ~zero
            return data, valid

        return run_arith

    if isinstance(expr, Negate):
        inner = _compile_columnar(expr.operand, schema)

        def run_neg(batch: ColumnBatch) -> KernelResult:
            d, vm = inner(batch)
            if d.dtype == object:
                vals = d.tolist()
                out = np.empty(len(vals), dtype=object)
                lanes = (
                    range(len(vals))
                    if vm is None
                    else np.flatnonzero(vm).tolist()
                )
                for i in lanes:
                    out[i] = -vals[i]
                return out, vm
            return -d, vm

        return run_neg

    if isinstance(expr, IsNull):
        inner = _compile_columnar(expr.operand, schema)
        negated = expr.negated

        def run_isnull(batch: ColumnBatch) -> KernelResult:
            _, vm = inner(batch)
            n = len(batch)
            if vm is None:
                data = np.full(n, negated, dtype=bool)
            else:
                data = vm.copy() if negated else ~vm
            return data, None

        return run_isnull

    if isinstance(expr, InList):
        inner = _compile_columnar(expr.operand, schema)
        items = [_compile_columnar(i, schema) for i in expr.items]
        negated = expr.negated

        def run_in(batch: ColumnBatch) -> KernelResult:
            v, vv = inner(batch)
            n = len(batch)
            hit = np.zeros(n, dtype=bool)
            saw_null = np.zeros(n, dtype=bool)
            for item in items:
                w, wv = item(batch)
                if wv is not None:
                    saw_null |= ~wv
                eq_data, eq_valid = _compare(CmpOp.EQ, v, vv, w, wv, n)
                hit |= eq_data if eq_valid is None else eq_data & eq_valid
            # hit -> not negated; else a NULL item -> NULL; else negated
            valid = hit | ~saw_null
            if vv is not None:
                valid &= vv
            return hit ^ negated, valid

        return run_in

    if isinstance(expr, Between):
        inner = _compile_columnar(expr.operand, schema)
        low = _compile_columnar(expr.low, schema)
        high = _compile_columnar(expr.high, schema)
        negated = expr.negated

        def run_between(batch: ColumnBatch) -> KernelResult:
            v, vv = inner(batch)
            lo, lov = low(batch)
            hi, hiv = high(batch)
            n = len(batch)
            ge_data, ge_valid = _compare(CmpOp.LE, lo, lov, v, vv, n)
            le_data, le_valid = _compare(CmpOp.LE, v, vv, hi, hiv, n)
            res = ge_data & le_data
            if negated:
                res = ~res
            return res, _and_valid(ge_valid, le_valid)

        return run_between

    if isinstance(expr, Like):
        inner = _compile_columnar(expr.operand, schema)
        match = like_to_regex(expr.pattern).match
        negated = expr.negated

        def run_like(batch: ColumnBatch) -> KernelResult:
            v, vv = inner(batch)
            n = len(batch)
            data = np.zeros(n, dtype=bool)
            lanes = range(n) if vv is None else np.flatnonzero(vv).tolist()
            for i in lanes:
                data[i] = match(v[i]) is not None
            if negated:
                data = ~data
            return data, vv

        return run_like

    raise ExprError(f"no columnar kernel for {expr!r}")


def _literal_kernel(value) -> Kernel:
    if value is None:

        def run_null(batch: ColumnBatch) -> KernelResult:
            n = len(batch)
            return np.empty(n, dtype=object), np.zeros(n, dtype=bool)

        return run_null
    if isinstance(value, bool):
        dtype: object = np.bool_
    elif isinstance(value, int):
        dtype = np.int64
    elif isinstance(value, float):
        dtype = np.float64
    else:
        dtype = object

    def run_lit(batch: ColumnBatch) -> KernelResult:
        n = len(batch)
        if dtype is object:
            data = np.empty(n, dtype=object)
            data[:] = [value] * n
            return data, None
        try:
            return np.full(n, value, dtype=dtype), None
        except OverflowError:
            data = np.empty(n, dtype=object)
            data[:] = [value] * n
            return data, None

    return run_lit
