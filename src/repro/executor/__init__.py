"""Batched operator execution engine with real I/O accounting.

Operators implement ``open() / next_batch() / close()`` (see
:mod:`.operator`); ``run`` in :mod:`.run` is the facade the rest of the
engine uses.
"""

from .aggregate import Accumulator, AggregateState
from .context import ExecContext, ExecMetrics
from .operator import BatchCursor, Operator, build_operator, operator_for
from .run import run
from .sortutil import SortKey, cmp_values, make_key_fn, sorted_rows

__all__ = [
    "Accumulator",
    "AggregateState",
    "ExecContext",
    "ExecMetrics",
    "BatchCursor",
    "Operator",
    "build_operator",
    "operator_for",
    "run",
    "SortKey",
    "cmp_values",
    "make_key_fn",
    "sorted_rows",
]
