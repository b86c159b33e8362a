"""Batched operator execution engine with real I/O accounting.

Operators implement ``open() / next_batch() / close()`` (see
:mod:`.operator`); ``run``/``execute`` in :mod:`.run` are the facade the
rest of the engine uses.
"""

from .aggregate import Accumulator, AggregateState
from .context import ExecContext, ExecMetrics, read_spill, spill_rows
from .operator import BatchCursor, Operator, build_operator, operator_for
from .run import execute, run
from .sortutil import SortKey, cmp_values, make_key_fn, sorted_rows

__all__ = [
    "Accumulator",
    "AggregateState",
    "ExecContext",
    "ExecMetrics",
    "read_spill",
    "spill_rows",
    "BatchCursor",
    "Operator",
    "build_operator",
    "operator_for",
    "execute",
    "run",
    "SortKey",
    "cmp_values",
    "make_key_fn",
    "sorted_rows",
]
