"""AST node definitions for the supported SQL subset.

Statements: SELECT (with joins, WHERE, GROUP BY/HAVING, ORDER BY, LIMIT,
DISTINCT), CREATE TABLE, CREATE INDEX, INSERT ... VALUES, ANALYZE, EXPLAIN,
DROP TABLE.  Scalar expressions reuse :mod:`repro.expr.nodes` directly —
the parser emits engine expressions, there is no separate parse-tree layer
to convert.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from ..expr.nodes import Expr
from ..types import Column, DataType, Schema
from .lexer import Token


class Statement:
    """Base class for parsed statements.

    :func:`~repro.sql.parser.parse` leaves on the statement it returns
    the ``tokens`` it was parsed from (what the statement fingerprint is
    made of) and, for a SELECT, UPDATE or DELETE without a subquery, its
    plan-cache ``key`` and the ``params`` its slotted literals hold.  None
    of the three is part of a statement's equality.
    """

    tokens: Sequence[Token] = ()
    key: Optional[Tuple[Any, ...]] = None
    params: Sequence[Any] = ()


@dataclass(frozen=True)
class TableRef:
    """A table in FROM, with optional alias: ``orders o``."""

    table: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        """The name this table is referenced by in the query."""
        return self.alias or self.table


@dataclass(frozen=True)
class JoinClause:
    """An explicit ``JOIN t ON cond`` (INNER only; CROSS has cond=None)."""

    table: TableRef
    condition: Optional[Expr]


@dataclass(frozen=True)
class SelectItem:
    """One projection item.  ``expr=None`` means ``*`` (or ``t.*`` via
    qualifier)."""

    expr: Optional[Expr]
    alias: Optional[str] = None
    star_qualifier: Optional[str] = None

    @property
    def is_star(self) -> bool:
        return self.expr is None


@dataclass(frozen=True)
class OrderItem:
    expr: Expr
    ascending: bool = True


@dataclass
class SelectStmt(Statement):
    items: List[SelectItem]
    from_tables: List[TableRef] = field(default_factory=list)
    joins: List[JoinClause] = field(default_factory=list)
    where: Optional[Expr] = None
    group_by: List[Expr] = field(default_factory=list)
    having: Optional[Expr] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True)
class ColumnDef:
    name: str
    dtype: DataType
    nullable: bool = True
    primary_key: bool = False


@dataclass
class CreateTableStmt(Statement):
    table: str
    columns: List[ColumnDef]

    def schema(self) -> Schema:
        return Schema(Column(c.name, c.dtype, self.table, c.nullable) for c in self.columns)

    def primary_key_indexes(self) -> List[Tuple[str, str]]:
        """``(index name, column)`` of the clustered index each PRIMARY KEY
        column gets, named here so a replayed CREATE TABLE agrees."""
        return [(f"pk_{self.table}_{c.name}", c.name) for c in self.columns if c.primary_key]


@dataclass
class CreateIndexStmt(Statement):
    name: str
    table: str
    column: "str | List[str]"  # one name or an ordered composite key list
    clustered: bool = False

    @property
    def columns(self) -> List[str]:
        if isinstance(self.column, str):
            return [self.column]
        return list(self.column)


@dataclass
class DropTableStmt(Statement):
    table: str


@dataclass
class InsertStmt(Statement):
    table: str
    columns: Optional[List[str]]  # None = schema order
    rows: List[Tuple[Expr, ...]]  # literal expressions only


@dataclass
class CreateViewStmt(Statement):
    name: str
    select: "SelectStmt"
    sql: str = ""


@dataclass
class DropViewStmt(Statement):
    name: str


@dataclass
class DeleteStmt(Statement):
    table: str
    where: Optional[Expr] = None


@dataclass
class UpdateStmt(Statement):
    table: str
    assignments: List[Tuple[str, Expr]] = field(default_factory=list)
    where: Optional[Expr] = None


@dataclass
class AnalyzeStmt(Statement):
    table: Optional[str] = None  # None = all tables


@dataclass
class BeginStmt(Statement):
    """``BEGIN [TRANSACTION | WORK]`` — open an explicit transaction."""


@dataclass
class CommitStmt(Statement):
    """``COMMIT [TRANSACTION | WORK]`` — make the open transaction durable."""


@dataclass
class RollbackStmt(Statement):
    """``ROLLBACK [TRANSACTION | WORK]`` — undo the open transaction."""


@dataclass
class CheckpointStmt(Statement):
    """``CHECKPOINT`` — snapshot the page store and truncate the WAL."""


@dataclass
class ExplainStmt(Statement):
    inner: SelectStmt
    analyze: bool = False
    verbose: bool = False  # more detail in whatever sections are shown
    search: bool = False  # append the optimizer's SearchTrace
    diff: bool = False  # diff the plan against the stored baseline
