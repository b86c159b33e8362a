"""Schemas: ordered, named, typed column lists.

A :class:`Schema` is immutable and hashable; operators derive new schemas
(projection, join concatenation, renaming) rather than mutating them.  Rows
are plain Python tuples positionally aligned with their schema — the hot
loops of the executor index tuples by integer position resolved once at
plan-build time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .datatypes import DataType, TypeError_, byte_width, check_value


class SchemaError(Exception):
    """Raised for unknown/ambiguous columns or malformed schemas."""


@dataclass(frozen=True)
class Column:
    """One column of a schema.

    ``table`` is the qualifier (a table name or alias); it may be ``None``
    for computed columns.  Equality includes the qualifier, so ``a.id`` and
    ``b.id`` are distinct columns even with identical names and types.
    """

    name: str
    dtype: DataType
    table: Optional[str] = None
    nullable: bool = True

    @property
    def qualified_name(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name

    def renamed(self, table: Optional[str]) -> "Column":
        return Column(self.name, self.dtype, table, self.nullable)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.qualified_name}:{self.dtype.value}"


class Schema:
    """An immutable ordered list of :class:`Column`.

    Lookup accepts bare names (``"id"``) and qualified names (``"t.id"``).
    Bare-name lookup raises :class:`SchemaError` if the name is ambiguous
    across qualifiers.
    """

    __slots__ = (
        "_columns",
        "_by_qualified",
        "_by_name",
        "_hash",
        "_dtypes",
        "_decode_segments",
    )

    def __init__(self, columns: Iterable[Column]):
        cols: Tuple[Column, ...] = tuple(columns)
        by_qualified: Dict[str, int] = {}
        by_name: Dict[str, List[int]] = {}
        for i, col in enumerate(cols):
            if not isinstance(col, Column):
                raise SchemaError(f"not a Column: {col!r}")
            key = col.qualified_name
            if key in by_qualified:
                raise SchemaError(f"duplicate column {key!r} in schema")
            by_qualified[key] = i
            by_name.setdefault(col.name, []).append(i)
        self._columns = cols
        self._by_qualified = by_qualified
        self._by_name = by_name
        self._hash: Optional[int] = None
        self._dtypes: Optional[Tuple[DataType, ...]] = None
        #: the row codec's compiled no-NULL decode plan for this schema
        #: (``storage.record`` builds it on the first decode and keeps it
        #: here, so a decode reads an attribute instead of hashing dtypes)
        self._decode_segments: Optional[tuple] = None

    # -- container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self._columns)

    def __getitem__(self, index: int) -> Column:
        return self._columns[index]

    def dtypes(self) -> Tuple[DataType, ...]:
        """Column dtypes as a tuple (cached)."""
        if self._dtypes is None:
            self._dtypes = tuple(col.dtype for col in self._columns)
        return self._dtypes

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._columns == other._columns

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._columns)
        return self._hash

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(str(c) for c in self._columns)
        return f"Schema({inner})"

    # -- lookup --------------------------------------------------------------

    @property
    def columns(self) -> Tuple[Column, ...]:
        return self._columns

    def index_of(self, name: str) -> int:
        """Resolve a (possibly qualified) column name to its position."""
        if name in self._by_qualified:
            return self._by_qualified[name]
        if "." in name:
            table, bare = name.split(".", 1)
            hits = [
                i
                for i in self._by_name.get(bare, [])
                if self._columns[i].table == table
            ]
            if len(hits) == 1:
                return hits[0]
            raise SchemaError(f"unknown column {name!r}")
        hits = self._by_name.get(name, [])
        if len(hits) == 1:
            return hits[0]
        if not hits:
            raise SchemaError(f"unknown column {name!r}")
        cands = ", ".join(self._columns[i].qualified_name for i in hits)
        raise SchemaError(f"ambiguous column {name!r} (candidates: {cands})")

    def has_column(self, name: str) -> bool:
        try:
            self.index_of(name)
            return True
        except SchemaError:
            return False

    def column(self, name: str) -> Column:
        return self._columns[self.index_of(name)]

    def names(self) -> List[str]:
        return [c.name for c in self._columns]

    def qualified_names(self) -> List[str]:
        return [c.qualified_name for c in self._columns]

    # -- derivation ----------------------------------------------------------

    def project(self, names: Sequence[str]) -> "Schema":
        return Schema(self._columns[self.index_of(n)] for n in names)

    def concat(self, other: "Schema") -> "Schema":
        return Schema(self._columns + other._columns)

    def renamed(self, table: str) -> "Schema":
        return Schema(c.renamed(table) for c in self._columns)

    def positions(self, names: Sequence[str]) -> List[int]:
        return [self.index_of(n) for n in names]

    # -- rows ----------------------------------------------------------------

    def validate_row(self, row: Sequence[Any]) -> Tuple[Any, ...]:
        """Type-check a row against this schema, returning the stored tuple."""
        if len(row) != len(self._columns):
            raise TypeError_(
                f"row has {len(row)} values, schema has {len(self._columns)}"
            )
        out = []
        for value, col in zip(row, self._columns):
            checked = check_value(value, col.dtype)
            if checked is None and not col.nullable:
                raise TypeError_(f"NULL in non-nullable column {col.qualified_name}")
            out.append(checked)
        return tuple(out)

    def row_dict(self, row: Sequence[Any]) -> Dict[str, Any]:
        """Render a tuple as a name->value dict (for display/tests)."""
        return {c.qualified_name: v for c, v in zip(self._columns, row)}

    def estimated_row_bytes(self) -> int:
        """Rough stored size of one row, used by cost arithmetic."""
        return sum(byte_width(c.dtype) for c in self._columns) + 2 * len(
            self._columns
        )


@dataclass
class SchemaBuilder:
    """Convenience builder used by DDL and tests."""

    table: Optional[str] = None
    _cols: List[Column] = field(default_factory=list)

    def add(
        self, name: str, dtype: DataType, nullable: bool = True
    ) -> "SchemaBuilder":
        self._cols.append(Column(name, dtype, self.table, nullable))
        return self

    def build(self) -> Schema:
        return Schema(self._cols)


def schema_of(table: Optional[str], *cols: Tuple[str, DataType]) -> Schema:
    """Shorthand: ``schema_of("t", ("id", INT), ("name", TEXT))``."""
    return Schema(Column(n, t, table) for n, t in cols)
