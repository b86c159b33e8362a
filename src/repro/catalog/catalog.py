"""The catalog: tables, indexes, and their statistics.

The catalog is the optimizer's entire view of the database.  Everything the
cost model and estimator consume — row counts, page counts, index heights,
clusteredness, histograms — lives here, refreshed by :meth:`Catalog.analyze`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..index import BPlusTree
from ..storage import RID, BufferPool, HeapFile, ZoneMaps
from ..types import Column, Schema
from .stats import ColumnStats, HistogramKind, TableStats, analyze_column


class CatalogError(Exception):
    """Raised for unknown/duplicate tables or indexes."""


@dataclass
class IndexInfo:
    """Metadata + structure for one index (always a B+-tree).

    ``columns`` is the ordered key column list (bare names); single-column
    indexes store scalar keys, composite indexes store tuples.  ``column``
    remains the *leading* column — the one that determines sort order and
    sargability of the first key part.  ``key_of`` is the index's
    ``row -> key`` function, built once by :meth:`Catalog.create_index`.
    """

    name: str
    table: str
    column: str  # leading bare column name
    clustered: bool
    structure: BPlusTree
    key_of: Callable[[Sequence[Any]], Any]
    #: pages occupied by the leaf level; set by ANALYZE
    leaf_pages: int = 0
    columns: Sequence[str] = ()

    def __post_init__(self):
        if not self.columns:
            self.columns = (self.column,)
        self.columns = tuple(self.columns)

    @property
    def is_composite(self) -> bool:
        return len(self.columns) > 1

    @property
    def height(self) -> int:
        return self.structure.height


@dataclass
class TableAccessStats:
    """Cumulative access counters for one table (``sys_stat_tables``).

    Maintained by the operators that read the table (the scans, and the
    index nested-loop join for its inner side) — every sequential scan
    start, index scan start, row produced and page touched on behalf of
    this table is counted here.  ``pages_skipped`` counts pages a columnar scan proved
    empty from zone maps and never fixed into the buffer pool: for any
    one scan, ``pages_hit + pages_read + pages_skipped`` equals the pages
    the scan would otherwise have touched.
    """

    seq_scans: int = 0
    index_scans: int = 0
    rows_read: int = 0
    pages_hit: int = 0
    pages_read: int = 0
    pages_skipped: int = 0

    def snapshot(self) -> Tuple[int, int, int, int, int, int]:
        return (
            self.seq_scans,
            self.index_scans,
            self.rows_read,
            self.pages_hit,
            self.pages_read,
            self.pages_skipped,
        )

    def add(self, delta: Sequence[int]) -> None:
        seq, idx, rows, hits, reads, skipped = delta
        self.seq_scans += seq
        self.index_scans += idx
        self.rows_read += rows
        self.pages_hit += hits
        self.pages_read += reads
        self.pages_skipped += skipped

    def delta(
        self, earlier: Sequence[int]
    ) -> Tuple[int, int, int, int, int, int]:
        now = self.snapshot()
        return tuple(n - e for n, e in zip(now, earlier))  # type: ignore[return-value]


@dataclass
class TableInfo:
    """Metadata + storage for one table, and the one door for row writes.

    :meth:`insert`, :meth:`delete`, :meth:`update` and :meth:`restore`
    are the four things the engine does to a stored row.  Each one does
    the heap write and everything the table's derived structures are
    owed for it — the zone maps widened over the page the row landed
    on, every index's entry added or removed — so zone-map soundness
    and index consistency each have one place to be wrong.  Nothing
    else calls ``structure.insert``/``structure.delete``/``zones.widen``
    (``tests/test_single_write_door.py``).
    """

    name: str
    schema: Schema
    heap: HeapFile
    indexes: Dict[str, IndexInfo] = field(default_factory=dict)  # by column
    stats: Optional[TableStats] = None
    access: TableAccessStats = field(default_factory=TableAccessStats)
    #: page-level (min, max) bounds, built by ANALYZE, widened on writes
    zones: Optional[ZoneMaps] = None

    @property
    def num_rows(self) -> int:
        return self.heap.num_rows

    @property
    def num_pages(self) -> int:
        return self.heap.num_pages

    def index_on(self, column: str) -> Optional[IndexInfo]:
        return self.indexes.get(column)

    # -- row writes -----------------------------------------------------------

    def _entered(self, rid: RID, stored: Tuple[Any, ...]) -> None:
        """*stored* now sits at *rid*: widen its page's zones, add its
        index entries."""
        if self.zones is not None:
            self.zones.widen(rid[0], stored)
        for index in self.indexes.values():
            index.structure.insert(index.key_of(stored), rid)

    def _left(self, rid: RID, row: Sequence[Any]) -> None:
        """*row* no longer sits at *rid*: drop its index entries (zone
        bounds only ever widen)."""
        for index in self.indexes.values():
            index.structure.delete(index.key_of(row), rid)

    def insert(self, row: Sequence[Any]) -> RID:
        """Validate and store *row*; returns its RID."""
        stored = self.schema.validate_row(row)
        rid = self.heap.insert_stored(stored)
        self._entered(rid, stored)
        return rid

    def delete(self, rid: RID, row: Sequence[Any]) -> None:
        """Delete the stored *row* at *rid*."""
        self.heap.delete(rid)
        self._left(rid, row)

    def update(self, rid: RID, old: Sequence[Any], new: Sequence[Any]) -> RID:
        """Replace the stored row *old* at *rid* with *new*; returns where
        it lives now (the same RID unless the row grew and moved)."""
        new_rid = self.heap.update(rid, new)  # raises on a mistyped row
        # what the heap just stored, without reading it back
        stored = self.schema.validate_row(new)
        if self.zones is not None:
            self.zones.widen(new_rid[0], stored)
        for index in self.indexes.values():
            old_key, new_key = index.key_of(old), index.key_of(stored)
            if old_key != new_key or new_rid != rid:
                index.structure.delete(old_key, rid)
                index.structure.insert(new_key, new_rid)
        return new_rid

    def restore(self, rid: RID, row: Sequence[Any]) -> RID:
        """Put *row* back under *rid* (rollback's undo of a delete)."""
        restored = self.heap.restore(rid, row)
        self._entered(restored, row)
        return restored

    def column_stats(self, column: str) -> Optional[ColumnStats]:
        if self.stats is None:
            return None
        return self.stats.column(column)


#: a system-table provider: () -> (schema, rows), snapshotted on reference
SystemTableProvider = Callable[[], Tuple[Schema, List[Tuple[Any, ...]]]]


class Catalog:
    """All tables and indexes of one database instance."""

    def __init__(self, pool: BufferPool):
        self.pool = pool
        self._tables: Dict[str, TableInfo] = {}
        self._system_tables: Dict[str, SystemTableProvider] = {}
        #: transaction manager whose hooks new heaps report mutations to
        #: (attached by the engine; None = no transaction support)
        self.txn = None

    # -- tables ----------------------------------------------------------------

    def create_table(self, name: str, schema: Schema) -> TableInfo:
        key = name.lower()
        if key in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        qualified = schema.renamed(name) if any(
            c.table != name for c in schema
        ) else schema
        heap = HeapFile(self.pool, qualified, name)
        heap.hooks = self.txn
        info = TableInfo(name, qualified, heap)
        self._tables[key] = info
        return info

    def drop_table(self, name: str) -> None:
        info = self.table(name)
        self.pool.discard_file(info.heap.file_id)
        self.pool.disk.drop_file(info.heap.file_id)
        for index in info.indexes.values():
            self.pool.discard_file(index.structure.file_id)
            self.pool.disk.drop_file(index.structure.file_id)
        del self._tables[name.lower()]

    def table(self, name: str) -> TableInfo:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no such table: {name}") from None

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> List[TableInfo]:
        return list(self._tables.values())

    # -- system (virtual) tables -------------------------------------------------

    def register_system_table(
        self, name: str, provider: SystemTableProvider
    ) -> None:
        """Register a read-only virtual table.

        System tables are *providers*, not storage: referencing one in a
        query makes the engine call the provider, snapshot the returned
        rows into a transient heap table of the same name, and plan the
        statement against that — so every planner and executor feature
        (filters, joins, ORDER BY) composes with them, and
        the optimizer prices them like the tiny freshly-ANALYZEd scans
        they are.  A user table of the same name shadows the provider.
        """
        key = name.lower()
        if key in self._system_tables:
            raise CatalogError(f"system table {name!r} already registered")
        self._system_tables[key] = provider

    def is_system_table(self, name: str) -> bool:
        """True when *name* resolves to a provider (and no user table
        shadows it)."""
        key = name.lower()
        return key in self._system_tables and key not in self._tables

    def system_table_names(self) -> List[str]:
        return sorted(self._system_tables)

    def system_table_rows(
        self, name: str
    ) -> Tuple[Schema, List[Tuple[Any, ...]]]:
        """Snapshot one system table: its schema and current rows."""
        try:
            provider = self._system_tables[name.lower()]
        except KeyError:
            raise CatalogError(f"no such system table: {name}") from None
        return provider()

    # -- rows ---------------------------------------------------------------------

    def insert_rows(self, name: str, rows: Sequence[Sequence[Any]]) -> int:
        """Insert rows, maintaining every index on the table."""
        insert = self.table(name).insert
        for row in rows:
            insert(row)
        return len(rows)

    # -- indexes ---------------------------------------------------------------------

    def create_index(
        self,
        index_name: str,
        table: str,
        column,
        clustered: bool = False,
    ) -> IndexInfo:
        """Build a B+-tree index over existing rows.

        *column* is one bare column name or an ordered list of names (a
        composite key).
        ``clustered=True`` records that the heap is physically ordered by
        the leading column; the cost model prices clustered range scans as
        sequential page runs.  One index per *leading* column, and one
        clustered index per table.
        """
        info = self.table(table)
        columns: List[str] = (
            [column] if isinstance(column, str) else list(column)
        )
        if not columns:
            raise CatalogError("index needs at least one column")
        leading = columns[0]
        cols: List[Column] = [info.schema.column(c) for c in columns]
        if leading in info.indexes:
            raise CatalogError(f"index already exists on {table}.{leading}")
        if clustered and any(ix.clustered for ix in info.indexes.values()):
            raise CatalogError(f"table {table} already has a clustered index")
        dtype = (
            cols[0].dtype if len(cols) == 1 else tuple(c.dtype for c in cols)
        )
        structure = BPlusTree(self.pool, dtype, index_name)
        # the column's value for a single-column key, a tuple for a composite
        key_of = itemgetter(*[info.schema.index_of(c) for c in columns])
        for rid, row in info.heap.scan():
            structure.insert(key_of(row), rid)
        index = IndexInfo(
            index_name, info.name, leading, clustered, structure, key_of,
            columns=tuple(columns),
        )
        index.leaf_pages = self._measure_leaf_pages(index)
        info.indexes[leading] = index
        return index

    def _measure_leaf_pages(self, index: IndexInfo) -> int:
        if index.structure.num_entries == 0:
            return 1
        return index.structure.num_leaf_pages()

    # -- statistics ----------------------------------------------------------------------

    def analyze(
        self,
        name: str,
        histogram: HistogramKind = HistogramKind.EQUI_DEPTH,
        num_buckets: int = 32,
        num_mcvs: int = 8,
    ) -> TableStats:
        """Scan a table once and compute statistics for every column —
        including fresh page-level zone maps (the scan is page-aware, so
        the (min, max) bounds come for free)."""
        info = self.table(name)
        columns: Dict[str, List[Any]] = {c.name: [] for c in info.schema}
        zones = ZoneMaps(len(info.schema))
        num_rows = 0
        for (page_no, _slot), row in info.heap.scan():
            num_rows += 1
            zones.widen(page_no, row)
            for c, v in zip(info.schema, row):
                columns[c.name].append(v)
        zones._page(max(0, info.num_pages - 1))  # cover trailing empty pages
        info.zones = zones
        stats = TableStats(num_rows=num_rows, num_pages=info.num_pages)
        for c in info.schema:
            stats.columns[c.name] = analyze_column(
                c.dtype,
                columns[c.name],
                histogram=histogram,
                num_buckets=num_buckets,
                num_mcvs=num_mcvs,
            )
        info.stats = stats
        for index in info.indexes.values():
            index.leaf_pages = self._measure_leaf_pages(index)
        return stats

    def analyze_all(self, **kwargs: Any) -> None:
        for info in self.tables():
            self.analyze(info.name, **kwargs)
