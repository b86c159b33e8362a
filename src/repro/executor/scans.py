"""Leaf operators: sequential, index, and index-only scans.

All page access goes through the buffer pool via the heap/index
structures, so I/O counters reflect real behaviour.  Scans are the pure
batch producers: they pull up to ``batch_size`` rows per call and apply
their predicate to the batch — a kernel over a ``ColumnBatch``, the
scalar closure row by row over a row batch.

Snapshot visibility (MVCC) is applied here, at the leaves.  When the
context carries a :class:`repro.wal.Snapshot`, every scan first asks the
version store for the table's *overlay* — the per-rid corrections this
snapshot needs on top of the live heap (``None`` in the overwhelmingly
common case where the heap already matches the snapshot, which keeps the
fast paths byte-identical to non-MVCC execution).  With an overlay:

* heap rows at overlaid rids are substituted (older image) or hidden
  (the row did not exist yet);
* rows deleted after the snapshot began are resurrected as *ghosts*;
* index scans suppress entries for overlaid rids and merge the visible
  images back **in key order** (via ``key_lt``), because the optimizer
  exploits index output order (merge joins, ORDER BY elimination);
* the columnar path falls back to row-at-a-time decoding — zone maps
  are rebuilt from the live heap, so page skipping is unsound under an
  overlay and is disabled with it.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from ..expr import compile_predicate
from ..expr.vector import compile_predicate_columnar
from ..index.keys import key_lt
from ..physical import PIndexOnlyScan, PIndexScan, PSeqScan
from ..storage import SlottedPage, deserialize_row, page_skipper
from .columnar import ColumnBatch
from .operator import Batch, Operator, operator_for
from .pagedecode import decode_page_columns, decode_pages_columns

RID = Tuple[int, int]
Overlay = Tuple[Dict[RID, Optional[Tuple]], Dict[RID, Tuple]]


def table_overlay(ctx, info) -> Optional[Overlay]:
    """The snapshot's (replace, ghosts) correction for *info*'s table, or
    ``None`` when the live heap is already what the snapshot sees."""
    if ctx.snapshot is None:
        return None
    return ctx.snapshot.scan_overlay(info)


class _KeyOrder:
    """Sort adapter over the index key total order (NULLs first)."""

    __slots__ = ("key",)

    def __init__(self, key: Any):
        self.key = key

    def __lt__(self, other: "_KeyOrder") -> bool:
        return key_lt(self.key, other.key)


def _key_in_bounds(plan, key: Any) -> bool:
    """Would the index scan described by *plan* have emitted *key*?"""
    low, high, li, hi = _index_bounds(plan)
    if key is None:
        # bounded scans never return NULL keys (SQL comparison
        # semantics); fully unbounded scans include them
        return low is None and high is None
    if low is not None:
        if li:
            if key_lt(key, low):
                return False
        elif not key_lt(low, key):
            return False
    if high is not None:
        if hi:
            if key_lt(high, key):
                return False
        elif not key_lt(key, high):
            return False
    return True


def index_overlay(plan, overlay: Overlay) -> Tuple[Set[RID], List[Tuple[Any, Tuple]]]:
    """Translate a table overlay into index-scan terms.

    Returns ``(skip, injected)``: rids whose index entries must be
    suppressed (their heap row is not what this snapshot sees), and the
    key-sorted ``(key, row)`` list of visible images whose key falls
    inside the scan bounds, ready to merge into the entry stream.
    """
    replace, ghosts = overlay
    skip = set(replace) | set(ghosts)
    key_of = plan.index.key_of
    injected: List[Tuple[Any, Tuple]] = []
    for row in replace.values():
        if row is not None:
            key = key_of(row)
            if _key_in_bounds(plan, key):
                injected.append((key, row))
    for row in ghosts.values():
        key = key_of(row)
        if _key_in_bounds(plan, key):
            injected.append((key, row))
    injected.sort(key=lambda kr: _KeyOrder(kr[0]))
    return skip, injected


def merged_entries(
    plan, overlay: Overlay
) -> Iterator[Tuple[Any, Optional[RID], Optional[Tuple]]]:
    """The index scan *plan* as the snapshot behind *overlay* sees it:
    ``(key, rid, None)`` for each live entry the overlay leaves alone and
    ``(key, None, row)`` for each visible image, merged in key order
    (downstream operators may rely on the index sort order)."""
    skip, injected = index_overlay(plan, overlay)
    i, n = 0, len(injected)
    for key, rid in index_entries(plan):
        while i < n and not key_lt(key, injected[i][0]):
            yield injected[i][0], None, injected[i][1]
            i += 1
        if rid not in skip:
            yield key, rid, None
    for key, row in injected[i:]:
        yield key, None, row


class TableReader(Operator):
    """Shared per-table accounting for the operators that touch pages on
    behalf of a base table (``plan.table``): the leaf scan family and the
    index nested-loop join, for its inner side.

    Attributing buffer traffic to ``table.access`` is exact: a hit/miss
    delta around each pull from the table, an interval no child's I/O
    falls into (leaf operators have no children; the join pulls its outer
    batch before the interval opens).  The counters are always on — the
    cost is a handful of attribute reads per *batch* — and feed
    ``sys_stat_tables``.
    """

    def _pull_counted(self, produce) -> Batch:
        """Run *produce()* and charge its page traffic + rows to the
        scanned table."""
        bstats = self.ctx.pool.stats
        hits0 = bstats.hits
        misses0 = bstats.misses
        batch = produce()
        access = self.plan.table.access
        access.pages_hit += bstats.hits - hits0
        access.pages_read += bstats.misses - misses0
        if batch:
            access.rows_read += len(batch)
        return batch


@operator_for(PSeqScan)
class SeqScanOp(TableReader):
    """Full heap scan with an optional pushed-down predicate.

    Under a columnar context (``ctx.columnar``) the scan decodes whole
    pages straight into :class:`ColumnBatch` columns (per-record row
    decode only as a NULL fallback), evaluates the pushed-down predicate
    as a vectorized kernel, and — when the table has zone maps — skips
    pages whose (min, max) bounds prove no row can match, before the
    page is ever fixed into the buffer pool.
    """

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.predicate = (
            compile_predicate(plan.predicate, plan.schema)
            if plan.predicate is not None and not ctx.columnar
            else None
        )
        self.predicate_columnar = (
            compile_predicate_columnar(plan.predicate, plan.schema)
            if plan.predicate is not None and ctx.columnar
            else None
        )
        self._rows: Optional[Iterator[Tuple[Any, ...]]] = None
        self._pages: Optional[Iterator[int]] = None
        self._parts: list = []
        self._buffered = 0
        self._skip = None

    def _open(self):
        self._rows = None  # created lazily so the first page read is timed
        self._pages = None
        self._parts = []
        self._buffered = 0
        self._skip = None

    def _visible_rows(self, overlay: Overlay) -> Iterator[Tuple[Any, ...]]:
        """Heap scan with snapshot corrections applied in rid order;
        ghosts (rows deleted after the snapshot) come after the heap's
        rows — a seq scan promises no ordering, so appending is fine."""
        replace, ghosts = overlay
        for rid, row in self.plan.table.heap.scan():
            if rid in replace:
                older = replace[rid]
                if older is not None:
                    yield older
                continue
            yield row
        for rid in sorted(ghosts):
            yield ghosts[rid]

    def _start_scan(self) -> Iterator[Tuple[Any, ...]]:
        self.plan.table.access.seq_scans += 1
        overlay = table_overlay(self.ctx, self.plan.table)
        if overlay is not None:
            return self._visible_rows(overlay)
        return self.plan.table.heap.scan_rows()

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self.ctx.columnar:
            return self._next_batch_columnar(max_rows)
        if self._rows is None:
            self._rows = self._start_scan()
        n = self._target(max_rows)
        metrics = self.ctx.metrics
        predicate = self.predicate
        while True:
            batch = self._pull_counted(lambda: list(islice(self._rows, n)))
            if not batch:
                return None
            metrics.rows_scanned += len(batch)
            if predicate is None:
                return batch
            out = [row for row in batch if predicate(row)]
            if out:
                return out
            # whole batch filtered out: pull more instead of going empty

    def _close(self):
        self._rows = None
        self._pages = None
        self._parts = []
        self._buffered = 0

    # -- columnar path ------------------------------------------------------

    def _start_pages(self) -> Iterator[int]:
        plan = self.plan
        plan.table.access.seq_scans += 1
        if plan.table.zones is not None and plan.predicate is not None:
            self._skip = page_skipper(
                plan.predicate, plan.schema, plan.table.zones
            )
        # pages per decode span: enough to fill one target batch, bounded
        # so a span never holds more than a modest slice of the file
        page_size = self.plan.table.heap.pool.disk.page_size
        est_rows = max(1, page_size // plan.schema.estimated_row_bytes())
        self._span = max(1, min(64, -(-self.ctx.batch_size // est_rows)))
        return iter(range(plan.table.heap.num_pages))

    def _decode_next_span(self) -> Optional[ColumnBatch]:
        """The next span of non-skipped pages as one ColumnBatch."""
        plan = self.plan
        heap = plan.table.heap
        schema = plan.schema
        skip = self._skip
        while True:
            raws: list = []
            for page_no in self._pages:
                if skip is not None and skip(page_no):
                    plan.table.access.pages_skipped += 1
                    self.ctx.metrics.pages_skipped += 1
                    continue
                raws.append(heap.page_bytes(page_no))
                if len(raws) >= self._span:
                    break
            if not raws:
                return None
            decoded = decode_pages_columns(schema, raws)
            if decoded is not None:
                columns, count = decoded
                if count == 0:
                    continue
                return ColumnBatch(schema, columns, count)
            # NULLs somewhere in the span: decode page by page, dropping
            # to the per-record row decoder only where needed
            parts: list = []
            for raw in raws:
                single = decode_page_columns(schema, raw)
                if single is None:
                    rows = [
                        deserialize_row(schema, rec)
                        for _, rec in SlottedPage(raw).records()
                    ]
                    if rows:
                        parts.append(ColumnBatch.from_rows(schema, rows))
                else:
                    columns, count = single
                    if count:
                        parts.append(ColumnBatch(schema, columns, count))
            if not parts:
                continue
            if len(parts) == 1:
                return parts[0]
            return ColumnBatch.concat(parts)

    def _next_batch_columnar_rows(self, max_rows=None) -> Optional[ColumnBatch]:
        """Columnar scan under a snapshot overlay: decode row-at-a-time
        (zone-map skipping would consult live-heap bounds that the
        snapshot's older images may violate) and columnarize per batch."""
        n = self._target(max_rows)
        predicate = self.predicate_columnar
        while True:
            rows = self._pull_counted(lambda: list(islice(self._rows, n)))
            if not rows:
                return None
            self.ctx.metrics.rows_scanned += len(rows)
            batch = ColumnBatch.from_rows(self.plan.schema, rows)
            if predicate is not None:
                batch = batch.filter(predicate(batch))
                if not batch:
                    continue
            return batch

    def _next_batch_columnar(self, max_rows=None) -> Optional[ColumnBatch]:
        if self._rows is not None:
            return self._next_batch_columnar_rows(max_rows)
        if self._pages is None:
            overlay = table_overlay(self.ctx, self.plan.table)
            if overlay is not None:
                self.plan.table.access.seq_scans += 1
                self._rows = self._visible_rows(overlay)
                return self._next_batch_columnar_rows(max_rows)
            self._pages = self._start_pages()
        n = self._target(max_rows)
        metrics = self.ctx.metrics
        predicate = self.predicate_columnar
        # accumulate decoded (and filtered) pages up to the target size,
        # so downstream operators see full-size batches, not page-size
        # slivers; the tail past the target carries over to the next call
        parts = self._parts
        buffered = self._buffered
        while buffered < n:
            batch = self._pull_counted(self._decode_next_span)
            if batch is None:
                break
            metrics.rows_scanned += len(batch)
            if predicate is not None:
                batch = batch.filter(predicate(batch))
                if not batch:
                    continue
            parts.append(batch)
            buffered += len(batch)
        if not parts:
            self._buffered = 0
            return None
        combined = ColumnBatch.concat(parts) if len(parts) > 1 else parts[0]
        if buffered > n:
            self._parts = [combined.slice(n, buffered)]
            self._buffered = buffered - n
            return combined.slice(0, n)
        self._parts = []
        self._buffered = 0
        return combined


def _index_bounds(plan) -> Tuple[Any, Any, bool, bool]:
    low = None if plan.low.unbounded else plan.low.value
    high = None if plan.high.unbounded else plan.high.value
    return low, high, plan.low.inclusive, plan.high.inclusive


def index_entries(plan) -> Iterator[Tuple[Any, RID]]:
    """The ``(key, rid)`` entries the index scan *plan* describes, in
    key order."""
    low, high, li, hi = _index_bounds(plan)
    return plan.index.structure.range_scan(low, high, li, hi)


def live_rows(plan, predicate=None) -> Iterator[Tuple[RID, Tuple[Any, ...]]]:
    """``(rid, row)`` pairs of a ``PSeqScan``/``PIndexScan`` read off the
    *current* heap, with no snapshot overlay: the index scan operator's
    fast path, and the way UPDATE/DELETE find their victims (the writer
    holds the table's exclusive lock and must see its own uncommitted
    rows).  *predicate* is an optional compiled row predicate; callers
    that filter by batch pass none."""
    table = plan.table
    if isinstance(plan, PSeqScan):
        table.access.seq_scans += 1
        pairs = table.heap.scan()
    else:
        table.access.index_scans += 1
        # interleaved with the entry iteration, one fetch per entry
        fetch = table.heap.fetch
        pairs = ((rid, fetch(rid)) for _, rid in index_entries(plan))
    for rid, row in pairs:
        # a None row was deleted since its index entry was made
        if row is not None and (predicate is None or predicate(row)):
            yield rid, row


@operator_for(PIndexScan)
class IndexScanOp(TableReader):
    """B+-tree range scan fetching heap rows."""

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self.residual = (
            compile_predicate(plan.residual, plan.schema)
            if plan.residual is not None
            else None
        )
        self._rows: Optional[Iterator[Tuple[Any, ...]]] = None

    def _open(self):
        self._rows = None

    def _fetched(self) -> Iterator[Tuple[Any, ...]]:
        # interleave index-entry iteration with heap fetches so the page
        # access pattern (and hence the buffer pool's hit/read split) is
        # the same at every batch size
        overlay = table_overlay(self.ctx, self.plan.table)
        if overlay is None:
            for _, row in live_rows(self.plan):
                yield row
            return
        self.plan.table.access.index_scans += 1
        fetch = self.plan.table.heap.fetch
        for _, rid, row in merged_entries(self.plan, overlay):
            if row is None:
                row = fetch(rid)  # None: deleted since the entry was made
            if row is not None:
                yield row

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._rows is None:
            self._rows = self._fetched()
        n = self._target(max_rows)
        metrics = self.ctx.metrics
        residual = self.residual
        while True:
            batch = self._pull_counted(lambda: list(islice(self._rows, n)))
            if not batch:
                return None
            metrics.rows_scanned += len(batch)
            if residual is not None:
                batch = [row for row in batch if residual(row)]
            if batch:
                return batch

    def _close(self):
        self._rows = None


@operator_for(PIndexOnlyScan)
class IndexOnlyScanOp(TableReader):
    """Answer directly from index entries (key column only, no heap I/O)."""

    def __init__(self, plan, ctx):
        super().__init__(plan, ctx)
        self._entries = None

    def _open(self):
        self._entries = None

    def _keys(self) -> Iterator[Any]:
        self.plan.table.access.index_scans += 1
        overlay = table_overlay(self.ctx, self.plan.table)
        if overlay is None:
            entries = index_entries(self.plan)
        else:
            entries = merged_entries(self.plan, overlay)
        for entry in entries:
            yield entry[0]

    def _next_batch(self, max_rows=None) -> Optional[Batch]:
        if self._entries is None:
            self._entries = self._keys()
        n = self._target(max_rows)
        batch = self._pull_counted(
            lambda: [(key,) for key in islice(self._entries, n)]
        )
        if not batch:
            return None
        self.ctx.metrics.rows_scanned += len(batch)
        return batch

    def _close(self):
        self._entries = None
