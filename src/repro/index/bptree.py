"""A page-based B+-tree index.

Nodes live in disk pages and are accessed through the buffer pool, so every
index probe and range scan incurs real, countable page I/O — the quantity
the cost model prices (root-to-leaf descent plus leaf chain).

Design choices (documented, deliberately classic):

* Keys are one typed column or a tuple of them; duplicates are allowed.  An
  insert is routed by key alone, so what holds is: keys never decrease along
  the leaf chain and every leaf is in ``(key, rid)`` order.  Equal keys that
  span leaves are *not* in rid order from one leaf to the next; ``delete``
  and ``search`` walk every leaf that can hold the key.
* Leaves are chained left-to-right for range scans.
* Deletion is by simple removal from the leaf without rebalancing ("lazy
  deletion"), as in many production systems; underfull nodes are tolerated.
* The page is the node.  Every operation works on the pinned page image:
  it finds where the keys start, binary-searches them decoding only the
  O(log n) keys it compares, and an insert or delete moves one slice of the
  page and rewrites the 2-byte count.  While every key has the same width
  (INT/FLOAT/BOOL/DATE components and no NULL inserted yet) the key offsets
  are a ``range``; from the first TEXT or NULL on they come from a scan
  that skips keys by their tags, decoding none — the one O(n) step left on
  a visit.  A split is O(n) too: it cuts the node's bytes in two, still
  without decoding, at the middle entry unless variable-width keys make
  a half too long for the page — then at the entry nearest the middle
  where both halves fit.  Nothing decoded is kept between calls.

Page formats::

    leaf:     [0x01][nkeys:u16][next_leaf+1:u32] entries*
              entry = key_bytes + page:u32 + slot:u16
    internal: [0x02][nkeys:u16] children = (nkeys+1)*u32, then nkeys keys
"""

from __future__ import annotations

import struct
from bisect import bisect_left, bisect_right
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..storage import RID, BufferPool, PageGuard
from ..types import DataType
from .keys import (
    MAX_KEY,
    MIN_KEY,
    deserialize_key,
    entry_lt,
    key_eq,
    key_lt,
    key_size,
    serialize_key,
    skip_key,
)
from .page import BPTreeError, fill_page

_LEAF = 0x01
_INTERNAL = 0x02

_LEAF_HEADER = 7
_INTERNAL_HEADER = 3

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_RID = struct.Struct(">IH")
_LEAF_HEAD = struct.Struct(">BHI")  # tag, nkeys, next_leaf + 1
_INTERNAL_HEAD = struct.Struct(">BH")  # tag, nkeys


class _Needle:
    """A probe key that orders against decoded keys by ``key_lt`` (NULLs,
    ``MIN_KEY``/``MAX_KEY``, composite prefixes).  ``bisect(key=...)`` asks
    ``stored < needle`` (reflected to ``__gt__``) or ``needle < stored``;
    inside a ``(key, rid)`` tuple it asks ``==`` first."""

    __slots__ = ("v",)

    def __init__(self, v: Any):
        self.v = v

    def __lt__(self, other: Any) -> bool:
        return key_lt(self.v, other)

    def __gt__(self, other: Any) -> bool:
        return key_lt(other, self.v)

    def __eq__(self, other: Any) -> bool:
        return key_eq(self.v, other)


def _plain(key: Any) -> bool:
    """No NULL and no sentinel in *key*: Python's ``<`` is ``key_lt``."""
    parts = key if type(key) is tuple else (key,)
    return not any(p is None or p is MIN_KEY or p is MAX_KEY for p in parts)


class BPlusTree:
    """B+-tree over ``(key, rid)`` entries with real page I/O."""

    def __init__(self, pool: BufferPool, dtype, name: str):
        """*dtype* is a single DataType (scalar keys) or a sequence of
        DataTypes (composite keys stored as tuples)."""
        self.pool = pool
        if isinstance(dtype, DataType):
            self.dtypes: Tuple[DataType, ...] = (dtype,)
            self.composite = False
        else:
            self.dtypes = tuple(dtype)
            self.composite = len(self.dtypes) > 1
            if not self.dtypes:
                raise BPTreeError("index needs at least one key column")
        self.dtype = self.dtypes[0]
        self._deserialize_key = (
            self._deserialize_composite if self.composite else deserialize_key
        )
        self.name = name
        self.file_id = pool.disk.create_file(f"index:{name}")
        self._num_entries = 0
        self._height = 1
        # bytes per key while all keys are equally wide, None once they vary
        self._width: Optional[int] = (
            None
            if DataType.TEXT in self.dtypes
            else sum(key_size(0, t) for t in self.dtypes)
        )
        self.root_page = self._alloc_node()
        self._store(self.root_page, _LEAF_HEAD.pack(_LEAF, 0, 0))

    # -- public API ---------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def height(self) -> int:
        """Number of levels root..leaf (1 = root is a leaf)."""
        return self._height

    @property
    def num_pages(self) -> int:
        return self.pool.disk.num_pages(self.file_id)

    def num_leaf_pages(self) -> int:
        """Count leaf pages by walking the chain (costs I/O; used by ANALYZE)."""
        count = 0
        page_no: Optional[int] = self._leftmost_leaf()
        while page_no is not None:
            with self._pin(page_no) as data:
                page_no = _next_leaf(data)
            count += 1
        return count

    def insert(self, key: Any, rid: RID) -> None:
        """Insert one entry.  Duplicate keys are allowed."""
        needle = self._needle(key)
        if needle is not key:
            self._width = None  # a NULL is one byte wide: offsets need the scan
        entry = self._serialize_key(key) + _RID.pack(*rid)
        split = self._insert_into(self.root_page, self._height, needle, rid, entry)
        if split is not None:
            sep, right_page = split
            children = _U32.pack(self.root_page) + _U32.pack(right_page)
            self.root_page = self._alloc_node()
            self._store(
                self.root_page, _INTERNAL_HEAD.pack(_INTERNAL, 1) + children + sep
            )
            self._height += 1
        self._num_entries += 1

    def delete(self, key: Any, rid: RID) -> bool:
        """Remove the exact ``(key, rid)`` entry.  Returns False if absent."""
        needle = self._needle(key)
        page_no: Optional[int] = self._descend_to_leaf(needle)
        while page_no is not None:
            pin = self._pin(page_no)  # for reading: a miss leaves the page clean
            with pin as data:
                offsets, end = self._keys(data, page_no, _LEAF)
                n = len(offsets)
                i = bisect_left(
                    offsets, (needle, rid), key=lambda o: self._entry(data, o)
                )
                if i < n and self._entry(data, offsets[i]) == (needle, rid):
                    after = offsets[i + 1] if i + 1 < n else end
                    size = after - offsets[i]
                    data[offsets[i] : end - size] = data[after:end]
                    data[end - size : end] = bytes(size)
                    _U16.pack_into(data, 1, n - 1)
                    pin.write = True
                    self._num_entries -= 1
                    return True
                if n and needle < self._deserialize_key(data, offsets[-1])[0]:
                    return False
                page_no = _next_leaf(data)
        return False

    def search(self, key: Any) -> List[RID]:
        """All RIDs with exactly *key*."""
        return [rid for _, rid in self.range_scan(key, key, True, True)]

    def range_scan(
        self,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> Iterator[Tuple[Any, RID]]:
        """Entries with ``low (<|<=) key (<|<=) high`` in key order.

        ``low=None`` / ``high=None`` leave that side unbounded.  NULL keys are
        never returned by bounded scans (SQL semantics: comparisons with NULL
        are unknown) but appear in fully unbounded scans.

        What a leaf contributes is copied while the leaf is pinned, so a
        scan suspended between two entries does not see later changes to
        the leaf it is in.
        """
        bounded = low is not None or high is not None
        for entries in self._leaf_runs(
            low, high, low_inclusive, high_inclusive, self._entries
        ):
            for entry in entries:
                if entry[0] is not None or not bounded:
                    yield entry

    def probe(self, low: Any, high: Any) -> Tuple[np.ndarray, np.ndarray]:
        """The RIDs ``range_scan(low, high)`` yields, both bounds
        inclusive and given (so no NULL key is in range: NULLs sort
        first), as ``(pages, slots)`` int64 arrays: the same leaves fixed
        in the same order, and each leaf's run copied out with numpy
        while it is pinned, none of its entries decoded."""
        runs = list(self._leaf_runs(low, high, True, True, self._rid_run))
        if not runs:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        pages, slots = zip(*runs)
        if len(runs) == 1:
            return pages[0], slots[0]
        return np.concatenate(pages), np.concatenate(slots)

    def _leaf_runs(
        self,
        low: Any,
        high: Any,
        low_inclusive: bool,
        high_inclusive: bool,
        take: Callable[[bytearray, Sequence[int], int, int, int], Any],
    ) -> Iterator[Any]:
        """For each leaf holding entries in the range, in key order,
        ``take(data, offsets, i, j, end)`` of its entries ``i..j-1``
        (*end*: where its last entry ends), called while it is pinned."""
        seeking = low is not None
        page_no: Optional[int] = (
            self._descend_to_leaf(self._needle(low))
            if seeking
            else self._leftmost_leaf()
        )
        while page_no is not None:
            with self._pin(page_no) as data:
                offsets, end = self._keys(data, page_no, _LEAF)

                def key_at(o: int) -> Any:
                    return self._deserialize_key(data, o)[0]

                # needles are made per leaf: a NULL inserted while the scan
                # is suspended ends native comparison for the leaves to come
                i = 0
                if seeking:
                    side = bisect_left if low_inclusive else bisect_right
                    i = side(offsets, self._needle(low), key=key_at)
                    # duplicates of an exclusive bound can fill whole leaves
                    seeking = i == len(offsets)
                j = len(offsets)
                if high is not None:
                    side = bisect_right if high_inclusive else bisect_left
                    j = side(offsets, self._needle(high), lo=i, key=key_at)
                run = take(data, offsets, i, j, end)
                past_high = j < len(offsets)
                page_no = _next_leaf(data)
            yield run
            if past_high:
                return

    def _entries(self, data, offsets, i, j, end) -> List[Tuple[Any, RID]]:
        return [self._entry(data, o) for o in offsets[i:j]]

    def _rid_run(self, data, offsets, i, j, end) -> Tuple[np.ndarray, np.ndarray]:
        """``(pages, slots)`` of entries ``i..j-1``: an entry's RID is the
        six bytes before the next key (or the end), whatever the key's
        width."""
        if i == j:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        n = len(offsets)
        buf = np.frombuffer(data, dtype=np.uint8)
        after = np.array(
            [*offsets[i + 1 : j], offsets[j] if j < n else end], dtype=np.int64
        )
        raw = buf[(after - _RID.size)[:, None] + np.arange(_RID.size)]
        pages = raw[:, :4].copy().view(">u4").ravel().astype(np.int64)
        slots = raw[:, 4:].copy().view(">u2").ravel().astype(np.int64)
        return pages, slots

    def items(self) -> Iterator[Tuple[Any, RID]]:
        return self.range_scan(None, None)

    def validate(self) -> None:
        """Structural integrity check used by tests: ``(key, rid)`` order
        within each leaf, keys never decreasing along the chain, separator
        correctness, entry count."""
        seen = 0
        prev: Optional[Tuple[Any, RID]] = None
        page_no: Optional[int] = self._leftmost_leaf()
        while page_no is not None:
            entries, page_no = self._leaf_entries(page_no)
            for i, entry in enumerate(entries):
                # across a leaf boundary only the keys are ordered
                if prev is not None and (
                    entry_lt(entry, prev) if i else key_lt(entry[0], prev[0])
                ):
                    raise BPTreeError(f"entries out of order: {prev} then {entry}")
                prev = entry
            seen += len(entries)
        if seen != self._num_entries:
            raise BPTreeError(
                f"entry count mismatch: walked {seen}, recorded {self._num_entries}"
            )
        self._validate_node(self.root_page, self._height, None, None)

    # -- insertion internals ---------------------------------------------------------

    def _insert_into(
        self, page_no: int, level: int, needle: Any, rid: RID, entry: bytes
    ) -> Optional[Tuple[bytes, int]]:
        """Insert below *page_no* (at *level*, 1=leaf).  On split, returns
        ``(separator_key_bytes, new_right_page)`` for the parent to absorb."""
        if level == 1:
            return self._leaf_insert(page_no, needle, rid, entry)
        idx, child = self._child(page_no, needle, bisect_right)
        split = self._insert_into(child, level - 1, needle, rid, entry)
        if split is None:
            return None
        return self._internal_insert(page_no, idx, *split)

    def _leaf_insert(
        self, page_no: int, needle: Any, rid: RID, entry: bytes
    ) -> Optional[Tuple[bytes, int]]:
        size = len(entry)
        with self._pin(page_no, write=True) as data:
            offsets, end = self._keys(data, page_no, _LEAF)
            n = len(offsets)
            i = bisect_left(
                offsets, (needle, rid), key=lambda o: self._entry(data, o)
            )
            at = offsets[i] if i < n else end
            if end + size <= len(data):
                data[at + size : end + size] = data[at:end]
                data[at : at + size] = entry
                _U16.pack_into(data, 1, n + 1)
                return None
            # no room: cut the entries, the new one among them, in two
            body = data[_LEAF_HEADER:at] + entry + data[at:end]
            (next_raw,) = _U32.unpack_from(data, 3)
        offsets, end = self._offsets(body, 0, n + 1, _RID.size)
        starts = [*offsets, end]
        cut = self._cut(
            range(1, n + 1),
            (n + 1) // 2,
            lambda k: (_LEAF_HEADER + starts[k], _LEAF_HEADER + end - starts[k]),
        )
        right_page = self._alloc_node()
        self._store(
            right_page,
            _LEAF_HEAD.pack(_LEAF, n + 1 - cut, next_raw) + body[starts[cut] :],
        )
        self._store(
            page_no,
            _LEAF_HEAD.pack(_LEAF, cut, right_page + 1) + body[: starts[cut]],
        )
        return bytes(body[starts[cut] : starts[cut + 1] - _RID.size]), right_page

    def _internal_insert(
        self, page_no: int, idx: int, sep: bytes, right_page: int
    ) -> Optional[Tuple[bytes, int]]:
        """Absorb a child's split: *sep* becomes key *idx*, *right_page*
        child *idx* + 1.  The child array grows too, so the node is put
        together again; this runs once per split below, not per insert."""
        with self._pin(page_no, write=True) as data:
            offsets, end = self._keys(data, page_no, _INTERNAL)
            n = len(offsets)
            keys_at = _INTERNAL_HEADER + 4 * (n + 1)
            at = offsets[idx] if idx < n else end
            children = data[_INTERNAL_HEADER:keys_at]
            children[4 * (idx + 1) : 4 * (idx + 1)] = _U32.pack(right_page)
            keys = data[keys_at:at] + sep + data[at:end]
            if _INTERNAL_HEADER + len(children) + len(keys) <= len(data):
                fill_page(
                    data, _INTERNAL_HEAD.pack(_INTERNAL, n + 1) + children + keys
                )
                return None
            # no room: one key moves up, the rest is cut around it
            offsets, end = self._offsets(keys, 0, n + 1, 0)
            starts = [*offsets, end]
            cut = self._cut(
                range(n + 1),
                (n + 1) // 2,
                lambda k: (
                    _INTERNAL_HEADER + 4 * (k + 1) + starts[k],
                    _INTERNAL_HEADER + 4 * (n + 1 - k) + end - starts[k + 1],
                ),
            )
            fill_page(
                data,
                _INTERNAL_HEAD.pack(_INTERNAL, cut)
                + children[: 4 * (cut + 1)]
                + keys[: starts[cut]],
            )
        new_page = self._alloc_node()
        self._store(
            new_page,
            _INTERNAL_HEAD.pack(_INTERNAL, n - cut)
            + children[4 * (cut + 1) :]
            + keys[starts[cut + 1] :],
        )
        return bytes(keys[starts[cut] : starts[cut + 1]]), new_page

    def _cut(
        self, cuts: range, mid: int, sizes: Callable[[int], Tuple[int, int]]
    ) -> int:
        """Where to split a full node: at entry *mid* when both halves fit
        a page, else at the one of *cuts* nearest it where they do.
        *sizes* gives the two halves' bytes for a cut."""
        page = self.pool.disk.page_size
        for k in sorted(cuts, key=lambda k: abs(k - mid)):
            if max(sizes(k)) <= page:
                return k
        raise BPTreeError("node overflows page after split — key too large")

    # -- navigation ----------------------------------------------------------------------

    def _needle(self, key: Any) -> Any:
        """*key* in the form the binary searches take: itself while native
        ``<`` on it and on every stored key is ``key_lt``, else wrapped."""
        if self._width is not None and _plain(key):
            return key
        return _Needle(key)

    def _child(self, page_no: int, needle: Any, side) -> Tuple[int, int]:
        """``(index, page)`` of the child of internal node *page_no* that
        *side* (``bisect_left`` to read, ``bisect_right`` to insert) picks."""
        with self._pin(page_no) as data:
            offsets, _ = self._keys(data, page_no, _INTERNAL)
            idx = side(
                offsets, needle, key=lambda o: self._deserialize_key(data, o)[0]
            )
            return idx, _U32.unpack_from(data, _INTERNAL_HEADER + 4 * idx)[0]

    def _descend_to_leaf(self, needle: Any) -> int:
        page_no = self.root_page
        for _ in range(self._height - 1):
            _, page_no = self._child(page_no, needle, bisect_left)
        return page_no

    def _leftmost_leaf(self) -> int:
        page_no = self.root_page
        for _ in range(self._height - 1):
            with self._pin(page_no) as data:
                (page_no,) = _U32.unpack_from(data, _INTERNAL_HEADER)
        return page_no

    # -- node I/O -------------------------------------------------------------------------

    def _pin(self, page_no: int, write: bool = False) -> PageGuard:
        return PageGuard(self.pool, (self.file_id, page_no), write)

    def _alloc_node(self) -> int:
        page_id = self.pool.new_page(self.file_id)
        self.pool.unfix(page_id, dirty=True)
        return page_id[1]

    def _store(self, page_no: int, image: bytes) -> None:
        with self._pin(page_no, write=True) as data:
            fill_page(data, image)

    def _keys(
        self, data: bytearray, page_no: int, kind: int
    ) -> Tuple[Sequence[int], int]:
        """Where each key of the pinned node *data* starts, and where the
        last entry ends."""
        if data[0] != kind:
            what = "a leaf" if kind == _LEAF else "internal"
            raise BPTreeError(f"page {page_no} is not {what}")
        (n,) = _U16.unpack_from(data, 1)
        if kind == _LEAF:
            return self._offsets(data, _LEAF_HEADER, n, _RID.size)
        return self._offsets(data, _INTERNAL_HEADER + 4 * (n + 1), n, 0)

    def _offsets(
        self, data: bytearray, pos: int, n: int, tail: int
    ) -> Tuple[Sequence[int], int]:
        """Offsets of *n* keys from *pos* on, each followed by *tail* bytes
        that are not key, and the offset after the last."""
        if self._width is not None:
            step = self._width + tail
            end = pos + n * step
            return range(pos, end, step), end
        offsets = []
        for _ in range(n):
            offsets.append(pos)
            for _ in self.dtypes:
                pos = skip_key(data, pos)
            pos += tail
        return offsets, pos

    def _entry(self, data: bytearray, pos: int) -> Tuple[Any, RID]:
        key, pos = self._deserialize_key(data, pos)
        return key, _RID.unpack_from(data, pos)

    def _serialize_key(self, key: Any) -> bytes:
        if self.composite:
            return b"".join(
                serialize_key(k, t) for k, t in zip(key, self.dtypes)
            )
        return serialize_key(key, self.dtype)

    def _deserialize_composite(self, view: bytearray, pos: int):
        parts = []
        for _ in self.dtypes:
            value, pos = deserialize_key(view, pos)
            parts.append(value)
        return tuple(parts), pos

    # -- validation internals ------------------------------------------------------------

    def _leaf_entries(self, page_no: int) -> Tuple[List[Tuple[Any, RID]], Optional[int]]:
        with self._pin(page_no) as data:
            offsets, _ = self._keys(data, page_no, _LEAF)
            return [self._entry(data, o) for o in offsets], _next_leaf(data)

    def _validate_node(
        self, page_no: int, level: int, low: Any, high: Any
    ) -> None:
        if level == 1:
            for key, _ in self._leaf_entries(page_no)[0]:
                if low is not None and key_lt(key, low):
                    raise BPTreeError(f"leaf key {key!r} below separator {low!r}")
                # duplicates equal to the separator may sit on either side
                if high is not None and key_lt(high, key):
                    raise BPTreeError(f"leaf key {key!r} above separator {high!r}")
            return
        with self._pin(page_no) as data:
            offsets, _ = self._keys(data, page_no, _INTERNAL)
            keys = [self._deserialize_key(data, o)[0] for o in offsets]
            children = [
                c
                for (c,) in _U32.iter_unpack(
                    data[_INTERNAL_HEADER : _INTERNAL_HEADER + 4 * (len(keys) + 1)]
                )
            ]
        for i, key in enumerate(keys):
            if i > 0 and key_lt(key, keys[i - 1]):
                raise BPTreeError("internal keys out of order")
        bounds = [low] + keys + [high]
        for i, child in enumerate(children):
            self._validate_node(child, level - 1, bounds[i], bounds[i + 1])


def _next_leaf(data: bytearray) -> Optional[int]:
    (raw,) = _U32.unpack_from(data, 3)
    return raw - 1 if raw else None
