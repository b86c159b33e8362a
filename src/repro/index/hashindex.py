"""Static hash index: equality-only lookups with O(1) expected page I/O.

Buckets are pages holding ``(key, rid)`` entries; overflow pages chain off a
full bucket.  The directory (bucket page numbers) is kept in memory — an
era-faithful simplification (directories were small and memory-resident).

Provides no range scans; the access-path selector only offers a hash index
for equality predicates.
"""

from __future__ import annotations

import struct
from typing import Any, Iterator, List, Optional, Tuple

from ..storage import RID, BufferPool, PageGuard
from ..types import DataType
from .keys import deserialize_key, key_size, serialize_key
from .page import fill_page

_BUCKET_HEADER = 7  # [nkeys:u16][overflow+1:u32][pad:u8]


class HashIndexError(Exception):
    pass


def _hash_key(key: Any) -> int:
    # Stable across runs (unlike str hash with PYTHONHASHSEED).
    if isinstance(key, str):
        h = 2166136261
        for b in key.encode("utf-8"):
            h = ((h ^ b) * 16777619) & 0xFFFFFFFF
        return h
    if isinstance(key, float) and key.is_integer():
        key = int(key)
    return hash(key) & 0xFFFFFFFF


class HashIndex:
    """Fixed-bucket-count hash index with overflow chaining."""

    def __init__(
        self,
        pool: BufferPool,
        dtype: DataType,
        name: str,
        num_buckets: int = 64,
    ):
        if num_buckets < 1:
            raise ValueError("need at least one bucket")
        self.pool = pool
        self.dtype = dtype
        self.name = name
        self.num_buckets = num_buckets
        self.file_id = pool.disk.create_file(f"hash:{name}")
        self._num_entries = 0
        self._buckets: List[int] = []
        for _ in range(num_buckets):
            page_no = self._alloc_page()
            self._write_bucket(page_no, [], None)
            self._buckets.append(page_no)

    @property
    def num_entries(self) -> int:
        return self._num_entries

    @property
    def num_pages(self) -> int:
        return self.pool.disk.num_pages(self.file_id)

    def insert(self, key: Any, rid: RID) -> None:
        if key is None:
            raise HashIndexError("hash index cannot store NULL keys")
        page_no = self._buckets[_hash_key(key) % self.num_buckets]
        while True:
            entries, overflow = self._read_bucket(page_no)
            entries.append((key, rid))
            if self._bucket_bytes(entries) <= self.pool.disk.page_size:
                self._write_bucket(page_no, entries, overflow)
                self._num_entries += 1
                return
            entries.pop()
            if overflow is None:
                overflow = self._alloc_page()
                self._write_bucket(overflow, [], None)
                self._write_bucket(page_no, entries, overflow)
            page_no = overflow

    def delete(self, key: Any, rid: RID) -> bool:
        if key is None:
            return False
        page_no: Optional[int] = self._buckets[_hash_key(key) % self.num_buckets]
        while page_no is not None:
            entries, overflow = self._read_bucket(page_no)
            try:
                entries.remove((key, rid))
            except ValueError:
                page_no = overflow
                continue
            self._write_bucket(page_no, entries, overflow)
            self._num_entries -= 1
            return True
        return False

    def search(self, key: Any) -> List[RID]:
        """All RIDs stored under *key* (chasing overflow pages)."""
        if key is None:
            return []
        out: List[RID] = []
        page_no: Optional[int] = self._buckets[_hash_key(key) % self.num_buckets]
        while page_no is not None:
            entries, overflow = self._read_bucket(page_no)
            out.extend(rid for k, rid in entries if k == key)
            page_no = overflow
        return out

    def items(self) -> Iterator[Tuple[Any, RID]]:
        for bucket in self._buckets:
            page_no: Optional[int] = bucket
            while page_no is not None:
                entries, overflow = self._read_bucket(page_no)
                for entry in entries:
                    yield entry
                page_no = overflow

    def avg_chain_length(self) -> float:
        """Mean number of pages per bucket chain (1.0 = no overflow)."""
        total = 0
        for bucket in self._buckets:
            page_no: Optional[int] = bucket
            while page_no is not None:
                total += 1
                _, page_no = self._read_bucket_header(page_no)
        return total / self.num_buckets

    # -- page I/O ------------------------------------------------------------------

    def _alloc_page(self) -> int:
        page_id = self.pool.new_page(self.file_id)
        self.pool.unfix(page_id, dirty=True)
        return page_id[1]

    def _bucket_bytes(self, entries: List[Tuple[Any, RID]]) -> int:
        return _BUCKET_HEADER + sum(
            key_size(k, self.dtype) + 6 for k, _ in entries
        )

    def _write_bucket(
        self, page_no: int, entries: List[Tuple[Any, RID]], overflow: Optional[int]
    ) -> None:
        buf = bytearray()
        buf += struct.pack(">H", len(entries))
        buf += struct.pack(">I", 0 if overflow is None else overflow + 1)
        buf.append(0)
        for key, (rpage, rslot) in entries:
            buf += serialize_key(key, self.dtype)
            buf += struct.pack(">IH", rpage, rslot)
        if len(buf) > self.pool.disk.page_size:
            raise HashIndexError("bucket overflow not caught by caller")
        with PageGuard(self.pool, (self.file_id, page_no), write=True) as data:
            fill_page(data, buf)

    def _read_bucket(
        self, page_no: int
    ) -> Tuple[List[Tuple[Any, RID]], Optional[int]]:
        with PageGuard(self.pool, (self.file_id, page_no)) as data:
            view = bytes(data)
        (nkeys,) = struct.unpack_from(">H", view, 0)
        (over_raw,) = struct.unpack_from(">I", view, 2)
        pos = _BUCKET_HEADER
        entries: List[Tuple[Any, RID]] = []
        for _ in range(nkeys):
            key, pos = deserialize_key(view, pos)
            rpage, rslot = struct.unpack_from(">IH", view, pos)
            pos += 6
            entries.append((key, (rpage, rslot)))
        return entries, None if over_raw == 0 else over_raw - 1

    def _read_bucket_header(self, page_no: int) -> Tuple[int, Optional[int]]:
        with PageGuard(self.pool, (self.file_id, page_no)) as data:
            (nkeys,) = struct.unpack_from(">H", data, 0)
            (over_raw,) = struct.unpack_from(">I", data, 2)
        return nkeys, None if over_raw == 0 else over_raw - 1
