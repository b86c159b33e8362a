"""Index key serialization.

Index keys are single-column typed values (era-faithful: the systems this
paper's lineage describes index one attribute per access path).  Keys are
serialized with a one-byte tag so NULLs and type mixups are detectable, and
compared *before* serialization using the engine's comparison rules — the
byte format does not need to be order-preserving.
"""

from __future__ import annotations

import struct
from datetime import date
from typing import Any, Tuple

from ..types import DataType

_TAG_NULL = 0
_TAG_INT = 1
_TAG_FLOAT = 2
_TAG_TEXT = 3
_TAG_BOOL = 4
_TAG_DATE = 5


class KeyError_(Exception):
    """Raised on malformed key bytes."""


def serialize_key(value: Any, dtype: DataType) -> bytes:
    if value is None:
        return bytes([_TAG_NULL])
    if dtype is DataType.INT:
        return bytes([_TAG_INT]) + struct.pack(">q", value)
    if dtype is DataType.FLOAT:
        return bytes([_TAG_FLOAT]) + struct.pack(">d", value)
    if dtype is DataType.BOOL:
        return bytes([_TAG_BOOL, 1 if value else 0])
    if dtype is DataType.DATE:
        return bytes([_TAG_DATE]) + struct.pack(">I", value.toordinal())
    if dtype is DataType.TEXT:
        data = value.encode("utf-8")
        if len(data) > 0xFFFF:
            raise KeyError_("TEXT key too long")
        return bytes([_TAG_TEXT]) + struct.pack(">H", len(data)) + data
    raise KeyError_(f"unhandled type {dtype}")  # pragma: no cover


def deserialize_key(data: bytes, offset: int) -> Tuple[Any, int]:
    """Decode one key at *offset*; returns ``(value, next_offset)``."""
    tag = data[offset]
    offset += 1
    if tag == _TAG_NULL:
        return None, offset
    if tag == _TAG_INT:
        (v,) = struct.unpack_from(">q", data, offset)
        return v, offset + 8
    if tag == _TAG_FLOAT:
        (v,) = struct.unpack_from(">d", data, offset)
        return v, offset + 8
    if tag == _TAG_BOOL:
        return data[offset] != 0, offset + 1
    if tag == _TAG_DATE:
        (ordinal,) = struct.unpack_from(">I", data, offset)
        return date.fromordinal(ordinal), offset + 4
    if tag == _TAG_TEXT:
        (length,) = struct.unpack_from(">H", data, offset)
        offset += 2
        raw = data[offset : offset + length]
        if len(raw) != length:
            raise KeyError_("truncated TEXT key")
        return raw.decode("utf-8"), offset + length
    raise KeyError_(f"bad key tag {tag}")


_TAG_WIDTH = {_TAG_NULL: 1, _TAG_INT: 9, _TAG_FLOAT: 9, _TAG_BOOL: 2, _TAG_DATE: 5}


def skip_key(data: bytes, offset: int) -> int:
    """Offset just past the key at *offset*, decoding no value."""
    tag = data[offset]
    if tag == _TAG_TEXT:
        return offset + 3 + (data[offset + 1] << 8 | data[offset + 2])
    try:
        return offset + _TAG_WIDTH[tag]
    except KeyError:
        raise KeyError_(f"bad key tag {tag}") from None


def key_size(value: Any, dtype: DataType) -> int:
    if value is None:
        return 1
    if dtype is DataType.INT or dtype is DataType.FLOAT:
        return 9
    if dtype is DataType.BOOL:
        return 2
    if dtype is DataType.DATE:
        return 5
    if dtype is DataType.TEXT:
        return 3 + len(value.encode("utf-8"))
    raise KeyError_(f"unhandled type {dtype}")  # pragma: no cover


class _Sentinel:
    """Bounds helper comparing below (MIN_KEY) or above (MAX_KEY) every
    real value.  Used to express open components of composite-key ranges;
    never stored in an index."""

    __slots__ = ("low", "name")

    def __init__(self, low: bool, name: str):
        self.low = low
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


MIN_KEY = _Sentinel(True, "MIN_KEY")
MAX_KEY = _Sentinel(False, "MAX_KEY")


def key_lt(a: Any, b: Any) -> bool:
    """Total order used inside index nodes: NULLs sort first (but after
    MIN_KEY); composite keys compare lexicographically component-wise, a
    shorter prefix sorting before its extensions."""
    if isinstance(a, _Sentinel):
        if isinstance(b, _Sentinel):
            return a.low and not b.low
        return a.low
    if isinstance(b, _Sentinel):
        return not b.low
    if isinstance(a, tuple) and isinstance(b, tuple):
        for x, y in zip(a, b):
            if key_lt(x, y):
                return True
            if key_lt(y, x):
                return False
        return len(a) < len(b)
    if a is None:
        return b is not None
    if b is None:
        return False
    return a < b


def key_eq(a: Any, b: Any) -> bool:
    """Equality in the same total order (NULL == NULL here)."""
    return not key_lt(a, b) and not key_lt(b, a)


def entry_lt(a: Tuple[Any, Tuple[int, int]], b: Tuple[Any, Tuple[int, int]]) -> bool:
    """Order on (key, rid) pairs: by key, ties broken by rid."""
    if key_lt(a[0], b[0]):
        return True
    if key_lt(b[0], a[0]):
        return False
    return a[1] < b[1]
