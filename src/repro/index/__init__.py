"""Index substrate: the page-based B+-tree."""

from .bptree import BPlusTree, BPTreeError
from .keys import KeyError_, deserialize_key, entry_lt, key_lt, key_size, serialize_key

__all__ = [
    "BPlusTree",
    "BPTreeError",
    "KeyError_",
    "deserialize_key",
    "entry_lt",
    "key_lt",
    "key_size",
    "serialize_key",
]
