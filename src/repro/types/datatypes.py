"""Column data types and the coercion/comparison rules shared by the engine.

The engine supports a deliberately small, era-faithful set of scalar types.
Every layer above storage (expressions, statistics, the optimizer's
selectivity arithmetic) relies on the ordering and coercion rules defined
here, so they live in one place.

NULL is represented by Python ``None`` everywhere.  Comparison semantics are
SQL-ish three-valued logic: any comparison involving NULL yields ``None``
(unknown), which predicates treat as "does not qualify".
"""

from __future__ import annotations

import enum
from datetime import date
from typing import Any, Optional


class DataType(enum.Enum):
    """Scalar column types supported by the engine."""

    INT = "INT"
    FLOAT = "FLOAT"
    TEXT = "TEXT"
    BOOL = "BOOL"
    DATE = "DATE"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataType.{self.name}"

    @property
    def is_numeric(self) -> bool:
        return self in (DataType.INT, DataType.FLOAT)

    @property
    def fixed_width(self) -> Optional[int]:
        """Byte width used by the storage layer, or None for variable width."""
        return _FIXED_WIDTHS[self]


_FIXED_WIDTHS = {
    DataType.INT: 8,
    DataType.FLOAT: 8,
    DataType.TEXT: None,
    DataType.BOOL: 1,
    DataType.DATE: 4,
}

#: Average byte width assumed for TEXT columns when estimating record sizes.
DEFAULT_TEXT_WIDTH = 16


class TypeError_(Exception):
    """Raised when a value does not conform to its declared type."""


def parse_type(name: str) -> DataType:
    """Parse a SQL type name (``INT``, ``INTEGER``, ``VARCHAR`` ...)."""
    upper = name.strip().upper()
    aliases = {
        "INT": DataType.INT,
        "INTEGER": DataType.INT,
        "BIGINT": DataType.INT,
        "SMALLINT": DataType.INT,
        "FLOAT": DataType.FLOAT,
        "REAL": DataType.FLOAT,
        "DOUBLE": DataType.FLOAT,
        "DECIMAL": DataType.FLOAT,
        "NUMERIC": DataType.FLOAT,
        "TEXT": DataType.TEXT,
        "VARCHAR": DataType.TEXT,
        "CHAR": DataType.TEXT,
        "STRING": DataType.TEXT,
        "BOOL": DataType.BOOL,
        "BOOLEAN": DataType.BOOL,
        "DATE": DataType.DATE,
    }
    if upper in aliases:
        return aliases[upper]
    raise TypeError_(f"unknown type name: {name!r}")


#: the range an INT column stores (a signed 64-bit record field)
INT_MIN, INT_MAX = -(2**63), 2**63 - 1


def check_value(value: Any, dtype: DataType) -> Any:
    """Validate (and mildly coerce) *value* for storage in a *dtype* column.

    Returns the canonical stored representation.  ``None`` always passes
    (NULL is allowed in every column unless a higher layer forbids it).
    """
    if value is None:
        return None
    if dtype is DataType.INT:
        if isinstance(value, bool):
            raise TypeError_(f"BOOL value {value!r} in INT column")
        if isinstance(value, int):
            if INT_MIN <= value <= INT_MAX:
                return value
            raise TypeError_(f"INT value {value} out of range")
        if isinstance(value, float) and value.is_integer():
            return check_value(int(value), dtype)
        raise TypeError_(f"value {value!r} is not an INT")
    if dtype is DataType.FLOAT:
        if isinstance(value, bool):
            raise TypeError_(f"BOOL value {value!r} in FLOAT column")
        if isinstance(value, (int, float)):
            try:
                return float(value)
            except OverflowError:
                raise TypeError_("INT value out of FLOAT range") from None
        raise TypeError_(f"value {value!r} is not a FLOAT")
    if dtype is DataType.TEXT:
        if isinstance(value, str):
            return value
        raise TypeError_(f"value {value!r} is not TEXT")
    if dtype is DataType.BOOL:
        if isinstance(value, bool):
            return value
        raise TypeError_(f"value {value!r} is not a BOOL")
    if dtype is DataType.DATE:
        if isinstance(value, date):
            return value
        if isinstance(value, str):
            try:
                return date.fromisoformat(value)
            except ValueError:
                raise TypeError_(f"value {value!r} is not a DATE") from None
        raise TypeError_(f"value {value!r} is not a DATE")
    raise TypeError_(f"unhandled type {dtype}")  # pragma: no cover


def infer_type(value: Any) -> DataType:
    """Infer the DataType of a Python literal (bool before int!)."""
    if isinstance(value, bool):
        return DataType.BOOL
    if isinstance(value, int):
        return DataType.INT
    if isinstance(value, float):
        return DataType.FLOAT
    if isinstance(value, str):
        return DataType.TEXT
    if isinstance(value, date):
        return DataType.DATE
    raise TypeError_(f"cannot infer SQL type for {value!r}")


def common_type(a: DataType, b: DataType) -> DataType:
    """The type two operands are coerced to for comparison/arithmetic."""
    if a is b:
        return a
    if {a, b} == {DataType.INT, DataType.FLOAT}:
        return DataType.FLOAT
    raise TypeError_(f"incompatible types: {a.value} and {b.value}")


def value_to_float(value: Any, dtype: DataType) -> float:
    """Map a value onto the real line for histogram / selectivity math.

    TEXT is mapped via a prefix-based ordinal so that range selectivities on
    strings are still meaningful; DATE maps to its ordinal day number.
    """
    if value is None:
        raise TypeError_("cannot map NULL onto the real line")
    if dtype is DataType.INT or dtype is DataType.FLOAT:
        return float(value)
    if dtype is DataType.BOOL:
        return 1.0 if value else 0.0
    if dtype is DataType.DATE:
        return float(value.toordinal())
    if dtype is DataType.TEXT:
        return _text_ordinal(value)
    raise TypeError_(f"unhandled type {dtype}")  # pragma: no cover


def _text_ordinal(s: str, prefix: int = 8) -> float:
    """Map a string to a float preserving lexicographic order (approximately).

    Uses the first *prefix* bytes as base-256 digits.  Two strings that share
    a long common prefix map close together, which is exactly the behaviour a
    histogram over strings wants.
    """
    acc = 0.0
    data = s.encode("utf-8", errors="replace")[:prefix]
    for i, byte in enumerate(data):
        acc += byte / (256.0 ** (i + 1))
    return acc


def byte_width(dtype: DataType, avg_text: int = DEFAULT_TEXT_WIDTH) -> int:
    """Estimated stored byte width of one value of *dtype*."""
    fixed = dtype.fixed_width
    return fixed if fixed is not None else avg_text
