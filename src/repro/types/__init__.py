"""Type system: scalar data types, schemas and row validation."""

from .datatypes import (
    DEFAULT_TEXT_WIDTH,
    DataType,
    TypeError_,
    byte_width,
    check_value,
    common_type,
    infer_type,
    parse_type,
    value_to_float,
)
from .schema import Column, Schema, SchemaError, schema_of

__all__ = [
    "DEFAULT_TEXT_WIDTH",
    "DataType",
    "TypeError_",
    "byte_width",
    "check_value",
    "common_type",
    "infer_type",
    "parse_type",
    "value_to_float",
    "Column",
    "Schema",
    "SchemaError",
    "schema_of",
]
