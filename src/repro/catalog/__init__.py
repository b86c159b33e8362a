"""Catalog: table/index metadata and ANALYZE statistics."""

from .catalog import (
    Catalog,
    CatalogError,
    IndexInfo,
    IndexKind,
    TableAccessStats,
    TableInfo,
    index_key_getter,
)
from .stats import (
    ColumnStats,
    Histogram,
    HistogramKind,
    TableStats,
    analyze_column,
    build_equi_depth,
    build_equi_width,
)

__all__ = [
    "Catalog",
    "CatalogError",
    "IndexInfo",
    "IndexKind",
    "TableAccessStats",
    "TableInfo",
    "index_key_getter",
    "ColumnStats",
    "Histogram",
    "HistogramKind",
    "TableStats",
    "analyze_column",
    "build_equi_depth",
    "build_equi_width",
]
