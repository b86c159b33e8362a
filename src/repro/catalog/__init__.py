"""Catalog: table/index metadata and ANALYZE statistics."""

from .catalog import (
    Catalog,
    CatalogError,
    IndexInfo,
    TableAccessStats,
    TableInfo,
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
    "TableAccessStats",
    "TableInfo",
    "ColumnStats",
    "Histogram",
    "HistogramKind",
    "TableStats",
    "analyze_column",
    "build_equi_depth",
    "build_equi_width",
]
