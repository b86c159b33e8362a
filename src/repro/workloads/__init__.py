"""Workload substrate: data generators, join-shape workloads, wholesale schema."""

from .generators import (
    Rng,
    categorical,
    correlated_pair,
    prefixed_words,
    sequential_ints,
    shuffled_ints,
    uniform_floats,
    uniform_ints,
    words,
    zipf_ints,
)
from .shapes import (
    ShapeWorkload,
    build_chain,
    build_clique,
    build_cycle,
    build_shape,
    build_star,
)
from .wholesale import (
    REGIONS,
    SEGMENTS,
    STATUSES,
    WHOLESALE_QUERIES,
    WholesaleScale,
    load_wholesale,
)

__all__ = [
    "Rng", "categorical", "correlated_pair", "prefixed_words",
    "sequential_ints", "shuffled_ints", "uniform_floats", "uniform_ints",
    "words", "zipf_ints", "ShapeWorkload", "build_chain",
    "build_clique", "build_cycle", "build_shape", "build_star", "REGIONS",
    "SEGMENTS", "STATUSES", "WHOLESALE_QUERIES", "WholesaleScale",
    "load_wholesale",
]
