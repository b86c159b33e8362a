"""Logical algebra: plan operators, AST->plan builder, rewrites, join graph."""

from .builder import BindError, build_plan
from .joingraph import (
    JoinGraph,
    JoinGraphError,
    extract_join_graph,
    is_join_region,
    transform_join_regions,
)
from .logical import (
    LogicalAggregate,
    LogicalDistinct,
    LogicalFilter,
    LogicalGet,
    LogicalJoin,
    LogicalLimit,
    LogicalPlan,
    LogicalProject,
    LogicalSort,
    PlanError,
)
from .rewrite import push_down_predicates

__all__ = [
    "BindError", "build_plan", "JoinGraph", "JoinGraphError",
    "extract_join_graph", "is_join_region", "transform_join_regions",
    "LogicalAggregate", "LogicalDistinct", "LogicalFilter", "LogicalGet",
    "LogicalJoin", "LogicalLimit", "LogicalPlan", "LogicalProject",
    "LogicalSort", "PlanError", "push_down_predicates",
]
