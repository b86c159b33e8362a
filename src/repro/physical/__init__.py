"""Physical plan operators with cost/cardinality annotations."""

from .plan import (
    PAggregate,
    PDistinct,
    PFilter,
    PHashJoin,
    PIndexNLJoin,
    PIndexOnlyScan,
    PIndexScan,
    PLimit,
    PNestedLoopJoin,
    PProject,
    PSeqScan,
    PSort,
    PSortMergeJoin,
    PhysicalError,
    PhysicalPlan,
    RangeBound,
    walk_plan,
)

__all__ = [
    "PAggregate", "PDistinct", "PFilter", "PHashJoin", "PIndexNLJoin",
    "PIndexOnlyScan", "PIndexScan", "PLimit", "PNestedLoopJoin",
    "PProject", "PSeqScan", "PSort", "PSortMergeJoin",
    "PhysicalError", "PhysicalPlan", "RangeBound", "walk_plan",
]
