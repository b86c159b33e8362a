"""The cost-based optimizer: estimation, costing, access paths, join enumeration."""

from .access import (
    ScanCandidate,
    access_paths,
    best_per_order,
    extract_bounds,
    index_bounds,
)
from .baselines import (
    ExhaustivePlanner,
    GreedyPlanner,
    NaiveNLPlanner,
    OrderPlanner,
    RandomPlanner,
    SyntacticPlanner,
)
from .cost import Cost, CostModel, cardenas_pages
from .dp import DPPlanner, PlannerStats, SubPlan, count_dp_subsets
from .estimate import (
    DEFAULT_EQ_SEL,
    DEFAULT_RANGE_SEL,
    Estimator,
    EstimatorConfig,
    StatsResolver,
    pages_for,
)
from .planner import STRATEGIES, Planner, PlannerOptions

__all__ = [
    "ScanCandidate", "access_paths", "best_per_order", "extract_bounds",
    "index_bounds",
    "ExhaustivePlanner", "GreedyPlanner", "NaiveNLPlanner", "OrderPlanner",
    "RandomPlanner", "SyntacticPlanner", "Cost", "CostModel", "cardenas_pages",
    "DPPlanner", "PlannerStats", "SubPlan", "count_dp_subsets",
    "DEFAULT_EQ_SEL", "DEFAULT_RANGE_SEL", "Estimator", "EstimatorConfig",
    "StatsResolver", "pages_for", "STRATEGIES", "Planner", "PlannerOptions",
]
