"""The cost-based optimizer: estimation, costing, access paths, join enumeration.

The baseline join-order planners the evaluation compares DP against are
not re-exported here: import them from :mod:`.baselines`, which the
planner itself loads only when a baseline strategy is planned.
"""

from .access import (
    ScanCandidate,
    access_paths,
    extract_bounds,
    index_bounds,
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
    "ScanCandidate", "access_paths", "extract_bounds",
    "index_bounds",
    "Cost", "CostModel", "cardenas_pages",
    "DPPlanner", "PlannerStats", "SubPlan", "count_dp_subsets",
    "DEFAULT_EQ_SEL", "DEFAULT_RANGE_SEL", "Estimator", "EstimatorConfig",
    "StatsResolver", "pages_for", "STRATEGIES", "Planner", "PlannerOptions",
]
