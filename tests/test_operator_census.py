"""The operator census: every operator the executor registers is one the
planner emits, and every logical operator is one ``build_plan`` emits.

A fixed corpus is planned on both engines: the eight wholesale queries,
a slice of ``RandomWorkload`` cases under each cost-based and baseline
strategy, and one statement for each of the two paths the random cases
never pick.  The set of physical node types in those plans must equal
the ``operator_for`` registry, and the set of logical node types handed
to the planner must equal the classes ``repro.algebra.logical`` defines.
An operator only a hand-built plan can reach fails here by name; so
does a planner change that stops choosing a path.
"""

import pytest

import repro.engine.database as database
from repro import Database
from repro.algebra import logical as logical_module
from repro.algebra.logical import LogicalPlan
from repro.executor.operator import _REGISTRY
from repro.optimizer import PlannerOptions
from repro.physical import walk_plan
from repro.qa import RandomWorkload
from repro.qa.randomqueries import load_dataset
from repro.workloads import WHOLESALE_QUERIES, WholesaleScale, load_wholesale

STRATEGIES = ("dp", "dp-bushy", "greedy", "syntactic")
RANDOM_CASES = range(40)

#: on the RandomWorkload data, the paths no random case picks
PINNED = {
    "PIndexOnlyScan": "SELECT k FROM s WHERE k BETWEEN 3 AND 9 ORDER BY k",
    "PSortMergeJoin": "SELECT r.id, s.g FROM r, s WHERE r.k = s.k ORDER BY r.k",
}


def _walk_logical(plan):
    yield plan
    for child in plan.children():
        yield from _walk_logical(child)


def _names(types):
    return sorted(t.__name__ for t in types)


@pytest.fixture(scope="module")
def census():
    """Plan the corpus; return the physical and the logical node types."""
    physical, logical = set(), set()
    build_plan = database.build_plan

    def recording(stmt, catalog):
        plan = build_plan(stmt, catalog)
        logical.update(type(node) for node in _walk_logical(plan))
        return plan

    def plan(db, sql):
        physical.update(type(node) for node in walk_plan(db.plan(sql)))

    workload = RandomWorkload(7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(database, "build_plan", recording)
        for columnar in (True, False):
            db = Database(buffer_pages=64, work_mem_pages=4, columnar=columnar)
            load_wholesale(db, WholesaleScale.tiny(), seed=7)
            for name in sorted(WHOLESALE_QUERIES):
                plan(db, WHOLESALE_QUERIES[name])

            db = Database(buffer_pages=64, work_mem_pages=4, columnar=columnar)
            load_dataset(db, workload.dataset())
            for strategy in STRATEGIES:
                db.options = PlannerOptions(strategy=strategy)
                for index in RANDOM_CASES:
                    plan(db, workload.case(index).sql)
            db.options = PlannerOptions()
            for sql in PINNED.values():
                plan(db, sql)
    return physical, logical


def test_planner_emits_exactly_the_registered_operators(census):
    physical, _ = census
    assert _names(physical) == _names(_REGISTRY)


def test_build_plan_emits_exactly_the_defined_logical_operators(census):
    _, logical = census
    defined = {
        obj
        for obj in vars(logical_module).values()
        if isinstance(obj, type)
        and issubclass(obj, LogicalPlan)
        and obj is not LogicalPlan
    }
    assert _names(logical) == _names(defined)
