"""E6 — Cardinality-estimation accuracy (Table 4).

Load a table with a uniform column, a Zipf-skewed column and a correlated
column pair; issue point, range, conjunctive and join predicates; estimate
each under three estimator tiers (uniform assumption / histograms /
histograms+MCVs); execute for ground truth; report q-error.

Expected shape: histograms fix ranges on skew, MCVs fix points on skew,
nothing fixes correlated conjuncts (the independence assumption) — the
classic error hierarchy.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..algebra import build_plan, extract_join_graph, push_down_predicates, transform_join_regions
from ..engine import Database
from ..obs.querylog import q_error
from ..optimizer import Estimator, EstimatorConfig, StatsResolver
from ..sql import SelectStmt, parse
from ..workloads import Rng, correlated_pair, uniform_ints, zipf_ints
from .measure import fresh_db
from .tables import ResultTable, geometric_mean, quantile

TIERS: Dict[str, EstimatorConfig] = {
    "uniform": EstimatorConfig(use_histograms=False, use_mcvs=False),
    "histogram": EstimatorConfig(use_histograms=True, use_mcvs=False),
    "hist+mcv": EstimatorConfig(use_histograms=True, use_mcvs=True),
}


def load_skew_tables(
    db: Database, num_rows: int = 12000, domain: int = 200, seed: int = 23
) -> None:
    rng = Rng(seed)
    db.execute(
        "CREATE TABLE skewed (id INT, uni INT, zipf INT, ca INT, cb INT)"
    )
    ca, cb = correlated_pair(rng.spawn(4), num_rows, domain // 4, 0.95)
    db.insert_rows(
        "skewed",
        list(
            zip(
                range(num_rows),
                uniform_ints(rng.spawn(1), num_rows, 0, domain - 1),
                zipf_ints(rng.spawn(2), num_rows, domain, skew=1.1),
                ca,
                cb,
            )
        ),
    )
    db.execute("CREATE TABLE dim (id INT, grp INT)")
    db.insert_rows(
        "dim",
        list(
            zip(
                range(domain),
                uniform_ints(rng.spawn(5), domain, 0, 9),
            )
        ),
    )
    db.analyze()


def make_queries(domain: int) -> List[Tuple[str, str]]:
    """The estimation probe set, parameterized by the value domain."""
    tail = int(domain * 0.75)
    return [
        ("point on uniform", "SELECT COUNT(*) AS n FROM skewed WHERE uni = 7"),
        ("point on zipf head", "SELECT COUNT(*) AS n FROM skewed WHERE zipf = 0"),
        (
            "point on zipf tail",
            f"SELECT COUNT(*) AS n FROM skewed WHERE zipf = {tail}",
        ),
    ] + QUERIES


#: (label, sql) — COUNT(*) wrappers give ground truth.
QUERIES: List[Tuple[str, str]] = [
    ("range on uniform", "SELECT COUNT(*) AS n FROM skewed WHERE uni < 20"),
    ("range on zipf", "SELECT COUNT(*) AS n FROM skewed WHERE zipf < 5"),
    (
        "conjunct independent",
        "SELECT COUNT(*) AS n FROM skewed WHERE uni < 40 AND zipf < 10",
    ),
    (
        "conjunct correlated",
        "SELECT COUNT(*) AS n FROM skewed WHERE ca = 3 AND cb = 3",
    ),
    (
        "equi-join",
        "SELECT COUNT(*) AS n FROM skewed, dim WHERE skewed.zipf = dim.id",
    ),
    (
        "join + filter",
        "SELECT COUNT(*) AS n FROM skewed, dim "
        "WHERE skewed.zipf = dim.id AND dim.grp = 3",
    ),
]


def _estimate_with(db: Database, sql: str, config: EstimatorConfig) -> float:
    """Estimated output rows of the query's join region under *config*."""
    stmt = parse(sql)
    assert isinstance(stmt, SelectStmt)
    logical = push_down_predicates(build_plan(stmt, db.catalog))
    estimates: List[float] = []

    def visit(region):
        graph = extract_join_graph(region)
        estimator = Estimator(StatsResolver(graph), config)
        rows = 1.0
        for binding in graph.bindings():
            get = graph.relations[binding]
            rows *= max(
                1.0,
                estimator.scan_rows(
                    get.table, graph.filter_conjuncts(binding)
                ),
            )
        for pair, conjuncts in graph.edges.items():
            rows *= estimator.join_selectivity(conjuncts)
        for _, conjunct in graph.hyper:
            rows *= estimator.selectivity(conjunct)
        estimates.append(max(rows, 0.0))
        return region

    transform_join_regions(logical, visit)
    return estimates[0] if estimates else 0.0


def run(
    num_rows: int = 12000,
    domain: int = 200,
    seed: int = 23,
    histogram_buckets: int = 32,
) -> List[ResultTable]:
    db = fresh_db(buffer_pages=256, work_mem_pages=16)
    load_skew_tables(db, num_rows, domain, seed)
    db.analyze(num_buckets=histogram_buckets)

    detail = ResultTable(
        "E6/Table 4 — cardinality estimation q-error by estimator tier",
        ["predicate", "actual"] + [f"{t} est" for t in TIERS] + [
            f"{t} q-err" for t in TIERS
        ],
    )
    errors: Dict[str, List[float]] = {t: [] for t in TIERS}
    for label, sql in make_queries(domain):
        actual = float(db.query(sql).rows[0][0])
        ests = {t: _estimate_with(db, sql, cfg) for t, cfg in TIERS.items()}
        row: List[object] = [label, actual]
        row.extend(ests[t] for t in TIERS)
        for t in TIERS:
            err = q_error(ests[t], actual)
            errors[t].append(err)
            row.append(err)
        detail.rows.append(row)

    summary = ResultTable(
        "E6/Table 4b — q-error summary (lower is better)",
        ["tier", "geo-mean", "median", "p95", "max"],
    )
    for t in TIERS:
        vals = errors[t]
        summary.add(
            t,
            geometric_mean(vals),
            quantile(vals, 0.5),
            quantile(vals, 0.95),
            max(vals),
        )
    return [detail, summary]
