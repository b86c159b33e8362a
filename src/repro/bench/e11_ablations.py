"""E11 — design-choice ablations.

Two knobs DESIGN.md calls out:

* **Histogram resolution** (E11a): estimation q-error as the bucket count
  sweeps 4 → 64 on skewed data.  Expected: error falls steeply then
  plateaus — a handful of buckets buys most of the accuracy (why early
  systems could afford histograms at all).
* **Buffer replacement policy** (E11b): actual I/O of a sequential-scan
  join and an index-probe workload under LRU / Clock / MRU / FIFO.
  Expected: Clock ≈ LRU; MRU wins on repeated sequential rescans of a
  slightly-too-big inner (the classic sequential-flooding case) and loses
  on probe locality.
"""

from __future__ import annotations

from typing import List, Optional

from ..expr import col, eq
from ..physical import PIndexNLJoin, PNestedLoopJoin, PSeqScan
from ..storage import Replacement
from ..workloads import Rng, shuffled_ints, uniform_floats, uniform_ints, zipf_ints
from .measure import fresh_db, measure_plan
from .tables import ResultTable, geometric_mean, q_error


def run_histogram_sweep(
    num_rows: int = 12000,
    domain: int = 200,
    bucket_counts: Optional[List[int]] = None,
    seed: int = 61,
) -> List[ResultTable]:
    """E11a: estimation accuracy vs histogram resolution."""
    from ..algebra import build_plan, extract_join_graph, push_down_predicates, transform_join_regions
    from ..optimizer import Estimator, EstimatorConfig, StatsResolver
    from ..sql import parse

    bucket_counts = bucket_counts or [4, 8, 16, 32, 64]
    db = fresh_db(buffer_pages=256, work_mem_pages=16)
    rng = Rng(seed)
    db.execute("CREATE TABLE z (v INT)")
    db.insert_rows(
        "z", [(x,) for x in zipf_ints(rng, num_rows, domain, skew=1.1)]
    )

    probes = [
        ("v < 3", f"SELECT COUNT(*) AS n FROM z WHERE v < 3"),
        ("v < 20", f"SELECT COUNT(*) AS n FROM z WHERE v < 20"),
        ("v BETWEEN 50 AND 99", "SELECT COUNT(*) AS n FROM z WHERE v BETWEEN 50 AND 99"),
        ("v > 150", "SELECT COUNT(*) AS n FROM z WHERE v > 150"),
        ("v = 1", "SELECT COUNT(*) AS n FROM z WHERE v = 1"),
        ("v = 120", "SELECT COUNT(*) AS n FROM z WHERE v = 120"),
    ]
    actuals = {
        label: float(db.query(sql).rows[0][0]) for label, sql in probes
    }

    from ..catalog import HistogramKind

    table = ResultTable(
        "E11a — estimation q-error vs histogram kind and bucket count (zipf data)",
        ["kind", "buckets"] + [label for label, _ in probes] + ["geo-mean"],
        notes="MCVs disabled to isolate the histogram knob",
    )
    config = EstimatorConfig(use_histograms=True, use_mcvs=False)
    for kind in (HistogramKind.EQUI_WIDTH, HistogramKind.EQUI_DEPTH):
        for buckets in bucket_counts:
            db.analyze("z", histogram=kind, num_buckets=buckets, num_mcvs=0)
            row: List[object] = [kind.value, buckets]
            errors = []
            for label, sql in probes:
                logical = push_down_predicates(
                    build_plan(parse(sql), db.catalog)
                )
                graphs: List = []
                transform_join_regions(
                    logical,
                    lambda r: graphs.append(extract_join_graph(r)) or r,
                )
                graph = graphs[0]
                estimator = Estimator(StatsResolver(graph), config)
                est = estimator.scan_rows(
                    db.table("z"), graph.filter_conjuncts("z")
                )
                err = q_error(est, actuals[label])
                errors.append(err)
                row.append(err)
            row.append(geometric_mean(errors))
            table.rows.append(row)
    return [table]


def run_replacement_policies(
    rows_big: int = 6000,
    rows_small: int = 3000,
    buffer_pages: int = 16,
    seed: int = 67,
) -> List[ResultTable]:
    """E11b: buffer replacement policy vs workload access pattern."""
    table = ResultTable(
        "E11b — buffer replacement policy, actual page reads",
        ["policy", "sequential rescans (BNL)", "random probes (index-NL)"],
        notes=f"{buffer_pages}-page pool; inner/table slightly exceeds it",
    )
    for policy in (Replacement.LRU, Replacement.CLOCK, Replacement.MRU, Replacement.FIFO):
        db = fresh_db(
            buffer_pages=buffer_pages, work_mem_pages=6, replacement=policy
        )
        rng = Rng(seed)
        db.execute("CREATE TABLE big (id INT, fk INT)")
        db.insert_rows(
            "big",
            list(
                zip(
                    shuffled_ints(rng.spawn(1), rows_big),
                    uniform_ints(rng.spawn(2), rows_big, 0, rows_small - 1),
                )
            ),
        )
        db.execute("CREATE TABLE small (id INT, pad FLOAT)")
        db.insert_rows(
            "small",
            list(
                zip(
                    shuffled_ints(rng.spawn(3), rows_small),
                    uniform_floats(rng.spawn(4), rows_small),
                )
            ),
        )
        db.execute("CREATE INDEX ix_small_id ON small (id)")
        db.execute("ANALYZE")

        big, small = db.table("big"), db.table("small")
        bnl = PNestedLoopJoin(
            PSeqScan(big, "big"),
            PSeqScan(small, "small"),
            eq(col("big.fk"), col("small.id")),
            block_pages=4,
        )
        seq_io = measure_plan(db, bnl).actual_reads
        inl = PIndexNLJoin(
            PSeqScan(big, "big"), small, "small",
            small.index_on("id"), col("big.fk"),
        )
        probe_io = measure_plan(db, inl).actual_reads
        table.add(policy.value, seq_io, probe_io)
    return [table]


def run(**kwargs) -> List[ResultTable]:
    return run_histogram_sweep() + run_replacement_policies()
