"""Regenerate EXPERIMENTS.md from full-parameter runs of E1–E10.

Run with::

    python benchmarks/generate_experiments_md.py

Takes several minutes; writes ../EXPERIMENTS.md with every measured table
plus the paper-vs-measured commentary.
"""

import pathlib
import sys
import time

from repro.bench import (
    e1_join_methods,
    e2_access_paths,
    e4_plan_quality,
    e6_estimation,
    e7_interesting_orders,
    e8_buffer_sweep,
    e9_rewrites,
    e10_wholesale,
    e11_ablations,
    e12_scaling,
    e13_batching,
)
from repro.bench.figures import chart_from_table
from repro.workloads import WholesaleScale

ROOT = pathlib.Path(__file__).resolve().parent.parent

PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

Target paper: **"Evaluation and Optimization", VLDB 1977** (foundational
cost-based query optimization).  The supplied full text was a different,
title-colliding paper, so — per the task rules — the evaluation suite
regenerates the *canonical* results of the 1977 cost-based-optimization
literature (the lineage this paper belongs to: Cardenas' page-fetch
formula, Blasgen/Eswaran's join-method comparison, Wong/Youssefi's
heuristics, Selinger-style access-path selection and DP enumeration with
interesting orders).  For each experiment, "expected shape" states the
classic published claim; "measured" is this implementation on its
simulated-disk substrate.  Absolute numbers are incomparable to 1977
hardware by construction; the reproduction targets are the *shapes* —
who wins, where crossovers fall, how effort grows.

All tables below are generated by `benchmarks/generate_experiments_md.py`
and re-asserted (at smaller parameters) by `pytest benchmarks/
--benchmark-only`.
"""

#: E14 can no longer be measured: the subsystem it measured was deleted.
#: This is its last measurement, taken on the commit before the deletion.
E14_CLOSED = """\
## E14 — intra-query parallel scaling (closed: negative result, subsystem deleted)

**Expected shape (classic result).** Exchange-style parallelism splits partitionable pipelines across workers, so CPU-bound shapes (aggregation, filtering, sorting) should approach linear speedup until workers outnumber cores.

**Measured, for the last time.** Commit 69418cf (the parent of the deletion), 2 cores visible (`nproc` = 2), Python 3.11.7, best of 5, warm buffer pool, `buffer_pages=256`, `work_mem_pages=64` unless stated; every parallel result was verified bit-identical to serial before its time was reported.  "Forced" means `PlannerOptions(force_parallel=True)`, the switch whose docstring said it existed for tests.

```
== E14 — forced parallel plans over serial, wholesale small (wall clock) ==
pipeline            | serial ms | d=1: speedup | d=2: speedup | d=4: speedup | parallel plan
--------------------+-----------+--------------+--------------+--------------+--------------
scan-filter-project | 12.3      | 1.02x        | 0.46x        | 0.34x        | yes
two-phase-agg       | 12.4      | 1.10x        | 0.49x        | 0.37x        | yes
parallel-sort       | 26.5      | 1.02x        | 0.48x        | 0.34x        | yes
```

```
== E14 — forced parallel plans over serial, wholesale medium (wall clock) ==
pipeline            | serial ms | d=1: speedup | d=2: speedup | d=4: speedup | parallel plan
--------------------+-----------+--------------+--------------+--------------+--------------
scan-filter-project | 43.1      | 1.00x        | 1.02x        | 0.81x        | yes
two-phase-agg       | 46.7      | 1.01x        | 1.35x        | 1.17x        | yes
parallel-sort       | 360.0     | 1.04x        | 2.32x        | 2.16x        | yes
note: a second run of the same script on the same host minutes later gave d=2 / d=4 = 0.55x / 0.49x (scan), 0.72x / 1.01x (aggregate), 2.36x / 1.93x (sort); the issue that asked for the deletion had measured 0.54x and 0.69x at d=2.  Run-to-run spread is wider than the best gain
```

```
== E14 — what the cost model picked when not forced (medium, parallel_degree set, force_parallel off) ==
pipeline            | d=2 plan | d=4 plan
--------------------+----------+---------
scan-filter-project | serial   | serial
two-phase-agg       | serial   | serial
parallel-sort       | serial   | serial
```

```
== E14 — ORDER BY at degree 2: forked workers vs REPRO_PARALLEL_INLINE=1 (no fork), by work_mem (medium) ==
work_mem_pages | serial ms | forked d=2 ms | forked | inline d=2 ms | inline
---------------+-----------+---------------+--------+---------------+-------
64             | 349.7     | 135.0         | 2.59x  | 166.6         | 2.10x
1024           | 108.0     | 170.1         | 0.63x  | 155.5         | 0.69x
```

**Why it was removed.** No default, no `BENCHMARK.json` workload, no server or REPL path ever ran a parallel plan (`parallel_degree` defaulted to 1), and with the degree set the cost model still chose the serial plan for every shape, so the subsystem was reachable only through the test switch; forced, it lost at small scale at every degree, its best medium-scale aggregate (1.35x at degree 2, 1.17x at degree 4, 0.72x on the rerun) stayed under ROADMAP's 1.5x bar, and the one large ratio — the sort — is the serial sort spilling at `work_mem_pages=64` while each half-partition fits in memory: the same plan run inline, forking nothing, gets 2.10x, and with enough work memory for the serial sort the forked plan is 0.63x.  The design could not do better without a rewrite (`GatherOp` forked per query while holding the statement lock, every worker pickled its whole result through a pipe, and the parent materialised all of it before emitting row one), so `executor/exchange.py`, `optimizer/parallel.py`, the `PExchange`/`PGather`/`PPartitionFilter`/`POrdinal` plan nodes, two-phase aggregation, the cost-model term and every knob that selected them were deleted in the PR that added this section; a future attempt would need persistent workers, `ColumnBatch` buffers in shared memory instead of pickled tuples, and a streaming gather.

**Open finding.** The table above also shows that the serial external sort is about 3x slower than the in-memory sort on the same query and data (349.7 ms at `work_mem_pages=64` against 108.0 ms at 1024 here, 343 against 124 on the rerun, 349 against 96 — 3.6x — in the issue's measurement): the spill path, not parallelism, is where that query's time goes.
"""

SECTIONS = []


def section(title, expected, observed, tables):
    body = [f"## {title}", "", f"**Expected shape (classic result).** {expected}", ""]
    body.append(f"**Measured.** {observed}")
    body.append("")
    for t in tables:
        body.append("```")
        body.append(t.render())
        body.append("```")
        body.append("")
    SECTIONS.append("\n".join(body))


def main() -> None:
    t0 = time.time()

    print("E1 join methods ...", flush=True)
    e1_tables = e1_join_methods.run(
        sizes=[(500, 500), (3000, 3000), (8000, 2000), (2000, 8000)],
        buffer_pages=24,
        work_mem_pages=8,
        skip_tuple_nl_above=300_000,
    )
    winners = e1_join_methods.winner_per_row(e1_tables[0])
    section(
        "E1 / Table 1 — join-method cost matrix",
        "No join method dominates: tuple nested loop is only viable when "
        "everything is cached; block NL wins when one side is small relative "
        "to memory; hash and sort-merge win at scale; index NL collapses "
        "when the probe working set exceeds the buffer pool.",
        f"Winners per (outer, inner) size by actual I/O: {winners}. "
        "The model (Table 1b, in the planner's io+CPU currency) penalizes "
        "the quadratic nested loops the measured I/O alone cannot show — "
        "its CPU term is what makes the planner avoid them.",
        e1_tables,
    )

    print("E2/E3 access paths ...", flush=True)
    e2_tables = e2_access_paths.run(
        num_rows=20000,
        fractions=[0.0005, 0.002, 0.01, 0.05, 0.2, 0.5, 1.0],
        buffer_pages=24,
    )
    cross = e2_access_paths.crossover_fraction(
        e2_tables[0], "unclustered-index"
    )
    section(
        "E2 / Table 2 — access-path selection crossover",
        "Indexes win at low selectivity; the *unclustered* index loses to a "
        "plain sequential scan at surprisingly low selectivity (a few "
        "percent — each fetched row tends to touch a new page, Cardenas), "
        "while the clustered index stays competitive to much higher "
        "selectivity.",
        f"Unclustered crossover measured at selectivity ≈ {cross}; the "
        "clustered index never exceeds ~2x the seq scan even at 100%; the "
        "cost-based planner's pick follows the measured winner at both "
        "extremes.",
        e2_tables[:1],
    )
    section(
        "E3 / Figure 1 — cost-model validation",
        "The cost model's page-fetch predictions must track measured I/O "
        "closely enough to rank plans — the claim that justifies "
        "cost-based optimization at all.",
        "Estimates track measured reads within a small factor across all "
        "three access paths and the full selectivity sweep (worst case "
        "bounded by ~3x, typical within ~15%), including the buffer-aware "
        "regime where repeated random fetches against a too-small pool "
        "cost ≈ one I/O per row.  The *ms* columns report each scan "
        "operator's measured wall-clock time from the EXPLAIN ANALYZE "
        "instrumentation — the same per-operator actuals the `pretty"
        "(actuals=True)` plan rendering shows.",
        e2_tables[1:],
    )
    SECTIONS.append(
        "```\n"
        + chart_from_table(
            e2_tables[1], "selectivity",
            ["seq act", "clustered act", "unclustered est", "unclustered act"],
            title="Figure 1 — access-path I/O, model vs measured",
            log_y=True, x_label="selectivity", y_label="page reads",
        )
        + "\n```\n"
    )

    print("E4 plan quality ...", flush=True)
    e4_tables = e4_plan_quality.run_plan_quality(
        shapes=["chain", "star", "clique"],
        n=5,
        base_rows=1200,
        buffer_pages=32,
    )
    section(
        "E4 / Table 3 — plan quality by strategy",
        "The DP optimizer's plan is modeled-optimal in its search space; "
        "heuristic and arbitrary orders pay real multiples of its cost, "
        "most visibly on star and clique shapes where join order matters "
        "most.  Bushy DP may beat left-deep (larger space).",
        "DP is never modeled-worse than any baseline; baselines pay up to "
        "~3.5x the DP plan's actual I/O on the star shape; the naive "
        "nested-loop strawman is orders of magnitude worse in the model's "
        "(CPU-aware) currency and in wall-clock.",
        e4_tables,
    )

    print("E5 planning effort ...", flush=True)
    e5_tables = e4_plan_quality.run_planning_time(
        shape="chain", max_n=8, base_rows=100,
        strategies=["dp", "dp-bushy", "greedy", "exhaustive"],
        exhaustive_limit=7,
    ) + e4_plan_quality.run_planning_time(
        shape="clique", max_n=7, base_rows=60,
        strategies=["dp", "greedy", "exhaustive"],
        exhaustive_limit=6,
    )
    section(
        "E5 / Figure 2 — planning effort vs number of relations",
        "Greedy effort grows linearly, DP polynomially in the number of "
        "connected subsets (quadratic on chains, exponential only on "
        "cliques), exhaustive enumeration factorially — the argument for "
        "DP as the sweet spot.",
        "Considered-plan counts grow exactly per theory (chain: DP "
        "O(n^2)-ish vs greedy O(n)); on cliques exhaustive explodes past "
        "DP before n=6 and becomes untenable first.",
        e5_tables,
    )
    SECTIONS.append(
        "```\n"
        + chart_from_table(
            e5_tables[3], "n",
            ["dp plans", "greedy plans", "exhaustive plans"],
            title="Figure 2 — subplans considered vs relations (clique)",
            log_y=True, x_label="relations", y_label="plans",
        )
        + "\n```\n"
    )

    print("E6 estimation ...", flush=True)
    e6_tables = e6_estimation.run(num_rows=20000, domain=200)
    section(
        "E6 / Table 4 — cardinality-estimation accuracy",
        "Under the uniformity assumption point predicates on skewed data "
        "are off by large factors; histograms repair range predicates, MCV "
        "lists repair heavy-hitter points; the attribute-independence "
        "assumption on correlated conjuncts is not repaired by either — "
        "the estimator's classic blind spot.",
        "Exactly the classic hierarchy: geometric-mean q-error drops "
        "uniform → histogram → hist+MCV; zipf-head points go from ~40x "
        "error to exact with MCVs; correlated conjuncts stay ~25-50x "
        "wrong under every tier.",
        e6_tables,
    )

    print("E7 interesting orders ...", flush=True)
    e7_tables = e7_interesting_orders.run(rows_a=16000, rows_b=4000)
    section(
        "E7 / Table 5 — interesting orders",
        "Keeping costlier-but-sorted subplans lets the optimizer produce "
        "sort-free merge-join plans for ORDER BY / grouped queries on join "
        "columns — cheaper end-to-end than best-unordered-plan-plus-sort. "
        "Requires order equivalence across equi-join keys.",
        "With order tracking the ORDER-BY-join-column query drops its "
        "final sort (via a clustered-index merge join) and beats the "
        "unaware plan in both modeled cost (~3x) and measured I/O; the "
        "single-table ORDER BY rides the clustered index for free.",
        e7_tables,
    )

    print("E8 buffer sweep ...", flush=True)
    e8_tables = e8_buffer_sweep.run(
        outer_rows=6000, inner_rows=6000,
        buffer_sizes=[8, 16, 32, 64, 128],
    )
    section(
        "E8 / Figure 3 — buffer-size sensitivity",
        "Block NL improves steeply with memory (fewer inner rescans) until "
        "the inner fits, then flatlines; hash join hits its two-scan floor "
        "once the build side fits work memory; sort-merge sheds spill "
        "passes; index NL is the most cache-hungry at small pools.",
        "All four curves reproduce: block-NL I/O falls monotonically and "
        "plateaus; hash reaches its floor; index-NL is worst at the "
        "smallest pool by a wide margin.",
        e8_tables,
    )
    SECTIONS.append(
        "```\n"
        + chart_from_table(
            e8_tables[0], "buffer pages",
            ["block-NL", "sort-merge", "hash", "index-NL"],
            title="Figure 3 — join I/O vs buffer pool size",
            log_y=True, x_label="buffer pages", y_label="page I/O",
        )
        + "\n```\n"
    )

    print("E9 rewrites ...", flush=True)
    e9_tables = e9_rewrites.run(scale=WholesaleScale.small())
    section(
        "E9 / Table 6 — predicate pushdown ablation",
        "Evaluating single-table predicates below the joins shrinks every "
        "intermediate result; disabling pushdown should never help and "
        "should visibly hurt queries with selective filters.",
        "Pushdown strictly reduces modeled cost on the filter-heavy "
        "queries (up to ~2x on the five-way join) and actual I/O follows "
        "where the buffer pool cannot hide the wider intermediates.",
        e9_tables,
    )

    print("E10 wholesale ...", flush=True)
    e10_tables = e10_wholesale.run(
        scale=WholesaleScale.small(), baseline="syntactic",
        buffer_pages=48, repeats=2,
    ) + e10_wholesale.run(
        scale=WholesaleScale.small(), baseline="random",
        buffer_pages=48, repeats=2,
    )
    section(
        "E10 / Table 7 — end-to-end optimizer benefit",
        "On a realistic analytic workload the cost-based optimizer should "
        "never lose meaningfully to FROM-order or arbitrary plans and "
        "should win decisively where join order and access paths matter.",
        "Per query the optimizer is within noise of the baselines at worst "
        "and up to ~7-9x faster at best (the four-way region-revenue "
        "join); totals favour the optimizer against both baselines; "
        "result-set equality across strategies is verified inside the "
        "experiment.",
        e10_tables,
    )

    print("E11 ablations ...", flush=True)
    e11_tables = e11_ablations.run_histogram_sweep(
        num_rows=12000, domain=200
    ) + e11_ablations.run_replacement_policies()
    section(
        "E11 — design-choice ablations",
        "Equi-depth histograms dominate equi-width at low bucket counts on "
        "skewed data (why they won historically); buffer replacement policy "
        "interacts with access pattern — MRU survives sequential flooding "
        "that defeats LRU, and loses on random probe locality.",
        "Equi-depth at 4 buckets matches equi-width at ~32 on the zipf "
        "probes; MRU beats LRU on the rescan workload and pays ~2x on the "
        "probe workload; Clock tracks LRU within noise.",
        e11_tables,
    )

    print("E12 scaling ...", flush=True)
    e12_tables = e12_scaling.run(
        scales=["tiny", "small", "medium"], repeats=3, buffer_pages=48
    )
    section(
        "E12 — optimizer benefit vs data scale",
        "At toy scale any plan is fine (everything cached, intermediates "
        "tiny); as data grows, the gap between the optimizer's plan and a "
        "syntactic-order plan widens — the closing argument for paying the "
        "planning cost.",
        "The wall-clock ratio grows from ~2.4x at toy scale to ~9x at the "
        "largest scale, with the heuristic plan's I/O exploding (3.5x the "
        "optimizer's) once intermediates stop fitting in the buffer pool.",
        e12_tables,
    )

    print("E13 batching ...", flush=True)
    e13_tables = e13_batching.run(repeats=3)
    section(
        "E13 — batched execution throughput",
        "A batched (vectorized) executor pays its per-call overhead — "
        "operator dispatch, instrumentation bookkeeping — once per batch "
        "instead of once per row, so throughput should climb steeply from "
        "batch_size=1 (classic tuple-at-a-time Volcano) and flatten once "
        "a few hundred rows amortize the fixed costs; results must be "
        "identical at every batch size.",
        "The scan→filter→aggregate pipeline gains ~2.5-3x from "
        "batch_size=1 to 1024 and the in-memory 3-way hash join ~2x, at "
        "every instrumentation level; the curve is flat past a few "
        "hundred rows per batch; result equality across all batch sizes "
        "is verified inside the experiment on every run.",
        e13_tables,
    )

    SECTIONS.append(E14_CLOSED)

    out = ROOT / "EXPERIMENTS.md"
    out.write_text(PREAMBLE + "\n" + "\n".join(SECTIONS))
    print(f"wrote {out} in {time.time() - t0:.0f}s")


if __name__ == "__main__":
    sys.exit(main())
