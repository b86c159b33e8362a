"""E4 / Table 3 — plan quality by join-order strategy.

Chain/star/clique queries planned by DP and the baselines, executed cold.
Shape asserted: DP's modeled cost is never beaten; baselines degrade on
the shapes where order matters (star/clique).
"""

from repro.bench import e4_plan_quality, render_all

STRATEGIES = ["dp", "dp-bushy", "greedy", "syntactic", "random"]


def run_experiment():
    return e4_plan_quality.run_plan_quality(
        shapes=["chain", "star", "clique"],
        n=5,
        base_rows=1200,
        buffer_pages=32,
        strategies=STRATEGIES,
    )


def test_bench_e4_plan_quality(benchmark):
    tables = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print("\n" + render_all(tables))
    table = tables[0]
    cols = table.columns

    by_shape = {}
    for row in table.rows:
        by_shape.setdefault(row[0], {})[row[1]] = row

    for shape, rows in by_shape.items():
        dp_cost = rows["dp"][cols.index("est cost")]
        for strategy, row in rows.items():
            if strategy == "dp-bushy":
                # bushy searches a superset of left-deep space: it may
                # legitimately beat dp, never lose to it
                assert row[cols.index("est cost")] <= dp_cost * (1 + 1e-9)
                continue
            # dp is modeled-optimal within the shared left-deep space
            assert row[cols.index("est cost")] >= dp_cost * (1 - 1e-9), (
                shape,
                strategy,
            )

    # somewhere in the sweep a baseline actually pays real I/O for its
    # worse order (the whole point of cost-based optimization)
    worst_ratio = max(
        row[cols.index("actual I/O")] / by_shape[row[0]]["dp"][cols.index("actual I/O")]
        for row in table.rows
    )
    assert worst_ratio > 1.2, f"baselines never lost (max ratio {worst_ratio:.2f})"
