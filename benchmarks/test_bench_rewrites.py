"""E9 / Table 6 — predicate-pushdown ablation on wholesale queries.

Shape asserted: pushdown never hurts, and strictly helps (modeled cost) on
queries with selective single-table filters.
"""

from repro.bench import e9_rewrites, render_all
from repro.workloads import WholesaleScale


def run_experiment():
    return e9_rewrites.run(scale=WholesaleScale.small())


def test_bench_e9_rewrites(benchmark):
    tables = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print("\n" + render_all(tables))
    (table,) = tables
    cols = table.columns
    pd_cost = cols.index("pushdown: cost")
    no_cost = cols.index("no pushdown: cost")
    pd_io = cols.index("pushdown: I/O")
    no_io = cols.index("no pushdown: I/O")

    strict_wins = 0
    for row in table.rows:
        # pushdown never hurts beyond estimation noise (the two modes may
        # choose different join orders off slightly different estimates)
        assert row[no_cost] >= row[pd_cost] * 0.9, row[0]
        assert row[no_io] >= row[pd_io] * 0.95, row[0]
        if row[no_cost] > row[pd_cost] * 1.05:
            strict_wins += 1
    assert strict_wins >= 2, "pushdown should strictly help several queries"
