"""E7 / Table 5 — interesting orders.

DP with and without order tracking on queries that want sorted output.
Shape asserted: with tracking, at least one plan avoids an explicit sort
and is never costlier; the ORDER-BY-join-column query gets cheaper in
real I/O.
"""

from repro.bench import e7_interesting_orders, render_all


def run_experiment():
    return e7_interesting_orders.run(rows_a=12000, rows_b=3000)


def test_bench_e7_interesting_orders(benchmark):
    tables = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print("\n" + render_all(tables))
    (table,) = tables
    cols = table.columns
    on_io = cols.index("orders on: I/O")
    off_io = cols.index("orders off: I/O")
    on_sorts = cols.index("orders on: sorts")
    off_sorts = cols.index("orders off: sorts")

    saved_sorts = 0
    for row in table.rows:
        # order tracking never makes actual I/O meaningfully worse
        assert row[on_io] <= row[off_io] * 1.3, row[0]
        if row[on_sorts] is False and row[off_sorts] is True:
            saved_sorts += 1
    assert saved_sorts >= 2

    by_label = {row[0]: row for row in table.rows}
    key = "order by join column"
    # the headline: the sort-free merge plan wins in real I/O and in cost
    assert by_label[key][on_io] < by_label[key][off_io]
    assert (
        by_label[key][cols.index("orders on: cost")]
        < by_label[key][cols.index("orders off: cost")]
    )
