"""E2 / Table 2 — access-path selection crossover.

Selectivity sweep over seq scan vs clustered vs unclustered index scan.
Shape asserted: indexes win at low selectivity; the unclustered index
crosses over to losing within a few percent; the planner's pick follows.
"""

from repro.bench import e2_access_paths, render_all

FRACTIONS = [0.0005, 0.002, 0.01, 0.05, 0.2, 0.5, 1.0]


def run_experiment():
    return e2_access_paths.run(
        num_rows=12000, fractions=FRACTIONS, buffer_pages=24
    )


def test_bench_e2_access_paths(benchmark):
    tables = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print("\n" + render_all(tables[:1]))
    actual = tables[0]
    cols = actual.columns

    # most selective row: both indexes crush the seq scan
    first = actual.rows[0]
    assert first[cols.index("clustered-index")] < first[cols.index("seq-scan")]
    assert first[cols.index("unclustered-index")] < first[cols.index("seq-scan")]

    # full-table row: seq scan wins against the unclustered index
    last = actual.rows[-1]
    assert last[cols.index("seq-scan")] < last[cols.index("unclustered-index")]

    # the unclustered crossover happens early (the classic surprise)
    cross = e2_access_paths.crossover_fraction(actual, "unclustered-index")
    assert cross is not None and cross <= 0.2

    # the clustered index never loses badly (≤ ~2x of seq even at 100%)
    for row in actual.rows:
        assert row[cols.index("clustered-index")] <= 2.5 * row[cols.index("seq-scan")]

    # planner picks an index for selective predicates, seq for full scans
    assert actual.rows[0][cols.index("planner picks")] == "IndexScan"
    assert actual.rows[-1][cols.index("planner picks")] == "SeqScan"
