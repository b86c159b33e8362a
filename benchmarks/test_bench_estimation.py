"""E6 / Table 4 — cardinality-estimation accuracy by estimator tier.

Shape asserted: the classic error hierarchy — uniform assumption fails on
skew; histograms fix ranges; MCVs fix heavy hitters; nothing fixes
correlated conjuncts (independence assumption).
"""

from repro.bench import e6_estimation, render_all


def run_experiment():
    return e6_estimation.run(num_rows=15000, domain=200, histogram_buckets=32)


def test_bench_e6_estimation(benchmark):
    tables = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print("\n" + render_all(tables))
    detail, summary = tables
    geo = {row[0]: row[1] for row in summary.rows}

    # hierarchy on the aggregate
    assert geo["hist+mcv"] <= geo["histogram"] * 1.05
    assert geo["histogram"] <= geo["uniform"] * 1.05
    assert geo["hist+mcv"] < geo["uniform"]

    by_label = {row[0]: row for row in detail.rows}
    cols = detail.columns

    def qerr(label, tier):
        return by_label[label][cols.index(f"{tier} q-err")]

    # zipf head: MCVs fix what uniform butchers
    assert qerr("point on zipf head", "uniform") > 5
    assert qerr("point on zipf head", "hist+mcv") < 2

    # range on skew: histograms fix what uniform butchers
    assert qerr("range on zipf", "uniform") > qerr("range on zipf", "histogram")
    assert qerr("range on zipf", "histogram") < 2

    # correlated conjunct: no tier saves the independence assumption
    assert min(
        qerr("conjunct correlated", t) for t in ("uniform", "histogram", "hist+mcv")
    ) > 3
