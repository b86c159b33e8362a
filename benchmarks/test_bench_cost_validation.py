"""E3 / Figure 1 — cost-model validation curve.

Estimated I/O vs measured page reads per access path across the
selectivity sweep.  Shape asserted: the model tracks reality within a
small factor everywhere (it is the same mechanism the planner ranks
plans with, so this is the experiment that justifies everything else).
"""

from repro.bench import e2_access_paths, render_all
from repro.bench.tables import q_error

FRACTIONS = [0.001, 0.01, 0.05, 0.2, 1.0]


def run_experiment():
    return e2_access_paths.run(
        num_rows=12000, fractions=FRACTIONS, buffer_pages=24
    )


def test_bench_e3_cost_validation(benchmark):
    tables = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print("\n" + render_all(tables[1:]))
    validation = tables[1]

    from repro.bench.figures import chart_from_table

    chart = chart_from_table(
        validation, "selectivity",
        ["seq act", "clustered act", "unclustered est", "unclustered act"],
        title="Figure 1 — access-path I/O, model vs measured",
        log_y=True, x_label="selectivity", y_label="page reads",
    )
    print(chart)
    cols = validation.columns

    pairs = [
        ("seq est", "seq act"),
        ("clustered est", "clustered act"),
        ("unclustered est", "unclustered act"),
    ]
    worst = 1.0
    for row in validation.rows:
        for est_col, act_col in pairs:
            est = float(row[cols.index(est_col)])
            act = float(row[cols.index(act_col)])
            worst = max(worst, q_error(est, act))
    # every prediction within 3x of measurement, across 3 paths x 5 points
    assert worst < 3.0, f"worst q-error {worst:.2f}"

    # and the *ordering* the planner needs is correct at the extremes:
    lo = validation.rows[0]
    hi = validation.rows[-1]
    assert lo[cols.index("unclustered est")] < lo[cols.index("seq est")]
    assert hi[cols.index("unclustered est")] > hi[cols.index("seq est")]
