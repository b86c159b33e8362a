"""E12 — optimizer benefit vs data scale.

A selective 3-way join written in the worst syntactic order, at three
scale factors.  Shape asserted: the optimizer's plan never loses, and its
wall-clock advantage grows (or at minimum persists) with scale — the
"why pay for an optimizer" closing argument.
"""

from repro.bench import e12_scaling, render_all


def run_experiment():
    return e12_scaling.run(
        scales=["tiny", "small", "medium"], repeats=3, buffer_pages=48
    )


def test_bench_e12_scaling(benchmark):
    tables = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print("\n" + render_all(tables))
    (table,) = tables
    cols = table.columns
    ratio_col = cols.index("time ratio")
    ratios = [row[ratio_col].value for row in table.rows]
    rows_col = cols.index("lineitem rows")

    # data grows by >10x over the sweep
    sizes = table.column_values("lineitem rows")
    assert sizes[-1] > sizes[0] * 10

    # the optimizer never loses meaningfully at any scale
    assert min(ratios) > 0.8, ratios
    # and wins clearly at the largest scale
    assert ratios[-1] > 1.3, ratios
    # the largest-scale win is at least as big as the smallest-scale one
    # (allowing timing noise)
    assert ratios[-1] >= ratios[0] * 0.8, ratios
