"""E8 / Figure 3 — buffer-size sensitivity of the join methods.

Shape asserted: block-NL improves steeply with memory then flatlines once
the inner fits; hash join flattens once the build side fits work memory;
index-NL is the most buffer-hungry at small pools.
"""

from repro.bench import e8_buffer_sweep, render_all

BUFFERS = [8, 16, 32, 64, 128]


def run_experiment():
    return e8_buffer_sweep.run(
        outer_rows=6000, inner_rows=6000, buffer_sizes=BUFFERS
    )


def test_bench_e8_buffer_sweep(benchmark):
    tables = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print("\n" + render_all(tables))
    (table,) = tables

    from repro.bench.figures import chart_from_table

    chart = chart_from_table(
        table, "buffer pages", list(e8_buffer_sweep.METHODS),
        title="Figure 3 — join I/O vs buffer pool size",
        log_y=True, x_label="buffer pages", y_label="page I/O",
    )
    print(chart)

    bnl = table.column_values("block-NL")
    hash_io = table.column_values("hash")
    inl = table.column_values("index-NL")
    smj = table.column_values("sort-merge")

    # block-NL monotonically (weakly) improves with memory, strictly from
    # the smallest to the largest pool
    assert all(a >= b for a, b in zip(bnl, bnl[1:]))
    assert bnl[0] > bnl[-1]

    # hash join reaches its floor (two input scans) and stays there
    assert hash_io[-1] == min(hash_io)
    assert hash_io[-2] <= hash_io[0]

    # sort-merge sheds spill passes as memory grows
    assert smj[0] > smj[-1]

    # index-NL is the most buffer-sensitive: worst at the smallest pool
    assert inl[0] == max(inl)
    assert inl[0] > bnl[0]
