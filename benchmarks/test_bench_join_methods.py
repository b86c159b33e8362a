"""E1 / Table 1 — join-method cost matrix.

Regenerates the classic join-method comparison: actual page I/O for every
join algorithm over relation pairs of growing size, plus the cost model's
prediction.  Shape asserted: nested loops lose at scale, hash/merge win,
index-NL is buffer-sensitive.
"""

from repro.bench import e1_join_methods, render_all

SIZES = [(500, 500), (3000, 3000), (8000, 2000), (2000, 8000)]


def run_experiment():
    return e1_join_methods.run(
        sizes=SIZES,
        buffer_pages=24,
        work_mem_pages=8,
        skip_tuple_nl_above=300_000,
    )


def test_bench_e1_join_methods(benchmark):
    tables = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print("\n" + render_all(tables))
    actual, estimated = tables
    methods = e1_join_methods.METHODS

    big = dict(zip(methods, actual.rows[1][2:]))  # 3000 x 3000
    # classic shape: blocked/hash/merge all beat index-NL once the working
    # set exceeds the buffer pool
    assert big["hash"] < big["index-NL"]
    assert big["sort-merge"] < big["index-NL"]

    asym = dict(zip(methods, actual.rows[2][2:]))  # 8000 x 2000
    # with a small inner, one extra inner pass is cheap: block-NL competitive
    assert asym["block-NL"] <= asym["sort-merge"]

    # the model agrees on the headline ordering at scale
    model_big = dict(zip(methods, estimated.rows[1][2:]))
    assert model_big["hash"] < model_big["tuple-NL"]
    assert model_big["sort-merge"] < model_big["tuple-NL"]
