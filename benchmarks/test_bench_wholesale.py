"""E10 / Table 7 — end-to-end optimizer benefit on the wholesale workload.

All eight analytical queries, cost-based DP vs the syntactic and random
baselines.  Shape asserted: the optimizer never loses meaningfully and
wins overall (geo-mean time ratio > 1); result sets are verified identical
inside the experiment itself.
"""

from repro.bench import e10_wholesale, render_all
from repro.workloads import WholesaleScale


def run_experiment():
    out = []
    for baseline in ("syntactic", "random"):
        out += e10_wholesale.run(
            scale=WholesaleScale.small(),
            baseline=baseline,
            buffer_pages=48,
            repeats=3,
        )
    return out


def test_bench_e10_wholesale(benchmark):
    tables = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print("\n" + render_all(tables))
    for table in tables:
        cols = table.columns
        ratio_col = cols.index("time ratio")
        dp_io_col = cols.index("dp: I/O")
        base_io_col = [c for c in cols if c.endswith(": I/O") and not c.startswith("dp")]
        base_io_col = cols.index(base_io_col[0])
        # where the baseline picked a genuinely different (heavier-I/O)
        # plan, the optimizer must win on time; identical-plan queries are
        # pure timing noise and only get a loose sanity bound
        for row in table.rows[:-1]:
            ratio = row[ratio_col].value
            if row[base_io_col] > row[dp_io_col] * 1.2:
                assert ratio > 1.0, (table.title, row[0])
            else:
                assert ratio > 0.3, (table.title, row[0])
        # the optimizer wins somewhere decisively...
        ratios = [row[ratio_col].value for row in table.rows[:-1]]
        assert max(ratios) > 2.0, table.title
        # ...and overall
        total = table.rows[-1]
        assert total[ratio_col].value > 1.0, table.title
