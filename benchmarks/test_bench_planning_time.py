"""E5 / Figure 2 — planning effort vs number of relations.

Shape asserted: greedy's considered-plan count grows linearly, DP's
polynomially, exhaustive explodes combinatorially (clique shape makes
every order valid, so the factorial bites).
"""

from repro.bench import e4_plan_quality, render_all


def run_experiment():
    chain = e4_plan_quality.run_planning_time(
        shape="chain",
        max_n=8,
        base_rows=100,
        strategies=["dp", "dp-bushy", "greedy", "exhaustive"],
        exhaustive_limit=7,
    )
    clique = e4_plan_quality.run_planning_time(
        shape="clique",
        max_n=7,
        base_rows=60,
        strategies=["dp", "greedy", "exhaustive"],
        exhaustive_limit=6,
    )
    return chain + clique


def test_bench_e5_planning_time(benchmark):
    tables = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print("\n" + render_all(tables))
    chain_effort = tables[1]
    clique_effort = tables[3]

    from repro.bench.figures import chart_from_table

    chart = chart_from_table(
        clique_effort, "n",
        ["dp plans", "greedy plans", "exhaustive plans"],
        title="Figure 2 — subplans considered vs relations (clique)",
        log_y=True, x_label="relations", y_label="plans",
    )
    print(chart)

    dp = chain_effort.column_values("dp plans")
    greedy = chain_effort.column_values("greedy plans")
    assert dp == sorted(dp)
    # greedy stays near-linear: last/first ratio far below dp's
    assert greedy[-1] / greedy[0] < dp[-1] / dp[0]

    # clique: exhaustive blows past DP well before n=6
    cols = clique_effort.columns
    for row in clique_effort.rows:
        n = row[0]
        ex = row[cols.index("exhaustive plans")]
        dp_n = row[cols.index("dp plans")]
        if n >= 6 and ex is not None:
            assert ex > 3 * dp_n, (n, ex, dp_n)
