"""E11 — design-choice ablations (histogram resolution/kind, buffer policy).

Shapes asserted:
* equi-depth histograms dominate equi-width at low bucket counts on skewed
  data (equi-depth @4 buckets ≈ equi-width @32);
* equi-width error falls monotonically-ish with resolution;
* MRU beats LRU on sequential rescans of a slightly-too-big inner and
  loses badly on random probes (the classic policy/workload interaction).
"""

from repro.bench import e11_ablations, render_all


def run_experiment():
    return e11_ablations.run_histogram_sweep(
        num_rows=12000, domain=200
    ) + e11_ablations.run_replacement_policies()


def test_bench_e11_ablations(benchmark):
    tables = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    print("\n" + render_all(tables))
    hist, policy = tables

    geo = hist.columns.index("geo-mean")
    width = {
        row[1]: row[geo] for row in hist.rows if row[0] == "equi_width"
    }
    depth = {
        row[1]: row[geo] for row in hist.rows if row[0] == "equi_depth"
    }
    # equi-depth at the coarsest setting beats equi-width until high
    # resolution — the reason equi-depth won historically
    assert depth[4] < width[4]
    assert depth[4] < width[16]
    # equi-width improves with resolution
    assert width[64] < width[4]

    rows = {row[0]: row for row in policy.rows}
    seq = policy.columns.index("sequential rescans (BNL)")
    probes = policy.columns.index("random probes (index-NL)")
    # MRU: best-or-equal on sequential flooding, clearly worst on probes
    assert rows["mru"][seq] <= rows["lru"][seq]
    assert rows["mru"][probes] > rows["lru"][probes] * 1.5
    # Clock approximates LRU on probes
    assert rows["clock"][probes] < rows["lru"][probes] * 1.2
