"""The paper's tables pinned by digest.

E1-E12 and E15 are the reproduction: simulated page I/O, rows, modeled
cost and q-error, deterministic by construction.  Each is regenerated
here at reduced parameters, its wall-clock columns are masked by header,
and the SHA-256 of what is left is compared with a literal — the
discipline ``tests/test_plan_digests.py`` applies to plans.  A digest
moves only when the cost model, the estimator, a planner or the
executor's page I/O changes what a table prints; a deliberate change of
that kind re-pins the digest and says why in CHANGES.md (the failure
message prints the tables, and the assertion diff the new digests).

``notes`` lines are not digested: E10's carries a wall-clock ratio.
"""

import functools
import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

from repro.bench import (
    ResultTable,
    e1_join_methods,
    e2_access_paths,
    e4_plan_quality,
    e6_estimation,
    e7_interesting_orders,
    e8_buffer_sweep,
    e9_rewrites,
    e10_wholesale,
    e11_ablations,
    e12_scaling,
    e15_feedback,
    fresh_db,
)
from repro.optimizer import CostModel, PlannerOptions
from repro.workloads import WholesaleScale, build_shape

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: every table of every experiment, at tier-1 size
EXPERIMENTS = {
    "E1": lambda: e1_join_methods.run(
        sizes=[(200, 200), (1200, 1200), (1600, 400)],
        buffer_pages=10,
        work_mem_pages=5,
    ),
    "E2/E3": lambda: e2_access_paths.run(
        num_rows=4000, fractions=[0.002, 0.05, 0.2, 1.0], buffer_pages=16
    ),
    "E4": lambda: e4_plan_quality.run_plan_quality(
        shapes=["chain", "star", "clique"],
        n=5,
        base_rows=450,
        buffer_pages=32,
        strategies=["dp", "dp-bushy", "greedy", "syntactic", "random"],
    ),
    "E5": lambda: e4_plan_quality.run_planning_time(
        shape="chain",
        max_n=6,
        base_rows=60,
        strategies=["dp", "dp-bushy", "greedy", "exhaustive"],
        exhaustive_limit=5,
    )
    + e4_plan_quality.run_planning_time(
        shape="clique",
        max_n=5,
        base_rows=40,
        strategies=["dp", "greedy", "exhaustive"],
    ),
    "E6": lambda: e6_estimation.run(num_rows=4000, domain=80),
    "E7": lambda: e7_interesting_orders.run(rows_a=2000, rows_b=500),
    "E8": lambda: e8_buffer_sweep.run(
        outer_rows=1000, inner_rows=1000, buffer_sizes=[6, 12, 48]
    ),
    "E9": lambda: e9_rewrites.run(scale=WholesaleScale.tiny()),
    "E10": lambda: e10_wholesale.run(
        scale=WholesaleScale.tiny(),
        baseline="syntactic",
        buffer_pages=32,
        repeats=2,
    )
    + e10_wholesale.run(
        scale=WholesaleScale.tiny(),
        baseline="random",
        buffer_pages=32,
        repeats=2,
    ),
    "E11": lambda: e11_ablations.run_histogram_sweep(num_rows=3000, domain=200)
    + e11_ablations.run_replacement_policies(
        rows_big=1000, rows_small=600, buffer_pages=6
    ),
    "E12": lambda: e12_scaling.run(
        scales=["tiny", "small"], repeats=2, buffer_pages=48
    ),
    "E15": lambda: e15_feedback.run(
        num_rows=2000, starts=((0, 50, 100, 150), (400, 450, 500, 550))
    ),
}

#: one digest per table, in the order the experiment returns them
DIGESTS = {
    "E1": [
        "d1530de3f93394b31119575451e5a9f9e577813b43ceff004f7b37b513dcee52",
        "4a7dceafdb9e0167fc84e3c33978bd9e380a314589c9bd0291d45e066ad7c0b6",
    ],
    "E2/E3": [
        "be69564402f60c482bc72f8c01b36ce2517d6fefb25b5f2599b02b8044a213b9",
        "e171dd26c288afe096ef9c703a1033f934d20c776d6b641a6c152446d4d9f5d3",
    ],
    "E4": [
        "fae3cbc7240e8306a922bcf40b7f8ea74d90a1e9d47cf542301a6a090f0ca6b7",
    ],
    "E5": [
        "894273ada7ea2159706ee30b01948733911693cc957092fe40a7a0c8851383db",
        "23b2b68c5af50b32b0e7ee484a9979b4925f34a36efd9c7f5dde4f5d767a8481",
        "886dea67ec1fecd75a5419589cd7f50be5e5d28ce9143fee3b69c771182132a9",
        "d5b7c19e8171e70a9443d83fc77c3ea18cf8b9c5f9f27e35884e1a9127315e88",
    ],
    "E6": [
        "b1571b5b51074cf34dfd9b2524f2c8d7f308649c55f5a733986f2b2f3ce7357d",
        "c8b7e2f35b99b4c3e71c5e5ff30d34440f54c40a8521473a3ba6b93dc09804f9",
    ],
    "E7": [
        "cb00132b9f059613eac146870f075c3561c5b4aedad4b32426995e12dab17267",
    ],
    "E8": [
        "e7e7a9945e39f4f3afc5acd1505b1742e64876df7730bcfb27cd9e9208e68e0c",
    ],
    "E9": [
        "041b9b47f7b6ca06a9ded88503c3d3e605d8a22bc73135a5d2638a324d0da314",
    ],
    "E10": [
        "16f2d6e2a84248740b80df9293d9f26027b1ae2b3b4ff25bc70055d5784b3933",
        "a7b15fe6048c869981a8c64b60b3ae839fbc77cea100238ab8feb7a838eaf2d4",
    ],
    "E11": [
        "55e327079ad617c5f4a4c9af23d2a0d27c0fc6617cda25c68d387e4123649c88",
        "d999f9b3c9a00ae6876d79219f1aa5c9dea164f07f2976900d5f3c1d5f2cecf4",
    ],
    "E12": [
        "cf1a970ddfbc0a78f1c0cfcfc088fc86a427883a82749b23df296a87a41711a7",
    ],
    "E15": [
        "1cffb1eba7f28a5222aaffbf8b96ef95e6bdc2911e8d448e3209680cacb1202b",
    ],
}


def is_wall_clock(column):
    return column.endswith((" ms", "(ms)")) or column == "time ratio"


def masked(table):
    """The table as rendered, wall-clock cells blanked, notes dropped."""
    timed = {i for i, c in enumerate(table.columns) if is_wall_clock(c)}
    rows = [
        [None if i in timed else value for i, value in enumerate(row)]
        for row in table.rows
    ]
    return ResultTable(table.title, table.columns, rows).render()


def digest(table):
    return hashlib.sha256(masked(table).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def tables_of(name):
    return EXPERIMENTS[name]()


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_tables_unchanged(name):
    tables = tables_of(name)
    shown = "\n\n".join(masked(t) for t in tables)
    assert [digest(t) for t in tables] == DIGESTS[name], shown


def test_only_wall_clock_columns_are_masked():
    hidden = {
        name: [c for t in tables_of(name) for c in t.columns if is_wall_clock(c)]
        for name in EXPERIMENTS
    }
    assert {name: cols for name, cols in hidden.items() if cols} == {
        "E2/E3": ["seq ms", "clustered ms", "unclustered ms"],
        "E5": [
            "dp (ms)", "dp-bushy (ms)", "greedy (ms)", "exhaustive (ms)",
            "dp (ms)", "greedy (ms)", "exhaustive (ms)",
        ],
        "E10": [
            "dp: time (ms)", "syntactic: time (ms)", "time ratio",
            "dp: time (ms)", "random: time (ms)", "time ratio",
        ],
        "E12": ["dp: time (ms)", "syntactic: time (ms)", "time ratio"],
    }


def test_digest_bites_on_a_cost_model_change(monkeypatch):
    """Negative control: a seq scan priced at twice its pages moves E3's
    ``seq est`` column, and so its digest."""
    seq_scan = CostModel.seq_scan
    monkeypatch.setattr(
        CostModel,
        "seq_scan",
        lambda self, pages, rows: seq_scan(self, 2 * pages, rows),
    )
    _, validation = EXPERIMENTS["E2/E3"]()
    assert digest(validation) != DIGESTS["E2/E3"][1]


# -- plan choice is a function of catalog and statistics only ------------------


def hash_seed_probe():
    """E4's ``chain | greedy`` row and a greedy plan over a chain whose
    relations 0 and 2 have equal cardinality: text that must not depend
    on the interpreter's string-hash seed."""
    (table,) = e4_plan_quality.run_plan_quality(
        shapes=["chain"], n=5, base_rows=450, buffer_pages=32,
        strategies=["greedy"],
    )
    db = fresh_db(buffer_pages=32, work_mem_pages=8)
    chain = build_shape(db, "chain", 4, base_rows=450, seed=9)
    db.options = PlannerOptions(strategy="greedy")
    return masked(table) + "\n" + db.plan(chain.sql).pretty()


def test_greedy_tie_break_ignores_the_hash_seed():
    """The greedy planner took ``min()`` over a set of binding names, so
    a cardinality tie — c0, c2 and c4 here — was broken by string-hash
    order and E4's ``chain | greedy`` cost moved with PYTHONHASHSEED."""
    probes = [
        subprocess.Popen(
            [
                sys.executable,
                "-c",
                "from tests.test_paper_tables import hash_seed_probe; "
                "print(hash_seed_probe())",
            ],
            cwd=ROOT,
            env={
                **os.environ,
                "PYTHONPATH": str(ROOT / "src"),
                "PYTHONHASHSEED": seed,
            },
            stdout=subprocess.PIPE,
            text=True,
        )
        for seed in ("0", "1", "7")
    ]
    texts = [p.communicate(timeout=120)[0] for p in probes]
    assert all(p.returncode == 0 for p in probes)
    assert "greedy" in texts[0]
    assert texts[1] == texts[0] and texts[2] == texts[0]


# -- measuring leaves the tree alone ------------------------------------------


def test_bench_wrapper_writes_no_file(tmp_path):
    """``pytest benchmarks/ --benchmark-only`` used to rewrite the
    tracked ``benchmarks/results/*.txt`` in place; a wrapper now only
    prints.  Run the cheapest one in a copy and compare the file set."""
    pytest.importorskip("pytest_benchmark")
    copy = tmp_path / "benchmarks"
    copy.mkdir()
    for path in (ROOT / "benchmarks").glob("test_bench_*.py"):
        (copy / path.name).write_bytes(path.read_bytes())

    def files():
        return {
            str(p.relative_to(tmp_path)): p.read_bytes()
            for p in tmp_path.rglob("*")
            if p.is_file() and "__pycache__" not in p.parts
        }

    before = files()
    done = subprocess.run(
        [
            sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-only",
            "-k", "estimation", "-q", "-s", "-p", "no:cacheprovider",
        ],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "== E6/Table 4" in done.stdout
    assert files() == before
