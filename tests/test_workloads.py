"""Tests for workload generators and shape/wholesale builders."""

import pytest

from repro import Database
from repro.workloads import (
    Rng,
    WHOLESALE_QUERIES,
    WholesaleScale,
    build_chain,
    build_clique,
    build_cycle,
    build_shape,
    build_star,
    categorical,
    correlated_pair,
    load_wholesale,
    prefixed_words,
    sequential_ints,
    shuffled_ints,
    uniform_floats,
    uniform_ints,
    words,
    zipf_ints,
)


class TestGenerators:
    def test_determinism(self):
        a = uniform_ints(Rng(5), 100, 0, 50)
        b = uniform_ints(Rng(5), 100, 0, 50)
        assert a == b

    def test_different_seeds_differ(self):
        assert uniform_ints(Rng(1), 50, 0, 1000) != uniform_ints(
            Rng(2), 50, 0, 1000
        )

    def test_uniform_bounds(self):
        vals = uniform_ints(Rng(3), 500, 10, 20)
        assert all(10 <= v <= 20 for v in vals)

    def test_uniform_floats_range(self):
        vals = uniform_floats(Rng(3), 500, -1.0, 1.0)
        assert all(-1.0 <= v <= 1.0 for v in vals)

    def test_sequential_and_shuffled(self):
        assert sequential_ints(5, 10) == [10, 11, 12, 13, 14]
        shuffled = shuffled_ints(Rng(4), 100)
        assert sorted(shuffled) == list(range(100))
        assert shuffled != list(range(100))

    def test_zipf_is_skewed(self):
        vals = zipf_ints(Rng(6), 5000, 100, skew=1.2)
        from collections import Counter

        counts = Counter(vals)
        assert counts[0] > counts.get(50, 0) * 3
        assert all(0 <= v < 100 for v in vals)

    def test_zipf_zero_skew_roughly_uniform(self):
        vals = zipf_ints(Rng(6), 10000, 10, skew=0.0)
        from collections import Counter

        counts = Counter(vals)
        assert max(counts.values()) < 2 * min(counts.values())

    def test_zipf_validation(self):
        with pytest.raises(ValueError):
            zipf_ints(Rng(1), 10, 0)

    def test_correlated_pair(self):
        a, b = correlated_pair(Rng(7), 2000, 20, correlation=1.0)
        assert a == b
        a, b = correlated_pair(Rng(7), 2000, 20, correlation=0.0)
        agree = sum(1 for x, y in zip(a, b) if x == y)
        assert agree < 400  # ~1/20 by chance

    def test_categorical_weights(self):
        vals = categorical(Rng(8), 5000, ["a", "b"], [9, 1])
        assert vals.count("a") > vals.count("b") * 4

    def test_words_and_prefixes(self):
        ws = words(Rng(9), 10, length=5)
        assert all(len(w) == 5 for w in ws)
        pws = prefixed_words(Rng(9), 20, ["x", "y"])
        assert all(w.split("-")[0] in ("x", "y") for w in pws)


class TestShapes:
    def test_chain_builds_and_runs(self):
        db = Database(buffer_pages=128)
        w = build_chain(db, 3, base_rows=100, seed=1)
        assert w.shape == "chain" and w.num_relations == 3
        r = db.query(w.sql)
        assert r.rows[0][0] > 0

    def test_chain_with_filter(self):
        db = Database(buffer_pages=128)
        w = build_chain(db, 3, base_rows=100, seed=1, selectivity=0.5)
        full = build_chain(
            db, 3, base_rows=100, seed=1, prefix="d"
        )
        filtered = db.query(w.sql).rows[0][0]
        unfiltered = db.query(full.sql).rows[0][0]
        assert filtered <= unfiltered

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            build_chain(Database(), 1)

    def test_star(self):
        db = Database(buffer_pages=128)
        w = build_star(db, 4, fact_rows=500, dim_base=20, seed=2)
        # every fact row joins exactly once to each dimension
        assert db.query(w.sql).rows == [(500,)]

    def test_clique(self):
        db = Database(buffer_pages=128)
        w = build_clique(db, 3, base_rows=80, seed=3)
        assert db.query(w.sql).rows[0][0] >= 0

    def test_cycle_has_closing_edge(self):
        db = Database(buffer_pages=128)
        w = build_cycle(db, 3, base_rows=60, seed=4)
        assert w.sql.count("=") == 3  # two chain edges + closing edge
        db.query(w.sql)

    def test_build_shape_dispatch(self):
        db = Database(buffer_pages=128)
        w = build_shape(db, "chain", 2, base_rows=50)
        assert w.shape == "chain"
        with pytest.raises(ValueError):
            build_shape(db, "moebius", 3)

    def test_same_seed_same_data(self):
        db1, db2 = Database(), Database()
        build_chain(db1, 2, base_rows=50, seed=9)
        build_chain(db2, 2, base_rows=50, seed=9)
        a = db1.query("SELECT * FROM c0").rows
        b = db2.query("SELECT * FROM c0").rows
        assert a == b


class TestWholesale:
    @pytest.fixture(scope="class")
    def wh(self):
        db = Database(buffer_pages=256, work_mem_pages=16)
        counts = load_wholesale(db, WholesaleScale.tiny(), seed=5)
        return db, counts

    def test_row_counts(self, wh):
        db, counts = wh
        for table, count in counts.items():
            assert db.query(f"SELECT COUNT(*) AS n FROM {table}").rows == [
                (count,)
            ]

    def test_foreign_keys_resolve(self, wh):
        db, counts = wh
        orphan = db.query(
            "SELECT COUNT(*) AS n FROM orders o, customer c "
            "WHERE o.cust_id = c.id"
        ).rows[0][0]
        assert orphan == counts["orders"]

    def test_statuses_skewed(self, wh):
        db, _ = wh
        rows = dict(
            db.query(
                "SELECT o.status, COUNT(*) AS n FROM orders o GROUP BY o.status"
            ).rows
        )
        assert rows["delivered"] > rows["open"]

    def test_all_queries_run(self, wh):
        db, _ = wh
        for name, sql in WHOLESALE_QUERIES.items():
            result = db.query(sql)
            assert result.rowcount >= 0, name

    def test_indexes_created(self, wh):
        db, _ = wh
        assert db.table("orders").index_on("cust_id") is not None
        assert db.table("lineitem").index_on("order_id") is not None

    def test_stats_analyzed(self, wh):
        db, _ = wh
        assert db.table("orders").stats is not None
