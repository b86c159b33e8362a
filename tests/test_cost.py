"""Tests for the cost model."""


import pytest
from hypothesis import given, strategies as st

from repro.catalog import IndexInfo
from repro.optimizer import Cost, CostModel, cardenas_pages


def fake_index(clustered=False, height=2, leaf_pages=10):
    class _S:
        pass

    s = _S()
    s.height = height
    ix = IndexInfo("ix", "t", "c", clustered, structure=s, key_of=None)
    ix.leaf_pages = leaf_pages
    return ix


class TestCost:
    def test_total_weights_cpu(self):
        c = Cost(io=10, cpu=100)
        assert c.total == pytest.approx(11.0)

    def test_addition(self):
        c = Cost(1, 2) + Cost(3, 4)
        assert c.io == 4 and c.cpu == 6

    def test_ordering(self):
        assert Cost(1, 0) < Cost(2, 0)


class TestCardenas:
    def test_zero_fetches(self):
        assert cardenas_pages(100, 0) == 0.0

    def test_single_page(self):
        assert cardenas_pages(1, 50) == 1.0

    def test_monotone_in_fetches(self):
        values = [cardenas_pages(100, k) for k in (1, 10, 100, 1000)]
        assert values == sorted(values)

    def test_caps_at_pages(self):
        assert cardenas_pages(100, 10**6) <= 100.0 + 1e-9

    def test_few_fetches_touch_few_pages(self):
        assert cardenas_pages(1000, 5) == pytest.approx(5.0, rel=0.01)

    @given(st.integers(1, 500), st.integers(0, 5000))
    def test_bounds(self, pages, fetches):
        v = cardenas_pages(pages, fetches)
        assert 0.0 <= v <= pages
        assert v <= fetches or fetches == 0 or v <= pages


class TestScans:
    def setup_method(self):
        self.model = CostModel(work_mem_pages=16, buffer_pages=1000)

    def test_seq_scan_linear_in_pages(self):
        assert self.model.seq_scan(100, 1000).io == 100

    def test_clustered_cheaper_than_unclustered(self):
        clustered = fake_index(clustered=True)
        unclustered = fake_index(clustered=False)
        c = self.model.index_scan(clustered, 100, 10000, 1000)
        u = self.model.index_scan(unclustered, 100, 10000, 1000)
        assert c.io < u.io

    def test_index_scan_monotone_in_matches(self):
        ix = fake_index()
        costs = [
            self.model.index_scan(ix, 100, 10000, k).io
            for k in (1, 10, 100, 1000)
        ]
        assert costs == sorted(costs)

    def test_index_only_cheaper_than_fetching(self):
        ix = fake_index()
        io_only = self.model.index_only_scan(ix, 10000, 500)
        full = self.model.index_scan(ix, 100, 10000, 500)
        assert io_only.io < full.io

    def test_random_fetch_buffer_effect(self):
        small = CostModel(buffer_pages=10)
        big = CostModel(buffer_pages=10000)
        # table bigger than the small pool: repeated fetches miss
        assert small.random_fetch_pages(100, 5000) > big.random_fetch_pages(
            100, 5000
        )


class TestSort:
    def setup_method(self):
        self.model = CostModel(work_mem_pages=10)

    def test_in_memory_sort_free_io(self):
        assert self.model.sort(5, 100).io == 0.0

    def test_external_sort_pays_io(self):
        assert self.model.sort(100, 10000).io > 0

    def test_more_pages_more_io(self):
        a = self.model.sort(50, 5000).io
        b = self.model.sort(500, 50000).io
        assert b > a


class TestJoins:
    def setup_method(self):
        self.model = CostModel(work_mem_pages=10, buffer_pages=100)

    def test_hash_join_grace_switch(self):
        fits = self.model.hash_join(100, 1000, 5, 50, 1000)
        spills = self.model.hash_join(100, 1000, 50, 500, 1000)
        assert fits.io == 0.0
        assert spills.io > 0.0

    def test_bnl_fewer_blocks_with_memory(self):
        small = CostModel(work_mem_pages=4)
        big = CostModel(work_mem_pages=64)
        rescan = Cost(io=50, cpu=500)
        a = small.block_nested_loop(100, 1000, rescan, 500)
        b = big.block_nested_loop(100, 1000, rescan, 500)
        assert a.io > b.io

    def test_bnl_cached_inner_free_rescans(self):
        model = CostModel(work_mem_pages=10, buffer_pages=100)
        rescan = Cost(io=20, cpu=100)
        cached = model.block_nested_loop(
            100, 1000, rescan, 500, inner_pages=20
        )
        uncached = model.block_nested_loop(
            100, 1000, rescan, 500, inner_pages=99999
        )
        assert cached.io < uncached.io

    def test_merge_join_cpu_only(self):
        c = self.model.merge_join(100, 200, 50)
        assert c.io == 0.0 and c.cpu == 350

    def test_index_nl_scales_with_outer(self):
        ix = fake_index()
        a = self.model.index_nested_loop(10, ix, 100, 10000, 1.0)
        b = self.model.index_nested_loop(10000, ix, 100, 10000, 1.0)
        assert b.io > a.io

    def test_work_mem_validation(self):
        with pytest.raises(ValueError):
            CostModel(work_mem_pages=2)
