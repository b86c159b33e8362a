"""Tests for column statistics and histograms."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import (
    HistogramKind,
    analyze_column,
    build_equi_depth,
    build_equi_width,
)
from repro.types import DataType


class TestAnalyzeColumn:
    def test_counts(self):
        values = [1, 2, 2, 3, None, None]
        stats = analyze_column(DataType.INT, values)
        assert stats.num_rows == 6
        assert stats.null_count == 2
        assert stats.num_distinct == 3
        assert stats.min_value == 1 and stats.max_value == 3
        assert abs(stats.null_fraction - 2 / 6) < 1e-9

    def test_empty(self):
        stats = analyze_column(DataType.INT, [])
        assert stats.num_rows == 0
        assert stats.num_distinct == 0
        assert stats.histogram is None

    def test_all_null(self):
        stats = analyze_column(DataType.INT, [None, None])
        assert stats.null_count == 2
        assert stats.num_distinct == 0

    def test_mcvs_on_skew(self):
        values = [0] * 500 + list(range(1, 101))
        stats = analyze_column(DataType.INT, values, num_mcvs=4)
        mcv_values = [v for v, _, _ in stats.mcvs]
        assert 0 in mcv_values
        assert stats.mcv_lookup(0) == pytest.approx(500 / 600)
        assert stats.mcv_lookup(50) is None

    def test_no_mcvs_on_uniform(self):
        values = list(range(100)) * 3
        stats = analyze_column(DataType.INT, values, num_mcvs=4)
        assert stats.mcvs == []

    def test_text_column(self):
        stats = analyze_column(DataType.TEXT, ["a", "b", "b", "c"])
        assert stats.num_distinct == 3
        assert stats.min_value == "a"

    def test_histogram_kinds(self):
        values = list(range(1000))
        ew = analyze_column(
            DataType.INT, values, histogram=HistogramKind.EQUI_WIDTH
        )
        ed = analyze_column(
            DataType.INT, values, histogram=HistogramKind.EQUI_DEPTH
        )
        none = analyze_column(DataType.INT, values, histogram=HistogramKind.NONE)
        assert ew.histogram.kind is HistogramKind.EQUI_WIDTH
        assert ed.histogram.kind is HistogramKind.EQUI_DEPTH
        assert none.histogram is None


class TestHistograms:
    def test_equi_width_uniform_fractions(self):
        hist = build_equi_width([float(i) for i in range(1000)], 20)
        assert hist.total == 1000
        assert hist.fraction_below(500.0, False) == pytest.approx(0.5, abs=0.03)
        assert hist.fraction_below(-1.0, False) == 0.0
        assert hist.fraction_below(2000.0, True) == 1.0

    def test_equi_depth_bucket_sizes(self):
        values = [float(i) for i in range(1000)]
        hist = build_equi_depth(values, 10)
        assert hist.total == 1000
        assert max(hist.counts) - min(hist.counts) <= 110

    def test_equi_depth_handles_heavy_duplicates(self):
        values = [1.0] * 900 + [float(i) for i in range(2, 102)]
        hist = build_equi_depth(values, 10)
        assert hist.total == 1000
        assert hist.fraction_equal(1.0) > 0.5

    def test_single_value_column(self):
        for build in (build_equi_width, build_equi_depth):
            hist = build([5.0] * 10, 4)
            assert hist.fraction_equal(5.0) == pytest.approx(1.0)
            assert hist.fraction_below(5.0, True) == pytest.approx(1.0)
            assert hist.fraction_below(4.0, True) == 0.0

    def test_empty_returns_none(self):
        assert build_equi_width([], 4) is None
        assert build_equi_depth([], 4) is None

    def test_fraction_equal_skew(self):
        values = [0.0] * 500 + [float(i) for i in range(1, 501)]
        hist = build_equi_depth(values, 16)
        assert hist.fraction_equal(0.0) > hist.fraction_equal(250.0)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=300),
        st.integers(2, 32),
    )
    def test_fraction_below_is_monotone(self, values, buckets):
        hist = build_equi_depth(values, buckets)
        lo, hi = min(values), max(values)
        probes = [lo + (hi - lo) * i / 10 for i in range(11)]
        fracs = [hist.fraction_below(p, False) for p in probes]
        assert all(0.0 <= f <= 1.0 for f in fracs)
        assert all(a <= b + 1e-9 for a, b in zip(fracs, fracs[1:]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(-100, 100), min_size=1, max_size=300),
        st.integers(2, 16),
    )
    def test_equi_width_total_preserved(self, values, buckets):
        hist = build_equi_width([float(v) for v in values], buckets)
        assert hist.total == len(values)
