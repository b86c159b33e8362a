"""Property tests for ``partition_hash``, the function the Grace hash
join partitions its spill files by (hypothesis-driven).

Both join inputs are partitioned independently and only same-numbered
partitions are joined, so the join is exact only if equal keys always
hash equal — including across numeric types (``1`` and ``1.0`` compare
equal in SQL) — and the hash of a value never depends on the process
that computes it.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.executor.joins import partition_hash

keys = st.one_of(
    st.integers(min_value=-(2**40), max_value=2**40),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
)


class TestHashPartitioning:
    @given(st.integers(min_value=-(2**31), max_value=2**31))
    def test_equal_int_float_keys_co_partition(self, n):
        """SQL equality is cross-type (1 = 1.0), so the hash must agree
        across int and integral float representations."""
        assert partition_hash(n) == partition_hash(float(n))

    @given(keys)
    def test_hash_is_deterministic(self, value):
        assert partition_hash(value) == partition_hash(value)
        assert 0 <= partition_hash(value) <= 0xFFFFFFFF

    def test_strings_hash_by_fnv1a_not_by_hash_seed(self):
        """Published FNV-1a 32-bit vectors: the string hash is a function
        of the UTF-8 bytes alone, so ``PYTHONHASHSEED`` never leaks in
        and two runs partition a spilled join the same way."""
        assert partition_hash("") == 0x811C9DC5
        assert partition_hash("a") == 0xE40C292C
        assert partition_hash("foobar") == 0xBF9CF968
