"""Tests for the B+-tree index."""

import hashlib
import random
from datetime import date, timedelta

import pytest
from hypothesis import given, settings, strategies as st

from repro.index import BPlusTree, BPTreeError
from repro.index.keys import MAX_KEY, MIN_KEY, key_lt
from repro.storage import BufferPool, DiskManager
from repro.types import DataType


def make_tree(dtype=DataType.INT, pool_pages=300, page_size=512):
    disk = DiskManager(page_size)
    pool = BufferPool(disk, pool_pages)
    return disk, BPlusTree(pool, dtype, "ix")


class TestInsertSearch:
    def test_empty(self):
        _, tree = make_tree()
        assert tree.num_entries == 0
        assert tree.search(5) == []
        assert list(tree.items()) == []

    def test_single(self):
        _, tree = make_tree()
        tree.insert(42, (0, 0))
        assert tree.search(42) == [(0, 0)]
        assert tree.height == 1

    def test_sequential_inserts_split(self):
        _, tree = make_tree()
        for i in range(500):
            tree.insert(i, (i, 0))
        assert tree.height > 1
        tree.validate()
        assert tree.search(250) == [(250, 0)]

    def test_random_inserts(self):
        _, tree = make_tree()
        keys = list(range(800))
        random.Random(4).shuffle(keys)
        for k in keys:
            tree.insert(k, (k, 1))
        tree.validate()
        assert [k for k, _ in tree.items()] == list(range(800))

    def test_duplicates(self):
        _, tree = make_tree()
        for i in range(30):
            tree.insert(7, (i, 0))
        tree.insert(6, (0, 0))
        tree.insert(8, (0, 0))
        assert len(tree.search(7)) == 30
        tree.validate()

    def test_duplicates_across_splits(self):
        _, tree = make_tree()
        for i in range(400):
            tree.insert(i % 5, (i, 0))
        tree.validate()
        assert len(tree.search(3)) == 80

    def test_text_keys(self):
        _, tree = make_tree(DataType.TEXT)
        words = [f"word{i:03d}" for i in range(200)]
        random.Random(1).shuffle(words)
        for i, w in enumerate(words):
            tree.insert(w, (i, 0))
        tree.validate()
        got = [k for k, _ in tree.range_scan("word010", "word019")]
        assert got == [f"word{i:03d}" for i in range(10, 20)]

    def test_null_keys_allowed_in_btree(self):
        _, tree = make_tree()
        tree.insert(None, (1, 0))
        tree.insert(5, (2, 0))
        items = list(tree.items())
        assert items[0][0] is None  # NULLs sort first
        # bounded scans exclude NULLs
        assert [k for k, _ in tree.range_scan(0, 10)] == [5]


class TestRangeScan:
    def setup_method(self):
        _, self.tree = make_tree()
        for i in range(0, 200, 2):  # even keys 0..198
            self.tree.insert(i, (i, 0))

    def test_inclusive_bounds(self):
        keys = [k for k, _ in self.tree.range_scan(10, 20, True, True)]
        assert keys == [10, 12, 14, 16, 18, 20]

    def test_exclusive_bounds(self):
        keys = [k for k, _ in self.tree.range_scan(10, 20, False, False)]
        assert keys == [12, 14, 16, 18]

    def test_open_low(self):
        keys = [k for k, _ in self.tree.range_scan(None, 6)]
        assert keys == [0, 2, 4, 6]

    def test_open_high(self):
        keys = [k for k, _ in self.tree.range_scan(194, None)]
        assert keys == [194, 196, 198]

    def test_bounds_between_keys(self):
        keys = [k for k, _ in self.tree.range_scan(11, 15)]
        assert keys == [12, 14]

    def test_empty_range(self):
        assert list(self.tree.range_scan(11, 11)) == []
        assert list(self.tree.range_scan(500, 600)) == []

    def test_full_scan_sorted(self):
        keys = [k for k, _ in self.tree.items()]
        assert keys == sorted(keys)

    def test_exclusive_low_over_leaves_full_of_its_duplicates(self):
        _, tree = make_tree(page_size=128)
        for i in range(30):  # several leaves of nothing but 5s
            tree.insert(5, (i, 0))
        tree.insert(9, (99, 0))
        assert tree.num_leaf_pages() >= 4
        assert list(tree.range_scan(5, None, False)) == [(9, (99, 0))]
        assert len(list(tree.range_scan(5, None, True))) == 31


class TestDelete:
    def test_delete_existing(self):
        _, tree = make_tree()
        for i in range(100):
            tree.insert(i, (i, 0))
        assert tree.delete(50, (50, 0)) is True
        assert tree.search(50) == []
        assert tree.num_entries == 99
        tree.validate()

    def test_delete_missing(self):
        _, tree = make_tree()
        tree.insert(1, (1, 0))
        assert tree.delete(2, (2, 0)) is False
        assert tree.delete(1, (9, 9)) is False  # wrong rid

    def test_delete_one_duplicate(self):
        _, tree = make_tree()
        for i in range(5):
            tree.insert(7, (i, 0))
        assert tree.delete(7, (2, 0)) is True
        assert len(tree.search(7)) == 4
        assert (7, (2, 0)) not in list(tree.items())

    def test_delete_then_reinsert(self):
        _, tree = make_tree()
        for i in range(200):
            tree.insert(i, (i, 0))
        for i in range(0, 200, 3):
            tree.delete(i, (i, 0))
        for i in range(0, 200, 3):
            tree.insert(i, (i, 7))
        tree.validate()
        assert tree.search(3) == [(3, 7)]


class TestIOBehaviour:
    def test_search_io_is_logarithmic(self):
        disk, tree = make_tree(pool_pages=400)
        for i in range(2000):
            tree.insert(i, (i, 0))
        tree.pool.clear()
        reads = disk.stats.reads
        tree.search(1234)
        assert disk.stats.reads - reads <= tree.height + 1

    def test_leaf_count_matches_chain(self):
        _, tree = make_tree()
        for i in range(1000):
            tree.insert(i, (i, 0))
        assert tree.num_leaf_pages() >= 2


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["ins", "del"]), st.integers(0, 50)),
        max_size=120,
    )
)
def test_btree_matches_reference_multiset(ops):
    _, tree = make_tree(page_size=256)
    reference = []
    counter = 0
    for op, key in ops:
        if op == "ins":
            rid = (counter, 0)
            counter += 1
            tree.insert(key, rid)
            reference.append((key, rid))
        elif reference:
            victim = reference[key % len(reference)]
            assert tree.delete(*victim) is True
            reference.remove(victim)
    expected = sorted(reference, key=lambda e: (e[0], e[1]))
    assert list(tree.items()) == expected
    tree.validate()


# -- in-place node access: model, golden pages, page fixes ---------------------

_EPOCH = date(2000, 1, 1)


def _int_null(n):
    return None if n % 9 == 0 else n


# name -> (key dtype(s), small int -> key).  "null_late" is an INT tree that
# meets its first NULL half-way through a stream: entry offsets are a range
# until then and a scan of the page from then on.
KEY_TYPES = {
    "int": (DataType.INT, lambda n: n),
    "int_null": (DataType.INT, _int_null),
    "null_late": (DataType.INT, lambda n: n),
    "float": (DataType.FLOAT, lambda n: n / 4 - 3.5),
    "date": (DataType.DATE, lambda n: _EPOCH + timedelta(days=n)),
    "text": (DataType.TEXT, lambda n: "k" * (n % 7) + f"{n:03d}"),
    "composite": (
        (DataType.INT, DataType.TEXT),
        lambda n: (n // 4, None if n % 11 == 0 else "x" * (n % 4)),
    ),
}


def _make_key(name, n, late):
    if name == "null_late" and late:
        return _int_null(n)
    return KEY_TYPES[name][1](n)


def _order(entry):
    """Sort key for the tree's total order on entries: NULLs first,
    composite keys component-wise, ties by rid."""
    key, rid = entry
    parts = key if isinstance(key, tuple) else (key,)
    return [(p is not None, 0 if p is None else p) for p in parts], rid


def _expected_range(model, low, high, low_inclusive, high_inclusive):
    out = []
    for key, rid in sorted(model, key=_order):
        if key is None and (low is not None or high is not None):
            continue
        if low is not None and (
            key_lt(key, low) or (not low_inclusive and not key_lt(low, key))
        ):
            continue
        if high is not None and (
            key_lt(high, key) or (not high_inclusive and not key_lt(key, high))
        ):
            continue
        out.append((key, rid))
    return out


def _assert_same_entries(got, expected):
    """Keys come back in order; among equal keys the rid order is only
    promised within a leaf, so entries are compared as a multiset."""
    assert [k for k, _ in got] == [k for k, _ in expected]
    assert sorted(got, key=_order) == expected


@pytest.mark.parametrize("name", sorted(KEY_TYPES))
def test_tree_matches_sorted_list_model(name):
    op = st.tuples(
        st.sampled_from(["ins", "ins", "del", "miss", "search", "range"]),
        st.integers(0, 40),
        st.integers(0, 42),
        st.integers(0, 3),
    )

    @settings(max_examples=40, deadline=None)
    @given(st.lists(op, min_size=30, max_size=150))
    def run(ops):
        _, tree = make_tree(KEY_TYPES[name][0], page_size=128)
        hot = _make_key(name, 5, False)
        model = [(hot, (1000 + i, 0)) for i in range(30)]  # spans several leaves
        for entry in model:
            tree.insert(*entry)
        assert tree.num_leaf_pages() >= 4
        for step, (kind, a, b, flags) in enumerate(ops):
            late = 2 * step >= len(ops)
            key = _make_key(name, a, late)
            if kind == "ins":
                entry = (key, (step, b))
                tree.insert(*entry)
                model.append(entry)
            elif kind == "del":
                victim = model.pop(a * b % len(model))
                assert tree.delete(*victim) is True
            elif kind == "miss":
                assert tree.delete(key, (5000, 0)) is False
            elif kind == "search" and key is not None:
                expected = _expected_range(model, key, key, True, True)
                assert sorted(tree.search(key)) == sorted(r for _, r in expected)
            elif kind == "range":
                bounds = [None, MIN_KEY, MAX_KEY, key, _make_key(name, b, late)]
                if isinstance(key, tuple):
                    bounds += [(key[0], MIN_KEY), (key[0], MAX_KEY), (key[0],)]
                low = bounds[a % len(bounds)]
                high = bounds[b % len(bounds)]
                li, hi = bool(flags & 1), bool(flags & 2)
                _assert_same_entries(
                    list(tree.range_scan(low, high, li, hi)),
                    _expected_range(model, low, high, li, hi),
                )
            tree.validate()
            assert tree.num_entries == len(model)
        _assert_same_entries(list(tree.items()), sorted(model, key=_order))

    run()


def _seeded_tree(name, ops=6000):
    """A height-3 tree after *ops* seeded inserts and deletes: three keys in
    ten come from eight hot values, so their duplicates span leaves."""
    rng = random.Random(f"bptree/{name}")
    disk, tree = make_tree(KEY_TYPES[name][0], pool_pages=600)
    live = []
    for step in range(ops):
        if live and rng.random() < 0.35:
            assert tree.delete(*live.pop(rng.randrange(len(live)))) is True
            continue
        n = rng.randrange(8) if rng.random() < 0.3 else rng.randrange(2000)
        entry = (_make_key(name, n, 2 * step >= ops), (step, step % 7))
        tree.insert(*entry)
        live.append(entry)
    return disk, tree, live


# SHA-256 over (height, root, entries, pages) and every page image after the
# seeded stream, computed on the parent commit (a981a79: decode-all /
# re-encode-all nodes).  The on-page format and the split points are part of
# the contract: plan choices and every page-I/O experiment hang off them.
GOLDEN_PAGES = {
    "composite": "d4125faa7ac7e1480697c0ac69c9132dc1ab82e61661c0aedee93747b7a32d49",
    "date": "57e8e218d593e3d2ec4e79dd710e8fad189c4114f492ece01445a27f76c428d1",
    "float": "f4a90f932444c17b560a664d525154c4ad2780ebcb6667a406f086dbac6c8929",
    "int": "7abacb3304f4a9dd6dfc7e8fec80f4fafce4e38770750c0417c4fdafa225d438",
    "int_null": "c052aa5959d13d8c1e30789d22e15c4c7efdc212431567d1028d981a0f66021b",
    "null_late": "7468270afe78c5fd6bdb4802bcd83dce94edf3233c1591526064653460e4be8b",
    "text": "2a42f404300afbb7dd3ed260f119b5a708b4b6ce41ca9c600f6b935937500415",
}


@pytest.mark.parametrize("name", sorted(KEY_TYPES))
def test_page_images_match_the_pinned_digests(name):
    disk, tree, live = _seeded_tree(name)
    assert tree.height == 3
    tree.validate()
    _assert_same_entries(list(tree.items()), sorted(live, key=_order))
    tree.pool.flush_all()
    digest = hashlib.sha256(
        repr((tree.height, tree.root_page, tree.num_entries, tree.num_pages)).encode()
    )
    for image in disk.page_images(tree.file_id):
        digest.update(image)
    assert digest.hexdigest() == GOLDEN_PAGES[name]


def _fixes(tree, height, ops):
    """Buffer-pool accesses of *ops* seeded inserts, then as many deletes,
    then as many point searches on a tree of *height* (none grows it)."""
    rng = random.Random(f"fixes/{height}")
    stats = tree.pool.stats
    keys = [rng.randrange(10**6) for _ in range(ops)]
    totals = []
    for call in (
        lambda k: tree.insert(k, (k, 1)),
        lambda k: tree.delete(k, (k, 1)),
        tree.search,
    ):
        before = stats.accesses
        for k in keys:
            call(k)
        totals.append(stats.accesses - before)
    assert tree.height == height
    return tuple(totals)


# height -> (insert, delete, search) accesses of _fixes.  On the parent
# commit a non-splitting insert or delete read the leaf and then stored it
# (height + 1 fixes); now the leaf is fixed once, searched and spliced under
# that pin (height).  A split costs what it did (height + 3), a point search
# is one descent plus the leaves it walks through.
PARENT_FIXES = {1: (50, 50, 25), 2: (614, 606, 920), 3: (800, 800, 612)}
FIXES = {1: (25, 25, 25), 2: (421, 406, 920), 3: (600, 600, 612)}


@pytest.mark.parametrize("name", ["int", "null_late"])
@pytest.mark.parametrize("height,rows,ops", [(1, 5, 25), (2, 400, 200), (3, 3000, 200)])
def test_page_fixes_are_pinned(name, height, rows, ops):
    _, tree = make_tree(pool_pages=600)
    for i in range(rows):
        tree.insert(i * 331 % 10**6, (i, 0))
    if name == "null_late":
        tree.insert(None, (0, 0))
    got = _fixes(tree, height, ops)
    assert got == FIXES[height]
    assert got[2] == PARENT_FIXES[height][2]
    assert all(now <= then for now, then in zip(got, PARENT_FIXES[height]))


# what the parent commit yields for the scan below
SUSPENDED_SCAN_KEYS = (
    list(range(12, 100, 2)) + list(range(102, 141, 2)) + [141] + list(range(142, 151, 2))
)


def test_suspended_range_scan_yields_what_it_copied_under_the_pin():
    """A scan copies the slice of a leaf it will yield while the leaf is
    pinned: an insert into and a delete from that leaf after the first
    ``next`` are not seen, changes to later leaves are."""
    _, tree = make_tree()
    for i in range(0, 200, 2):
        tree.insert(i, (i, 0))
    scan = tree.range_scan(10, 150)
    assert next(scan) == (10, (10, 0))
    tree.insert(13, (13, 0))  # same leaf as 10: not seen
    assert tree.delete(14, (14, 0)) is True  # same leaf: still yielded
    tree.insert(141, (141, 0))  # a later leaf: seen
    assert tree.delete(100, (100, 0)) is True  # a later leaf: gone
    assert [k for k, _ in scan] == SUSPENDED_SCAN_KEYS


def test_reinserted_duplicate_with_a_low_rid_keeps_the_tree_valid():
    """An insert is routed by key alone, so a duplicate whose rid sorts
    below entries already in the left sibling lands in the right leaf.
    Keys still never decrease along the chain and every leaf is in
    ``(key, rid)`` order — the invariant ``validate`` checks — and
    search and delete find every entry."""
    rng = random.Random(14)
    _, tree = make_tree(pool_pages=600)
    rows = [(rng.randrange(100), (i, 0)) for i in range(4000)]
    for entry in rows:
        tree.insert(*entry)
    for key, rid in rows[::7]:
        assert tree.delete(key, rid) is True
        tree.insert(key, rid)
    tree.validate()
    items = list(tree.items())
    assert items != sorted(items)  # the chain is not in (key, rid) order
    _assert_same_entries(items, sorted(rows, key=_order))
    for key in range(100):
        assert sorted(tree.search(key)) == [r for k, r in rows if k == key]
    for entry in rows:
        assert tree.delete(*entry) is True
    assert tree.num_entries == 0


@pytest.mark.parametrize(
    "page_size, seed, short, long",
    [(4096, 0, (1, 19), (900, 1799)), (512, 1, (1, 19), (60, 150))],
)
@pytest.mark.parametrize("columns", ["b", "b, a"])
def test_variable_width_text_keys_split_where_both_halves_fit(
    tmp_path, page_size, seed, short, long, columns
):
    """A full node is cut at its middle entry only when both halves fit
    the page; with TEXT keys of very different lengths the middle entry
    can leave one half too long, and the cut moves to the nearest entry
    where both fit.  Every insert succeeds, the tree stays valid, no
    page image outgrows the page, and a checkpoint and reopen read the
    same rows."""
    from repro import Database

    rng = random.Random(seed)
    data_dir = str(tmp_path / "db")
    db = Database(data_dir=data_dir, page_size=page_size)
    db.execute("CREATE TABLE t (a INT PRIMARY KEY, b TEXT)")
    db.execute(f"CREATE INDEX ix_b ON t ({columns})")
    tree = db.catalog.table("t").indexes["b"].structure
    for i in range(160):
        width = rng.randint(*(short if rng.random() < 0.5 else long))
        text = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(width))
        db.execute(f"INSERT INTO t VALUES ({i}, '{text}')")
        tree.validate()
    for page_no in range(tree.num_pages):
        with tree._pin(page_no) as data:
            assert len(data) == page_size
    rows = db.query("SELECT a, b FROM t ORDER BY a").rows
    db.execute("CHECKPOINT")
    db.close()
    db2 = Database(data_dir=data_dir, page_size=page_size)
    assert db2.query("SELECT a, b FROM t ORDER BY a").rows == rows
    db2.catalog.table("t").indexes["b"].structure.validate()
    db2.close()


def test_an_image_longer_than_the_page_is_refused():
    from repro.index.page import fill_page

    data = bytearray(16)
    with pytest.raises(BPTreeError, match="17 bytes"):
        fill_page(data, bytes(17))
    assert len(data) == 16
