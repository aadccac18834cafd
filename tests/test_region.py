"""Tests for regions: memstore, store files, scans, splits."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hbase.region import Cell, Region, RegionInfo, StoreFile


def region(start=b"", end=b"", flush=100_000, retain=True):
    return Region(RegionInfo("t", start, end, 1), flush, retain)


def cell(row, qual=b"q", value=b"v", ts=1.0):
    return Cell(row, qual, value, ts)


class TestRegionInfo:
    def test_contains_half_open(self):
        info = RegionInfo("t", b"b", b"d", 1)
        assert not info.contains(b"a")
        assert info.contains(b"b")
        assert info.contains(b"c")
        assert not info.contains(b"d")

    def test_unbounded_ends(self):
        info = RegionInfo("t", b"", b"", 1)
        assert info.contains(b"")
        assert info.contains(b"\xff" * 8)

    def test_name_unique_per_id(self):
        a = RegionInfo("t", b"", b"", 1)
        b = RegionInfo("t", b"", b"", 2)
        assert a.name != b.name


class TestWriteRead:
    def test_put_get(self):
        r = region()
        r.put(cell(b"r1"))
        got = r.get(b"r1", b"q")
        assert got is not None and got.value == b"v"

    def test_get_missing(self):
        assert region().get(b"nope", b"q") is None

    def test_newest_ts_wins(self):
        r = region()
        r.put(cell(b"r", value=b"old", ts=1.0))
        r.put(cell(b"r", value=b"new", ts=2.0))
        assert r.get(b"r", b"q").value == b"new"

    def test_stale_write_ignored(self):
        r = region()
        r.put(cell(b"r", value=b"new", ts=2.0))
        r.put(cell(b"r", value=b"old", ts=1.0))
        assert r.get(b"r", b"q").value == b"new"

    def test_out_of_range_rejected(self):
        r = region(b"m", b"z")
        with pytest.raises(KeyError):
            r.put(cell(b"a"))

    def test_counting_mode_stores_nothing(self):
        r = region(retain=False)
        r.put(cell(b"r"))
        assert r.writes == 1
        assert r.get(b"r", b"q") is None
        assert r.scan() == []


class TestFlushAndStoreFiles:
    def test_auto_flush_at_threshold(self):
        r = region(flush=3)
        for i in range(3):
            r.put(cell(b"r%d" % i))
        assert r.memstore_size == 0
        assert r.store_file_count == 1
        assert r.flushes == 1

    def test_read_spans_memstore_and_files(self):
        r = region(flush=2)
        r.put(cell(b"a"))
        r.put(cell(b"b"))  # flush happens
        r.put(cell(b"c"))
        assert {c.row for c in r.scan()} == {b"a", b"b", b"c"}

    def test_newest_version_across_files(self):
        r = region()
        r.put(cell(b"r", value=b"v1", ts=1.0))
        r.flush()
        r.put(cell(b"r", value=b"v2", ts=2.0))
        r.flush()
        assert r.get(b"r", b"q").value == b"v2"
        assert [c.value for c in r.scan()] == [b"v2"]

    def test_flush_empty_is_noop(self):
        r = region()
        r.flush()
        assert r.store_file_count == 0

    def test_compact_merges_files(self):
        r = region()
        for i in range(3):
            r.put(cell(b"r%d" % i, ts=float(i)))
            r.flush()
        assert r.store_file_count == 3
        r.compact()
        assert r.store_file_count == 1
        assert len(r.scan()) == 3

    def test_compact_preserves_newest(self):
        r = region()
        r.put(cell(b"r", value=b"old", ts=1.0))
        r.flush()
        r.put(cell(b"r", value=b"new", ts=5.0))
        r.flush()
        r.compact()
        assert r.get(b"r", b"q").value == b"new"

    def test_discard_memstore_loses_unflushed(self):
        r = region()
        r.put(cell(b"a", ts=1.0))
        r.flush()
        r.put(cell(b"b", ts=2.0))
        lost = r.discard_memstore()
        assert lost == 1
        assert {c.row for c in r.scan()} == {b"a"}


class TestScan:
    def test_scan_sorted(self):
        r = region()
        for row in (b"c", b"a", b"b"):
            r.put(cell(row))
        assert [c.row for c in r.scan()] == [b"a", b"b", b"c"]

    def test_scan_range(self):
        r = region()
        for row in (b"a", b"b", b"c", b"d"):
            r.put(cell(row))
        assert [c.row for c in r.scan(b"b", b"d")] == [b"b", b"c"]

    def test_scan_clamped_to_region(self):
        r = region(b"b", b"d")
        r.put(cell(b"b"))
        r.put(cell(b"c"))
        assert [c.row for c in r.scan(b"", b"")] == [b"b", b"c"]

    def test_scan_qualifier_ordering(self):
        r = region()
        r.put(cell(b"r", qual=b"q2"))
        r.put(cell(b"r", qual=b"q1"))
        assert [c.qualifier for c in r.scan()] == [b"q1", b"q2"]


class TestSplit:
    def make_populated(self):
        r = region()
        for i in range(10):
            r.put(cell(b"row%02d" % i, ts=float(i)))
        return r

    def test_split_partitions_rows(self):
        r = self.make_populated()
        left, right = r.split(b"row05", (10, 11))
        assert {c.row for c in left.scan()} == {b"row%02d" % i for i in range(5)}
        assert {c.row for c in right.scan()} == {b"row%02d" % i for i in range(5, 10)}
        assert left.info.end_key == b"row05" == right.info.start_key

    def test_split_resets_write_counters(self):
        r = self.make_populated()
        left, right = r.split(b"row05", (10, 11))
        assert left.writes == 0 and right.writes == 0

    def test_split_key_must_be_interior(self):
        r = self.make_populated()
        with pytest.raises(ValueError):
            r.split(b"", (10, 11))

    def test_midpoint_key(self):
        r = self.make_populated()
        mid = r.midpoint_key()
        assert mid is not None
        assert b"row00" < mid <= b"row09"

    def test_midpoint_none_for_single_row(self):
        r = region()
        r.put(cell(b"only"))
        assert r.midpoint_key() is None


class TestStoreFile:
    def test_binary_search_get(self):
        sf = StoreFile([cell(b"b"), cell(b"a"), cell(b"c")])
        assert sf.get(b"b", b"q") is not None
        assert sf.get(b"zz", b"q") is None

    def test_scan_bounds(self):
        sf = StoreFile([cell(b"a"), cell(b"b"), cell(b"c")])
        assert [c.row for c in sf.scan(b"b", b"")] == [b"b", b"c"]
        assert [c.row for c in sf.scan(b"", b"b")] == [b"a"]


class TestScanTouchesOnlyItsRange:
    """A range scan reads only the in-range cells of each source."""

    N_ROWS = 500

    @staticmethod
    def row(i):
        return b"r%05d" % i

    def loaded(self):
        r = region(flush=10**6)
        for first, last, ts in ((0, 10, 1.0), (5, 15, 2.0)):  # two store files
            r.put_block(
                [Cell(self.row(i), b"%03d" % q, b"f", ts)
                 for i in range(self.N_ROWS) for q in range(first, last)]
            )
            r.flush()
        r.put_block(
            [Cell(self.row(i), b"%03d" % q, b"m", 3.0)
             for i in range(self.N_ROWS) for q in range(100)]
        )
        assert r.memstore_size >= 50_000 and r.store_file_count == 2
        return r

    def test_one_row_scan_touches_at_most_that_row(self):
        r = self.loaded()
        row = self.row(250)
        # 10 + 10 cells in the store files, 100 in the memstore.
        for _ in range(2):  # index build, then index reuse
            touched, returned = r.cells_touched, r.cells_returned
            cells = r.scan(row, row + b"\x00")
            assert [c.qualifier for c in cells] == [b"%03d" % q for q in range(100)]
            assert all(c.value == b"m" for c in cells)
            assert r.cells_touched - touched <= 120
            assert r.cells_returned - returned == 100

    def test_new_writes_are_merged_into_the_index(self):
        r = self.loaded()
        row = self.row(7)
        r.scan(row, row + b"\x00")
        r.put_block([Cell(row, b"\xf0", b"new", 4.0), Cell(self.row(8), b"000", b"x", 4.0)])
        touched = r.cells_touched
        cells = r.scan(row, row + b"\x00")
        assert len(cells) == 101 and cells[-1].value == b"new"
        assert r.cells_touched - touched <= 121

    def test_full_scan_counts_every_source(self):
        r = self.loaded()
        cells = r.scan()
        assert len(cells) == self.N_ROWS * 100
        assert r.cells_touched == self.N_ROWS * (10 + 10 + 100)
        assert r.cells_returned == len(cells)


class TestRegionProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.binary(min_size=1, max_size=4),
                st.binary(min_size=1, max_size=2),
                st.integers(min_value=0, max_value=20),
            ),
            max_size=60,
        ),
        st.integers(min_value=1, max_value=7),
    )
    def test_region_matches_dict_semantics(self, ops, flush_threshold):
        """A region behaves like a (row, qual) -> newest-value dict."""
        r = region(flush=flush_threshold)
        reference = {}
        for row, qual, ts in ops:
            c = Cell(row, qual, b"v%d" % ts, float(ts))
            r.put(c)
            key = (row, qual)
            if key not in reference or ts >= reference[key][1]:
                reference[key] = (c.value, ts)
        scanned = {(c.row, c.qualifier): c.value for c in r.scan()}
        expected = {k: v for k, (v, _) in reference.items()}
        assert scanned == expected
        for (row, qual), value in expected.items():
            assert r.get(row, qual).value == value

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.binary(min_size=1, max_size=3), min_size=2, max_size=40, unique=True))
    def test_split_conserves_cells(self, rows):
        r = region()
        for row in rows:
            r.put(cell(row))
        mid = sorted(rows)[len(rows) // 2]
        if mid == min(rows):
            return  # split key must be interior
        left, right = r.split(mid, (2, 3))
        merged = {c.row for c in left.scan()} | {c.row for c in right.scan()}
        assert merged == set(rows)
        assert all(c.row < mid for c in left.scan())
        assert all(c.row >= mid for c in right.scan())
