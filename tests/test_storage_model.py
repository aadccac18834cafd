"""Model-based (stateful hypothesis) tests for the storage layer.

Two state machines drive the real ``repro.hbase`` objects through
random operation sequences and compare every read against a plain
dict reference:

* :class:`RegionMachine` — a set of :class:`Region` shards covering the
  keyspace, driven through ``put_block`` (random order, equal-ts ties),
  ``flush``, ``compact``, ``delete_range``, ``discard_memstore`` and
  ``split``; ``scan``/``get`` on random ranges (including ``b""``
  bounds) must match the reference's newest-wins, tombstone-masked
  view.
* :class:`MasterMachine` — an :class:`HMaster` table under random
  writes, splits, moves and flushes; ``direct_scan``,
  ``direct_scan_consistent`` and ``locate_range`` must match the union
  of the regions, including ranges that start or end exactly on a
  region boundary.

The reference keeps a region as two newest-wins dicts (flushed and
unflushed cells) plus its tombstone list, which is all the semantics
the LSM layout is allowed to show.
"""

from typing import Dict, List, Optional, Tuple

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster.network import LatencyModel, Network
from repro.cluster.node import Node
from repro.cluster.simulation import Simulator
from repro.hbase.master import HMaster
from repro.hbase.region import Cell, Region, RegionInfo
from repro.hbase.regionserver import RegionServer

ROWS = [b"a", b"b", b"b\x00", b"c", b"cc", b"d", b"e", b"f"]
QUALS = [b"\x00\x01", b"\x00\x02", b"\x0e\x0f", b"\xf0\x00\x01"]
BOUNDS = [b""] + ROWS + [b"ab", b"z"]
FLUSH_THRESHOLD = 6

Key = Tuple[bytes, bytes]

cells_st = st.lists(
    st.builds(
        Cell,
        st.sampled_from(ROWS),
        st.sampled_from(QUALS),
        st.binary(min_size=1, max_size=2),
        st.integers(0, 5).map(float),
    ),
    min_size=1,
    max_size=12,
)


def _in_range(row: bytes, start: bytes, end: bytes) -> bool:
    return row >= start and (not end or row < end)


class RefRegion:
    """Dict reference for one region: flushed + unflushed newest-wins maps."""

    def __init__(self, start: bytes, end: bytes) -> None:
        self.start, self.end = start, end
        self.flushed: Dict[Key, Cell] = {}
        self.mem: Dict[Key, Cell] = {}
        self.tombstones: List[Tuple[bytes, bytes, float]] = []

    def contains(self, row: bytes) -> bool:
        return _in_range(row, self.start, self.end)

    def put_block(self, cells: List[Cell]) -> None:
        for cell in cells:
            old = self.mem.get(cell.key)
            if old is None or cell.ts >= old.ts:
                self.mem[cell.key] = cell
        if len(self.mem) >= FLUSH_THRESHOLD:
            self.flush()

    def flush(self) -> None:
        for key, cell in self.mem.items():
            old = self.flushed.get(key)
            if old is None or cell.ts >= old.ts:
                self.flushed[key] = cell
        self.mem.clear()

    def masked(self, cell: Cell) -> bool:
        return any(
            _in_range(cell.row, lo, hi) and cell.ts <= ts
            for lo, hi, ts in self.tombstones
        )

    def visible(self, key: Key) -> Optional[Cell]:
        mem, flushed = self.mem.get(key), self.flushed.get(key)
        best = mem if mem is not None and (flushed is None or mem.ts >= flushed.ts) else flushed
        if best is None or self.masked(best):
            return None
        return best

    def scan(self, start: bytes, end: bytes) -> List[Cell]:
        keys = sorted(set(self.mem) | set(self.flushed))
        out = []
        for key in keys:
            if not (self.contains(key[0]) and _in_range(key[0], start, end)):
                continue
            cell = self.visible(key)
            if cell is not None:
                out.append(cell)
        return out

    def compact(self, n_store_files: int) -> None:
        if n_store_files <= 1 and not self.tombstones:
            return
        if self.tombstones:
            self.flushed = {k: c for k, c in self.flushed.items() if not self.masked(c)}
            self.mem = {k: c for k, c in self.mem.items() if not self.masked(c)}
            self.tombstones.clear()


def _region(start: bytes, end: bytes, region_id: int) -> Region:
    return Region(RegionInfo("t", start, end, region_id), flush_threshold=FLUSH_THRESHOLD)


class RegionMachine(RuleBasedStateMachine):
    """Regions covering the keyspace versus their dict references."""

    @initialize()
    def setup(self) -> None:
        self.next_id = 2
        self.shards: List[Tuple[Region, RefRegion]] = [
            (_region(b"", b"", 1), RefRegion(b"", b""))
        ]

    def _pick(self, data) -> Tuple[int, Region, RefRegion]:
        i = data.draw(st.integers(0, len(self.shards) - 1), label="shard")
        region, ref = self.shards[i]
        return i, region, ref

    @rule(data=st.data(), cells=cells_st)
    def put_block(self, data, cells) -> None:
        _, region, ref = self._pick(data)
        mine = [c for c in cells if ref.contains(c.row)]
        region.put_block(mine)
        if mine:
            ref.put_block(mine)
        assert region.memstore_size == len(ref.mem)

    @rule(data=st.data())
    def flush(self, data) -> None:
        _, region, ref = self._pick(data)
        region.flush()
        ref.flush()
        assert region.memstore_size == 0

    @rule(data=st.data())
    def compact(self, data) -> None:
        _, region, ref = self._pick(data)
        ref.compact(region.store_file_count)
        region.compact()
        assert region.store_file_count <= 1
        assert region.tombstone_count == len(ref.tombstones)

    @rule(
        data=st.data(),
        start=st.sampled_from(BOUNDS),
        end=st.sampled_from(BOUNDS),
        ts=st.integers(0, 5).map(float),
    )
    def delete_range(self, data, start, end, ts) -> None:
        _, region, ref = self._pick(data)
        expected = sum(1 for c in ref.scan(start, end) if c.ts <= ts)
        assert region.delete_range(start, end, ts) == expected
        ref.tombstones.append((start, end, ts))

    @rule(data=st.data())
    def discard_memstore(self, data) -> None:
        _, region, ref = self._pick(data)
        assert region.discard_memstore() == len(ref.mem)
        ref.mem.clear()

    @precondition(lambda self: len(self.shards) < 5)
    @rule(data=st.data(), key=st.sampled_from(ROWS))
    def split(self, data, key) -> None:
        i, region, ref = self._pick(data)
        if not ref.contains(key) or key == ref.start:
            return
        left, right = region.split(key, (self.next_id, self.next_id + 1))
        self.next_id += 2
        daughters = []
        for region_d, lo, hi in ((left, ref.start, key), (right, key, ref.end)):
            ref_d = RefRegion(lo, hi)
            # The daughter is rewritten cell by cell from the parent's
            # live view (masked cells are dropped, tombstones are not
            # inherited), flushing at the threshold like any put.
            for cell in ref.scan(lo, hi):
                ref_d.put_block([cell])
            daughters.append((region_d, ref_d))
        self.shards[i : i + 1] = daughters

    @rule(data=st.data(), start=st.sampled_from(BOUNDS), end=st.sampled_from(BOUNDS))
    def scan_range(self, data, start, end) -> None:
        _, region, ref = self._pick(data)
        assert region.scan(start, end) == ref.scan(start, end)

    @rule(data=st.data(), row=st.sampled_from(ROWS), qual=st.sampled_from(QUALS))
    def get(self, data, row, qual) -> None:
        _, region, ref = self._pick(data)
        if ref.contains(row):
            assert region.get(row, qual) == ref.visible((row, qual))

    @invariant()
    def full_scans_match(self) -> None:
        for region, ref in self.shards:
            assert region.scan() == ref.scan(b"", b"")
            assert region.scan(b"", b"") == region.scan()


TestRegionModel = RegionMachine.TestCase
TestRegionModel.settings = settings(max_examples=60, stateful_step_count=30, deadline=None)


class MasterMachine(RuleBasedStateMachine):
    """An HMaster table under splits and moves versus a dict of all cells."""

    @initialize()
    def setup(self) -> None:
        sim = Simulator()
        net = Network(sim, LatencyModel(base=0.0001, jitter=0.0))
        self.master = HMaster()
        self.servers = []
        for i in range(3):
            rs = RegionServer(sim, net, Node(sim, f"host{i}"), f"rs{i}")
            self.master.register_server(rs)
            self.servers.append(rs)
        self.master.create_table("t", [b"c"])
        self.ref: Dict[Key, Cell] = {}

    def _region_for(self, row: bytes) -> Region:
        info, server = self.master.locate("t", row)
        return next(
            r for r in self.master.server(server).hosted_regions() if r.info == info
        )

    def _bounds(self, data) -> Tuple[bytes, bytes]:
        starts = [info.start_key for info, _ in self.master.table_regions("t")]
        pool = st.sampled_from(sorted(set(BOUNDS) | set(starts)))
        return data.draw(pool, label="start"), data.draw(pool, label="end")

    @rule(cells=cells_st)
    def put(self, cells) -> None:
        for cell in cells:
            self._region_for(cell.row).put_block([cell])
            old = self.ref.get(cell.key)
            if old is None or cell.ts >= old.ts:
                self.ref[cell.key] = cell

    @precondition(lambda self: len(self.master.table_regions("t")) < 6)
    @rule(key=st.sampled_from(ROWS))
    def split(self, key) -> None:
        info, _ = self.master.locate("t", key)
        if key == info.start_key:
            return
        self.master.split_region("t", info.name, key)

    @rule(data=st.data())
    def move(self, data) -> None:
        regions = self.master.table_regions("t")
        info, _ = data.draw(st.sampled_from(regions), label="region")
        dest = data.draw(st.sampled_from(self.servers), label="dest")
        self.master.move_region("t", info.name, dest.name)

    @rule(row=st.sampled_from(ROWS))
    def flush(self, row) -> None:
        self._region_for(row).flush()

    @rule(data=st.data())
    def scans_match_union(self, data) -> None:
        start, end = self._bounds(data)
        expected = [self.ref[k] for k in sorted(self.ref) if _in_range(k[0], start, end)]
        assert self.master.direct_scan("t", start, end) == expected
        for timeline in (False, True):
            assert self.master.direct_scan_consistent("t", start, end, timeline=timeline) == (
                expected,
                0.0,
            )

    @rule(data=st.data())
    def locate_range_matches_overlap(self, data) -> None:
        start, end = self._bounds(data)
        expected = [
            (info, server)
            for info, server in self.master.table_regions("t")
            if (not end or info.start_key < end) and (not info.end_key or info.end_key > start)
        ]
        assert self.master.locate_range("t", start, end) == expected

    @invariant()
    def regions_tile_the_keyspace(self) -> None:
        infos = [info for info, _ in self.master.table_regions("t")]
        assert infos[0].start_key == b"" and infos[-1].end_key == b""
        for left, right in zip(infos, infos[1:]):
            assert left.end_key == right.start_key


TestMasterModel = MasterMachine.TestCase
TestMasterModel.settings = settings(max_examples=40, stateful_step_count=25, deadline=None)
