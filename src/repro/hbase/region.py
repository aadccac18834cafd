"""Regions: contiguous key-range shards backed by a mini-LSM tree.

A region owns the half-open row-key interval ``[start_key, end_key)``
(empty bytes meaning unbounded on either side, as in HBase).  Writes
land in an in-memory *memstore*; when the memstore exceeds its flush
threshold it is frozen into an immutable, sorted :class:`StoreFile`.
Reads merge the memstore with all store files, newest first.  Minor
compaction merges store files back into one.

Range reads touch only the cells in range: store files are sorted and
bisected, and the memstore keeps a lazily built sorted index of its own
key tuples next to the dict (see :meth:`Region.scan`).

The data plane is real — cells written here are the cells the TSDB
query engine later reads — while the *timing* of RPCs is modelled by
the RegionServer's service loop, not here.

Deletes are modelled as HBase-style *range tombstones*: a tombstone
``(start_row, end_row, ts)`` masks every cell in the row range whose
write timestamp is ``<= ts`` — a later re-write of the same cell wins
over the tombstone, exactly like newest-wins between versions.  Masked
cells stay on disk until the next :meth:`Region.compact`, which purges
them physically and retires the tombstones.  Tombstones are treated as
durable region metadata (as if WAL-persisted at write time), so a
RegionServer crash loses unflushed *data* but never an acknowledged
delete.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Cell", "StoreFile", "Region", "RegionInfo"]

Key = Tuple[bytes, bytes]


@dataclass(frozen=True, slots=True)
class Cell:
    """One HBase cell: ``(row, qualifier) -> value`` at a write timestamp.

    ``ts`` is a logical write timestamp used for newest-wins conflict
    resolution between memstore and store files.
    """

    row: bytes
    qualifier: bytes
    value: bytes
    ts: float

    @property
    def key(self) -> Tuple[bytes, bytes]:
        return (self.row, self.qualifier)


@dataclass(frozen=True)
class RegionInfo:
    """Identity and key range of a region."""

    table: str
    start_key: bytes
    end_key: bytes  # exclusive; b"" = unbounded
    region_id: int

    @property
    def name(self) -> str:
        return f"{self.table},{self.start_key.hex()},{self.region_id}"

    def contains(self, row: bytes) -> bool:
        if row < self.start_key:
            return False
        if self.end_key and row >= self.end_key:
            return False
        return True


class StoreFile:
    """Immutable sorted run of cells (an HFile stand-in).

    Cells are stored sorted by ``(row, qualifier)`` beside a parallel
    key list; point lookups and range bounds use binary search.  One
    entry per key (the flush already deduplicated by newest timestamp).
    """

    def __init__(self, cells: List[Cell]) -> None:
        self._cells = sorted(cells, key=lambda c: c.key)
        self._keys = [c.key for c in self._cells]

    @classmethod
    def from_sorted(cls, keys: List[Key], cells: List[Cell]) -> "StoreFile":
        """Adopt parallel, key-sorted, duplicate-free lists without copying."""
        sf = cls.__new__(cls)
        sf._keys = keys
        sf._cells = cells
        return sf

    def __len__(self) -> int:
        return len(self._cells)

    def get(self, row: bytes, qualifier: bytes) -> Optional[Cell]:
        i = bisect.bisect_left(self._keys, (row, qualifier))
        if i < len(self._keys) and self._keys[i] == (row, qualifier):
            return self._cells[i]
        return None

    def scan(self, start_row: bytes, end_row: bytes) -> Iterator[Cell]:
        """Cells with ``start_row <= row < end_row`` (``b''`` end = unbounded)."""
        lo, hi = _row_bounds(self._keys, start_row, end_row)
        return iter(self._cells[lo:hi])


def _row_bounds(keys: Sequence[Key], start_row: bytes, end_row: bytes) -> Tuple[int, int]:
    """``[lo, hi)`` positions of the keys whose row is in ``[start_row, end_row)``."""
    lo = bisect.bisect_left(keys, (start_row, b""))
    hi = bisect.bisect_left(keys, (end_row, b""), lo) if end_row else len(keys)
    return lo, hi


def _newest_wins(runs: List[Tuple[List[Key], List[Cell]]]) -> Tuple[List[Key], List[Cell]]:
    """Merge key-sorted ``(keys, cells)`` runs given oldest first.

    For a key present in several runs the highest write timestamp wins,
    and a later run wins a tie — the rule every read and compaction
    applies.  One stable sort over the concatenation (Timsort merges
    the pre-sorted runs) and one linear pass.
    """
    if len(runs) == 1:
        return runs[0]
    keys: List[Key] = []
    cells: List[Cell] = []
    for run_keys, run_cells in runs:
        keys += run_keys
        cells += run_cells
    out_keys: List[Key] = []
    out_cells: List[Cell] = []
    prev: Optional[Key] = None
    for i in sorted(range(len(keys)), key=keys.__getitem__):
        key, cell = keys[i], cells[i]
        if key == prev:
            if cell.ts >= out_cells[-1].ts:
                out_cells[-1] = cell
        else:
            out_keys.append(key)
            out_cells.append(cell)
            prev = key
    return out_keys, out_cells


class Region:
    """A key-range shard with memstore + store files.

    Parameters
    ----------
    info:
        Identity/key-range of the region.
    flush_threshold:
        Number of memstore entries that triggers an automatic flush.
        Real HBase flushes on bytes; entries keep the model simple and
        deterministic.
    """

    def __init__(
        self,
        info: RegionInfo,
        flush_threshold: int = 100_000,
        retain_data: bool = True,
    ) -> None:
        if flush_threshold < 1:
            raise ValueError("flush_threshold must be >= 1")
        self.info = info
        self.flush_threshold = flush_threshold
        self.retain_data = retain_data
        self._memstore: Dict[Key, Cell] = {}
        # Sorted list of the memstore dict's own key tuples, built by the
        # first scan (so write-only regions never pay for it) and kept
        # current through ``_pending``: keys first inserted since the
        # last scan, merged in by the next one.
        self._index: Optional[List[Key]] = None
        self._pending: List[Key] = []
        self._store_files: List[StoreFile] = []
        self._tombstones: List[Tuple[bytes, bytes, float]] = []
        self.writes = 0
        self.flushes = 0
        self.compactions = 0
        self.deletes = 0
        #: Cells read by scans from memstore and store-file slices
        #: (before newest-wins dedup and tombstone masking), and cells
        #: the scans returned.
        self.cells_touched = 0
        self.cells_returned = 0

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(self, cell: Cell) -> None:
        """Insert/overwrite one cell.  Raises if the row is out of range.

        Point-wise convenience form of :meth:`put_block` (the single
        implementation).
        """
        self.put_block([cell])

    def put_block(self, cells: List[Cell]) -> None:
        """Insert a run of cells in one call (the block write path).

        Semantically identical to calling :meth:`put` per cell, but the
        range check runs once per distinct row (block runs repeat rows
        for long stretches), counting-only mode becomes one counter
        bump, and the flush trigger is evaluated once per run instead
        of once per cell.
        """
        if not cells:
            return
        prev_row: Optional[bytes] = None
        for cell in cells:
            if cell.row != prev_row:
                if not self.info.contains(cell.row):
                    raise KeyError(
                        f"row {cell.row.hex()} outside region range "
                        f"[{self.info.start_key.hex()}, {self.info.end_key.hex()})"
                    )
                prev_row = cell.row
        if not self.retain_data:
            # Counting-only mode for pure-throughput ingestion studies:
            # the writes are accounted for but the bytes are discarded, so
            # multi-million-sample simulations stay within memory.
            self.writes += len(cells)
            return
        memstore = self._memstore
        index = self._index
        pending = self._pending if index is not None else None
        for cell in cells:
            key = (cell.row, cell.qualifier)
            existing = memstore.get(key)
            if existing is None:
                memstore[key] = cell
                if pending is not None:
                    pending.append(key)
            elif cell.ts >= existing.ts:
                memstore[key] = cell  # the dict keeps its original key tuple
        self.writes += len(cells)
        if index is not None and len(self._pending) > len(index):
            self._drop_index()  # cheaper to re-sort from scratch than merge
        if len(memstore) >= self.flush_threshold:
            self.flush()

    def _drop_index(self) -> None:
        self._index = None
        self._pending = []

    def _sorted_keys(self) -> List[Key]:
        """The memstore's keys in order, building or catching up the index."""
        index = self._index
        if index is None:
            index = self._index = sorted(self._memstore)
        elif self._pending:
            pending = self._pending
            pending.sort()
            index.extend(pending)
            index.sort()  # Timsort merges the two sorted runs
            pending.clear()
        return index

    def flush(self) -> None:
        """Freeze the memstore into a new store file.

        The store file adopts the sorted index and the dict's key
        tuples as they are: no re-sort, no new key objects.
        """
        if not self._memstore:
            return
        keys = self._sorted_keys()
        cells = list(map(self._memstore.__getitem__, keys))
        self._store_files.append(StoreFile.from_sorted(keys, cells))
        self._memstore.clear()
        self._drop_index()
        self.flushes += 1

    def discard_memstore(self) -> int:
        """Drop unflushed data (crash model).  Returns the number of cells lost.

        Store files survive a RegionServer crash (they live on shared
        storage); the memstore does not.  The master replays the WAL
        after calling this, restoring acknowledged writes.
        """
        lost = len(self._memstore)
        self._memstore.clear()
        self._drop_index()
        return lost

    # ------------------------------------------------------------------
    # delete path (range tombstones)
    # ------------------------------------------------------------------
    def delete_range(self, start_row: bytes, end_row: bytes, ts: float) -> int:
        """Mask every cell in ``[start_row, end_row)`` written at or before ``ts``.

        Returns the number of currently-visible cells the tombstone
        masks (for expiry accounting).  The mask is logical until the
        next :meth:`compact` purges the bytes; a re-write with a newer
        timestamp resurfaces the cell, which is what lets the lifecycle
        tier detect and re-drop too-late backfill explicitly.
        """
        doomed = sum(1 for c in self.scan(start_row, end_row) if c.ts <= ts)
        self._tombstones.append((start_row, end_row, ts))
        self.deletes += 1
        return doomed

    def _masked(self, cell: Cell) -> bool:
        for lo, hi, ts in self._tombstones:
            if cell.row >= lo and (not hi or cell.row < hi) and cell.ts <= ts:
                return True
        return False

    @property
    def tombstone_count(self) -> int:
        return len(self._tombstones)

    def compact(self) -> None:
        """Minor compaction: merge store files into one, newest-wins.

        Also the physical delete point: cells masked by a tombstone are
        dropped from the merged file *and* the memstore, after which the
        tombstones are retired.
        """
        if len(self._store_files) <= 1 and not self._tombstones:
            return
        keys, cells = _newest_wins([(sf._keys, sf._cells) for sf in self._store_files])
        if self._tombstones:
            live = [i for i, c in enumerate(cells) if not self._masked(c)]
            keys = [keys[i] for i in live]
            cells = [cells[i] for i in live]
            self._memstore = {
                k: c for k, c in self._memstore.items() if not self._masked(c)
            }
            self._drop_index()
            self._tombstones.clear()
        self._store_files = [StoreFile.from_sorted(keys, cells)] if cells else []
        self.compactions += 1

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def get(self, row: bytes, qualifier: bytes) -> Optional[Cell]:
        """Point lookup, newest version wins; tombstoned cells are invisible."""
        best = self._memstore.get((row, qualifier))
        for sf in reversed(self._store_files):
            cell = sf.get(row, qualifier)
            if cell is not None and (best is None or cell.ts > best.ts):
                best = cell
        if best is not None and self._tombstones and self._masked(best):
            return None
        return best

    def scan(self, start_row: bytes = b"", end_row: bytes = b"") -> List[Cell]:
        """Range scan, sorted by ``(row, qualifier)``, newest version wins.

        Bounds are clamped to the region's own range.  Each store file
        and the memstore index are bisected to the range, so a scan
        reads only in-range cells; a range held by one source is
        returned as that source's slice, otherwise the slices go
        through one newest-wins merge.
        """
        lo = max(start_row, self.info.start_key)
        hi = end_row
        if self.info.end_key:
            hi = self.info.end_key if not hi else min(hi, self.info.end_key)
        runs: List[Tuple[List[Key], List[Cell]]] = []
        for sf in self._store_files:
            i, j = _row_bounds(sf._keys, lo, hi)
            if i < j:
                runs.append((sf._keys[i:j], sf._cells[i:j]))
        if self._memstore:
            index = self._sorted_keys()
            i, j = _row_bounds(index, lo, hi)
            if i < j:
                keys = index[i:j]
                runs.append((keys, list(map(self._memstore.__getitem__, keys))))
        if not runs:
            return []
        self.cells_touched += sum(len(keys) for keys, _ in runs)
        cells = _newest_wins(runs)[1]
        if self._tombstones:
            cells = [c for c in cells if not self._masked(c)]
        self.cells_returned += len(cells)
        return cells

    # ------------------------------------------------------------------
    # split support
    # ------------------------------------------------------------------
    @property
    def memstore_size(self) -> int:
        return len(self._memstore)

    @property
    def store_file_count(self) -> int:
        return len(self._store_files)

    def cell_count(self) -> int:
        """Total live cells (deduplicated)."""
        return len(self.scan())

    def midpoint_key(self) -> Optional[bytes]:
        """A row key that splits the live data roughly in half.

        Returns ``None`` when the region holds fewer than two distinct
        rows (nothing to split).
        """
        cells = self.scan()
        rows = sorted({c.row for c in cells})
        if len(rows) < 2:
            return None
        return rows[len(rows) // 2]

    def split(self, split_key: bytes, new_region_ids: Tuple[int, int]) -> Tuple["Region", "Region"]:
        """Split into two daughter regions at ``split_key``.

        The parent must contain ``split_key`` strictly inside its range.
        Live cells are rewritten into the daughters' memstores (real
        HBase uses reference files; the observable result is the same).
        """
        if not self.info.contains(split_key) or split_key == self.info.start_key:
            raise ValueError("split key must fall strictly inside the region range")
        left_info = RegionInfo(self.info.table, self.info.start_key, split_key, new_region_ids[0])
        right_info = RegionInfo(self.info.table, split_key, self.info.end_key, new_region_ids[1])
        left = Region(left_info, self.flush_threshold, self.retain_data)
        right = Region(right_info, self.flush_threshold, self.retain_data)
        for cell in self.scan():
            (left if cell.row < split_key else right).put(cell)
        # Splitting must not inflate the write counters used for skew metrics.
        left.writes = 0
        right.writes = 0
        return left, right

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Region {self.info.name} memstore={self.memstore_size} "
            f"files={self.store_file_count}>"
        )
