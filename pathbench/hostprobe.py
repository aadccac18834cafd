"""Host-speed probe, per-op normalization and order statistics.

On a small shared VM the host itself speeds up and slows down in
episodes lasting seconds to minutes, at times by a factor of two, while
CPU time keeps equal to wall time.  A fixed piece of pure-Python work timed right before and
right after each operation measures how fast the host runs at that
moment; dividing it out of the operation's wall time leaves a number
that tracks the program, not the host.

The probe mixes the kinds of work this program spends its time on:
interpreter bytecode (a counting loop), inserts into dicts with tuple
keys (memstore and cache inserts), sorting (scan merges) and random
access to a large table.  The collector is off inside the probe so
that the program's collections are never charged to the host.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from typing import List, Sequence, Tuple

__all__ = [
    "HostProbe",
    "OpClock",
    "normalize",
    "tail",
    "quantile_spread",
]


def _cell_key(cell: tuple) -> tuple:
    return cell[0]


class HostProbe:
    """The fixed reference work, with its large table built once.

    Three parts, in the proportions that tracked the workloads best
    (see ``README.md``):

    * a short interpreter loop;
    * a miniature memstore: fresh ``(row, qualifier)`` byte-string keys
      and cell tuples inserted into a new dict, then sorted by key, which
      allocates, hashes and frees the way the program's cells do;
    * stores at seeded random positions into a preallocated tuple-keyed
      dict of ``2**19`` entries (about 90 MB with its keys), which wait
      on memory the way the program's large memstores and caches do.

    A probe that fits in the core's own cache misses the slow-downs of
    the host's shared cache and memory, which hit the program hardest.
    """

    def __init__(self, table_size: int = 1 << 19, stores: int = 12_500,
                 loop: int = 15_000, cells: int = 8_000) -> None:
        rng = random.Random(20170124)
        self._table = {(i, i ^ 0x5BD1): 0 for i in range(table_size)}
        keys = list(self._table)
        self._stores = [keys[rng.randrange(table_size)] for _ in range(stores)]
        self._loop = loop
        self._cells = cells

    def __call__(self) -> float:
        """Run the reference work once; return its wall seconds."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            acc = 0
            for i in range(self._loop):
                acc += (i * 31) % 7
            n = self._cells
            memstore = {}
            for i in range(n):
                key = (b"row%06d" % (i * 7919 % n), b"q%04d" % (i & 1023))
                memstore[key] = (key, b"v%08d" % i, float(i))
            cells = sorted(memstore.values(), key=_cell_key)
            table = self._table
            for key in self._stores:
                table[key] = acc
            del memstore, cells
            return time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()


def normalize(wall: float, probe_before: float, probe_after: float, nominal: float) -> float:
    """Wall time rescaled to a host whose probe takes ``nominal`` seconds.

    The host factor is the mean of the two probes adjacent to the
    operation divided by the nominal probe time; a host running slow
    (factor > 1) has its times scaled down by that factor.
    """
    if nominal <= 0:
        raise ValueError("nominal probe time must be positive")
    factor = (probe_before + probe_after) / (2.0 * nominal)
    if factor <= 0:
        raise ValueError("probe times must be positive")
    return wall / factor


class OpClock:
    """Times a sequence of operations, each bracketed by probes.

    Adjacent operations share the probe between them, so ``n`` timed
    operations cost ``n + 1`` probes.
    """

    def __init__(self, probe: HostProbe, nominal: float) -> None:
        if nominal <= 0:
            raise ValueError("nominal probe time must be positive")
        self.probe = probe
        self.nominal = nominal
        self.probes: List[float] = [probe()]

    def time(self, fn, *args):
        """Call ``fn(*args)`` between probes; return ``(result, wall, norm)``."""
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        before = self.probes[-1]
        after = self.probe()
        self.probes.append(after)
        return result, wall, normalize(wall, before, after, self.nominal)

    def host_factors(self) -> List[float]:
        """Every probe so far divided by the nominal probe time."""
        return [p / self.nominal for p in self.probes]


def tail(values: Sequence[float], beyond: int = 10) -> Tuple[float, float, int]:
    """The highest percentile that still has ``beyond`` samples above it.

    Returns ``(value, percentile, n)``: the ``beyond + 1``-th largest
    sample, the share of samples at or below it in percent, and the
    sample count.  Raises ``ValueError`` with too few samples.
    """
    n = len(values)
    if n < beyond + 1:
        raise ValueError(f"need at least {beyond + 1} samples for a tail, got {n}")
    ordered = sorted(values)
    k = n - beyond - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def quantile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for constants)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else 0.0
