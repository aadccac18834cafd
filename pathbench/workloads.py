"""The three user paths, as seeded closed-loop workloads.

Every workload runs against the same deployment,
``build_cluster(n_nodes=4, retain_data=True)`` with every other
``ClusterConfig`` field at its default (128 salt buckets, reverse
proxy, WAL), in one process with sparklet parallelism 2.  A workload
is driven by the runner in ``run.py``:

* ``setup()`` builds the deployment and its history (timed as set-up);
* ``make_input(i)`` generates operation ``i``'s inputs (untimed);
* ``run_op(kind, inp)`` is the timed operation;
* ``check_op(...)`` checks its output (untimed);
* ``finish()`` is timed work that closes the run (may be a no-op);
* ``final_checks()`` and ``fingerprint()`` run after timing.

Inputs depend only on the seed and the operation index.  Everything a
workload counts in ``fingerprint()`` is deterministic per seed, so two
runs of one seed must agree on it exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro.core.pipeline import ANOMALY_METRIC
from repro.simdata.workload import METRIC, sensor_tag, unit_tag

__all__ = ["WORKLOADS", "IngestWorkload", "DashboardWorkload", "LiveFleetWorkload"]

#: Sparklet and fleet-engine parallelism: at most the VM's 2 vCPUs.
PARALLELISM = 2


def _cluster():
    return repro.build_cluster(n_nodes=4, retain_data=True)


def _regions(cluster) -> list:
    return [region for rs in cluster.servers for region in rs.hosted_regions()]


def _region_totals(cluster) -> Dict[str, int]:
    regions = _regions(cluster)
    return {
        "writes": sum(r.writes for r in regions),
        "flushes": sum(r.flushes for r in regions),
        "compactions": sum(r.compactions for r in regions),
    }


def _fleet_tags(n_units: int, n_sensors: int) -> List[Tuple[Tuple[str, str], ...]]:
    """Series tags in series-major order (unit-major, then sensor)."""
    return [
        (("sensor", sensor_tag(s)), ("unit", unit_tag(u)))
        for u in range(n_units)
        for s in range(n_sensors)
    ]


class Workload:
    """Shared bookkeeping; subclasses fill in the path."""

    name = ""
    #: Kind of operation the latency metrics describe.
    primary = "op"
    #: What ``work_done`` counts, for the human-readable report.
    work_unit = "ops"

    def __init__(self, seed: int, n_ops: int) -> None:
        if n_ops < 1:
            raise ValueError("need at least one operation")
        self.seed = seed
        self.n_ops = n_ops
        self.failures: List[str] = []
        #: Operations that failed (publish loss, rejection, failed check).
        self.failed_ops = 0
        self.cluster = None

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def finish(self) -> None:
        """Timed work closing the run (none by default)."""

    def teardown(self) -> None:
        """Release threads and large state."""
        self.cluster = None

    def counters(self) -> Dict[str, float]:
        """Program counters read for the per-layer report (cumulative)."""
        cluster = self.cluster
        out: Dict[str, float] = {
            "sim_events": cluster.sim.events_processed,
            "proxy_retries": cluster.metrics.counter("proxy.retries").get(),
        }
        out.update(_region_totals(cluster))
        return out


# ----------------------------------------------------------------------
# ingest: the write path only
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class IngestSize:
    n_units: int = 16
    n_sensors: int = 16
    history_s: int = 1800
    chunk_s: int = 40  # 256 series x 40 s = 10,240 lines per chunk


class IngestWorkload(Workload):
    """Telnet ``put`` chunks through parse -> publish -> flush.

    Set-up bulk-loads ``history_s`` seconds of 1 Hz history for every
    series with ``direct_put`` (about 460k cells), so each chunk lands
    in a populated memstore.  Each operation parses one chunk of
    series-major ``put`` lines, publishes it through a fresh
    ``BatchPublisher`` and flushes to durable acks.  No reads, no
    detection.
    """

    name = "ingest"
    primary = "chunk"
    work_unit = "points"

    def __init__(self, seed: int, n_ops: int, size: IngestSize = IngestSize()) -> None:
        super().__init__(seed, n_ops)
        self.size = size
        self.tags = _fleet_tags(size.n_units, size.n_sensors)
        self.tag_text = [" ".join(f"{k}={v}" for k, v in tags) for tags in self.tags]
        rng = np.random.default_rng((seed, 0))
        n = len(self.tags)
        self.means = rng.uniform(20.0, 480.0, n)
        self.stds = rng.uniform(0.5, 5.0, n)
        #: The unit whose series are read back bit-for-bit at the end.
        self.sample_unit = int(rng.integers(size.n_units))
        self.expected: Dict[str, List[float]] = {}
        self.points_written = 0
        self.lines = 0
        self.batches = 0
        self.dead_lettered = 0
        self.sim_seconds = 0.0

    def setup(self) -> None:
        size = self.size
        self.cluster = _cluster()
        rng = np.random.default_rng((self.seed, 1))
        values = self.means[:, None] + self.stds[:, None] * rng.standard_normal(
            (len(self.tags), size.history_s)
        )
        times = range(size.history_s)
        batch = repro.BlockBatch(
            [
                repro.SeriesBlock.from_columns(METRIC, tags, times, np.round(row, 3))
                for tags, row in zip(self.tags, values)
            ]
        )
        written = self.cluster.direct_put(batch)
        if written != len(batch):
            self.fail(f"history load wrote {written} of {len(batch)} cells")

    def make_input(self, i: int) -> Tuple[str, List[str]]:
        size = self.size
        rng = np.random.default_rng((self.seed, 2, i))
        w = size.chunk_s
        values = self.means[:, None] + self.stds[:, None] * rng.standard_normal(
            (len(self.tags), w)
        )
        t0 = size.history_s + i * w
        lines: List[str] = []
        for tag_text, row in zip(self.tag_text, values.tolist()):
            lines.extend(
                f"put {METRIC} {t0 + j} {v:.3f} {tag_text}" for j, v in enumerate(row)
            )
        return "chunk", lines

    def run_op(self, kind: str, lines: List[str]):
        sim = self.cluster.sim
        t0 = sim.now
        batch = repro.parse_block(lines)
        publisher = repro.BatchPublisher(self.cluster)
        publisher.publish_blocks(batch)
        report = publisher.flush()
        return len(batch), report, sim.now - t0

    def check_op(self, i: int, kind: str, lines: List[str], out) -> None:
        parsed, report, sim_seconds = out
        self.lines += len(lines)
        self.points_written += report.points_written
        self.batches += report.batches_submitted
        self.dead_lettered += report.points_dead_lettered
        self.sim_seconds += sim_seconds
        bad = []
        if parsed != len(lines):
            bad.append(f"parsed {parsed} of {len(lines)} lines")
        if not report.conservation_ok:
            bad.append("publish conservation violated")
        if report.points_written != len(lines):
            bad.append(f"wrote {report.points_written} of {len(lines)} lines")
        if report.points_failed or report.points_dead_lettered:
            bad.append(
                f"{report.points_failed} failed, {report.points_dead_lettered} dead-lettered"
            )
        if bad:
            self.failed_ops += 1
            self.fail(f"chunk {i}: " + "; ".join(bad))
        # Keep the rendered text of the sampled unit's series for read-back.
        w = self.size.chunk_s
        first = self.sample_unit * self.size.n_sensors
        for k in range(first, first + self.size.n_sensors):
            sensor = self.tags[k][0][1]
            self.expected.setdefault(sensor, []).extend(
                float(line.split()[3]) for line in lines[k * w : (k + 1) * w]
            )

    def final_checks(self) -> None:
        size = self.size
        start = size.history_s
        end = start + self.n_ops * size.chunk_s
        query = repro.TsdbQuery(
            METRIC,
            start,
            end,
            tag_filters={"unit": unit_tag(self.sample_unit)},
            group_by=("sensor",),
        )
        series = self.cluster.query_engine().run_available(query).series
        got = {s.tag_dict["sensor"]: s for s in series}
        expected_ts = np.arange(start, end, dtype=np.int64)
        for sensor, values in sorted(self.expected.items()):
            s = got.get(sensor)
            if s is None:
                self.fail(f"read-back: series {sensor} missing")
                continue
            if not np.array_equal(s.timestamps, expected_ts):
                self.fail(f"read-back: {sensor} timestamps differ")
            elif not np.array_equal(s.values, np.asarray(values, dtype=np.float64)):
                self.fail(f"read-back: {sensor} values differ from the rendered text")
        if self.lines != self.points_written:
            self.fail(f"written {self.points_written} != lines {self.lines}")

    def work_done(self) -> int:
        return self.points_written

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out["dead_lettered"] = self.dead_lettered
        out["sim_goodput"] = self.points_written / self.sim_seconds if self.sim_seconds else 0.0
        return out

    def fingerprint(self) -> Dict[str, object]:
        totals = _region_totals(self.cluster)
        return {
            "lines": self.lines,
            "points_written": self.points_written,
            "cells_written": totals["writes"],
            "flushes": totals["flushes"],
            "publish_batches": self.batches,
            "dead_lettered": self.dead_lettered,
            "sim_events": self.cluster.sim.events_processed,
            "sim_goodput": _exact(self.points_written / self.sim_seconds)
            if self.sim_seconds
            else 0.0,
        }


# ----------------------------------------------------------------------
# dashboard: the read path only
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DashboardSize:
    n_units: int = 8
    n_sensors: int = 16
    n_train: int = 300
    n_eval: int = 300
    page_s: int = 60
    grid_s: int = 5  # 8 units x 49 offsets x 3 queries = 1,176 distinct > 512 cached
    overview_every: int = 4  # one overview re-poll per this many pages
    check_every: int = 4  # every this-many-th page's output is checked


_PAGE_STATUS = re.compile(
    r"(\d+) anomalies on (\d+) sensors &middot; (\d+) unit alarms"
)
_OVERVIEW_TOTAL = re.compile(r"<div class='num'>(\d+)</div><div class='lbl'>anomalies</div>")


class DashboardWorkload(Workload):
    """One operator drilling into machine pages, re-polling the overview.

    Set-up runs the anomaly pipeline, which publishes the evaluation
    window and its anomalies through the proxy (about 40k cells), then
    builds the dashboard over the serving gateway and warms the fleet
    overview.  Operations are seeded ``machine_page_html`` calls at
    grid-aligned offsets (more distinct queries than the result cache
    holds) with a ``fleet_overview_html`` re-poll every
    ``overview_every`` pages, which the cache answers.  No writes.
    """

    name = "dashboard"
    primary = "page"
    work_unit = "requests"

    def __init__(self, seed: int, n_ops: int, size: DashboardSize = DashboardSize()) -> None:
        super().__init__(seed, n_ops)
        self.size = size
        self.units = list(range(size.n_units))
        self.html_bytes = 0
        self.pages = 0
        self.overviews = 0
        self.checked_pages = 0
        self._windows: Dict[int, np.ndarray] = {}
        self.generator = repro.FleetGenerator(
            repro.FleetConfig(n_units=size.n_units, n_sensors=size.n_sensors, seed=seed)
        )
        # The pipeline publishes evaluation_window(unit, n_eval), which
        # the generator places at [n_eval, 2 * n_eval).
        self.t0 = size.n_eval
        self.t1 = self.t0 + size.n_eval

    def setup(self) -> None:
        size = self.size
        self.cluster = _cluster()
        ctx = repro.SparkletContext(parallelism=PARALLELISM)
        try:
            pipeline = repro.AnomalyPipeline(self.generator, self.cluster, ctx=ctx)
            self.result = pipeline.run(
                n_train=size.n_train, n_eval=size.n_eval, parallelism=PARALLELISM
            )
        finally:
            ctx.stop()
        self.gateway = self.cluster.gateway()
        self.dashboard = repro.Dashboard(self.gateway)
        self.dashboard.fleet_overview_html(self.units, self.t0, self.t1)

    def make_input(self, i: int):
        size = self.size
        if i % (size.overview_every + 1) == size.overview_every:
            return "overview", None
        rng = np.random.default_rng((self.seed, 3, i))
        n_offsets = (size.n_eval - size.page_s) // size.grid_s + 1
        unit = int(rng.integers(size.n_units))
        start = self.t0 + size.grid_s * int(rng.integers(n_offsets))
        page = i - i // (size.overview_every + 1)
        return "page", (unit, start, page % size.check_every == 0)

    def run_op(self, kind: str, inp):
        try:
            if kind == "overview":
                return self.dashboard.fleet_overview_html(self.units, self.t0, self.t1)
            unit, start, _ = inp
            return self.dashboard.machine_page_html(unit, start, start + self.size.page_s)
        except repro.QueryRejected as exc:
            return exc

    def check_op(self, i: int, kind: str, inp, out) -> None:
        if isinstance(out, repro.QueryRejected):
            self.failed_ops += 1
            self.fail(f"op {i}: rejected ({out})")
            return
        self.html_bytes += len(out.encode("utf-8"))
        if kind == "overview":
            self.overviews += 1
            match = _OVERVIEW_TOTAL.search(out)
            want = self.result.total_discoveries()
            if match is None or int(match.group(1)) != want:
                self.failed_ops += 1
                self.fail(f"overview {i}: anomaly total is not {want}")
            return
        self.pages += 1
        unit, start, checked = inp
        if checked:
            self.checked_pages += 1
            bad = self._check_page(unit, start, out)
            if bad:
                self.failed_ops += 1
                self.fail(f"page {i} (unit {unit}, t={start}): {bad}")

    def _check_page(self, unit: int, start: int, html: str) -> Optional[str]:
        size = self.size
        rows = slice(start - self.t0, start - self.t0 + size.page_s)
        report = self.result.reports[unit]
        flags = report.flags[rows]
        want = (int(flags.sum()), int(flags.any(axis=0).sum()), int(report.unit_alarm[rows].sum()))
        match = _PAGE_STATUS.search(html)
        if match is None:
            return "status line missing"
        got = tuple(int(g) for g in match.groups())
        if got != want:
            return f"anomalies/sensors/alarms {got} != pipeline report {want}"
        # Data series through the engine directly, so the check neither
        # fills nor probes the gateway cache the workload measures.
        query = repro.TsdbQuery(
            METRIC,
            start,
            start + size.page_s,
            tag_filters={"unit": unit_tag(unit)},
            group_by=("sensor",),
        )
        series = self.cluster.query_engine().run_available(query).series
        window = self._window(unit)[rows]
        if len(series) != size.n_sensors:
            return f"{len(series)} data series, expected {size.n_sensors}"
        for s in series:
            sensor = int(s.tag_dict["sensor"][1:])
            if not np.array_equal(s.values, window[:, sensor]):
                return f"sensor {sensor} data differ from the generator"
        return None

    def _window(self, unit: int) -> np.ndarray:
        if unit not in self._windows:
            self._windows[unit] = self.generator.evaluation_window(unit, self.size.n_eval).values
        return self._windows[unit]

    def final_checks(self) -> None:
        """Every check runs per operation."""

    def work_done(self) -> int:
        return self.pages + self.overviews

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out.update({f"serve.{k}": v for k, v in self.gateway.stats().items()})
        out["scan_cells"] = self.gateway.engine.scan_cells
        return out

    def fingerprint(self) -> Dict[str, object]:
        stats = self.gateway.stats()
        return {
            "points_published": self.result.points_published,
            "anomalies_published": self.result.anomalies_published,
            "discoveries": self.result.total_discoveries(),
            "cells_written": _region_totals(self.cluster)["writes"],
            "pages": self.pages,
            "overviews": self.overviews,
            "html_bytes": self.html_bytes,
            "cache_hits": stats["hits"],
            "cache_misses": stats["misses"],
            "cache_evictions": stats["evictions"],
            "cache_invalidations": stats["invalidations"],
            "scan_cells": self.gateway.engine.scan_cells,
        }


# ----------------------------------------------------------------------
# live_fleet: detection with writes beside reads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LiveFleetSize:
    n_units: int = 8
    n_sensors: int = 16
    history_s: int = 300  # pipeline evaluation window stored before the stream
    n_train: int = 300  # fault-free rows streamed during set-up
    interval: int = 5  # rows per micro-batch interval
    poll_s: int = 300  # the status poll's look-back


class LiveFleetWorkload(Workload):
    """The control centre: streaming detection plus a status poll.

    Set-up stores ``history_s`` seconds of history (data and anomalies,
    through the anomaly pipeline), then streams the fault-free training
    window through ``StreamingDetector`` so its models are warm.  Each
    operation streams one ``interval``-row micro-batch of the evaluation
    window (``StreamingContext.run(num_intervals=1)``: scoring, publish
    of data, anomalies and alerts through the proxy) and then polls the
    gateway for anomalies over the last ``poll_s`` seconds grouped by
    unit.  The poll window moves with the stream, so it always misses
    the cache and scans a store that grows as the run goes on.
    ``finish()`` is the detector's final flush.
    """

    name = "live_fleet"
    primary = "interval"
    work_unit = "samples"

    def __init__(self, seed: int, n_ops: int, size: LiveFleetSize = LiveFleetSize()) -> None:
        super().__init__(seed, n_ops)
        self.size = size
        self.units = list(range(size.n_units))
        self.n_eval = n_ops * size.interval
        self.generator = repro.FleetGenerator(
            repro.FleetConfig(
                n_units=size.n_units,
                n_sensors=size.n_sensors,
                seed=seed,
                # Strong correlated faults (the E17 fleet): each injected
                # fault is meant to open an incident within the window.
                fault_mix=(0.3, 0.2, 0.5),
                magnitude_range=(3.0, 6.0),
                drift_ramp_range=(100, 200),
            )
        )
        self.stream_t0 = 2 * size.history_s  # pipeline data ends here
        self.eval_t0 = self.stream_t0 + size.n_train
        self._pending: Optional[list] = None
        self.polls_missed = 0
        self.ctx = None

    def setup(self) -> None:
        size = self.size
        self.cluster = _cluster()
        self.ctx = repro.SparkletContext(parallelism=PARALLELISM)
        history = repro.AnomalyPipeline(self.generator, self.cluster, ctx=self.ctx)
        history.run(n_train=size.history_s, n_eval=size.history_s, parallelism=PARALLELISM)
        self.gateway = self.cluster.gateway()
        self.detector = repro.StreamingDetector(
            size.n_sensors,
            self.cluster,
            config=repro.FDRDetectorConfig(q=0.005),
            alerting=repro.AlertingConfig(open_after=3),
            min_samples=200,
            refresh_every=2,
        )
        self.ssc = repro.StreamingContext(self.ctx)
        self.detector.attach(self.ssc.generator_stream(self._source()))
        train = {u: self.generator.training_window(u, size.n_train).values for u in self.units}
        for start in range(0, size.n_train, size.interval):
            self._pending = [
                (u, self.stream_t0 + start, train[u][start : start + size.interval])
                for u in self.units
            ]
            self.ssc.run(num_intervals=1)
        self.eval_windows = {
            u: self.generator.evaluation_window(u, self.n_eval, start_time=self.eval_t0).values
            for u in self.units
        }
        self.samples_at_setup = self.detector.report.samples_streamed

    def _source(self):
        while True:
            records, self._pending = self._pending, None
            if records is None:
                return
            yield records

    def make_input(self, i: int):
        size = self.size
        lo = i * size.interval
        self._pending = [
            (u, self.eval_t0 + lo, self.eval_windows[u][lo : lo + size.interval])
            for u in self.units
        ]
        return "interval", self.eval_t0 + lo + size.interval

    def run_op(self, kind: str, clock: int):
        processed = self.ssc.run(num_intervals=1)
        query = repro.TsdbQuery(
            ANOMALY_METRIC,
            clock - self.size.poll_s,
            clock,
            group_by=("unit",),
            aggregator="count",
        )
        try:
            poll = self.gateway.serve(query, client_id="status")
        except repro.QueryRejected as exc:
            return processed, exc
        return processed, poll

    def check_op(self, i: int, kind: str, clock: int, out) -> None:
        processed, poll = out
        if processed != 1:
            self.failed_ops += 1
            self.fail(f"interval {i}: stream processed {processed} batches")
        elif isinstance(poll, repro.QueryRejected):
            self.failed_ops += 1
            self.fail(f"interval {i}: poll rejected ({poll})")
        elif poll.status == "miss":
            self.polls_missed += 1

    def finish(self) -> None:
        self.report = self.detector.finalize()

    def final_checks(self) -> None:
        report = self.report
        for label, pub in (
            ("data", report.data_publish),
            ("anomaly", report.anomaly_publish),
            ("alert", report.alert_publish),
        ):
            if pub is None or not pub.complete or not pub.conservation_ok:
                self.fail(f"{label} channel did not conserve points")
            elif pub.points_failed or pub.points_dead_lettered:
                self.fail(f"{label} channel lost points")
        for unit, onset in self.onsets().items():
            if not any(inc.opened_at >= onset for inc in report.unit_incidents(unit)):
                self.fail(f"unit {unit}: fault at t={onset} opened no incident")
        query = repro.TsdbQuery(
            ANOMALY_METRIC,
            self.stream_t0,
            self.eval_t0 + self.n_eval,
            group_by=("unit",),
            aggregator="count",
        )
        stored = sum(float(s.values.sum()) for s in self.gateway.serve(query).series)
        if stored != report.naive_alerts:
            self.fail(f"final poll counts {stored:.0f} anomalies, detector flagged "
                      f"{report.naive_alerts}")

    def onsets(self) -> Dict[int, int]:
        """Absolute stream time of each faulted unit's fault onset."""
        out = {}
        for unit in self.units:
            faults = self.generator.fault_for(unit, self.n_eval)
            if faults:
                out[unit] = self.eval_t0 + min(f.onset for f in faults)
        return out

    def work_done(self) -> int:
        return self.detector.report.samples_streamed - self.samples_at_setup

    def teardown(self) -> None:
        if self.ctx is not None:
            self.ctx.stop()
        super().teardown()

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        out.update({f"serve.{k}": v for k, v in self.gateway.stats().items()})
        out["scan_cells"] = self.gateway.engine.scan_cells
        report = self.detector.report
        out["samples_scored"] = report.samples_scored
        out["events"] = report.naive_alerts
        out["incidents"] = len(self.detector.manager.incidents)
        return out

    def fingerprint(self) -> Dict[str, object]:
        report = self.detector.report
        stats = self.gateway.stats()
        return {
            "intervals": report.intervals,
            "samples_streamed": report.samples_streamed,
            "samples_scored": report.samples_scored,
            "flagged_cells": report.naive_alerts,
            "model_swaps": report.model_swaps,
            "incidents_opened": len(self.detector.manager.incidents),
            "cells_written": _region_totals(self.cluster)["writes"],
            "cache_hits": stats["hits"],
            "cache_misses": stats["misses"],
            "cache_evictions": stats["evictions"],
            "cache_invalidations": stats["invalidations"],
            "scan_cells": self.gateway.engine.scan_cells,
            "sim_events": self.cluster.sim.events_processed,
        }


def _exact(x: float) -> str:
    """A float as its exact repr, so fingerprints compare bit-for-bit."""
    return repr(float(x))


WORKLOADS = {
    IngestWorkload.name: IngestWorkload,
    DashboardWorkload.name: DashboardWorkload,
    LiveFleetWorkload.name: LiveFleetWorkload,
}
