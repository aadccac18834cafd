"""Benchmark of the three user paths: ingest, dashboard, live_fleet.

Run from the root of a checkout::

    python3 pathbench/run.py --probe-nominal-ms 18.0 \\
        --workload ingest --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload, each in its own process, and
exits non-zero if any of them fails a check.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  Everything above it is a human-readable
report that also prints the raw wall-clock figures beside the
normalized ones.  See ``pathbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

#: Timed operations per requested second, calibrated so that at the
#: commit that introduced the benchmark the timed phase of each
#: workload (probes included) lasts about ``--seconds``.  The count is
#: fixed by the seconds, never by the clock, so every run of a seed does
#: identical work and its fingerprint can be compared exactly.
OPS_PER_SECOND = {"ingest": 6.0, "dashboard": 9.0, "live_fleet": 10.0}
#: Floor on the operation count: enough for a tail with ten samples
#: beyond it, and (live_fleet) a 300-row window in which every injected
#: fault can open an incident.
MIN_OPS = {"ingest": 20, "dashboard": 20, "live_fleet": 60}
#: Set-ups per run; set-up time is their median.
SETUP_REPLICAS = 3
#: Probes taken on each side of a set-up.
SETUP_PROBES = 3
#: Operations every replica runs before its fingerprint is compared.
PREFIX_OPS = 2

E2E = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
]


def n_ops_for(workload: str, seconds: float) -> int:
    return max(MIN_OPS[workload], round(OPS_PER_SECOND[workload] * seconds))


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-nominal-ms",
        type=float,
        required=True,
        help="nominal host-probe time that normalized figures are scaled to",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.probe_nominal_ms <= 0:
        parser.error("--probe-nominal-ms must be positive")
    return args


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"pathbench: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS  # imports repro

    if args.workload not in WORKLOADS:
        print(f"pathbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    result = run_workload(WORKLOADS[args.workload], args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    from workloads import WORKLOADS

    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--probe-nominal-ms", str(args.probe_nominal_ms)]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, *common],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            child = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"pathbench: workload {name} printed no result", file=sys.stderr)
            combined["correct"] = False
            status = 1
            continue
        if proc.returncode != 0 or not child["correct"]:
            status = 1
        combined["correct"] &= child["correct"]
        combined["attempted"] += child["attempted"]
        combined["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def run_workload(cls, args) -> Dict:
    """Set up, time the operations, check; return the JSON result."""
    from hostprobe import HostProbe, OpClock, normalize, tail
    from tracing import LayerTracer

    nominal = args.probe_nominal_ms / 1000.0
    probe = HostProbe()
    n_ops = n_ops_for(cls.name, args.seconds)
    out = _Report(cls.name)
    out.line(f"workload={cls.name} seed={args.seed} ops={n_ops} trace={args.trace} "
             f"nominal_probe={args.probe_nominal_ms}ms")

    # Set-up, several times: every replica but the last also runs the
    # first operations, and all replicas must agree on the fingerprint.
    setup_norm: List[float] = []
    setup_raw: List[float] = []
    prefix_prints: List[Dict] = []
    setup_layers: List[Dict[str, float]] = []
    workload = None
    for replica in range(SETUP_REPLICAS):
        if workload is not None:
            workload.teardown()
            workload = None
            gc.collect()
        workload = cls(args.seed, n_ops)
        # Set-up is one long step; several probes on each side steady
        # its host factor.
        before = statistics.median(probe() for _ in range(SETUP_PROBES))
        t0 = time.perf_counter()
        workload.setup()
        wall = time.perf_counter() - t0
        after = statistics.median(probe() for _ in range(SETUP_PROBES))
        setup_raw.append(wall)
        setup_norm.append(normalize(wall, before, after, nominal))
        setup_layers.append(_setup_layers(workload))
        if replica < SETUP_REPLICAS - 1:
            for i in range(min(PREFIX_OPS, n_ops)):
                kind, inp = workload.make_input(i)
                workload.check_op(i, kind, inp, workload.run_op(kind, inp))
            prefix_prints.append(workload.fingerprint())

    tracer = LayerTracer() if args.trace else None
    counters_before = workload.counters()
    times: Dict[str, List[Tuple[float, float, bool]]] = {}
    seen: Dict[str, int] = {}
    try:
        if tracer is not None:
            _install(tracer)
        clock = OpClock(probe, nominal)
        timed_start = time.perf_counter()
        for i in range(n_ops):
            kind, inp = workload.make_input(i)
            traced = tracer is not None and seen.get(kind, 0) % 2 == 1
            seen[kind] = seen.get(kind, 0) + 1
            if traced:
                result, wall, norm = clock.time(tracer.traced, workload.run_op, kind, inp)
                tracer.close_op(norm / wall, kind)
            else:
                result, wall, norm = clock.time(workload.run_op, kind, inp)
            times.setdefault(kind, []).append((wall, norm, traced))
            workload.check_op(i, kind, inp, result)
            if i + 1 == min(PREFIX_OPS, n_ops):
                mine = workload.fingerprint()
                for k, other in enumerate(prefix_prints):
                    if other != mine:
                        workload.fail(f"fingerprint after set-up and {i + 1} ops differs "
                                      f"between replica {k} and the timed replica: "
                                      f"{other} != {mine}")
        _, finish_wall, finish_norm = clock.time(workload.finish)
        timed_wall = time.perf_counter() - timed_start
    finally:
        if tracer is not None:
            tracer.restore()
    counters_after = workload.counters()
    workload.final_checks()
    fingerprint = workload.fingerprint()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    primary = times.get(workload.primary, [])
    norm_ms = [1000.0 * n for _, n, t in primary if not t]
    raw_ms = [1000.0 * w for w, _, t in primary if not t]
    total_norm = sum(n for ops in times.values() for _, n, _ in ops) + finish_norm
    total_raw = sum(w for ops in times.values() for w, _, _ in ops) + finish_wall
    work = workload.work_done()
    factors = clock.host_factors()

    out.line(f"fingerprint {json.dumps(fingerprint, sort_keys=True)}")
    out.line(f"timed phase {timed_wall:.2f} s wall, probes and checks included")
    out.metric("setup_s", statistics.median(setup_norm), "s", statistics.median(setup_raw),
               f"median of {SETUP_REPLICAS} set-ups")
    out.metric("peak_rss_mb", peak_rss_mb, "MB")
    tail_norm = tail(norm_ms) if len(norm_ms) > 10 else None
    tail_raw = tail(raw_ms) if len(raw_ms) > 10 else None
    if norm_ms:
        out.metric("op_ms", statistics.median(norm_ms), "ms", statistics.median(raw_ms),
                   f"median {workload.primary} latency ({_WORKLOAD_NAMES[cls.name]['op_ms']})")
    if tail_norm is not None:
        out.metric("op_tail_ms", tail_norm[0], "ms", tail_raw[0],
                   f"p{tail_norm[1]:.1f} of n={tail_norm[2]} {workload.primary}s "
                   f"({_WORKLOAD_NAMES[cls.name]['op_tail_ms']})")
    out.metric("throughput_per_s", work / total_norm, "1/s", work / total_raw,
               f"{work} {workload.work_unit} / timed total "
               f"({_WORKLOAD_NAMES[cls.name]['throughput_per_s']})")
    for kind, ops in sorted(times.items()):
        if kind == workload.primary:
            continue
        other = [1000.0 * n for _, n, t in ops if not t]
        if other:
            out.metric(f"{kind}_ms", statistics.median(other), "ms",
                       statistics.median(1000.0 * w for w, _, t in ops if not t),
                       f"median {kind} latency, n={len(other)} (not gated)")
    out.line("host factor p10/p50/p90: " + " / ".join(
        f"{q:.3f}" for q in _quantiles(factors)) + f" over {len(factors)} probes")

    correct = not workload.failures
    for failure in workload.failures[:20]:
        out.line(f"CHECK FAILED: {failure}")
    attempted = n_ops + 1  # the closing finish() counts as one operation
    # A failed end-of-run check with no failed operation is charged to
    # finish(), so ``failed`` is never 0 on an incorrect run.
    failed = workload.failed_ops + (0 if correct or workload.failed_ops else 1)

    if tracer is None:
        metrics = {name: {"value": out.values[name], "unit": unit} for name, unit in E2E}
    else:
        layers = _layer_metrics(
            tracer, workload, counters_before, counters_after, n_ops,
            setup_layers, factors, times,
        )
        out.line("per-layer (traced ops are every other op of each kind; "
                 "times are normalized ms per traced op):")
        for name, (value, unit) in layers.items():
            out.line(f"  {name:32s} {value:14.4f} {unit}")
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layers.items()}
    workload.teardown()
    out.flush()
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


#: What each generic metric is called on each workload, for the report.
_WORKLOAD_NAMES = {
    "ingest": {"op_ms": "chunk time", "op_tail_ms": "chunk tail",
               "throughput_per_s": "ingest_pts_per_s"},
    "dashboard": {"op_ms": "page_ms", "op_tail_ms": "page_tail_ms",
                  "throughput_per_s": "requests per second"},
    "live_fleet": {"op_ms": "interval_ms", "op_tail_ms": "interval_tail_ms",
                   "throughput_per_s": "samples_per_s"},
}


def _quantiles(values: List[float]) -> List[float]:
    deciles = statistics.quantiles(values, n=10)
    return [deciles[0], statistics.median(values), deciles[-1]]


class _Report:
    """Human-readable lines, printed before the JSON result line."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.lines: List[str] = []
        self.values: Dict[str, float] = {}

    def line(self, text: str) -> None:
        self.lines.append(f"[pathbench {self.workload}] {text}")

    def metric(self, name, value, unit, raw=None, note="") -> None:
        self.values[name] = value
        raw_text = f"  raw {raw:.6g} {unit}" if raw is not None else ""
        self.line(f"{name:18s} {value:12.6g} {unit:4s}{raw_text}  {note}".rstrip())

    def flush(self) -> None:
        print("\n".join(self.lines), flush=True)


# ----------------------------------------------------------------------
# tracing: which public functions are wrapped, and the per-layer table
# ----------------------------------------------------------------------
def _install(tracer) -> None:
    import repro
    import repro.tsdb.query as query_mod
    from repro.alerting.manager import AlertManager
    from repro.cluster.simulation import Simulator
    from repro.core.online import OnlineEvaluator
    from repro.core.streaming import StreamingTrainer
    from repro.hbase.master import HMaster
    from repro.hbase.region import Region
    from repro.tsdb.tsd import TSDaemon

    tracer.watch_gc()
    tracer.patch(repro, "parse_block", "lineprotocol.parse",
                 lambda res, args: tracer.count("lineprotocol.lines", len(res)))
    for attr in ("publish", "publish_blocks", "flush"):
        tracer.patch(repro.BatchPublisher, attr, "publish")
    tracer.patch(repro.ReverseProxy, "submit", "proxy.submit",
                 lambda res, args: tracer.count("publish.batches"))
    tracer.patch(Simulator, "step", "cluster.step")
    tracer.patch(TSDaemon, "encode_block", "tsd.encode",
                 lambda res, args: tracer.count("tsd.cells_encoded", len(res)))
    tracer.patch(Region, "put_block", "region.put_block")
    tracer.patch(HMaster, "direct_scan_consistent", "master.scan")

    def on_scan(res, args) -> None:
        # A scan leaves the memstore as it found it, so its size read
        # after the call is the number of memstore cells walked.
        region = args[0]
        tracer.count("region.cells_walked", region.memstore_size + _store_cells(region, args))
        tracer.count("region.cells_returned", len(res))

    tracer.patch(Region, "scan", "region.scan", on_scan)
    tracer.patch(repro.QueryEngine, "run_available", "query",
                 lambda res, args: tracer.count(
                     "query.points_out", sum(len(s) for s in res.series)))
    tracer.patch(query_mod, "group_and_aggregate", "aggregation")
    tracer.patch(repro.QueryGateway, "serve", "serve")
    tracer.patch(repro.Dashboard, "machine_page_html", "viz.page",
                 lambda res, args: tracer.count("viz.html_bytes", len(res.encode("utf-8"))))
    tracer.patch(repro.Dashboard, "fleet_overview_html", "viz.overview",
                 lambda res, args: tracer.count("viz.html_bytes", len(res.encode("utf-8"))))
    tracer.patch(OnlineEvaluator, "evaluate_scored", "core.score",
                 lambda res, args: tracer.count("core.samples_scored", args[1].size))
    tracer.patch(StreamingTrainer, "ingest", "core.train")
    tracer.patch(AlertManager, "observe", "alerting.observe")
    tracer.patch(repro.StreamingContext, "run", "sparklet.interval")


def _store_cells(region, args) -> int:
    """Store-file cells in the scanned range (there is no public
    accessor; the list is only read)."""
    files = getattr(region, "_store_files", ())
    if not files:
        return 0
    start = args[1] if len(args) > 1 else b""
    end = args[2] if len(args) > 2 else b""
    lo = max(start, region.info.start_key)
    hi = end
    if region.info.end_key:
        hi = region.info.end_key if not hi else min(hi, region.info.end_key)
    return sum(sum(1 for _ in sf.scan(lo, hi)) for sf in files)


def _setup_layers(workload) -> Dict[str, float]:
    result = getattr(workload, "result", None)
    stages = getattr(result, "stage_seconds", None) or {}
    return {
        "train": 1000.0 * stages.get("train", 0.0),
        "evaluate": 1000.0 * stages.get("evaluate", 0.0),
    }


def _layer_metrics(tracer, workload, c0, c1, n_ops, setup_layers, factors, times):
    from tracing import ROOT
    def delta(key: str) -> float:
        return (c1.get(key, 0.0) - c0.get(key, 0.0)) / n_ops

    ms = tracer.per_op_ms
    count = tracer.per_op_count
    walked = count("region.cells_walked")
    returned = count("region.cells_returned")
    scans = tracer.calls_per_op("master.scan")
    hits, misses = delta("serve.hits"), delta("serve.misses")
    events = delta("events")
    primary = times.get(workload.primary, [])
    traced = [n for _, n, t in primary if t]
    plain = [n for _, n, t in primary if not t]
    overhead = (
        100.0 * (statistics.median(traced) - statistics.median(plain)) / statistics.median(plain)
        if traced and plain
        else 0.0
    )
    host = _quantiles(factors)
    return {
        "lineprotocol.parse_ms": (ms("lineprotocol.parse"), "ms"),
        "lineprotocol.lines": (count("lineprotocol.lines"), "count"),
        "publish.self_ms": (ms("publish", True), "ms"),
        "publish.batches": (count("publish.batches"), "count"),
        "publish.retries": (delta("proxy_retries"), "count"),
        "publish.dead_lettered": (delta("dead_lettered"), "count"),
        "proxy.submit_ms": (ms("proxy.submit"), "ms"),
        "cluster.sim_events": (delta("sim_events"), "count"),
        "cluster.step_self_ms": (ms("cluster.step", True), "ms"),
        "proxy.sim_goodput": (c1.get("sim_goodput", 0.0), "1/s"),
        "tsd.encode_ms": (ms("tsd.encode"), "ms"),
        "tsd.cells_encoded": (count("tsd.cells_encoded"), "count"),
        "region.put_block_ms": (ms("region.put_block"), "ms"),
        "region.cells_written": (delta("writes"), "count"),
        "region.flushes": (delta("flushes"), "count"),
        "region.compactions": (delta("compactions"), "count"),
        "master.scan_calls": (scans, "count"),
        "master.regions_per_scan": (
            tracer.calls_per_op("region.scan") / scans if scans else 0.0, "count"),
        "region.scan_ms": (ms("region.scan"), "ms"),
        "region.cells_walked": (walked, "count"),
        "region.cells_returned": (returned, "count"),
        "region.walked_per_returned": (walked / returned if returned else 0.0, "ratio"),
        "query.self_ms": (ms("query", True), "ms"),
        "query.scan_cells": (delta("scan_cells"), "count"),
        "query.points_out": (count("query.points_out"), "count"),
        "aggregation.ms": (ms("aggregation"), "ms"),
        "serve.self_ms": (ms("serve", True), "ms"),
        "serve.hits": (hits, "count"),
        "serve.misses": (misses, "count"),
        "serve.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "serve.invalidations": (delta("serve.invalidations"), "count"),
        "serve.evictions": (delta("serve.evictions"), "count"),
        "serve.shed": (delta("serve.shed_queue_full") + delta("serve.shed_deadline"), "count"),
        "viz.page_self_ms": (tracer.kind_ms("viz.page", "page"), "ms"),
        "viz.overview_self_ms": (tracer.kind_ms("viz.overview", "overview"), "ms"),
        "viz.html_bytes": (count("viz.html_bytes"), "bytes"),
        "core.score_ms": (ms("core.score"), "ms"),
        "core.train_ms": (ms("core.train"), "ms"),
        "core.samples_scored": (delta("samples_scored"), "count"),
        "core.pipeline_train_ms": (
            statistics.median(s["train"] for s in setup_layers), "ms"),
        "core.pipeline_evaluate_ms": (
            statistics.median(s["evaluate"] for s in setup_layers), "ms"),
        "alerting.observe_ms": (ms("alerting.observe"), "ms"),
        "alerting.events": (events, "count"),
        "alerting.incidents_opened": (delta("incidents"), "count"),
        "alerting.incidents_per_event": (
            delta("incidents") / events if events else 0.0, "ratio"),
        "sparklet.interval_self_ms": (ms("sparklet.interval", True), "ms"),
        "runtime.gc_gen2": (count("runtime.gc_gen2"), "count"),
        "runtime.gc_pause_ms": (1000.0 * count("runtime.gc_pause_s"), "ms"),
        "probe.host_factor_p10": (host[0], "ratio"),
        "probe.host_factor_p50": (host[1], "ratio"),
        "probe.host_factor_p90": (host[2], "ratio"),
        "trace.unattributed_ms": (ms(ROOT, True), "ms"),
        "trace.op_ms": (ms(ROOT), "ms"),
        "trace.overhead_pct": (overhead, "%"),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
