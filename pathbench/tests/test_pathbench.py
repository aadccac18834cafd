"""Tests of the benchmark itself: helpers, seeded inputs, workload checks.

Run from the root of a checkout::

    python3 -m pytest pathbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from hostprobe import HostProbe, OpClock, normalize, tail  # noqa: E402
from workloads import (  # noqa: E402
    DashboardSize,
    DashboardWorkload,
    IngestSize,
    IngestWorkload,
    LiveFleetSize,
    LiveFleetWorkload,
)

TINY_INGEST = IngestSize(n_units=2, n_sensors=4, history_s=60, chunk_s=10)
TINY_DASHBOARD = DashboardSize(n_units=2, n_sensors=4, n_train=100, n_eval=120, page_s=30,
                               grid_s=10, overview_every=3, check_every=1)
TINY_LIVE = LiveFleetSize(n_units=4, n_sensors=8, history_s=100, n_train=300)


# ----------------------------------------------------------------------
# order statistics and normalization
# ----------------------------------------------------------------------
def test_tail_keeps_ten_samples_beyond():
    value, percentile, n = tail(list(range(1, 101)))
    assert (value, percentile, n) == (90, 90.0, 100)
    assert sum(1 for v in range(1, 101) if v > value) == 10


def test_tail_is_order_independent_and_needs_eleven_samples():
    assert tail([5, 1, 4, 3, 2, 9, 8, 7, 6, 11, 10]) == (1, 100.0 / 11, 11)
    with pytest.raises(ValueError):
        tail(list(range(10)))


def test_normalize_divides_out_the_host_factor():
    assert normalize(0.100, 0.012, 0.012, 0.012) == pytest.approx(0.100)
    # A host running at half speed doubles the probe: the op is halved.
    assert normalize(0.100, 0.024, 0.024, 0.012) == pytest.approx(0.050)
    # The factor is the mean of the two adjacent probes.
    assert normalize(0.090, 0.012, 0.024, 0.012) == pytest.approx(0.060)
    with pytest.raises(ValueError):
        normalize(0.1, 0.01, 0.01, 0.0)


def test_op_clock_shares_probes_between_adjacent_ops():
    clock = OpClock(HostProbe(table_size=1024, stores=100, loop=100, cells=100), 0.012)
    for _ in range(3):
        result, wall, norm = clock.time(sum, [1, 2, 3])
        assert result == 6 and wall >= 0 and norm >= 0
    assert len(clock.probes) == 4
    assert len(clock.host_factors()) == 4


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def test_ingest_inputs_depend_only_on_seed_and_index():
    a = IngestWorkload(3, 4, TINY_INGEST)
    b = IngestWorkload(3, 4, TINY_INGEST)
    c = IngestWorkload(4, 4, TINY_INGEST)
    assert a.make_input(2) == b.make_input(2)
    assert a.make_input(2) != a.make_input(1)
    assert a.make_input(2) != c.make_input(2)
    kind, lines = a.make_input(0)
    assert kind == "chunk" and len(lines) == 2 * 4 * 10
    # Series-major: each series' lines are contiguous and time-ordered.
    first = [line.split() for line in lines[:10]]
    assert len({tuple(f[4:]) for f in first}) == 1
    assert [int(f[2]) for f in first] == list(range(60, 70))


def test_dashboard_inputs_depend_only_on_seed_and_index():
    a = DashboardWorkload(5, 12, TINY_DASHBOARD)
    b = DashboardWorkload(5, 12, TINY_DASHBOARD)
    assert [a.make_input(i) for i in range(12)] == [b.make_input(i) for i in range(12)]
    kinds = [a.make_input(i)[0] for i in range(8)]
    assert kinds == ["page", "page", "page", "overview"] * 2
    for i in range(12):
        kind, inp = a.make_input(i)
        if kind == "page":
            unit, start, _ = inp
            assert 0 <= unit < 2
            assert (start - a.t0) % 10 == 0 and start + 30 <= a.t1


# ----------------------------------------------------------------------
# tiny end-to-end runs that execute every check
# ----------------------------------------------------------------------
def drive(workload):
    """Set up, run every operation with its checks, finish, check."""
    workload.setup()
    for i in range(workload.n_ops):
        kind, inp = workload.make_input(i)
        workload.check_op(i, kind, inp, workload.run_op(kind, inp))
    workload.finish()
    workload.final_checks()
    fingerprint = workload.fingerprint()
    workload.teardown()
    return fingerprint


def test_ingest_smoke_checks_pass_and_repeat():
    first = drive(IngestWorkload(1, 6, TINY_INGEST))
    again = IngestWorkload(1, 6, TINY_INGEST)
    assert drive(again) == first
    assert not again.failures and again.failed_ops == 0
    assert first["points_written"] == first["lines"] == 6 * 80


def test_ingest_read_back_detects_a_wrong_value():
    workload = IngestWorkload(1, 3, TINY_INGEST)
    workload.setup()
    for i in range(3):
        kind, inp = workload.make_input(i)
        workload.check_op(i, kind, inp, workload.run_op(kind, inp))
    sensor = sorted(workload.expected)[0]
    workload.expected[sensor][5] += 0.001
    workload.final_checks()
    assert any(sensor in f and "values differ" in f for f in workload.failures)


def test_dashboard_smoke_checks_pass_and_repeat():
    first_workload = DashboardWorkload(2, 16, TINY_DASHBOARD)
    first = drive(first_workload)
    assert not first_workload.failures and first_workload.failed_ops == 0
    assert first_workload.checked_pages == first["pages"] == 12
    assert drive(DashboardWorkload(2, 16, TINY_DASHBOARD)) == first


def test_dashboard_page_check_detects_a_wrong_count():
    workload = DashboardWorkload(2, 1, TINY_DASHBOARD)
    workload.setup()
    kind, (unit, start, _) = workload.make_input(0)
    html = workload.run_op(kind, (unit, start, True))
    assert workload._check_page(unit, start, html) is None
    forged = html.replace(" anomalies on ", "1 anomalies on ", 1)
    assert "pipeline report" in workload._check_page(unit, start, forged)
    workload.teardown()


def test_live_fleet_smoke_checks_pass_and_repeat():
    first_workload = LiveFleetWorkload(4, 60, TINY_LIVE)
    first = drive(first_workload)
    assert not first_workload.failures, first_workload.failures
    assert first_workload.onsets(), "seed 4 should inject at least one fault"
    assert first["incidents_opened"] >= len(first_workload.onsets())
    assert first_workload.polls_missed == 60
    assert drive(LiveFleetWorkload(4, 60, TINY_LIVE)) == first


# ----------------------------------------------------------------------
# the command-line contract
# ----------------------------------------------------------------------
def _command():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["command"]


def test_cli_prints_one_result_line(tmp_path):
    proc = subprocess.run(
        [*_command(), "--workload", "dashboard", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "pathbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*_command(), "--workload", "ingest", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
