"""Regression gate for the data-lifecycle tier (E18).

The soak is deterministic per seed — the stream, the rollup
watermarks, the retention floors and every cell count contain no
wall-clock coupling, so a change in the flat ratio, the bit-identity
probes, or the conservation report means someone broke the rollup,
retention, or routing path, not that the machine was busy.  Wall-clock
numbers are deliberately not gated here.
"""

import json
from pathlib import Path

import pytest

from repro.bench import REGISTRY
from repro.bench.experiments import (
    E18_FLAT_FACTOR,
    E18_RAW_REDUCTION_FLOOR,
    E18_SUPERLINEAR_MARGIN,
    E18_TOUCH_FACTOR,
)

REPO_ROOT = Path(__file__).parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_e18.json"


@pytest.fixture(scope="module")
def e18_quick():
    return REGISTRY.run("e18", quick=True)


class TestLifecycleGate:
    def test_long_horizon_cost_stays_flat(self, e18_quick):
        assert e18_quick.numbers["flat_ratio"] <= E18_FLAT_FACTOR

    def test_raw_ablation_grows_superlinearly(self, e18_quick):
        numbers = e18_quick.numbers
        assert numbers["time_growth"] > 1.0
        assert numbers["raw_growth"] > E18_SUPERLINEAR_MARGIN * numbers["time_growth"]

    def test_tier_routing_cuts_scanned_cells(self, e18_quick):
        assert e18_quick.numbers["raw_reduction"] >= E18_RAW_REDUCTION_FLOOR

    def test_raw_scans_touch_only_their_range(self, e18_quick):
        # Region.cells_touched: cells read from memstore and store-file
        # slices; an unbounded scan would read whole memstores.
        numbers = e18_quick.numbers
        assert numbers["short_touched_final"] >= numbers["short_cells_final"]
        assert numbers["touch_ratio"] <= E18_TOUCH_FACTOR

    def test_gates_rest_on_a_real_soak(self, e18_quick):
        # a trivial run (nothing ingested, nothing routed) must not pass
        numbers = e18_quick.numbers
        assert numbers["points_ingested"] >= 10_000
        assert numbers["final_units"] >= 100
        assert numbers["routed_cells_final"] >= 1
        assert numbers["short_cells_final"] >= 1

    def test_tier_answers_are_bit_identical(self, e18_quick):
        numbers = e18_quick.numbers
        assert numbers["bitident_probes"] == 3
        assert numbers["bitident_identical_plans"] == 3
        assert numbers["bitident_mismatches"] == 0

    def test_conservation_holds_through_expiry(self, e18_quick):
        numbers = e18_quick.numbers
        assert numbers["conservation_ok"] == 1.0
        assert numbers["expired_raw"] > 0
        assert numbers["too_late"] == 0
        assert (
            numbers["ingested"]
            == numbers["live_raw"] + numbers["expired_raw"] + numbers["too_late"]
        )

    def test_late_writes_are_backfilled(self, e18_quick):
        numbers = e18_quick.numbers
        assert numbers["late_writes"] == 3
        assert numbers["backfill_windows"] >= 1


class TestBenchJsonRecord:
    def test_recorded_bench_json_is_consistent(self):
        """The committed BENCH_e18.json must carry the gated claims."""
        if not BENCH_JSON.exists():
            pytest.skip("BENCH_e18.json not generated yet (run the benchmark)")
        record = json.loads(BENCH_JSON.read_text())
        assert record["experiment_id"] == "E18"
        numbers = record["numbers"]
        assert numbers["end_units"] == 10_000
        assert numbers["flat_ratio"] <= E18_FLAT_FACTOR
        assert numbers["raw_growth"] > E18_SUPERLINEAR_MARGIN * numbers["time_growth"]
        assert numbers["raw_reduction"] >= E18_RAW_REDUCTION_FLOOR
        assert numbers["touch_ratio"] <= E18_TOUCH_FACTOR
        assert numbers["bitident_mismatches"] == 0
        assert numbers["conservation_ok"] == 1.0
        assert numbers["expired_raw"] > 0
        assert numbers["backfill_windows"] >= 1
        assert numbers["ingest_rate"] > 0
