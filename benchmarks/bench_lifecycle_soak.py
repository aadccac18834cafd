"""E18 — the data-lifecycle soak: rollup tiers under fleet growth.

The lifecycle tier's headline claim: as the fleet grows 100 → 10,000
units, a long-horizon dashboard served from the 1 h rollup tier stays
within a small constant factor of the last-hour baseline while the
raw-only ablation's scan cost grows super-linearly — and the tier
answers remain bit-identical to raw wherever raw is unexpired, with
conservation holding through TTL expiry and late-write backfill.

Besides the archived table this benchmark emits ``BENCH_e18.json`` at
the repo root — the machine-readable record the regression gate
(``tests/test_lifecycle_gate.py``) and EXPERIMENTS.md cite.
"""

from pathlib import Path

import pytest

from repro.bench import REGISTRY, write_json_result
from repro.bench.experiments import (
    E18_FLAT_FACTOR,
    E18_RAW_REDUCTION_FLOOR,
    E18_SUPERLINEAR_MARGIN,
    E18_TOUCH_FACTOR,
)

BENCH_JSON = Path(__file__).parent.parent / "BENCH_e18.json"


@pytest.mark.benchmark(group="lifecycle")
def test_lifecycle_soak(benchmark, archive):
    result = benchmark.pedantic(
        lambda: REGISTRY.run("e18"),
        rounds=1,
        iterations=1,
    )
    archive(result)
    write_json_result(result, BENCH_JSON)
    numbers = result.numbers

    # the tentpole claim: long-horizon cost is flat, raw-only is not
    assert numbers["flat_ratio"] <= E18_FLAT_FACTOR
    assert numbers["raw_growth"] > E18_SUPERLINEAR_MARGIN * numbers["time_growth"]
    assert numbers["raw_reduction"] >= E18_RAW_REDUCTION_FLOOR
    # raw-served scans read only their range
    assert numbers["touch_ratio"] <= E18_TOUCH_FACTOR
    # tier-routed answers are bit-identical wherever raw still lives
    assert numbers["bitident_identical_plans"] == numbers["bitident_probes"]
    assert numbers["bitident_mismatches"] == 0
    # conservation holds through TTL expiry (which actually fired)
    assert numbers["conservation_ok"] == 1.0
    assert numbers["expired_raw"] > 0
    assert numbers["too_late"] == 0
    # the mid-soak out-of-order writes were re-materialized
    assert numbers["late_writes"] >= 1
    assert numbers["backfill_windows"] >= 1
