"""Shard and telemetry smoke checks over the plan -> execute -> fold path.

Two end-to-end invariants the shard pipeline must never drift from:
every channel is its own collision domain (cell airtime shares sum to
<= 1 *per channel*, never per city), and the merged multi-shard result
is bit-identical to the single-simulator run of the same config —
everything in ``metrics_dict()`` except the kernel view: a merged
result's own ``kernel_stats`` is empty and each shard's counters ride
verbatim under the ``"shards"`` blocks (per-shard simulators schedule
their own snapshot events, so their counts never equal the shared
kernel's).  And one telemetry-enabled city-style run: the JSONL
artifact validated through the library loader, the Chrome-trace
document through plain ``json.load``, and scenario metrics
bit-identical to the telemetry-off run (modulo ``kernel_stats``: the
sampler schedules its own events).

Inputs and outputs, for running in CI as well as locally:

* ``REPRO_CITY_SCALE_JSON`` names a ``city_scale`` sweep artifact to
  check (``runner city_scale --quick --shard-jobs 2 --out ...``);
  unset, the quick sweep runs here with two shard workers.
* ``REPRO_SMOKE_ARTIFACT_DIR`` is where the telemetry run writes
  ``telemetry-city.jsonl`` and ``telemetry-city.trace.json``; unset,
  a temporary directory.
"""

import json
import os
from pathlib import Path

import pytest

from repro import ScenarioConfig, run_scenario
from repro.experiments import city_scale
from repro.experiments.batch import SweepResult, SweepRunner
from repro.obs import TelemetryConfig, load_telemetry
from repro.sim.units import MS


def city_config() -> ScenarioConfig:
    return ScenarioConfig(
        phy_mode="11n", data_rate_mbps=150.0, n_clients=1,
        cells=6, channels=3, traffic="tcp_download",
        duration_ns=400 * MS, warmup_ns=150 * MS, stagger_ns=0,
        seed=1)


@pytest.fixture(scope="module")
def city_sweep() -> SweepResult:
    path = os.environ.get("REPRO_CITY_SCALE_JSON")
    if path:
        with open(path) as handle:
            return SweepResult.from_json_dict(
                json.load(handle)["city_scale"])
    runner = SweepRunner(jobs=1, cache_dir=None, shard_jobs=2)
    return runner.run(city_scale.sweep_spec(quick=True))


@pytest.fixture
def artifact_dir(tmp_path) -> Path:
    path = os.environ.get("REPRO_SMOKE_ARTIFACT_DIR")
    if not path:
        return tmp_path
    Path(path).mkdir(parents=True, exist_ok=True)
    return Path(path)


def test_city_airtime_bounded_per_channel(city_sweep):
    for record in city_sweep.records:
        channels = record.metrics["channels"]
        assert len(channels) == 3, record.key
        for block in channels:
            share = block["airtime_share_sum"]
            assert 0 < share <= 1.0, (record.key, block)
    rows = city_scale.rows_from_sweep(city_sweep)
    assert len(rows) >= 4


def test_merged_shards_equal_unsharded_run():
    cfg = city_config()
    unsharded = run_scenario(cfg).metrics_dict()
    merged = run_scenario(cfg, shard_jobs=2)
    assert merged.shard_info["plan"]["shards"] == 3
    assert merged.kernel_stats == {}
    merged = merged.metrics_dict()
    blocks = merged.pop("shards")
    assert [b["channel"] for b in blocks] == [0, 1, 2]
    assert all(b["kernel_stats"]["events_executed"] > 0
               for b in blocks)
    unsharded.pop("kernel_stats")
    merged.pop("kernel_stats")
    assert merged == unsharded


def test_telemetry_artifacts_and_metrics_identity(artifact_dir):
    jsonl = artifact_dir / "telemetry-city.jsonl"
    trace_path = artifact_dir / "telemetry-city.trace.json"
    telemetry = TelemetryConfig(
        sample_interval_ns=20 * MS,
        telemetry_path=str(jsonl),
        trace_export_path=str(trace_path))
    cfg = city_config()
    on = run_scenario(cfg, telemetry=telemetry)
    off = run_scenario(cfg)
    m_on, m_off = on.metrics_dict(), off.metrics_dict()
    m_on.pop("telemetry")
    m_on.pop("kernel_stats")
    m_off.pop("kernel_stats")
    assert m_on == m_off
    artifact = load_telemetry(str(jsonl))
    assert artifact["meta"]["channels"] == [0, 1, 2]
    assert artifact["summary"]["samples"] == \
        len(artifact["samples"]) > 0
    for sample in artifact["samples"]:
        assert {"t_ns", "channel", "utilisation",
                "cells"} <= set(sample)
    with open(trace_path) as handle:
        trace = json.load(handle)
    cats = {event["cat"] for event in trace["traceEvents"]}
    assert cats >= {"frame", "kernel", "telemetry"}
