"""Self-tests of the benchmark: ``python -m pytest simbench``.

They check the benchmark's own machinery (layer map, output checks,
seeding, tracing) against short simulator runs.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.units import MS
from repro.workloads import registry, run_scenario

from simbench import check, layers
from simbench.calibrate import calibrate, calibrate_cpus
from simbench.workloads import WORKLOADS, SweepWorkload, _check_records

ROOT = Path(__file__).resolve().parents[1]
SHORT = {"duration_ns": 300 * MS, "warmup_ns": 100 * MS}


@pytest.fixture(scope="module")
def churn_metrics():
    cfg = registry.build("aqm-fqcodel", seed=3, **SHORT)
    return cfg, run_scenario(cfg).metrics_dict()


def test_layer_map_covers_every_module():
    names = layers.repro_modules()
    assert len(names) > 80
    for name in names:
        assert layers.layer_of_module(name) in layers.LAYERS
    of_file = layers._FileLayers()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        assert of_file(str(path.resolve())) in layers.LAYERS
    assert of_file(json.__file__) == layers.EXT
    assert of_file("~") == layers.EXT


def test_checker_accepts_a_sound_run(churn_metrics):
    cfg, metrics = churn_metrics
    assert metrics["fct"]["flows_spawned"] > 0
    assert check.problems(metrics, cfg.data_rate_mbps) == []


@pytest.mark.parametrize("doctor, expect", [
    (lambda m: m["fct"].update(flows_spawned=m["fct"]["flows_spawned"]
                               + 1), "flows spawned"),
    (lambda m: m["rohc"].update(internal_errors=1), "internal_errors"),
    (lambda m: m.update(medium_utilisation=1.5), "outside [0, 1]"),
    (lambda m: m["cells"][0].update(carried_mbps=151.0), "PHY rate"),
    (lambda m: m["cells"][0].update(carried_mbps=0.0), "no goodput"),
])
def test_checker_rejects_doctored_dicts(churn_metrics, doctor, expect):
    cfg, metrics = churn_metrics
    doctored = copy.deepcopy(metrics)
    doctor(doctored)
    found = check.problems(doctored, cfg.data_rate_mbps)
    assert any(expect in problem for problem in found), found


def _rohc(events, open_):
    return {"rohc": {"desync_events": events, "open_desyncs": open_}}


@pytest.mark.parametrize("horizons, leak", [
    ([(1, 0)], False),
    ([(1, 1), (1, 0)], False),
    # A new desync in the grace window, open at its end, closes later.
    ([(1, 1), (2, 1), (2, 0)], False),
    ([(1, 1), (1, 1)], True),
    # The old desync never recovers while a new one comes and goes.
    ([(1, 1), (2, 1), (2, 1)], True),
    ([(2, 2), (3, 2), (3, 2)], True),
    # New desyncs in every window: unresolved, so reported.
    ([(1, 1), (2, 1), (3, 1), (4, 1)], True),
])
def test_open_desync_must_close_when_the_run_goes_on(horizons, leak):
    at_end, *extended = [_rohc(*h) for h in horizons]
    asked = []

    def longer(k):
        asked.append(k)
        return extended[k - 1]

    assert bool(check.desync_problems(at_end, longer)) == leak
    assert asked == list(range(1, len(asked) + 1))


def test_desync_open_at_the_horizon_recovers():
    # A collision-induced desync still recovering when this quick churn
    # point ends; 1 s later it has recovered.
    cfg = registry.build("aqm-fqcodel", seed=104838,
                         duration_ns=1500 * MS, warmup_ns=700 * MS)
    metrics = run_scenario(cfg).metrics_dict()
    assert metrics["rohc"]["open_desyncs"] == 1
    assert _check_records([(cfg, metrics)]) == []


def test_rohc_loss_counters_are_not_gates(churn_metrics):
    cfg, metrics = churn_metrics
    doctored = copy.deepcopy(metrics)
    doctored["decompressor"].update(crc_failures=3, unknown_cid=5)
    assert check.problems(doctored, cfg.data_rate_mbps) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_generated_configs(name):
    workload = WORKLOADS[name]

    def configs(seed):
        items = workload.items(seed)
        if isinstance(workload, SweepWorkload):
            return [p.describe() for spec in items for p in spec.points]
        return [repr(cfg) for cfg in items]

    assert configs(1) == configs(1)
    assert configs(1) != configs(2)


def test_digest_ignores_kernel_stats_but_not_outputs(churn_metrics):
    _, metrics = churn_metrics
    moved = copy.deepcopy(metrics)
    moved["kernel_stats"]["events_executed"] += 1
    assert check.digest([moved]) == check.digest([metrics])
    moved["medium_frames_sent"] += 1
    assert check.digest([moved]) != check.digest([metrics])


def test_traced_and_untraced_runs_give_identical_digests(tmp_path):
    cfg = registry.build("multi-client", seed=5, **SHORT)
    untraced = run_scenario(cfg).metrics_dict()
    tracer = layers.SpanTracer(tmp_path)
    tracer.install()
    try:
        traced = run_scenario(cfg).metrics_dict()
    finally:
        tracer.uninstall()
    assert check.digest([traced]) == check.digest([untraced])
    totals = tracer.totals()
    for layer in ("sim", "mac", "rohc", "core", "tcp", "workloads"):
        assert totals["spans"][layer] > 0
    assert "obs" not in totals["spans"]
    assert totals["timers"]["workloads.build_s"] > 0
    # Uninstalled: a further run records nothing.
    tracer.reset()
    run_scenario(cfg)
    assert tracer.totals()["spans"] == {}


def test_worker_spans_reach_the_parent(tmp_path):
    workload = SweepWorkload()
    spec = workload.spec(1)
    spec.points = spec.points[:2]           # the two city points
    tracer = layers.SpanTracer(tmp_path)
    tracer.install()
    try:
        workload._run(spec, tmp_path, jobs=2)
    finally:
        tracer.uninstall()
    tracer.collect()
    totals = tracer.totals()
    assert totals["timers"]["workloads.merge_s"] > 0
    assert totals["timers"]["experiments.pool_wait_s"] > 0
    assert totals["spans"]["mac"] > 0
    assert not list(tmp_path.glob("spans-*.json"))


def test_call_ledger_is_deterministic_and_matches_the_anchor():
    layers.repro_modules()
    cfg = registry.build("multi-client", seed=1, duration_ns=1500 * MS,
                         warmup_ns=700 * MS)
    first = layers.profile_calls(functools.partial(run_scenario, cfg))
    second = layers.profile_calls(functools.partial(run_scenario, cfg))
    assert first["calls"] == second["calls"]
    # 3,023,669 through pstats, when the 5-call dataclass __init__ wins
    # the label collision profile_calls avoids; 20 such calls in all.
    assert first["total_calls"] == 3_023_684
    assert first["calls"]["mac"] == 493_016
    assert first["calls"]["obs"] == 0


def test_calibration_does_not_depend_on_the_simulator():
    # A simulator change must never move the reference clock.
    out = subprocess.run(
        [sys.executable, "-c", "import sys; import simbench.calibrate; "
         "print(sorted(m for m in sys.modules if m.startswith('repro')))"],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_calibration_measures_one_cpu_and_a_pool():
    for speed in (calibrate(),
                  calibrate_cpus(sorted(os.sched_getaffinity(0))[:2])):
        assert 0.0 < speed.wall < 10.0
        assert 0.0 < speed.cpu < 10.0


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "simbench", tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "simbench/run.py", "--workload", "hack-bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
