"""The four benchmark workloads.

Each workload turns ``--seed`` into a short list of inputs (scenario
configs, or one sweep grid) and executes one input at a time through
the simulator's public API: ``registry.build``, ``run_scenario``,
``ScenarioResult.metrics_dict`` and ``SweepRunner.run``.  Why each
workload exists is in ``simbench/README.md``.
"""

from __future__ import annotations

import functools
import random
import resource
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import HackPolicy
from repro.experiments.batch import SweepRunner, SweepSpec
from repro.sim.units import MS
from repro.workloads import ScenarioConfig, registry, run_scenario

from . import check
from .calibrate import Speed

#: Simulated duration of every in-process point: the ROADMAP's quick
#: cell.  Registry defaults (2-4 s) would give too few executions per
#: run for a steady host-time statistic on a shared host.
QUICK = {"duration_ns": 1500 * MS, "warmup_ns": 700 * MS}

Record = Tuple[ScenarioConfig, Dict[str, Any]]


@dataclass
class Execution:
    """One executed input: its records and what it cost the host."""

    records: List[Record]
    sim_s: float
    wall_s: float
    cpu_s: float
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Host speed calibrated around the execution (set by the loop).
    speed: Optional[Speed] = None

    @property
    def events(self) -> int:
        """Kernel events executed across the records (shards too)."""
        return sum(block.get("events_executed", 0)
                   for _, m in self.records
                   for block in [m["kernel_stats"]]
                   + [s["kernel_stats"] for s in m.get("shards", ())])


def scenario_seeds(seed: int, count: int) -> List[int]:
    """The scenario seeds a benchmark ``--seed`` stands for."""
    rng = random.Random(f"simbench:{seed}")
    return [rng.randrange(1, 1_000_000) for _ in range(count)]


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


#: How much longer a point with a desync open at its end is re-run.
DESYNC_GRACE_NS = 1000 * MS


def _run_longer(cfg: ScenarioConfig, windows: int) -> Dict[str, Any]:
    longer = replace(cfg, duration_ns=cfg.duration_ns
                     + windows * DESYNC_GRACE_NS)
    return run_scenario(longer).metrics_dict()


def _check_records(records: Sequence[Record]) -> List[str]:
    found = []
    for cfg, metrics in records:
        problems = check.problems(metrics, cfg.data_rate_mbps)
        if metrics["rohc"]["open_desyncs"]:
            problems += check.desync_problems(
                metrics, functools.partial(_run_longer, cfg))
        found += [f"seed {cfg.seed}: {problem}" for problem in problems]
    return found


class ScenarioWorkload:
    """One registry scenario run in-process, one point at a time."""

    workers = 1

    def __init__(self, name: str, scenario: str, distinct: int,
                 **overrides: Any):
        self.name = name
        self.scenario = scenario
        self.distinct = distinct
        self.overrides = overrides

    def _build(self, seed: int) -> ScenarioConfig:
        return registry.build(self.scenario, seed=seed,
                              **self.overrides, **QUICK)

    def items(self, seed: int) -> List[ScenarioConfig]:
        return [self._build(s) for s in scenario_seeds(seed, self.distinct)]

    def execute(self, cfg: ScenarioConfig, _scratch: Path) -> Execution:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        metrics = run_scenario(cfg).metrics_dict()
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        records = [(cfg, metrics)]
        return Execution(records, cfg.duration_ns / 1e9, wall, cpu,
                         problems=_check_records(records))

    def ledger(self, _scratch: Path) -> Callable[[], Any]:
        """The fixed point whose calls the traced run counts."""
        return functools.partial(run_scenario, self._build(1))

    def final_checks(self, first: Execution) -> List[str]:
        return []


class SweepWorkload:
    """A fresh-cache ``SweepRunner(jobs=2)`` grid of short points."""

    name = "sweep-grid"
    workers = 2
    #: Short multi-client cells and 3-channel city cells.
    CELL = {"duration_ns": 600 * MS, "warmup_ns": 300 * MS}
    CITY = {"duration_ns": 400 * MS, "warmup_ns": 200 * MS}

    def spec(self, seed: int) -> SweepSpec:
        """The grid, largest points first so that the two workers end
        together: a tail run by one worker alone would make the wall
        time depend on which CPU it landed on."""
        spec = SweepSpec("simbench:sweep-grid")
        cell_seeds = scenario_seeds(seed, 4)
        for policy in (HackPolicy.MORE_DATA, HackPolicy.VANILLA):
            spec.add_scenario(
                ("city-20cell", policy),
                registry.build("city-20cell", seed=cell_seeds[0],
                               policy=policy, **self.CITY))
        for policy in (HackPolicy.MORE_DATA, HackPolicy.VANILLA):
            for s in cell_seeds:
                spec.add_scenario(
                    ("multi-client", policy),
                    registry.build("multi-client", seed=s, policy=policy,
                                   **self.CELL))
        return spec

    def items(self, seed: int) -> List[SweepSpec]:
        return [self.spec(seed)]

    def _run(self, spec: SweepSpec, scratch: Path, jobs: int):
        cache = scratch / "sweep-cache"
        shutil.rmtree(cache, ignore_errors=True)
        try:
            return SweepRunner(jobs=jobs, cache_dir=cache,
                               shard_jobs=1).run(spec)
        finally:
            shutil.rmtree(cache, ignore_errors=True)

    def execute(self, spec: SweepSpec, scratch: Path) -> Execution:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        children0 = _children_cpu_s()
        result = self._run(spec, scratch, self.workers)
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0 + _children_cpu_s() - children0
        records: List[Record] = []
        problems: List[str] = []
        for point, record in zip(spec.points, result.records):
            if record.ok:
                records.append((point.config, record.metrics))
            else:
                problems.append(f"sweep point {record.key} seed "
                                f"{record.seed}: {record.error['type']}")
        if result.cache_hits or result.executed != len(spec):
            problems.append(f"sweep ran {result.executed} of "
                            f"{len(spec)} points, {result.cache_hits} "
                            "cache hits")
        sim_s = sum(p.config.duration_ns for p in spec.points) / 1e9
        return Execution(records, sim_s, wall, cpu,
                         failed=len(spec) - len(records),
                         problems=problems + _check_records(records))

    def ledger(self, scratch: Path) -> Callable[[], Any]:
        """The seed-1 grid, serial and in-process: the pool's polling
        loop is timing-dependent, the points' own calls are not."""
        return functools.partial(self._run, self.spec(1), scratch, 1)

    def final_checks(self, first: Execution) -> List[str]:
        """A city point run unsharded equals the sweep's merged
        record of it."""
        for cfg, merged in first.records:
            if cfg.channels > 1:
                alone = run_scenario(cfg).metrics_dict()
                if check.unsharded_view(alone) != \
                        check.unsharded_view(merged):
                    return [f"city seed {cfg.seed} policy "
                            f"{cfg.policy.value}: sharded sweep record "
                            "differs from the unsharded run"]
                return []
        return ["sweep grid has no multi-channel point"]


WORKLOADS = {w.name: w for w in (
    ScenarioWorkload("hack-bulk", "multi-client", distinct=4),
    ScenarioWorkload("vanilla-contention", "multi-client", distinct=3,
                     n_clients=10, policy=HackPolicy.VANILLA),
    ScenarioWorkload("churn-fqcodel", "aqm-fqcodel", distinct=16),
    SweepWorkload(),
)}


# ----------------------------------------------------------------------
# Simulated metrics (exact at equal seeds)
# ----------------------------------------------------------------------
def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100]."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + \
        (sorted_values[high] - sorted_values[low]) * (pos - low)


def goodput_mbps(records: Sequence[Record]) -> float:
    """Mean over points of the sum of per-cell carried Mbps."""
    return sum(sum(cell["carried_mbps"] for cell in m["cells"])
               for _, m in records) / len(records)


def fct_ms(records: Sequence[Record]) -> Dict[str, float]:
    """FCT percentiles pooled over every completed flow."""
    values = sorted(flow["fct_ms"] for _, m in records
                    if m["fct"] is not None
                    for flow in m["fct"]["flows"] if flow["completed"])
    return {"p50": _percentile(values, 50), "p99": _percentile(values, 99),
            "flows": len(values)}


def counters(records: Sequence[Record]) -> Dict[str, float]:
    """Per-layer counters read from ``metrics_dict()``, summed (or
    pooled into ratios) over ``records``."""
    kernel = {"events_scheduled": 0, "events_executed": 0,
              "events_cancelled": 0, "heap_compactions": 0}
    sent = collided = retried = transmitted = 0
    drops = 0
    sojourn_p99 = ack_airtime = 0.0
    compressed = vanilla = 0
    decomp = {"acks_reconstructed": 0, "crc_failures": 0,
              "unknown_cid": 0}
    retransmits = segments = timeouts = 0
    flows = {"flows_spawned": 0, "flows_completed": 0,
             "flows_censored": 0}
    for _, m in records:
        blocks = [m["kernel_stats"]] + [s["kernel_stats"]
                                        for s in m.get("shards", ())]
        for block in blocks:
            for key in kernel:
                kernel[key] += block.get(key, 0)
        sent += m["medium_frames_sent"]
        collided += m["medium_frames_collided"]
        for row in m["retry_table"].values():
            transmitted += row["total"]
            retried += round(row["one_or_more"] * row["total"])
        drops += m["aqm"]["drops"]
        sojourn_p99 += m["aqm"]["sojourn_p99_ms"] or 0.0
        ack_airtime += m["time_breakdown_ms"]["tcp_ack_airtime"]
        for driver in m["drivers"].values():
            compressed += driver["compressed_acks"]
            vanilla += driver["vanilla_acks_sent"]
        for key in decomp:
            decomp[key] += m["decompressor"][key]
        for sender in m["sender_counters"].values():
            retransmits += sender["retransmits"]
            segments += sender["segments_sent"]
            timeouts += sender["timeouts"]
        if m["fct"] is not None:
            for key in flows:
                flows[key] += m["fct"][key]
    n = len(records)
    return {
        "sim.events_executed": kernel["events_executed"],
        "sim.cancel_ratio": kernel["events_cancelled"]
        / max(1, kernel["events_scheduled"]),
        "sim.heap_compactions": kernel["heap_compactions"],
        "sim.collision_ratio": collided / max(1, sent),
        "mac.retry_ratio": retried / max(1, transmitted),
        "mac.aqm_drops": drops,
        "mac.sojourn_p99_ms": sojourn_p99 / n,
        "core.compressed_share": compressed / max(1, compressed + vanilla),
        "core.tcp_ack_airtime_ms": ack_airtime / n,
        "rohc.acks_reconstructed": decomp["acks_reconstructed"],
        "rohc.crc_failures": decomp["crc_failures"],
        "rohc.unknown_cid": decomp["unknown_cid"],
        "tcp.retransmit_ratio": retransmits / max(1, segments),
        "tcp.timeouts": timeouts,
        "traffic.flows_spawned": flows["flows_spawned"],
        "traffic.flows_completed": flows["flows_completed"],
        "traffic.flows_censored": flows["flows_censored"],
    }
