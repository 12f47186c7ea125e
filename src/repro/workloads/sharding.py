"""Plan -> execute -> fold: the one path every scenario run takes.

Cells on different channels share nothing — not carrier sense, not
collisions, not loss draws (per-channel RNG streams), not flow ids,
not wired /16s.  A multi-channel scenario therefore *factors exactly*
into one independent sub-scenario per channel.  ``run_scenario`` runs
every config through the same three steps:

* **plan** — which cells each simulator builds.  ``shard_jobs=None``
  is a one-shard plan over every cell; with ``shard_jobs`` set,
  :class:`ShardPlan` partitions the cells by channel
  (:meth:`ShardPlan.from_config`), one shard per channel in use.
* **execute** — :func:`execute_plan` runs each shard's cells in a
  fresh :class:`~repro.sim.engine.Simulator` through the same
  :class:`~repro.workloads.scenarios.CellBuilder` path, serially in
  process or across a process pool with the sweep engine's
  submit/poll shape.  Because every id (addresses, static flow ids,
  UDP pseudo-ids, RNG stream names, IP prefixes) derives from the
  global cell index, a shard's event sequence is the unsharded run's
  sub-sequence for its cells.  Each shard returns a plain-data
  :class:`~repro.workloads.scenarios.ScenarioResult`.
* **fold** — :func:`merge_outcomes` turns the shard results into the
  run's result.  A lone result comes back unchanged.  Several are
  folded with every order-sensitive sequence rebuilt in the unsharded
  order (flows by ascending id, cells ascending, channels in plan
  order), so float reductions — aggregate goodput, Jain, FCT
  statistics — are bit-identical to the single-simulator run.  This
  module is also the one home of the cross-cell FCT merge
  (:func:`merge_fct`) and the counter sums (:func:`sum_counters`).

``kernel_stats`` is reported per shard rather than summed: a folded
result's own ``kernel_stats`` is empty (summing counters across
independent simulators never equalled the single shared kernel of an
unsharded run — e.g. the two snapshot events are scheduled once per
shard) and each shard's counters are carried verbatim under
``metrics_dict()["shards"]`` (one ``{channel, cells, kernel_stats,
telemetry}`` block per shard, plan order).  Everything else in
``metrics_dict()`` is identical across ``shard_jobs=None`` / ``1`` /
``N``.

Telemetry (``run_scenario(..., telemetry=...)``) folds the same way:
each shard samples its own channels, the fold sorts the union of the
sample records by ``(t_ns, plan channel order)`` — the unsharded
stream — and summarises it, and the fold alone writes the run's one
JSONL artifact.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, \
    wait
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, \
    Tuple

from ..adversary.runtime import merge_adversary_blocks
from ..mac.qdisc import QdiscStats
from ..obs import merge_span_blocks, telemetry_block, telemetry_meta, \
    write_telemetry_file
from ..stats.collectors import MacStats


@dataclass(frozen=True)
class ShardPlan:
    """The cells-by-channel partition of one scenario.

    ``channels`` lists the channels in use in first-appearance order
    over ascending cell index (for round-robin assignment that is
    simply 0, 1, ..., C-1); ``cells_by_channel`` is aligned with it,
    each entry the ascending global cell indices on that channel.
    """

    channels: Tuple[int, ...]
    cells_by_channel: Tuple[Tuple[int, ...], ...]

    @classmethod
    def from_config(cls, cfg) -> "ShardPlan":
        cfg.validate_cells()
        channels: Dict[int, List[int]] = {}
        for cell in range(cfg.cells):
            channels.setdefault(cfg.channel_of(cell), []).append(cell)
        return cls(channels=tuple(channels),
                   cells_by_channel=tuple(
                       tuple(cells) for cells in channels.values()))

    @classmethod
    def single(cls, cfg) -> "ShardPlan":
        """One shard running every cell in one simulator: the
        unsharded run, whatever the channel count (the shard is
        labelled with cell 0's channel)."""
        return cls(channels=(cfg.channel_of(0),),
                   cells_by_channel=(tuple(range(cfg.cells)),))

    @property
    def shard_count(self) -> int:
        return len(self.channels)

    def shards(self) -> List[Tuple[int, Tuple[int, ...]]]:
        """(channel, cells) pairs, one per shard, in channel order."""
        return list(zip(self.channels, self.cells_by_channel))

    def describe(self) -> Dict[str, Any]:
        """JSON-able plan summary (CLI output, ``shard_info``)."""
        return {
            "shards": self.shard_count,
            "channels": list(self.channels),
            "cells_by_channel": {
                str(channel): list(cells)
                for channel, cells in self.shards()},
        }


class ShardExecutionError(RuntimeError):
    """One shard raised; identifies the shard for fault isolation."""

    def __init__(self, channel: int, cells: Tuple[int, ...],
                 cause: BaseException):
        super().__init__(
            f"shard for channel {channel} (cells {list(cells)}) "
            f"failed: {type(cause).__name__}: {cause}")
        self.channel = channel
        self.cells = cells


def _effective_jobs(shard_jobs: int, shard_count: int) -> int:
    """Clamp the worker count; fall back to serial shards inside a
    daemonic worker (a sweep pool's child cannot spawn its own pool —
    serial shards produce identical metrics anyway)."""
    jobs = min(max(1, shard_jobs), shard_count)
    if jobs > 1 and multiprocessing.current_process().daemon:
        return 1
    return jobs


def _timed(cfg, cells: Tuple[int, ...], telemetry):
    """One shard's result and its wall time (the pool work item)."""
    from .scenarios import run_shard

    started = time.perf_counter()
    result = run_shard(cfg, cells, telemetry)
    return result, time.perf_counter() - started


def execute_plan(cfg, plan: ShardPlan, shard_jobs: Optional[int],
                 telemetry=None):
    """Run every shard of ``plan``; ``(results, shard_info)``.

    Each shard is one :func:`~repro.workloads.scenarios.run_shard`.  A
    one-shard plan runs in process and has no ``shard_info``.
    Otherwise ``shard_jobs=1`` runs shards serially in process and
    ``N > 1`` fans them over a process pool with the sweep engine's
    submit/poll shape (``wait(FIRST_COMPLETED)``), so a slow channel
    never blocks collection of the others; per-shard faults are
    isolated into :class:`ShardExecutionError` naming the channel and
    cells.  Frame traces record a single simulator, so a multi-shard
    plan refuses ``cfg.trace`` and ``trace_export_path``.
    """
    shards = plan.shards()
    if len(shards) == 1:
        from .scenarios import run_shard
        return [run_shard(cfg, shards[0][1], telemetry)], None
    if cfg.trace:
        raise ValueError(
            "trace=True records a single simulator's frames; it "
            "cannot span channel shards (run with shard_jobs=None)")
    if telemetry is not None and telemetry.trace_export_path:
        raise ValueError(
            "trace_export_path records a single simulator's frames; "
            "it cannot span channel shards (run with shard_jobs=None)")
    jobs = _effective_jobs(shard_jobs, plan.shard_count)
    started = time.perf_counter()
    done_by_channel: Dict[int, Tuple[Any, float]] = {}
    if jobs <= 1:
        for channel, cells in shards:
            try:
                done_by_channel[channel] = _timed(cfg, cells, telemetry)
            except Exception as exc:
                raise ShardExecutionError(channel, cells, exc) from exc
        mode = "serial"
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {
                pool.submit(_timed, cfg, cells, telemetry):
                (channel, cells)
                for channel, cells in shards}
            pending = set(futures)
            while pending:
                done, pending = wait(pending,
                                     return_when=FIRST_COMPLETED)
                for future in done:
                    channel, cells = futures[future]
                    try:
                        done_by_channel[channel] = future.result()
                    except Exception as exc:
                        raise ShardExecutionError(channel, cells,
                                                  exc) from exc
        mode = "parallel"
    shard_info = {
        "mode": mode,
        "jobs": jobs,
        "requested_jobs": shard_jobs,
        "wall_s": time.perf_counter() - started,
        "shard_wall_s": {
            str(channel): done_by_channel[channel][1]
            for channel in plan.channels},
        "plan": plan.describe(),
    }
    return ([done_by_channel[channel][0] for channel in plan.channels],
            shard_info)


def sum_counters(blocks: Iterable[Dict[str, int]],
                 keys: Sequence[str] = ()) -> Dict[str, int]:
    """Key-wise sum of counter dicts; ``keys`` are present even when
    nothing counted them."""
    out = dict.fromkeys(keys, 0)
    for block in blocks:
        for key, value in block.items():
            out[key] = out.get(key, 0) + value
    return out


def merge_fct(collectors: Sequence[Any],
              duration_ns: int) -> Optional[Dict[str, Any]]:
    """The ``fct`` block of per-cell FCT collectors (ascending cell
    order; ``FctCollector`` or ``FctAggregator``, None for a cell
    without churn); None when no cell has churn."""
    collectors = [c for c in collectors if c is not None]
    if not collectors:
        return None
    if len(collectors) == 1:
        return collectors[0].summary(duration_ns)
    merged = type(collectors[0])()
    for collector in collectors:
        merged.merge(collector)
    return merged.summary(duration_ns)


def _by_abs_key(dicts: Iterable[Dict[int, Any]]) -> Dict[int, Any]:
    """Union of per-flow dicts in ascending ``|flow id|``: static flow
    ids and UDP pseudo-ids are minted in global cell order, so this is
    the unsharded run's insertion order."""
    return dict(sorted((item for d in dicts for item in d.items()),
                       key=lambda item: abs(item[0])))


def merge_outcomes(cfg, plan: ShardPlan, results: Sequence[Any],
                   shard_info: Optional[Dict[str, Any]] = None,
                   telemetry=None):
    """Fold the shard results of ``plan`` (plan order) into the run's
    result, and write the run's telemetry artifact.

    A lone result is returned unchanged: its own ``kernel_stats``, no
    ``"shards"`` key, ``shard_info`` None.  Several are folded as the
    module docstring describes; per-shard kernel counters (and
    telemetry blocks, when sampling ran) are kept verbatim as
    ``shard_blocks`` and the folded result's own ``kernel_stats`` is
    empty.
    """
    if len(results) == 1:
        result = results[0]
    else:
        result = _fold(cfg, plan, results, shard_info, telemetry)
    if telemetry is not None and telemetry.telemetry_path:
        write_telemetry_file(
            telemetry.telemetry_path,
            telemetry_meta(cfg, telemetry, cfg.ordered_channels(),
                           range(cfg.cells)),
            result.telemetry_samples, result.telemetry)
    return result


def _fold(cfg, plan: ShardPlan, results: Sequence[Any],
          shard_info: Optional[Dict[str, Any]], telemetry):
    from .scenarios import ScenarioResult

    by_cell = sorted(
        ((cell, block, collector)
         for cells, result in zip(plan.cells_by_channel, results)
         for cell, block, collector in zip(cells, result.cell_blocks,
                                           result.cell_collectors)),
        key=lambda item: item[0])
    cell_blocks = [block for _, block, _ in by_cell]
    cell_collectors = [collector for _, _, collector in by_cell]
    channel_blocks = [block for result in results
                      for block in result.channel_blocks]
    background: Dict[str, float] = {}
    for block in cell_blocks:
        background.update(block["udp_background_goodput_mbps"])
    driver_metrics: Dict[str, Dict[str, int]] = {}
    mac_stats = MacStats()
    qdisc_stats = QdiscStats()
    for result in results:
        driver_metrics.update(result.driver_metrics)
        mac_stats.merge(result.mac_stats)
        qdisc_stats.merge(result.qdisc_stats)

    samples: List[Dict[str, Any]] = []
    telemetry_summary: Optional[Dict[str, Any]] = None
    if telemetry is not None:
        order = {channel: index
                 for index, channel in enumerate(plan.channels)}
        samples = sorted(
            (record for result in results
             for record in result.telemetry_samples),
            key=lambda record: (record["t_ns"], order[record["channel"]]))
        spans = [result.telemetry["spans"] for result in results
                 if result.telemetry["spans"]]
        telemetry_summary = telemetry_block(
            telemetry, samples,
            merge_span_blocks(spans) if spans else None)

    return ScenarioResult(
        config=cfg,
        per_flow_goodput_mbps=_by_abs_key(
            result.per_flow_goodput_mbps for result in results),
        mac_stats=mac_stats,
        driver_metrics=driver_metrics,
        decomp_counters=sum_counters(
            result.decomp_counters for result in results),
        medium_frames_sent=sum(block["frames_sent"]
                               for block in channel_blocks),
        medium_frames_collided=sum(block["frames_collided"]
                                   for block in channel_blocks),
        medium_utilisation=sum(block["utilisation"]
                               for block in channel_blocks)
        / len(channel_blocks),
        completion_times_ns=_by_abs_key(
            result.completion_times_ns for result in results),
        sender_counters=_by_abs_key(
            result.sender_counters for result in results),
        kernel_stats={},
        rohc_counters=sum_counters(
            result.rohc_counters for result in results),
        qdisc_stats=qdisc_stats,
        adversary_counters=merge_adversary_blocks(
            result.adversary_counters for result in results),
        fct=merge_fct(cell_collectors, cfg.duration_ns),
        udp_background_goodput_mbps=background,
        cell_blocks=cell_blocks,
        channel_blocks=channel_blocks,
        cell_collectors=cell_collectors,
        shard_info=shard_info,
        telemetry=telemetry_summary,
        shard_blocks=[
            {"channel": channel, "cells": list(cells),
             "kernel_stats": dict(result.kernel_stats),
             "telemetry": result.telemetry}
            for (channel, cells), result in zip(plan.shards(), results)],
        telemetry_samples=samples,
    )
