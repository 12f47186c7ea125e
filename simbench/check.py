"""Output checks and digests over ``ScenarioResult.metrics_dict()``.

The checks are invariants that hold for every seed; no per-seed
answer is recorded anywhere.  ROHC ``crc_failures`` and
``unknown_cid`` are counters, not gates: collisions can lose HACK
frames, and the decompressor recovers from that by design.  For the
same reason a collision-induced desync can still be open when a run
ends, its recovery in flight; :func:`desync_problems` checks that it
closes once the run goes on.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, Iterable, List

#: Float slack for sums of per-cell rates compared against the PHY rate.
_EPS = 1e-9
#: Grace windows a run with an open desync may be extended by before
#: the check gives up and reports it.
DESYNC_ROUNDS = 3


def canonical(payload: Any) -> str:
    """Key-sorted JSON: equal strings mean equal metrics."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def simulated(metrics: Dict[str, Any]) -> Dict[str, Any]:
    """The simulated outputs: ``metrics`` minus ``kernel_stats`` and
    the per-shard kernel/telemetry blocks, which depend on how the
    point was executed rather than on what it simulated."""
    out = {k: v for k, v in metrics.items() if k != "kernel_stats"}
    if "shards" in out:
        out["shards"] = [{k: v for k, v in block.items()
                          if k not in ("kernel_stats", "telemetry")}
                         for block in out["shards"]]
    return out


def digest(records: Iterable[Dict[str, Any]]) -> str:
    """SHA-256 over the simulated outputs of ``records``, in order."""
    h = hashlib.sha256()
    for metrics in records:
        h.update(canonical(simulated(metrics)).encode())
        h.update(b"\n")
    return h.hexdigest()


def unsharded_view(metrics: Dict[str, Any]) -> str:
    """What a sharded record shares with the unsharded run of the same
    config: everything but ``kernel_stats`` and ``shards``."""
    return canonical({k: v for k, v in metrics.items()
                      if k not in ("kernel_stats", "shards")})


def problems(metrics: Dict[str, Any], phy_rate_mbps: float) -> List[str]:
    """Every invariant ``metrics`` breaks (empty when it is sound)."""
    found: List[str] = []
    if metrics["rohc"]["internal_errors"] != 0:
        found.append(
            f"rohc.internal_errors = {metrics['rohc']['internal_errors']}")
    fct_blocks = [metrics["fct"]] + [cell["fct"]
                                     for cell in metrics["cells"]]
    for fct in fct_blocks:
        if fct is None:
            continue
        if fct["flows_spawned"] != \
                fct["flows_completed"] + fct["flows_censored"]:
            found.append(
                f"flows spawned {fct['flows_spawned']} != completed "
                f"{fct['flows_completed']} + censored "
                f"{fct['flows_censored']}")
    utilisations = [metrics["medium_utilisation"]] + \
        [channel["utilisation"] for channel in metrics["channels"]]
    for value in utilisations:
        if not 0.0 <= value <= 1.0:
            found.append(f"utilisation {value} outside [0, 1]")
    carried: Dict[int, float] = {}
    for cell in metrics["cells"]:
        carried[cell["channel"]] = \
            carried.get(cell["channel"], 0.0) + cell["carried_mbps"]
    if not sum(carried.values()) > 0.0:
        found.append("no goodput carried")
    for channel, mbps in carried.items():
        if mbps > phy_rate_mbps + _EPS:
            found.append(f"channel {channel} carries {mbps} Mbps above "
                         f"the {phy_rate_mbps} Mbps PHY rate")
    return found


def desync_problems(at_end: Dict[str, Any],
                    longer: Callable[[int], Dict[str, Any]],
                    rounds: int = DESYNC_ROUNDS) -> List[str]:
    """Desyncs open at the end of a run must close (recover, or die with
    their flow) when the same run goes on.  ``longer(k)`` is the run of
    the same config extended by ``k`` grace windows, whose prefix is the
    same simulation.  A window that declares no new desync yet ends with
    one open has a desync that stayed open through the whole window: a
    leak.  A window that does declare one proves nothing about the old
    ones, so the run is extended again, up to ``rounds`` times."""
    previous = at_end["rohc"]
    for k in range(1, rounds + 1):
        if not previous["open_desyncs"]:
            return []
        current = longer(k)["rohc"]
        if current["open_desyncs"] and \
                current["desync_events"] == previous["desync_events"]:
            return [f"rohc desync open {k} grace window(s) after the end "
                    f"never closed: {current['open_desyncs']} open, none "
                    "declared in the last window"]
        previous = current
    if previous["open_desyncs"]:
        return [f"rohc desyncs still open after {rounds} grace windows: "
                f"{previous['open_desyncs']} open"]
    return []
