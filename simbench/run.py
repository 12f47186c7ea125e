"""Benchmark entry point.

    python3 simbench/run.py --workload hack-bulk --seed 1 --seconds 15 \
        --trace 0

Runs one workload in a closed loop for ``--seconds`` (at least one
full pass over the workload's inputs plus one repeat), checks every
output, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
ledger instead (see ``simbench/README.md``).  The line before it is a
JSON detail record holding the digest of the simulated outputs.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Fresh interpreters timed for ``setup_s``, spread over the run, and
#: how many of the fastest ones it averages.
SETUP_SAMPLES = 9
SETUP_FASTEST = 3

#: One ``setup_s`` sample: importing ``repro`` and building the
#: workload's inputs in a fresh interpreter, in reference seconds, with
#: the calibration run in the same process just before and after.
_SETUP_CODE = """
import sys
import time
sys.path[:0] = [{src!r}, {root!r}]
from simbench.calibrate import Speed, calibrate
before = calibrate()
start = time.perf_counter()
from simbench.workloads import WORKLOADS
WORKLOADS[{name!r}].items({seed})
seconds = time.perf_counter() - start
print(seconds * Speed.between(before, calibrate()).wall)
"""


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_simulator() -> None:
    """Put this checkout's ``src`` and root on ``sys.path``; refuse
    to run against any other copy of ``repro``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"simbench: no simulator source under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"simbench: imported repro from {repro.__file__}, "
                 f"not from {SRC}")


class SetupTimer:
    """Samples ``setup_s`` in fresh interpreters.  Interpreter start-up
    is left out: it does not depend on the simulator, and slow host
    phases move it differently from the calibration kernels.  Samples
    are spread evenly over the run, and ``setup_s`` is the mean of the
    fastest few."""

    def __init__(self, name: str, seed: int, seconds: float):
        self.code = _SETUP_CODE.format(src=str(SRC), root=str(ROOT),
                                       name=name, seed=seed)
        self.interval = seconds / SETUP_SAMPLES
        self.samples: List[float] = []
        self._spawn()       # untimed: writes a new checkout's bytecode
        self.start = time.perf_counter()

    def _spawn(self) -> float:
        return float(subprocess.run(
            [sys.executable, "-c", self.code], cwd=ROOT, check=True,
            stdout=subprocess.PIPE, text=True).stdout)

    def due(self) -> None:
        """Take the next sample if its time in the run has come."""
        if len(self.samples) < SETUP_SAMPLES and time.perf_counter() - \
                self.start >= len(self.samples) * self.interval:
            self.samples.append(self._spawn())

    def setup_s(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.samples.append(self._spawn())
        return statistics.fmean(sorted(self.samples)[:SETUP_FASTEST])


def host_calibrator(workers: int) -> Callable[[], Any]:
    """Calibrate where the work runs: an in-process workload is pinned
    to one CPU and calibrated there; a pool is calibrated on as many
    CPUs as it has workers (``calibrate.py``)."""
    from simbench.calibrate import calibrate, calibrate_cpus
    cpus = sorted(os.sched_getaffinity(0))
    if workers == 1:
        os.sched_setaffinity(0, cpus[:1])
        return calibrate
    return functools.partial(calibrate_cpus, cpus[:workers])


class Loop:
    """Closed-loop executor: one input at a time, cycling the inputs,
    checking every repeat against the input's first execution."""

    def __init__(self, workload: Any, items: List[Any], scratch: Path,
                 calibrate: Callable[[], Any]):
        self.workload = workload
        self.calibrate = calibrate
        self.items = items
        self.scratch = scratch
        self.first_executions: List[Any] = [None] * len(items)
        self.executions: List[Any] = []
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._speed: Any = None     # calibrated after the last execution

    def _execute(self, index: int) -> None:
        from simbench import check
        from simbench.calibrate import Speed
        gc.collect()
        before = self._speed or self.calibrate()
        try:
            execution = self.workload.execute(self.items[index],
                                              self.scratch)
        except Exception as exc:  # one failing input must not end the run
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"input {index}: {exc!r}")
            return
        finally:
            self._speed = self.calibrate()
        execution.speed = Speed.between(before, self._speed)
        self.attempted += len(execution.records) + execution.failed
        self.failed += execution.failed
        self.problems.extend(execution.problems)
        self.executions.append(execution)
        first = self.first_executions[index]
        if first is None:
            self.first_executions[index] = execution
        elif [check.canonical(m) for _, m in execution.records] != \
                [check.canonical(m) for _, m in first.records]:
            self.problems.append(
                f"input {index}: repeated execution changed its "
                "metrics")

    def one_pass(self) -> List[Any]:
        """Execute every input once; returns those executions."""
        mark = len(self.executions)
        for index in range(len(self.items)):
            self._execute(index)
        return self.executions[mark:]

    def run_for(self, seconds: float,
                after_first_pass: Callable[[], None] = lambda: None,
                between: Callable[[], None] = lambda: None) -> None:
        """Cycle the inputs until ``seconds`` have passed and every
        input ran at least once and one input ran twice; ``between``
        runs before each execution, outside its timing."""
        start = time.perf_counter()
        count = len(self.items)
        i = 0
        while i <= count or time.perf_counter() - start < seconds:
            between()
            self._execute(i % count)
            i += 1
            if i == count:
                after_first_pass()

    def first_records(self) -> List[Any]:
        return [record for execution in self.first_executions
                if execution is not None for record in execution.records]


def end_to_end(loop: Loop, setup_s: float) -> Dict[str, float]:
    """Host metrics scale the workload's simulated seconds per kernel
    event (exact, over one pass of its inputs) by the median event rate
    of its executions in reference seconds (``calibrate.py``).  The
    event normalisation keeps the mix of inputs a run happened to
    repeat out of the statistic."""
    from simbench.workloads import goodput_mbps
    first = [e for e in loop.first_executions if e is not None]
    sim_s_per_event = sum(e.sim_s for e in first) / \
        sum(e.events for e in first)
    executions = loop.executions
    rss = max(resource.getrusage(who).ru_maxrss for who in
              (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {
        "sim_s_per_wall_s": sim_s_per_event * statistics.median(
            e.events / (e.wall_s * e.speed.wall) for e in executions),
        "cpu_s_per_sim_s": 1.0 / (sim_s_per_event * statistics.median(
            e.events / (e.cpu_s * e.speed.cpu) for e in executions)),
        "setup_s": setup_s,
        "peak_rss_mb": rss / 1024.0,
        "goodput_mbps": goodput_mbps(loop.first_records()),
    }


def per_layer(workload: Any, items: List[Any], scratch: Path,
              seconds: float, calibrate: Callable[[], Any]
              ) -> Tuple[Dict[str, float], Loop]:
    """The traced run: call ledger, untraced reference pass, then the
    closed loop with span wrappers installed."""
    from simbench import layers
    from simbench.workloads import counters, fct_ms

    layers.repro_modules()
    ledger_fn = workload.ledger(scratch)
    ledger = layers.profile_calls(ledger_fn)
    again = layers.profile_calls(ledger_fn)

    loop = Loop(workload, items, scratch, calibrate)
    reference = loop.one_pass()
    if ledger["calls"] != again["calls"]:
        loop.problems.append(
            f"call ledger differs between passes: {ledger['calls']} "
            f"vs {again['calls']}")

    tracer = layers.SpanTracer(scratch)
    traced_first: Dict[str, Any] = {}

    def snapshot() -> None:
        tracer.collect()
        traced_first.update(tracer.totals())
        traced_first["wall_s"] = sum(e.wall_s for e in loop.executions[
            len(reference):len(reference) + len(items)])

    tracer.install()
    try:
        tracer.reset()
        loop.run_for(seconds, snapshot)
    finally:
        tracer.uninstall()

    ref_wall = sum(e.wall_s for e in reference)
    ref_cpu = sum(e.cpu_s for e in reference)
    records = loop.first_records()
    out: Dict[str, float] = {"ledger.total_calls": ledger["total_calls"]}
    total_self = sum(ledger["self_s"].values())
    for layer in layers.LAYERS + (layers.EXT,):
        out[f"{layer}.calls"] = ledger["calls"][layer]
        out[f"{layer}.self_share"] = ledger["self_s"][layer] / total_self
        if layer != layers.EXT:
            out[f"{layer}.spans"] = traced_first["spans"].get(layer, 0)
            out[f"{layer}.self_s"] = \
                traced_first["self_s"].get(layer, 0.0)
    out.update(counters(records))
    out["sim.events_per_cpu_s"] = out["sim.events_executed"] / ref_cpu
    fct = fct_ms(records)
    out["traffic.fct_p50_ms"] = fct["p50"]
    out["traffic.fct_p99_ms"] = fct["p99"]
    out["traffic.fct_flows"] = fct["flows"]
    for name in layers.TIMERS:
        out[name] = traced_first["timers"].get(name, 0.0)
    out["experiments.parallel_efficiency"] = \
        ref_cpu / (workload.workers * ref_wall)
    out["trace.overhead_ratio"] = traced_first["wall_s"] / ref_wall
    return out, loop


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    _import_simulator()
    from simbench import check
    from simbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"simbench: unknown workload {args.workload!r} "
                 f"(known: {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    # Inside the checkout: the benchmark writes nowhere else.
    with tempfile.TemporaryDirectory(prefix=".simbench-", dir=ROOT) as tmp:
        scratch = Path(tmp)
        calibrate = host_calibrator(workload.workers)
        if args.trace:
            metrics, loop = per_layer(workload, workload.items(args.seed),
                                      scratch, args.seconds, calibrate)
        else:
            setup = SetupTimer(args.workload, args.seed, args.seconds)
            loop = Loop(workload, workload.items(args.seed), scratch,
                        calibrate)
            loop.run_for(args.seconds, between=setup.due)
            metrics = end_to_end(loop, setup.setup_s())
        if loop.first_executions[0] is not None:
            loop.problems.extend(workload.final_checks(
                loop.first_executions[0]))

    records = loop.first_records()
    print(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "trace": args.trace,
        "scenario_seeds": sorted({cfg.seed for cfg, _ in records}),
        "digest": check.digest(m for _, m in records),
        "events_per_wall_s": [round(e.events / e.wall_s)
                              for e in loop.executions],
        "host_speed": [round(e.speed.wall, 3) for e in loop.executions],
        "problems": loop.problems[:20],
    }, sort_keys=True))
    print(json.dumps({
        "correct": not loop.problems and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
