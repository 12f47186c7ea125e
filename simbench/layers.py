"""Layer attribution: the module -> layer map, the cProfile call
ledger and run-time span wrappers.

Everything here observes ``repro`` from outside.  The call ledger runs
a callable under :mod:`cProfile` and folds every frame into a layer by
the file it lives in.  The span tracer replaces the public functions
and methods of every ``repro`` module with timing wrappers at run
time, and :meth:`SpanTracer.uninstall` puts the originals back; no
file of the simulator is edited.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import inspect
import json
import os
import pkgutil
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: The simulator's layers, one per ``repro`` package.
LAYERS = ("sim", "phy", "mac", "rohc", "core", "tcp", "nodes",
          "traffic", "stats", "obs", "workloads", "experiments",
          "adversary")
#: Stdlib and builtins: everything outside the ``repro`` package.
EXT = "ext"

#: ``repro`` modules outside the layer packages.  ``analysis`` holds
#: the closed-form models only experiment modules call; ``cli`` is the
#: front end of the sweep engine; the top-level ``repro`` package
#: re-exports the scenario API.
_FOLDED = {"analysis": "experiments", "cli": "experiments",
           "": "workloads"}


def layer_of_module(name: str) -> str:
    """The layer of a ``repro`` module, by its dotted name."""
    if name != "repro" and not name.startswith("repro."):
        return EXT
    package = name[len("repro."):].split(".")[0] \
        if name != "repro" else ""
    if package in LAYERS:
        return package
    if package in _FOLDED:
        return _FOLDED[package]
    raise KeyError(f"module {name!r} maps to no layer")


def repro_modules() -> List[str]:
    """Import every ``repro`` module and return their names."""
    import repro
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
        names.append(info.name)
    return names


def clear_caches() -> None:
    """Empty the simulator's two ``lru_cache``\\ s, so that a profiled
    point counts the same calls whatever ran before it."""
    from repro.phy.params import _ofdm_duration
    from repro.rohc.context import cid_for_key
    _ofdm_duration.cache_clear()
    cid_for_key.cache_clear()


class _FileLayers:
    """Maps profiler frames (by file name) to layers."""

    def __init__(self) -> None:
        import repro
        self.root = str(Path(repro.__file__).resolve().parent) + os.sep
        self.memo: Dict[str, str] = {}

    def __call__(self, filename: str) -> str:
        layer = self.memo.get(filename)
        if layer is None:
            layer = EXT
            if filename.startswith(self.root):
                rel = Path(filename[len(self.root):]).with_suffix("")
                parts = ["repro", *rel.parts]
                if parts[-1] == "__init__":
                    parts.pop()
                layer = layer_of_module(".".join(parts))
            self.memo[filename] = layer
        return layer


def profile_calls(fn: Callable[[], Any]) -> Dict[str, Any]:
    """Run ``fn`` under cProfile; calls and self time per layer.

    Returns ``{"total_calls", "calls": {layer: n},
    "self_s": {layer: seconds}}`` with every layer of :data:`LAYERS`
    plus :data:`EXT` present.  Reads the profiler's raw per-function
    entries: :mod:`pstats` keys functions by (file, line, name), so the
    ``__init__`` methods that :mod:`dataclasses` compiles from
    ``<string>`` collide there and only one of them keeps its count —
    which one depends on code-object addresses, so totals read through
    :mod:`pstats` change from process to process.
    """
    clear_caches()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    of_file = _FileLayers()
    calls = dict.fromkeys(LAYERS + (EXT,), 0)
    self_s = dict.fromkeys(LAYERS + (EXT,), 0.0)
    for entry in profiler.getstats():
        # Builtins are entered by name (a str), Python code by code object.
        filename = getattr(entry.code, "co_filename", "~")
        layer = of_file(filename)
        calls[layer] += entry.callcount
        self_s[layer] += entry.inlinetime
    return {"total_calls": sum(calls.values()), "calls": calls,
            "self_s": self_s}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
#: Named inclusive timers: metric name -> (module, attribute path).
TIMERS = {
    "experiments.cache_store_s": ("repro.experiments.batch",
                                  "SweepCache.store"),
    "experiments.pool_wait_s": ("repro.experiments.batch", "wait"),
    "workloads.merge_s": ("repro.workloads.sharding", "merge_outcomes"),
    "workloads.build_s": ("repro.workloads.scenarios",
                          "CellBuilder.build"),
}


def _callback_layer(callback: Any) -> str:
    target = getattr(callback, "__func__", callback)
    target = getattr(target, "func", target)      # functools.partial
    return layer_of_module(getattr(target, "__module__", None) or "")


class SpanTracer:
    """Layer spans recorded by wrappers installed at run time.

    A span opens when a call crosses into another layer: a wrapped
    public function of layer L called while the innermost open span is
    not L, or an event callback of layer L dispatched by the kernel
    (``Simulator.schedule_at`` is wrapped to wrap each callback).  A
    layer's self time is its spans' durations minus the time their
    child spans cover.  Only aggregates are kept: span count and self
    time per layer, plus the inclusive :data:`TIMERS`.

    Under a fork-based process pool the workers inherit the wrappers;
    each worker's ``execute_point`` resets its copy of the tracer and
    writes its totals to ``export_dir``, and :meth:`collect` folds
    those files into the parent's totals.
    """

    def __init__(self, export_dir: Path):
        self.export_dir = Path(export_dir)
        self.stack: List[List[Any]] = []
        self.spans: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.timer_ns: Dict[str, int] = {}
        self.reset()
        self._originals: List[Tuple[Any, str, Any]] = []
        self._parent_pid = os.getpid()
        self._exports = 0

    # -- accounting ----------------------------------------------------
    def reset(self) -> None:
        """Forget all totals (in place: wrappers hold references)."""
        self.stack[:] = [["", 0]]
        self.spans.clear()
        self.self_ns.clear()
        self.timer_ns.clear()

    def totals(self) -> Dict[str, Dict[str, float]]:
        return {"spans": dict(self.spans),
                "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
                "timers": {k: v / 1e9
                           for k, v in self.timer_ns.items()}}

    def collect(self) -> None:
        """Fold worker exports into this process's totals."""
        for path in sorted(self.export_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            for layer, n in payload["spans"].items():
                self.spans[layer] = self.spans.get(layer, 0) + n
            for layer, ns in payload["self_ns"].items():
                self.self_ns[layer] = self.self_ns.get(layer, 0) + ns
            for name, ns in payload["timer_ns"].items():
                self.timer_ns[name] = self.timer_ns.get(name, 0) + ns
            path.unlink()

    def _export(self) -> None:
        self._exports += 1
        path = self.export_dir / f"spans-{os.getpid()}-{self._exports}.json"
        path.write_text(json.dumps({"spans": self.spans,
                                    "self_ns": self.self_ns,
                                    "timer_ns": self.timer_ns}))

    # -- wrappers ------------------------------------------------------
    def span(self, fn: Callable[..., Any], layer: str
             ) -> Callable[..., Any]:
        stack, spans, self_ns = self.stack, self.spans, self.self_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][1] += elapsed
                self_ns[layer] = self_ns.get(layer, 0) + elapsed - frame[1]
                spans[layer] = spans.get(layer, 0) + 1

        return traced

    def timer(self, fn: Callable[..., Any], name: str
              ) -> Callable[..., Any]:
        timer_ns = self.timer_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                timer_ns[name] = timer_ns.get(name, 0) + clock() - start

        return timed

    def _event_wrapper(self, schedule_at: Callable[..., Any]
                       ) -> Callable[..., Any]:
        span = self.span

        @functools.wraps(schedule_at)
        def traced_schedule_at(sim: Any, when: int, callback: Any,
                               *args: Any, **kwargs: Any) -> Any:
            return schedule_at(sim, when,
                               span(callback, _callback_layer(callback)),
                               *args, **kwargs)

        return traced_schedule_at

    def _worker_wrapper(self, execute_point: Callable[..., Any]
                        ) -> Callable[..., Any]:
        @functools.wraps(execute_point)
        def exported(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() == self._parent_pid:
                return execute_point(*args, **kwargs)
            self.reset()
            try:
                return execute_point(*args, **kwargs)
            finally:
                self._export()

        return exported

    # -- install / uninstall -------------------------------------------
    def _replace(self, owner: Any, name: str, value: Any) -> None:
        self._originals.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every public function and method of every ``repro``
        module (generators, properties and dunders excluded)."""
        import enum
        import sys

        names = repro_modules()
        wrapped: Dict[int, Any] = {}
        for name in names:
            module = sys.modules[name]
            layer = layer_of_module(name)
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) \
                        and value.__module__ == name \
                        and not inspect.isgeneratorfunction(value):
                    wrapped[id(value)] = self.span(value, layer)
                elif inspect.isclass(value) \
                        and value.__module__ == name \
                        and not issubclass(value, enum.Enum):
                    self._wrap_class(value, layer)
        # Module-level functions are also bound by ``from x import f``
        # in other modules: rebind every reference.
        for name in names:
            module = sys.modules[name]
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrapped:
                    self._replace(module, attr, wrapped[id(value)])

        from repro.experiments import batch
        from repro.sim.engine import Simulator
        self._replace(Simulator, "schedule_at",
                      self._event_wrapper(Simulator.schedule_at))
        self._replace(batch, "execute_point",
                      self._worker_wrapper(batch.execute_point))
        for metric, (module_name, path) in TIMERS.items():
            owner: Any = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            self._replace(owner, attr, self.timer(getattr(owner, attr),
                                                  metric))

    def _wrap_class(self, cls: type, layer: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(value, (staticmethod, classmethod)):
                func = value.__func__
                if inspect.isgeneratorfunction(func):
                    continue
                self._replace(cls, attr,
                              type(value)(self.span(func, layer)))
            elif inspect.isfunction(value) \
                    and not inspect.isgeneratorfunction(value):
                self._replace(cls, attr, self.span(value, layer))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals.clear()
