"""Per-layer tracing built from outside the program.

Every layer boundary the benchmark measures is a public function or
method of a ``repro`` module.  :class:`Instrumentation` replaces each of
them -- every binding a caller actually uses, including names imported
with ``from ... import`` -- by a wrapper that records one host-stamped
span per call in memory.  :meth:`Instrumentation.restore` puts the
originals back, so untraced passes run the unmodified program.

A layer's self time is its spans' duration minus the part covered by
wrapped calls made from inside it (its child spans).
"""

import functools
import json
import sys
import time
from importlib import import_module
from typing import Callable, Dict, List, Optional, Tuple

# Layers reported for the traced set-up rather than per timed pass:
# they run only while the platforms are characterized and priced.
SETUP_LAYERS = ("macromodel.characterize", "costs.measure",
                "crypto.ec.scalar_mul", "isa.machine.run", "isa.assemble",
                "isa.compile")

#: The wrapped layers, in report order.
LAYERS = (
    "crypto.sha1", "protocols.cache_key",
    "ssl.session_cache.store_entry", "ssl.session_cache.lookup",
    "ssl.session_cache.contains", "farm.scheduler.affinity_probe",
    "farm.scheduler.select", "farm.scheduler.backlog_scan",
    "farm.events.push", "farm.events.pop", "farm.simulator.run",
    "protocols.request_cost", "farm.workload.generate_requests",
    "farm.metrics.summarize", "macromodel.ledger", "macromodel.predict",
    "mp.hooks.trace", "mp.mpn.mul_basecase", "mp.mpn.sqr",
    "mp.mpn.divrem", "mp.mpn.addmul_1", "crypto.modexp.powm",
    "crypto.modmul.mul", "explore.evaluate",
) + SETUP_LAYERS

Observer = Callable[[Dict[str, float], tuple, object], None]


class SpanRecorder:
    """Host-clock spans of wrapped calls, kept in memory.

    Calls and self seconds are accumulated for every call; the span
    records themselves are kept up to ``max_spans`` (the rest are
    counted as dropped) so a call-heavy workload cannot exhaust memory.
    """

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.clear()

    def clear(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        #: Layer observations beyond calls/time (hits, queued items...).
        self.counters: Dict[str, float] = {}
        self.spans: List[Tuple[int, Optional[int], str, float, float]] = []
        self.dropped = 0
        self._stack: List[list] = []
        self._next_id = 1

    def wrap(self, name: str, fn, observe: Optional[Observer] = None):
        rec = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack
            parent = stack[-1] if stack else None
            frame = [rec._next_id, 0.0]     # span id, child seconds
            rec._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                rec.calls[name] = rec.calls.get(name, 0) + 1
                rec.self_s[name] = (rec.self_s.get(name, 0.0)
                                    + duration - frame[1])
                if parent is not None:
                    parent[1] += duration
                if len(rec.spans) < rec.max_spans:
                    rec.spans.append((frame[0],
                                      parent[0] if parent else None,
                                      name, start, end))
                else:
                    rec.dropped += 1
            if observe is not None:
                observe(rec.counters, args, result)
            return result

        return traced

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters)}

    def write(self, path: str) -> None:
        """Write the kept spans as JSON lines (one object per span)."""
        with open(path, "w") as fh:
            for span_id, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def _bump(counters: Dict[str, float], key: str, by: float = 1) -> None:
    counters[key] = counters.get(key, 0) + by


def _observe_lookup(counters, args, result) -> None:
    _bump(counters, "ssl.session_cache.lookup.hits", result is not None)


def _observe_affinity(counters, args, result) -> None:
    from repro.protocols import get_protocol
    request = args[0]
    if request.resumed and get_protocol(request.protocol).resumable:
        _bump(counters, "farm.scheduler.affinity_probe.attempts")
        _bump(counters, "farm.scheduler.affinity_probe.useful",
              result is not None)


def _observe_backlog(counters, args, result) -> None:
    _bump(counters, "farm.scheduler.backlog_scan.queued_items",
          len(args[0].queue))


class Instrumentation:
    """Installs and removes the layer wrappers around one recorder."""

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    # -- patching primitives ---------------------------------------------

    def function(self, module, attr: str, layer: str,
                 observe: Optional[Observer] = None) -> None:
        """Wrap ``module.attr`` and every other binding of the same
        function object in the loaded ``repro`` modules."""
        original = getattr(module, attr)
        wrapped = self.recorder.wrap(layer, original, observe)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapped)
                    self._undo.append((mod, name, original))

    def method(self, cls, attr: str, layer: str,
               observe: Optional[Observer] = None) -> None:
        """Wrap a method where ``cls`` defines it (plain, static or
        class method)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (staticmethod, classmethod)):
            wrapped = type(raw)(self.recorder.wrap(layer, raw.__func__,
                                                   observe))
        else:
            wrapped = self.recorder.wrap(layer, raw, observe)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, raw))

    def _machine_run(self, cls) -> None:
        """``Machine.run`` plus the instructions and cycles it retired."""
        raw = cls.__dict__["run"]
        recorder = self.recorder

        def run(machine, *args, **kwargs):
            cycles = machine.cycles
            try:
                return raw(machine, *args, **kwargs)
            finally:
                _bump(recorder.counters, "isa.instructions",
                      machine.instret)
                _bump(recorder.counters, "isa.cycles",
                      machine.cycles - cycles)

        setattr(cls, "run", self.recorder.wrap("isa.machine.run", run))
        self._undo.append((cls, "run", raw))

    # -- the layer map ----------------------------------------------------

    def install(self) -> None:
        # Load every module that binds a wrapped function before the
        # bindings are scanned.
        for name in ("repro.farm", "repro.explore", "repro.isa.compile",
                     "repro.isa.kernels.modexp_kernel", "repro.platform"):
            import_module(name)
        mod = sys.modules.__getitem__
        from repro.costs import PlatformCosts
        from repro.crypto.ec import Point
        from repro.crypto.modexp import ModExpEngine
        from repro.crypto.modmul import MODMUL_ALGORITHMS
        from repro.explore.explorer import AlgorithmExplorer
        from repro.farm.events import EVENT_QUEUES
        from repro.farm.scheduler import SCHEDULERS, Scheduler
        from repro.farm.simulator import Core, FarmSimulator
        from repro.isa.machine import Machine
        from repro.macromodel.estimator import CycleLedger
        from repro.macromodel.regression import FitResult
        from repro.protocols import get_protocol, protocol_names
        from repro.ssl.session_cache import SessionCache

        fn, meth = self.function, self.method
        fn(mod("repro.crypto.sha1"), "sha1", "crypto.sha1")
        for cls in {type(get_protocol(p)) for p in protocol_names()}:
            if "cache_key" in cls.__dict__:
                meth(cls, "cache_key", "protocols.cache_key")
        meth(SessionCache, "store_entry", "ssl.session_cache.store_entry")
        meth(SessionCache, "lookup", "ssl.session_cache.lookup",
             _observe_lookup)
        meth(SessionCache, "__contains__", "ssl.session_cache.contains")
        meth(Scheduler, "_affine_core", "farm.scheduler.affinity_probe",
             _observe_affinity)
        for cls in SCHEDULERS.values():
            meth(cls, "select", "farm.scheduler.select")
        meth(Core, "backlog_cycles", "farm.scheduler.backlog_scan",
             _observe_backlog)
        for cls in set(EVENT_QUEUES.values()):
            meth(cls, "push", "farm.events.push")
            meth(cls, "pop", "farm.events.pop")
        meth(FarmSimulator, "run", "farm.simulator.run")
        fn(mod("repro.farm.workload"), "cost_of", "protocols.request_cost")
        fn(mod("repro.farm.workload"), "generate_requests",
           "farm.workload.generate_requests")
        fn(mod("repro.farm.metrics"), "summarize", "farm.metrics.summarize")
        meth(CycleLedger, "__call__", "macromodel.ledger")
        meth(FitResult, "predict", "macromodel.predict")
        fn(mod("repro.mp.hooks"), "trace", "mp.hooks.trace")
        for routine in ("mul_basecase", "sqr", "divrem", "addmul_1"):
            fn(mod("repro.mp.mpn"), routine, f"mp.mpn.{routine}")
        meth(ModExpEngine, "powm", "crypto.modexp.powm")
        for cls in set(MODMUL_ALGORITHMS.values()):
            if "mul" in cls.__dict__:
                meth(cls, "mul", "crypto.modmul.mul")
        meth(Point, "scalar_mul", "crypto.ec.scalar_mul")
        meth(AlgorithmExplorer, "evaluate", "explore.evaluate")
        fn(mod("repro.macromodel.characterize"), "characterize_platform",
           "macromodel.characterize")
        meth(PlatformCosts, "measure", "costs.measure")
        self._machine_run(Machine)
        fn(mod("repro.isa.compile"), "compile_program", "isa.compile")
        fn(mod("repro.isa.assembler"), "assemble", "isa.assemble")

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
