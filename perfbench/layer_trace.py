"""Outside-in per-layer host-time split of simulator runs.

:class:`LayerTracer` measures where the host time of ``GpuSystem.run``
goes without touching the simulator's source.  It installs instance
shadows on one built system and removes them afterwards:

* the engine's ``schedule``/``schedule_at``/``schedule_daemon`` (the
  surface :mod:`repro.obs.flame` also hooks), so every scheduled
  callback runs inside a span named after the layer of the module that
  defines the callback's owner.  Closures count toward their defining
  module, so ``core.cachecraft`` and every ``protection.*`` module fold
  into ``protection``;
* the public cross-layer methods: ``Crossbar.send_request`` /
  ``send_response``, the L2 slices' ``receive_*`` / ``install_sectors``
  / ``resident_mask`` / ``flush``, the scheme's ``fetch`` /
  ``writeback`` / ``drain``, every channel's ``enqueue`` and the event
  SMs' ``start``;
* the registry's gauges (by a class swap, because they use
  ``__slots__``) and histograms (by an instance shadow).

Two boundaries stay unwrapped.  The MSHR files are only called from
inside their owner's spans, so a span there would move no time between
layers.  ``Counter.add`` runs over a million times per bfs cell; a span
around it nearly doubled the traced run and billed the timer cost to
the SM, so counter updates stay in their caller's self time.

Each wrapper still makes exactly one queue entry per scheduled
callback and calls the original once, so every simulated counter stays
bit-identical (the benchmark checks this on every traced cell).

A span's *self time* is its duration minus the durations of the spans
it encloses.  The root span is the traced ``run`` itself, named after
the tier's run loop (``sim.engine`` on the event tier, ``sim.functional``
on the functional tier).  Self times telescope, so the layers' self
times add up to the traced wall time exactly, in integer nanoseconds.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.dram.channel import MemoryChannel
from repro.sim.stats import Gauge, Histogram

_now = time.perf_counter_ns

#: Layer names reported by the benchmark, in display order.
LAYERS = ("sim.engine", "sim.functional", "gpu.sm", "gpu.crossbar",
          "gpu.l2slice", "protection", "dram.channel", "sim.stats", "other")

#: Module prefix -> layer.  The first matching prefix wins; modules
#: that match none are billed to ``other``.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.functional", "sim.functional"),
    ("repro.sim.stats", "sim.stats"),
    ("repro.gpu.sm", "gpu.sm"),
    ("repro.gpu.coalescer", "gpu.sm"),
    ("repro.gpu.crossbar", "gpu.crossbar"),
    ("repro.gpu.l2slice", "gpu.l2slice"),
    ("repro.cache", "gpu.l2slice"),
    ("repro.protection", "protection"),
    ("repro.core.cachecraft", "protection"),
    ("repro.ecc", "protection"),
    ("repro.dram", "dram.channel"),
)

#: The functional tier's stand-ins live in ``repro.sim.functional`` but
#: play the channel and SM roles.
CLASS_LAYERS = {"FunctionalChannel": "dram.channel",
                "FunctionalSm": "gpu.sm"}

_L2_METHODS = ("receive_load", "receive_store", "receive_atomic",
               "install_sectors", "resident_mask", "flush")
_SCHEME_METHODS = ("fetch", "writeback", "drain")
_SCHEDULE_METHODS = ("schedule", "schedule_at", "schedule_daemon")


def module_layer(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class LayerTracer:
    """Accumulates per-layer self time and call counts over traced runs.

    Lifecycle per system: build it, :meth:`attach`, :meth:`run`,
    :meth:`detach`.  One tracer may trace many systems in turn; its
    totals accumulate.
    """

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: Named work counts taken at the wrapped boundaries.
        self.counts: Dict[str, int] = {
            "dram.channel.ticks": 0, "dram.channel.requests": 0,
            "gpu.crossbar.packets": 0}
        #: Traced ``run`` wall time (sum over traced runs).
        self.wall_ns = 0
        self._child = 0
        self._undo: List[Callable[[], None]] = []
        self._layer_cache: Dict[Any, Tuple[str, bool]] = {}
        self._runners = {layer: self._make_runner(layer, None)
                         for layer in LAYERS}
        self._tick_runner = self._make_runner("dram.channel",
                                              "dram.channel.ticks")
        self._traced_gauge = self._traced_subclass(Gauge, "set", "adjust")

    # -- spans ---------------------------------------------------------------

    def _make_runner(self, layer: str, count_key):
        """A callable running ``fn(*args)`` inside a span of ``layer``."""
        self_ns = self.self_ns
        calls = self.calls
        counts = self.counts

        def runner(fn, args, kwargs=None):
            saved = self._child
            self._child = 0
            t0 = _now()
            try:
                return fn(*args, **kwargs) if kwargs else fn(*args)
            finally:
                dt = _now() - t0
                self_ns[layer] += dt - self._child
                calls[layer] += 1
                if count_key is not None:
                    counts[count_key] += 1
                self._child = saved + dt
        return runner

    def _traced_subclass(self, base: type, *methods: str) -> type:
        """A layout-compatible subclass of a ``__slots__`` stat class
        whose update methods run inside ``sim.stats`` spans."""
        runner = self._runners["sim.stats"]
        ns: Dict[str, Any] = {"__slots__": ()}
        for name in methods:
            orig = getattr(base, name)

            def traced(stat, *args, _orig=orig):
                return runner(_orig, (stat,) + args)
            ns[name] = traced
        return type(f"Traced{base.__name__}", (base,), ns)

    # -- callback naming -----------------------------------------------------

    def _classify(self, fn) -> Tuple[str, bool]:
        """(layer, is_dram_tick) for a scheduled callable."""
        if isinstance(fn, functools.partial):
            return self._classify(fn.func)
        owner = getattr(fn, "__self__", None)
        if owner is not None:
            key = (type(owner), getattr(fn, "__name__", None))
        else:
            key = getattr(fn, "__code__", None) or type(fn)
        hit = self._layer_cache.get(key)
        if hit is not None:
            return hit
        if owner is not None:
            cls = type(owner)
            layer = CLASS_LAYERS.get(cls.__name__) \
                or module_layer(cls.__module__)
            is_tick = (isinstance(owner, MemoryChannel)
                       and getattr(fn, "__name__", "") == "_tick")
        else:
            layer = module_layer(getattr(fn, "__module__", "") or "")
            is_tick = False
        self._layer_cache[key] = (layer, is_tick)
        return layer, is_tick

    # -- attach / detach -----------------------------------------------------

    def _shadow(self, obj: Any, name: str, new: Any) -> None:
        had = name in obj.__dict__
        old = obj.__dict__.get(name)

        def undo() -> None:
            if had:
                setattr(obj, name, old)
            else:
                obj.__dict__.pop(name, None)
        setattr(obj, name, new)
        self._undo.append(undo)

    def _wrap_method(self, obj: Any, name: str, layer: str,
                     count_key=None) -> None:
        orig = getattr(obj, name)
        runner = self._runners[layer] if count_key is None \
            else self._make_runner(layer, count_key)

        def wrapper(*args, **kwargs):
            return runner(orig, args, kwargs)
        self._shadow(obj, name, wrapper)

    def _wrap_schedule(self, sim: Any) -> None:
        runners = self._runners
        tick_runner = self._tick_runner
        classify = self._classify

        for name in _SCHEDULE_METHODS:
            orig = getattr(sim, name, None)
            if orig is None:
                continue

            def schedule(delay, fn, *args, _orig=orig):
                layer, is_tick = classify(fn)
                _orig(delay, tick_runner if is_tick else runners[layer],
                      fn, args)
            self._shadow(sim, name, schedule)

    def _wrap_stats(self, system: Any) -> None:
        for _path, stat in system.stats.walk():
            if type(stat) is Gauge:
                stat.__class__ = self._traced_gauge
                self._undo.append(
                    lambda s=stat: setattr(s, "__class__", Gauge))
            elif type(stat) is Histogram:
                self._wrap_method(stat, "record", "sim.stats")

    def attach(self, system: Any) -> None:
        """Shadow the scheduling surface and cross-layer entry points
        of one built (not yet run) ``GpuSystem``."""
        if self._undo:
            raise RuntimeError("LayerTracer is attached; detach() first")
        self._wrap_schedule(system.sim)
        if system.crossbar is not None:
            for name in ("send_request", "send_response"):
                self._wrap_method(system.crossbar, name, "gpu.crossbar",
                                  "gpu.crossbar.packets")
        for sl in system.slices:
            for name in _L2_METHODS:
                self._wrap_method(sl, name, "gpu.l2slice")
        for name in _SCHEME_METHODS:
            self._wrap_method(system.scheme, name, "protection")
        for channel in system.channels:
            self._wrap_method(channel, "enqueue", "dram.channel",
                              "dram.channel.requests")
        for sm in system.sms:
            if hasattr(sm, "start"):
                self._wrap_method(sm, "start", "gpu.sm")
        self._wrap_stats(system)

    def detach(self) -> None:
        """Remove every shadow (in reverse order of installation)."""
        while self._undo:
            self._undo.pop()()

    # -- running -------------------------------------------------------------

    def run(self, system: Any, run_fn: Callable[..., int], *args: Any,
            **kwargs: Any) -> int:
        """Call ``run_fn(system, *args, **kwargs)`` (an unbound
        ``GpuSystem.run``) as the root span; returns its result."""
        root = ("sim.functional" if system.config.fidelity == "functional"
                else "sim.engine")
        self._child = 0
        t0 = _now()
        try:
            return run_fn(system, *args, **kwargs)
        finally:
            dt = _now() - t0
            self.self_ns[root] += dt - self._child
            self.calls[root] += 1
            self.wall_ns += dt
            self._child = 0

    def trace(self, system: Any, run_fn: Callable[..., int], *args: Any,
              **kwargs: Any) -> int:
        """attach + run + detach."""
        self.attach(system)
        try:
            return self.run(system, run_fn, *args, **kwargs)
        finally:
            self.detach()
