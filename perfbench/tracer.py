"""Layer tracer for the traced benchmark run, installed from outside.

Nothing under ``src/`` knows about it.  :meth:`Tracer.install` wraps the
program's public entry points in place:

* ``EventQueue.push``/``push_fire`` hand the queue a timed wrapper of
  every callback, attributed to the layer of the module that defines
  the callback (a ``PeriodicTask`` firing is attributed to its action);
* ``Simulator.run_until`` is the engine's own span;
* the entry points that nest inside callbacks — ``CsmaMac.send``,
  ``BroadcastMedium.transmit``, ``TypeBus.receive_subscribed``,
  ``AdaptiveTransmitter.on_sample``, the ``VectorPlantKernel`` steps,
  the psychrometric functions, the decision laws every
  ``ControlPolicy`` builds, board reports, the AC schedule adapter,
  the lockstep batch hooks and the bake-off's spec/merge/render calls —
  get spans of their own.

A span's self time is its duration minus its child spans.  Spans are
aggregated in memory as they close — per layer, and per (parent layer,
layer) edge so the causal structure survives — and read out once the
run ends.  Per-system counters are harvested from public state when
``BubbleZero.finalize`` returns; that harvest is excluded from every
span and from the traced wall.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# Module prefix -> layer; the first match wins, so longer prefixes
# come first.  Modules matching nothing count as unattributed.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.net.mac", "mac"),
    ("repro.net.medium", "medium"),
    ("repro.net.broadcast", "bus"),
    ("repro.net.adaptive", "btadpt"),
    ("repro.net.histogram", "btadpt"),
    ("repro.net.schedule", "schedule"),
    ("repro.sim", "engine"),
    ("repro.devices", "devices"),
    ("repro.control", "control"),
    ("repro.physics", "physics"),
    ("repro.core", "core"),
    ("repro.hydronics", "core"),
    ("repro.airside", "core"),
    ("repro.runtime.lockstep", "lockstep"),
)

#: Layers that have a ``<layer>.self_s`` metric.  Time in any other
#: layer is what ``trace.unattributed_pct`` reports.
NAMED_LAYERS = ("engine", "mac", "medium", "bus", "btadpt", "schedule",
                "devices", "control", "physics", "core", "lockstep",
                "study.specs", "study.merge")

UNATTRIBUTED = "other"


def layer_for_module(module: str) -> str:
    for prefix, layer in LAYER_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return UNATTRIBUTED


class Tracer:
    """Span stack, per-layer self time and counters for one process."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.edges: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0, 0.0])
        self.counts: Dict[str, float] = defaultdict(float)
        self.tsnd: List[float] = []
        self.excluded_s = 0.0
        self._stack: List[list] = []
        self._fn_layer: Dict[object, str] = {}

    def reset(self) -> None:
        """Forget every span and counter recorded so far (in place:
        installed wrappers hold references to these containers)."""
        for container in (self.self_s, self.edges, self.counts, self.tsnd):
            container.clear()
        self.excluded_s = 0.0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, layer: str, fn: Callable, args=(), kwargs=None):
        stack = self._stack
        frame = [layer, 0.0]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            self.self_s[layer] += dt - frame[1]
            parent = stack[-1] if stack else None
            if parent is not None:
                parent[1] += dt
            edge = self.edges[(parent[0] if parent else "-", layer)]
            edge[0] += 1
            edge[1] += dt

    def _spanned(self, layer: str, fn: Callable, count: str = "",
                 on_call: Callable = None) -> Callable:
        span = self.span
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                counts[count] += 1
            if on_call is not None:
                on_call(args)
            return span(layer, fn, args, kwargs)
        return wrapper

    def callback_layer(self, callback) -> str:
        """Layer of the module defining ``callback``."""
        from repro.sim.process import PeriodicTask

        while isinstance(callback, functools.partial):
            callback = callback.func
        owner = getattr(callback, "__self__", None)
        if isinstance(owner, PeriodicTask):
            callback = owner._action
            while isinstance(callback, functools.partial):
                callback = callback.func
        fn = getattr(callback, "__func__", callback)
        layer = self._fn_layer.get(fn)
        if layer is None:
            module = (getattr(fn, "__module__", None)
                      or type(owner).__module__)
            layer = self._fn_layer[fn] = layer_for_module(module)
        return layer

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def wrap_method(self, cls, name: str, layer: str, count: str = "",
                    on_call: Callable = None) -> None:
        setattr(cls, name, self._spanned(layer, cls.__dict__[name],
                                         count, on_call))

    def wrap_function(self, module, name: str, layer: str,
                      count: str = "") -> None:
        """Wrap a module-level function wherever a ``repro`` module has
        bound it, including ``from ... import`` copies."""
        original = getattr(module, name)
        wrapper = self._spanned(layer, original, count)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced entry point, for the rest of the process;
        call before building any system."""
        from repro.control.policy import build_policy, controller_names
        from repro.core.system import BubbleZero
        from repro.devices import boards
        from repro.net.adaptive import AdaptiveTransmitter
        from repro.net.broadcast import TypeBus
        from repro.net.mac import CsmaMac
        from repro.net.medium import BroadcastMedium
        from repro.net.schedule import AcScheduleAdapter
        from repro.physics import psychrometrics
        from repro.physics.vector import VectorPlantKernel
        from repro.runtime.lockstep import LockstepBatch
        from repro.sim.engine import EventQueue, Simulator
        from repro.workloads import bakeoff
        from repro.analysis import bakeoff as bakeoff_scoring

        self._install_queue(EventQueue)
        self.wrap_method(Simulator, "run_until", "engine")
        self.wrap_method(CsmaMac, "send", "mac")
        self.wrap_method(BroadcastMedium, "transmit", "medium")
        self.wrap_method(TypeBus, "receive_subscribed", "bus",
                         count="bus.receives")
        self.wrap_method(AdaptiveTransmitter, "on_sample", "btadpt",
                         count="btadpt.samples")
        for name in ("observe_busy", "next_send_time", "on_sent"):
            self.wrap_method(AcScheduleAdapter, name, "schedule",
                             count="schedule.calls")
        self.wrap_method(VectorPlantKernel, "step", "physics",
                         on_call=self._on_kernel_step)
        self.wrap_method(VectorPlantKernel, "macro_step", "physics",
                         on_call=self._on_kernel_macro_step)
        for name in sorted(vars(psychrometrics)):
            fn = getattr(psychrometrics, name)
            if (isinstance(fn, types.FunctionType)
                    and fn.__module__ == psychrometrics.__name__
                    and not name.startswith(("_", "cache_", "configure_"))):
                self.wrap_function(psychrometrics, name, "physics")
        for cls in vars(boards).values():
            if (isinstance(cls, type) and issubclass(cls, boards.Board)
                    and "report" in cls.__dict__):
                self.wrap_method(cls, "report", "devices",
                                 count="devices.reports")
        for name in ("on_gap", "on_control", "on_record"):
            self.wrap_method(LockstepBatch, name, "lockstep")
        for controller in controller_names():
            policy_cls = type(build_policy(controller))
            for name in ("radiant_law", "ventilation_law"):
                if name in policy_cls.__dict__:
                    setattr(policy_cls, name, self._law_builder(
                        policy_cls.__dict__[name]))
        self.wrap_function(bakeoff, "bakeoff_specs", "study.specs")
        self.wrap_function(bakeoff, "merge_bakeoff", "study.merge")
        self.wrap_function(bakeoff_scoring, "render_bakeoff_report",
                           "study.merge")
        self.wrap_function(bakeoff_scoring, "export_bakeoff_json",
                           "study.merge")
        BubbleZero.finalize = self._harvesting(
            BubbleZero.__dict__["finalize"])

    def _install_queue(self, queue_cls) -> None:
        push = queue_cls.__dict__["push"]
        push_fire = queue_cls.__dict__["push_fire"]
        layer_of = self.callback_layer
        span = self.span

        def timed(callback):
            layer = layer_of(callback)
            return lambda: span(layer, callback)

        def traced_push(queue, time, priority, callback, name=""):
            return push(queue, time, priority, timed(callback), name)

        def traced_push_fire(queue, time, priority, callback, name=""):
            return push_fire(queue, time, priority, timed(callback), name)

        queue_cls.push = traced_push
        queue_cls.push_fire = traced_push_fire

    def _law_builder(self, build: Callable) -> Callable:
        """Wrap a ``ControlPolicy`` law builder so the ``step`` of every
        law type it returns is spanned (once per type)."""
        tracer = self

        @functools.wraps(build)
        def wrapper(*args, **kwargs):
            law = build(*args, **kwargs)
            cls = type(law)
            if not getattr(cls.step, "_perfbench_traced", False):
                step = tracer._spanned("control", cls.step,
                                       count="control.steps")
                step._perfbench_traced = True
                cls.step = step
            return law
        return wrapper

    def _on_kernel_step(self, args) -> None:
        self._on_kernel(args[0], 1, args[2])

    def _on_kernel_macro_step(self, args) -> None:
        self._on_kernel(args[0], args[2], args[3])

    def _on_kernel(self, kernel, ticks: int, dt: float) -> None:
        counts = self.counts
        counts["physics.kernel_calls"] += 1
        counts["physics.kernel_sim_s"] += ticks * dt
        counts["physics.zone_ticks"] += (ticks
                                          * kernel.plant.topology.zone_count)

    # ------------------------------------------------------------------
    # Harvest
    # ------------------------------------------------------------------
    def _harvesting(self, finalize: Callable) -> Callable:
        tracer = self

        @functools.wraps(finalize)
        def wrapper(system):
            finalize(system)
            t0 = time.perf_counter()
            tracer.harvest(system)
            dt = time.perf_counter() - t0
            tracer.excluded_s += dt
            if tracer._stack:
                tracer._stack[-1][1] += dt
        return wrapper

    def harvest(self, system) -> None:
        """Fold one finished system's public counters into the totals."""
        counts = self.counts
        counts["engine.events"] += system.sim.events_dispatched
        if system.medium is not None:
            counts["medium.frames"] += system.medium.total_transmissions
            counts["medium.collisions"] += system.medium.total_collisions
        if system.sniffer is not None:
            counts["medium.deliveries"] += sum(
                record.receivers_reached
                for record in system.sniffer.records)
        motes = ([node.mote for node in system.bt_nodes]
                 + [board.mote for board in system.boards])
        for mote in motes:
            stats = mote.mac.stats
            counts["mac.enqueued"] += stats.enqueued
            counts["mac.sent"] += stats.sent
            counts["mac.dropped"] += stats.dropped
            counts["mac.backoffs"] += stats.backoffs
            counts["mac.cca_failures"] += stats.cca_failures
            counts["mac.access_delay_s"] += stats.total_access_delay_s
        for node in system.bt_nodes:
            counts["btadpt.sends"] += node.sends
            self.tsnd.append(node.send_period_s)

    def snapshot(self) -> Dict[str, object]:
        """Everything the run recorded, JSON-safe."""
        from repro.physics import psychrometrics, spectral

        psychro = psychrometrics.cache_stats().values()
        hits = sum(entry["hits"] for entry in psychro)
        lookups = hits + sum(entry["misses"] for entry in psychro)
        return {
            "self_s": dict(self.self_s),
            "edges": [[parent, child, calls, seconds]
                      for (parent, child), (calls, seconds)
                      in sorted(self.edges.items())],
            "counts": dict(self.counts),
            "mean_tsnd_s": (sum(self.tsnd) / len(self.tsnd)
                            if self.tsnd else 0.0),
            "psychro_hit_rate": hits / lookups if lookups else 0.0,
            "spectral_hit_rate": spectral.cache_stats()["hit_rate"],
            "excluded_s": self.excluded_s,
        }
