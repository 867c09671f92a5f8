"""Outside-in span recorder for the traced run.

The recorder wraps public entry points of the package, in the benchmark
process only, and attributes every wrapped call to a layer.  It keeps a
stack of open spans; when a span closes, its duration minus the time its
child spans covered is added to its layer's self time.  The self times of
all spans of one operation therefore add up to the operation's root span.

Counts are taken at the same boundaries: handler calls made directly by
``Network.step`` are node-rounds, the inbox sizes they receive are
deliveries, and a step whose node-rounds all returned nothing is a silent
round.

Spans of the first traced operation are kept in memory, up to a cap, and
written as Chrome ``trace_event`` JSON when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Tuple

#: Layer of the root span of a serial operation.
RUNNER = "analysis.runner"
NETWORK = "sim.network"

#: Hook methods wrapped on fault injectors and on monitors.
INJECTOR_HOOKS = ("begin_round", "on_broadcast", "on_transmit", "arrange_inbox", "end_round")
MONITOR_HOOKS = ("after_round", "finalize")

#: Handler layers, by the package that defines the handler class.
HANDLER_LAYERS = {
    "repro.core": "core",
    "repro.baselines": "baselines",
    "repro.resilience": "resilience.transport",
    "repro.integrity": "integrity",
    "repro.sim": "sim.node",
}


class SpanRecorder:
    """Stack-based span timing with per-layer self time.

    ``clock`` is injectable so self-time arithmetic can be tested on
    synthetic timestamps.  ``keep`` caps the spans retained for output.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter, keep: int = 0):
        self.clock = clock
        self.keep = keep
        self.spans: List[Tuple[str, float, float, int]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: List[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, self.clock(), 0.0])

    def exit(self) -> float:
        layer, start, children = self._stack.pop()
        end = self.clock()
        duration = end - start
        self.self_s[layer] += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < self.keep:
            self.spans.append((layer, start, end, len(self._stack)))
        return duration

    @property
    def parent(self):
        return self._stack[-1][0] if self._stack else None

    def reset(self) -> None:
        """Start a new operation's accounting (retained spans stay)."""
        if self._stack:
            raise RuntimeError("reset with open spans")
        self.self_s.clear()
        self.counts.clear()

    def span(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return wrapper

    def write_chrome(self, path: str) -> None:
        """Write the retained spans as Chrome ``trace_event`` JSON."""
        events = [
            {
                "name": layer,
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 0,
                "tid": 0,
                "args": {"depth": depth},
            }
            for layer, start, end, depth in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events}, fh)


def _subclasses(cls) -> List[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _handler_layer(cls) -> str:
    for prefix, layer in HANDLER_LAYERS.items():
        if cls.__module__.startswith(prefix):
            return layer
    return cls.__module__


class Instrumentation:
    """Installs and removes the recorder's wrappers on the package.

    Wrapped entry points: ``run_protocol``, ``assert_model``,
    ``Network.step`` / ``Network.run``, every handler's ``on_round`` /
    ``wants_to_stop``, every fault injector's hooks, every monitor's
    ``after_round`` / ``finalize``, and the ``ProtocolParams.cd``
    property (counted, not timed).
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[object, str, object]] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._plan()

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, value))

    def _plan(self) -> None:
        # Import every module whose classes are wrapped, so the subclass
        # walk below sees them.
        import repro.baselines.bruteforce  # noqa: F401
        import repro.core.algorithm1  # noqa: F401
        import repro.integrity.frames  # noqa: F401
        import repro.resilience.transport  # noqa: F401
        from repro.analysis import runner
        from repro.core.params import ProtocolParams
        from repro.sim import validation
        from repro.sim.faults import FaultInjector
        from repro.sim.monitors import Monitor
        from repro.sim.network import Network
        from repro.sim.node import NodeHandler

        rec = self.recorder
        self._patch(runner, "run_protocol", rec.span(RUNNER, runner.run_protocol))
        self._patch(
            validation,
            "assert_model",
            rec.span("sim.validation", validation.assert_model),
        )
        self._patch(Network, "run", rec.span(NETWORK, Network.run))
        self._patch(Network, "step", self._step(Network.step))
        for cls in _subclasses(NodeHandler):
            layer = _handler_layer(cls)
            if "on_round" in cls.__dict__:
                self._patch(cls, "on_round", self._on_round(layer, cls.on_round))
            if "wants_to_stop" in cls.__dict__:
                self._patch(
                    cls, "wants_to_stop", self._stop(layer, cls.wants_to_stop)
                )
        for base, layer, hooks in (
            (FaultInjector, "sim.faults", INJECTOR_HOOKS),
            (Monitor, "sim.monitors", MONITOR_HOOKS),
        ):
            for cls in [base] + _subclasses(base):
                for hook in hooks:
                    if hook in cls.__dict__:
                        self._patch(
                            cls, hook, self._counted(layer, getattr(cls, hook))
                        )
        self._patch(ProtocolParams, "cd", self._count_property(ProtocolParams.cd))

    # -- wrappers ----------------------------------------------------- #

    def _step(self, fn):
        rec = self.recorder
        counts = rec.counts

        @functools.wraps(fn)
        def step(network):
            sending = counts["sending"]
            rec.enter(NETWORK)
            try:
                return fn(network)
            finally:
                rec.exit()
                if counts["sending"] == sending:
                    counts["silent_rounds"] += 1

        return step

    def _on_round(self, layer: str, fn):
        rec = self.recorder
        counts = rec.counts

        @functools.wraps(fn)
        def on_round(handler, rnd, inbox):
            top = rec.parent == NETWORK
            rec.enter(layer)
            try:
                parts = fn(handler, rnd, inbox)
            finally:
                rec.exit()
            if top:
                counts["node_rounds"] += 1
                counts["deliveries"] += len(inbox)
                if parts:
                    counts["sending"] += 1
            return parts

        return on_round

    def _stop(self, layer: str, fn):
        rec = self.recorder
        counts = rec.counts

        @functools.wraps(fn)
        def wants_to_stop(handler):
            # Only the round loop's scan counts; monitors and wrapping
            # handlers ask too.
            if rec.parent == NETWORK:
                counts["stop_checks"] += 1
            rec.enter(layer)
            try:
                return fn(handler)
            finally:
                rec.exit()

        return wants_to_stop

    def _counted(self, layer: str, fn):
        rec = self.recorder
        counts = rec.counts
        key = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def hook(*args, **kwargs):
            counts[key] += 1
            rec.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                rec.exit()

        return hook

    def _count_property(self, prop: property) -> property:
        counts = self.recorder.counts
        getter = prop.fget

        def read(obj):
            counts["cd_reads"] += 1
            return getter(obj)

        return property(read, doc=prop.__doc__)

    # -- install / remove --------------------------------------------- #

    def __enter__(self) -> "Instrumentation":
        for owner, name, value in self._patches:
            self._saved.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)
