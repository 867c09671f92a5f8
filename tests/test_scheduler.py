"""The event-driven round scheduler: byte-identical to the every-round loop.

``Network.step`` calls a handler only when something was delivered to it
or when its ``next_wake`` declared the round.  The base ``next_wake``
declares every round, so patching every override back to it reproduces
the plain every-node loop; the properties below run each configuration
both ways and demand identical results, ``SimStats``, tracer event
streams and recorder digests.
"""

import dataclasses
import random
from contextlib import contextmanager

import pytest

from repro.adversary import FailureSchedule, random_failures
from repro.analysis import make_inputs, run_protocol
from repro.core.agg import AggNode, run_agg
from repro.graphs import grid_graph, path_graph, random_regular
from repro.sim.faults import FaultInjector, MessageFaults
from repro.sim.network import Network
from repro.sim.node import NodeHandler
from repro.sim.recorder import RecordingInjector
from repro.sim.trace import Tracer


def _handler_classes():
    out, todo = [], [NodeHandler]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


@contextmanager
def every_round():
    """Patch every ``next_wake`` override back to the base default."""
    import repro.baselines.bruteforce  # noqa: F401  (register subclasses)
    import repro.core.unknown_f  # noqa: F401

    saved = [
        (cls, cls.__dict__["next_wake"])
        for cls in _handler_classes()
        if "next_wake" in cls.__dict__
    ]
    assert saved, "no handler declares its own wake slots"
    try:
        for cls, _ in saved:
            cls.next_wake = NodeHandler.next_wake
        yield
    finally:
        for cls, fn in saved:
            cls.next_wake = fn


class Tap(FaultInjector):
    """Attaches one tracer to every network of a run and keeps them."""

    def __init__(self) -> None:
        super().__init__()
        self.tracer = Tracer()
        self.networks = []

    def attach(self, network) -> None:
        super().attach(network)
        network.tracer = self.tracer
        self.networks.append(network)


def _observe(protocol, topology, seed, f, faults, strict, record, **extra):
    rng = random.Random(seed)
    inputs = make_inputs(topology, rng)
    b = 42
    schedule = random_failures(
        topology, f, rng, first_round=1,
        last_round=b * topology.diameter, respect_c=2,
    ) if f else None
    tap = Tap()
    inner = [tap]
    if faults:
        inner.append(MessageFaults(drop=0.05, duplicate=0.05, seed=seed))
    recorder = RecordingInjector(inner) if record else None
    kwargs = {"f": max(1, f), "b": b} if protocol == "algorithm1" else {}
    if protocol == "agg_veri":
        kwargs = {"t": 1}
    try:
        out = run_protocol(
            protocol, topology, inputs, schedule=schedule, rng=rng,
            injectors=[recorder] if recorder else inner,
            strict=False, strict_monitors=strict, **kwargs, **extra,
        )
        outcome = out.as_dict()
    except Exception as exc:  # strict monitors may trip; compare that too
        outcome = {"error": f"{type(exc).__name__}: {exc}"}
    trace = tap.tracer
    return {
        "outcome": outcome,
        "stats": [dataclasses.asdict(n.stats) for n in tap.networks],
        "sends": trace.sends,
        "deliveries": trace.deliveries,
        "crashes": trace.crashes,
        "digests": recorder.digests_jsonable() if recorder else None,
        "transmits": recorder.transmits if recorder else None,
    }


def _assert_equivalent(*args, **extra):
    fast = _observe(*args, **extra)
    with every_round():
        slow = _observe(*args, **extra)
    for key in fast:
        assert fast[key] == slow[key], key


PROTOCOLS = ("algorithm1", "unknown_f", "agg_veri", "bruteforce")


class TestEquivalence:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_grid_with_crashes(self, protocol):
        _assert_equivalent(
            protocol, grid_graph(4, 4), 3, 6, False, False, False
        )

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_faulty_delivery_strict_monitors_recorded(self, protocol):
        _assert_equivalent(protocol, grid_graph(3, 4), 5, 3, True, True, True)

    @pytest.mark.parametrize("protocol", ["algorithm1", "unknown_f"])
    def test_churn_blip(self, protocol):
        # Under churn the protocol rides the epoch manager's transport, so
        # a revived node's wrapper must run again in its revival round.
        _assert_equivalent(
            protocol, grid_graph(3, 3), 7, 0, False, True, False,
            churn="5:crash@r3,5:revive@r6",
        )

    def test_random_regular(self):
        topo = random_regular(12, 3, random.Random(4))
        _assert_equivalent("algorithm1", topo, 1, 6, False, True, True)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover
    given = None


if given is not None:

    @st.composite
    def _topologies(draw):
        if draw(st.booleans()):
            return grid_graph(draw(st.integers(2, 5)), draw(st.integers(2, 5)))
        n = draw(st.sampled_from([8, 10, 12, 14]))
        return random_regular(n, 3, random.Random(draw(st.integers(0, 50))))

    class TestEquivalenceProperty:
        @settings(max_examples=25, deadline=None)
        @given(
            protocol=st.sampled_from(PROTOCOLS),
            topology=_topologies(),
            seed=st.integers(0, 10_000),
            f=st.integers(0, 6),
            faults=st.booleans(),
            strict=st.booleans(),
            record=st.booleans(),
        )
        def test_slots_match_every_round(
            self, protocol, topology, seed, f, faults, strict, record
        ):
            _assert_equivalent(
                protocol, topology, seed, f, faults, strict, record
            )


class TestSlots:
    def test_silence_slot_fires_with_empty_inbox(self):
        # Path 0-1-2 rooted at 0: d = 2, c = 2, so cd = 4.  Node 1 dies
        # after its aggregation slot (round 13); in the speculative
        # flooding phase (rounds 19..27) node 2, at level 2, must notice
        # the silence of its parent in its slot l + 1, round 21, with
        # nothing delivered to it, and flood its own partial sum.
        calls = []
        original = AggNode.on_round

        def spy(self, rnd, inbox):
            calls.append((self.node_id, rnd, len(inbox)))
            return original(self, rnd, inbox)

        tap = Tap()
        AggNode.on_round = spy
        try:
            out = run_agg(
                path_graph(3), {0: 1, 1: 2, 2: 4}, t=1,
                schedule=FailureSchedule({1: 14}), injectors=[tap],
            )
        finally:
            AggNode.on_round = original
        floods = [
            e.round for e in tap.tracer.sends_by(2)
            if any(p.kind == "flooded_psum" for p in e.parts)
        ]
        assert floods == [21]
        assert (2, 21, 0) in calls
        # Node 1 forwarded node 2's sum before dying: 1 + 2 + 4.
        assert out.result == 7
        # Node 2 is not called in rounds with neither a delivery nor a slot.
        node2 = [c for c in calls if c[0] == 2]
        assert len(node2) < out.stats.rounds_executed // 2

    def test_revival_round_is_called(self):
        # A node whose only slot falls inside a bounded outage runs in its
        # revival round, where the old every-round loop would call it too.
        calls = []

        class Probe(NodeHandler):
            def on_round(self, rnd, inbox):
                calls.append(rnd)
                return []

            def next_wake(self, rnd):
                return 5 if rnd < 5 else None

        topo = path_graph(3)
        handlers = {0: _Quiet(), 1: _Quiet(), 2: Probe()}
        net = Network(topo.adjacency, handlers, root=0)
        net.schedule_downtime(2, 4, 8)
        net.run(12, stop_on_output=False)
        assert calls == [8]

    def test_crash_drops_the_timer(self):
        calls = []

        class Ticker(NodeHandler):
            def on_round(self, rnd, inbox):
                calls.append(rnd)
                return []

            def next_wake(self, rnd):
                return rnd + 1  # a timer every round, not the default

        topo = path_graph(2)
        handlers = {0: _Quiet(), 1: Ticker()}
        net = Network(topo.adjacency, handlers, {1: 3}, root=0)
        net.run(10, stop_on_output=False)
        assert calls == [1, 2]
        assert 1 not in net._wake_at

    def test_inbox_only_handler_sleeps_through_silence(self):
        calls = []

        class Sleeper(NodeHandler):
            def on_round(self, rnd, inbox):
                calls.append((rnd, len(inbox)))
                return []

            def next_wake(self, rnd):
                return None

        class Pinger(_Quiet):
            def on_round(self, rnd, inbox):
                from repro.sim.message import Part

                return [Part("ping", (rnd,), 4)] if rnd in (3, 7) else []

        topo = path_graph(2)
        net = Network(topo.adjacency, {0: Pinger(), 1: Sleeper()}, root=0)
        net.run(10, stop_on_output=False)
        assert calls == [(4, 1), (8, 1)]

    def test_wake_must_be_in_the_future(self):
        class Stuck(NodeHandler):
            def on_round(self, rnd, inbox):
                return []

            def next_wake(self, rnd):
                return rnd or 1

        topo = path_graph(2)
        net = Network(topo.adjacency, {0: _Quiet(), 1: Stuck()}, root=0)
        with pytest.raises(ValueError, match="asked to wake"):
            net.step()

    def test_stop_asks_only_called_handlers(self):
        asked = []

        class Done(NodeHandler):
            def __init__(self, name, stop_at):
                self.name, self.stop_at, self.seen = name, stop_at, 0

            def on_round(self, rnd, inbox):
                self.seen = rnd
                return []

            def next_wake(self, rnd):
                return self.stop_at if rnd < self.stop_at else None

            def wants_to_stop(self):
                asked.append(self.name)
                return self.seen == self.stop_at

        topo = path_graph(2)
        handlers = {0: Done("a", 4), 1: Done("b", 9)}
        net = Network(topo.adjacency, handlers, root=0)
        stats = net.run(20)
        assert stats.rounds_executed == 4
        assert asked == ["a"]

    def test_tracer_sees_crash_and_downtime_starts(self):
        topo = path_graph(3)
        tracer = Tracer()
        handlers = {u: _Quiet() for u in topo.adjacency}
        net = Network(topo.adjacency, handlers, {2: 3}, tracer=tracer, root=0)
        net.schedule_downtime(1, 5, 7)
        net.run(10, stop_on_output=False)
        assert [(c.round, c.node) for c in tracer.crashes] == [(3, 2), (5, 1)]


class _Quiet(NodeHandler):
    def on_round(self, rnd, inbox):
        return []

