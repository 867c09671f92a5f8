"""The benchmark's three workloads: inputs from a seed, one operation, its outputs.

Every workload is a closed loop with one client: the next operation is
issued when the previous one returns.  Operation ``i`` of a run with seed
``s`` draws its inputs from its own RNG, keyed by the workload, ``s`` and
``i``.  The first ``gate_ops`` operations are keyed by ``s % GATE_SEEDS``
instead, so every run, whatever its seed, replays one of the cases whose
output digests are checked in (``digests.json``).

Workloads only call public entry points of the package: ``graphs``,
``adversary``, ``analysis.runner``, ``sim`` and ``resilience``.  The
package is imported lazily, inside :meth:`Workload.setup`, so that import
time counts as set-up time.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

#: Seeds whose gate-case digests are checked in.
GATE_SEEDS = 64

#: Algorithm 1 parameters shared by the algorithm1 workloads.
F_BUDGET = 8
B_BUDGET = 90


@dataclass
class OpOutcome:
    """What one operation produced, as the benchmark grades and counts it."""

    #: Canonical outputs covered by the digest.
    payload: Any
    correct: bool
    node_rounds: int
    cc_bits: float
    rounds: float
    #: Per-layer counts the program reports itself (transport, integrity,
    #: injector and stats counters).
    counts: Dict[str, float] = field(default_factory=dict)


def op_rng(workload: str, seed: int, index: int, gate_ops: int) -> random.Random:
    """The RNG of operation ``index`` of a run with ``seed``."""
    if index < gate_ops:
        return random.Random(f"{workload}/gate/{seed % GATE_SEEDS}/{index}")
    return random.Random(f"{workload}/run/{seed}/{index}")


def digest(payloads: List[Any]) -> str:
    """SHA-256 of the canonical JSON of the gate operations' outputs."""
    blob = json.dumps(payloads, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class StatsCapture:
    """Keeps the :class:`SimStats` of every network an operation runs.

    ``run_protocol`` returns only the bottleneck CC; the digest also
    covers every node's protocol and overhead bits, so the benchmark
    wraps ``Network.run`` (the one call per execution that returns the
    stats) for as long as it runs.
    """

    def __init__(self) -> None:
        self.stats: List[Any] = []
        self._original: Optional[Callable] = None

    def install(self) -> None:
        from repro.sim.network import Network

        original = self._original = Network.run
        captured = self.stats

        def run(network, *args, **kwargs):
            stats = original(network, *args, **kwargs)
            captured.append(stats)
            return stats

        Network.run = run

    def uninstall(self) -> None:
        from repro.sim.network import Network

        Network.run = self._original

    def take(self) -> List[Any]:
        taken = list(self.stats)
        self.stats.clear()
        return taken


def _stats_payload(stats_list) -> List[Dict[str, Any]]:
    return [
        {
            "bits": sorted(s.bits_sent.items()),
            "overhead": sorted(s.overhead_bits.items()),
        }
        for s in stats_list
    ]


def _stats_counts(stats_list) -> Dict[str, float]:
    return {
        "sim.stats.broadcasts": sum(
            sum(s.broadcasts.values()) for s in stats_list
        ),
        "sim.stats.bits_total": sum(s.total_bits for s in stats_list),
        "sim.stats.overhead_bits": sum(
            s.total_overhead_bits for s in stats_list
        ),
    }


class Workload:
    """One workload: its inputs, its operation and how it is graded.

    Subclasses set the class attributes and implement :meth:`_build`,
    :meth:`_warm_topology`, :meth:`_make` and :meth:`execute`.
    """

    name = ""
    #: Operations issued in one balanced round of the input mix; runs end
    #: on a cycle boundary so every run has the same mix.
    cycle = 1
    #: Leading operations that are digest-gated and give the per-layer
    #: counts of a traced run.
    gate_ops = 5
    #: Operation ``i`` reuses the inputs of operation ``i % distinct``.
    distinct = 60
    #: Operation ``i`` runs on topology ``i % n_topologies``.
    n_topologies = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.capture = StatsCapture()
        self.topologies: Dict[int, Any] = {}
        self.specs: Dict[int, Any] = {}
        self.build_s = 0.0
        self.edges = 0

    # -- set-up ------------------------------------------------------- #

    def setup(self, clock: Callable[[], float]) -> None:
        """Import the package, build topologies and inputs, warm up."""
        import repro.analysis.runner  # noqa: F401
        import repro.graphs  # noqa: F401

        start = clock()
        built = [self.topology(k) for k in range(min(self.gate_ops, self.n_topologies))]
        self.build_s = clock() - start
        self.edges = sum(t.n_edges for t in built)
        for index in range(self.gate_ops):
            self.spec(index)
        self.capture.install()
        warm = self.execute(self._warm_spec())
        if not warm.correct:
            raise RuntimeError(f"{self.name}: warm-up operation was graded incorrect")

    def close(self) -> None:
        self.capture.uninstall()

    # -- operations --------------------------------------------------- #

    def topology(self, k: int) -> Any:
        """Topology ``k``, built on first use."""
        if k not in self.topologies:
            self.topologies[k] = self._build(k)
        return self.topologies[k]

    def spec(self, index: int) -> Any:
        """The inputs of operation ``index``, generated on first use."""
        key = index % self.distinct
        if key not in self.specs:
            rng = op_rng(self.name, self.seed, key, self.gate_ops)
            self.specs[key] = self._make(self.topology(key % self.n_topologies), rng)
        return self.specs[key]

    def _warm_spec(self) -> Any:
        return self._make(
            self._warm_topology(), random.Random(f"{self.name}/warm-up")
        )

    def _build(self, k: int) -> Any:
        """Topology ``k`` of the workload."""
        raise NotImplementedError

    def _warm_topology(self) -> Any:
        """A small topology that takes the operation's code path."""
        raise NotImplementedError

    def _make(self, topology, rng: random.Random) -> Any:
        """The inputs of one operation on ``topology``."""
        raise NotImplementedError

    def execute(self, spec) -> OpOutcome:
        """Run one operation on ``spec`` and grade it."""
        raise NotImplementedError

    def _outcome(self, record) -> OpOutcome:
        """Grade one ``run_protocol`` record with the networks it ran."""
        stats = self.capture.take()
        payload = {
            "result": record.result,
            "cc_bits": record.cc_bits,
            "rounds": record.rounds,
            "stats": _stats_payload(stats),
        }
        counts = _stats_counts(stats)
        for key in ("retransmissions", "nacks", "live_gaps", "integrity_rejected"):
            if key in record.extra:
                counts[key] = record.extra[key]
        if "quarantined_links" in record.extra:
            counts["quarantined_links"] = len(record.extra["quarantined_links"])
        return OpOutcome(
            payload=payload,
            correct=bool(record.correct) and not record.failed,
            node_rounds=record.n_nodes * record.rounds,
            cc_bits=record.cc_bits,
            rounds=record.rounds,
            counts=counts,
        )


class SparseGrid(Workload):
    """``algorithm1`` on grids from 12x12 to 16x16 under a random crash schedule.

    Dispatch-bound: about 2% of node-rounds send anything, so the cost is
    the per-(node, round) handler call.  All 25 shapes ``rows x cols``
    with sides 12..16 rotate, smallest first, one of each per cycle.  Their
    sizes step by about 4%, so op times form a near-continuum and the
    tail percentile does not jump between size classes from run to run.
    """

    name = "sparse-grid"
    shapes = sorted(
        ((r, c) for r in range(12, 17) for c in range(12, 17)),
        key=lambda rc: (rc[0] * rc[1], rc),
    )
    cycle = n_topologies = len(shapes)
    gate_ops = 5
    distinct = 75

    def _build(self, k):
        from repro.graphs import grid_graph

        return grid_graph(*self.shapes[k])

    def _warm_topology(self):
        from repro.graphs import grid_graph

        return grid_graph(4, 4)

    def _make(self, topology, rng):
        from repro.adversary.adversaries import random_failures
        from repro.analysis.runner import make_inputs

        inputs = make_inputs(topology, rng)
        schedule = random_failures(
            topology,
            F_BUDGET,
            rng,
            first_round=1,
            last_round=B_BUDGET * topology.diameter,
            respect_c=2,
        )
        return topology, inputs, schedule, rng.getrandbits(32)

    def execute(self, spec):
        from repro.analysis import runner

        topology, inputs, schedule, coins = spec
        record = runner.run_protocol(
            "algorithm1",
            topology,
            inputs,
            schedule,
            f=F_BUDGET,
            b=B_BUDGET,
            rng=random.Random(coins),
        )
        return self._outcome(record)


class DenseFlood(Workload):
    """``bruteforce`` on a complete graph: every node floods every round.

    Delivery-bound: each of the 4 rounds delivers every node's broadcast
    to every other node, so message allocation and delivery dominate and
    handler dispatch is a small share.
    """

    name = "dense-flood"
    n_nodes = 48
    cycle = 1
    gate_ops = 10
    distinct = 240

    def _build(self, k):
        from repro.graphs import complete_graph

        return complete_graph(self.n_nodes)

    def _warm_topology(self):
        from repro.graphs import complete_graph

        return complete_graph(8)

    def _make(self, topology, rng):
        from repro.analysis.runner import make_inputs

        return topology, make_inputs(topology, rng)

    def execute(self, spec):
        from repro.analysis import runner

        topology, inputs = spec
        record = runner.run_protocol("bruteforce", topology, inputs)
        return self._outcome(record)


class FaultyOverlay(Workload):
    """``algorithm1`` over lossy links, repaired by the resilience overlays.

    Seeded message faults (root protected) under the reliable transport,
    MAC-authenticated frames and the standard strict monitors: the
    transport and integrity layers carry most of the cost, and the
    retransmissions vary by seed, so the slowest operations differ from
    the median one.  The transport gets 5 retransmissions on a linear
    NACK schedule, as in the project's recovery bench: at the default
    budget of 2 about 1 op in 13, and at a budget of 3 one op in about 550,
    ends with a wrong sum that the oracle monitor rejects.
    """

    name = "faulty-overlay"
    n_nodes = 24
    degree = 4
    cycle = n_topologies = 4
    gate_ops = 4
    distinct = 60

    def _build(self, k):
        from repro.graphs import random_regular

        rng = random.Random(f"{self.name}/graph/{self.seed % GATE_SEEDS}/{k}")
        while True:
            # The pairing model gives up after a bounded number of draws;
            # drawing on from the same RNG stays deterministic.
            try:
                return random_regular(self.n_nodes, self.degree, rng=rng)
            except RuntimeError:
                continue

    def _warm_topology(self):
        from repro.graphs import random_regular

        return random_regular(12, self.degree, rng=random.Random(0))

    def _make(self, topology, rng):
        from repro.analysis.runner import make_inputs

        inputs = make_inputs(topology, rng)
        return topology, inputs, rng.getrandbits(32), rng.getrandbits(32)

    def execute(self, spec):
        from repro.analysis import runner
        from repro.resilience.transport import TransportConfig
        from repro.sim.faults import MessageFaults

        topology, inputs, fault_seed, coins = spec
        faults = MessageFaults(
            drop=0.05,
            duplicate=0.02,
            delay=0.05,
            reorder=0.1,
            seed=fault_seed,
            protect=[topology.root],
        )
        record = runner.run_protocol(
            "algorithm1",
            topology,
            inputs,
            f=F_BUDGET,
            b=B_BUDGET,
            rng=random.Random(coins),
            injectors=[faults],
            transport=TransportConfig(retransmits=5, backoff_cap=2),
            integrity="mac",
            strict_monitors=True,
        )
        outcome = self._outcome(record)
        outcome.counts["faults_applied"] = faults.counts.total
        return outcome


WORKLOADS = {w.name: w for w in (SparseGrid, DenseFlood, FaultyOverlay)}
