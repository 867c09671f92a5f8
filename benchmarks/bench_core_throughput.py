"""E28 — simulator core throughput: the event-driven round scheduler.

A non-root node of Algorithm 1 speaks only when a message reaches it or
when one of its fixed phase slots comes up, so almost every (node, round)
pair is idle.  The network calls a handler only when it has an inbox or a
slot its ``next_wake`` declared.  This bench measures what that buys, on
``algorithm1`` (f=8, b=90), ``unknown_f`` and ``bruteforce`` over grids
8/16/24/32 and a random 4-regular family (64/256 nodes), each with a
seeded random crash schedule:

* **after** — the event-driven scheduler as shipped;
* **before** — the same run with every ``next_wake`` override patched
  back to the base default (every round), which is exactly the old
  every-node loop.

Per arm it records wall time (the fastest of three runs up to 256 nodes,
one run above), node-rounds/s (``N * rounds / wall``), handler calls and
rounds.  Both arms must agree on result, rounds and
protocol CC; the scheduler must cut handler calls on every slotted
protocol and win at least 2x wall time on algorithm1 on grids from 16x16
up, where the run is dispatch-bound.
The per-layer split of an op lives in ``perfbench/run.py --trace 1``.

The trajectory point lands in ``BENCH_e28_core.json`` at the repo root.
"""

import gc
import json
import os
import random
import time
from contextlib import contextmanager

import pytest

from repro.adversary import random_failures
from repro.analysis import format_table, make_inputs, run_protocol
from repro.graphs import grid_graph, random_regular
from repro.sim.faults import FaultInjector
from repro.sim.node import NodeHandler

from _util import emit, once

GRID_SIDES = (8, 16, 24, 32)
REGULAR_SIZES = (64, 256)
PROTOCOLS = ("algorithm1", "unknown_f", "bruteforce")
F = 8
B = 90
SEED = 0
TRAJECTORY_PATH = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_e28_core.json"
)


@contextmanager
def every_round():
    """The "before" arm: every ``next_wake`` override patched back to the
    base default, i.e. the every-node round loop."""
    import repro.baselines.bruteforce  # noqa: F401  (register subclasses)
    import repro.core.unknown_f  # noqa: F401

    todo, classes = [NodeHandler], []
    while todo:
        for sub in todo.pop().__subclasses__():
            classes.append(sub)
            todo.append(sub)
    saved = [
        (c, c.__dict__["next_wake"])
        for c in classes
        if "next_wake" in c.__dict__
    ]
    try:
        for cls, _ in saved:
            cls.next_wake = NodeHandler.next_wake
        yield
    finally:
        for cls, fn in saved:
            cls.next_wake = fn


class _Networks(FaultInjector):
    """Keeps every network a run builds, for its handler-call counter."""

    def __init__(self):
        super().__init__()
        self.networks = []

    def attach(self, network):
        super().attach(network)
        self.networks.append(network)


def _topologies():
    for side in GRID_SIDES:
        yield f"grid({side}x{side})", grid_graph(side, side)
    for n in REGULAR_SIZES:
        yield f"regular({n},4)", random_regular(n, 4, random.Random(n))


def _best(protocol, topology):
    """Fastest of a few identical runs (one for the largest graphs)."""
    repeats = 3 if topology.n_nodes <= 256 else 1
    runs = [_run(protocol, topology) for _ in range(repeats)]
    return min(runs, key=lambda r: r["wall_s"])


def _run(protocol, topology):
    rng = random.Random(SEED)
    inputs = make_inputs(topology, rng)
    schedule = random_failures(
        topology, F, rng, first_round=1,
        last_round=B * topology.diameter, respect_c=2,
    )
    kwargs = {"f": F, "b": B} if protocol == "algorithm1" else {}
    tap = _Networks()
    gc.collect()  # start every timed run from the same heap state
    t0 = time.perf_counter()
    record = run_protocol(
        protocol, topology, inputs, schedule=schedule, rng=rng,
        injectors=[tap], **kwargs,
    )
    wall = time.perf_counter() - t0
    return {
        "wall_s": round(wall, 4),
        "node_rounds_per_s": round(topology.n_nodes * record.rounds / wall),
        "handler_calls": sum(n.handler_calls for n in tap.networks),
        "rounds": record.rounds,
        "cc_bits": record.cc_bits,
        "result": record.result,
        "correct": record.correct,
    }


def run_throughput_study():
    # Warm both arms up first (lazy imports, first-call caches), so the
    # first timed row is not charged for them.
    for protocol in PROTOCOLS:
        _run(protocol, grid_graph(6, 6))
        with every_round():
            _run(protocol, grid_graph(6, 6))
    rows = []
    for name, topology in _topologies():
        for protocol in PROTOCOLS:
            after = _best(protocol, topology)
            with every_round():
                before = _best(protocol, topology)
            rows.append(
                {
                    "protocol": protocol,
                    "topology": name,
                    "n": topology.n_nodes,
                    "before": before,
                    "after": after,
                    "speedup": round(before["wall_s"] / after["wall_s"], 2),
                }
            )
    return rows


def _write_trajectory(rows):
    point = {
        "experiment": "E28",
        "f": F,
        "b": B,
        "seed": SEED,
        "cpu_count": os.cpu_count(),
        "rows": rows,
    }
    with open(os.path.abspath(TRAJECTORY_PATH), "w") as fh:
        json.dump(point, fh, indent=2, sort_keys=True)
        fh.write("\n")


@pytest.mark.benchmark(group="core")
def test_core_throughput(benchmark):
    rows = once(benchmark, run_throughput_study)
    table = [
        {
            "protocol": r["protocol"],
            "topology": r["topology"],
            "rounds": r["after"]["rounds"],
            "calls before": r["before"]["handler_calls"],
            "calls after": r["after"]["handler_calls"],
            "wall before": r["before"]["wall_s"],
            "wall after": r["after"]["wall_s"],
            "nr/s after": r["after"]["node_rounds_per_s"],
            "speedup": r["speedup"],
        }
        for r in rows
    ]
    emit(
        "e28_core_throughput",
        format_table(
            table,
            title=(
                f"E28: core throughput, f={F} b={B} "
                f"(host cpus={os.cpu_count()})"
            ),
        ),
    )
    _write_trajectory(rows)

    for r in rows:
        before, after = r["before"], r["after"]
        # The scheduler changes which handlers run, never what they do.
        for key in ("rounds", "cc_bits", "result", "correct"):
            assert before[key] == after[key], (r["topology"], key)
        assert after["correct"]
        assert after["handler_calls"] < before["handler_calls"]
        # On grids from 16x16 up the run is dispatch-bound.  The 256-node
        # regular run rejects both pairs and ends in the brute-force
        # fallback, which is message-bound and need not move.
        grid = r["topology"].startswith("grid")
        if r["protocol"] == "algorithm1" and grid and r["n"] >= 256:
            assert r["speedup"] >= 2, r
