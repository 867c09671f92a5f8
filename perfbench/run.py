"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a repository checkout::

    python3 perfbench/run.py --workload sparse-grid --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
operation twice, untraced and then traced, and prints the per-layer
metrics.  Each metric is printed as ``name value unit`` on its own line;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false and ``failed`` counts the operations that raised, were graded
incorrect, or did not match their checked-in digest.

Without ``src/repro`` next to this directory the run exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import calib  # noqa: E402
import workloads  # noqa: E402
from tracer import Instrumentation, SpanRecorder  # noqa: E402

DIGESTS = HERE / "digests.json"
OUT_DIR = HERE / "out"
#: Extra set-up measurements, each in a fresh process.
SETUP_PROBES = 4
#: Ops every end-to-end run completes, rounded up to whole cycles: enough
#: for a tail percentile well above the median (p60 of 25, with 10 beyond).
MIN_OPS = 25
#: No run measures past this many seconds, whatever its minimum op count.
HARD_CAP_S = 120.0


def _fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


# --------------------------------------------------------------------- #
# Set-up.
# --------------------------------------------------------------------- #


def set_up(name: str, seed: int):
    """Build the workload in this process; returns it and the calibrated
    set-up seconds (package import, inputs and topologies, warm-up)."""
    clock = calib.HostClock()
    with clock:
        workload = workloads.WORKLOADS[name](seed)
        workload.setup(time.perf_counter)
    workload.build_s *= clock.cal_s / clock.wall_s
    return workload, clock.cal_s


def probe_setups(name: str, seed: int) -> List[float]:
    """Calibrated set-up seconds of ``SETUP_PROBES`` fresh processes."""
    values = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        values.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return values


# --------------------------------------------------------------------- #
# The measured loop.
# --------------------------------------------------------------------- #


class Op:
    """One measured operation: its clock, outcome and failure reason."""

    __slots__ = ("clock", "outcome", "error")

    def __init__(self, clock, outcome, error):
        self.clock, self.outcome, self.error = clock, outcome, error

    @property
    def cal_s(self) -> float:
        return self.clock.cal_s


def timed_op(workload, index: int, instrumentation=None) -> Op:
    """Run op ``index``, with its own garbage collection inside the timed
    interval; with ``instrumentation``, the recorder's wrappers are on."""
    spec = workload.spec(index)
    clock = calib.HostClock()
    outcome = error = None
    with clock:
        try:
            if instrumentation is None:
                outcome = workload.execute(spec)
            else:
                with instrumentation:
                    outcome = workload.execute(spec)
        except Exception as exc:  # one failed op is a measured failure, not a crash
            error = f"{type(exc).__name__}: {exc}"
        if instrumentation is None:
            gc.collect()
        else:
            recorder = instrumentation.recorder
            recorder.enter("gc")
            gc.collect()
            recorder.exit()
    return Op(clock, outcome, error)


def keep_going(index: int, started: float, seconds: float, minimum: int, cycle: int) -> bool:
    """Whether to issue op ``index``: runs stop, once ``minimum`` ops are
    done, at the ``cycle`` boundary nearest to ``seconds`` (never past
    ``HARD_CAP_S``)."""
    elapsed = time.perf_counter() - started
    if elapsed > HARD_CAP_S:
        return False
    if index < minimum or index % cycle != 0:
        return True
    cycle_s = elapsed * cycle / index
    return elapsed + cycle_s / 2 < seconds


def grade(workload, ops: List[Op], seed: int) -> List[str]:
    """Mark failed ops; returns the reasons.  An op fails if it raised,
    was graded incorrect, repeats an earlier op's inputs with different
    outputs, or belongs to a gate whose digest does not match."""
    reasons = []
    op_digests = []
    for i, op in enumerate(ops):
        if op.error is not None:
            reasons.append(f"op {i}: {op.error}")
            op_digests.append(None)
            continue
        op_digests.append(workloads.digest([op.outcome.payload]))
        if not op.outcome.correct:
            op.error = "graded incorrect"
        elif i >= workload.distinct and op_digests[i] != op_digests[i - workload.distinct]:
            op.error = f"output differs from op {i - workload.distinct} on the same inputs"
        if op.error is not None:
            reasons.append(f"op {i}: {op.error}")
    gate = ops[: workload.gate_ops]
    if all(op.outcome is not None for op in gate):
        got = workloads.digest([op.outcome.payload for op in gate])
        table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        want = table.get(workload.name, {}).get(str(seed % workloads.GATE_SEEDS))
        if got != want:
            reasons.append(
                f"gate digest {got[:16]} != checked-in {str(want)[:16]} "
                f"(gate case {seed % workloads.GATE_SEEDS})"
            )
            for op in gate:
                op.error = op.error or "gate digest mismatch"
    return reasons


def peak_rss_mb() -> float:
    """Peak resident memory of this process or any waited-for child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024


def host_notes(ops: List[Op]) -> List[str]:
    samples = [s for op in ops for s in op.clock.samples]
    return [
        f"op time p50 raw {statistics.median([op.clock.raw_s for op in ops]):.6f} s, "
        f"calibrated {statistics.median([op.cal_s for op in ops]):.6f} s",
        f"host kernel samples: {len(samples)}, p50 {statistics.median(samples) * 1e3:.4f} ms "
        f"(nominal {calib.NOMINAL_SAMPLE_S * 1e3} ms), IQR/median {calib.iqr_ratio(samples):.4f}",
    ]


# --------------------------------------------------------------------- #
# End-to-end run.
# --------------------------------------------------------------------- #


def run_end_to_end(workload, seed: int, seconds: float, setups: List[float]):
    ops: List[Op] = []
    cycle = workload.cycle
    minimum = -(-max(MIN_OPS, workload.gate_ops) // cycle) * cycle
    started = time.perf_counter()
    while keep_going(len(ops), started, seconds, minimum, cycle):
        ops.append(timed_op(workload, len(ops)))
    reasons = grade(workload, ops, seed)
    # Ops that returned did their work, graded correct or not; ops that
    # raised count only as failures.
    done = [op for op in ops if op.outcome is not None] or ops
    cal = [op.cal_s for op in done]
    tail, p = calib.tail_value(cal)
    # Simulated means over the ops every run of this seed completes.
    first = [op.outcome for op in ops[:minimum] if op.outcome] or [
        workloads.OpOutcome(None, False, 0, 0.0, 0.0)
    ]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s_p50": (statistics.median(cal), "s"),
        "op_s_tail": (tail, "s"),
        "node_rounds_per_s": (
            sum(op.outcome.node_rounds for op in done if op.outcome) / sum(cal),
            "1/s"),
        "cc_bits_mean": (statistics.fmean(o.cc_bits for o in first), "bits"),
        "rounds_mean": (statistics.fmean(o.rounds for o in first), "rounds"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"op_s_tail is p{p} of {len(cal)} ops "
        f"({len(cal) - calib.tail_percentile(len(cal))[1]} beyond it)",
        *host_notes(done),
        f"setup_s samples {[round(s, 4) for s in setups]}",
    ]
    return ops, reasons, metrics, notes


# --------------------------------------------------------------------- #
# Traced run.
# --------------------------------------------------------------------- #

#: Per-layer self-time metrics and the recorder layers they read.
LAYER_TIMES = {
    "sim.network.step_self_s": "sim.network",
    "core.on_round_s": "core",
    "baselines.on_round_s": "baselines",
    "sim.faults.hook_s": "sim.faults",
    "sim.monitors.hook_s": "sim.monitors",
    "resilience.transport.on_round_s": "resilience.transport",
    "integrity.on_round_s": "integrity",
    "analysis.runner.self_s": "analysis.runner",
    "sim.validation.assert_model_s": "sim.validation",
    "gc.collect_s": "gc",
}

#: Per-op counts over the gate ops: metric -> recorder / outcome keys summed.
LAYER_COUNTS = {
    "sim.network.node_rounds": ("node_rounds",),
    "sim.network.silent_rounds": ("silent_rounds",),
    "sim.network.stop_checks": ("stop_checks",),
    "sim.network.deliveries": ("deliveries",),
    "sim.stats.broadcasts": ("sim.stats.broadcasts",),
    "sim.stats.bits_total": ("sim.stats.bits_total",),
    "sim.stats.overhead_bits": ("sim.stats.overhead_bits",),
    "core.params.cd_reads": ("cd_reads",),
    "sim.faults.transmit_calls": ("sim.faults.on_transmit",),
    "sim.faults.faults_applied": ("faults_applied",),
    "sim.monitors.calls": ("sim.monitors.after_round", "sim.monitors.finalize"),
    "resilience.transport.retransmissions": ("retransmissions",),
    "resilience.transport.nacks": ("nacks",),
    "resilience.transport.live_gaps": ("live_gaps",),
    "integrity.rejected": ("integrity_rejected",),
    "integrity.quarantined_links": ("quarantined_links",),
}


def run_traced(workload, seed: int, seconds: float, trace_path: Path):
    recorder = SpanRecorder(keep=200_000)
    instrumentation = Instrumentation(recorder)
    ops: List[Op] = []
    plain_ops: List[Op] = []
    ratios, self_ratios = [], []
    layer_s: Dict[str, float] = {}
    counts: Dict[str, float] = {}
    started = time.perf_counter()
    while keep_going(len(ops), started, seconds, workload.gate_ops, 1):
        index = len(ops)
        plain = timed_op(workload, index)
        recorder.reset()
        traced = timed_op(workload, index, instrumentation)
        if traced.error is None and plain.error is None and (
            workloads.digest([traced.outcome.payload])
            != workloads.digest([plain.outcome.payload])
        ):
            traced.error = "traced output differs from the untraced one"
        traced.error = traced.error or plain.error
        ops.append(traced)
        plain_ops.append(plain)
        ratios.append(traced.cal_s / plain.cal_s)
        # Samples of the host taken inside spans count in their self time.
        self_ratios.append(sum(recorder.self_s.values()) / traced.clock.wall_s)
        factor = traced.cal_s / traced.clock.wall_s
        recorder.keep = len(recorder.spans)
        for metric, layer in LAYER_TIMES.items():
            layer_s[metric] = layer_s.get(metric, 0.0) + recorder.self_s.get(layer, 0.0) * factor
        if index < workload.gate_ops and traced.outcome is not None:
            merged = dict(recorder.counts)
            merged.update(traced.outcome.counts)
            for key, value in merged.items():
                counts[key] = counts.get(key, 0) + value
    reasons = grade(workload, ops, seed)
    n, gate = len(ops), workload.gate_ops
    metrics = {m: (v / n, "s") for m, v in layer_s.items()}
    for metric, keys in LAYER_COUNTS.items():
        unit = "bits" if "bits" in metric else "count"
        metrics[metric] = (sum(counts.get(k, 0) for k in keys) / gate, unit)
    node_rounds = counts.get("node_rounds", 0)
    metrics["sim.network.active_ratio"] = (
        counts.get("sending", 0) / node_rounds if node_rounds else 0.0, "ratio")
    metrics["graphs.build_s"] = (workload.build_s, "s")
    metrics["graphs.edges"] = (workload.edges, "count")
    samples = [s for op in plain_ops + ops for s in op.clock.samples]
    metrics["host.ref_s_p50"] = (statistics.median(samples), "s")
    metrics["host.ref_iqr_ratio"] = (calib.iqr_ratio(samples), "ratio")
    metrics["host.op_wall_s_p50"] = (statistics.median([op.clock.raw_s for op in plain_ops]), "s")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    metrics["trace.self_sum_ratio"] = (min(self_ratios), "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write_chrome(str(trace_path))
    traced_s = statistics.fmean(op.cal_s for op in ops)
    notes = [
        f"spans of op 0 written to {trace_path.relative_to(ROOT)}",
        "self time per layer, share of traced op: " + ", ".join(
            f"{m} {v / n / traced_s:.1%}"
            for m, v in sorted(layer_s.items(), key=lambda kv: -kv[1]) if v
        ),
        *host_notes(plain_ops),
    ]
    return ops, reasons, metrics, notes


# --------------------------------------------------------------------- #


def write_digests(name: str) -> int:
    """Recompute the gate digests of ``name`` for every gate case and
    store them in ``digests.json``.  For a deliberate change of outputs."""
    entry = {}
    for case in range(workloads.GATE_SEEDS):
        workload, _ = set_up(name, case)
        try:
            outcomes = [workload.execute(workload.spec(i)) for i in range(workload.gate_ops)]
        finally:
            workload.close()
        if not all(o.correct for o in outcomes):
            return _fail(f"{name}: gate case {case} graded incorrect", code=1)
        entry[str(case)] = workloads.digest([o.payload for o in outcomes])
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table[name] = entry
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{name}: {len(entry)} gate digests written to {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only measure set-up in this process and print it")
    parser.add_argument("--write-digests", action="store_true",
                        help="recompute the workload's checked-in gate digests")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no package source at {SRC.relative_to(ROOT)}/repro; "
                     "run from the root of a repository checkout")
    sys.path.insert(0, str(SRC))
    if args.write_digests:
        return write_digests(args.workload)

    workload, setup_s = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
            ops, reasons, metrics, notes = run_traced(
                workload, args.seed, args.seconds, trace_path)
        else:
            setups = [setup_s] + probe_setups(args.workload, args.seed)
            ops, reasons, metrics, notes = run_end_to_end(
                workload, args.seed, args.seconds, setups)
    finally:
        workload.close()

    failed = sum(op.error is not None for op in ops)
    for line in reasons[:20]:
        print(f"FAIL {line}")
    for note in notes:
        print(f"# {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not reasons,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
