"""Self-tests of the benchmark's own arithmetic and input generation.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import calib  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanRecorder  # noqa: E402


# -- tail percentile ---------------------------------------------------- #


@pytest.mark.parametrize("n", range(1, 400))
def test_tail_has_ten_beyond_and_is_the_highest_such(n):
    p, rank = calib.tail_percentile(n)
    assert rank == max(1, math.ceil(p * n / 100))
    if n >= 2 * calib.TAIL_BEYOND + 1:
        assert p > 50
        assert n - rank >= calib.TAIL_BEYOND
        if p < 99:
            assert n - math.ceil((p + 1) * n / 100) < calib.TAIL_BEYOND
    else:
        assert p == 50


def test_tail_value_reads_the_nearest_rank():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    value, p = calib.tail_value(samples)
    assert p == 90
    assert value == 90
    assert sum(s > value for s in samples) == 10


# -- calibration -------------------------------------------------------- #


def test_calibration_scales_by_the_mean_sample():
    nominal = calib.NOMINAL_SAMPLE_S
    # Host at nominal speed: unchanged.
    assert calib.calibrate(1.5, [nominal, nominal]) == pytest.approx(1.5)
    # Host twice as slow on average over the op: halved.
    assert calib.calibrate(2.0, [nominal, 3 * nominal]) == pytest.approx(1.0)
    # Host twice as fast: doubled.
    assert calib.calibrate(0.5, [nominal / 2] * 3) == pytest.approx(1.0)


def test_calibration_rejects_missing_or_non_positive_samples():
    with pytest.raises(ValueError):
        calib.calibrate(1.0, [])
    with pytest.raises(ValueError):
        calib.calibrate(1.0, [0.0, calib.NOMINAL_SAMPLE_S])


def test_reference_kernel_runs_and_is_timed():
    assert isinstance(calib.reference_kernel(500), int)
    assert calib.sample_host() > 0


def test_host_clock_samples_during_the_interval_and_removes_them():
    clock = calib.HostClock()
    with clock:
        end = time.process_time() + 5 * calib.SAMPLE_EVERY_S
        while time.process_time() < end:
            pass
    # Before, after, and at least a few in between.
    assert len(clock.samples) >= 4
    assert 0 < clock.raw_s < clock.wall_s
    assert clock.cal_s == pytest.approx(calib.calibrate(clock.raw_s, clock.samples))
    assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL


def test_iqr_ratio():
    assert calib.iqr_ratio([1.0]) == 0.0
    assert calib.iqr_ratio([10.0] * 8) == 0.0
    assert calib.iqr_ratio([8.0, 9.0, 10.0, 11.0, 12.0]) > 0


# -- self time ---------------------------------------------------------- #


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_subtracts_nested_children():
    # A [0, 10] holds B [1, 6] (which holds C [2, 4]) and B [7, 8].
    rec = SpanRecorder(clock=FakeClock([0, 1, 2, 4, 6, 7, 8, 10]), keep=10)
    rec.enter("A")
    rec.enter("B")
    rec.enter("C")
    rec.exit()
    rec.exit()
    rec.enter("B")
    rec.exit()
    assert rec.exit() == 10
    assert rec.self_s == {"A": 4, "B": 4, "C": 2}
    assert sum(rec.self_s.values()) == 10
    assert [s[0] for s in rec.spans] == ["C", "B", "B", "A"]
    assert [s[3] for s in rec.spans] == [2, 1, 1, 0]


def test_span_wrapper_closes_on_exceptions():
    rec = SpanRecorder(clock=FakeClock([0, 1, 3, 5]))

    def fails():
        raise KeyError("x")

    outer = rec.span("outer", lambda: rec.span("inner", fails)())
    with pytest.raises(KeyError):
        outer()
    assert rec.self_s == {"outer": 3, "inner": 2}
    assert rec.parent is None


def test_reset_refuses_open_spans():
    rec = SpanRecorder(clock=FakeClock([0]))
    rec.enter("A")
    with pytest.raises(RuntimeError):
        rec.reset()


# -- inputs ------------------------------------------------------------- #


def _specs(name, seed):
    workload = workloads.WORKLOADS[name](seed)
    workload.setup(lambda: 0.0)
    workload.close()
    return workload


def _canonical(spec):
    out = []
    for item in spec:
        if hasattr(item, "crash_rounds"):
            item = sorted(item.crash_rounds.items())
        elif hasattr(item, "adjacency"):
            item = sorted((u, tuple(vs)) for u, vs in item.adjacency.items())
        elif isinstance(item, dict):
            item = sorted(item.items())
        out.append(item)
    return out


@pytest.mark.parametrize("name", ["sparse-grid", "faulty-overlay"])
def test_inputs_follow_the_seed(name):
    a, b, c = _specs(name, 3), _specs(name, 3), _specs(name, 4)
    ops = range(a.gate_ops + 3)
    assert [_canonical(a.spec(i)) for i in ops] == [_canonical(b.spec(i)) for i in ops]
    late = a.gate_ops + 1
    assert _canonical(a.spec(late)) != _canonical(c.spec(late))


def test_gate_ops_replay_the_gate_case():
    name = "dense-flood"
    a = _specs(name, 5)
    b = _specs(name, 5 + workloads.GATE_SEEDS)
    gate = a.gate_ops
    assert [_canonical(a.spec(i)) for i in range(gate)] == [
        _canonical(b.spec(i)) for i in range(gate)
    ]
    assert _canonical(a.spec(gate)) != _canonical(b.spec(gate))


def test_every_gate_case_has_a_digest():
    table = json.loads((HERE / "digests.json").read_text())
    assert sorted(table) == sorted(workloads.WORKLOADS)
    for name, entry in table.items():
        assert sorted(entry, key=int) == [
            str(g) for g in range(workloads.GATE_SEEDS)
        ], name
