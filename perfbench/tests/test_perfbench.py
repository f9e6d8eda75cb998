"""Tests of the benchmark itself: span arithmetic, determinism, output shape.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench.scenarios import (  # noqa: E402
    FAILED,
    WORKLOADS,
    Interception,
    SecureShards,
    Tally,
    timed_call,
)
from perfbench.tracing import (  # noqa: E402
    Recorder,
    nested_self_time,
    self_time,
    union_length,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- span arithmetic ---------------------------------------------------------------


def test_union_length_merges_overlaps_and_keeps_gaps():
    assert union_length([]) == 0
    assert union_length([(0, 10)]) == 10
    assert union_length([(0, 10), (20, 25)]) == 15
    assert union_length([(0, 10), (5, 15), (12, 14)]) == 15
    assert union_length([(5, 15), (0, 10)]) == 15
    assert union_length([(0, 100), (10, 20), (30, 40)]) == 100
    assert union_length([(0, 10), (10, 20)]) == 20


def test_stub_self_time_under_overlapping_fan_out_wire_spans():
    # ActiveRep sends to three replicas concurrently: the wire spans overlap,
    # so subtracting their sum (90) would make the stub's self time negative.
    stub = (0, 100)
    wires = [(20, 50), (25, 60), (30, 80)]
    assert self_time(stub, wires) == 100 - 60


def test_self_time_clips_children_to_the_parent():
    assert self_time((10, 50), [(0, 20), (45, 70)]) == 40 - 15
    assert self_time((10, 50), [(60, 70)]) == 40
    assert self_time((10, 50), [(0, 100)]) == 0


def test_nested_self_time_pairs_concurrent_parents_with_their_children():
    # Three replicas' skeleton spans run concurrently; each servant lies in
    # its own skeleton.  A union over all servants would subtract replica
    # 2's servant from replica 1's skeleton; the paired sum does not.
    skeletons = [(0, 100), (10, 60), (20, 90)]
    servants = [(40, 50), (15, 35), (70, 75)]
    expected = ((100 - 10) + (50 - 20) + (70 - 5)) / 3
    assert nested_self_time(skeletons, servants) == pytest.approx(expected)
    assert nested_self_time([], []) == 0.0


def test_layer_medians_reduce_one_request():
    recorder = Recorder()
    for kind, start, end in [
        ("stub", 0, 1000), ("wire", 100, 900), ("transport", 200, 800),
        ("handler", 300, 700), ("skeleton", 350, 650), ("servant", 400, 500),
    ]:
        recorder.record(kind, "req-1", start, end)
    recorder.record("transport", None, 0, 5000)  # control traffic: no call
    layers = recorder.layer_medians()
    assert layers["core.stub.self_us"] == pytest.approx(0.2)
    assert layers["marshal.self_us"] == pytest.approx((200 + 100) / 1000)
    assert layers["net.call_us"] == pytest.approx(0.2)
    assert layers["core.skeleton.self_us"] == pytest.approx(0.2)
    assert layers["servant.us"] == pytest.approx(0.1)


# -- aggregation over blocks ---------------------------------------------------------


def _block(latency_ns: float, calls: int = 100, wall: float = 1.0) -> dict:
    tally = Tally(reads=[latency_ns] * (calls // 2), writes=[latency_ns] * (calls // 2))
    return run.block_metrics(tally, wall)


def test_a_burst_in_a_minority_of_blocks_does_not_move_the_metrics():
    steady = [_block(1000.0) for _ in range(5)]
    burst = steady[:3] + [_block(50_000.0, calls=2), _block(90_000.0, calls=2)]
    assert run.median_over_blocks(burst) == run.median_over_blocks(steady)
    assert run.median_over_blocks(steady) == {
        "read_p50_us": 1.0, "read_p99_us": 1.0, "write_p50_us": 1.0,
        "write_p99_us": 1.0, "calls_per_s": 100.0,
    }


def test_a_slower_program_is_slower_in_the_median_block():
    fast = [_block(1000.0 + k) for k in range(5)]
    slow = [_block(1200.0 + k, calls=80) for k in range(5)]
    fast_metrics, slow_metrics = run.median_over_blocks(fast), run.median_over_blocks(slow)
    assert slow_metrics["read_p50_us"] == pytest.approx(1.202)
    assert fast_metrics["read_p50_us"] == pytest.approx(1.002)
    assert slow_metrics["calls_per_s"] < fast_metrics["calls_per_s"]


def test_times_are_scaled_to_the_reference_host(monkeypatch):
    # A host at half the reference speed: the probe takes twice as long.
    monkeypatch.setattr(run, "probe_s", lambda: 2 * run.PROBE_REF_S)
    value, scale = run.gauged(lambda: "done")
    assert value == "done" and scale == pytest.approx(0.5)
    slow_host = [_block(2000.0, calls=50) for _ in range(3)]
    assert run.median_over_blocks(slow_host, [scale] * 3) == pytest.approx(
        run.median_over_blocks([_block(1000.0) for _ in range(3)])
    )


def test_the_probe_ignores_time_spent_waiting_for_other_threads():
    import threading

    stop = threading.Event()

    def spin():
        while not stop.is_set():
            sum(range(1000))

    quiet = min(run.probe_s() for _ in range(5))
    spinner = threading.Thread(target=spin)
    spinner.start()
    try:
        busy = min(run.probe_s() for _ in range(5))
    finally:
        stop.set()
        spinner.join()
    # A GIL-bound thread beside it would double a wall-clock probe.
    assert busy < quiet * 1.5


def test_block_p99_counts_a_failed_call_as_infinitely_slow():
    tally = Tally(reads=[1000.0] * 99 + [FAILED], writes=[1000.0] * 100)
    assert run.block_metrics(tally, 1.0)["read_p99_us"] == 1000.0
    tally.reads[:2] = [FAILED, FAILED]
    assert run.block_metrics(tally, 1.0)["read_p99_us"] == FAILED
    assert run.median_over_blocks([run.block_metrics(tally, 1.0)])["read_p99_us"] is None


# -- determinism ---------------------------------------------------------------------


def _shards_run(seed: int, calls: int, crash_at: int):
    recorder = Recorder()
    session = SecureShards(seed, recorder=recorder, crash_at=crash_at)
    try:
        recorder.active = True
        session.client_loop(0, None, session.tally, limit=calls)
        session.verify()
        recorder.active = False
        affected = sum(
            1
            for account in session.accounts
            if session.space.view().assignments(account)[0][1] == session.crash_member
        )
        return list(session._expected), recorder.counts["wire_failures"], affected, session
    finally:
        session.close()


def test_shards_sequence_crash_and_failovers_repeat_for_a_seed():
    first, failures, affected, session = _shards_run(seed=7, calls=240, crash_at=120)
    assert session.crashed and session.tally.failed == 0
    again, failures_again, _, _ = _shards_run(seed=7, calls=240, crash_at=120)
    assert again == first
    assert failures_again == failures
    # Every stub whose primary crashed fails over exactly once, either in
    # the traffic or in the final read-back of every account.
    assert failures == affected > 0
    other, _, _, _ = _shards_run(seed=8, calls=240, crash_at=120)
    assert other != first
    assert sum(first) == sum(other) == 120


def _interception_balance(seed: int) -> float:
    session = Interception(seed)
    try:
        session.client_loop(0, None, session.tally, limit=40)
        assert session.tally.failed == 0
        return session.stubs[0].get_balance()
    finally:
        session.close()


def test_interception_values_repeat_for_a_seed():
    assert _interception_balance(3) == _interception_balance(3)
    assert _interception_balance(3) != _interception_balance(4)


# -- failures are counted -------------------------------------------------------------


def test_wrong_value_fails_the_run(monkeypatch, capsys):
    from perfbench import scenarios

    class LyingAccount(scenarios.BankAccount):
        def get_balance(self):
            return super().get_balance() + 1.0

    monkeypatch.setattr(scenarios, "BankAccount", LyingAccount)
    code = run.main(["--workload", "interception", "--seed", "1", "--seconds", "0.2"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0 and result["attempted"] >= result["failed"]


def test_failed_call_sorts_last_in_the_samples():
    tally = Tally()

    def boom():
        raise RuntimeError("down")

    timed_call(tally, tally.reads, lambda: 1.0, lambda value: None)
    timed_call(tally, tally.reads, boom, lambda value: None)
    assert tally.failed == 1 and tally.attempted == 2
    assert run.percentile(tally.reads, 0.99) == float("inf")


def test_benchmark_gates_only_workloads_the_command_runs():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


# -- the command's output ---------------------------------------------------------------


def _command(workload: str, trace: int, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env=env if env is not None else {k: v for k, v in os.environ.items()
                                         if not k.startswith("CQOS_")},
    )


@pytest.mark.parametrize("trace", [0, 1])
# Every workload the command runs, also one BENCHMARK.json does not gate.
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_emits_every_named_metric_with_its_unit(workload, trace):
    proc = _command(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


def test_refuses_to_run_with_a_cqos_knob_set():
    env = dict(os.environ, CQOS_ENGINE="async")
    proc = _command("interception", 0, env=env)
    assert proc.returncode != 0
    assert "CQOS_ENGINE" in proc.stderr
    assert '"metrics"' not in proc.stdout
