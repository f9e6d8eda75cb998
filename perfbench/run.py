"""Run one CQoS benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload interception --seed 1 --seconds 48 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing attached,
as medians over one-second blocks of times scaled to a reference host
speed (``PROBE_REF_S``); the run record keeps them as measured too.
``--trace 1`` is the separate traced run: it alternates blocks of an
untraced deployment, a traced deployment and the plain-CORBA calibration
rung, and derives the per-layer metrics from the traced blocks.  Both print
a human-readable report, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every call returned the right value.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

try:
    from perfbench.scenarios import WORKLOADS, Calibration, Tally, shards_crash_index
    from perfbench.tracing import Recorder
except ImportError as exc:  # run outside a full checkout of the repository
    print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
    sys.exit(2)

#: The end-to-end run spreads its timed phase over this many fresh
#: deployments, each set up (and timed) just before its share of traffic.
DEPLOYMENTS = 4

#: Traffic is timed in blocks of about this length.  Each end-to-end metric is
#: computed per block and reported as the median over the run's blocks, so
#: a burst of stolen CPU on the shared host moves a few blocks, not the
#: metric.
BLOCK_S = 1.0

#: Iterations of the pure-Python loop that gauges the host's speed, and
#: that loop's CPU time on the reference host.  On a shared host the same
#: code ran up to 1.9 times slower from one minute to the next, from
#: neighbours slowing the cores.  The loop slows with them, and the
#: program under test never runs inside it, so every time is reported
#: scaled to the reference host: measured x PROBE_REF_S / probe.
PROBE_LOOPS = 60_000
PROBE_REF_S = 0.0035

#: Set-ups per deployment: at least this many, and cheap ones repeat until
#: the deployment's share of the budget (or of the repeat cap) is spent.
SETUP_MIN_PER_DEPLOYMENT = 1
SETUP_MAX_REPEATS = 40
SETUP_BUDGET_S = 2.0

#: Length of one block of the traced run (seconds).  Short blocks keep the
#: traced, untraced and calibration blocks exposed to the same host drift.
TRACE_BLOCK_S = 0.5


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; failed calls sort last as infinitely slow."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(samples: list[float], q: float) -> int:
    """How many samples lie above the nearest-rank ``q`` percentile."""
    return len(samples) - max(0, math.ceil(q * len(samples)))


def us(ns: float) -> float | None:
    return None if math.isinf(ns) else ns / 1000.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def cqos_environment() -> dict[str, str]:
    return {key: value for key, value in os.environ.items() if key.startswith("CQOS_")}


def run_record(args, session_cls) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "transport": "loopback TCP" if session_cls.transport == "tcp" else "in memory",
        "clients": session_cls.clients,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cqos_env": cqos_environment(),
    }


def steal_ticks() -> int:
    """Clock ticks the hypervisor has stolen from this machine (0 if unknown)."""
    try:
        with open("/proc/stat") as stat:
            return int(stat.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def probe_s() -> float:
    """Best of two thread-CPU timings of the fixed loop: the host's speed now.

    Thread CPU time leaves out time this thread waited, so the program's
    own threads, contending for the GIL, cannot slow the probe.
    """
    best = math.inf
    for _ in range(2):
        start = time.thread_time()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i
        best = min(best, time.thread_time() - start)
    return best


def gauged(work):
    """Run ``work()``; return its value and the factor that scales its
    times to the reference host, from probes just before and after it."""
    before = probe_s()
    value = work()
    return value, PROBE_REF_S / ((before + probe_s()) / 2)


def block_metrics(tally: Tally, wall: float) -> dict[str, float]:
    """The throughput and latency metrics (ns) of one block of traffic."""
    return {
        "read_p50_us": percentile(tally.reads, 0.50),
        "read_p99_us": percentile(tally.reads, 0.99),
        "write_p50_us": percentile(tally.writes, 0.50),
        "write_p99_us": percentile(tally.writes, 0.99),
        "calls_per_s": tally.calls / wall,
    }


def median_over_blocks(
    blocks: list[dict], scales: list[float] | None = None
) -> dict[str, float | None]:
    """Each block metric's median over the blocks, latencies in us.

    ``scales[k]`` scales block k's times to the reference host (a rate
    is divided by it); without ``scales`` the values are as measured.  A
    failed call sorts last in its block as infinitely slow, so a block
    whose median or p99 call failed reads as infinite; a metric whose
    median block is such a block is ``None``.
    """
    scales = scales or [1.0] * len(blocks)
    metrics: dict[str, float | None] = {}
    for name in blocks[0]:
        if name == "calls_per_s":
            metrics[name] = statistics.median(
                block[name] / scale for block, scale in zip(blocks, scales)
            )
        else:
            metrics[name] = us(statistics.median(
                block[name] * scale for block, scale in zip(blocks, scales)
            ))
    return metrics


def build(session_cls, args, crash_at: int, setups: list, outcome: Tally):
    """Set the workload up repeatedly; return the last, ready deployment."""
    session, spent, count = None, 0.0, 0
    while count < SETUP_MIN_PER_DEPLOYMENT or (
        spent < SETUP_BUDGET_S / DEPLOYMENTS
        and count < SETUP_MAX_REPEATS // DEPLOYMENTS
    ):
        if session is not None:
            session.close()
            outcome.merge(session.tally)
        gc.collect()
        session, scale = gauged(lambda: session_cls(args.seed, crash_at=crash_at))
        setups.append((session.setup_s, scale))
        spent += session.setup_s
        count += 1
    return session


def timed_block(session, seconds: float) -> tuple[Tally, float]:
    """One block of the session's traffic and its wall time."""
    start = time.perf_counter()
    tally = session.run_block(seconds)
    return tally, time.perf_counter() - start


def run_end_to_end(session_cls, args, record: dict) -> tuple[dict, Tally]:
    share = args.seconds / DEPLOYMENTS
    crash_at = shards_crash_index(share)
    setups: list[tuple[float, float]] = []
    blocks: list[dict] = []
    scales: list[float] = []
    outcome = Tally()
    count = max(1, round(share / BLOCK_S))
    length = share / count
    reads = writes = beyond_p99 = 0
    record["blocks"] = {"calls": [], "steal_ticks": []}
    for _ in range(DEPLOYMENTS):
        session = build(session_cls, args, crash_at, setups, outcome)
        calls, steals = [], []
        try:
            session.warmup()
            for _ in range(count):
                steal = steal_ticks()
                (tally, wall), scale = gauged(lambda: timed_block(session, length))
                blocks.append(block_metrics(tally, wall))
                scales.append(scale)
                calls.append(tally.calls)
                steals.append(steal_ticks() - steal)
                reads, writes = reads + len(tally.reads), writes + len(tally.writes)
                beyond_p99 += beyond(tally.reads, 0.99) + beyond(tally.writes, 0.99)
                # Keep the counts, not the samples: the benchmark's own
                # memory would otherwise grow with throughput and show in
                # peak_rss_mb.
                tally.reads, tally.writes = [], []
                outcome.merge(tally)
            session.verify()
            record.setdefault("crash_fired", []).append(getattr(session, "crashed", None))
        finally:
            session.close()
        outcome.merge(session.tally)
        record["blocks"]["calls"].append(calls)
        record["blocks"]["steal_ticks"].append(steals)
    record["samples"] = {"reads": reads, "writes": writes}
    # Samples that lie above their block's p99, over reads and writes.
    record["beyond_block_p99"] = beyond_p99
    record["setups_s"] = [setup for setup, _ in setups]
    record["host_scale"] = {
        "blocks": statistics.median(scales),
        "setups": statistics.median(scale for _, scale in setups),
    }
    # The values as measured, before scaling to the reference host.
    record["measured"] = dict(
        median_over_blocks(blocks), setup_s=statistics.median(record["setups_s"])
    )
    metrics = median_over_blocks(blocks, scales)
    metrics["setup_s"] = statistics.median(setup * scale for setup, scale in setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, outcome


def cactus_raises(session) -> int:
    """Client plus server event raises so far (no outside boundary exists)."""
    return sum(
        sum(composite.event_stats().values()) for composite in session.composites()
    )


def run_traced(session_cls, args, record: dict) -> tuple[dict, Tally]:
    share = args.seconds / 3
    recorder = Recorder()
    crash_at = shards_crash_index(share)
    plain = session_cls(args.seed, crash_at=crash_at)
    traced = session_cls(args.seed, recorder=recorder, crash_at=crash_at)
    calibration = Calibration(args.seed)
    untraced_tally, traced_tally, calibration_tally = Tally(), Tally(), Tally()
    untraced_wall = untraced_cpu = 0.0
    raises = 0
    try:
        plain.warmup()
        traced.warmup()
        calibration.tally.merge(calibration.run_block(0.2))
        elapsed = 0.0
        while elapsed < share:
            block = min(TRACE_BLOCK_S, share - elapsed)
            wall0, cpu0 = time.perf_counter(), time.process_time()
            untraced_tally.merge(plain.run_block(block))
            untraced_wall += time.perf_counter() - wall0
            untraced_cpu += time.process_time() - cpu0

            raises0 = cactus_raises(traced)
            recorder.active = True
            with recorder.patch_des():
                traced_tally.merge(traced.run_block(block))
            recorder.active = False
            raises += cactus_raises(traced) - raises0

            calibration_tally.merge(calibration.run_block(block))
            elapsed += block
        counts = dict(recorder.counts)
        layers = recorder.layer_medians()
        client_wait_us = statistics.median(recorder.client_wait) / 1000.0
        # The final read-back of every account also settles any failover
        # the crash left pending, so the failed-attempt count is complete.
        recorder.active = True
        traced.verify()
        recorder.active = False
        plain.verify()
        record["crash_fired"] = getattr(traced, "crashed", None)
    finally:
        recorder.active = False
        for session in (plain, traced, calibration):
            session.close()

    calls = traced_tally.calls
    sends = counts["wire_sends"]
    untraced_read = percentile(untraced_tally.reads, 0.5)
    traced_read = percentile(traced_tally.reads, 0.5)
    first_calls = plain.first_calls + traced.first_calls
    metrics = {
        "core.stub.self_us": layers.get("core.stub.self_us", 0.0),
        "cactus.raises_per_call": raises / calls,
        "marshal.self_us": layers.get("marshal.self_us", 0.0),
        "net.call_us": layers.get("net.call_us", 0.0),
        "net.frames_per_call": counts["frames"] / calls,
        "net.bytes_per_call": counts["bytes"] / calls,
        "core.platform.attempts_per_call": sends / calls,
        "core.platform.useful_ratio": calls / sends,
        "core.platform.failed_attempts": recorder.counts["wire_failures"],
        "core.skeleton.self_us": layers.get("core.skeleton.self_us", 0.0),
        "crypto.des_us_per_call": counts.get("des_ns", 0) / 1000.0 / calls,
        "core.routing.first_call_us": statistics.median(first_calls) / 1000.0,
        "client.wait_us": client_wait_us,
        "process.cpu_us_per_call": untraced_cpu * 1e6 / untraced_tally.calls,
        "process.cpu_util": untraced_cpu / (untraced_wall * (os.cpu_count() or 1)),
        "servant.us": layers.get("servant.us", 0.0),
        "calibration.plain_call_p50_us": us(
            percentile(calibration_tally.reads + calibration_tally.writes, 0.5)
        ),
        "tracing.overhead_pct": (traced_read - untraced_read) / untraced_read * 100.0,
    }
    record["samples"] = {
        "untraced_calls": untraced_tally.calls,
        "traced_calls": calls,
        "calibration_calls": calibration_tally.calls,
    }
    outcome = Tally()
    for tally in (plain.tally, traced.tally, calibration.tally,
                  untraced_tally, traced_tally, calibration_tally):
        outcome.merge(tally)
    return metrics, outcome


UNITS = {
    "read_p50_us": "us", "read_p99_us": "us", "write_p50_us": "us",
    "write_p99_us": "us", "calls_per_s": "1/s", "setup_s": "s",
    "peak_rss_mb": "MiB",
    "core.stub.self_us": "us", "cactus.raises_per_call": "count",
    "marshal.self_us": "us", "net.call_us": "us",
    "net.frames_per_call": "count", "net.bytes_per_call": "B",
    "core.platform.attempts_per_call": "count",
    "core.platform.useful_ratio": "ratio",
    "core.platform.failed_attempts": "count",
    "core.skeleton.self_us": "us", "crypto.des_us_per_call": "us",
    "core.routing.first_call_us": "us", "client.wait_us": "us",
    "process.cpu_us_per_call": "us", "process.cpu_util": "ratio",
    "servant.us": "us", "calibration.plain_call_p50_us": "us",
    "tracing.overhead_pct": "%",
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    env = cqos_environment()
    if env:
        # Engine, dispatch and gather knobs would silently change what is
        # measured; a run is only comparable with none of them set.
        print(f"perfbench: refusing to run with CQOS_* set: {env}", file=sys.stderr)
        return 2

    session_cls = WORKLOADS[args.workload]
    record = run_record(args, session_cls)
    runner = run_traced if args.trace else run_end_to_end
    steal = steal_ticks()
    metrics, outcome = runner(session_cls, args, record)
    record["steal_s"] = (steal_ticks() - steal) / os.sysconf("SC_CLK_TCK")

    correct = outcome.failed == 0 and all(
        value is not None for value in metrics.values()
    )
    record["failed_ratio"] = outcome.failed / outcome.attempted
    record["errors"] = outcome.errors
    print(f"# record {json.dumps(record, sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{args.workload:14s} {name:34s} {value!r:>24} {UNITS[name]}")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
