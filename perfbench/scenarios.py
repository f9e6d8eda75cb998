"""The three workloads: deployments, seeded closed-loop traffic and checks.

Every workload drives the bank application (``repro.apps.bank``) through
CQoS stubs in a closed loop: each client thread sends its next call only
after the previous one returned.  Each call is checked as it returns, and a
final check reads the whole state back; a call that raised or returned a
wrong value counts as failed and enters the latency samples as infinitely
slow, so no failure leaves the percentiles looking better.

Why each workload exists is recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import itertools
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from benchmarks.workloads import zipf_iter
from repro.apps.bank import BankAccount, bank_compiled, bank_interface
from repro.core.routing import Placement
from repro.core.service import CqosDeployment
from repro.net.memory import InMemoryNetwork
from repro.net.tcp import TcpNetwork
from repro.qos import (
    ActiveRep,
    DesPrivacy,
    DesPrivacyServer,
    MajorityVote,
    PassiveRep,
    PassiveRepServer,
    TotalOrder,
)

from perfbench.tracing import Recorder, SpanObserver, TracingNetwork

FAILED = float("inf")

DES_KEY_HEX = "0123456789abcdef"

#: Calls each client makes before timing starts, so lazy per-operation
#: caches (marshalling plans, dispatch plans, pooled connections) are warm.
WARMUP_CALLS = 100

#: secure_shards crashes a primary halfway through the calls a deployment
#: would make at this nominal rate (below today's ~550 calls/s, so the
#: crash still fires on a slowed host).  A fixed rate puts the crash on the
#: same call index on every run of a given length.
SHARDS_NOMINAL_CALLS_PER_S = 400
SHARDS_ACCOUNTS = 64


@dataclass
class Tally:
    """Latency samples (ns) and outcome counts of one phase of traffic."""

    reads: list[float] = field(default_factory=list)
    writes: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def calls(self) -> int:
        return len(self.reads) + len(self.writes)

    def merge(self, other: "Tally") -> None:
        self.reads += other.reads
        self.writes += other.writes
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def timed_call(tally: Tally, samples: list, call: Callable[[], Any], check: Callable[[Any], str | None]) -> Any:
    """Run one call, check its value and record its latency in ``samples``."""
    tally.attempted += 1
    start = time.perf_counter_ns()
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - every failure is counted, not raised
        samples.append(FAILED)
        tally.fail(f"{type(exc).__name__}: {exc}")
        return None
    elapsed = time.perf_counter_ns() - start
    problem = check(value)
    if problem is not None:
        samples.append(FAILED)
        tally.fail(problem)
    else:
        samples.append(elapsed)
    return value


def checked(tally: Tally, call: Callable[[], Any], check: Callable[[Any], str | None]) -> None:
    """Run one untimed call (set-up, warm-up, final check) and check it."""
    timed_call(tally, [], call, check)


def expect(expected: Any) -> Callable[[Any], str | None]:
    return lambda value: None if value == expected else f"expected {expected!r}, got {value!r}"


class Session:
    """One deployment of a workload, ready to run timed blocks of traffic.

    Construction is the set-up ``setup_s`` measures: from network
    construction to the first successful call on every stub.
    """

    name = ""
    platform = ""
    transport = ""
    clients = 1

    def __init__(self, seed: int, recorder: Recorder | None = None, crash_at: int | None = None):
        self.seed = seed
        self.recorder = recorder
        self.crash_at = crash_at
        self.tally = Tally()
        #: Wall time (ns) of the first call on each fresh stub.
        self.first_calls: list[int] = []
        self.observers = [SpanObserver(recorder)] if recorder is not None else None
        start = time.perf_counter()
        network = self.make_network()
        if recorder is not None:
            network = TracingNetwork(network, recorder)
        self.deployment = CqosDeployment(
            network, platform=self.platform, compiled=bank_compiled()
        )
        try:
            self.stubs = self.deploy()
            for stub in self.stubs:
                self._first_call(stub)
        except BaseException:
            self.deployment.close()
            raise
        self.setup_s = time.perf_counter() - start

    def _first_call(self, stub) -> None:
        start = time.perf_counter_ns()
        checked(self.tally, stub.get_balance, expect(0.0))
        self.first_calls.append(time.perf_counter_ns() - start)

    # -- per-workload surface ------------------------------------------------

    def make_network(self):
        raise NotImplementedError

    def deploy(self) -> list:
        raise NotImplementedError

    def client_loop(
        self, client: int, deadline: float | None, tally: Tally, limit: int | None = None
    ) -> None:
        """One client's closed loop until ``deadline`` or for ``limit`` calls."""
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    # -- driving ---------------------------------------------------------------

    def warmup(self) -> None:
        for client in range(self.clients):
            self.client_loop(client, None, self.tally, limit=WARMUP_CALLS)

    def run_block(self, seconds: float) -> Tally:
        """Closed-loop traffic from every client thread for ``seconds``."""
        deadline = time.perf_counter() + seconds
        tallies = [Tally() for _ in range(self.clients)]
        if self.clients == 1:
            self.client_loop(0, deadline, tallies[0])
        else:
            threads = [
                threading.Thread(
                    target=self.client_loop, args=(client, deadline, tallies[client]),
                    name=f"perfbench-client-{client}",
                )
                for client in range(self.clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=seconds + 120)
                if thread.is_alive():
                    raise RuntimeError(f"{thread.name} did not finish its block")
        block = Tally()
        for tally in tallies:
            block.merge(tally)
        return block

    def composites(self) -> list:
        """Every Cactus composite of this deployment (client and server)."""
        return list(self.deployment._cactus)

    def close(self) -> None:
        self.deployment.close()


class Interception(Session):
    """CORBA, in memory, ServerBase + ClientBase only: Table 1's top rung."""

    name = "interception"
    transport = "memory"
    platform = "corba"

    def make_network(self):
        return InMemoryNetwork()

    def deploy(self) -> list:
        iface = bank_interface()
        self.deployment.add_replicas("acct", BankAccount, iface, observers=self.observers)
        self._rng = random.Random(self.seed)
        return [self.deployment.client_stub("acct", iface, observers=self.observers)]

    def client_loop(self, client, deadline, tally, limit=None) -> None:
        stub, rng = self.stubs[0], self._rng
        calls = itertools.count() if limit is None else range(limit // 2)
        for _ in calls:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            # Quarter-units are exact in binary, so equality is the check.
            value = rng.randrange(1, 4_000_000) / 4
            timed_call(tally, tally.writes, lambda: stub.set_balance(value), expect(None))
            timed_call(tally, tally.reads, stub.get_balance, expect(value))

    def verify(self) -> None:
        pass  # every read already checked the write before it


class Replicated(Session):
    """RMI over loopback TCP, ActiveRep + MajorityVote / TotalOrder, 3 replicas."""

    name = "replicated"
    transport = "tcp"
    platform = "rmi"
    clients = 2

    def make_network(self):
        return TcpNetwork()

    def deploy(self) -> list:
        iface = bank_interface()
        self.deployment.add_replicas(
            "acct", BankAccount, iface, replicas=3,
            server_micro_protocols=lambda: [TotalOrder()], observers=self.observers,
        )
        self._floors = [0.0] * self.clients
        self._deposits = [0] * self.clients
        return [
            self.deployment.client_stub(
                "acct", iface,
                client_micro_protocols=lambda: [ActiveRep(), MajorityVote()],
                observers=self.observers,
            )
            for _ in range(self.clients)
        ]

    def client_loop(self, client, deadline, tally, limit=None) -> None:
        stub = self.stubs[client]

        # Under total order a client sees its own deposits and never an
        # older balance than it saw before.
        def deposit_check(value):
            if not isinstance(value, float) or value < self._floors[client] + 1:
                return f"deposit returned {value!r} after seeing {self._floors[client]}"
            self._floors[client] = value
            return None

        def read_check(value):
            if not isinstance(value, float) or value < self._floors[client]:
                return f"read {value!r} after seeing {self._floors[client]}"
            self._floors[client] = value
            return None

        calls = itertools.count() if limit is None else range(limit // 2)
        for _ in calls:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            self._deposits[client] += 1
            timed_call(tally, tally.writes, lambda: stub.deposit(1.0), deposit_check)
            timed_call(tally, tally.reads, stub.get_balance, read_check)

    def verify(self) -> None:
        checked(self.tally, self.stubs[0].get_balance, expect(float(sum(self._deposits))))


class SecureShards(Session):
    """HTTP, in memory, 64 sharded accounts, PassiveRep + DES, one crash."""

    name = "secure_shards"
    transport = "memory"
    platform = "http"

    def make_network(self):
        return InMemoryNetwork()

    def deploy(self) -> list:
        iface = bank_interface()
        self.space = self.deployment.shard_space({"g1": 1, "g2": 1, "g3": 1})
        placement = Placement(replication_factor=2, policy="spread")
        self.accounts = [f"acct-{k:02d}" for k in range(SHARDS_ACCOUNTS)]
        for account in self.accounts:
            self.space.add_object(
                account, BankAccount, iface, placement=placement,
                server_micro_protocols=lambda: [
                    PassiveRepServer(), DesPrivacyServer(key_hex=DES_KEY_HEX)
                ],
                observers=self.observers,
            )
        # The crash target is fixed: the primary of the hottest account.
        self.crash_member = self.space.view().assignments(self.accounts[0])[0][1]
        self.crashed = False
        self._expected = [0.0] * SHARDS_ACCOUNTS
        self._keys = zipf_iter(SHARDS_ACCOUNTS, seed=self.seed)
        self._index = 0
        return [
            self.space.client_stub(
                account, iface,
                client_micro_protocols=lambda: [PassiveRep(), DesPrivacy(key_hex=DES_KEY_HEX)],
                observers=self.observers,
            )
            for account in self.accounts
        ]

    def client_loop(self, client, deadline, tally, limit=None) -> None:
        expected, keys = self._expected, self._keys
        calls = itertools.count() if limit is None else range(limit)
        for _ in calls:
            if deadline is not None and time.perf_counter() >= deadline:
                return
            if self._index == self.crash_at:
                self.space.crash_member(self.crash_member)
                self.crashed = True
            key = next(keys)
            stub = self.stubs[key]
            if self._index % 2 == 0:
                expected[key] += 1.0
                timed_call(tally, tally.writes, lambda: stub.deposit(1.0), expect(expected[key]))
            else:
                timed_call(tally, tally.reads, stub.get_balance, expect(expected[key]))
            self._index += 1

    def verify(self) -> None:
        for stub, balance in zip(self.stubs, self._expected):
            checked(self.tally, stub.get_balance, expect(balance))


class Calibration:
    """The plain CORBA stub against a plain servant, in memory.

    The reference rung: no CQoS code runs, so its latency moves only with
    the host and the platform underneath.
    """

    def __init__(self, seed: int):
        self.tally = Tally()
        self.deployment = CqosDeployment(InMemoryNetwork(), "corba", bank_compiled())
        iface = bank_interface()
        self.deployment.deploy_plain_replica("plain", BankAccount(), iface)
        self.stub = self.deployment.plain_stub("plain", iface)
        self._rng = random.Random(seed)

    def run_block(self, seconds: float) -> Tally:
        tally, stub, rng = Tally(), self.stub, self._rng
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            value = rng.randrange(1, 4_000_000) / 4
            timed_call(tally, tally.writes, lambda: stub.set_balance(value), expect(None))
            timed_call(tally, tally.reads, stub.get_balance, expect(value))
        return tally

    def close(self) -> None:
        self.deployment.close()


WORKLOADS: dict[str, type[Session]] = {
    cls.name: cls for cls in (Interception, Replicated, SecureShards)
}


def shards_crash_index(timed_seconds: float) -> int:
    """The call index at which secure_shards crashes its primary."""
    return WARMUP_CALLS + int(SHARDS_NOMINAL_CALLS_PER_S * timed_seconds / 2)
