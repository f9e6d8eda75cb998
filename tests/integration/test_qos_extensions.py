"""Integration tests for the extension micro-protocols package."""

import threading
import time

import pytest

from repro.apps.bank import BankAccount, bank_interface
from repro.qos.extensions import AdmissionControl, ClientCache, LoadBalance, LoadReporter
from repro.qos.extensions.admission import AdmissionRejectedError, RateLimiter
from repro.qos.timeliness import HIGH_PRIORITY, LOW_PRIORITY
from repro.util.clock import VirtualClock
from repro.util.errors import CommunicationError


class TestLoadBalance:
    def test_spreads_across_replicas(self, deployment):
        counters = []

        class CountingAccount(BankAccount):
            def __init__(self):
                super().__init__()
                self.calls = 0
                counters.append(self)

            def get_balance(self):
                self.calls += 1
                return super().get_balance()

        deployment.add_replicas(
            "acct",
            CountingAccount,
            bank_interface(),
            replicas=3,
            server_micro_protocols=lambda: [LoadReporter()],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [LoadBalance(poll_interval=10.0)],
        )
        for _ in range(30):
            stub.get_balance()
        # The optimistic counter spreads a burst: every replica sees work.
        assert all(account.calls > 0 for account in counters), [
            account.calls for account in counters
        ]

    def test_routes_around_replica_dead_before_first_reply(self, deployment):
        """A replica that never replied is not explored once found dead.

        Without a latency sample the replica counts as cold, and cold
        replicas are explored first: unless selection reads the platform's
        liveness, every call after the first two lands on the dead one.
        """
        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            replicas=3,
            server_micro_protocols=lambda: [LoadReporter()],
        )
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [LoadBalance(poll_interval=10.0)],
        )
        deployment.crash_replica("acct", 3)
        failures = []
        for _ in range(50):
            try:
                assert stub.get_balance() == 0.0
            except CommunicationError as exc:
                failures.append(exc)
        assert not failures, f"{len(failures)} of 50 calls failed: {failures[0]!r}"
        assert not stub.cactus_client.platform.server_status(3)

    def test_prefers_idle_replica(self, deployment):
        gate = threading.Event()
        entered = threading.Event()
        instances = []

        class SlowFirst(BankAccount):
            def __init__(self):
                super().__init__()
                instances.append(self)

            def owner(self):
                # Only replica 1's servant blocks.
                if instances.index(self) == 0:
                    entered.set()
                    gate.wait(10.0)
                return super().owner()

        deployment.add_replicas(
            "acct",
            SlowFirst,
            bank_interface(),
            replicas=2,
            server_micro_protocols=lambda: [LoadReporter()],
        )
        blocker = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [LoadBalance(poll_interval=0.0)],
        )
        thread = threading.Thread(target=blocker.owner)
        thread.start()
        assert entered.wait(10.0)
        try:
            light = deployment.client_stub(
                "acct",
                bank_interface(),
                client_micro_protocols=lambda: [LoadBalance(poll_interval=0.0)],
            )
            # Replica 1 has one in-flight request; the balancer must pick 2.
            assert light.get_balance() == 0.0
            client = light.cactus_client
            balancer: LoadBalance = client.micro_protocol("LoadBalance")
            assert balancer.known_loads()[1] >= 1
        finally:
            gate.set()
            thread.join(10.0)


class TestClientCache:
    def test_reads_served_locally(self, deployment, network):
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [ClientCache(read_operations=["get_balance"])],
        )
        stub.set_balance(5.0)
        assert stub.get_balance() == 5.0  # miss, populates
        before = network.message_count
        for _ in range(10):
            assert stub.get_balance() == 5.0
        assert network.message_count == before  # all hits, zero messages
        cache: ClientCache = stub.cactus_client.micro_protocol("ClientCache")
        assert cache.hits == 10

    def test_writes_invalidate(self, deployment):
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [ClientCache(read_operations=["get_balance"])],
        )
        stub.set_balance(5.0)
        assert stub.get_balance() == 5.0
        stub.deposit(1.0)  # write clears the cache
        assert stub.get_balance() == 6.0  # fresh read, correct value

    def test_ttl_expiry(self, deployment):
        deployment.add_replicas("acct", BankAccount, bank_interface())
        stub = deployment.client_stub(
            "acct",
            bank_interface(),
            client_micro_protocols=lambda: [
                ClientCache(read_operations=["get_balance"], ttl=0.05)
            ],
        )
        stub.set_balance(5.0)
        stub.get_balance()
        # Another client writes behind this client's back.
        other = deployment.client_stub("acct", bank_interface())
        other.set_balance(9.0)
        assert stub.get_balance() == 5.0  # stale but within ttl
        time.sleep(0.08)
        assert stub.get_balance() == 9.0  # ttl expired -> real read


class TestAdmissionControl:
    def test_rate_limiter_unit(self):
        clock = VirtualClock()
        limiter = RateLimiter(rate=10.0, capacity=2.0, clock=clock)
        assert limiter.try_acquire()
        assert limiter.try_acquire()
        assert not limiter.try_acquire()  # bucket empty
        clock.advance(0.1)  # refills one token
        assert limiter.try_acquire()
        assert not limiter.try_acquire()

    def test_rate_limiter_validation(self):
        with pytest.raises(ValueError):
            RateLimiter(rate=0, capacity=1, clock=VirtualClock())

    def test_concurrency_shedding(self, deployment):
        gate = threading.Event()
        entered = threading.Event()

        class Slow(BankAccount):
            def owner(self):
                entered.set()
                gate.wait(10.0)
                return super().owner()

        deployment.add_replicas(
            "acct",
            Slow,
            bank_interface(),
            server_micro_protocols=lambda: [
                AdmissionControl(max_concurrent=1, exempt_high_priority=False)
            ],
        )
        first = deployment.client_stub("acct", bank_interface())
        thread = threading.Thread(target=first.owner)
        thread.start()
        assert entered.wait(10.0)
        try:
            second = deployment.client_stub("acct", bank_interface())
            # The shed rehydrates to the real wire-safe error client-side.
            with pytest.raises(AdmissionRejectedError, match="admission"):
                second.get_balance()
        finally:
            gate.set()
            thread.join(10.0)
        # Capacity released: subsequent requests are admitted again.
        third = deployment.client_stub("acct", bank_interface())
        assert third.get_balance() == 0.0

    def test_high_priority_exempt(self, deployment):
        def policy(request):
            return HIGH_PRIORITY if request.client_id == "vip" else LOW_PRIORITY

        deployment.add_replicas(
            "acct",
            BankAccount,
            bank_interface(),
            server_micro_protocols=lambda: [
                AdmissionControl(max_rate=0.000001, burst=0.000001)
            ],
            priority_policy=policy,
        )
        vip = deployment.client_stub("acct", bank_interface(), client_id="vip")
        pleb = deployment.client_stub("acct", bank_interface(), client_id="pleb")
        assert vip.get_balance() == 0.0  # exempt from the empty bucket
        with pytest.raises(AdmissionRejectedError, match="admission"):
            pleb.get_balance()
