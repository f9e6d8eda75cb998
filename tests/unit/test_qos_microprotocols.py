"""Focused unit tests for QoS micro-protocol logic on fake platforms.

Integration tests cover end-to-end behaviour; these pin the handler-level
mechanics: which events fire, what gets overridden, what state changes.
"""

import threading
import time

import pytest

from repro.cactus.events import ORDER_LAST
from repro.core.client import CactusClient
from repro.core.events import (
    EV_INVOKE_FAILURE,
    EV_INVOKE_SUCCESS,
    EV_NEW_REQUEST,
    EV_READY_TO_SEND,
)
from repro.core.request import Reply, Request
from repro.core.server import CactusServer
from repro.qos import (
    ActiveRep,
    FirstSuccess,
    MajorityVote,
    PassiveRep,
    Retransmit,
)
from repro.qos.base import ClientBase
from repro.util.errors import CommunicationError, ServerFailedError
from tests.unit.test_core_components import FakeClientPlatform, FakeServerPlatform


def make_client(platform, extra):
    return CactusClient.with_base(platform, extra, request_timeout=5.0)


def run_request(client, operation="echo", params=("v",)):
    request = Request("obj", operation, list(params))
    result = client.cactus_request(request)
    return request, result


class TestActiveRepMechanics:
    def test_scatter_bindings(self):
        platform = FakeClientPlatform(servers=3)
        client = make_client(platform, [ActiveRep()])
        try:
            # One scatter assigner + the base assigner (the fan-out happens
            # per-request now, not as per-replica bindings).
            new_request = client.event(EV_NEW_REQUEST).bindings()
            assert [b.handler.__name__ for b in new_request] == ["act_assigner", "assigner"]
            # The pipelined submitter overrides the base syncInvoker.
            ready = client.event(EV_READY_TO_SEND).bindings()
            assert [b.handler.__name__ for b in ready] == ["submit_invoker", "sync_invoker"]
            assert ready[0].order < ORDER_LAST
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_all_replicas_invoked_base_overridden(self):
        platform = FakeClientPlatform(servers=3)
        client = make_client(platform, [ActiveRep()])
        try:
            request, _ = run_request(client)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and len(platform.invocations) < 3:
                time.sleep(0.01)
            servers = sorted(s for s, _, _ in platform.invocations)
            assert servers == [1, 2, 3]  # base assigner would add a 4th
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_explicit_num_servers_override(self):
        platform = FakeClientPlatform(servers=5)
        client = make_client(platform, [ActiveRep(num_servers=2)])
        try:
            run_request(client)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and len(platform.invocations) < 2:
                time.sleep(0.01)
            time.sleep(0.05)
            assert sorted(s for s, _, _ in platform.invocations) == [1, 2]
        finally:
            client.shutdown()
            client.runtime.shutdown()


class TestAcceptanceMechanics:
    def test_first_success_ignores_early_failure(self):
        platform = FakeClientPlatform(servers=2)
        platform.fail_servers.add(1)
        client = make_client(platform, [ActiveRep(), FirstSuccess()])
        try:
            request, result = run_request(client)
            assert result == "v"
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_majority_requires_two_of_three(self):
        # Drive the decision handler directly with crafted replies.
        platform = FakeClientPlatform(servers=3)
        client = make_client(platform, [MajorityVote()])
        try:
            vote: MajorityVote = client.micro_protocol("MajorityVote")
            request = Request("obj", "op", [])
            request.add_reply(Reply(server=1, value="a"))
            client.raise_event(
                EV_INVOKE_SUCCESS, request, 1, Reply(server=1, value="a")
            )
            assert not request.completed  # one vote is not a majority
            request.add_reply(Reply(server=2, value="a"))
            client.raise_event(
                EV_INVOKE_SUCCESS, request, 2, Reply(server=2, value="a")
            )
            assert request.completed
            assert request.wait(1.0) == "a"
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_majority_distinguishes_values(self):
        platform = FakeClientPlatform(servers=3)
        client = make_client(platform, [MajorityVote()])
        try:
            request = Request("obj", "op", [])
            for server, value in ((1, "x"), (2, "y")):
                request.add_reply(Reply(server=server, value=value))
                client.raise_event(
                    EV_INVOKE_SUCCESS, request, server, Reply(server=server, value=value)
                )
            assert not request.completed  # split 1-1, no majority yet
            request.add_reply(Reply(server=3, value="y"))
            client.raise_event(
                EV_INVOKE_SUCCESS, request, 3, Reply(server=3, value="y")
            )
            assert request.wait(1.0) == "y"
        finally:
            client.shutdown()
            client.runtime.shutdown()


class TestPassiveRepMechanics:
    def test_primary_skips_known_failed(self):
        platform = FakeClientPlatform(servers=3)
        client = make_client(platform, [PassiveRep()])
        try:
            platform.mark_failed(1)
            run_request(client)
            assert platform.invocations[0][0] == 2
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_failover_marks_and_retries(self):
        platform = FakeClientPlatform(servers=2)
        platform.fail_servers.add(1)
        client = make_client(platform, [PassiveRep()])
        try:
            request, result = run_request(client)
            assert result == "v"
            assert [platform.server_status(s) for s in (1, 2)] == [False, True]
            # Attempted 1 (failed), then 2.
            assert [s for s, _, _ in platform.invocations] == [1, 2]
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_all_failed_raises(self):
        platform = FakeClientPlatform(servers=2)
        platform.fail_servers.update({1, 2})
        client = make_client(platform, [PassiveRep()])
        try:
            with pytest.raises(ServerFailedError):
                run_request(client)
        finally:
            client.shutdown()
            client.runtime.shutdown()


class TestRetransmitMechanics:
    class FlakyPlatform(FakeClientPlatform):
        def __init__(self, fail_first_n):
            super().__init__(servers=1)
            self.remaining_failures = fail_first_n

        def invoke_server(self, server, request):
            self.invocations.append((server, request.operation, list(request.get_params())))
            if self.remaining_failures > 0:
                self.remaining_failures -= 1
                raise CommunicationError("flaky")
            return "ok"

    def test_retries_until_success(self):
        platform = self.FlakyPlatform(fail_first_n=2)
        client = make_client(platform, [Retransmit(max_attempts=3)])
        try:
            request, result = run_request(client, operation="op", params=())
            assert result == "ok"
            assert len(platform.invocations) == 3
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_attempt_budget_respected(self):
        platform = self.FlakyPlatform(fail_first_n=10)
        client = make_client(platform, [Retransmit(max_attempts=3)])
        try:
            with pytest.raises(CommunicationError):
                run_request(client, operation="op", params=())
            assert len(platform.invocations) == 3
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_server_failed_not_retried(self):
        platform = FakeClientPlatform(servers=1)
        platform.fail_servers.add(1)

        original = platform.invoke_server

        def failing(server, request):
            original(server, request)

        platform.invoke_server = failing
        client = make_client(platform, [Retransmit(max_attempts=5)])
        try:
            # FakeClientPlatform raises plain CommunicationError; swap in a
            # ServerFailedError via the scripted set + custom platform:
            class Dead(FakeClientPlatform):
                def invoke_server(self, server, request):
                    self.invocations.append((server, request.operation, []))
                    raise ServerFailedError("host down")

            dead = Dead(servers=1)
            client2 = make_client(dead, [Retransmit(max_attempts=5)])
            try:
                with pytest.raises(ServerFailedError):
                    run_request(client2, operation="op", params=())
                assert len(dead.invocations) == 1  # no retry on dead host
            finally:
                client2.shutdown()
                client2.runtime.shutdown()
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_invalid_max_attempts(self):
        with pytest.raises(ValueError):
            Retransmit(max_attempts=0)


class TestBaseHandlersAreLast:
    def test_client_base_orders(self):
        platform = FakeClientPlatform()
        client = make_client(platform, [])
        try:
            for event in (EV_NEW_REQUEST, EV_READY_TO_SEND, EV_INVOKE_SUCCESS, EV_INVOKE_FAILURE):
                orders = [b.order for b in client.event(event).bindings()]
                assert orders and all(o == ORDER_LAST for o in orders), event
        finally:
            client.shutdown()
            client.runtime.shutdown()

    def test_server_request_priority_default(self):
        platform = FakeServerPlatform()
        server = CactusServer.with_base(platform)
        try:
            request = Request("obj", "poke", [])
            server.cactus_invoke(request)
            assert request.priority == 5
        finally:
            server.shutdown()
            server.runtime.shutdown()
