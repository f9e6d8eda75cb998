"""Unit tests for the client's replica-health table (``ReplicaDirectory``).

The directory is the one record of each replica's liveness and reply-latency
EWMA; these pin its ranking, EWMA arithmetic, fault reactions, and the
recovery path through ``bind()``.
"""

import pytest

from repro.core.routing import ReplicaDirectory
from repro.idl.compiler import IdlRemoteException
from repro.util.errors import CommunicationError, ServerFailedError, TimeoutError_


def make_table() -> ReplicaDirectory:
    return ReplicaDirectory(name_for=str, resolve=lambda name: name)


class TestRankServers:
    def test_measured_fastest_first(self):
        table = make_table()
        for replica, seconds in ((1, 0.03), (2, 0.01), (3, 0.02)):
            table.record_latency(replica, seconds)
        assert table.rank_servers([1, 2, 3]) == (2, 3, 1)

    def test_unmeasured_follow_in_incoming_order(self):
        table = make_table()
        table.record_latency(4, 0.05)
        table.record_latency(2, 0.01)
        assert table.rank_servers([5, 4, 3, 2, 1]) == (2, 4, 5, 3, 1)

    def test_no_measurements_keeps_incoming_order(self):
        assert make_table().rank_servers([3, 1, 2]) == (3, 1, 2)

    def test_only_candidates_are_ranked(self):
        table = make_table()
        table.record_latency(1, 0.01)
        assert table.rank_servers([2, 3]) == (2, 3)
        assert table.rank_servers([]) == ()

    def test_equal_latencies_keep_incoming_order(self):
        table = make_table()
        table.record_latency(1, 0.01)
        table.record_latency(2, 0.01)
        assert table.rank_servers([2, 1]) == (2, 1)


class TestLatencyEwma:
    def test_first_sample_seeds_then_alpha_smooths(self):
        table = make_table()
        table.record_latency(1, 0.10)
        assert table.latencies() == {1: 0.10}
        table.record_latency(1, 0.20)
        alpha = ReplicaDirectory.LATENCY_ALPHA
        assert table.latencies()[1] == pytest.approx(0.10 + alpha * 0.10)

    def test_communication_fault_penalises_a_measured_replica(self):
        table = make_table()
        table.record_latency(1, 0.01)
        table.apply_fault(1, TimeoutError_("slow"))
        assert table.latencies()[1] == pytest.approx(0.01 * ReplicaDirectory.FAILURE_PENALTY)
        table.apply_fault(2, TimeoutError_("slow"))
        assert 2 not in table.latencies()  # nothing to penalise yet

    def test_application_outcome_is_not_penalised(self):
        table = make_table()
        table.record_latency(1, 0.01)
        table.apply_fault(1, IdlRemoteException())
        assert table.latencies() == {1: 0.01}
        assert table.status(1)


class TestLiveness:
    def test_mark_failed_until_bind(self):
        table = make_table()
        table.mark_failed(2)
        assert [table.status(r) for r in (1, 2)] == [True, False]
        table.bind(2)
        assert table.status(2)

    def test_server_failed_fault_marks_and_transient_does_not(self):
        table = make_table()
        assert table.apply_fault(1, ServerFailedError("down")) == "mark_failed"
        assert table.apply_fault(2, CommunicationError("lost")) == "drop_binding"
        assert [table.status(r) for r in (1, 2)] == [False, True]

    def test_faults_drop_the_binding(self):
        resolved = []
        table = ReplicaDirectory(name_for=str, resolve=lambda name: resolved.append(name) or name)
        table.endpoint(1)
        table.apply_fault(1, CommunicationError("lost"))
        table.endpoint(1)
        assert resolved == ["1", "1"]

    def test_refresh_clears_marks_but_keeps_latency(self):
        table = make_table()
        table.record_latency(1, 0.01)
        table.mark_failed(1)
        table.refresh()
        assert table.status(1)
        assert table.latencies() == {1: 0.01}
