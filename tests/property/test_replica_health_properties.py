"""Property: every QoS protocol sees one replica-health table.

After any random sequence of failure marks, binds, crashes and restarts,
probes, invocations, latency samples and directory-view bumps on one client
platform, the protocols that choose replicas must agree with the platform's
``server_status()`` and latency ranking — and with a plain model of the
table:

- ``ClientBase.assigner`` sends to the first live replica;
- ``PassiveRep._pick_primary`` picks that same replica;
- ``LoadBalance.candidates`` is the live set, fastest first;
- ``ActiveRep._replicas`` puts the live replicas in that same order;
- ``FailureDetector`` reports exactly the replicas not live.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cactus.composite import MicroProtocol
from repro.cactus.events import ORDER_FIRST, Occurrence
from repro.core.client import CactusClient
from repro.core.events import EV_READY_TO_SEND
from repro.core.platform import BaseClientPlatform
from repro.core.request import Request
from repro.core.routing import DirectoryView, Placement, ServerGroup, ShardRouter
from repro.qos import ActiveRep, PassiveRep
from repro.qos.base import ClientBase
from repro.qos.extensions import LoadBalance
from repro.qos.fault_tolerance import FailureDetector
from repro.util.errors import CommunicationError, ServerFailedError

REPLICAS = (1, 2, 3)


class ScriptedPlatform(BaseClientPlatform):
    """A client platform whose wire answers from a set of running replicas.

    Endpoints are the logical replica numbers; a send to a replica that is
    not running raises ServerFailedError, as a crashed host does.
    """

    def __init__(self, router: ShardRouter | None = None):
        self.running = set(REPLICAS)
        super().__init__("obj", router=router)

    def _replica_name(self, replica: int) -> str:
        return f"obj/{replica}"

    def _replica_prefix(self) -> str:
        return "obj/"

    def _resolve(self, name: str) -> int:
        return int(name.rsplit("/", 1)[1])

    def _list_names(self, prefix: str) -> list:
        return [self._replica_name(replica) for replica in REPLICAS]

    def _send(self, endpoint, operation, params, piggyback):
        if endpoint not in self.running:
            raise ServerFailedError(f"replica {endpoint} is down")
        return True


class SendRecorder(MicroProtocol):
    """Records where readyToSend was aimed, then stops it before the wire."""

    name = "SendRecorder"

    def __init__(self) -> None:
        super().__init__()
        self.sent: list[int] = []

    def start(self) -> None:
        self.bind(EV_READY_TO_SEND, self.record, order=ORDER_FIRST)

    def record(self, occurrence: Occurrence) -> None:
        self.sent.append(occurrence.args[1])
        occurrence.halt()


def sharded_router() -> ShardRouter:
    """One member per group; every replica of "obj" on its own member."""
    return ShardRouter(
        DirectoryView(
            groups=tuple(ServerGroup(f"g{m}", (m,)) for m in REPLICAS),
            default_placement=Placement(replication_factor=len(REPLICAS), policy="spread"),
            version=1,
        )
    )


replica = st.sampled_from(REPLICAS)
operations = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["mark_failed", "bind", "crash", "restart", "probe", "invoke"]),
                  replica),
        st.tuples(st.just("detect"), st.none()),
        st.tuples(st.just("latency"), st.tuples(replica, st.floats(1e-4, 1.0))),
        st.tuples(st.just("view"), st.frozensets(replica)),  # failed members
    ),
    max_size=25,
)


class TestOneReplicaHealthTable:
    @given(sharded=st.booleans(), ops=operations)
    @settings(max_examples=60, deadline=None)
    def test_every_consumer_agrees(self, sharded, ops):
        router = sharded_router() if sharded else None
        platform = ScriptedPlatform(router)
        recorder = SendRecorder()
        passive = PassiveRep()
        detector = FailureDetector(period=3600.0)
        base = ClientBase()
        client = CactusClient(platform, [recorder, passive, detector, base])
        active = ActiveRep()
        # The model: replicas the table should report failed.
        failed: set[int] = set()
        try:
            for op, arg in ops:
                if op == "mark_failed":
                    platform.mark_failed(arg)
                    failed.add(arg)
                elif op == "bind":
                    platform.bind(arg)
                    failed.discard(arg)
                elif op == "crash":
                    platform.running.discard(arg)
                elif op == "restart":
                    platform.running.add(arg)
                elif op in ("probe", "invoke"):
                    # Both rebind first, then a dead replica gets marked.
                    if op == "probe":
                        assert platform.probe(arg) == (arg in platform.running)
                    else:
                        try:
                            platform.invoke_server(arg, Request("obj", "op", []))
                        except CommunicationError:
                            pass
                    failed.discard(arg)
                    if arg not in platform.running:
                        failed.add(arg)
                elif op == "detect":
                    reported = detector.probe_now()
                    failed = set(REPLICAS) - platform.running
                    assert reported == failed
                elif op == "latency":
                    platform.directory.record_latency(*arg)
                elif op == "view":
                    before = platform.router.view().version
                    platform.router.apply_membership_change(arg)
                    view = platform.router.view()
                    if view.version != before:
                        # A view bump drops local marks and adopts the
                        # failures the view carries (members, mapped back to
                        # the object's logical replicas).
                        failed = {
                            logical
                            for logical, member in view.assignments("obj")
                            if member in arg
                        } if sharded else set()
                self._assert_agreement(platform, recorder, passive, detector, base, active,
                                       failed)
        finally:
            client.shutdown()
            client.runtime.shutdown()

    @staticmethod
    def _assert_agreement(platform, recorder, passive, detector, base, active, failed):
        live = [r for r in REPLICAS if platform.server_status(r)]
        assert set(REPLICAS) - set(live) == failed
        ranked_live = [r for r in platform.directory.rank_servers(REPLICAS) if r in live]

        base.assigner(Occurrence(None, (Request("obj", "op", []),), None))
        assert recorder.sent.pop() == (live[0] if live else REPLICAS[0])
        assert passive._pick_primary() == (live[0] if live else None)
        assert LoadBalance.candidates(platform) == ranked_live
        assert [r for r in active._replicas(platform) if r in live] == ranked_live
        assert detector._failed(platform) == failed
