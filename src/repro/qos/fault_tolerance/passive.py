"""Passive replication (paper section 3.2).

Client side (:class:`PassiveRep`):

- **pasAssigner** overrides the base assigner and "assigns the first
  non-failed server to serve the request";
- **primarySelector** overrides the base resultReturner for
  ``invokeFailure``: it "marks the current primary as failed and raises
  newRequest to re-execute the request.  As a result, the client thread is
  not released until a proper result has been received or all replicas have
  failed."

Server side (:class:`PassiveRepServer`): the primary (whichever replica
receives a request directly from a client) forwards the request to the
other replicas concurrently after executing it, "to keep them consistent",
and every replica "keeps track of requests already received, so that
receiving a request again does not corrupt the server state" — a
request-id-keyed result cache consulted before the servant is invoked.
The cache also serves retried requests after a failover: if the old primary
managed to forward before crashing, the new primary answers the client's
retry from the cache instead of double-applying it.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cactus.composite import MicroProtocol
from repro.cactus.config import register_micro_protocol
from repro.cactus.events import ORDER_EARLY, ORDER_FIRST, ORDER_LATE, Occurrence
from repro.core.client import SHARED_PLATFORM
from repro.core.events import (
    CONTROL_EVENT_PREFIX,
    EV_INVOKE_FAILURE,
    EV_INVOKE_RETURN,
    EV_NEW_REQUEST,
    EV_NEW_SERVER_REQUEST,
    EV_READY_TO_INVOKE,
    EV_READY_TO_SEND,
)
from repro.core.interfaces import ClientPlatform, ControlMessage, ServerPlatform
from repro.core.platform import ScatterGather, threaded_reply_future
from repro.core.request import PB_FORWARDED, Request
from repro.core.server import SHARED_PLATFORM as SHARED_SERVER_PLATFORM
from repro.qos.base import ATTR_SERVANT_EXCEPTION, replica_ids, server_replica_ids
from repro.util.errors import CommunicationError, ServerFailedError
from repro.util.log import get_logger

logger = get_logger("qos.passive")

CONTROL_FORWARD = "forward"

#: Shared-data key for the server-side duplicate-suppression cache.
SHARED_SEEN = "passive_seen"


@register_micro_protocol("PassiveRep")
class PassiveRep(MicroProtocol):
    """Client half: primary selection and failover."""

    name = "PassiveRep"

    def start(self) -> None:
        self.bind(EV_NEW_REQUEST, self.pas_assigner, order=ORDER_EARLY)
        self.bind(EV_INVOKE_FAILURE, self.primary_selector, order=ORDER_EARLY)

    def _pick_primary(self) -> int | None:
        platform: ClientPlatform = self.shared.get(SHARED_PLATFORM)
        for server in replica_ids(platform):
            if platform.server_status(server):
                return server
        return None

    def pas_assigner(self, occurrence: Occurrence) -> None:
        """Assign the first non-failed server; override the base assigner."""
        request: Request = occurrence.args[0]
        primary = self._pick_primary()
        if primary is None:
            request.fail(ServerFailedError("all replicas are marked failed"))
        else:
            request.server = primary
            self.raise_event(EV_READY_TO_SEND, request, primary)
        occurrence.halt()

    def primary_selector(self, occurrence: Occurrence) -> None:
        """Mark the primary failed and re-execute; override the returner."""
        request: Request = occurrence.args[0]
        server: int = occurrence.args[1]
        platform: ClientPlatform = self.shared.get(SHARED_PLATFORM)
        platform.mark_failed(server)
        logger.warning(
            "primary replica %d failed for %s; failing over", server, request.operation
        )
        self.raise_event(EV_NEW_REQUEST, request)
        occurrence.halt()


@register_micro_protocol("PassiveRepServer")
class PassiveRepServer(MicroProtocol):
    """Server half: forwarding to backups and duplicate suppression."""

    name = "PassiveRepServer"

    def __init__(self, cache_size: int = 10000):
        super().__init__()
        self._cache_size = cache_size

    def start(self) -> None:
        self.shared.setdefault(SHARED_SEEN, OrderedDict())
        self.bind(EV_READY_TO_INVOKE, self.suppress_duplicate, order=ORDER_FIRST)
        self.bind(EV_INVOKE_RETURN, self.forward_to_backups, order=ORDER_EARLY)
        self.bind(EV_INVOKE_RETURN, self.record_outcome, order=ORDER_LATE)
        self.bind(CONTROL_EVENT_PREFIX + CONTROL_FORWARD, self.on_forward)

    # -- duplicate suppression -------------------------------------------

    def suppress_duplicate(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        seen: OrderedDict = self.shared.get(SHARED_SEEN)
        with self.shared.lock:
            cached = seen.get(request.request_id)
        if cached is None:
            return
        exception, value = cached
        if exception is not None:
            request.fail(exception)
        else:
            request.complete(value)
        occurrence.halt()

    def record_outcome(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        seen: OrderedDict = self.shared.get(SHARED_SEEN)
        outcome = (request.attributes.get(ATTR_SERVANT_EXCEPTION), request.stored_result)
        with self.shared.lock:
            seen[request.request_id] = outcome
            while len(seen) > self._cache_size:
                seen.popitem(last=False)

    # -- forwarding --------------------------------------------------------

    def forward_to_backups(self, occurrence: Occurrence) -> None:
        """Primary only: push the executed request to every backup.

        The forwards leave in one non-blocking scatter pass (pipelined on
        the wire) and are then gathered before the reply returns to the
        client, so a primary crash after the client saw the reply cannot
        lose the update.  A backup that is down is skipped — its branch
        outcome is a CommunicationError, repaired by recovery (see
        logging_recovery), not by the primary.  The group comes from
        :func:`~repro.qos.base.server_replica_ids` (sparse-id safe).
        """
        request: Request = occurrence.args[0]
        if request.piggyback.get(PB_FORWARDED):
            return  # we are a backup executing a forwarded request
        platform: ServerPlatform = self.shared.get(SHARED_SERVER_PLATFORM)
        me = platform.my_replica()
        wire = request.to_wire()
        wire["piggyback"][PB_FORWARDED] = True
        scatter = ScatterGather()
        for replica in server_replica_ids(platform):
            if replica == me:
                continue
            scatter.submit(
                replica,
                lambda replica=replica: self._forward_one(platform, replica, wire),
            )
        for outcome in scatter.gather_all(timeout=30.0):
            if outcome.error is not None and not isinstance(
                outcome.error, CommunicationError
            ):
                raise outcome.error

    @staticmethod
    def _forward_one(platform: ServerPlatform, replica: int, wire: dict):
        invoke_async = getattr(platform, "peer_invoke_async", None)
        if invoke_async is not None:
            return invoke_async(replica, CONTROL_FORWARD, wire)
        return threaded_reply_future(
            lambda: platform.peer_invoke(replica, CONTROL_FORWARD, wire)
        )

    def on_forward(self, occurrence: Occurrence) -> None:
        """Backup side: execute the forwarded request through the pipeline."""
        message: ControlMessage = occurrence.args[0]
        request = Request.from_wire(message.payload)
        self.raise_event(EV_NEW_SERVER_REQUEST, request)
        try:
            request.wait(timeout=30.0)
        except Exception:  # noqa: BLE001 - the outcome mirrors the primary's
            pass
        message.respond(True)
