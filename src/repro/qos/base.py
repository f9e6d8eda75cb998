"""Base micro-protocols: ClientBase and ServerBase (paper section 3.1).

"Note that the basic behavior is broken into multiple handlers with events
used to pass the control from one handler to another.  This allows the
actual QoS micro-protocols to insert their processing at the appropriate
points of the control flow.  All the handlers in the base micro-protocols
have been ordered to be the last ones to be executed when its respective
event is raised."

ClientBase handlers:

- **assigner** (``newRequest``, last) — assigns a server and raises
  ``readyToSend``;
- **syncInvoker** (``readyToSend``, last) — checks ``server_status()``,
  ``bind()``s if necessary, calls ``invoke_server()``, raises
  ``invokeSuccess`` or ``invokeFailure``;
- **resultReturner** (``invokeSuccess``+``invokeFailure``, last) — default
  acceptance: the first reply (success or failure) releases the waiting
  client thread.

ServerBase handlers:

- **getParameters** (``newServerRequest``, last) — extracts Cactus
  parameters (notably the request priority, resolved through the
  configured policy) and raises ``readyToInvoke``;
- **invokeServant** (``readyToInvoke``, last) — calls
  ``invoke_servant()``, raises ``invokeReturn``, then completes the
  request (releasing the dispatch thread so the reply can be sent).
"""

from __future__ import annotations

from repro.cactus.composite import MicroProtocol
from repro.cactus.config import register_micro_protocol
from repro.cactus.events import ORDER_LAST, Occurrence
from repro.core.events import (
    EV_INVOKE_FAILURE,
    EV_INVOKE_RETURN,
    EV_INVOKE_SUCCESS,
    EV_NEW_REQUEST,
    EV_NEW_SERVER_REQUEST,
    EV_READY_TO_INVOKE,
    EV_READY_TO_SEND,
)
from repro.core.client import SHARED_PLATFORM
from repro.core.interfaces import ClientPlatform, ServerPlatform
from repro.core.request import PB_PRIORITY, Reply, Request
from repro.core.server import SHARED_PRIORITY_POLICY
from repro.idl.compiler import IdlRemoteException
from repro.util.errors import CommunicationError, InvocationError, ServerFailedError

#: Attribute key where invokeServant stages a servant-raised exception so
#: invokeReturn handlers still run before the request fails.
ATTR_SERVANT_EXCEPTION = "servant_exception"


def replica_ids(platform: ClientPlatform) -> tuple[int, ...]:
    """The platform's logical replica ids, in preference order.

    Sharded directory views produce legitimately sparse id spaces, so QoS
    protocols iterate this instead of assuming ``range(1, N+1)``; platforms
    without the richer surface keep the historical contiguous ids.
    """
    server_ids = getattr(platform, "server_ids", None)
    if server_ids is not None:
        return server_ids()
    return tuple(range(1, platform.num_servers() + 1))


def server_replica_ids(platform: ServerPlatform) -> tuple[int, ...]:
    """The server-side replica group's logical ids (client counterpart above).

    Replication protocols multicast to this instead of assuming a dense
    ``range(1, num_replicas()+1)`` — under sharding the group is sparse.
    """
    ids = getattr(platform, "replica_ids", None)
    if ids is not None:
        return ids()
    return tuple(range(1, platform.num_replicas() + 1))


@register_micro_protocol("ClientBase")
class ClientBase(MicroProtocol):
    """The default client-side pipeline (see module docstring)."""

    name = "ClientBase"

    def start(self) -> None:
        self.bind(EV_NEW_REQUEST, self.assigner, order=ORDER_LAST)
        self.bind(EV_READY_TO_SEND, self.sync_invoker, order=ORDER_LAST)
        self.bind(EV_INVOKE_SUCCESS, self.result_returner, order=ORDER_LAST)
        self.bind(EV_INVOKE_FAILURE, self.result_returner, order=ORDER_LAST)

    # -- handlers -----------------------------------------------------------

    def assigner(self, occurrence: Occurrence) -> None:
        """Assign the first non-failed server (server 1 in the simple case).

        "Failed" is the platform's ``server_status()``: the one replica-health
        table every protocol marks, which on a sharded deployment also
        carries the failed members of the adopted directory view, so even
        plain base clients steer away from a dead replica before the first
        timeout.
        """
        request: Request = occurrence.args[0]
        platform: ClientPlatform = self.shared.get(SHARED_PLATFORM)
        candidates = replica_ids(platform)
        server = candidates[0] if candidates else 1
        for candidate in candidates:
            if platform.server_status(candidate):
                server = candidate
                break
        request.server = server
        self.raise_event(EV_READY_TO_SEND, request, server)

    def sync_invoker(self, occurrence: Occurrence) -> None:
        """Invoke the assigned server; raise invokeSuccess/invokeFailure."""
        request: Request = occurrence.args[0]
        server: int = occurrence.args[1]
        platform: ClientPlatform = self.shared.get(SHARED_PLATFORM)
        try:
            if not platform.server_status(server):
                raise ServerFailedError(f"server {server} is not running")
            platform.bind(server)
            value = platform.invoke_server(server, request)
        except CommunicationError as exc:
            reply = Reply(server=server, exception=exc, failed=True)
            request.add_reply(reply)
            self.raise_event(EV_INVOKE_FAILURE, request, server, reply)
            return
        except (IdlRemoteException, InvocationError) as exc:
            # The invocation reached the servant and raised: an application-
            # level outcome, not a failure (PassiveRep must not fail over).
            reply = Reply(server=server, exception=exc)
            request.add_reply(reply)
            self.raise_event(EV_INVOKE_SUCCESS, request, server, reply)
            return
        reply = Reply(server=server, value=value)
        request.add_reply(reply)
        self.raise_event(EV_INVOKE_SUCCESS, request, server, reply)

    def result_returner(self, occurrence: Occurrence) -> None:
        """Default acceptance: the first reply completes the request."""
        request: Request = occurrence.args[0]
        reply: Reply = occurrence.args[2]
        request.complete_from_reply(reply)


@register_micro_protocol("ServerBase")
class ServerBase(MicroProtocol):
    """The default server-side pipeline (see module docstring)."""

    name = "ServerBase"

    def start(self) -> None:
        self.bind(EV_NEW_SERVER_REQUEST, self.get_parameters, order=ORDER_LAST)
        self.bind(EV_READY_TO_INVOKE, self.invoke_servant, order=ORDER_LAST)

    # -- handlers ------------------------------------------------------------

    def get_parameters(self, occurrence: Occurrence) -> None:
        """Extract Cactus parameters (priority) and raise readyToInvoke."""
        request: Request = occurrence.args[0]
        policy = self.shared.get(SHARED_PRIORITY_POLICY)
        if policy is not None:
            request.piggyback[PB_PRIORITY] = int(policy(request))
        self.raise_event(EV_READY_TO_INVOKE, request)

    def invoke_servant(self, occurrence: Occurrence) -> None:
        """Call the server object, raise invokeReturn, complete the request."""
        request: Request = occurrence.args[0]
        platform: ServerPlatform = self.shared.get(SHARED_PLATFORM)
        try:
            value = platform.invoke_servant(request)
        except BaseException as exc:  # noqa: BLE001 - staged for invokeReturn
            request.attributes[ATTR_SERVANT_EXCEPTION] = exc
        else:
            request.set_result(value)
        # invokeReturn handlers run before the reply goes out: they may
        # transform the staged result (encryption) or advance ordering state.
        self.raise_event(EV_INVOKE_RETURN, request)
        exception = request.attributes.get(ATTR_SERVANT_EXCEPTION)
        if exception is not None:
            request.fail(exception)
        else:
            request.complete(request.stored_result)
