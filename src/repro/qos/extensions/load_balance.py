"""Load balancing over server replicas (extension; paper §2.2).

Two halves:

- :class:`LoadReporter` (server) — tracks the number of requests currently
  executing on this replica and answers ``load`` control-plane queries: the
  load-conditions extension of ``server_status()`` the paper sketches;
- :class:`LoadBalance` (client) — overrides the base assigner with
  latency-aware replica selection over the live replicas of the platform's
  replica-health table: the per-replica reply-latency EWMA comes from that
  table (the kernel feeds it passively from every reply, no extra
  messages), and assignment is power-of-two-choices over
  ``EWMA × (outstanding + 1)``.  The synchronous control-plane load poll
  survives only as the cold-start path: a replica with no latency samples
  yet is explored first, ranked by its last polled load.

A transient probe failure during the cold-start poll keeps the replica's
*stale* load (or a pessimistic default) — it does **not** mark the replica
failed: only the binding layer's fault taxonomy may do that, and a lost
control probe says nothing about the replica's ability to serve requests.
The poll only visits live replicas, because its ``bind()`` clears a
failure mark: a dead replica never re-enters selection through it.

Composable with the acceptance and security protocols; mutually exclusive
with the replication assigners (ActiveRep sends everywhere, PassiveRep
pins a primary — both replace the same base handler).
"""

from __future__ import annotations

import random
import threading

from repro.cactus.composite import MicroProtocol
from repro.cactus.config import register_micro_protocol
from repro.cactus.events import ORDER_EARLY, ORDER_FIRST, Occurrence
from repro.core.client import SHARED_PLATFORM
from repro.core.events import (
    CONTROL_EVENT_PREFIX,
    EV_INVOKE_FAILURE,
    EV_INVOKE_SUCCESS,
    EV_NEW_REQUEST,
    EV_NEW_SERVER_REQUEST,
    EV_READY_TO_SEND,
)
from repro.core.interfaces import ClientPlatform, ControlMessage
from repro.core.platform import CONTROL_OPERATION, BaseClientPlatform
from repro.core.request import Request
from repro.core.routing import ReplicaDirectory
from repro.qos.base import replica_ids
from repro.util.errors import BindError, CommunicationError, ServerFailedError
from repro.util.log import get_logger

logger = get_logger("qos.load_balance")

CONTROL_LOAD = "load"

#: Request attribute: replica whose outstanding counter this request holds.
_ATTR_COUNTED = "lb_counted"

#: Polled load reported for a replica whose probe failed and that has no
#: earlier polled value to fall back on (pessimistic, but not "failed").
STALE_LOAD = 1 << 20


@register_micro_protocol("LoadReporter")
class LoadReporter(MicroProtocol):
    """Server half: count in-flight requests, answer load queries."""

    name = "LoadReporter"

    def __init__(self) -> None:
        super().__init__()
        self._in_flight = 0

    def start(self) -> None:
        self.bind(EV_NEW_SERVER_REQUEST, self.request_arrived, order=ORDER_EARLY)
        self.bind(CONTROL_EVENT_PREFIX + CONTROL_LOAD, self.report_load)

    def request_arrived(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        with self.shared.lock:
            self._in_flight += 1
        # on_complete, not invokeReturn: a request shed by admission (or
        # killed by a handler fault) never reaches invokeReturn but must
        # still leave the load count.
        request.on_complete(self._request_done)

    def _request_done(self, request: Request) -> None:
        with self.shared.lock:
            self._in_flight = max(0, self._in_flight - 1)

    def report_load(self, occurrence: Occurrence) -> None:
        message: ControlMessage = occurrence.args[0]
        with self.shared.lock:
            message.respond(self._in_flight)

    def current_load(self) -> int:
        with self.shared.lock:
            return self._in_flight


@register_micro_protocol("LoadBalance")
class LoadBalance(MicroProtocol):
    """Client half: latency-EWMA power-of-two-choices replica selection.

    Reads replica health from the platform's table (``directory``), which
    every :class:`~repro.core.platform.BaseClientPlatform` owns.
    """

    name = "LoadBalance"

    def __init__(self, poll_interval: float = 0.25, seed: int | None = None):
        super().__init__()
        self._poll_interval = poll_interval
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._loads: dict[int, int] = {}
        self._outstanding: dict[int, int] = {}
        self._last_poll = float("-inf")

    def start(self) -> None:
        self.bind(EV_NEW_REQUEST, self.lb_assigner, order=ORDER_EARLY)
        self.bind(EV_READY_TO_SEND, self.on_send, order=ORDER_EARLY)
        self.bind(EV_INVOKE_SUCCESS, self.on_settled, order=ORDER_FIRST)
        self.bind(EV_INVOKE_FAILURE, self.on_settled, order=ORDER_FIRST)

    # -- load polling (cold-start fallback) ---------------------------------

    def _poll_loads(self, platform: ClientPlatform, servers: list[int]) -> None:
        """Query each replica's LoadReporter through the control plane.

        Only communication faults are tolerated (reported as stale load —
        the replica keeps its last known value); anything else is a bug and
        propagates.  A failed probe never marks the replica failed: that
        verdict belongs to the binding layer's fault taxonomy alone.
        """
        for server in servers:
            probe = Request("lb", CONTROL_OPERATION, [CONTROL_LOAD, 0, {}])
            try:
                platform.bind(server)
                load = int(platform.invoke_server(server, probe))
            except (CommunicationError, BindError) as exc:
                self.incr("stale_probes")
                logger.debug("load probe of replica %d failed (%s); keeping stale load",
                             server, exc)
                with self._lock:
                    self._loads.setdefault(server, STALE_LOAD)
                continue
            with self._lock:
                self._loads[server] = load

    def _maybe_poll(self, platform: ClientPlatform, servers: list[int]) -> None:
        now = self.composite.runtime.clock.now()
        with self._lock:
            due = now - self._last_poll >= self._poll_interval
            if due:
                self._last_poll = now
        if due:
            self._poll_loads(platform, servers)

    # -- outstanding work ----------------------------------------------------

    def on_send(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        server: int = occurrence.args[1]
        request.attributes[_ATTR_COUNTED] = server
        with self._lock:
            self._outstanding[server] = self._outstanding.get(server, 0) + 1
        # A send attempt that dies without an invoke event (a halting gate
        # like an open circuit breaker) must still drain the counter.
        request.on_complete(self._drain_outstanding)

    def _drain_outstanding(self, request: Request) -> None:
        server = request.attributes.pop(_ATTR_COUNTED, None)
        if server is None:
            return
        with self._lock:
            self._outstanding[server] = max(0, self._outstanding.get(server, 0) - 1)

    def on_settled(self, occurrence: Occurrence) -> None:
        self._drain_outstanding(occurrence.args[0])

    # -- selection -----------------------------------------------------------

    def select(self, candidates: list[int], table: ReplicaDirectory) -> int:
        """Pick a replica: explore cold ones first, then power-of-two-choices.

        ``table`` is the platform's replica-health table, whose latency
        EWMAs score the candidates.  Cold replicas (no latency samples yet)
        are ranked by the last polled load, ties broken by the incoming
        candidate order; warm replicas compete pairwise on
        ``EWMA × (outstanding+1)``.
        """
        ewma = table.latencies()
        with self._lock:
            cold = [s for s in candidates if s not in ewma]
            if cold:
                chosen = min(
                    cold, key=lambda s: (self._loads.get(s, 0), candidates.index(s))
                )
                # Optimistically bump so a cold burst spreads instead of
                # dogpiling one replica between polls.
                self._loads[chosen] = self._loads.get(chosen, 0) + 1
                return chosen
            if len(candidates) == 1:
                return candidates[0]
            first, second = self._rng.sample(candidates, 2)

            def score(server: int) -> float:
                return ewma[server] * (1 + self._outstanding.get(server, 0))

            return first if score(first) <= score(second) else second

    @staticmethod
    def candidates(platform: BaseClientPlatform) -> list[int]:
        """The live replicas, fastest first by the table's latency EWMA."""
        ranked = platform.directory.rank_servers(replica_ids(platform))
        return [server for server in ranked if platform.server_status(server)]

    def lb_assigner(self, occurrence: Occurrence) -> None:
        request: Request = occurrence.args[0]
        platform: BaseClientPlatform = self.shared.get(SHARED_PLATFORM)
        candidates = self.candidates(platform)
        measured = platform.directory.latencies()
        if any(server not in measured for server in candidates):
            self._maybe_poll(platform, candidates)
            candidates = self.candidates(platform)  # the poll may find one dead
        if not candidates:
            request.fail(ServerFailedError("no live replica for load balancing"))
            occurrence.halt()
            return
        chosen = self.select(candidates, platform.directory)
        request.server = chosen
        self.raise_event(EV_READY_TO_SEND, request, chosen)
        occurrence.halt()

    # -- introspection -------------------------------------------------------

    def known_loads(self) -> dict[int, int]:
        with self._lock:
            return dict(self._loads)
