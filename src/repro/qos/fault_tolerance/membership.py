"""Client-side failure detection (extension).

The paper's ``server_status()`` "only indicates if the server is running or
failed, but it could be extended" — and the base implementation learns of
failures only when an invocation fails.  :class:`FailureDetector` adds
proactive monitoring: a periodic probe of every replica (using the
platform's active ``probe()`` where available) that keeps the platform's
replica-health table current and raises a ``membershipChange`` event when
the probe changed which replicas that table reports failed.

With PassiveRep this converts failover from reactive (first request after a
crash pays a failed invocation) to proactive, and — because ``probe()``
rebinds — automatically reinstates a recovered primary.
"""

from __future__ import annotations

from repro.cactus.composite import MicroProtocol
from repro.cactus.config import register_micro_protocol
from repro.cactus.events import Occurrence
from repro.core.client import SHARED_PLATFORM
from repro.core.interfaces import ClientPlatform
from repro.qos.base import replica_ids

EV_MEMBERSHIP_CHANGE = "membershipChange"
EV_FD_TICK = "failureDetectorTick"


@register_micro_protocol("FailureDetector")
class FailureDetector(MicroProtocol):
    """Periodically probe all replicas; keep the replica-health table current."""

    name = "FailureDetector"

    def __init__(self, period: float = 0.5):
        super().__init__()
        self._period = period
        self._stopped = False

    def start(self) -> None:
        self.bind(EV_FD_TICK, self.on_tick)
        self.raise_event(EV_FD_TICK, delay=self._period)

    def stop(self) -> None:
        self._stopped = True
        super().stop()

    def _failed(self, platform: ClientPlatform) -> set[int]:
        return {s for s in replica_ids(platform) if not platform.server_status(s)}

    def probe_now(self) -> set[int]:
        """Probe every replica once; return the new failed set."""
        platform: ClientPlatform = self.shared.get(SHARED_PLATFORM)
        old = self._failed(platform)
        probe = getattr(platform, "probe", None)
        if probe is not None:
            # probe() marks a dead replica failed and rebinds a live one.
            for server in replica_ids(platform):
                probe(server)
        new_failed = self._failed(platform)
        if old != new_failed:
            # A sharded client also records the change in its directory
            # view: the version bump is what invalidates stale bindings and
            # drives membershipChange visibility through the routing layer.
            # The view tracks *physical members*, so the probed logical
            # replica ids are translated through the current assignments.
            router = getattr(platform, "router", None)
            if router is not None and router.sharded:
                member_of = dict(
                    router.view().assignments(getattr(platform, "object_id", ""))
                )
                router.apply_membership_change(
                    member_of[r] for r in new_failed if r in member_of
                )
            self.raise_event(EV_MEMBERSHIP_CHANGE, old, set(new_failed), mode="async")
        return new_failed

    def on_tick(self, occurrence: Occurrence) -> None:
        if self._stopped:
            return
        self.probe_now()
        if not self._stopped:
            self.raise_event(EV_FD_TICK, delay=self._period)
