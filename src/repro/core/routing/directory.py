"""Replica-number → endpoint directory (router-aware).

Historically this class lived in :mod:`repro.core.platform` and counted an
object's replicas by bootstrap prefix enumeration — one ``list_names``
round-trip per object, with cost proportional to the whole name table.
It now belongs to the routing layer: when a :class:`ShardRouter` is
attached, replica counts and ids come straight from the current
:class:`~repro.core.routing.view.DirectoryView` (one shared view answers
for thousands of objects), and the prefix scan survives only as the
bootstrap fallback for unsharded deployments, whose naming entries and
observable behaviour stay exactly as before.

The directory is also the client's one replica-health table: every QoS
protocol reads liveness (``status``) and the per-replica reply-latency
EWMA (``rank_servers``) from it, and writes failures through
``mark_failed`` / ``apply_fault`` and recoveries through ``bind``.

The directory consults the router on every bind/rebind/endpoint/count: a
view-version change invalidates cached endpoints, failure marks, and the
cached count in one step — that *is* the client-side rebind of a
membership change or shard handoff, after which endpoints lazily
re-resolve through the (possibly re-registered) naming entries.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable

from repro.util.errors import BindError, CommunicationError


def _fault_action(error: BaseException | None) -> str:
    # Imported lazily to keep directory ↔ platform import order acyclic;
    # repro.core.platform re-exports this class for its historical home.
    from repro.core.platform import fault_action

    return fault_action(error)


class ReplicaDirectory:
    """Replica-number → endpoint directory with lazy binding and liveness.

    "The interface allows the server replicas to be referred to by numbers
    (1..N) rather than by application or middleware specific identifiers."
    The directory owns that mapping for one target object: the platform's
    naming convention (``name_for``) formats the per-replica name, the
    resolver turns the name into an opaque endpoint (IOR reference, remote
    ref, HTTP address pair), and the directory caches endpoints and tracks
    lock-guarded failure marks and reply-latency EWMAs.

    Replica discovery is two-tier: a sharded :class:`ShardRouter` view when
    one is attached (``router=``/``object_id=``), prefix enumeration
    otherwise.  Resolution failures that are not communication errors are
    normalized to :class:`~repro.util.errors.BindError` so ``bind()`` has
    one observable failure mode on every platform.
    """

    #: EWMA smoothing factor for per-replica reply latency.
    LATENCY_ALPHA = 0.3
    #: Factor a communication fault multiplies the replica's latency EWMA
    #: by: traffic moves away from a failing replica without folding
    #: timeout artefacts into the estimate.
    FAILURE_PENALTY = 2.0

    def __init__(
        self,
        name_for: Callable[[int], str],
        resolve: Callable[[str], Any],
        list_names: Callable[[str], list] | None = None,
        prefix: str | None = None,
        router: Any = None,
        object_id: str | None = None,
    ):
        self._name_for = name_for
        self._resolve = resolve
        self._list_names = list_names
        self._prefix = prefix
        self._router = router
        self._object_id = object_id
        self._lock = threading.Lock()
        self._endpoints: dict[int, Any] = {}
        self._failed: set[int] = set()
        self._latency: dict[int, float] = {}
        self._count: int | None = None
        self._seen_version = router.view().version if router is not None else 0

    # -- router consultation ---------------------------------------------------

    @property
    def router(self) -> Any:
        return self._router

    def _routed(self) -> bool:
        return (
            self._router is not None
            and self._object_id is not None
            and self._router.view().sharded
        )

    def _sync_view(self) -> None:
        """Adopt a newer directory view: drop every stale binding.

        The lock-free fast path is one version compare; a version change
        clears cached endpoints, failure marks, and the cached count so the
        next use rebinds through the (possibly re-registered) naming
        entries — this is the client half of a shard handoff or a
        membership-driven view change.
        """
        router = self._router
        if router is None:
            return
        version = router.view().version
        if version == self._seen_version:
            return
        with self._lock:
            if version == self._seen_version:
                return
            self._endpoints.clear()
            self._failed.clear()
            self._count = None
            self._seen_version = version
        # Seed failure marks from the adopted view: replicas hosted on a
        # member the view reports failed start out marked, so status() and
        # failover agree with the membership the view carries.
        if self._routed():
            view = router.view()
            if view.failed:
                failed_logicals = [
                    logical
                    for logical, member in view.assignments(self._object_id)
                    if member in view.failed
                ]
                if failed_logicals:
                    with self._lock:
                        self._failed.update(failed_logicals)

    def _resolve_name(self, replica: int) -> Any:
        name = self._name_for(replica)
        try:
            return self._resolve(name)
        except CommunicationError:
            raise  # the bootstrap service itself is unreachable
        except BindError:
            raise
        except Exception as exc:  # noqa: BLE001 - platform-specific "not bound"
            raise BindError(f"cannot resolve {name!r}: {exc}") from exc

    def bind(self, replica: int) -> None:
        """(Re-)bind ``replica``: clear its failure mark, resolve lazily.

        Also the recovery path: "the bind() operation can also be used to
        rebind to a failed server after it has recovered."
        """
        self._sync_view()
        with self._lock:
            bound = replica in self._endpoints
            self._failed.discard(replica)  # rebinding clears failure knowledge
        if bound:
            return
        endpoint = self._resolve_name(replica)
        with self._lock:
            self._endpoints[replica] = endpoint

    def endpoint(self, replica: int) -> Any:
        """The (lazily bound) endpoint for ``replica``."""
        self._sync_view()
        with self._lock:
            endpoint = self._endpoints.get(replica)
        if endpoint is not None:
            return endpoint
        endpoint = self._resolve_name(replica)
        with self._lock:
            self._endpoints[replica] = endpoint
            return self._endpoints[replica]

    def drop(self, replica: int) -> None:
        """Forget the cached endpoint (next use re-resolves/reconnects)."""
        with self._lock:
            self._endpoints.pop(replica, None)

    def mark_failed(self, replica: int) -> None:
        """Record the replica as down (in the current view); drop its binding."""
        self._sync_view()
        with self._lock:
            self._failed.add(replica)
            self._endpoints.pop(replica, None)

    def status(self, replica: int) -> bool:
        """True while the replica is not marked failed (local knowledge)."""
        self._sync_view()
        with self._lock:
            return replica not in self._failed

    def apply_fault(self, replica: int, error: BaseException) -> str:
        """React to a platform fault per the shared taxonomy; returns the action."""
        action = _fault_action(error)
        with self._lock:
            if isinstance(error, CommunicationError) and replica in self._latency:
                self._latency[replica] *= self.FAILURE_PENALTY
            if action == "mark_failed":
                self._failed.add(replica)
            if action != "keep":
                self._endpoints.pop(replica, None)
        return action

    # -- reply latency ---------------------------------------------------------

    def record_latency(self, replica: int, seconds: float) -> None:
        """Fold one successful reply's latency into the replica's EWMA."""
        with self._lock:
            previous = self._latency.get(replica)
            if previous is None:
                self._latency[replica] = seconds
            else:
                self._latency[replica] = previous + self.LATENCY_ALPHA * (seconds - previous)

    def latencies(self) -> dict[int, float]:
        """Snapshot of the latency EWMA of every measured replica."""
        with self._lock:
            return dict(self._latency)

    def rank_servers(self, candidates: Iterable[int]) -> tuple[int, ...]:
        """Order candidate replicas fastest-first by latency EWMA.

        Replicas with no measurement yet keep their incoming (logical-id)
        order, after the measured ones — a cold replica is probed only once
        the known-fast ones are in flight, which is the right bias for
        quorum gathers and for balancing cold starts alike.
        """
        candidates = list(candidates)
        snapshot = self.latencies()
        measured = sorted((s for s in candidates if s in snapshot), key=snapshot.__getitem__)
        return tuple(measured + [s for s in candidates if s not in snapshot])

    def count(self) -> int:
        """Replica count: from the routed view, else by prefix enumeration."""
        self._sync_view()
        if self._routed():
            return len(self._router.route(self._object_id))
        if self._list_names is None or self._prefix is None:
            raise BindError("directory was built without an enumeration strategy")
        with self._lock:
            if self._count is not None:
                return self._count
        found = len(self._list_names(self._prefix))
        with self._lock:
            self._count = max(found, 1)
            return self._count

    def replica_ids(self) -> tuple[int, ...]:
        """The logical replica numbers of the target object.

        Contiguous ``1..N`` for unsharded deployments; the view's placement
        ids (legitimately sparse) when routed.  Failure detectors must probe
        *these*, not ``range(1, count+1)``.
        """
        self._sync_view()
        if self._routed():
            return self._router.route(self._object_id)
        return tuple(range(1, self.count() + 1))

    def refresh(self) -> None:
        """Drop every binding, failure mark, and the cached count.

        This is the bootstrap re-enumeration fallback: the next use
        re-counts (or re-routes) and re-resolves from the naming service.
        """
        with self._lock:
            self._endpoints.clear()
            self._failed.clear()
            self._count = None
