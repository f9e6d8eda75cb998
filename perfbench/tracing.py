"""Benchmark-owned tracing: spans around the public boundaries of each layer.

Nothing here reaches inside ``src/``.  A traced deployment is assembled from
three outside hooks, all owned by the benchmark:

- :class:`SpanObserver`, an ``InvocationObserver`` attached through the
  ``observers=`` parameters of ``client_stub``, ``add_replicas`` and
  ``ShardSpace.add_object``: stub, wire-attempt, skeleton and servant spans;
- :class:`TracingNetwork`, a ``Network`` decorator (the ``ChaosNetwork``
  pattern): the client side of every ``Connection.call`` / ``call_async``
  until it settles, and the server-side frame handler of every listener;
- :meth:`Recorder.patch_des`, a wrapper around ``DesCipher.encrypt`` and
  ``DesCipher.decrypt``.

Spans are kept in memory as ``(kind, request_id, start_ns, end_ns)`` tuples
and reduced once the run ends.  Spans of one application call share the
request id the stub stamps into the piggyback; transport and frame-handler
spans inherit it from the wire attempt / skeleton receive on their thread.
Traffic that belongs to no application call (bootstrap lookups, replica
control messages such as TotalOrder announcements and backup forwards) is
recorded with a ``None`` id: it counts in the frame and byte totals but in
no per-call span.
"""

from __future__ import annotations

import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterable, Iterator

import concurrent.futures

from repro.core.platform import CONTROL_OPERATION, InvocationObserver
from repro.core.request import PB_REQUEST_ID
from repro.crypto.des import DesCipher
from repro.net.transport import Connection, Host, Listener, Network, ReplyFuture

STUB, WIRE, TRANSPORT, HANDLER, SKELETON, SERVANT = (
    "stub", "wire", "transport", "handler", "skeleton", "servant"
)


# -- span arithmetic ------------------------------------------------------------


def union_length(intervals: Iterable[tuple[int, int]]) -> int:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: tuple[int, int], children: Iterable[tuple[int, int]]) -> int:
    """``span``'s duration minus the part of it its children cover.

    Children may overlap each other (ActiveRep's concurrent wire attempts)
    and are clipped to the parent, so the result is never negative.
    """
    start, end = span
    clipped = [
        (max(start, c_start), min(end, c_end))
        for c_start, c_end in children
        if c_end > start and c_start < end
    ]
    return (end - start) - union_length(clipped)


def nested_self_time(
    parents: list[tuple[int, int]], children: list[tuple[int, int]]
) -> float:
    """Mean self time of ``parents`` whose children pair up one-to-one.

    Each child lies inside its own parent (a transport span inside its wire
    attempt, a servant inside its skeleton), but on a replicated call the
    parents run concurrently, so a union against all of one request's
    children would subtract the wrong replica's work.  Summing sidesteps
    the pairing: ``sum(parents) - sum(children)`` is exactly the sum of the
    per-parent self times whenever every child is nested in its parent.
    """
    if not parents:
        return 0.0
    total = sum(end - start for start, end in parents)
    total -= sum(end - start for start, end in children)
    return total / len(parents)


# -- the recorder -----------------------------------------------------------------


class Recorder:
    """Spans and counters of one traced deployment.

    ``active`` gates every record, so one recorder can stay attached while
    the benchmark alternates traced blocks with untraced ones.
    """

    def __init__(self) -> None:
        self.active = False
        self.spans: list[tuple[str, Any, int, int]] = []
        #: Wall minus calling-thread CPU for each completed stub call (ns).
        self.client_wait: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: dict[tuple, int] = {}
        self._stub_cpu: dict[Any, int] = {}
        self._local = threading.local()
        self._count_lock = threading.Lock()

    def count(self, name: str, amount: int = 1) -> None:
        with self._count_lock:
            self.counts[name] += amount

    def record(self, kind: str, rid: Any, start: int, end: int) -> None:
        self.spans.append((kind, rid, start, end))

    # Thread-local hand-offs: a wire attempt names the request id its
    # transport call carries; a skeleton names the id of the frame it serves.

    def _stack(self, name: str) -> list:
        stack = getattr(self._local, name, None)
        if stack is None:
            stack = []
            setattr(self._local, name, stack)
        return stack

    def mark_wire(self, rid: Any) -> None:
        self._local.wire_rid = rid

    def take_wire(self) -> Any:
        rid = getattr(self._local, "wire_rid", None)
        self._local.wire_rid = None
        return rid

    @contextmanager
    def patch_des(self) -> Iterator[None]:
        """Time every ``DesCipher.encrypt``/``decrypt`` while the block runs."""
        originals = {name: getattr(DesCipher, name) for name in ("encrypt", "decrypt")}
        recorder = self

        def timed(original):
            def wrapper(cipher, *args, **kwargs):
                start = time.perf_counter_ns()
                try:
                    return original(cipher, *args, **kwargs)
                finally:
                    recorder.count("des_ns", time.perf_counter_ns() - start)

            return wrapper

        for name, original in originals.items():
            setattr(DesCipher, name, timed(original))
        try:
            yield
        finally:
            for name, original in originals.items():
                setattr(DesCipher, name, original)

    # -- reduction ------------------------------------------------------------

    def by_request(self) -> dict[Any, dict[str, list[tuple[int, int]]]]:
        grouped: dict[Any, dict[str, list]] = defaultdict(lambda: defaultdict(list))
        for kind, rid, start, end in list(self.spans):
            if rid is not None:
                grouped[rid][kind].append((start, end))
        return grouped

    def layer_medians(self) -> dict[str, float]:
        """Per-call medians (µs) of every span-derived layer time.

        Only requests whose stub span completed inside a traced block count,
        so a call cut in half by a block boundary is dropped whole.
        """
        per: dict[str, list[float]] = defaultdict(list)
        for spans in self.by_request().values():
            stub = spans.get(STUB)
            if not stub:
                continue
            wire, transport = spans.get(WIRE, []), spans.get(TRANSPORT, [])
            handler, skeleton = spans.get(HANDLER, []), spans.get(SKELETON, [])
            servant = spans.get(SERVANT, [])
            per["core.stub.self_us"].append(self_time(stub[0], wire))
            if wire:
                # Client codec (wire attempt minus its transport call) plus
                # server codec (frame handler minus the skeleton inside it).
                client_codec = nested_self_time(wire, transport)
                server_codec = nested_self_time(handler, skeleton) if handler else 0.0
                per["marshal.self_us"].append(client_codec + server_codec)
            if transport:
                per["net.call_us"].append(nested_self_time(transport, handler))
            if skeleton:
                per["core.skeleton.self_us"].append(nested_self_time(skeleton, servant))
            if servant:
                per["servant.us"].append(
                    sum(end - start for start, end in servant) / len(servant)
                )
        return {
            name: statistics.median(values) / 1000.0 for name, values in per.items()
        }


# -- the invocation observer -------------------------------------------------------


class SpanObserver(InvocationObserver):
    """Stub, wire, skeleton and servant spans keyed by request id."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    # client side -------------------------------------------------------------

    def on_stub_request(self, request) -> None:
        rec = self.recorder
        if rec.active:
            # The CPU reading nests inside the wall reading at both ends, so
            # wall minus CPU never counts the observer's own clock reads.
            rec._open[(STUB, request.request_id)] = time.perf_counter_ns()
            rec._stub_cpu[request.request_id] = time.thread_time_ns()

    def on_stub_complete(self, request, error) -> None:
        rec = self.recorder
        cpu_end = time.thread_time_ns()
        end = time.perf_counter_ns()
        start = rec._open.pop((STUB, request.request_id), None)
        cpu = rec._stub_cpu.pop(request.request_id, None)
        if start is None or not rec.active:
            return
        rec.record(STUB, request.request_id, start, end)
        rec.client_wait.append((end - start) - (cpu_end - cpu))

    def on_wire_send(self, request, server) -> None:
        rec = self.recorder
        if rec.active:
            rec.count("wire_sends")
            rec.mark_wire(request.request_id)
            rec._open[(WIRE, request.request_id, server)] = time.perf_counter_ns()

    def _wire_end(self, request, server) -> None:
        end = time.perf_counter_ns()
        start = self.recorder._open.pop((WIRE, request.request_id, server), None)
        if start is not None:
            self.recorder.record(WIRE, request.request_id, start, end)

    def on_wire_reply(self, request, server, value) -> None:
        self._wire_end(request, server)

    def on_wire_failure(self, request, server, error) -> None:
        self._wire_end(request, server)
        if self.recorder.active:
            self.recorder.count("wire_failures")

    # server side -------------------------------------------------------------

    def on_skeleton_receive(self, object_id, operation, context) -> None:
        rec = self.recorder
        if not rec.active:
            return
        rid = None if operation == CONTROL_OPERATION else (context or {}).get(PB_REQUEST_ID)
        frames = rec._stack("frames")
        if frames and frames[-1][0] is None:
            frames[-1][0] = rid
        rec._stack("skeletons").append((rid, time.perf_counter_ns()))

    def _skeleton_end(self) -> None:
        end = time.perf_counter_ns()
        stack = self.recorder._stack("skeletons")
        if stack:
            rid, start = stack.pop()
            if rid is not None:
                self.recorder.record(SKELETON, rid, start, end)

    def on_skeleton_reply(self, object_id, operation, value) -> None:
        self._skeleton_end()

    def on_skeleton_failure(self, object_id, operation, error) -> None:
        self._skeleton_end()

    def on_servant_invoke(self, request) -> None:
        if self.recorder.active:
            self.recorder._stack("servants").append(time.perf_counter_ns())

    def on_servant_return(self, request, value) -> None:
        end = time.perf_counter_ns()
        stack = self.recorder._stack("servants")
        if stack:
            self.recorder.record(SERVANT, request.request_id, stack.pop(), end)


# -- the network decorator ----------------------------------------------------------


class _TracingConnection(Connection):
    def __init__(self, inner: Connection, recorder: Recorder):
        self._inner = inner
        self._rec = recorder

    def _settled(self, rid, start: int, sent: int, reply: bytes | None) -> None:
        rec = self._rec
        rec.record(TRANSPORT, rid, start, time.perf_counter_ns())
        rec.count("frames", 2 if reply is not None else 1)
        rec.count("bytes", sent + (len(reply) if reply is not None else 0))

    def call(self, data: bytes, timeout: float | None = None) -> bytes:
        if not self._rec.active:
            return self._inner.call(data, timeout=timeout)
        rid = self._rec.take_wire()
        start = time.perf_counter_ns()
        reply = None
        try:
            reply = self._inner.call(data, timeout=timeout)
            return reply
        finally:
            self._settled(rid, start, len(data), reply)

    def call_async(self, data: bytes, timeout: float | None = None) -> ReplyFuture:
        if not self._rec.active:
            return self._inner.call_async(data, timeout=timeout)
        rid = self._rec.take_wire()
        start = time.perf_counter_ns()
        inner = self._inner.call_async(data, timeout=timeout)
        raw: concurrent.futures.Future = concurrent.futures.Future()

        def settle(reply_future: ReplyFuture) -> None:
            # No transform is attached to ``inner``, so result() is the raw
            # reply frame (or the delivery error) and runs nothing else.
            try:
                reply = reply_future.result()
            except BaseException as exc:  # noqa: BLE001 - relayed via the future
                self._settled(rid, start, len(data), None)
                raw.set_exception(exc)
            else:
                self._settled(rid, start, len(data), reply)
                raw.set_result(reply)

        inner.add_done_callback(settle)
        return ReplyFuture(raw, abandon=inner.abandon)

    def close(self) -> None:
        self._inner.close()


class _TracingHost(Host):
    def __init__(self, inner: Host, recorder: Recorder):
        super().__init__(inner.name)
        self._inner = inner
        self._rec = recorder

    def listen(self, service: str, handler) -> Listener:
        rec = self._rec

        def traced(data: bytes) -> bytes:
            if not rec.active:
                return handler(data)
            frames = rec._stack("frames")
            frame = [None]
            frames.append(frame)
            start = time.perf_counter_ns()
            try:
                return handler(data)
            finally:
                frames.pop()
                if frame[0] is not None:
                    rec.record(HANDLER, frame[0], start, time.perf_counter_ns())

        # The async engine reads this mark to keep blocking handlers off
        # its event loop; the wrapper must not hide it.
        if getattr(handler, "cqos_blocking", False):
            traced.cqos_blocking = True
        return self._inner.listen(service, traced)

    def connect(self, address: str) -> Connection:
        return _TracingConnection(self._inner.connect(address), self._rec)


class TracingNetwork(Network):
    """Decorate ``inner`` so every exchange is timed while ``recorder.active``."""

    def __init__(self, inner: Network, recorder: Recorder):
        self.inner = inner
        self.recorder = recorder
        self._hosts: dict[str, _TracingHost] = {}
        self._lock = threading.Lock()

    def host(self, name: str) -> Host:
        with self._lock:
            host = self._hosts.get(name)
            if host is None:
                host = _TracingHost(self.inner.host(name), self.recorder)
                self._hosts[name] = host
            return host

    def crash(self, host_name: str) -> None:
        self.inner.crash(host_name)

    def recover(self, host_name: str) -> None:
        self.inner.recover(host_name)

    def close(self) -> None:
        with self._lock:
            self._hosts.clear()
        self.inner.close()
